"""Check bookkeeping shared by the workloads."""

from __future__ import annotations

import hashlib
import json


def text_digest(out: str, rc: int) -> str:
    """Digest of one command's exit code and stdout."""
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in output")
    return json.loads(text, parse_constant=reject)


class Checks:
    """Counts checks, and holds the first digest seen for each input key.

    ``recorded`` maps input keys to digests recorded at the seed commit; an
    output whose key is there must match it.
    """

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def digest(self, key: str, value: str, valid: bool = True) -> None:
        """One check: the output is valid and its digest equals every earlier
        digest and the recorded digest for the same key."""
        first = self.seen.setdefault(key, value)
        self.count(valid and value == first and self.recorded.get(key, value) == value)
