"""Run the CLI in process with stdout and stderr captured.

``CliRunner().invoke(main, argv)`` calls ``main(argv, standalone_mode=False)``
and returns a :class:`Result` with the exit code, both streams, their
interleaved ``output`` and any exception that escaped ``main``. The process
exit path (``sys.exit`` of the console script) is covered by running
``python -m wavecore.cli`` in a subprocess.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str                                 # stdout and stderr in the order written
    exception: BaseException | None

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class _Tee(io.StringIO):
    """A captured stream that also appends what it is sent to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, cli, args) -> Result:
        shared = io.StringIO()
        out, err = _Tee(shared), _Tee(shared)
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                exit_code = cli(list(args), standalone_mode=False)
            except Exception as exc:            # reported, as a traceback would be
                exit_code, exception = 1, exc
        return Result(exit_code, out.getvalue(), err.getvalue(), shared.getvalue(), exception)
