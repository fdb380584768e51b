"""Command-line options read against one table per command.

An option table is an :class:`Options` tuple of :class:`Option` entries,
which indexes them by flag when it is made. :func:`run` reads a
command line of a group of commands and calls the command: :func:`parse`
reads the text against a table in one loop, :func:`convert` turns it into
each entry's type over the entry's default, and :func:`render_help` renders
the help text from the same table. Errors are :class:`UsageError`s, whose
message starts with the option at fault and keeps the wording of click,
which this module replaced.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

_METAVARS = {str: "TEXT", int: "INTEGER", float: "FLOAT"}


class UsageError(Exception):
    """Command-line text that the option table cannot read."""


class Option(NamedTuple):
    """One entry of an option table. ``convert`` (``str``, ``int`` or
    ``float``) reads the option's text; None makes a flag, which sets ``dest``
    to True, or to False when given as its second, negating spelling. A named
    tuple, not a dataclass: it is built on every cold start."""

    flags: tuple[str, ...]
    dest: str
    convert: type | None = str
    default: object = None
    choices: tuple[str, ...] = ()
    help: str = ""


class Options(tuple):
    """An option table: its :class:`Option` entries, in order, and
    ``by_flag``, each flag's entry, built once with the table."""

    by_flag: dict[str, Option]

    def __new__(cls, *options: Option) -> Options:
        table = super().__new__(cls, options)
        table.by_flag = {flag: opt for opt in options for flag in opt.flags}
        return table


HELP = Option(("--help",), "help", None, help="Show this message and exit.")
_GROUP_OPTIONS = Options(Option(("--version",), "version", None, help="Show the version and exit."), HELP)


def did_you_mean(name: str, known) -> str:
    """The suggestion that follows an unknown option or command name."""
    from difflib import get_close_matches  # on this error path only

    matches = sorted(get_close_matches(name, known))
    if len(matches) == 1:
        return f" Did you mean {matches[0]!r}?"
    return f" (Did you mean one of: {', '.join(map(repr, matches))}?)" if matches else ""


def parse(options: Options, argv: list[str], *, interspersed: bool = True) -> tuple[dict, list[str]]:
    """Read ``argv`` against an option table, as ``--opt value``, ``--opt=value``
    or a bare flag. Returns ``{dest: (option, text or flag value)}`` in the order
    the options were first given, the last given value winning, and the
    arguments that are not options. Reading stops at ``--``, and, without
    ``interspersed`` (a command group's options), also at the first argument
    that is not an option, which is returned with all that follow it."""
    by_flag = options.by_flag
    given, rest = {}, []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--":
            rest += argv[i:]
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                rest += argv[i - 1:]
                break
            rest.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        opt = by_flag.get(flag)
        if opt is None:
            if arg[:2] != "--":  # "-abc" reads as one-letter options, and there are none
                flag, by_flag = arg[:2], ()
            raise UsageError(f"{flag}: No such option {flag!r}.{did_you_mean(flag, by_flag)}")
        if opt.convert is None:
            if eq:
                raise UsageError(f"{flag}: Option {flag!r} does not take a value.")
            value = flag == opt.flags[0]
        elif not eq:
            if i == len(argv):
                raise UsageError(f"{flag}: Option {flag!r} requires an argument.")
            value = argv[i]
            i += 1
        given[opt.dest] = (opt, value)
    return given, rest


def convert(options: tuple[Option, ...], given: dict) -> dict:
    """Each option's default, replaced by its value from :func:`parse`,
    converted, in the order given (the first bad one raises)."""
    values = {opt.dest: opt.default for opt in options}
    for dest, (opt, value) in given.items():
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{opt.flags[0]}: {value!r} is not one of {', '.join(map(repr, opt.choices))}.")
        if opt.convert is int or opt.convert is float:
            try:
                value = opt.convert(value)
            except ValueError:
                kind = "integer" if opt.convert is int else "float"
                raise UsageError(f"{opt.flags[0]}: {value!r} is not a valid {kind}.") from None
        values[dest] = value
    return values


def render_help(usage: str, doc: str, options: tuple[Option, ...], commands: dict[str, str] | None = None) -> str:
    """Help text from an option table, and for a group its ``{name: summary}``
    commands, wrapped to 78 columns."""
    import textwrap

    rows = []
    for opt in options:
        term = " / ".join(opt.flags)
        if opt.choices:
            term += f" [{'|'.join(opt.choices)}]"
        elif opt.convert is not None:
            term += f" {_METAVARS[opt.convert]}"
        default = opt.flags[0].removeprefix("--") if opt.default is True and len(opt.flags) > 1 else opt.default
        shown = "" if default is None or default is False else f"  [default: {default}]"
        rows.append((term, f"{opt.help}{shown}".strip()))
    sections = [("Options", rows)]
    if commands:
        sections.append(("Commands", list(commands.items())))
    lines = [f"Usage: {usage}", "", f"  {doc}"]
    for title, rows in sections:
        width = min(max(len(term) for term, _ in rows), 30)
        lines += ["", f"{title}:"]
        for term, text in rows:
            wrapped = textwrap.wrap(text, 74 - width) or [""]
            if len(term) > width:  # the term on a line of its own
                lines.append(f"  {term}")
                term = ""
            lines.append(f"  {term:{width}}  {wrapped[0]}".rstrip())
            lines += [f"  {'':{width}}  {line}" for line in wrapped[1:]]
    return "\n".join(lines) + "\n"


def _group_help(prog: str, doc: str, commands: dict) -> str:
    summaries = {name: fn.__doc__.strip() for name, (fn, _) in commands.items()}
    return render_help(f"{prog} [OPTIONS] COMMAND [ARGS]...", doc, _GROUP_OPTIONS, summaries)


def run(prog: str, version: str, doc: str, commands: dict, argv: list[str]) -> int:
    """Read one command line of the group ``prog`` and run its command.
    ``commands`` maps each name to its function and option table, whose
    entries (less :data:`HELP`) are the function's keyword arguments; its
    return value is the exit code, None meaning 0. ``--help`` and
    ``--version`` print to stdout and exit 0; a bare ``prog`` prints the help
    to stderr and exits 1, a missing command being an input error."""
    given, rest = parse(_GROUP_OPTIONS, argv, interspersed=False)
    if not given and rest and rest[0] not in commands and not rest[0][:1].isalnum():
        # an unknown command that looks like an option (it followed "--") is
        # read as the group's options once more, as click did
        given, _ = parse(_GROUP_OPTIONS, rest, interspersed=False)
    if given:  # the first of --help and --version given
        if next(iter(given)) == "help":
            sys.stdout.write(_group_help(prog, doc, commands))
        else:
            sys.stdout.write(f"{prog}, version {version}\n")
        return 0
    if not rest:
        if argv:
            raise UsageError("command: Missing command.")
        sys.stderr.write(_group_help(prog, doc, commands))
        return 1
    name, args = rest[0], rest[1:]
    if name not in commands:
        raise UsageError(f"command: No such command {name!r}.{did_you_mean(name, commands)}")
    fn, options = commands[name]
    given, extra = parse(options, args)
    if "help" in given:
        sys.stdout.write(render_help(f"{prog} {name} [OPTIONS]", fn.__doc__.strip(), options))
        return 0
    kwargs = convert(options, given)
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise UsageError(f"command: Got unexpected extra argument{plural} ({' '.join(extra)})")
    del kwargs["help"]
    return fn(**kwargs) or 0
