"""Command-line front end.

Subcommands: sweep, audit, boundary, sumrules, figure. Each registers only
the flags it reads, so an unknown or ignored flag is an error. Every flag but
--config can also be supplied through a flat key=value config file
(--config); explicit flags win over config-file values, and a key that is
not a flag of the subcommand is a configuration error, as is a key given
twice (`beta-steps` and `beta_steps` are one key). In a config file a `#` at
the start of a line or after whitespace starts a comment; one inside a value
is part of it.

The library returns plain data and text and writes no file; only the CLI
picks where output goes (--out, else stdout), its format (--format) and a
multi-measure figure's file names, and writes. A regular file is written
whole or not at all; an existing FIFO or device is written as a plain
open() writes it (`write_text_atomic`). Each subcommand calls its workflow
with every flag that was set but --out, --format and --config, under the
flag's own name, which is the parameter's; an unset flag is left out, so
the library's defaults, each written once in `sweep`, are the CLI's too.

Exit codes: 0 success, 2 configuration error (a ConfigError), 3 I/O error
(a closed stdout, or a reader that closes the pipe early, included), 4 the
audit found discrepancies above tolerance; a closed stderr changes none. Float
flags are plain `float`s: the library checks them and reads -0.0 as 0.0.

`main(argv)` is the in-process API: it returns the exit code. `run()` is the
process entry (the `ghzsim` script, `python -m ghzsim.cli`). Every CLI byte,
argparse's help and usage errors included, goes through `_emit` or `_say`.

The parser lists the choices of the named flags from the numpy-free
`qcore.CHOICES`, and `main` passes each named flag that is set through
`qcore.checked` before the subcommand imports `sweep`, and with it numpy: help,
usage, config-file and name errors end before numpy loads, and `checked`
decides a numeric value's domain after.
"""
from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from typing import NoReturn

# No ghzsim kernel calls BLAS, and an idle OpenBLAS worker thread spins about
# 0.1 s of CPU per process; this must run before the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .qcore import CHOICES, ConfigError, checked

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_AUDIT_FLAGGED = 4


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = list(handle)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    for lineno, raw in enumerate(lines, 1):
        line = re.sub(r"(^|\s)#.*", "", raw).strip()  # a `#` inside a value is text
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in linenos:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {linenos[key]}")
        values[key], linenos[key] = value.strip(), lineno
    return values


def _names(raw: str) -> tuple[str, ...]:
    return tuple(raw.split(","))


#: named flag -> settings that list its choices in help as argparse lists `choices`
_LISTED = {name: {"metavar": "{%s}" % ",".join(map(str, v))} for name, v in CHOICES.items()}

#: flag -> (type, further argparse settings). The type casts the flag's one
#: value, from the command line or from a config file.
_FLAGS: dict[str, tuple] = {
    "alpha": (float, {"help": "GHZ amplitude (default 1/sqrt(2))"}),
    "beta_steps": (int, {}),
    "p_steps": (int, {}),
    "scenario": (str, _LISTED["scenario"]),
    "measures": (_names, {"help": f"comma list from {','.join(CHOICES['measures'])}"}),
    "measure": (str, _LISTED["measure"]),
    "engine": (str, _LISTED["engine"]),
    "figure": (int, _LISTED["figure"]),
    "resolution": (int, {}),
    "tol": (float, {}),
    "seed": (int, {}),
    "samples": (int, {"help": "random sum-rule points"}),
    "out": (str, {"help": "output path (stdout when omitted)"}),
    "format": (str, _LISTED["format"]),
    "config": (str, {"help": "flat key=value config file"}),
}

#: subcommand -> (help, the flags it reads). No subcommand takes a flag it
#: would ignore, and each flag but out, format and config is a parameter of
#: the subcommand's workflow under its own name.
_SUBCOMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "sweep": (
        "evaluate measures over a (beta, p) grid",
        ("alpha", "beta_steps", "p_steps", "scenario", "measures", "engine", "out",
         "format", "config"),
    ),
    "audit": (
        "compare closed forms against the numeric engine",
        ("alpha", "beta_steps", "p_steps", "scenario", "tol", "seed", "samples", "out",
         "config"),
    ),
    "boundary": (
        "sudden-death boundary p*(beta)",
        ("alpha", "beta_steps", "scenario", "measure", "tol", "out", "format", "config"),
    ),
    "sumrules": ("coherence sum-rule residuals", ("alpha", "samples", "seed", "out", "config")),
    "figure": (
        "emit surface data for one figure",
        ("alpha", "figure", "resolution", "out", "config"),
    ),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, cast as the flags themselves are."""
    if args.config is None:
        return args
    flags = _SUBCOMMANDS[args.command][1]
    for key, raw in _read_config_file(args.config).items():
        if key not in flags or key == "config":
            raise ConfigError(f"config key {key!r} is not a flag of {args.command}")
        if getattr(args, key) is not None:
            continue
        try:
            value = _FLAGS[key][0](raw)
        except ValueError:
            raise ConfigError(f"config key {key}={raw!r} has the wrong type") from None
        setattr(args, key, value)
    return args


class _Parser(argparse.ArgumentParser):
    """Writes argparse's own help and usage-error bytes through `_emit` and `_say`."""

    def print_help(self, file=None) -> None:
        _emit(self.format_help(), None)

    def error(self, message: str) -> NoReturn:
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzsim",
        description=(
            "Nonlocality, entanglement and coherence of GHZ-like states for "
            "accelerated observers under amplitude damping"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _SUBCOMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        for flag in flags:
            cast, settings = _FLAGS[flag]
            p_command.add_argument(
                "--" + flag.replace("_", "-"), dest=flag, default=None, type=cast, **settings
            )
    return parser


def _given(args: argparse.Namespace) -> dict:
    """Keyword arguments for the subcommand's workflow: each flag of the
    subcommand but the ones the CLI reads itself (out, format, config) that
    the command line or the config file set, under its own name. An unset
    flag is left out, so the library's default stands."""
    return {f: getattr(args, f) for f in _SUBCOMMANDS[args.command][1]
            if f not in ("out", "format", "config") and getattr(args, f) is not None}


def _write_all(stream, text: str) -> None:
    """Write `text` to a text stream through its binary layer, until every
    byte is out. Under PYTHONUNBUFFERED that layer is the raw file, which
    may take only part of a write (a pipe whose reader has gone), and the
    text layer would drop the rest without an error; here the next write
    raises EPIPE instead. The text layer is flushed first, so output keeps
    its order, and the binary layer last, so a failed write or flush is an
    OSError here. A stream with no binary layer gets the text as it is."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[buffer.write(data) :]  # None, from a full non-blocking file, retries
    buffer.flush()


def write_text_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so no reader sees a partial file. As with a plain open(), a
    symlink at `path` is written through: the file it points to is replaced
    and the link stays. The file keeps the mode a plain open() would leave,
    not mkstemp's 0o600: an existing file's own mode, else 0o666 less the
    umask. An existing `path` that is not a regular file (a FIFO, a device
    such as /dev/stdout) has no contents to replace: it is written through
    a plain open(), with no temporary file and no rename. An OSError names
    `path`, not the temporary file or the link's target."""
    import stat
    import tempfile

    try:
        mode = os.stat(path).st_mode  # a link's target's
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    tmp = ""
    try:
        if not stat.S_ISREG(mode):  # a directory fails here, with EISDIR
            with open(path, "w") as handle:
                handle.write(text)
            return
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            handle.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):  # only a failed write leaves it
            os.unlink(tmp)


def _say(line: str) -> None:
    """Write one line to stderr, or drop it where stderr is closed (None, or
    the write fails): stdout and exit codes never depend on it."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        pass


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    elif sys.stdout is None:  # the process started with descriptor 1 closed
        raise OSError(errno.EBADF, "standard output is closed")
    else:
        _write_all(sys.stdout, text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import records_to_csv, records_to_json, run_sweep
    rows = run_sweep(**_given(args))
    _emit(records_to_json(rows) if args.format == "json" else records_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    from .sweep import json_text, run_audit
    report = run_audit(**_given(args))
    _emit(json_text(report), args.out)
    if report["flags"]:
        _say(f"audit: {len(report['flags'])} discrepancy flag(s) raised")
        return EXIT_AUDIT_FLAGGED
    return EXIT_OK


def _cmd_boundary(args: argparse.Namespace) -> int:
    if args.measure is None:
        raise ConfigError(f"boundary requires --measure {'|'.join(CHOICES['measure'])}")
    from .sweep import boundary_to_csv, find_boundary, json_text
    result = find_boundary(**_given(args))
    _emit(json_text(result) if args.format == "json" else boundary_to_csv(result), args.out)
    return EXIT_OK


def _cmd_sumrules(args: argparse.Namespace) -> int:
    from .sweep import json_text, sum_rule_samples
    _emit(json_text(sum_rule_samples(**_given(args))), args.out)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.figure is None:
        raise ConfigError(f"figure requires --figure {'|'.join(map(str, CHOICES['figure']))}")
    if args.out is None:
        raise ConfigError("figure requires --out")
    from .sweep import figure_csv
    texts = figure_csv(**_given(args))
    # One measure writes exactly --out; several suffix the measure's name.
    stem, ext = os.path.splitext(args.out)
    paths = [args.out] if len(texts) == 1 else [f"{stem}_{m}{ext or '.csv'}" for m in texts]
    for path, text in zip(paths, texts.values()):
        _emit(text, path)
    _emit("".join(f"{path}\n" for path in paths), None)
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
    "boundary": _cmd_boundary,
    "sumrules": _cmd_sumrules,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _merge_config(build_parser().parse_args(argv))
        for name in CHOICES:  # a named flag from either source, before numpy loads
            if getattr(args, name, None) is not None:
                checked(name, getattr(args, name))
        if args.out is not None and os.path.basename(args.out) in ("", ".", ".."):
            raise ConfigError(f"--out must name a file, got {args.out!r}")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help, or a usage error `_Parser.error` has reported
        return exc.code
    except ConfigError as exc:
        _say(f"error: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        _say(f"I/O error: {exc}")
        return EXIT_IO


def run() -> NoReturn:
    """Run `main()` on the process's arguments and end the process with
    `os._exit` and its code. Nothing is left to flush: `_emit` flushes each
    write to stdout, and stderr is line-buffered. Only an exception from
    `main()`, an internal error, takes the normal exit path, with its
    traceback and exit code.

    `os._exit` skips CPython's finalization, about 35 ms per process: the
    garbage-collection passes over what numpy and the imports leave, and
    the module teardown. Nothing is lost: every output file is closed before
    `main()` returns, and ghzsim registers no `atexit` handler. The ones
    site-packages register are skipped too; certifi's only removes an
    extracted copy of its CA bundle, which an unpacked install never makes."""
    os._exit(main())


if __name__ == "__main__":
    run()
