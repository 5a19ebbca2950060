"""Byte-identity check of the ghzsim command line against another revision.

Usage (from anywhere inside a ghzsim checkout):

    python3 bench/ab.py --against REV [--expect-diff NAME ...]

REV is checked out with `git worktree add` under `.bench_build/ab/`, so no
network is needed, and the worktree is removed again at the end. Each
command of COMMANDS then runs as a fresh `python3 -m ghzsim.cli` process on
REV and on this checkout's working tree, uncommitted edits included. Every
run gets an empty working directory of its own, the umask 022, and each
command runs twice per tree: with PYTHONUNBUFFERED=1 and without it.

The two trees' runs are compared on the exit code, stdout, stderr and every
file left in the working directory, with its mode. One line per command
says `same` or `DIFF` and what differs; the exit status is 1 if a command
differs that no `--expect-diff NAME` names, else 0.
"""
from __future__ import annotations

import argparse
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

X_SCENARIOS = ("ABC_I", "ABC_II", "AB_I_C_I", "AB_I_C_II", "AB_II_C_I", "AB_II_C_II")
SCENARIOS = X_SCENARIOS + ("AB_I_B_II", "AC_I_C_II")

#: name -> (CLI arguments, files to put in the working directory first).
COMMANDS: dict[str, tuple[list[str], dict[str, str]]] = {
    "sweep-csv": (["sweep"], {}),
    "sweep-csv-out": (["sweep", "--out", "sweep.csv"], {}),
    "sweep-json": (["sweep", "--format", "json"], {}),
    "sweep-json-out": (["sweep", "--format", "json", "--out", "sweep.json"], {}),
    "sweep-non-x": (
        ["sweep", "--scenario", "AB_I_B_II", "--engine", "numeric", "--measures", "S,C",
         "--alpha", "0.6", "--beta-steps", "7", "--p-steps", "5"],
        {},
    ),
    "sweep-config-file": (
        ["sweep", "--config", "run.cfg", "--beta-steps", "3", "--out", "cfg.csv"],
        {"run.cfg": "alpha = 0.5\np-steps = 4\nengine = closedform\n"},
    ),
    "audit": (["audit"], {}),
    **{f"audit-{name}": (["audit", "--scenario", name], {}) for name in SCENARIOS},
    "audit-options": (
        ["audit", "--alpha", "0.6", "--beta-steps", "11", "--p-steps", "9", "--tol", "1e-3",
         "--seed", "7", "--samples", "20", "--out", "audit.json"],
        {},
    ),
    **{
        f"boundary-{measure}-{name}": (["boundary", "--measure", measure, "--scenario", name], {})
        for measure in ("S", "E")
        for name in X_SCENARIOS
    },
    "boundary-options": (
        ["boundary", "--measure", "E", "--scenario", "AB_I_C_I", "--alpha", "0.6",
         "--beta-steps", "9", "--tol", "1e-9", "--format", "json", "--out", "boundary.json"],
        {},
    ),
    "sumrules": (["sumrules"], {}),
    "sumrules-options": (["sumrules", "--alpha", "0.8", "--samples", "50", "--seed", "3"], {}),
    **{f"figure-{k}": (["figure", "--figure", str(k), "--out", f"f{k}.csv"], {})
       for k in range(1, 8)},
    "help": (["--help"], {}),
    **{f"help-{command}": ([command, "--help"], {})
       for command in ("sweep", "audit", "boundary", "sumrules", "figure")},
    "usage-error": (["sweep", "--workers", "2"], {}),
    "config-error": (["audit", "--seed", "-1"], {}),
}

#: Each command runs once per setting of PYTHONUNBUFFERED (None: unset).
UNBUFFERED = ("1", None)


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"git {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout.strip()


def _files(directory: str) -> dict[str, tuple[int, bytes]]:
    """Every file under `directory`, by relative path: its mode and bytes."""
    found = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as handle:
                data = handle.read()
            found[os.path.relpath(path, directory)] = (stat.S_IMODE(os.lstat(path).st_mode), data)
    return found


def run(tree: Path, args: list[str], setup: dict[str, str], unbuffered: str | None) -> dict:
    """One CLI process of `tree` in a fresh working directory."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    with tempfile.TemporaryDirectory(prefix="ab-") as cwd:
        for name, text in setup.items():
            Path(cwd, name).write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "ghzsim.cli", *args], cwd=cwd, env=env, capture_output=True
        )
        return {
            "exit": done.returncode,
            "stdout": done.stdout,
            "stderr": done.stderr,
            "files": _files(cwd),
        }


def differences(a: dict, b: dict) -> list[str]:
    """What differs between two runs: exit, stdout, stderr, each file."""
    found = [part for part in ("exit", "stdout", "stderr") if a[part] != b[part]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        mode_a, data_a = a["files"].get(name, (None, None))
        mode_b, data_b = b["files"].get(name, (None, None))
        if data_a is None or data_b is None:
            found.append(f"{name} (written by one tree only)")
        elif mode_a != mode_b:
            found.append(f"{name} (mode {mode_a:o} != {mode_b:o})")
        elif data_a != data_b:
            found.append(name)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="revision to compare with")
    parser.add_argument(
        "--expect-diff", action="append", default=[], choices=sorted(COMMANDS), metavar="NAME",
        help="a command whose output may differ (repeatable)",
    )
    args = parser.parse_args(argv)

    sha = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    base = ROOT / ".bench_build" / "ab" / sha
    if base.exists():
        _git("worktree", "remove", "--force", str(base))
    base.parent.mkdir(parents=True, exist_ok=True)
    _git("worktree", "add", "--detach", "--quiet", str(base), sha)
    os.umask(0o022)
    unexpected = 0
    try:
        for name, (cli_args, setup) in COMMANDS.items():
            found = []
            for unbuffered in UNBUFFERED:
                theirs = run(base, cli_args, setup, unbuffered)
                ours = run(ROOT, cli_args, setup, unbuffered)
                setting = "unset" if unbuffered is None else unbuffered
                found += [f"{d} [PYTHONUNBUFFERED={setting}]" for d in differences(theirs, ours)]
            if not found:
                print(f"same  {name}", flush=True)
                continue
            expected = name in args.expect_diff
            unexpected += not expected
            print(f"DIFF  {name}{' (expected)' if expected else ''}: {'; '.join(found)}", flush=True)
    finally:
        _git("worktree", "remove", "--force", str(base))
    runs = len(COMMANDS) * len(UNBUFFERED)
    print(f"{len(COMMANDS)} commands, {runs} runs per tree against {sha[:12]}: "
          f"{unexpected} unexpected difference(s)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
