"""Byte identity and alternating timing pairs of the ghzsim command line
against another revision.

Usage (from anywhere inside a ghzsim checkout):

    python3 bench/ab.py --against REV [--expect-diff NAME ...]
    python3 bench/ab.py --against REV --pairs N [--workload grid|audit|scan]
    python3 bench/ab.py --record PATH

REV's `src/` is extracted with `git archive` into a temporary directory, so
no network is needed and the repository itself is left as it was. Every
command runs as a fresh `python3 -m ghzsim.cli` process of REV or of this
checkout's working tree, uncommitted edits included, in an empty working
directory of its own and under the umask 022.

Identity (the default): each command of COMMANDS runs twice per tree, with
PYTHONUNBUFFERED=1 and without it. The two trees' runs are compared on the
exit code, stdout, stderr and every file left in the working directory, with
its mode. One line per command says `same` or `DIFF` and what differs; the
exit status is 1 if a command differs that no `--expect-diff NAME` names,
else 0.

Timing (`--pairs N`): each pair is one cold pass of a workload's commands
(WORKLOADS, at the CLI's default sizes) on each tree, REV first on even
pairs and this checkout first on odd ones, because the machine drifts over
minutes and only alternating pairs compare. A pass sums over its commands
the wall time, the user+sys CPU time and the minor page faults, and takes
the largest peak RSS of its commands (`rss_mib`); the last three are read
from `os.wait4` of each process. A child's `ru_maxrss` can include the RSS
it was forked with, but this script imports no numpy, so its own RSS stays
below every CLI child's peak. Per metric it prints each side's min, q1,
median, q3 and max, then the median of the paired differences (this
checkout minus REV) and the pairs this checkout won (lower). For the two
timing metrics, the ones the benchmark gates, it also prints whether a gain
claim holds: at least 9 in 10 pairs won and the medians apart by more than
REV's interquartile range. Peak RSS and minor faults get no claim. The
fault count moves with memory layout by more than a code change moves it
(for the same two trees, the default `audit` read +126 faults per pass
under this script and -622 with REV's `src/` extracted into another
directory). Without `--workload` every workload runs. The exit status is 1
if a command exits with another code than its expected one, else 0.

Recording (`--record PATH`, no REV): each command of RECORDED, every
WORKLOADS command, `sweep --format json` and 301 x 301 and 601 x 601 sweeps
in both formats, runs RECORD_RUNS times cold in this checkout's working
tree, one command after another in each round, through the same `os.wait4`
path as a timing pass. PATH gets a JSON document: per command, the median
and interquartile range of each metric above, and a `meta` block with the
CPUs this process may use (`nproc`), the Python and numpy versions (numpy's
from its installed metadata, so this script still imports no numpy), the git
revision (with `+dirty` when `src/` differs from it) and
PYTHONDONTWRITEBYTECODE, the bytecode policy every child inherits. It holds
no timestamp, so a rerun changes only the measured values.

The record's `stages` block holds the median microseconds per grid point of
each layer function (`engine.scenario_reduced_entries`, `damp_entries`,
`support_measures` and `numeric_batch`, which runs them;
`closedform.cf_eval`; `sweep.records_to_csv` and `records_to_json`;
`cli.write_text_atomic`) as a default `sweep --scenario S --out F` pays it,
per STAGE_SCENARIOS scenario. Each of STAGE_RUNS fresh child processes per
format (`stage_spans`) wraps every stage where its callers look it up, calls
`cli.main` once and prints each stage's seconds, summed over its calls.
`records_to_json` comes from the `--format json` runs, every other stage
from the CSV runs. So this script still imports no numpy. `records_to_csv`
and `records_to_json` return generators of chunks, which format one beta row
each as `cli.write_text_atomic` draws them: the two stages time the
formatting as it is drawn, and `cli.write_text_atomic`, which draws them,
includes it.

The record's `cold_split` block says where a cold call's time goes. Before
the commands, each `python3` variant of COLD_SPLIT runs SPLIT_ROUNDS times,
in an order that rotates by one each round: one does nothing without `site`
(`-S`), one does nothing, one imports numpy with one OpenBLAS thread, as the
CLI does, and one imports the CLI and the library. Each ends in
`os._exit(0)`, as `cli.run` does, so none pays interpreter teardown. The
block holds each variant's wall-time median and interquartile range, and
each recorded command's own work: its wall-time median less the last
variant's. No variant sets PYTHONPYCACHEPREFIX: under
PYTHONDONTWRITEBYTECODE, an empty prefix would make every process recompile
the standard library.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import stat
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
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
    "sweep-small-c": (
        ["sweep", "--scenario", "AB_I_B_II", "--alpha", "1e-8", "--measures", "C",
         "--beta-steps", "3", "--p-steps", "3"],
        {},
    ),
    # The X test is exact, so at a small alpha too S and E are NaN off the
    # beta = 0 row and the p = 1 column.
    "sweep-small-alpha-non-x": (
        ["sweep", "--scenario", "AB_I_B_II", "--alpha", "1e-6", "--measures", "S,E",
         "--beta-steps", "7", "--p-steps", "5"],
        {},
    ),
    # At alpha = 1e-162 the two-flip coherence underflows to 0, but the
    # state is still not X, so S and E stay NaN off those lines too.
    "sweep-nonx-tiny-alpha": (
        ["sweep", "--scenario", "AB_I_B_II", "--alpha", "1e-162", "--engine", "numeric",
         "--beta-steps", "3", "--p-steps", "3"],
        {},
    ),
    "sweep-config-file": (
        ["sweep", "--config", "run.cfg", "--beta-steps", "3", "--out", "cfg.csv"],
        {"run.cfg": "alpha = 0.5\np-steps = 4\nengine = closedform\n"},
    ),
    "sweep-config-measures": (
        ["sweep", "--config", "run.cfg", "--beta-steps", "5", "--p-steps", "4"],
        {"run.cfg": "measures = S,E\n"},
    ),
    "sweep-negative-zero": (["sweep", "--alpha", "-0.0", "--engine", "closedform"], {}),
    # stdout is a pipe here: --out writes it as a shell `>` would, with no rename.
    "sweep-out-dev-stdout": (
        ["sweep", "--beta-steps", "2", "--p-steps", "2", "--out", "/dev/stdout"], {}
    ),
    "audit": (["audit"], {}),
    **{f"audit-{name}": (["audit", "--scenario", name], {}) for name in SCENARIOS},
    "audit-config-file": (
        ["audit", "--config", "run.cfg", "--beta-steps", "5", "--p-steps", "5", "--samples", "10"],
        {"run.cfg": "scenario = AB_I_C_I\n"},
    ),
    "audit-options": (
        ["audit", "--alpha", "0.6", "--beta-steps", "11", "--p-steps", "9", "--tol", "1e-3",
         "--seed", "7", "--samples", "20", "--out", "audit.json"],
        {},
    ),
    "audit-tol-inf": (["audit", "--tol", "inf", "--out", "audit.json"], {}),
    **{
        f"boundary-{measure}-{name}": (["boundary", "--measure", measure, "--scenario", name], {})
        for measure in ("S", "E")
        for name in X_SCENARIOS
    },
    "boundary-config-file": (
        ["boundary", "--config", "run.cfg"],
        {"run.cfg": "measure = E\nscenario = AB_I_C_I\nbeta-steps = 5\ntol = 1e-9\n"},
    ),
    "boundary-options": (
        ["boundary", "--measure", "E", "--scenario", "AB_I_C_I", "--alpha", "0.6",
         "--beta-steps", "9", "--tol", "1e-9", "--format", "json", "--out", "boundary.json"],
        {},
    ),
    "boundary-tol-0": (["boundary", "--measure", "S", "--tol", "0"], {}),
    "sumrules": (["sumrules"], {}),
    "sumrules-options": (["sumrules", "--alpha", "0.8", "--samples", "50", "--seed", "3"], {}),
    "sumrules-config-file": (
        ["sumrules", "--config", "run.cfg"], {"run.cfg": "samples = 20\nseed = 5\n"}
    ),
    **{f"figure-{k}": (["figure", "--figure", str(k), "--out", f"f{k}.csv"], {})
       for k in range(1, 8)},
    "figure-config-file": (
        ["figure", "--config", "run.cfg", "--resolution", "16", "--out", "f.csv"],
        {"run.cfg": "figure = 2\n"},
    ),
    "help": (["--help"], {}),
    **{f"help-{command}": ([command, "--help"], {})
       for command in ("sweep", "audit", "boundary", "sumrules", "figure")},
    "usage-error": (["sweep", "--workers", "2"], {}),
    "usage-no-command": ([], {}),
    "usage-bad-float": (["sweep", "--alpha", "x"], {}),
    "config-error": (["audit", "--seed", "-1"], {}),
    # A named parameter's error, from the library's one check.
    "sweep-repeated-measures": (
        ["sweep", "--measures", "S,S", "--beta-steps", "2", "--p-steps", "2"], {}
    ),
    "sweep-unknown-measure": (
        ["sweep", "--measures", "S,Q", "--beta-steps", "2", "--p-steps", "2"], {}
    ),
    # A bad name given by flag or by config file gets that one check's
    # message too, before anything is computed or written.
    "sweep-unknown-scenario": (["sweep", "--scenario", "nope"], {}),
    "figure-unknown-figure": (["figure", "--figure", "9", "--out", "f.csv"], {}),
    "boundary-unknown-format": (["boundary", "--measure", "S", "--format", "xml"], {}),
    "sweep-config-unknown-engine": (["sweep", "--config", "run.cfg"], {"run.cfg": "engine = fast\n"}),
    # Each count at the edge of its domain.
    "sweep-beta-steps-1": (["sweep", "--beta-steps", "1"], {}),
    # Rows of one point each, in both formats.
    "sweep-p-steps-1": (["sweep", "--p-steps", "1"], {}),
    "sweep-p-steps-1-json": (["sweep", "--p-steps", "1", "--format", "json"], {}),
    "audit-p-steps-1": (["audit", "--p-steps", "1", "--samples", "2"], {}),
    "boundary-beta-steps-0": (["boundary", "--measure", "S", "--beta-steps", "0"], {}),
    "figure-resolution-15": (
        ["figure", "--figure", "1", "--resolution", "15", "--out", "f.csv"], {}
    ),
    "sumrules-samples-0": (["sumrules", "--samples", "0"], {}),
    "sumrules-seed-negative": (["sumrules", "--seed", "-1"], {}),
}

#: Each command runs once per setting of PYTHONUNBUFFERED (None: unset).
UNBUFFERED = ("1", None)

#: workload -> its commands at the CLI's default sizes, each with the exit
#: code it must return; the same work as the benchmark's workloads.
WORKLOADS: dict[str, list[tuple[list[str], int]]] = {
    "grid": [
        (["sweep", "--scenario", "ABC_I", "--engine", "both", "--out", "sweep.csv"], 0),
        (["figure", "--figure", "4", "--out", "figure.csv"], 0),
    ],
    "audit": [(["audit", "--out", "audit.json"], 4)],
    "scan": [
        (["boundary", "--measure", "S", "--scenario", "ABC_I", "--out", "boundary_S.csv"], 0),
        (["boundary", "--measure", "E", "--scenario", "AB_I_C_I", "--out", "boundary_E.csv"], 0),
        (["sumrules", "--out", "sumrules.json"], 0),
    ],
}

#: The commands `--record` times: every workload's, then the sweep as JSON,
#: then 301 x 301 and 601 x 601 sweeps in each format, whose peak RSS shows
#: whether memory grows with the grid.
RECORDED = [command for commands in WORKLOADS.values() for command in commands] + [
    (["sweep", "--format", "json", "--out", "sweep.json"], 0)
] + [
    (["sweep", "--beta-steps", steps, "--p-steps", steps, *fmt, "--out", out], 0)
    for steps in ("301", "601")
    for fmt, out in (([], "sweep.csv"), (["--format", "json"], "sweep.json"))
]
#: Cold runs of each recorded command.
RECORD_RUNS = 10

#: cold-split variant -> its `python3` arguments, in the order the time adds
#: up: `-S` skips `site`. numpy loads with one OpenBLAS thread, as the CLI
#: loads it.
COLD_SPLIT = {
    "no-site": ["-S", "-c", "import os; os._exit(0)"],
    "interpreter": ["-c", "import os; os._exit(0)"],
    "numpy": ["-c", "import os; os.environ.setdefault('OPENBLAS_NUM_THREADS', '1'); "
                    "import numpy; os._exit(0)"],
    "ghzsim": ["-c", "import os, ghzsim.cli, ghzsim.sweep; os._exit(0)"],
}
#: Rounds of the cold split.
SPLIT_ROUNDS = 15

#: The scenarios whose layer functions `--record` times: one damped mode, and two.
STAGE_SCENARIOS = ("ABC_I", "AB_I_C_I")
#: Fresh `sweep` processes per scenario and format that time the stages.
STAGE_RUNS = 9
#: Each timed stage at the name its callers look it up by. The record names a
#: stage by its own module: `sweep.numeric_batch` is `engine.numeric_batch`.
STAGES = ("sweep.numeric_batch", "engine.scenario_reduced_entries", "engine.damp_entries",
          "engine.support_measures", "sweep.cf_eval", "sweep.records_to_csv",
          "sweep.records_to_json", "cli.write_text_atomic")

#: metric -> its print format, in `cold_pass`'s order.
METRICS = {"wall_s": ".4f", "cpu_s": ".4f", "minflt": ".0f", "rss_mib": ".1f"}
#: The metrics that get a gain claim.
CLAIMED = ("wall_s", "cpu_s")


def _git(*args: str) -> bytes:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if done.returncode:
        sys.exit(f"git {' '.join(args)} failed:\n{done.stderr.decode()}")
    return done.stdout


def _env(tree: Path, unbuffered: str | None = None) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


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
    with tempfile.TemporaryDirectory(prefix="ab-") as cwd:
        for name, text in setup.items():
            Path(cwd, name).write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "ghzsim.cli", *args], cwd=cwd, env=_env(tree, unbuffered),
            capture_output=True,
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


def identity(base: Path, label: str, expect_diff: list[str]) -> int:
    unexpected = 0
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
        expected = name in expect_diff
        unexpected += not expected
        print(f"DIFF  {name}{' (expected)' if expected else ''}: {'; '.join(found)}", flush=True)
    runs = len(COMMANDS) * len(UNBUFFERED)
    print(f"{len(COMMANDS)} commands, {runs} runs per tree against {label}: "
          f"{unexpected} unexpected difference(s)")
    return 1 if unexpected else 0


def _cold_run(tree: Path, argv: list[str], cwd: str) -> tuple[int, float, float, int, float]:
    """(exit code, wall s, user+sys CPU s, minor faults, peak RSS MiB) of one
    fresh `python3 ARGV` process of `tree` in `cwd`."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=cwd, env=_env(tree),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_minflt,
            usage.ru_maxrss / 1024)  # KiB on Linux


def cold_pass(
    tree: Path, commands: list[tuple[list[str], int]]
) -> tuple[float, float, int, float]:
    """(wall s, user+sys CPU s, minor faults) summed over one cold run of
    each command, and the largest peak RSS of them in MiB; exits if a
    command returns an unexpected code."""
    wall = cpu = rss = 0.0
    faults = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as cwd:
        for args, want in commands:
            code, one_wall, one_cpu, one_faults, one_rss = _cold_run(
                tree, ["-m", "ghzsim.cli", *args], cwd
            )
            if code != want:
                sys.exit(f"{' '.join(args)} on {tree} exited {code}, not {want}")
            wall += one_wall
            cpu += one_cpu
            faults += one_faults
            rss = max(rss, one_rss)
    return wall, cpu, faults, rss


def cold_split() -> dict[str, list[float]]:
    """Each COLD_SPLIT variant's wall times over SPLIT_ROUNDS rounds, the
    order rotated by one each round; exits if a variant does not exit 0."""
    names = list(COLD_SPLIT)
    walls: dict[str, list[float]] = {name: [] for name in names}
    with tempfile.TemporaryDirectory(prefix="ab-") as cwd:
        for k in range(SPLIT_ROUNDS):
            for name in names[k % len(names):] + names[: k % len(names)]:
                code, wall, *_ = _cold_run(ROOT, COLD_SPLIT[name], cwd)
                if code:
                    sys.exit(f"cold-split variant {name} exited {code}")
                walls[name].append(wall)
    return walls


def stage_spans(argv: list[str]) -> None:
    """Run `cli.main(argv)` once with each STAGES function wrapped where its
    callers look it up, print, as JSON, the grid's point count and each
    stage's seconds summed over its calls, and exit with `main`'s code. A
    stage's time includes the stages it calls. A stage that returns a
    generator is timed while its caller draws the chunks too. Runs as a
    fresh child process of `--record`, so the driver imports no numpy."""
    from ghzsim import cli, engine, sweep

    modules = {"cli": cli, "engine": engine, "sweep": sweep}
    seconds = {}

    def drawn(stage: str, chunks):
        while True:
            start = time.perf_counter()
            chunk = next(chunks, None)
            seconds[stage] += time.perf_counter() - start
            if chunk is None:
                return
            yield chunk

    def span(stage: str, function):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            seconds[stage] += time.perf_counter() - start
            return drawn(stage, result) if isinstance(result, types.GeneratorType) else result
        return timed

    for where, name in (stage.split(".") for stage in STAGES):
        function = getattr(modules[where], name)
        stage = f"{function.__module__.rsplit('.', 1)[1]}.{name}"
        seconds[stage] = 0.0
        setattr(modules[where], name, span(stage, function))
    code = cli.main(argv)
    print(json.dumps({"points": sweep.DEFAULT_STEPS ** 2, "seconds": seconds}))
    sys.exit(code)


def _stages() -> dict:
    """The `stages` block: per STAGE_SCENARIOS scenario, each stage's median
    microseconds per grid point over STAGE_RUNS runs of its format's
    `sweep`, each a fresh child process of this checkout (`stage_spans`)."""
    found = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        for scenario in STAGE_SCENARIOS:
            runs: dict[str, list[dict]] = {"csv": [], "json": []}
            for _ in range(STAGE_RUNS):
                for fmt, seconds in runs.items():
                    argv = ["sweep", "--scenario", scenario, "--format", fmt,
                            "--out", os.path.join(tmp, f"sweep.{fmt}")]
                    done = subprocess.run(
                        [sys.executable, "-c", f"import ab; ab.stage_spans({argv!r})"],
                        cwd=Path(__file__).parent, env=_env(ROOT), capture_output=True, text=True,
                    )
                    if done.returncode:
                        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
                    spans = json.loads(done.stdout)
                    points = spans["points"]
                    seconds.append(spans["seconds"])
            found[scenario] = {}
            for stage in runs["csv"][0]:
                fmt = "json" if stage == "sweep.records_to_json" else "csv"
                median = statistics.median(r[stage] for r in runs[fmt])
                found[scenario][stage] = round(median / points * 1e6, 4)
    return {"calls": STAGE_RUNS, "points": points, "us_per_point": found}


def _median_iqr(values: list[float], spec: str) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": float(format(median, spec)), "iqr": float(format(q3 - q1, spec))}


def _summary(values: list[float], spec: str) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return "  ".join(format(v, spec) for v in (min(values), q1, median, q3, max(values)))


def pairs(base: Path, label: str, workloads: list[str], n: int) -> int:
    for workload in workloads:
        commands = WORKLOADS[workload]
        theirs, ours = [], []
        for k in range(n):
            if k % 2 == 0:
                theirs.append(cold_pass(base, commands))
                ours.append(cold_pass(ROOT, commands))
            else:
                ours.append(cold_pass(ROOT, commands))
                theirs.append(cold_pass(base, commands))
        print(f"{workload}: {n} pairs against {label}, per pass: min  q1  median  q3  max")
        for j, (metric, spec) in enumerate(METRICS.items()):
            rev = [p[j] for p in theirs]
            this = [p[j] for p in ours]
            diffs = [b - a for a, b in zip(rev, this)]
            wins = sum(d < 0 for d in diffs)
            q1, rev_median, q3 = statistics.quantiles(rev, n=4, method="inclusive")
            gap = rev_median - statistics.median(this)
            holds = wins >= 0.9 * n and gap > q3 - q1
            diff = statistics.median(diffs)
            claim = ""
            if metric in CLAIMED:
                claim = f", gain claim {'holds' if holds else 'does not hold'}"
            print(f"  {metric:7} rev   {_summary(rev, spec)}")
            print(f"  {metric:7} this  {_summary(this, spec)}")
            print(f"  {metric:7} diff  median {diff:+{spec}} ({diff / rev_median:+.1%}), "
                  f"won {wins}/{n}{claim}", flush=True)
    return 0


def record(path: str) -> int:
    """Time each RECORDED command RECORD_RUNS times in this checkout and
    write the medians and interquartile ranges, with a meta block and the
    cold split, to `path`."""
    stages = _stages()
    split = {name: _median_iqr(walls, ".4f") for name, walls in cold_split().items()}
    runs: list[list[tuple]] = [[] for _ in RECORDED]
    for _ in range(RECORD_RUNS):
        for done, command in zip(runs, RECORDED):
            done.append(cold_pass(ROOT, [command]))
    commands = {}
    for (args, _), done in zip(RECORDED, runs):
        commands[" ".join(args)] = {
            metric: _median_iqr([p[j] for p in done], spec)
            for j, (metric, spec) in enumerate(METRICS.items())
        }
    startup = split[list(COLD_SPLIT)[-1]]["median"]
    own_work = {name: round(stats["wall_s"]["median"] - startup, 4)
                for name, stats in commands.items()}
    revision = _git("rev-parse", "HEAD").decode().strip()
    if _git("status", "--porcelain", "--untracked-files=no", "--", "src").strip():
        revision += "+dirty"
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "revision": revision,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "runs": RECORD_RUNS,
    }
    document = {"meta": meta, "commands": commands, "stages": stages, "cold_split": {
        "rounds": SPLIT_ROUNDS, "argv": COLD_SPLIT, "wall_s": split, "own_work_s": own_work}}
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    for scenario, found in stages["us_per_point"].items():
        for stage, us in found.items():
            print(f"{us:.4f} us/point  {scenario} {stage}", flush=True)
    for name, stats in split.items():
        print(f"{stats['median']:.4f} s  cold split: {name}", flush=True)
    for name, stats in commands.items():
        print(f"{stats['wall_s']['median']:.4f} s  {name} (own work {own_work[name]:+.4f} s)",
              flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--against", metavar="REV", help="revision to compare with")
    target.add_argument("--record", metavar="PATH", help="write this checkout's timings to PATH")
    parser.add_argument(
        "--expect-diff", action="append", default=[], choices=sorted(COMMANDS), metavar="NAME",
        help="a command whose output may differ (repeatable; identity only)",
    )
    parser.add_argument("--pairs", type=int, metavar="N", help="time N alternating pairs")
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="the one workload to time (with --pairs)"
    )
    args = parser.parse_args(argv)
    if args.record is not None and (args.pairs is not None or args.workload or args.expect_diff):
        parser.error("--record takes no other option")
    if args.pairs is None and args.workload is not None:
        parser.error("--workload needs --pairs")
    if args.pairs is not None and args.expect_diff:
        parser.error("--expect-diff applies to the identity check, not to --pairs")
    if args.pairs is not None and args.pairs < 2:
        parser.error("--pairs must be >= 2")

    os.umask(0o022)
    if args.record is not None:
        return record(args.record)
    sha = _git("rev-parse", "--verify", f"{args.against}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="ab-rev-") as base:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", sha, "src"))) as tar:
            tar.extractall(base, filter="data")
        if args.pairs is None:
            return identity(Path(base), sha[:12], args.expect_diff)
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return pairs(Path(base), sha[:12], workloads, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
