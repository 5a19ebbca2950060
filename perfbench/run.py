"""ghzsim benchmark: drive the CLI as its users do and report timings.

Usage (from the root of a ghzsim checkout):

    python3 perfbench/run.py --workload grid|audit|scan --seed N \
        --seconds S --trace 0|1

Each CLI invocation is a fresh `python3 -m ghzsim.cli` process on the
checkout's `src`, run one after another by a single client in a closed
loop, with the default single worker, so every call pays the import and
starts with an empty reduced-state cache, as a user's call does.

With `--trace 0` the benchmark repeats passes over the workload's
invocations for about S seconds (at least one pass) and reports the
end-to-end metrics as medians over passes; `setup_s` is the median of
several fresh imports of `ghzsim.cli`. With `--trace 1` it runs one
untraced and one traced pass (see `trace_cli.py`) and reports per-layer
metrics. Every output is checked against an independent oracle; a wrong
exit code or a failed check counts as a failed invocation.

The last line of stdout is the result JSON; the line before it, starting
with '#', records the inputs and the environment. Failures and per-pass
timings go to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
TRACE_CLI = HERE / "trace_cli.py"
SETUP_SAMPLES = 9
SETUP_PROBES_PER_PASS = 3
#: Hard limit for the whole run, inside the 180 s a benchmark run may take.
RUN_LIMIT_S = 170.0

IMPORT_PROBE = (
    "import time, ghzsim.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    "print(ghzsim.cli.__file__)\n"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, e.g. there is no ghzsim source tree."""


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    bytes_out: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    stats: dict[str, list] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "ghzsim" / "cli.py").is_file():
            raise BenchmarkError(f"no ghzsim source tree at {self.src}")
        self.workload = workload
        self.seed = seed
        self.inputs = workloads.Inputs.from_seed(seed)
        self.source_sha256 = self._digest()
        self.state_dir = root / ".bench_build" / "perfbench"
        self.run_dir = self.state_dir / f"run-{os.getpid()}"
        self.out_dir = self.run_dir / "out"
        self.log_dir = self.run_dir / "log"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        #: Defects of the benchmark itself; any of them fails the run.
        self.flags: list[str] = []
        pythonpath = [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    # --- processes ---------------------------------------------------------

    def _spawn(self, argv: list[str], log: Path):
        """Run argv to completion in the output directory; return
        (exit code, wall s, user+sys CPU s, max RSS MiB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"run limit of {RUN_LIMIT_S} s reached")
        with open(log, "wb") as log_file:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.out_dir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log_file,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0

    def setup_seconds(self) -> float:
        """Seconds from starting a fresh interpreter to `ghzsim.cli` imported."""
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise BenchmarkError(f"cannot import ghzsim.cli:\n{done.stderr}")
        imported_at, module_file = done.stdout.split()
        if not Path(module_file).resolve().is_relative_to(self.src.resolve()):
            raise BenchmarkError(f"ghzsim.cli came from {module_file}, not from {self.src}")
        return float(imported_at) - start

    # --- passes ------------------------------------------------------------

    def run_pass(self, traced: bool) -> PassResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        result = PassResult()
        for k, inv in enumerate(workloads.invocations(self.workload, self.inputs)):
            log = self.log_dir / f"{k}.stderr"
            stats_path = self.log_dir / f"{k}.stats.json"
            if traced:
                argv = [sys.executable, str(TRACE_CLI), str(stats_path), *inv.args]
            else:
                argv = [sys.executable, "-m", "ghzsim.cli", *inv.args]
            rc, wall, cpu, rss = self._spawn(argv, log)
            result.attempted += 1
            result.wall_s += wall
            result.cpu_s += cpu
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            label = "ghzsim " + " ".join(inv.args)
            if rc != inv.exit_code:
                tail = log.read_text(errors="replace")[-2000:]
                errors = [f"exit code {rc}, expected {inv.exit_code}\n{tail}"]
            else:
                try:
                    errors = inv.check(self.out_dir)
                except Exception:
                    errors = [f"output check raised:\n{traceback.format_exc(limit=3)}"]
            result.failed += bool(errors)
            result.failures.extend(f"{label}: {e}" for e in errors)
            if traced and rc == inv.exit_code:
                traced_stats = json.loads(stats_path.read_text())
                result.absent.update(traced_stats["absent"])
                for name, (calls, self_s, total_s) in traced_stats["stats"].items():
                    acc = result.stats.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += self_s
                    acc[2] += total_s
        result.bytes_out = sum(f.stat().st_size for f in self.out_dir.iterdir() if f.is_file())
        print(
            f"perfbench: {'traced' if traced else 'untraced'} pass wall {result.wall_s:.3f} s, "
            f"cpu {result.cpu_s:.3f} s, {result.failed} of {result.attempted} failed",
            file=sys.stderr,
        )
        return result

    def timed_run(self, seconds: float) -> tuple[dict, list[PassResult]]:
        self.setup_seconds()  # untimed: compiles the bytecode cache once
        # Import probes are spread over the run, so that they do not all
        # land in one burst of load from other tenants of the machine.
        setups: list[float] = []
        passes: list[PassResult] = []
        start = time.monotonic()
        while True:
            setups += [self.setup_seconds() for _ in range(SETUP_PROBES_PER_PASS)]
            passes.append(self.run_pass(traced=False))
            spent = time.monotonic() - start
            per_pass = spent / len(passes)
            if spent + per_pass > seconds or time.monotonic() + 2 * per_pass > self.deadline:
                break
        setups += [self.setup_seconds() for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MiB"),
        }
        return metrics, passes

    def traced_run(self) -> tuple[dict, list[PassResult]]:
        plain = self.run_pass(traced=False)
        traced = self.run_pass(traced=True)
        if traced.bytes_out != plain.bytes_out:
            self.flags.append(
                f"traced pass wrote {traced.bytes_out} bytes, "
                f"untraced pass {plain.bytes_out}"
            )
        metrics = layer_metrics(traced.stats, traced.bytes_out, traced.wall_s - plain.wall_s)
        self.check_counts_repeat(metrics)
        return metrics, [plain, traced]

    def check_counts_repeat(self, metrics: dict) -> None:
        """Exact counts must repeat between runs of the same code and seed;
        a difference is a defect of the benchmark and fails the run."""
        counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
        record = self.state_dir / "counts" / f"{self.workload}-{self.seed}-{self.source_sha256[:16]}.json"
        if record.exists():
            earlier = json.loads(record.read_text())
            diff = {k: (earlier.get(k), v) for k, v in counts.items() if earlier.get(k) != v}
            if diff:
                self.flags.append(f"counts differ from an earlier run: {diff}")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(counts, sort_keys=True))

    # --- environment -------------------------------------------------------

    def _digest(self) -> str:
        """SHA-256 over the program's and the benchmark's source files."""
        h = hashlib.sha256()
        for base in (self.src, HERE):
            for path in sorted(base.rglob("*.py")):
                h.update(str(path.relative_to(base.parent)).encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def meta(self) -> dict:
        revision = None
        if (self.root / ".git").exists():
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=self.root, capture_output=True, text=True,
                timeout=30,
            )
            revision = done.stdout.strip() or None
        return {
            "workload": self.workload,
            "seed": self.seed,
            "inputs": [list(inv.args) for inv in workloads.invocations(self.workload, self.inputs)],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_revision": revision,
            "source_sha256": self.source_sha256,
        }


def _span(stats: dict, name: str) -> list:
    return stats.get(name, [0, 0.0, 0.0])


def layer_metrics(stats: dict, bytes_out: int, overhead_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from summed span stats."""
    metrics: dict[str, tuple] = {}

    def calls_and_self(name: str) -> None:
        calls, self_s, _ = _span(stats, name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")

    calls_and_self("engine.numeric_measures")
    points, _, engine_total = _span(stats, "engine.numeric_measures")
    builds = _span(stats, "unruh.scenario_reduced_state")[0]
    metrics["engine.us_per_point"] = (1e6 * engine_total / points if points else 0.0, "us")
    metrics["engine.is_x_structured.calls"] = (_span(stats, "engine.is_x_structured")[0], "count")
    metrics["engine.reduced_hit_ratio"] = (1.0 - builds / points if points else 0.0, "ratio")
    for name in (
        "unruh.scenario_reduced_state",
        "unruh.unruh_expand",
        "qcore.partial_trace",
        "closedform.cf_eval",
        "closedform.cf_sum_rules",
        "measures.gtn",
        "measures.gte",
        "measures.extract_xstate",
        "measures.coherence_l1",
        "channels.apply_damping",
    ):
        calls_and_self(name)
    for name in ("sweep.drive", "sweep.serialize", "sweep.write", "cli.main"):
        metrics[f"{name}.self_s"] = (_span(stats, name)[1], "s")
    metrics["sweep.bytes_out"] = (bytes_out, "bytes")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(Path.cwd(), args.workload, args.seed)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        meta = bench.meta()
        if args.trace:
            metrics, passes = bench.traced_run()
        else:
            metrics, passes = bench.timed_run(args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not args.trace:
        metrics["ok_rate"] = ((attempted - failed) / attempted, "ratio")
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for flag in bench.flags:
        print(f"perfbench: BENCHMARK DEFECT {flag}", file=sys.stderr)
    absent = sorted(set().union(*(p.absent for p in passes)))
    for target in absent:
        print(f"perfbench: span target {target} is absent", file=sys.stderr)

    meta.update(
        passes=len(passes),
        fail_rate={"failed": failed, "attempted": attempted},
        absent_spans=absent,
        benchmark_defects=bench.flags,
    )
    print("# " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures and not bench.flags,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
