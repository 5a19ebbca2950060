"""Run one ghzsim CLI invocation in-process with timing spans on its layers.

Usage: python3 trace_cli.py STATS_JSON CLI_ARG...

Each span wraps a public function at every ghzsim module attribute bound
to it, which is where its callers look it up, so `from .engine import
numeric_measures` in `ghzsim.sweep` is traced too. A span records calls,
self time (its duration minus that of the spans it encloses) and total
time. A span entered directly inside a span of the same name is folded
into it. A target that no longer exists is reported as absent, so the
trace keeps working when a refactor deletes or renames a function.
The stats are written to STATS_JSON; the exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (span name, module, attribute path). Several targets may share a name;
#: their times add up under it.
SPANS = (
    ("cli.main", "ghzsim.cli", "main"),
    ("engine.numeric_measures", "ghzsim.engine", "numeric_measures"),
    ("engine.is_x_structured", "ghzsim.engine", "is_x_structured"),
    ("unruh.scenario_reduced_state", "ghzsim.unruh", "scenario_reduced_state"),
    ("unruh.unruh_expand", "ghzsim.unruh", "unruh_expand"),
    ("qcore.partial_trace", "ghzsim.qcore", "partial_trace"),
    ("closedform.cf_eval", "ghzsim.closedform", "cf_eval"),
    ("closedform.cf_sum_rules", "ghzsim.closedform", "cf_sum_rules"),
    ("measures.gtn", "ghzsim.measures", "gtn"),
    ("measures.gte", "ghzsim.measures", "gte"),
    ("measures.extract_xstate", "ghzsim.measures", "extract_xstate"),
    ("measures.coherence_l1", "ghzsim.measures", "coherence_l1"),
    ("channels.apply_damping", "ghzsim.channels", "apply_damping"),
    ("sweep.drive", "ghzsim.sweep", "run_sweep"),
    ("sweep.drive", "ghzsim.sweep", "run_audit"),
    ("sweep.drive", "ghzsim.sweep", "find_boundary"),
    ("sweep.drive", "ghzsim.sweep", "sum_rule_samples"),
    ("sweep.drive", "ghzsim.sweep", "emit_figure_data"),
    ("sweep.serialize", "ghzsim.sweep", "records_to_csv"),
    ("sweep.serialize", "ghzsim.sweep", "records_to_json"),
    ("sweep.serialize", "ghzsim.sweep", "boundary_to_csv"),
    ("sweep.serialize", "ghzsim.sweep", "boundary_to_json"),
    ("sweep.serialize", "ghzsim.sweep", "AuditReport.to_json"),
    ("sweep.serialize", "ghzsim.sweep", "_jsonify"),
    ("sweep.serialize", "ghzsim.sweep", "_fmt"),
    ("sweep.write", "ghzsim.sweep", "write_text_atomic"),
)


class Tracer:
    """Per-name span totals: name -> [calls, self_s, total_s]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # [name, seconds spent in child spans]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                stats[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return span


def _ghzsim_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ghzsim" or name.startswith("ghzsim."))
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in SPANS; return the targets that do not exist."""
    absent = []
    for name, module_name, path in SPANS:
        tracer.stats.setdefault(name, [0, 0.0, 0.0])
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{path}")
            continue
        *outer, leaf = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            absent.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(name, fn)
        if outer:
            setattr(owner, leaf, wrapped)
            continue
        for mod in _ghzsim_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import ghzsim.cli

    tracer = Tracer()
    absent = install(tracer)
    rc = None
    try:
        rc = ghzsim.cli.main(cli_args)
    finally:
        with open(stats_path, "w") as handle:
            json.dump({"stats": tracer.stats, "absent": absent, "rc": rc}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
