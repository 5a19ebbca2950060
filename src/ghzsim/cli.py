"""Command-line front end.

Subcommands: sweep, audit, boundary, sumrules, figure. Every flag can also
be supplied through a flat key=value config file (--config); explicit flags
win over config-file values.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 the audit found
discrepancies above tolerance.
"""
from __future__ import annotations

import argparse
import json
import sys

from .qcore import LabelError, ParameterError
from .sweep import (
    DEFAULT_ALPHA,
    DEFAULT_SEED,
    BETA_MAX,
    ConfigError,
    FIGURES,
    SweepConfig,
    boundary_to_csv,
    boundary_to_json,
    emit_figure_data,
    find_boundary,
    records_to_csv,
    records_to_json,
    run_audit,
    run_sweep,
    sum_rule_samples,
    write_records,
    write_text_atomic,
    _jsonify,
)
from .unruh import SCENARIOS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_AUDIT_FLAGGED = 4


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_CASTS = {
    "alpha": float,
    "beta_steps": int,
    "p_steps": int,
    "scenario": str,
    "measures": str,
    "engine": str,
    "out": str,
    "format": str,
    "tol": float,
    "workers": int,
    "seed": int,
    "samples": int,
    "measure": str,
    "figure": int,
    "resolution": int,
    "beta": float,
    "p": float,
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill argparse None values from the config file, casting as needed."""
    if not getattr(args, "config", None):
        return args
    file_values = _read_config_file(args.config)
    for key, raw in file_values.items():
        if key not in _CASTS:
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, _CASTS[key](raw))
            except ValueError:
                raise ConfigError(f"config key {key}={raw!r} has the wrong type") from None
    return args


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="GHZ amplitude (default 1/sqrt(2))")
    parser.add_argument("--beta-steps", type=int, default=None, dest="beta_steps")
    parser.add_argument("--p-steps", type=int, default=None, dest="p_steps")
    parser.add_argument("--scenario", default=None, choices=sorted(SCENARIOS))
    parser.add_argument("--measures", default=None, help="comma list from S,E,C")
    parser.add_argument("--engine", default=None, choices=("numeric", "closedform", "both"))
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for compatibility; evaluation is single-process",
    )
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzsim",
        description=(
            "Nonlocality, entanglement and coherence of GHZ-like states for "
            "accelerated observers under amplitude damping"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate measures over a (beta, p) grid")
    _add_common(p_sweep)

    p_audit = sub.add_parser("audit", help="compare closed forms against the numeric engine")
    _add_common(p_audit)
    p_audit.add_argument("--samples", type=int, default=None, help="random sum-rule points")
    p_audit.add_argument(
        "--all-scenarios",
        action="store_true",
        help="audit every scenario (default unless --scenario is given)",
    )

    p_boundary = sub.add_parser("boundary", help="sudden-death boundary p*(beta)")
    _add_common(p_boundary)
    p_boundary.add_argument("--measure", default=None, choices=("S", "E"))

    p_rules = sub.add_parser("sumrules", help="coherence sum-rule residuals")
    _add_common(p_rules)
    p_rules.add_argument("--samples", type=int, default=None)

    p_figure = sub.add_parser("figure", help="emit surface data for one figure")
    _add_common(p_figure)
    p_figure.add_argument("--figure", type=int, default=None, choices=sorted(FIGURES))
    p_figure.add_argument("--resolution", type=int, default=None)

    return parser


def _sweep_config(args: argparse.Namespace, engine_default: str = "both") -> SweepConfig:
    measures = tuple((args.measures or "S,E,C").split(","))
    return SweepConfig(
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
        beta_range=(0.0, BETA_MAX, args.beta_steps or 101),
        p_range=(0.0, 1.0, args.p_steps or 101),
        scenario=args.scenario or "ABC_I",
        measures=measures,
        engine=args.engine or engine_default,
        output_path=args.out,
        fmt=args.format or "csv",
        workers=args.workers or 1,
        tol=args.tol if args.tol is not None else 1e-8,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        samples=getattr(args, "samples", None) or 1000,
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    rows = run_sweep(config)
    text = records_to_csv(rows) if config.fmt == "csv" else records_to_json(rows)
    _emit(text, config.output_path)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    # Audit the whole catalog unless one scenario was requested explicitly.
    names = None if (args.all_scenarios or args.scenario is None) else [args.scenario]
    report = run_audit(config, scenarios=names)
    _emit(report.to_json(), config.output_path)
    if report.has_flags:
        print(f"audit: {len(report.flags)} discrepancy flag(s) raised", file=sys.stderr)
        return EXIT_AUDIT_FLAGGED
    return EXIT_OK


def _cmd_boundary(args: argparse.Namespace) -> int:
    if args.measure is None:
        raise ConfigError("boundary requires --measure S|E")
    result = find_boundary(
        scenario_name=args.scenario or "ABC_I",
        measure=args.measure,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
        beta_samples=args.beta_steps or 33,
        bisect_tol=args.tol if args.tol is not None else 1e-6,
    )
    fmt = args.format or "csv"
    text = boundary_to_csv(result) if fmt == "csv" else boundary_to_json(result)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_sumrules(args: argparse.Namespace) -> int:
    report = sum_rule_samples(
        alpha=args.alpha,
        samples=getattr(args, "samples", None) or 1000,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
    )
    _emit(json.dumps(_jsonify(report), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.figure is None:
        raise ConfigError("figure requires --figure 1..7")
    if args.out is None:
        raise ConfigError("figure requires --out")
    written = emit_figure_data(
        figure_id=args.figure,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
        resolution=args.resolution or 101,
        out_path=args.out,
    )
    for path in written:
        print(path)
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
    "boundary": _cmd_boundary,
    "sumrules": _cmd_sumrules,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, LabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
