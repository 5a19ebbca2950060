"""Parameter sweeps, engine audits, sum-rule checks, figure-data emission
and sudden-death boundary finding.

Every numeric evaluation goes through the batched kernel
`engine.numeric_batch`, one call per natural batch: a grid is evaluated one
beta row at a time into per-measure (beta, p) arrays; a boundary is one such
row per beta for its coarse p scan, then one call per bisection step that
halves the brackets of all betas at once; the sum rules are one call per
scenario over all sampled points. Evaluation runs in a single process; the
`workers` setting is accepted and validated but does not change how or where
points are computed.

All outputs are deterministic for a fixed configuration: grid order defines
row order, floats are serialized with 17 significant digits, random sampling
is driven by an explicit seed, and reports carry no timestamps.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .closedform import CATALOG, SUM_RULES, cf_eval
from .engine import MEASURES, is_x_structured, numeric_batch
from .unruh import BETA_MAX, BETA_TOL, SCENARIOS, scenario

ENGINES = ("numeric", "closedform", "both")
DEFAULT_ALPHA = 1.0 / math.sqrt(2.0)
DEFAULT_SEED = 20260823


class ConfigError(ValueError):
    """A sweep/audit configuration value is invalid."""


@dataclass(frozen=True)
class SweepConfig:
    alpha: float = DEFAULT_ALPHA
    beta_range: tuple[float, float, int] = (0.0, BETA_MAX, 101)
    p_range: tuple[float, float, int] = (0.0, 1.0, 101)
    scenario: str = "ABC_I"
    measures: tuple[str, ...] = MEASURES
    engine: str = "both"
    output_path: str | None = None
    fmt: str = "csv"
    #: Accepted and validated for compatibility; evaluation is single-process.
    workers: int = 1
    tol: float = 1e-8
    seed: int = DEFAULT_SEED
    samples: int = 1000

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha={self.alpha} outside [0, 1]")
        for name, (lo, hi, steps), limit, slack in (
            ("beta", self.beta_range, BETA_MAX, BETA_TOL),
            ("p", self.p_range, 1.0, 0.0),
        ):
            if steps < 2:
                raise ConfigError(f"{name} steps must be >= 2, got {steps}")
            if not (0.0 <= lo <= hi <= limit + slack):
                raise ConfigError(f"{name} range ({lo}, {hi}) outside [0, {limit}]")
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {sorted(SCENARIOS)}"
            )
        bad = set(self.measures) - set(MEASURES)
        if bad or not self.measures:
            raise ConfigError(f"measures must be a nonempty subset of {MEASURES}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SweepRecord:
    """One (grid point, measure, engine) evaluation."""

    scenario: str
    measure: str
    engine: str
    alpha: float
    beta: float
    p: float
    value: float


def _axis(rng: tuple[float, float, int]) -> list[float]:
    lo, hi, steps = rng
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _numeric_grid(
    name: str,
    alpha: float,
    betas: Sequence[float],
    ps: Sequence[float],
    measures: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """Numeric measures over the grid as per-measure (beta, p) arrays, one
    kernel call per beta row."""
    grid = {m: np.empty((len(betas), len(ps))) for m in measures}
    p_row = np.asarray(ps, dtype=float)
    for bi, beta in enumerate(betas):
        for measure, values in numeric_batch(name, alpha, beta, p_row, measures).items():
            grid[measure][bi] = values
    return grid


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured grid; rows ordered by (beta index, p index),
    then measure (config order), then engine (numeric before closedform)."""
    config.validate()
    betas, ps = _axis(config.beta_range), _axis(config.p_range)
    engines = ("numeric", "closedform") if config.engine == "both" else (config.engine,)

    numeric = {}
    if "numeric" in engines:
        grid = _numeric_grid(config.scenario, config.alpha, betas, ps, config.measures)
        numeric = {m: values.tolist() for m, values in grid.items()}

    scen, alpha = config.scenario, config.alpha
    rows: list[SweepRecord] = []
    for bi, beta in enumerate(betas):
        for pi, p in enumerate(ps):
            for measure in config.measures:
                for eng in engines:
                    if eng == "numeric":
                        value = numeric[measure][bi][pi]
                    else:
                        value = cf_eval(scen, measure, alpha, beta, p)
                    rows.append(SweepRecord(scen, measure, eng, alpha, beta, p, value))
    return rows


# --- serialization -----------------------------------------------------------

def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else format(x, ".17g")


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def records_to_csv(rows: Iterable[SweepRecord]) -> str:
    lines = ["scenario,measure,engine,alpha,beta,p,value"]
    for r in rows:
        lines.append(
            f"{r.scenario},{r.measure},{r.engine},"
            f"{_fmt(r.alpha)},{_fmt(r.beta)},{_fmt(r.p)},{_fmt(r.value)}"
        )
    return "\n".join(lines) + "\n"


def records_to_json(rows: Iterable[SweepRecord]) -> str:
    payload = [
        {
            "scenario": r.scenario,
            "measure": r.measure,
            "engine": r.engine,
            "alpha": r.alpha,
            "beta": r.beta,
            "p": r.p,
            "value": None if math.isnan(r.value) else r.value,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


# --- sudden-death boundary ----------------------------------------------------

S_THRESHOLD = 4.0
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryPoint:
    beta: float
    p_star: float | None
    status: str  # "crossing" or "no_crossing"


@dataclass(frozen=True)
class BoundaryResult:
    scenario: str
    measure: str
    alpha: float
    threshold: float
    curve: tuple[BoundaryPoint, ...]
    bisect_tol: float
    scan_step: float


#: measure -> (threshold, bisection level, whether a first crossing at the
#: p = 1 scan point counts). The scan finds the first value <= threshold +
#: 1e-12; bisection keeps its lower end while the value exceeds its level.
_BOUNDARY_RULES = {"S": (S_THRESHOLD, S_THRESHOLD, True), "E": (0.0, ZERO_TOL, False)}


def _bisect(scen, measure, alpha, betas, lo, hi, level, tol) -> np.ndarray:
    """Per beta, the p in (lo, hi] where the measure stops exceeding `level`
    (it does at lo and does not at hi), to within `tol`. Every bracket is
    halved in the same kernel call; a bracket stops once it is no wider than
    `tol` or no float lies strictly inside it."""
    while True:
        mid = 0.5 * (lo + hi)
        active = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if not active.size:
            return hi
        mid = mid[active]
        above = numeric_batch(scen, alpha, betas[active], mid, (measure,))[measure] > level
        lo[active[above]] = mid[above]
        hi[active[~above]] = mid[~above]


def find_boundary(
    scenario_name: str,
    measure: str,
    alpha: float,
    beta_samples: int,
    bisect_tol: float = 1e-6,
    scan_step: float = 1e-3,
) -> BoundaryResult:
    """Sudden-death curve p*(beta) from the numeric engine.

    For S the crossing is where the Svetlichny value falls to 4 from above;
    for E it is where the entanglement first reaches 0. A coarse scan locates
    the first crossing bracket (the surfaces are not globally monotonic in p),
    then bisection refines it. A curve that starts on the threshold crosses
    at p = 0, one that starts below it never crosses. Absence of a crossing
    is data, not an error; for E a zero reached only at the p = 1 endpoint
    counts as no crossing in [0, 1).
    """
    if measure not in _BOUNDARY_RULES:
        raise ConfigError(f"boundary measure must be S or E, got {measure!r}")
    if not bisect_tol > 0.0:
        raise ConfigError(f"bisection tolerance must be > 0, got {bisect_tol}")
    if beta_samples < 1:
        raise ConfigError(f"beta samples must be >= 1, got {beta_samples}")
    scen = scenario(scenario_name)
    threshold, level, endpoint_counts = _BOUNDARY_RULES[measure]

    betas = _axis((0.0, BETA_MAX, beta_samples))
    n_scan = int(round(1.0 / scan_step))
    scan_ps = np.arange(n_scan + 1) / n_scan
    values = _numeric_grid(scen.name, alpha, betas, scan_ps, (measure,))[measure]
    if np.isnan(values).any():
        raise ConfigError(
            f"numeric {measure} undefined for scenario {scenario_name}: "
            "its reduced state is not X-structured"
        )

    reached = values <= threshold + 1e-12
    first = np.argmax(reached, axis=1)
    crosses = reached.any(axis=1)
    if not endpoint_counts:
        crosses &= scan_ps[first] < 1.0 - 1e-12
    p_star = np.full(len(betas), math.nan)
    p_star[(first == 0) & crosses & (np.abs(values[:, 0] - threshold) <= 1e-9)] = 0.0
    bracket = (first > 0) & crosses
    k = first[bracket]
    p_star[bracket] = _bisect(
        scen, measure, alpha, np.asarray(betas)[bracket], scan_ps[k - 1], scan_ps[k],
        level, bisect_tol,
    )

    curve = tuple(
        BoundaryPoint(beta, None, "no_crossing")
        if math.isnan(ps)
        else BoundaryPoint(beta, ps, "crossing")
        for beta, ps in zip(betas, p_star.tolist())
    )
    return BoundaryResult(
        scenario_name, measure, alpha, threshold, curve, bisect_tol, scan_step
    )


def boundary_to_csv(result: BoundaryResult) -> str:
    lines = ["beta,p_star,status"]
    for pt in result.curve:
        p_star = "" if pt.p_star is None else _fmt(pt.p_star)
        lines.append(f"{_fmt(pt.beta)},{p_star},{pt.status}")
    return "\n".join(lines) + "\n"


def boundary_to_json(result: BoundaryResult) -> str:
    payload = {
        "scenario": result.scenario,
        "measure": result.measure,
        "alpha": result.alpha,
        "threshold": result.threshold,
        "bisect_tol": result.bisect_tol,
        "scan_step": result.scan_step,
        "curve": [
            {"beta": pt.beta, "p_star": pt.p_star, "status": pt.status}
            for pt in result.curve
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# --- figure data ---------------------------------------------------------------

#: figure id -> (scenario, measures). All panels are drawn at alpha = 1/sqrt(2).
FIGURES: dict[int, tuple[str, tuple[str, ...]]] = {
    1: ("ABC_I", ("S",)),
    2: ("ABC_I", ("E", "C")),
    3: ("ABC_II", ("S", "E")),
    4: ("AB_I_C_I", ("S", "E")),
    5: ("AB_I_C_II", ("S", "E")),
    6: ("AB_II_C_II", ("S", "E")),
    7: ("AB_I_B_II", ("S", "E")),
}


def emit_figure_data(
    figure_id: int, alpha: float, resolution: int, out_path: str
) -> list[str]:
    """Write beta/p/value surfaces for one figure, one file per measure.

    Single-measure figures write exactly `out_path`; multi-measure figures
    suffix the measure before the extension. A figure whose scenario is not
    X-structured (Figure 7) takes its surfaces from the closed-form catalog,
    because the numeric pipeline leaves S and E undefined there.
    """
    if figure_id not in FIGURES:
        raise ConfigError(f"figure id must be in {sorted(FIGURES)}, got {figure_id}")
    if resolution < 16:
        raise ConfigError(f"resolution must be >= 16, got {resolution}")
    scenario_name, measures = FIGURES[figure_id]
    betas = _axis((0.0, BETA_MAX, resolution))
    ps = _axis((0.0, 1.0, resolution))

    use_catalog = not is_x_structured(scenario_name)
    numeric = {} if use_catalog else _numeric_grid(scenario_name, alpha, betas, ps, measures)

    stem, ext = os.path.splitext(out_path)
    written = []
    for measure in measures:
        path = out_path if len(measures) == 1 else f"{stem}_{measure}{ext or '.csv'}"
        if use_catalog:
            surface = [[cf_eval(scenario_name, measure, alpha, b, p) for p in ps] for b in betas]
        else:
            surface = numeric[measure].tolist()
        lines = ["beta,p,value"]
        for beta, row in zip(betas, surface):
            for p, v in zip(ps, row):
                lines.append(f"{_fmt(beta)},{_fmt(p)},{_fmt(v)}")
        write_text_atomic(path, "\n".join(lines) + "\n")
        written.append(path)
    return written


# --- sum rules -----------------------------------------------------------------

@dataclass(frozen=True)
class SumRuleResidual:
    name: str
    asserted: bool
    numeric_lhs: float
    closedform_lhs: float
    rhs: float

    @property
    def numeric_residual(self) -> float:
        return abs(self.numeric_lhs - self.rhs)

    @property
    def closedform_residual(self) -> float:
        return abs(self.closedform_lhs - self.rhs)


def _sum_rule_terms(alphas, betas, ps) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(numeric lhs, catalog lhs, rhs) arrays of each rule in SUM_RULES over
    the broadcast points (alpha, beta, p). The numeric coherences take one
    kernel call per scenario; catalog and rhs are scalar expressions."""
    alphas, betas, ps = (
        np.asarray(v, dtype=float).ravel() for v in np.broadcast_arrays(alphas, betas, ps)
    )
    points = list(zip(alphas.tolist(), betas.tolist(), ps.tolist()))
    numeric = {name: numeric_batch(name, alphas, betas, ps, ("C",))["C"] for name in SCENARIOS}
    catalog = {
        name: np.array([cf_eval(name, "C", a, b, p) for a, b, p in points]) for name in SCENARIOS
    }
    return [
        (
            rule.lhs(numeric.__getitem__, alphas),
            rule.lhs(catalog.__getitem__, alphas),
            np.array([rule.rhs(a, p) for a, _, p in points]),
        )
        for rule in SUM_RULES
    ]


def cf_sum_rules(alpha: float, beta: float, p: float) -> tuple[SumRuleResidual, ...]:
    """Residuals of all coherence relations at one parameter point.

    The numeric-engine coherence is the authoritative side; the catalog
    residual is reported alongside it for comparison.
    """
    return tuple(
        SumRuleResidual(rule.name, rule.asserted, float(num[0]), float(cat[0]), float(rhs[0]))
        for rule, (num, cat, rhs) in zip(SUM_RULES, _sum_rule_terms(alpha, beta, p))
    )


def sum_rule_samples(
    alpha: float | None, samples: int, seed: int
) -> dict:
    """Max residual of each coherence relation over random parameter points.

    When `alpha` is None it is sampled uniformly on [0, 1] together with
    (beta, p); otherwise it is held fixed. The relation marked `asserted=False`
    is reported with its alpha-dependence instead of being gated: its residual
    scales as alpha^2 (1 - alpha^2)^2, vanishing only at alpha in {0, 1}.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, samples) if alpha is None else np.full(samples, alpha)
    betas = rng.uniform(0.0, BETA_MAX, samples)
    ps = rng.uniform(0.0, 1.0, samples)
    terms = _sum_rule_terms(alphas, betas, ps)

    # alpha-dependence of the reported-only relation at a fixed (beta, p).
    beta0, p0 = math.pi / 6.0, 0.3
    alphas0 = [0.1 * k for k in range(1, 10)]
    reported = next(k for k, rule in enumerate(SUM_RULES) if not rule.asserted)
    num0, _, rhs0 = _sum_rule_terms(alphas0, beta0, p0)[reported]
    alpha_dependence = []
    for a, residual in zip(alphas0, np.abs(num0 - rhs0).tolist()):
        scale = a * a * (1.0 - a * a) ** 2
        alpha_dependence.append(
            {
                "alpha": a,
                "numeric_residual": residual,
                "residual_over_alpha2_times_1_minus_alpha2_sq": residual / scale,
            }
        )

    return {
        "samples": samples,
        "seed": seed,
        "alpha": alpha,
        "rules": [
            {
                "name": rule.name,
                "asserted": rule.asserted,
                "max_numeric_residual": float(np.max(np.abs(num - rhs), initial=0.0)),
                "max_closedform_residual": float(np.max(np.abs(cat - rhs), initial=0.0)),
            }
            for rule, (num, cat, rhs) in zip(SUM_RULES, terms)
        ],
        "reported_rule_alpha_dependence": {
            "beta": beta0,
            "p": p0,
            "points": alpha_dependence,
            "note": (
                "residual of same_observer_weighted_sq scales as "
                "alpha^2*(1-alpha^2)^2 at fixed (beta, p); it vanishes only "
                "at alpha in {0, 1}"
            ),
        },
    }


# --- audit ---------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    payload: dict
    flags: tuple[str, ...] = field(default=())

    def to_json(self) -> str:
        return json.dumps(_jsonify(self.payload), indent=2) + "\n"

    @property
    def has_flags(self) -> bool:
        return bool(self.flags)


def _jsonify(obj):
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def run_audit(config: SweepConfig, scenarios: Sequence[str] | None = None) -> AuditReport:
    """Compare the closed-form catalog against the numeric engine.

    The numeric engine is authoritative. Every (scenario, measure) with a
    maximum grid deviation above `config.tol` is flagged with both engine
    values at the worst point; scenarios whose reduced state is not
    X-structured are flagged as such for S/E (no numeric value exists to
    compare). The asserted sum rules are gated at 1e-10 over random points.
    """
    config.validate()
    if config.engine != "both":
        raise ConfigError("audit requires engine=both")
    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    betas, ps = _axis(config.beta_range), _axis(config.p_range)
    points = [(beta, p) for beta in betas for p in ps]

    entries = []
    flags: list[str] = []
    for name in names:
        numeric = _numeric_grid(name, config.alpha, betas, ps, MEASURES)
        x_structured = is_x_structured(name)
        for measure in MEASURES:
            if (name, measure) not in CATALOG:
                continue
            if measure in ("S", "E") and not x_structured:
                entries.append(
                    {
                        "scenario": name,
                        "measure": measure,
                        "status": "not_x_structured",
                        "detail": (
                            "reduced state is not X-structured; numeric "
                            f"{measure} is undefined and the closed form "
                            "cannot be checked against first principles"
                        ),
                    }
                )
                flags.append(f"{name}/{measure}: reduced state not X-structured")
                continue
            values = numeric[measure].ravel()
            catalog = [cf_eval(name, measure, config.alpha, beta, p) for beta, p in points]
            # First maximum in row-major order; a NaN deviation never wins.
            devs = np.abs(values - catalog)
            devs[np.isnan(devs)] = -1.0
            worst_idx = int(np.argmax(devs))
            worst_dev = float(devs[worst_idx])
            beta_at, p_at = points[worst_idx]
            numeric_at, cf_at = float(values[worst_idx]), catalog[worst_idx]
            ok = worst_dev <= config.tol
            entries.append(
                {
                    "scenario": name,
                    "measure": measure,
                    "status": "compared",
                    "max_abs_deviation": worst_dev,
                    "beta_at_max": beta_at,
                    "p_at_max": p_at,
                    "numeric_at_max": numeric_at,
                    "closedform_at_max": cf_at,
                    "pass": ok,
                }
            )
            if not ok:
                flags.append(
                    f"{name}/{measure}: max deviation {_fmt(worst_dev)} at "
                    f"beta={_fmt(beta_at)}, p={_fmt(p_at)} "
                    f"(numeric={_fmt(numeric_at)}, "
                    f"closedform={_fmt(cf_at)})"
                )

    rules = sum_rule_samples(None, config.samples, config.seed)
    for rule in rules["rules"]:
        if rule["asserted"] and rule["max_numeric_residual"] > 1e-10:
            flags.append(
                f"sum rule {rule['name']}: numeric residual "
                f"{_fmt(rule['max_numeric_residual'])} exceeds 1e-10"
            )

    payload = {
        "config": {
            "alpha": config.alpha,
            "beta_range": list(config.beta_range),
            "p_range": list(config.p_range),
            "tolerance": config.tol,
            "samples": config.samples,
            "seed": config.seed,
            "scenarios": names,
        },
        "entries": entries,
        "sum_rules": rules,
        "flags": flags,
    }
    return AuditReport(payload=payload, flags=tuple(flags))
