"""Parameter sweeps, engine audits, sum-rule checks, figure data and
sudden-death boundary finding.

Both engines map broadcastable (alpha, beta, p) arrays to arrays, the
numeric kernel `engine.numeric_batch` and the catalog `closedform.cf_eval`,
and each is called once per natural batch, never once per point: a grid is
one kernel call and one catalog call per measure on the (beta, 1) x (p,)
broadcast; a boundary is one kernel call for its coarse p scan over
[0, 1 - tol], then one per bisection step over all betas; the sum rules are
one kernel call and one catalog call per scenario. Evaluation runs in a
single process. Each workflow takes only the parameters it reads, each named
after the flag of its CLI subcommand that sets it and each default written
once here. A grid is given by its step counts: beta runs over [0, BETA_MAX]
and p over [0, 1], the whole domain of the paper's figures, and an axis of
one step is its 0 end.

Every workflow returns built-in data and writes no file: `run_sweep` a dict
of "scenario", "alpha", "betas", "ps" and "surfaces", which the writers lay
out as len(betas) * len(ps) * len(surfaces) rows; `run_audit`,
`sum_rule_samples` and `find_boundary` their JSON documents as dicts;
`figure_csv` each measure's CSV text. Only the CLI picks output paths and
formats, and writes. Sweep CSV, sweep JSON and figure CSV are made straight
from the arrays, in the documented row order, by one writer that yields a
head, one chunk per beta row and a tail, so no more than one row of a
surface is ever held as Python floats or text: `records_to_csv` and
`records_to_json` return the chunks, `figure_csv` joins them. `json_text`
spells every other JSON document. Each workflow checks every parameter it
takes with the engines' one check `qcore.checked`, names first in `CHOICES`
order, as the CLI does, then numbers, and keeps what it returns: no echo
shows -0.

All outputs are deterministic for a fixed configuration: grid order defines
row order, floats are serialized with 17 significant digits, random sampling
is driven by an explicit seed, and reports carry no timestamps.
"""
from __future__ import annotations

import json
import math
import random

import numpy as np

from .closedform import REPORTED_RULE, SUM_RULES, cf_eval
from .engine import is_x_structured, numeric_batch
from .qcore import BETA_MAX, BOUNDARY_RULES, FIGURES, MEASURES, SCENARIOS, ConfigError, checked

DEFAULT_ALPHA = 1.0 / math.sqrt(2.0)
DEFAULT_SCENARIO = "ABC_I"
DEFAULT_SEED = 20260823
DEFAULT_SAMPLES = 1000
#: Points on each axis of a grid, and on a figure's.
DEFAULT_STEPS = 101


def _axis(hi: float, steps: int) -> tuple[float, ...]:
    """`steps` evenly spaced values from 0 to `hi`: both ends for two steps
    or more, only the 0 end for one."""
    return tuple(np.linspace(0.0, hi, steps).tolist())


def run_sweep(
    scenario: str = DEFAULT_SCENARIO, *, alpha: float = DEFAULT_ALPHA,
    beta_steps: int = DEFAULT_STEPS, p_steps: int = DEFAULT_STEPS,
    measures: tuple[str, ...] = MEASURES, engine: str = "both",
) -> dict:
    """One scenario's measures by one engine or both over the grid: one
    kernel call and one catalog call per measure over the (beta, 1) x (p,)
    broadcast. Returns {"scenario", "alpha", "betas", "ps", "surfaces"}:
    `surfaces` maps (measure, engine) to a (len(betas), len(ps)) array. The
    writers lay them out as len(betas) * len(ps) * len(surfaces) rows,
    ordered by (beta index, p index), then measure (config order), then
    engine (numeric before closedform), which is the order of `surfaces`."""
    scenario, measures = checked("scenario", scenario), checked("measures", tuple(measures))
    engine, alpha = checked("engine", engine), checked("alpha", alpha)
    beta_steps, p_steps = checked("beta_steps", beta_steps), checked("p_steps", p_steps)
    betas, ps = _axis(BETA_MAX, beta_steps), _axis(1.0, p_steps)
    engines = ("numeric", "closedform") if engine == "both" else (engine,)
    grid = (alpha, np.asarray(betas)[:, None], np.asarray(ps))

    numeric = numeric_batch(scenario, *grid, measures) if "numeric" in engines else {}
    surfaces = {
        (m, e): numeric[m] if e == "numeric" else cf_eval(scenario, m, *grid)
        for m in measures
        for e in engines
    }
    return dict(scenario=scenario, alpha=alpha, betas=betas, ps=ps, surfaces=surfaces)


# --- serialization -----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def _grid_chunks(head: str, prefixes: list[str], slots: str, betas, ps: list[str], surfaces,
                 values, sep: str = "", tail: str = ""):
    """Yield `head`, one chunk per beta row, then `tail`: one block per grid
    point, p fastest, the blocks and the cells of a block joined by `sep`. A
    cell is its column's prefix as text, then `slots`, which takes the
    point's key (its beta text, then its p text) and its value in the
    column's surface. A row is one `%` pass over a template that repeats the
    block once per p; `values` converts one row of a surface for its slot."""
    k = len(prefixes)
    row = sep.join([sep.join(prefix.replace("%", "%%") + slots for prefix in prefixes)] * len(ps))
    args = [None] * (2 * k * len(ps))
    yield head
    for i, b in enumerate(betas):
        keys = [b + p for p in ps]
        for j, surface in enumerate(surfaces):
            args[2 * j :: 2 * k] = keys
            args[2 * j + 1 :: 2 * k] = values(surface[i])
        yield (sep if i else "") + row % tuple(args)
    yield tail


def _grid_csv(header: str, prefixes: list[str], betas, ps, surfaces):
    """CSV chunks of (beta, p) surfaces: after `header`, a line per grid
    point and surface, its prefix, then beta, p and the value, each spelled
    as `_fmt` spells it (`%.17g` does so for NaN and infinities too)."""
    return _grid_chunks(header + "\n", prefixes, "%s%.17g\n", map(_fmt, betas),
                        [f",{_fmt(p)}," for p in ps], surfaces, np.ndarray.tolist)


def records_to_csv(grid: dict):
    scenario, alpha, surfaces = grid["scenario"], _fmt(grid["alpha"]), grid["surfaces"]
    prefixes = [f"{scenario},{m},{e},{alpha}," for m, e in surfaces]
    return _grid_csv("scenario,measure,engine,alpha,beta,p,value", prefixes, grid["betas"],
                     grid["ps"], surfaces.values())


#: float.__repr__ texts that JSON spells otherwise; a NaN value is null.
_JSON_SPECIAL = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_num(x: float) -> str:
    return _JSON_SPECIAL.get(text := float.__repr__(x), text)


def _json_values(row: np.ndarray) -> list:
    """A surface row's values for a `%s` slot: Python floats, whose str is
    their repr as json.dumps spells them, with each non-finite value
    replaced by its JSON text."""
    values = row.tolist()
    for i in np.flatnonzero(~np.isfinite(row)).tolist():
        values[i] = _json_num(values[i])
    return values


def records_to_json(grid: dict):
    """The bytes `json.dumps(..., indent=2)` gives for the list of record
    dicts (NaN values as null), as `_grid_chunks` yields them."""
    betas, ps, surfaces = grid["betas"], grid["ps"], grid["surfaces"]
    if not (betas and ps and surfaces):
        return ["[]\n"]
    prefixes = [
        f'  {{\n    "scenario": {json.dumps(grid["scenario"])},\n    "measure": {json.dumps(m)},\n'
        f'    "engine": {json.dumps(e)},\n    "alpha": {json.dumps(grid["alpha"])},\n    "beta": '
        for m, e in surfaces
    ]
    ps = [f',\n    "p": {_json_num(p)},\n    "value": ' for p in ps]
    return _grid_chunks("[\n", prefixes, "%s%s\n  }", map(_json_num, betas), ps,
                        surfaces.values(), _json_values, sep=",\n", tail="\n]\n")


def _jsonify(obj):
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """`obj` as a JSON document indented by 2, NaN floats as null. It writes
    every JSON document but the sweep grid's (`records_to_json`)."""
    return json.dumps(_jsonify(obj), indent=2) + "\n"


# --- sudden-death boundary ----------------------------------------------------

#: Spacing of the coarse p scan that brackets a boundary crossing.
SCAN_STEP = 1e-3


def _bisect(name, measure, alpha, betas, lo, hi, level, tol) -> np.ndarray:
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
        above = numeric_batch(name, alpha, betas[active], mid, (measure,))[measure] > level
        lo[active[above]] = mid[above]
        hi[active[~above]] = mid[~above]


def find_boundary(
    scenario: str = DEFAULT_SCENARIO, *, measure: str, alpha: float = DEFAULT_ALPHA,
    beta_steps: int = 33, tol: float = 1e-6,
) -> dict:
    """Sudden-death curve p*(beta) from the numeric engine, as the boundary's
    JSON document: the run's `scenario`, `measure`, `alpha`, `threshold`,
    `bisect_tol` (the `tol` passed) and `scan_step`, then `curve`, one
    {beta, p_star, status} dict per beta (`beta_steps` of them), p_star None
    where the status is "no_crossing".

    For S the crossing is where the Svetlichny value falls to 4 from above;
    for E it is where the entanglement first reaches 0, exactly. A coarse
    scan over [0, 1 - tol] in SCAN_STEP steps locates the first crossing
    bracket (the surfaces are not globally monotonic in p), then bisection
    refines it to within `tol`; a crossing is reported only in that range.
    The scan's last point is 1 - tol, or the float below 1 for a tolerance
    under its spacing, or 0.999 for one of at least a step. A curve that
    starts on the threshold has the empty bracket [0, 0] and crosses at
    p = 0; one that starts below it never crosses. Absence of a crossing is
    data, not an error. A tolerance of 0 bisects to float spacing.
    """
    scenario, measure = checked("scenario", scenario), checked("measure", measure)
    tol, beta_steps = checked("tol", tol), checked("beta_steps", beta_steps)
    alpha = checked("alpha", alpha)
    if not is_x_structured(scenario):
        raise ConfigError(
            f"numeric {measure} undefined for scenario {scenario}: "
            "its reduced state is not X-structured"
        )
    threshold, slack = BOUNDARY_RULES[measure]

    betas = _axis(BETA_MAX, beta_steps)
    beta_arr = np.asarray(betas)
    n_scan = int(round(1.0 / SCAN_STEP))
    scan_ps = np.arange(n_scan + 1) / n_scan
    scan_ps[-1] = max(min(1.0 - tol, np.nextafter(1.0, 0.0)), scan_ps[-2])
    values = numeric_batch(scenario, alpha, beta_arr[:, None], scan_ps, (measure,))[measure]

    reached = values <= threshold + slack
    first = np.argmax(reached, axis=1)
    crosses = reached.any(axis=1) & ~((first == 0) & (values[:, 0] < threshold - 1e-9))
    lo, hi = scan_ps[np.maximum(first - 1, 0)], scan_ps[first]
    p_star = np.zeros(len(betas))
    p_star[crosses] = _bisect(scenario, measure, alpha, beta_arr[crosses], lo[crosses],
                              hi[crosses], threshold, tol)

    curve = [
        {"beta": b, "p_star": p if c else None, "status": "crossing" if c else "no_crossing"}
        for b, p, c in zip(betas, p_star.tolist(), crosses.tolist())
    ]
    return dict(scenario=scenario, measure=measure, alpha=alpha, threshold=threshold,
                bisect_tol=tol, scan_step=SCAN_STEP, curve=curve)


def boundary_to_csv(result: dict) -> str:
    lines = ["beta,p_star,status"]
    for pt in result["curve"]:
        p_star = "" if pt["p_star"] is None else _fmt(pt["p_star"])
        lines.append(f"{_fmt(pt['beta'])},{p_star},{pt['status']}")
    return "\n".join(lines) + "\n"


# --- figure data ---------------------------------------------------------------

def figure_csv(
    figure: int, alpha: float = DEFAULT_ALPHA, resolution: int = DEFAULT_STEPS
) -> dict[str, str]:
    """The beta/p/value CSV text of each of one figure's measures, by
    measure, in the figure's order, on a resolution x resolution grid.

    A figure whose scenario is not X-structured (Figure 7) takes its
    surfaces from the closed-form catalog, because the numeric pipeline
    leaves S and E undefined there.
    """
    figure, resolution = checked("figure", figure), checked("resolution", resolution)
    scenario, measures = FIGURES[figure]
    engine = "numeric" if is_x_structured(scenario) else "closedform"
    grid = run_sweep(scenario, alpha=alpha, beta_steps=resolution, p_steps=resolution,
                     measures=measures, engine=engine)
    return {
        m: "".join(_grid_csv("beta,p,value", [""], grid["betas"], grid["ps"], [surface]))
        for (m, _), surface in grid["surfaces"].items()
    }


# --- sum rules -----------------------------------------------------------------

def _sum_rule_terms(alphas, betas, ps) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rule name -> (numeric lhs, catalog lhs, rhs) arrays of each rule in
    SUM_RULES over the broadcast points (alpha, beta, p): one kernel call and
    one catalog call per scenario."""
    alphas, betas, ps = (
        np.asarray(v, dtype=float).ravel() for v in np.broadcast_arrays(alphas, betas, ps)
    )
    numeric = {name: numeric_batch(name, alphas, betas, ps, ("C",))["C"] for name in SCENARIOS}
    catalog = {name: cf_eval(name, "C", alphas, betas, ps) for name in SCENARIOS}
    return {
        name: (lhs(numeric, alphas), lhs(catalog, alphas), rhs(alphas, ps))
        for name, (lhs, rhs) in SUM_RULES.items()
    }


def sum_rule_samples(alpha: float | None = None, samples: int = DEFAULT_SAMPLES,
                     seed: int = DEFAULT_SEED) -> dict:
    """Max residual of each coherence relation over random parameter points.

    The points come from `random.Random(seed).uniform`, whose stream Python
    keeps the same across versions: `samples` alphas on [0, 1] (only when
    `alpha` is None; otherwise it is held fixed), then as many betas on
    [0, BETA_MAX], then as many p on [0, 1]. The relation `REPORTED_RULE`
    is reported with its alpha-dependence instead of being gated: its residual
    lhs - rhs is exactly -2 sin^2(2 beta) (1-p)^2 alpha^2 (1-alpha^2)^2, which
    vanishes only at alpha in {0, 1}, beta = 0 or p = 1. Nine fixed points,
    alpha = 0.1 ... 0.9 at one (beta, p), follow the random ones to show it.
    """
    samples, seed = checked("samples", samples), checked("seed", seed)
    alpha = None if alpha is None else checked("alpha", alpha)
    rnd = random.Random(seed)
    alphas = [rnd.uniform(0.0, 1.0) for _ in range(samples)] if alpha is None else [alpha] * samples
    betas = [rnd.uniform(0.0, BETA_MAX) for _ in range(samples)]
    ps = [rnd.uniform(0.0, 1.0) for _ in range(samples)]
    beta0, p0 = math.pi / 6.0, 0.3
    alphas0 = [0.1 * k for k in range(1, 10)]
    n0 = len(alphas0)
    terms = _sum_rule_terms(alphas + alphas0, betas + [beta0] * n0, ps + [p0] * n0)
    # Per rule, each engine's |lhs - rhs|: the random points, then the fixed ones.
    residuals = {
        name: (np.abs(num - rhs), np.abs(cat - rhs)) for name, (num, cat, rhs) in terms.items()
    }

    # alpha-dependence of the reported-only relation at a fixed (beta, p).
    alpha_dependence = [
        {
            "alpha": a,
            "numeric_residual": residual,
            "residual_over_alpha2_times_1_minus_alpha2_sq": residual / (a * a * (1.0 - a * a) ** 2),
        }
        for a, residual in zip(alphas0, residuals[REPORTED_RULE][0][samples:].tolist())
    ]

    return {
        "samples": samples,
        "seed": seed,
        "alpha": alpha,
        "rules": [
            {
                "name": name,
                "asserted": name != REPORTED_RULE,
                "max_numeric_residual": float(num[:samples].max()),
                "max_closedform_residual": float(cat[:samples].max()),
            }
            for name, (num, cat) in residuals.items()
        ],
        "reported_rule_alpha_dependence": {
            "beta": beta0,
            "p": p0,
            "points": alpha_dependence,
            "note": (
                f"residual of {REPORTED_RULE} scales as "
                "alpha^2*(1-alpha^2)^2 at fixed (beta, p); it vanishes only "
                "at alpha in {0, 1}, beta = 0 or p = 1"
            ),
        },
    }


# --- audit ---------------------------------------------------------------------

def run_audit(
    alpha: float = DEFAULT_ALPHA, beta_steps: int = DEFAULT_STEPS, p_steps: int = DEFAULT_STEPS,
    tol: float = 1e-8, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
    scenario: str | None = None,
) -> dict:
    """Compare the closed-form catalog against the numeric engine over the
    (beta, p) grid of one scenario, or of each when `scenario` is None;
    return the report, whose "flags" list holds one line per flag.

    The numeric engine is authoritative. Every (scenario, measure) with a
    maximum grid deviation above `tol` is flagged with both engine values at
    the worst point; scenarios whose reduced state is not X-structured are
    flagged as such for S/E (no numeric value exists to compare). The
    asserted sum rules are gated at 1e-10 over random points, evaluated
    first, so a bad `samples` or `seed` fails before any grid is evaluated.
    """
    names = sorted(SCENARIOS) if scenario is None else [checked("scenario", scenario)]
    alpha = checked("alpha", alpha)
    beta_steps, p_steps = checked("beta_steps", beta_steps), checked("p_steps", p_steps)
    tol = checked("tol", tol)
    rules = sum_rule_samples(None, samples, seed)
    entries = []
    flags: list[str] = []
    for name in names:
        compared = MEASURES if is_x_structured(name) else ("C",)
        sweep = run_sweep(name, alpha=alpha, beta_steps=beta_steps, p_steps=p_steps,
                          measures=compared)
        for measure in MEASURES:
            if measure not in compared:
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
            values = sweep["surfaces"][measure, "numeric"]
            catalog = sweep["surfaces"][measure, "closedform"]
            # First maximum in row-major order; a NaN deviation never wins.
            devs = np.abs(values - catalog)
            devs[np.isnan(devs)] = -1.0
            bi, pi = divmod(int(np.argmax(devs)), len(sweep["ps"]))
            worst_dev = float(devs[bi, pi])
            beta_at, p_at = sweep["betas"][bi], sweep["ps"][pi]
            numeric_at, cf_at = float(values[bi, pi]), float(catalog[bi, pi])
            ok = worst_dev <= tol
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
                    f"(numeric={_fmt(numeric_at)}, closedform={_fmt(cf_at)})"
                )

    for rule in rules["rules"]:
        if rule["asserted"] and rule["max_numeric_residual"] > 1e-10:
            flags.append(
                f"sum rule {rule['name']}: numeric residual "
                f"{_fmt(rule['max_numeric_residual'])} exceeds 1e-10"
            )

    return {
        "config": {
            "alpha": alpha,
            "beta_range": [0.0, BETA_MAX, beta_steps],
            "p_range": [0.0, 1.0, p_steps],
            "tolerance": tol,
            "samples": samples,
            "seed": seed,
            "scenarios": names,
        },
        "entries": entries,
        "sum_rules": rules,
        "flags": flags,
    }
