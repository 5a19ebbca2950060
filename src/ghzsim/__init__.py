"""Tripartite nonlocality, entanglement and l1-coherence of GHZ-like states
seen by uniformly accelerated observers under amplitude damping.

The numeric engine has one public face, and every public function takes a
scenario by name: `numeric_batch` evaluates S, E and C over broadcastable
(alpha, beta, p), scalars included, and `damped_scenario_state` gives one
point's whole reduced matrix as a plain real (8, 8) array, before damping
at p = 0. The kernels under them, in the same module
(`engine.scenario_reduced_entries`, `engine.damp_entries`,
`engine.support_measures`), work on batched rows of a scenario's support
entries. Scenarios and sweep grids are plain data:
a `Scenario` is a named tuple of mode-name strings, and a `SweepGrid` holds
its axes and one (beta, p) array per (measure, engine). The other workflows
return dicts or text, and no library function writes a file. Each workflow
takes keyword parameters named after its CLI subcommand's flags, a grid by
its step counts over the whole (beta, p) domain. The numpy-free `qcore`
owns the scenario, figure and engine tables that the CLI's parser reads,
and the one range check of alpha, beta, p and tol, which the engine entry,
`cf_eval` and each workflow call; one error class, `ConfigError`, reports
every bad value, scenario and measure.

The public names below are imported from their submodules on first use
(PEP 562), so `import ghzsim` alone loads no submodule and not numpy. This
lets `ghzsim.cli` set its BLAS thread default before numpy loads; the
package itself sets nothing, so a library user's process keeps numpy's own
thread settings.
"""

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "closedform": "CATALOG cf_eval",
        "engine": "damped_scenario_state is_x_structured numeric_batch",
        "qcore": "BETA_MAX ConfigError SCENARIOS Scenario scenario",
        "sweep": "SweepGrid figure_csv find_boundary run_audit run_sweep sum_rule_samples",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
