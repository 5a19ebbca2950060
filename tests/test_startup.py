"""The package's layers and what a fresh process pays to start: the package
holds one module per layer and `import ghzsim.sweep` loads every one below
the CLI, `import ghzsim` loads no submodule, `import ghzsim.qcore` loads
neither numpy nor dataclasses, `import ghzsim.cli` and every CLI run that
computes nothing load no numpy, the CLI runs numpy's OpenBLAS with one
thread unless the user chose a number, and no CLI run imports
`numpy.random`.

Each check runs in a new interpreter, because this test process has
already imported numpy and every ghzsim module."""
from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ghzsim

SRC = str(Path(ghzsim.__file__).resolve().parents[1])

#: The package's public names, pinned.
EXPORTS = {
    "BETA_MAX", "CATALOG", "ConfigError",
    "SCENARIOS", "Scenario", "SweepGrid",
    "cf_eval", "damped_scenario_state", "figure_csv", "find_boundary",
    "is_x_structured", "numeric_batch", "run_audit", "run_sweep", "scenario",
    "sum_rule_samples",
}


def fresh_python(code: str, **env: str) -> object:
    """Run `code` in a new interpreter with the package on its path and
    `env` in its environment (OPENBLAS_NUM_THREADS unset unless given), and
    return the JSON value it prints."""
    full_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    full_env.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code], env=full_env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestLayers:
    def test_one_module_per_layer(self):
        names = sorted(m.name for m in pkgutil.iter_modules(ghzsim.__path__))
        assert names == ["cli", "closedform", "engine", "qcore", "sweep"]

    def test_sweep_loads_every_layer_below_the_cli(self):
        code = "import json, sys, ghzsim.sweep; print(json.dumps(sorted(sys.modules)))"
        ours = [m for m in fresh_python(code) if m.partition(".")[0] == "ghzsim"]
        assert ours == ["ghzsim", "ghzsim.closedform", "ghzsim.engine", "ghzsim.qcore", "ghzsim.sweep"]


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        code = "import json, sys, ghzsim; print(json.dumps(sorted(sys.modules)))"
        loaded = fresh_python(code)
        assert "numpy" not in loaded
        assert [m for m in loaded if m.startswith("ghzsim.")] == []

    def test_qcore_loads_no_numpy_and_no_dataclasses(self):
        code = "import json, sys, ghzsim.qcore; print(json.dumps(sorted(sys.modules)))"
        loaded = fresh_python(code)
        assert "numpy" not in loaded
        assert "dataclasses" not in loaded

    def test_catalog_imports_only_qcore(self):
        """The closed forms depend on no numeric ghzsim module."""
        code = "import json, sys, ghzsim.closedform; print(json.dumps(sorted(sys.modules)))"
        loaded = [m for m in fresh_python(code) if m.startswith("ghzsim.")]
        assert loaded == ["ghzsim.closedform", "ghzsim.qcore"]

    def test_exports_resolve_on_first_use(self):
        code = (
            "import importlib, json, ghzsim\n"
            "from ghzsim import engine\n"
            "owners = {n: ghzsim._EXPORTS[n] for n in ghzsim.__all__}\n"
            "same = [n for n, m in owners.items() if getattr(ghzsim, n)\n"
            "        is getattr(importlib.import_module('ghzsim.' + m), n)]\n"
            "try:\n"
            "    ghzsim.nope\n"
            "    unknown = 'resolved'\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps({'all': ghzsim.__all__, 'same': same, 'unknown': unknown,\n"
            "                  'engine': engine.__name__}))\n"
        )
        got = fresh_python(code)
        assert len(got["all"]) == len(EXPORTS) == 16
        assert set(got["all"]) == EXPORTS
        # The domain's constant lives with its check, in the numpy-free qcore.
        assert ghzsim._EXPORTS["BETA_MAX"] == "qcore"
        assert set(got["same"]) == EXPORTS
        assert got["engine"] == "ghzsim.engine"
        assert got["unknown"] == "module 'ghzsim' has no attribute 'nope'"


class TestNumpyFreeFrontEnd:
    """`import ghzsim.cli` loads only the package, the CLI and `qcore`, and a
    run that computes nothing (help, a usage error, a configuration error)
    ends before numpy loads."""

    def test_import_loads_only_cli_and_qcore(self):
        code = "import json, sys, ghzsim.cli; print(json.dumps(sorted(sys.modules)))"
        loaded = fresh_python(code)
        assert "numpy" not in loaded
        ours = [m for m in loaded if m.partition(".")[0] == "ghzsim"]
        assert ours == ["ghzsim", "ghzsim.cli", "ghzsim.qcore"]

    @pytest.mark.parametrize(
        "args, outcome",
        [
            (["--help"], "SystemExit 0"),
            (["sweep", "--bogus"], "SystemExit 2"),
            (["sweep", "--config", "CONFIG"], 2),
            (["figure", "--figure", "2", "--out", "."], 2),
        ],
        ids=["help", "usage-error", "config-key", "out-dot"],
    )
    def test_run_that_computes_nothing_loads_no_numpy(self, tmp_path, args, outcome):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus = 1\n")
        argv = [str(config) if a == "CONFIG" else a for a in args]
        code = (
            "import contextlib, io, json, sys\n"
            "from ghzsim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        outcome = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        outcome = f'SystemExit {exc.code}'\n"
            "print(json.dumps([outcome, 'numpy' in sys.modules]))\n"
        )
        assert fresh_python(code) == [outcome, False]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/task")
class TestBlasThreads:
    """The thread count is read after `main` has run a computing subcommand,
    because the CLI loads numpy, and OpenBLAS starts its threads, only then."""

    @staticmethod
    def threads(tmp_path, **env: str) -> list:
        argv = ["sumrules", "--samples", "3", "--out", str(tmp_path / "rules.json")]
        code = (
            "import json, os, sys\n"
            "from ghzsim.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, 'numpy' in sys.modules,\n"
            "                  len(os.listdir('/proc/self/task')),\n"
            "                  os.environ['OPENBLAS_NUM_THREADS']]))\n"
        )
        return fresh_python(code, **env)

    def test_cli_process_has_one_thread(self, tmp_path):
        assert self.threads(tmp_path) == [0, True, 1, "1"]

    def test_user_setting_wins(self, tmp_path):
        # OpenBLAS runs at most one thread per CPU the process may use.
        threads = min(2, len(os.sched_getaffinity(0)))
        assert self.threads(tmp_path, OPENBLAS_NUM_THREADS="2") == [0, True, threads, "2"]


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["sumrules", "--samples", "3"], 0),
        (["audit", "--beta-steps", "2", "--p-steps", "2", "--samples", "3"], 4),
    ],
)
def test_cli_run_imports_no_numpy_random(tmp_path, args, exit_code):
    argv = args + ["--out", str(tmp_path / "out.json")]
    code = (
        "import json, sys\n"
        "from ghzsim.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, 'numpy.random' in sys.modules]))\n"
    )
    assert fresh_python(code) == [exit_code, False]
