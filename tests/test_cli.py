"""End-to-end command-line behavior: subcommands, config files, flag
precedence, output determinism and exit codes."""
from __future__ import annotations

import inspect
import json
import math
import os
import stat
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ghzsim.sweep
from ghzsim import ConfigError
from ghzsim.cli import (
    _SUBCOMMANDS,
    EXIT_AUDIT_FLAGGED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    main,
    write_text_atomic,
)
from ghzsim.qcore import CHOICES, checked


def run(args):
    return main(args)


#: One small run of each subcommand (figure 1 writes one file, figure 2 two).
ONE_RUN_PER_COMMAND = [
    ["sweep", "--beta-steps", "2", "--p-steps", "2"],
    ["audit", "--beta-steps", "2", "--p-steps", "2", "--samples", "2"],
    ["boundary", "--measure", "S", "--beta-steps", "1"],
    ["sumrules", "--samples", "2"],
    ["figure", "--figure", "1", "--resolution", "16"],
    ["figure", "--figure", "2", "--resolution", "16"],
]


class TestSweepCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--scenario", "ABC_I", "--beta-steps", "3", "--p-steps", "3",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scenario,measure,engine,alpha,beta,p,value"
        assert len(lines) == 1 + 3 * 3 * 3 * 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(
            ["sweep", "--beta-steps", "2", "--p-steps", "2", "--format", "json",
             "--engine", "closedform", "--measures", "C", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload) == 4
        assert payload[0]["measure"] == "C"

    def test_stdout_when_no_out(self, capsys):
        code = run(["sweep", "--beta-steps", "2", "--p-steps", "2", "--measures", "S",
                    "--engine", "closedform"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("scenario,measure,engine,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_gives_the_bytes_of_out(self, tmp_path, capsys, fmt):
        args = ["sweep", "--format", fmt, "--beta-steps", "3", "--p-steps", "3"]
        out = tmp_path / "sweep.out"
        assert run(args + ["--out", str(out)]) == EXIT_OK
        assert run(args) == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()
        if fmt == "json":
            assert len(json.loads(out.read_text())) == 3 * 3 * 3 * 2

    def test_out_file_mode_follows_umask(self, tmp_path, umask_022):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--beta-steps", "3", "--p-steps", "3", "--out", str(out)]) == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o644

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--beta-steps", "5", "--p-steps", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_flag(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["sweep", "--alpha", "0.25", "--beta-steps", "2", "--p-steps", "2",
             "--measures", "C", "--engine", "numeric", "--out", str(out)])
        assert ",0.25," in out.read_text().split("\n")[1]


class TestConfigFile:
    def test_values_read_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# grid\nbeta-steps = 2\np_steps = 2\nmeasures = C\nengine = closedform\n"
        )
        out = tmp_path / "o.csv"
        code = run(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().strip().split("\n")) == 1 + 4

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.9\nmeasures = C\nengine = closedform\n")
        out = tmp_path / "o.csv"
        run(["sweep", "--config", str(cfg), "--alpha", "0.25", "--beta-steps", "2",
             "--p-steps", "2", "--out", str(out)])
        body = out.read_text()
        assert ",0.25," in body and ",0.9," not in body

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbosity = 3\n")
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_wrong_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta-steps = many\n")
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"alpha = 0.5\xff\n")
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: config file is not UTF-8 text\n"

    def test_hash_inside_a_value_is_part_of_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o.cfg").write_text("out = res#1.csv  # the report\n")
        assert run(["sumrules", "--samples", "2", "--config", "o.cfg"]) == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == ["o.cfg", "res#1.csv"]

    def test_hash_after_whitespace_starts_a_comment(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5  # note\nmeasures = C\t# one\nengine = closedform\n")
        out = tmp_path / "o.csv"
        code = run(["sweep", "--config", str(cfg), "--beta-steps", "2", "--p-steps", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().split("\n")[1].startswith("ABC_I,C,closedform,0.5,")

    @pytest.mark.parametrize(
        "command, text, key, first, second",
        [
            ("sumrules", "alpha = 0.5\nalpha = 0.6\n", "alpha", 1, 2),
            ("sweep", "beta-steps = 3\nbeta_steps = 4\n", "beta_steps", 1, 2),
            ("sweep", "p_steps = 3\n# grid\n\nmeasures = C\np-steps = 3\n", "p_steps", 1, 5),
        ],
        ids=["same-spelling", "dash-and-underscore", "lines-apart"],
    )
    def test_repeated_key(self, tmp_path, capsys, command, text, key, first, second):
        """A key given twice, in either spelling and even with the same
        value, is an error that names it and both its lines."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run([command, "--config", str(cfg)]) == EXIT_CONFIG
        message = f"error: {cfg}:{second}: key {key!r} repeats line {first}\n"
        assert capsys.readouterr().err == message

    def test_file_gives_the_bytes_of_the_flags(self, tmp_path):
        """A config file sets each flag as the command line does, a measures
        list included."""
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("measures = S,E\nbeta-steps = 3\np-steps = 3\n")
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(from_file)]) == EXIT_OK
        assert run(["sweep", "--measures", "S,E", "--beta-steps", "3", "--p-steps", "3",
                    "--out", str(from_flags)]) == EXIT_OK
        assert from_file.read_bytes() == from_flags.read_bytes()
        assert len(from_file.read_text().splitlines()) == 1 + 3 * 3 * 2 * 2

    def test_file_with_byte_order_mark(self, tmp_path):
        """Editors that save UTF-8 with a byte-order mark put it before the
        first key; it is not part of that key."""
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfalpha = 0.25\nmeasures = C\nengine = closedform\n")
        out = tmp_path / "o.csv"
        code = run(["sweep", "--config", str(cfg), "--beta-steps", "2", "--p-steps", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert ",0.25," in out.read_text()


class TestExitCodes:
    def test_config_error_for_bad_measures(self):
        assert run(["sweep", "--measures", "S,Q"]) == EXIT_CONFIG

    def test_config_error_for_repeated_measures(self, capsys):
        """A repeated measure would be written once: it is rejected, not
        silently dropped."""
        code = run(["sweep", "--measures", "S,S,E", "--beta-steps", "2", "--p-steps", "2"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "measures=('S', 'S', 'E') not in ('S', 'E', 'C')" in captured.err

    def test_config_error_for_bad_alpha(self):
        assert run(["sweep", "--alpha", "2.0", "--beta-steps", "2", "--p-steps", "2"]) == EXIT_CONFIG

    def test_io_error_for_unwritable_path(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
        code = run(["sweep", "--beta-steps", "2", "--p-steps", "2", "--out", str(missing_dir)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("target", ["missing/x.csv", "adir"])
    def test_io_error_text_is_reproducible(self, tmp_path, monkeypatch, capsys, target):
        """Two failing runs print the same error, naming the requested path
        and no temporary file, and leave no temporary file behind."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        errors = []
        for _ in range(2):
            code = run(["sweep", "--beta-steps", "2", "--p-steps", "2", "--out", target])
            assert code == EXIT_IO
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("I/O error: ") and errors[0].endswith(f": '{target}'\n")
        assert ("[Errno 21] Is a directory" in errors[0]) == (target == "adir")
        assert ".tmp-" not in errors[0]
        assert [p.name for p in tmp_path.rglob("*")] == ["adir"]

    @pytest.mark.parametrize("args", ONE_RUN_PER_COMMAND)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_is_a_config_error(self, tmp_path, monkeypatch, capsys, args, source):
        """An empty --out names no file: it neither falls back to stdout nor
        writes files with a bare suffix into the working directory."""
        monkeypatch.chdir(tmp_path)
        if source == "flag":
            args = args + ["--out", ""]
        else:
            (tmp_path / "run.cfg").write_text("out =\n")
            args = args + ["--config", "run.cfg"]
        assert run(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out must name a file, got ''\n"
        left = ["run.cfg"] if source == "config" else []
        assert sorted(p.name for p in tmp_path.iterdir()) == left

    @pytest.mark.parametrize("args", ONE_RUN_PER_COMMAND)
    @pytest.mark.parametrize("out", ["adir/", ".", ".."])
    def test_out_without_file_name_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, args, out
    ):
        """A directory path names no file: every subcommand rejects it the same
        way, where `figure 2` used to write `adir/_E.csv` (or `._E.csv` for
        `.`) and the rest failed on the write."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert run(args + ["--out", out]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out must name a file, got {out!r}\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["adir"]

    def test_boundary_requires_measure(self, capsys):
        assert run(["boundary", "--scenario", "ABC_I"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: boundary requires --measure S|E\n"

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        """A bug inside the engine must surface as itself, not as bad input."""

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run(["sweep", "--beta-steps", "2", "--p-steps", "2"])


class TestNegativeZero:
    """A float flag reads -0.0 as 0.0, so no output shows -0."""

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--beta-steps", "3", "--p-steps", "3"],
            ["audit", "--beta-steps", "2", "--p-steps", "2", "--samples", "2"],
            ["boundary", "--measure", "S", "--beta-steps", "2", "--format", "json"],
            ["sumrules", "--samples", "2"],
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_alpha_negative_zero_gives_the_bytes_of_zero(self, tmp_path, args, source):
        runs = []
        for name, alpha in (("neg", "-0.0"), ("pos", "0")):
            out = tmp_path / f"{name}.out"
            if source == "flag":
                extra = ["--alpha", alpha]
            else:
                (tmp_path / f"{name}.cfg").write_text(f"alpha = {alpha}\n")
                extra = ["--config", str(tmp_path / f"{name}.cfg")]
            code = run(args + extra + ["--out", str(out)])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1]


class TestExplicitValues:
    """A value given on the command line is used, even when it is 0."""

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--beta-steps", "0"],
            ["sweep", "--beta-steps", "2", "--p-steps", "0"],
            ["sumrules", "--samples", "0"],
            ["figure", "--figure", "1", "--resolution", "0", "--out", "unused.csv"],
            ["boundary", "--measure", "S", "--beta-steps", "0"],
        ],
    )
    def test_zero_is_not_replaced_by_the_default(self, args):
        assert run(args) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args",
        [
            ["sumrules", "--samples", "5", "--seed", "-1"],
            ["audit", "--beta-steps", "3", "--p-steps", "3", "--samples", "5", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_config_error(self, args):
        assert run(args) == EXIT_CONFIG

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_boundary_rejects_nonpositive_tolerance(self, tol, capsys):
        assert run(["boundary", "--measure", "S", "--beta-steps", "2", "--tol", tol]) == EXIT_CONFIG
        assert "tol=" in capsys.readouterr().err

    def test_boundary_zero_tolerance_gives_the_curve_of_the_smallest(self, tmp_path):
        """`--tol 0` is valid: bisection already stops at float spacing, so
        the curve is that of a tolerance far below it."""
        texts = []
        for tol in ("0", "1e-300"):
            out = tmp_path / f"tol{tol}.csv"
            assert run(["boundary", "--measure", "S", "--beta-steps", "5", "--tol", tol,
                        "--out", str(out)]) == EXIT_OK
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert "crossing" in texts[0]

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize(
        "args",
        [["audit", "--beta-steps", "2", "--p-steps", "2", "--samples", "2"],
         ["boundary", "--measure", "S", "--beta-steps", "2", "--format", "json"]],
        ids=["audit", "boundary"],
    )
    def test_non_finite_tolerance_is_a_config_error(self, tmp_path, capsys, args, tol):
        """A tolerance must be finite: the run writes one error line, no
        output and no file."""
        out = tmp_path / "out.json"
        assert run(args + ["--tol", tol, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: tol={tol} outside [0, {sys.float_info.max!r}]"
        ]
        assert not out.exists()


#: Each numeric flag's domain, (low, high), as the README's table states it;
#: a count has no high end.
DOMAINS = {"alpha": (0.0, 1.0), "tol": (0.0, sys.float_info.max), "beta_steps": (1, None),
           "p_steps": (1, None), "resolution": (16, None), "samples": (1, None),
           "seed": (0, None)}

#: A small run of each subcommand, as flags; a drawn flag replaces its own.
SMALL_RUNS = {
    "sweep": {"beta_steps": 2, "p_steps": 2},
    "audit": {"scenario": "ABC_I", "beta_steps": 2, "p_steps": 2, "samples": 2},
    "boundary": {"measure": "S", "beta_steps": 2},
    "sumrules": {"samples": 2},
    "figure": {"figure": 1, "resolution": 16},
}


@st.composite
def out_of_domain(draw):
    """A subcommand, one numeric flag it takes, a value of the flag's type
    outside its domain, and whether a config file gives it."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flag = draw(st.sampled_from([f for f in _SUBCOMMANDS[command][1] if f in DOMAINS]))
    low, high = DOMAINS[flag]
    if high is None:
        value = draw(st.integers(max_value=low - 1))
    else:
        value = draw(st.floats(max_value=-math.ulp(0.0))
                     | st.floats(min_value=math.nextafter(high, math.inf))
                     | st.just(math.nan))
    return command, flag, value, draw(st.booleans())


class TestNumericDomains:
    """One domain per numeric parameter, on every subcommand that takes it."""

    @staticmethod
    def _run(tmp_path, command, flag, value, in_config):
        """Run the subcommand's small run with `flag` set to `value`, on the
        command line or in a config file; return the exit code and --out."""
        args = [command]
        for key, given_value in SMALL_RUNS[command].items():
            if key != flag:
                args += ["--" + key.replace("_", "-"), str(given_value)]
        if in_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag} = {value}\n")
            args += ["--config", str(cfg)]
        else:  # one token, so argparse reads "-inf" as a value
            args.append(f"--{flag.replace('_', '-')}={value}")
        out = tmp_path / "out.txt"
        out.unlink(missing_ok=True)
        return run(args + ["--out", str(out)]), out

    @settings(derandomize=True, max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=out_of_domain())
    @example(case=("figure", "resolution", 15, False))
    def test_value_outside_the_domain_is_one_error_line(self, tmp_path, capsys, case):
        """A value outside its flag's domain exits 2 with one `error:` line
        that names the parameter, nothing on stdout and no --out file; the
        domain's nearest end runs."""
        command, flag, value, in_config = case
        code, out = self._run(tmp_path, command, flag, value, in_config)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {flag}={value} outside [")
        assert not out.exists()

        low, high = DOMAINS[flag]
        end = high if high is not None and value > high else low
        code, out = self._run(tmp_path, command, flag, end, in_config)
        assert "error:" not in capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_AUDIT_FLAGGED)
        assert out.exists()

    @pytest.mark.parametrize(
        "args, betas",
        [(["sweep", "--p-steps", "2", "--format", "json"], lambda doc: [r["beta"] for r in doc]),
         (["audit", "--p-steps", "2", "--samples", "2"],
          lambda doc: [e["beta_at_max"] for e in doc["entries"]]),
         (["boundary", "--measure", "S", "--format", "json"],
          lambda doc: [pt["beta"] for pt in doc["curve"]])],
        ids=["sweep", "audit", "boundary"],
    )
    def test_one_beta_step_is_the_zero_end_on_every_subcommand(self, tmp_path, args, betas):
        out = tmp_path / "out.json"
        code = run(args + ["--beta-steps", "1", "--scenario", "ABC_I", "--out", str(out)])
        assert code == EXIT_OK
        assert set(betas(json.loads(out.read_text()))) == {0.0}

    def test_one_step_grid_is_its_corner(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["sweep", "--beta-steps", "1", "--p-steps", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 2
        assert all(line.split(",")[4:6] == ["0", "0"] for line in lines[1:])


#: A seed far past 64 bits: `random.Random` takes any int >= 0.
HUGE_SEED = 1180591620717411303424


class TestHugeSeed:
    def test_sumrules_echoes_it_exactly(self, tmp_path):
        out = tmp_path / "rules.json"
        code = run(["sumrules", "--samples", "2", "--seed", str(HUGE_SEED), "--out", str(out)])
        assert code == EXIT_OK
        assert f'"seed": {HUGE_SEED},' in out.read_text()
        assert json.loads(out.read_text())["seed"] == HUGE_SEED

    def test_audit_echoes_it_exactly(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run(["audit", "--beta-steps", "3", "--p-steps", "3", "--samples", "2",
                    "--seed", str(HUGE_SEED), "--out", str(out)])
        assert code == EXIT_AUDIT_FLAGGED
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == report["sum_rules"]["seed"] == HUGE_SEED


class TestFlagSets:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "args",
        [
            ["sumrules", "--scenario", "AB_I_B_II"],
            ["sumrules", "--engine", "numeric"],
            ["sumrules", "--p-steps", "9"],
            ["audit", "--format", "csv"],
            ["audit", "--measures", "C"],
            ["boundary", "--p-steps", "9", "--measure", "S"],
            ["boundary", "--workers", "2", "--measure", "S"],
            ["sweep", "--workers", "2"],
            ["audit", "--workers", "1"],
            ["audit", "--all-scenarios"],
            ["audit", "--scenario", "ABC_I", "--all-scenarios"],
            ["figure", "--seed", "3", "--figure", "1"],
            ["sweep", "--samples", "5"],
        ],
    )
    def test_ignored_flag_is_rejected(self, args, capsys):
        assert run(args) == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [("sweep", "beta"), ("sweep", "p"), ("sweep", "tol"), ("sumrules", "scenario"),
         ("sweep", "config"), ("sweep", "workers"), ("audit", "workers"),
         ("audit", "all-scenarios")],
    )
    def test_config_key_outside_the_flag_set(self, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.3\n")
        assert run([command, "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["sweep", "audit"])
    def test_help_lists_no_workers_flag(self, command, capsys):
        """Evaluation is single-process, so no subcommand offers --workers."""
        assert run([command, "--help"]) == EXIT_OK
        assert "workers" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, workflow",
        [("sweep", "run_sweep"), ("audit", "run_audit"), ("boundary", "find_boundary"),
         ("sumrules", "sum_rule_samples"), ("figure", "figure_csv")],
    )
    def test_flags_are_the_workflow_parameters(self, command, workflow):
        """The flags but the output ones are the parameters of the
        subcommand's workflow, each under its own name."""
        flags = set(_SUBCOMMANDS[command][1]) - {"out", "format", "config"}
        assert set(inspect.signature(getattr(ghzsim.sweep, workflow)).parameters) == flags

    def test_config_value_outside_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert run(["boundary", "--measure", "S", "--config", str(cfg)]) == EXIT_CONFIG
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG


#: A bad value of each named flag: as it is written, and as the flag casts it.
BAD_NAMES = {
    "scenario": ("nope", "nope"),
    "measure": ("Q", "Q"),
    "measures": ("S,Q", ("S", "Q")),
    "engine": ("fast", "fast"),
    "figure": ("9", 9),
    "format": ("xml", "xml"),
}

#: (subcommand, named flag) for every named flag of every subcommand.
NAMED_FLAGS = [(c, f) for c, (_, flags) in _SUBCOMMANDS.items() for f in flags if f in CHOICES]


class TestNamedFlags:
    """`qcore.checked` is the one check of a named flag: a bad value from the
    command line or from a config file exits 2 with its message, and nothing
    runs or is written."""

    def test_every_named_parameter_has_a_bad_value(self):
        assert BAD_NAMES.keys() == CHOICES.keys()

    @pytest.mark.parametrize("command, flag", NAMED_FLAGS, ids=["-".join(c) for c in NAMED_FLAGS])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_value_gets_the_message_of_checked(
        self, tmp_path, monkeypatch, capsys, command, flag, source
    ):
        monkeypatch.chdir(tmp_path)
        raw, value = BAD_NAMES[flag]
        with pytest.raises(ConfigError) as expected:
            checked(flag, value)
        if source == "flag":
            args = [command, "--" + flag, raw, "--out", "x"]
        else:
            (tmp_path / "run.cfg").write_text(f"{flag} = {raw}\n")
            args = [command, "--config", "run.cfg", "--out", "x"]
        assert run(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected.value}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args, workflow, kwargs",
        [
            (["sweep", "--alpha", "2", "--scenario", "nope"], "run_sweep",
             dict(scenario="nope", alpha=2.0)),
            (["sweep", "--beta-steps", "0", "--engine", "fast"], "run_sweep",
             dict(beta_steps=0, engine="fast")),
            (["audit", "--alpha", "2", "--scenario", "nope"], "run_audit",
             dict(scenario="nope", alpha=2.0)),
            (["boundary", "--scenario", "nope", "--measure", "Q"], "find_boundary",
             dict(scenario="nope", measure="Q")),
            (["boundary", "--tol", "-1", "--measure", "Q"], "find_boundary",
             dict(measure="Q", tol=-1.0)),
            (["figure", "--alpha", "2", "--figure", "9"], "figure_csv",
             dict(figure=9, alpha=2.0)),
        ],
        ids=["sweep", "sweep-engine", "audit", "boundary-two-names", "boundary", "figure"],
    )
    def test_a_bad_name_and_a_bad_value_read_the_same_on_both_routes(
        self, tmp_path, capsys, args, workflow, kwargs
    ):
        """Both `main` and the workflow check names first, in `CHOICES`
        order, then numbers, so either route reports the same one."""
        with pytest.raises(ConfigError) as expected:
            getattr(ghzsim.sweep, workflow)(**kwargs)
        assert "not in" in str(expected.value)
        assert run(args + ["--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {expected.value}\n"


class TestAuditCommand:
    def test_flagged_audit_exits_nonzero(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run(
            ["audit", "--scenario", "AB_I_C_I", "--beta-steps", "7", "--p-steps", "7",
             "--samples", "20", "--out", str(out)]
        )
        assert code == EXIT_AUDIT_FLAGGED
        payload = json.loads(out.read_text())
        assert any(f.startswith("AB_I_C_I/S") for f in payload["flags"])

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_is_a_config_error(self, tmp_path, tol):
        out = tmp_path / "audit.json"
        code = run(["audit", "--beta-steps", "3", "--p-steps", "3", "--samples", "5",
                    "--tol", tol, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_clean_audit_exits_zero(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run(
            ["audit", "--scenario", "ABC_I", "--beta-steps", "7", "--p-steps", "7",
             "--samples", "20", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["flags"] == []


class TestBoundaryCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(
            ["boundary", "--scenario", "ABC_I", "--measure", "S", "--beta-steps", "2",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "beta,p_star,status"
        first = lines[1].split(",")
        assert abs(float(first[1]) - 0.5) < 1e-5

    def test_json_has_one_point_per_beta(self, tmp_path):
        out = tmp_path / "b.json"
        code = run(["boundary", "--measure", "S", "--beta-steps", "3", "--format", "json",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["curve"]) == 3


class TestSumrulesCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "rules.json"
        code = run(["sumrules", "--samples", "20", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["rules"]) == 4
        assert "reported_rule_alpha_dependence" in payload


class TestFigureCommand:
    def test_requires_figure_and_out(self, tmp_path, capsys):
        assert run(["figure", "--out", str(tmp_path / "f.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: figure requires --figure 1|2|3|4|5|6|7\n"
        assert run(["figure", "--figure", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: figure requires --out\n"

    @pytest.mark.parametrize("figure", ["1", "7"])
    @pytest.mark.parametrize("alpha", ["2", "nan"])
    def test_alpha_outside_unit_interval(self, tmp_path, figure, alpha):
        """Both engines' figures check alpha the same way."""
        out = tmp_path / "f.csv"
        code = run(["figure", "--figure", figure, "--alpha", alpha, "--resolution", "16",
                    "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_single_measure_writes_exact_path(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        assert run(["figure", "--figure", "1", "--resolution", "16", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"{out}\n"
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "beta,p,value"
        assert len(lines) == 1 + 16 * 16

    def test_multi_measure_suffixes_files(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        assert run(["figure", "--figure", "3", "--resolution", "16", "--out", str(out)]) == EXIT_OK
        written = capsys.readouterr().out.split()
        assert written == [str(tmp_path / "surface_S.csv"), str(tmp_path / "surface_E.csv")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["surface_E.csv", "surface_S.csv"]

    def test_figure_files_get_the_mode_of_a_plain_open(self, tmp_path, umask_022):
        out = tmp_path / "fig2.csv"
        assert run(["figure", "--figure", "2", "--resolution", "16", "--out", str(out)]) == EXIT_OK
        for name in ("fig2_E.csv", "fig2_C.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_emits_surfaces(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = run(["figure", "--figure", "2", "--resolution", "16", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed == [str(tmp_path / "fig2_E.csv"), str(tmp_path / "fig2_C.csv")]
        header = (tmp_path / "fig2_E.csv").read_text().split("\n")[0]
        assert header == "beta,p,value"


class TestWriteTextAtomic:
    """The CLI's one file writer, used for every --out."""

    def test_atomic_write(self, tmp_path, umask_022):
        target = tmp_path / "out.csv"
        write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]
        # The mode a plain open() gives under umask 022, not mkstemp's 0o600,
        # and an existing file keeps its own mode.
        assert target.stat().st_mode & 0o777 == 0o644
        target.chmod(0o600)
        write_text_atomic(str(target), "again\n")
        assert target.read_text() == "again\n"
        assert target.stat().st_mode & 0o777 == 0o600

    def test_atomic_write_through_a_symlink(self, tmp_path, umask_022):
        """As with a plain open(), the link stays and its target is written,
        keeping the target's mode; a dangling link creates its target."""
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "real.csv"
        real.write_text("old\n")
        real.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_text_atomic(str(link), "new\n")
        assert link.is_symlink() and link.resolve() == real
        assert real.read_text() == "new\n"
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in real.parent.iterdir()) == ["real.csv"]

        dangling = tmp_path / "dangling.csv"
        dangling.symlink_to(tmp_path / "data" / "made.csv")
        write_text_atomic(str(dangling), "made\n")
        assert dangling.is_symlink()
        assert (tmp_path / "data" / "made.csv").read_text() == "made\n"
        assert (tmp_path / "data" / "made.csv").stat().st_mode & 0o777 == 0o644

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link-to-fifo"])
    def test_out_onto_a_fifo_writes_through_it(self, tmp_path, capsys, via_link):
        """An existing FIFO, or a link to one, has no contents to replace: its
        reader gets the bytes a run gives to stdout, and the FIFO and the
        link stay what they were."""
        args = ["sweep", "--beta-steps", "2", "--p-steps", "2"]
        fifo = out = tmp_path / "fifo"
        os.mkfifo(fifo)
        if via_link:
            out = tmp_path / "link"
            out.symlink_to(fifo)
        # The read end opens first, without blocking, so neither side can hang.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(args + ["--out", str(out)]) == EXIT_OK
            received = b""
            while chunk := os.read(reader, 1 << 16):
                received += chunk
        finally:
            os.close(reader)
        assert run(args) == EXIT_OK
        assert received == capsys.readouterr().out.encode()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert out.is_symlink() == via_link

    def test_other_errors_propagate_and_leave_no_temporary_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(str(tmp_path / "x.csv"), "\ud800")
        assert list(tmp_path.iterdir()) == []
