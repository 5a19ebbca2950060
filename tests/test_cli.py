"""End-to-end command-line behavior: subcommands, config files, flag
precedence, output determinism and exit codes."""
from __future__ import annotations

import json

import pytest

import ghzsim.sweep
from ghzsim.cli import EXIT_AUDIT_FLAGGED, EXIT_CONFIG, EXIT_IO, EXIT_OK, main


def run(args):
    return main(args)


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

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--beta-steps", "5", "--p-steps", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_workers_flag_keeps_bytes(self, tmp_path):
        base = ["sweep", "--beta-steps", "4", "--p-steps", "4"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run(base + ["--workers", "1", "--out", str(a)]) == EXIT_OK
        assert run(base + ["--workers", "2", "--out", str(b)]) == EXIT_OK
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


class TestExitCodes:
    def test_config_error_for_bad_measures(self):
        assert run(["sweep", "--measures", "S,Q"]) == EXIT_CONFIG

    def test_config_error_for_bad_alpha(self):
        assert run(["sweep", "--alpha", "2.0", "--beta-steps", "2", "--p-steps", "2"]) == EXIT_CONFIG

    def test_io_error_for_unwritable_path(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
        code = run(["sweep", "--beta-steps", "2", "--p-steps", "2", "--out", str(missing_dir)])
        assert code == EXIT_IO

    def test_boundary_requires_measure(self):
        assert run(["boundary", "--scenario", "ABC_I"]) == EXIT_CONFIG

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        """A bug inside the engine must surface as itself, not as bad input."""

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run(["sweep", "--beta-steps", "2", "--p-steps", "2"])


class TestExplicitValues:
    """A value given on the command line is used, even when it is 0."""

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--beta-steps", "0"],
            ["sweep", "--workers", "0", "--beta-steps", "2", "--p-steps", "2"],
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

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_boundary_rejects_nonpositive_tolerance(self, tol):
        assert run(["boundary", "--measure", "S", "--beta-steps", "2", "--tol", tol]) == EXIT_CONFIG


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
            ["figure", "--seed", "3", "--figure", "1"],
            ["sweep", "--samples", "5"],
        ],
    )
    def test_ignored_flag_is_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [("sweep", "beta"), ("sweep", "p"), ("sweep", "tol"), ("sumrules", "scenario"),
         ("sweep", "config")],
    )
    def test_config_key_outside_the_flag_set(self, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.3\n")
        assert run([command, "--config", str(cfg)]) == EXIT_CONFIG

    def test_config_value_outside_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert run(["boundary", "--measure", "S", "--config", str(cfg)]) == EXIT_CONFIG

    def test_switch_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("all-scenarios = true\nscenario = ABC_I\n")
        out = tmp_path / "audit.json"
        code = run(["audit", "--config", str(cfg), "--beta-steps", "3", "--p-steps", "3",
                    "--samples", "5", "--out", str(out)])
        assert code == EXIT_AUDIT_FLAGGED
        assert len(json.loads(out.read_text())["config"]["scenarios"]) == 8


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


class TestSumrulesCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "rules.json"
        code = run(["sumrules", "--samples", "20", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["rules"]) == 4
        assert "reported_rule_alpha_dependence" in payload


class TestFigureCommand:
    def test_requires_figure_and_out(self, tmp_path):
        assert run(["figure", "--out", str(tmp_path / "f.csv")]) == EXIT_CONFIG
        assert run(["figure", "--figure", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("figure", ["1", "7"])
    @pytest.mark.parametrize("alpha", ["2", "nan"])
    def test_alpha_outside_unit_interval(self, tmp_path, figure, alpha):
        """Both engines' figures check alpha the same way."""
        out = tmp_path / "f.csv"
        code = run(["figure", "--figure", figure, "--alpha", alpha, "--resolution", "16",
                    "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_emits_surfaces(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = run(["figure", "--figure", "2", "--resolution", "16", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed == [str(tmp_path / "fig2_E.csv"), str(tmp_path / "fig2_C.csv")]
        header = (tmp_path / "fig2_E.csv").read_text().split("\n")[0]
        assert header == "beta,p,value"
