"""Command line front end: configs, artifacts, and exit codes.

Most tests drive ``main(argv)`` in process. ``TestConsoleScript`` runs the
command line as a separate process through ``python -m dtrkit``, checks the
``[project.scripts]`` declaration in ``pyproject.toml``, and runs the
installed ``dtrkit`` executable where the package is installed.
"""

import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtrkit
from dtrkit import __version__, alearn
from dtrkit.cli import main


def _write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1))
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigHandling:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read config file" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_unsupported_version(self, capsys, tmp_path):
        path = _write_config(tmp_path, {"version": 99, "scenario": {"name": "one_decision"}})
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert "unsupported config version" in err

    def test_bad_seed(self, capsys, tmp_path):
        path = _write_config(tmp_path, {"seed": -1, "scenario": {"name": "one_decision"}})
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert "seed" in err

    def test_unknown_scenario(self, capsys, tmp_path):
        path = _write_config(tmp_path, {"scenario": {"name": "mystery"}})
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert "unknown scenario" in err

    @pytest.mark.parametrize("command", ["simulate", "fit", "value", "calibrate", "validate"])
    def test_threads_flag_only_on_study(self, capsys, tmp_path, command):
        path = _write_config(tmp_path, {"scenario": {"name": "one_decision"}})
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([command, str(path), "--threads", "2", "--out-dir", str(out_dir)])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_threads_key_read_by_study_alone(self, capsys, tmp_path):
        body = {
            "threads": 0,
            "scenario": {"name": "one_decision"},
            "simulate": {"n": 5},
            "study": {"n": 50, "reps": 3},
        }
        path = _write_config(tmp_path, body)
        out_dir = str(tmp_path / "out")
        for command in ("validate", "study"):
            code, _, err = _run(capsys, command, str(path), "--out-dir", out_dir)
            assert (code, "threads: must be an integer >= 1" in err) == (2, True)
        assert _run(capsys, "study", str(path), "--threads", "1", "--out-dir", out_dir)[0] == 0
        assert _run(capsys, "simulate", str(path), "--out-dir", out_dir)[0] == 0

    def test_bad_param_override(self, capsys, tmp_path):
        path = _write_config(
            tmp_path, {"scenario": {"name": "one_decision", "params": {"zeta": 1.0}}}
        )
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert "scenario.params" in err


class TestValidate:
    def test_prints_truth(self, capsys, tmp_path):
        path = _write_config(tmp_path, {"scenario": {"name": "two_decision"}})
        code, out, _ = _run(capsys, "validate", str(path))
        assert code == 0
        assert "config ok (scenario two_decision, seed 0)" in out
        assert "stage 2: [1.   0.25 0.5 ]" in out
        assert "derived stage-1 contrast coefficients" in out

    def test_checks_present_sections(self, capsys, tmp_path):
        path = _write_config(
            tmp_path,
            {"scenario": {"name": "one_decision"}, "study": {"n": 100}},
        )
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert "study.reps: required key is missing" in err


_SMALL_GRID = {"grid": {"lo": -0.2, "hi": 0.2, "step": 0.1}, "n_cal": 200}


def _params(name, **params):
    """A scenario section with parameter overrides."""
    return {"name": name, "params": params}


# (command, scenario, section, exit code, message): the command's section of
# a config that validate and the command must both accept or both reject.
# The scenario is a name or a whole scenario section.
# A valid stage of one_decision, and the start of the message that rejects
# its propensity: propensities are feature lists or probabilities in [0, 1].
_SPEC = {"h": ["1", "s1"], "c": ["1", "s1"]}
_PROP = "specs[0]: propensity must"

CONFIG_TABLE = [
    ("simulate", "one_decision", {"n": 0}, 2, "simulate.n"),
    ("fit", "one_decision", {"dataset": "d.csv", "estimator": "bogus"}, 2, "fit.estimator"),
    ("study", "one_decision", {"reps": 5, "estimators": ["bogus"]}, 2, "estimators"),
    ("study", "one_decision", {"reps": 5, "value_method": "nope"}, 2, "value_method"),
    ("study", "one_decision", {"reps": 5, "specs": [{"h": ["1"], "c": ["1"]}]}, 2, "contrast"),
    ("value", "two_decision", {"psi": "wrong"}, 2, "value.psi"),
    ("value", "two_decision", {"method": "magic"}, 2, "value.method"),
    ("value", "two_decision", {"method": "gcomp", "gcomp_draws": 0}, 2, "value.gcomp_draws"),
    ("calibrate", "one_decision", {**_SMALL_GRID, "check": {"pairs": "x"}}, 2, "check.pairs"),
    ("calibrate", "one_decision", {**_SMALL_GRID, "check": {"reps": 0}}, 2, "check.reps"),
    ("calibrate", "moodie", _SMALL_GRID, 2, "calibration supports"),
    ("simulate", "one_decision", {"n": 5}, 0, ""),
    ("study", "one_decision", {"n": 50, "reps": 3}, 0, ""),
    ("value", "two_decision", {"method": "gcomp", "gcomp_draws": 100}, 0, ""),
    ("simulate", _params("one_decision", psi="ab"), {"n": 5}, 2, "scenario.params: psi"),
    ("simulate", _params("one_decision", y_var="x"), {"n": 5}, 2, "scenario.params: y_var"),
    ("value", _params("one_decision", psi=[1.0]), {}, 2, "scenario.params: psi"),
    ("study", _params("two_decision", phi2=[0, 0.5, "x", -1, 0, 0]), {"reps": 3}, 2, "phi2"),
    ("simulate", _params("one_decision", y_var=-1), {"n": 5}, 2, "y_var must be positive"),
    ("simulate", _params("one_decision", psi=[math.nan, 1]), {"n": 5}, 2, "params: psi"),
    ("simulate", _params("one_decision", y_var=True), {"n": 5}, 2, "scenario.params: y_var"),
    ("calibrate", "one_decision", {**_SMALL_GRID, "check": {"pairs": ["x"]}}, 2, "pairs.0"),
    ("calibrate", "one_decision", {**_SMALL_GRID, "n_cal": 5}, 2, "calibrate.n_cal"),
    ("simulate", "one_decision", {"n": 5, "filename": 5}, 2, "simulate.filename"),
    ("value", "two_decision", {"output": 7}, 2, "value.output"),
    ("simulate", _params("moodie", s1_mean=450, psi1=[250, -1]), {"n": 5}, 0, ""),
    ("fit", "one_decision", {"dataset": "d.csv", "specs": [{"h": 5, "c": ["1"]}]}, 2, "]: h must"),
    ("study", "one_decision", {"reps": 3, "specs": [{"h": ["1"], "c": "1"}]}, 2, "]: c must"),
    ("study", "one_decision", {"reps": 3, "specs": [{"h": ["1"], "c": [1]}]}, 2, "]: c must"),
    ("study", "one_decision", {"reps": 3, "specs": [_SPEC | {"propensity": "x"}]}, 2, _PROP),
    ("study", "one_decision", {"reps": 3, "specs": [_SPEC | {"propensity": 2.0}]}, 2, _PROP),
    ("study", "one_decision", {"reps": 3, "specs": [_SPEC | {"propensity": True}]}, 2, _PROP),
    ("study", "one_decision", {"reps": 3, "specs": [_SPEC | {"propensity": 0.5}]}, 0, ""),
    ("calibrate", "one_decision", {"grid": {"step": 1e-300}}, 2, "calibrate.grid.step"),
    ("calibrate", "one_decision", {"grid": {"step": 5e-10}}, 2, "calibrate.grid.step"),
    ("calibrate", "two_decision", {**_SMALL_GRID, "check": {"n": 5}}, 2, "calibrate.check.n"),
]


@pytest.mark.parametrize("command,scenario,section,code,message", CONFIG_TABLE)
def test_validate_agrees_with_command(capsys, tmp_path, command, scenario, section, code, message):
    scenario = {"name": scenario} if isinstance(scenario, str) else scenario
    path = _write_config(tmp_path, {"scenario": scenario, command: section})
    out_dir = tmp_path / "out"
    got, _, err = _run(capsys, "validate", str(path), "--out-dir", str(out_dir))
    assert (got, message in err) == (code, True)
    got, _, err = _run(capsys, command, str(path), "--out-dir", str(out_dir))
    assert (got, message in err) == (code, True)
    if code == 2:
        assert not out_dir.exists()


class TestSimulate:
    def test_writes_deterministic_csv(self, capsys, tmp_path):
        body = {
            "seed": 33,
            "scenario": {"name": "one_decision"},
            "simulate": {"n": 25, "filename": "sim.csv"},
        }
        path = _write_config(tmp_path, body)
        code, out, _ = _run(capsys, "simulate", str(path), "--out-dir", str(tmp_path / "a"))
        assert code == 0
        assert "25 trajectories" in out
        code, _, _ = _run(capsys, "simulate", str(path), "--out-dir", str(tmp_path / "b"))
        assert code == 0
        a = (tmp_path / "a" / "sim.csv").read_text()
        b = (tmp_path / "b" / "sim.csv").read_text()
        assert a == b
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        first = a.splitlines()[0]
        assert first == f"# dtrkit {__version__} config_sha256={sha} seed=33"
        assert a.splitlines()[1] == "s1_1,a1,y"
        assert len(a.splitlines()) == 27

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        body = {
            "seed": 33,
            "scenario": {"name": "one_decision"},
            "simulate": {"n": 10, "filename": "sim.csv"},
        }
        path = _write_config(tmp_path, body)
        _run(capsys, "simulate", str(path), "--out-dir", str(tmp_path / "a"))
        _run(capsys, "simulate", str(path), "--seed", "44", "--out-dir", str(tmp_path / "b"))
        a = (tmp_path / "a" / "sim.csv").read_text().splitlines()
        b = (tmp_path / "b" / "sim.csv").read_text().splitlines()
        assert "seed=44" in b[0]
        assert a[2:] != b[2:]

    def test_missing_n(self, capsys, tmp_path):
        path = _write_config(
            tmp_path, {"scenario": {"name": "one_decision"}, "simulate": {}}
        )
        code, _, err = _run(capsys, "simulate", str(path))
        assert code == 2
        assert "simulate.n" in err


class TestFit:
    def _simulate(self, capsys, tmp_path, n=400, scenario="one_decision"):
        body = {
            "seed": 12,
            "scenario": {"name": scenario},
            "simulate": {"n": n, "filename": "data.csv"},
        }
        path = _write_config(tmp_path, body, name="sim_config.json")
        code, _, _ = _run(capsys, "simulate", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        return tmp_path / "data.csv"

    def test_fit_both_estimators(self, capsys, tmp_path):
        data = self._simulate(capsys, tmp_path)
        body = {
            "seed": 12,
            "scenario": {"name": "one_decision"},
            "fit": {"dataset": str(data), "output": "fit"},
        }
        path = _write_config(tmp_path, body)
        code, out, _ = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["provenance"]["tool"] == "dtrkit"
        assert payload["provenance"]["version"] == __version__
        assert payload["n"] == 400
        assert set(payload["estimates"]) == {"qlearn", "alearn"}
        qstage = payload["estimates"]["qlearn"][0]
        assert len(qstage["psi"]) == 2 and len(qstage["psi_se"]) == 2
        astage = payload["estimates"]["alearn"][0]
        assert "phi" in astage and "moment_inf_norm" in astage
        assert astage["moment_inf_norm"] < 1e-6
        resid = (tmp_path / "fit_residuals.csv").read_text().splitlines()
        assert resid[1] == "estimator,stage,row,residual"
        assert len(resid) == 2 + 2 * 400

    def test_fit_singular_dataset_exits_3(self, capsys, tmp_path):
        rows = ["s1_1,a1,y"] + [f"{0.1 * i!r},0,{1.0 + 0.1 * i!r}" for i in range(10)]
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(rows) + "\n")
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {"dataset": str(data), "estimator": "qlearn"},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert "error" in err

    def test_fit_unsolved_moment_equations_exit_3(self, capsys, tmp_path, monkeypatch):
        data = self._simulate(capsys, tmp_path, n=100)
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {"dataset": str(data), "estimator": "alearn"},
        }
        path = _write_config(tmp_path, body)
        monkeypatch.setattr(alearn, "MOMENT_TOL", 0.0)
        code, _, err = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert "estimating equations not solved" in err

    def test_fit_intercept_only_specs(self, capsys, tmp_path):
        data = self._simulate(capsys, tmp_path, n=100)
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {
                "dataset": str(data),
                "specs": [{"h": ["1"], "c": ["1"], "propensity": ["1"]}],
            },
        }
        path = _write_config(tmp_path, body)
        code, _, _ = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        for est in ("qlearn", "alearn"):
            assert len(payload["estimates"][est][0]["psi"]) == 1
            assert len(payload["estimates"][est][0]["beta"]) == 1
        assert len(payload["estimates"]["alearn"][0]["phi"]) == 1

    def test_fit_alearn_fewer_rows_than_parameters_exits_3(self, capsys, tmp_path):
        data = self._simulate(capsys, tmp_path, n=4)
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {
                "dataset": str(data),
                "estimator": "alearn",
                "specs": [{"h": ["1", "s1", "s1^2"], "c": ["1", "s1"], "propensity": 0.5}],
            },
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert "singular" in err

    def test_fit_bad_estimator(self, capsys, tmp_path):
        data = self._simulate(capsys, tmp_path, n=50)
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {"dataset": str(data), "estimator": "zlearn"},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "fit.estimator" in err

    def test_fit_custom_specs(self, capsys, tmp_path):
        data = self._simulate(capsys, tmp_path, n=300)
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {
                "dataset": str(data),
                "estimator": "qlearn",
                "specs": [{"h": ["1", "s1", "s1^2"], "c": ["1", "s1"]}],
            },
        }
        path = _write_config(tmp_path, body)
        code, _, _ = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert len(payload["estimates"]["qlearn"][0]["beta"]) == 3

    def test_fit_bad_spec_feature(self, capsys, tmp_path):
        data = self._simulate(capsys, tmp_path, n=50)
        body = {
            "scenario": {"name": "one_decision"},
            "fit": {
                "dataset": str(data),
                "specs": [{"h": ["1", "s1**"], "c": ["1"]}],
            },
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "fit", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "fit.specs[0]" in err


class TestValue:
    def test_true_regime_moodie(self, capsys, tmp_path):
        body = {
            "scenario": {"name": "moodie"},
            "value": {"psi": "true", "output": "v.json"},
        }
        path = _write_config(tmp_path, body)
        code, out, _ = _run(capsys, "value", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "v.json").read_text())
        assert payload["value"] == pytest.approx(1120.0, abs=1e-9)
        assert payload["se"] is None
        assert "H = 1120" in out

    def test_explicit_psi_analytic_vs_gcomp(self, capsys, tmp_path):
        psi = [[1.0, 0.4]]
        body_a = {
            "scenario": {"name": "one_decision"},
            "value": {"psi": psi, "output": "a.json"},
        }
        body_g = {
            "seed": 8,
            "scenario": {"name": "one_decision"},
            "value": {"psi": psi, "method": "gcomp", "gcomp_draws": 200000, "output": "g.json"},
        }
        pa = _write_config(tmp_path, body_a, name="a.json.cfg")
        pg = _write_config(tmp_path, body_g, name="g.json.cfg")
        assert _run(capsys, "value", str(pa), "--out-dir", str(tmp_path))[0] == 0
        assert _run(capsys, "value", str(pg), "--out-dir", str(tmp_path))[0] == 0
        va = json.loads((tmp_path / "a.json").read_text())
        vg = json.loads((tmp_path / "g.json").read_text())
        assert vg["se"] > 0
        assert abs(va["value"] - vg["value"]) < 4.0 * vg["se"]

    def test_psi_length_checked(self, capsys, tmp_path):
        body = {
            "scenario": {"name": "one_decision"},
            "value": {"psi": [[1.0, 0.4, 0.2]]},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "value", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "per-stage lengths" in err

    def test_bad_method(self, capsys, tmp_path):
        body = {
            "scenario": {"name": "one_decision"},
            "value": {"psi": "true", "method": "dream"},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "value", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "value.method" in err


class TestStudy:
    def test_small_study_artifacts(self, capsys, tmp_path):
        body = {
            "seed": 21,
            "scenario": {"name": "one_decision"},
            "study": {"n": 80, "reps": 30, "output": "study"},
        }
        path = _write_config(tmp_path, body)
        code, out, _ = _run(capsys, "study", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "study.json").read_text())
        assert payload["reps"] == 30
        assert payload["psi_labels"] == ["psi1_0", "psi1_1"]
        assert payload["h_opt"] == pytest.approx(2.0042453513084148)
        for est in ("qlearn", "alearn"):
            assert len(payload["summaries"][est]["mean_psi"]) == 2
            assert payload["R_median"][est] == payload["summaries"][est]["R_median"]
        assert len(payload["mse_ratio"]) == 2
        assert "1" in payload["propensity_sd"]
        assert "1" in payload["propensity_sd_se"]
        lines = (tmp_path / "study_reps.csv").read_text().splitlines()
        assert lines[1].split(",")[:3] == ["rep", "qlearn_failed", "qlearn_psi1_0"]
        assert len(lines) == 2 + 30

    def test_study_failed_rows_blank_in_csv(self, capsys, tmp_path):
        # n=14 at seed 5 lands in the warn band with a handful of failures
        body = {
            "seed": 5,
            "scenario": {"name": "one_decision"},
            "study": {"n": 14, "reps": 200, "output": "study"},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "study", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        assert "replications failed" in err
        payload = json.loads((tmp_path / "study.json").read_text())
        assert payload["high_failure_warning"] is True
        assert payload["n_failed"] > 2
        lines = (tmp_path / "study_reps.csv").read_text().splitlines()
        # column order: rep, qlearn_failed, 2x psi, value, alearn_failed, ...
        saw_failure = False
        for line in lines[2:]:
            parts = line.split(",")
            for flag, block in ((parts[1], parts[2:5]), (parts[5], parts[6:9])):
                if flag == "1":
                    saw_failure = True
                    assert block == ["", "", ""]
                else:
                    assert all(p != "" for p in block)
        assert saw_failure

    def test_study_intercept_only_propensity(self, capsys, tmp_path):
        body = {
            "seed": 21,
            "scenario": {"name": "one_decision"},
            "study": {
                "n": 80,
                "reps": 10,
                "specs": [{"h": ["1"], "c": ["1", "s1"], "propensity": ["1"]}],
            },
        }
        path = _write_config(tmp_path, body)
        code, _, _ = _run(capsys, "study", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "study.json").read_text())
        assert payload["n_failed"] == 0

    def test_study_missing_reps(self, capsys, tmp_path):
        body = {"scenario": {"name": "one_decision"}, "study": {"n": 50}}
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "study", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "study.reps" in err

    def test_study_error_exit_3(self, capsys, tmp_path):
        body = {
            "seed": 5,
            "scenario": {"name": "one_decision"},
            "study": {"n": 10, "reps": 200},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "study", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert "refusing to summarize" in err


class TestCalibrate:
    def test_small_calibration_artifacts(self, capsys, tmp_path, fit_gates):
        fit_gates(adj_r2_target=0.5, max_rel_dev=0.05)
        body = {
            "seed": 42,
            "scenario": {"name": "one_decision"},
            "calibrate": {
                "grid": {"lo": -0.2, "hi": 0.2, "step": 0.1},
                "n_cal": 2000,
                "check": {"n": 400, "reps": 40, "pairs": [0.1]},
                "output": "cal",
            },
        }
        path = _write_config(tmp_path, body)
        code, _, _ = _run(capsys, "calibrate", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "cal.json").read_text())
        assert payload["grid"] == {"lo": -0.2, "hi": 0.2, "step": 0.1}
        assert len(payload["pairs"]) == 5
        assert payload["pairs"][2] == [0.0, 0.0]
        assert payload["adj_r2"] > 0.5
        assert payload["fit_max_rel_dev"] <= 0.05
        (check,) = payload["tstat_checks"]
        assert check["phi"] == 0.1
        assert check["relative_difference"] < 0.5
        lines = (tmp_path / "cal_pairs.csv").read_text().splitlines()
        assert lines[1] == "phi,beta,se_ratio"
        assert len(lines) == 2 + 5

    def test_scenario_params_reach_every_cell(self, capsys, tmp_path, fit_gates):
        # The outcome noise variance scales SE(outcome quadratic) by
        # sqrt(y_var / 9) in every cell, so each SE ratio by 3/10 at
        # y_var = 100; restating the default y_var changes nothing.
        fit_gates(adj_r2_target=0.01, max_rel_dev=0.1)
        def pairs(params, name):
            scenario = {"name": "one_decision"}
            if params is not None:
                scenario["params"] = params
            body = {
                "seed": 42,
                "scenario": scenario,
                "calibrate": {
                    "grid": {"lo": -0.2, "hi": 0.2, "step": 0.1},
                    "n_cal": 500,
                    "output": name,
                },
            }
            path = _write_config(tmp_path, body, name=f"{name}.json")
            code, _, _ = _run(capsys, "calibrate", str(path), "--out-dir", str(tmp_path))
            assert code == 0
            # drop the provenance line, which hashes the config
            return (tmp_path / f"{name}_pairs.csv").read_text().splitlines()[1:]

        default = pairs(None, "default")
        assert len(default) == 1 + 5
        assert pairs({"y_var": 9.0}, "restated") == default
        noisy = pairs({"y_var": 100.0}, "noisy")
        assert noisy != default
        def se_ratios(lines):
            return [float(line.split(",")[2]) for line in lines[1:]]

        np.testing.assert_allclose(
            se_ratios(noisy), 0.3 * np.asarray(se_ratios(default)), rtol=1e-9
        )

    def test_csv_cells_are_plain_numbers(self, capsys, tmp_path, fit_gates):
        # Numpy scalars must be written as numbers, not as their repr
        # ("np.float64(...)" under numpy 2), in both numeric CSV writers.
        fit_gates(adj_r2_target=0.01, max_rel_dev=0.1)
        body = {
            "seed": 42,
            "scenario": {"name": "one_decision"},
            "simulate": {"n": 60, "filename": "data.csv"},
            "fit": {"dataset": str(tmp_path / "data.csv")},
            "calibrate": {"grid": {"lo": -0.2, "hi": 0.2, "step": 0.1}, "n_cal": 500},
        }
        path = _write_config(tmp_path, body)
        for command in ("simulate", "fit", "calibrate"):
            code, _, _ = _run(capsys, command, str(path), "--out-dir", str(tmp_path))
            assert code == 0
        for name, skip in (("fit_residuals.csv", 1), ("calibration_pairs.csv", 0)):
            rows = (tmp_path / name).read_text().splitlines()[2:]
            assert rows
            for row in rows:
                for cell in row.split(",")[skip:]:
                    float(cell)

    def test_step_validation_message(self, capsys, tmp_path):
        body = {
            "scenario": {"name": "one_decision"},
            "calibrate": {"grid": {"step": 0}},
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "calibrate", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "grid.step must be > 0" in err

    def test_unattainable_fit_exits_3(self, capsys, tmp_path, fit_gates):
        fit_gates(adj_r2_target=0.999999, max_rel_dev=1e-9, poly_max_degree=1)
        body = {
            "seed": 4,
            "scenario": {"name": "one_decision"},
            "calibrate": {
                "grid": {"lo": -0.2, "hi": 0.2, "step": 0.1},
                "n_cal": 1500,
            },
        }
        path = _write_config(tmp_path, body)
        code, _, err = _run(capsys, "calibrate", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert "no polynomial" in err


def _subprocess_env():
    """Environment whose ``PYTHONPATH`` puts the imported ``dtrkit`` first.

    A child process then runs the same code as the in-process tests, from
    any working directory.
    """
    env = dict(os.environ)
    src = str(Path(dtrkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestConsoleScript:
    def test_version_and_simulate(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "dtrkit", "--version"],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        assert out.stdout.strip() == f"dtrkit {__version__}"
        body = {
            "seed": 3,
            "scenario": {"name": "moodie"},
            "simulate": {"n": 12, "filename": "m.csv"},
        }
        path = _write_config(tmp_path, body)
        run = subprocess.run(
            [sys.executable, "-m", "dtrkit", "simulate", str(path), "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert run.returncode == 0
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[1] == "s1_1,a1,s2_1,a2,y"
        assert len(lines) == 14

    def test_module_passes_config_error_exit_code(self, tmp_path):
        run = subprocess.run(
            [sys.executable, "-m", "dtrkit", "validate", str(tmp_path / "nope.json")],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert run.returncode == 2
        assert "cannot read config file" in run.stderr

    def test_import_loads_neither_linalg_nor_process_pool(self):
        # No scipy module at all: commands that need none start without it.
        code = (
            "import sys, dtrkit.cli; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        assert out.stdout.strip() == "[]"

    def test_study_loads_scipy_before_its_pool_starts(self):
        # Workers forked from a process that holds scipy need not import it
        # each; moodie loads nothing of scipy until its closed-form value.
        code = (
            "import sys, concurrent.futures as cf\n"
            "from dtrkit.evaluate import StudyConfig, run_mc_study\n"
            "class Pool:\n"
            "    def __init__(self, max_workers):\n"
            "        print('scipy.special' in sys.modules)\n"
            "    def __enter__(self):\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        return False\n"
            "    map = staticmethod(map)\n"
            "cf.ProcessPoolExecutor = Pool\n"
            "print('scipy.special' in sys.modules)\n"
            "run_mc_study(StudyConfig('moodie', n=100, reps=2, threads=2))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        assert out.stdout.split() == ["False", "True"]

    def test_project_scripts_target(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["dtrkit"] == "dtrkit.cli:main"
        module_name, attr = scripts["dtrkit"].split(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is importlib.import_module("dtrkit.__main__").main

    @pytest.mark.skipif(
        shutil.which("dtrkit") is None,
        reason="the dtrkit console script is not on PATH (package not installed)",
    )
    def test_installed_executable_version(self):
        out = subprocess.run(
            ["dtrkit", "--version"],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        assert out.stdout.strip() == f"dtrkit {__version__}"
