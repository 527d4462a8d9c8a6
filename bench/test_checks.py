"""Every benchmark check passes on real artifacts and fails on perturbed ones.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from dtrkit import cli  # noqa: E402
from dtrkit.calibrate import calibrate_equiv_misspec, check_tstat_balance  # noqa: E402
from dtrkit.scenarios import scenario_params  # noqa: E402

SEEDS = (7, 20261018)


def bump(x: float, digit: int) -> float:
    """``x`` with its ``digit``-th significant digit moved by one."""
    return x + 10.0 ** (math.floor(math.log10(abs(x))) - digit + 1)


def run_study(tmp: Path, scenario: str, n: int, reps: int, seed: int, value_method: str,
              threads: int = 1) -> checks.StudyRun:
    out_dir = tmp / f"{scenario}_{seed}_{threads}"
    out_dir.mkdir()
    config = out_dir / "config.json"
    config.write_text(json.dumps({
        "version": 1, "seed": seed, "scenario": {"name": scenario},
        "study": {"n": n, "reps": reps, "value_method": value_method, "gcomp_draws": 10000},
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["study", str(config), "--out-dir", str(out_dir),
                       "--threads", str(threads)])
    assert rc == 0
    return checks.StudyRun(scenario, n, reps, seed, value_method, 10000, out_dir)


@pytest.fixture(scope="module", params=SEEDS)
def seed(request):
    return request.param


@pytest.fixture(scope="module", params=[("two_decision", 200, "analytic"),
                                        ("moodie", 1000, "gcomp")])
def study(request, seed, tmp_path_factory):
    scenario, n, value_method = request.param
    run = run_study(tmp_path_factory.mktemp("study"), scenario, n, 12, seed, value_method)
    summary, rows = checks.read_study(run.out_dir)
    return run, summary, rows, scenario_params(scenario)


@pytest.fixture(scope="module")
def calibration(seed):
    result = calibrate_equiv_misspec("two_decision", -1.0, 1.0, 0.125, master_seed=seed)
    beta = float(result.beta_for(1.0))
    rel = check_tstat_balance((1.0, beta), "two_decision", 10000, 40, master_seed=seed + 1)
    return result, [(1.0, beta, rel, 0.05)]


SAMPLE = (0, 1, 6, 11)


def problems(study, summary=None, rows=None):
    run, clean_summary, clean_rows, params = study
    return checks.study_problems(summary or clean_summary, rows or clean_rows, run, params,
                                 SAMPLE)


def largest(row, est, stage, labels):
    names = [f"{est}_{label}" for label in labels if label.startswith(f"psi{stage}_")]
    return max(names, key=lambda name: abs(row[name]))


def test_clean_study_passes(study):
    assert problems(study) == []


def test_qlearn_psi_in_8th_digit_fails(study):
    run, summary, rows, _ = study
    rows = copy.deepcopy(rows)
    name = largest(rows[1], "qlearn", 2, summary["psi_labels"])
    rows[1][name] = bump(rows[1][name], 8)
    assert any("qlearn stage 2" in p for p in problems(study, rows=rows))


def test_alearn_psi_in_6th_digit_fails(study):
    run, summary, rows, _ = study
    rows = copy.deepcopy(rows)
    name = largest(rows[0], "alearn", 1, summary["psi_labels"])
    rows[0][name] = bump(rows[0][name], 6)
    assert any("alearn stage 1" in p for p in problems(study, rows=rows))


def test_swapped_rows_fail(study):
    _, _, rows, _ = study
    swapped = copy.deepcopy(rows)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert problems(study, rows=swapped)
    # The same swap with the rep column left in place is caught by the
    # recomputation of the sampled replications.
    relabelled = copy.deepcopy(swapped)
    relabelled[0]["rep"], relabelled[1]["rep"] = 0.0, 1.0
    assert any(p.startswith("rep 0") for p in problems(study, rows=relabelled))


def test_value_above_h_opt_fails(study):
    run, summary, rows, params = study
    rows = copy.deepcopy(rows)
    slack = (checks.gcomp_slack(run.scenario, params, run.gcomp_draws)
             if run.value_method == "gcomp" else 0.0)
    rows[3]["alearn_value"] = summary["h_opt"] + slack + 1e-9 * abs(summary["h_opt"])
    assert any("above h_opt" in p for p in problems(study, rows=rows))


def test_wrong_truth_fails(study):
    _, summary, _, _ = study
    summary = dict(summary, h_opt=bump(summary["h_opt"], 8))
    assert any("h_opt" in p for p in problems(study, summary=summary))


def test_wrong_value_of_sampled_rep_fails(study):
    run, summary, rows, _ = study
    rows = copy.deepcopy(rows)
    rows[6]["qlearn_value"] = bump(rows[6]["qlearn_value"], 8)
    assert any(p.startswith("rep 6 qlearn") for p in problems(study, rows=rows))


def test_calibration_passes_and_off_balance_pair_fails(calibration, seed):
    result, pair_checks = calibration
    base = scenario_params("two_decision")
    assert checks.calibration_problems(result, pair_checks, base, seed % len(result.grid)) == []
    phi, beta, _, limit = pair_checks[0]
    off = checks.calibration_problems(result, [(phi, beta, 0.06, limit)], base)
    assert any("imbalance" in p for p in off)


def test_calibration_cell_and_pairs_fail(calibration, seed):
    result, pair_checks = calibration
    base = scenario_params("two_decision")
    row = seed % len(result.grid)
    bad = copy.deepcopy(result)
    bad.cell_ratio[row, 2] = bump(bad.cell_ratio[row, 2], 5)
    bad.ratio_per_phi = bad.cell_ratio.mean(axis=1)
    assert any(f"phi row {row}" in p for p in checks.calibration_problems(bad, [], base, row))
    bad = copy.deepcopy(result)
    bad.pairs[4, 1] = bump(bad.pairs[4, 1], 8)
    assert checks.calibration_problems(bad, [], base)


def test_pool_prefix(seed, tmp_path):
    serial = run_study(tmp_path, "two_decision", 200, 16, seed, "analytic")
    pooled = run_study(tmp_path, "two_decision", 200, 8, seed, "analytic", threads=2)
    _, serial_rows = checks.read_study(serial.out_dir)
    _, pooled_rows = checks.read_study(pooled.out_dir)
    assert checks.pool_prefix_problems(pooled_rows, serial_rows) == []
    pooled_rows[5]["qlearn_psi2_1"] = bump(pooled_rows[5]["qlearn_psi2_1"], 15)
    assert checks.pool_prefix_problems(pooled_rows, serial_rows)


def test_bump_moves_the_requested_digit():
    assert bump(1.2345678, 8) == pytest.approx(1.2345679, abs=1e-15)
    assert np.isclose(bump(-0.004567, 2), -0.004467)
