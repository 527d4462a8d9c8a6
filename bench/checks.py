"""Correctness checks on what a benchmark run produced.

Each check takes parsed artifacts and returns a list of problems, empty when
the artifacts are right.  The reference values come from ``reference``,
which does not call dtrkit.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference as ref

# Relative agreement with the recomputation, scaled by the largest |psi| of
# the stage.  Q-learning agrees to about 1e-12.  A-learning agrees to about
# 1e-8 only, because dtrkit's IRLS can stop with a score norm near 1e-6
# (see CHANGES.md), so its tolerance is 1e-6.
QLEARN_RTOL = 1e-10
ALEARN_RTOL = 1e-6
VALUE_RTOL = 1e-9
# A g-computation value may exceed h_opt by Monte Carlo noise; allow this
# many standard errors of the optimal regime's value.
GCOMP_Z = 6.0
CELL_RTOL = 1e-6
MAX_REL_DEV = 0.02  # calibrate_equiv_misspec's pointwise gate


@dataclass(frozen=True)
class StudyRun:
    """What one ``dtrkit study`` call was asked to do."""

    scenario: str
    n: int
    reps: int
    seed: int
    value_method: str
    gcomp_draws: int
    out_dir: Path


def read_study(out_dir: Path):
    """``(summary, rows)``: study.json and the rows of study_reps.csv, with
    numbers parsed as floats (empty cells as None)."""
    summary = json.loads((out_dir / "study.json").read_text())
    with open(out_dir / "study_reps.csv") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = [
        {key: (float(value) if value != "" else None) for key, value in row.items()}
        for row in csv.DictReader(lines)
    ]
    return summary, rows


def failed_ops(summary) -> int:
    """Failed replication fits: replications minus included ones, summed
    over estimators."""
    return sum(summary["reps"] - s["n_included"] for s in summary["summaries"].values())


def _stage_slices(labels):
    stages = [int(re.match(r"psi(\d+)_\d+$", label).group(1)) for label in labels]
    return [
        [i for i, s in enumerate(stages) if s == k] for k in sorted(set(stages))
    ]


def _close(a, b, rtol, scale=None) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = np.max(np.abs(b)) if scale is None else scale
    return bool(np.all(np.abs(a - b) <= rtol * max(scale, 1e-300)))


def true_psi(scenario: str, params) -> list:
    if scenario == "two_decision":
        return [ref.two_decision_stage1_truth(params), np.asarray(params.psi2, float)]
    return [np.asarray(params.psi1, float), np.asarray(params.psi2, float)]


def gcomp_slack(scenario: str, params, draws: int) -> float:
    """GCOMP_Z standard errors of the g-computation value of the optimal
    regime.  In moodie that regime's outcome mean is
    yopt_intercept + yopt_slope * s1, whose SD is yopt_slope * s1_sd."""
    if scenario != "moodie":
        raise ValueError("g-computation checks are defined for moodie")
    return GCOMP_Z * abs(params.yopt_slope) * params.s1_sd / np.sqrt(draws)


def study_problems(summary, rows, run: StudyRun, params, sample) -> list:
    """Truth, value bound, and independent recomputation of the sampled
    replications."""
    problems = []
    truth = true_psi(run.scenario, params)
    h_ref = ref.value(run.scenario, params, *truth)
    if not _close(summary["h_opt"], h_ref, VALUE_RTOL):
        problems.append(f"h_opt {summary['h_opt']!r} differs from quadrature {h_ref!r}")
    if not _close(summary["psi_true"], np.concatenate(truth), VALUE_RTOL):
        problems.append(f"psi_true {summary['psi_true']} differs from {np.concatenate(truth)}")
    if [row["rep"] for row in rows] != list(range(run.reps)):
        problems.append("study_reps.csv rows are not replications 0..reps-1 in order")
        return problems

    labels = summary["psi_labels"]
    estimators = summary["estimators"]
    h_opt = summary["h_opt"]
    if run.value_method == "gcomp":
        slack = gcomp_slack(run.scenario, params, run.gcomp_draws)
    else:
        slack = 1e-12 * abs(h_opt)
    for est in estimators:
        above = [
            int(row["rep"]) for row in rows
            if not row[f"{est}_failed"] and row[f"{est}_value"] > h_opt + slack
        ]
        if above:
            problems.append(f"{est}: H(d-hat) above h_opt + {slack:.3g} at reps {above[:5]}")

    fits = {"qlearn": (ref.qlearn, QLEARN_RTOL), "alearn": (ref.alearn, ALEARN_RTOL)}
    for r in sample:
        row = rows[r]
        data = ref.generate(run.scenario, params, run.n, run.seed, r)
        for est in estimators:
            if row[f"{est}_failed"]:
                continue
            fit, rtol = fits[est]
            psi_ref = fit(data, run.scenario)
            psi_row = [np.array([row[f"{est}_{labels[i]}"] for i in idx])
                       for idx in _stage_slices(labels)]
            for k, (mine, theirs) in enumerate(zip(psi_ref, psi_row), start=1):
                if not _close(theirs, mine, rtol):
                    problems.append(
                        f"rep {r} {est} stage {k}: psi {theirs.tolist()} != "
                        f"recomputed {mine.tolist()}"
                    )
            value = row[f"{est}_value"]
            quad = ref.value(run.scenario, params, *psi_row)
            if run.value_method == "gcomp":
                resim, se = ref.gcomp_moodie(params, *psi_row, run.gcomp_draws, run.seed, r)
                if not _close(value, resim, 1e-12):
                    problems.append(f"rep {r} {est}: g-computation {value!r} != {resim!r}")
                if abs(value - quad) > 5.0 * se:
                    problems.append(
                        f"rep {r} {est}: g-computation {value!r} is more than 5 SE "
                        f"({se:.3g}) from quadrature {quad!r}"
                    )
            elif not _close(value, quad, VALUE_RTOL):
                problems.append(f"rep {r} {est}: value {value!r} != quadrature {quad!r}")
    return problems


def pool_prefix_problems(pooled_rows, serial_rows) -> list:
    """Rows of a pooled study must equal the first rows of a serial study
    with the same seed, bit for bit."""
    return [
        f"rep {int(pooled['rep'])}: pooled row differs from the serial one"
        for pooled, serial in zip(pooled_rows, serial_rows) if pooled != serial
    ]


def calibration_params(base, phi_q: float, beta_q: float):
    """two_decision parameters with the stage-2 quadratic coefficients set."""
    return replace(base, beta2=tuple(base.beta2[:5]) + (beta_q,),
                   phi2=tuple(base.phi2[:5]) + (phi_q,))


def calibration_problems(result, checks, base_params, sample_row=None) -> list:
    """Gates and pairs of a calibration, its t-balance checks
    ``(phi, beta, relative difference, limit)``, and an independent
    recomputation of the cells of phi row ``sample_row``."""
    problems = []
    grid = np.asarray(result.grid, float)
    fitted = np.polyval(result.poly_coeffs, grid)
    pairs = np.asarray(result.pairs, float)
    if not np.array_equal(pairs[:, 0], grid) or not _close(pairs[:, 1], grid / fitted, 1e-12):
        problems.append("pairs are not (phi, phi / f(phi)) on the grid")
    if not _close(result.ratio_per_phi, np.mean(result.cell_ratio, axis=1), 1e-12):
        problems.append("ratio_per_phi is not the mean of the cell ratios")
    dev = float(np.max(np.abs(fitted / result.ratio_per_phi - 1.0)))
    if dev > MAX_REL_DEV + 1e-12:
        problems.append(f"fitted curve deviates {dev:.4f} from the grid means")
    for phi, beta, rel, limit in checks:
        if not _close(beta, phi / np.polyval(result.poly_coeffs, phi), 1e-12):
            problems.append(f"check pair ({phi}, {beta}) is not on the calibrated curve")
        if not 0.0 <= rel < limit:
            problems.append(f"pair ({phi:+.3f}, {beta:+.4f}): |t| imbalance {rel:.4f}")
    if sample_row is None:
        return problems
    m = grid.size
    row = [
        ref.calibration_cell_ratio(
            calibration_params(base_params, grid[sample_row], grid[j]),
            result.n_cal, result.master_seed, sample_row * m + j,
        )
        for j in range(m)
    ]
    if not _close(result.cell_ratio[sample_row], row, CELL_RTOL):
        problems.append(
            f"phi row {sample_row}: SE ratios {list(result.cell_ratio[sample_row])} != "
            f"recomputed {row}"
        )
    return problems
