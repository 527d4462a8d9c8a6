"""Calibrating comparable misspecification levels across model types.

A quadratic coefficient added to the outcome model and one added to the
propensity model are not on a common scale: the same numeric value can be a
negligible outcome perturbation but a drastic propensity perturbation.  The
calibration here equates them by statistical detectability.  Over a grid of
(outcome, propensity) quadratic coefficients it fits the fully specified
models (quadratic terms included, so both coefficients have standard
errors) to large generated datasets and records the ratio

    f = SE(quadratic propensity coefficient) / SE(quadratic outcome coefficient).

The ratio depends only on the propensity coefficient (the outcome
coefficient moves neither design), so cells are averaged per propensity
value, a low-degree polynomial is fit to the averaged curve, and each
propensity coefficient value phi is paired with the outcome coefficient

    beta(phi) = phi / f(phi),

which gives the two coefficients equal Wald t-statistics in expectation.
``check_tstat_balance`` verifies a pair empirically: the mean absolute
t-statistics of the two fitted quadratic coefficients should differ by only
a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, InvalidParameterError
from .numerics import logistic_fit, wls_fit
from .rng import make_stream
from .scenarios import scenario_names, scenario_registry

__all__ = ["CalibrationResult", "calibrate_equiv_misspec", "check_tstat_balance"]


def _calibration_setup(scenario: str):
    """Registry entry and fully specified last stage of a scenario whose
    quadratic coefficients calibration can move."""
    supported = [name for name in scenario_names() if scenario_registry(name).calibration]
    if scenario not in supported:
        raise InvalidParameterError(f"calibration supports {supported}, got {scenario!r}")
    definition = scenario_registry(scenario)
    return definition, definition.full_specs()[-1]


def _cell_ses(definition, spec, beta_q: float, phi_q: float, n: int, stream):
    """``(beta_hat, se_beta, phi_hat, se_phi)`` of the two quadratic
    coefficients, the last h and propensity features, from the fully
    specified fits to one dataset generated with them set to ``beta_q`` and
    ``phi_q``."""
    params = definition.params_cls()
    params = replace(
        params,
        **{
            field: getattr(params, field)[:-1] + (value,)
            for field, value in zip(definition.calibration, (beta_q, phi_q))
        },
    )
    dataset = definition.generate(params, n, stream)
    stage = definition.n_stages
    h = spec.h_features.evaluate(dataset)
    c = spec.c_features.evaluate(dataset)
    a = dataset.action_col(stage).astype(float)
    design = np.hstack([h, a[:, None] * c])
    out_fit = wls_fit(design, dataset.y)
    prop_design = spec.propensity.features.evaluate(dataset)
    prop_fit = logistic_fit(prop_design, dataset.action_col(stage))
    q = h.shape[1] - 1
    return (
        out_fit.coefficients[q],
        float(np.sqrt(out_fit.covariance[q, q])),
        prop_fit.coefficients[-1],
        float(np.sqrt(prop_fit.covariance[-1, -1])),
    )


@dataclass
class CalibrationResult:
    """Grid, fitted ratio curve, and the emitted coefficient pairs."""

    scenario: str
    grid: np.ndarray
    cell_ratio: np.ndarray  # (n_phi, n_beta): SE(phi) / SE(beta) per cell
    ratio_per_phi: np.ndarray
    poly_coeffs: np.ndarray  # highest degree first
    poly_degree: int
    adj_r2: float
    fit_max_rel_dev: float
    pairs: np.ndarray  # rows (phi, beta)
    n_cal: int
    master_seed: int

    def ratio_at(self, phi) -> np.ndarray:
        return np.polyval(self.poly_coeffs, phi)

    def beta_for(self, phi) -> np.ndarray:
        """Outcome quadratic coefficient matched to propensity quadratic
        coefficient ``phi``."""
        return np.asarray(phi, dtype=float) / self.ratio_at(phi)


def _fit_poly(x: np.ndarray, y: np.ndarray, max_degree: int, target: float, max_rel_dev: float):
    """Lowest-degree polynomial meeting both fit gates.

    Adjusted R^2 alone is a poor gate here: the ratio curve spans a wide
    range, so a fit can leave localized relative errors of several percent
    (which feed straight into the t-statistic imbalance of the emitted
    pairs) while still explaining >99% of the global variance.  The
    pointwise gate bounds that error directly.
    """
    m = x.size
    sst = float(((y - y.mean()) ** 2).sum())
    best = (None, -np.inf, np.inf, 0)
    for degree in range(0, max_degree + 1):
        if m - degree - 1 < 1:
            break
        coeffs = np.polyfit(x, y, degree)
        fitted = np.polyval(coeffs, x)
        sse = float(((y - fitted) ** 2).sum())
        r2 = 1.0 - sse / sst if sst > 0.0 else 1.0
        adj = 1.0 - (1.0 - r2) * (m - 1) / (m - degree - 1)
        rel = float(np.abs(fitted / y - 1.0).max())
        if adj >= target and rel <= max_rel_dev:
            return coeffs, adj, degree, rel
        if rel < best[2]:
            best = (coeffs, adj, rel, degree)
    raise CalibrationError(
        f"no polynomial of degree <= {max_degree} reached adjusted R^2 "
        f">= {target} with max relative deviation <= {max_rel_dev} "
        f"(best deviation {best[2]:.4f} with adjusted R^2 {best[1]:.4f} "
        f"at degree {best[3]})",
        best_adj_r2=best[1],
    )


def calibrate_equiv_misspec(
    scenario: str,
    grid_lo: float = -1.0,
    grid_hi: float = 1.0,
    step: float = 0.05,
    n_cal: int = 10000,
    poly_max_degree: int = 20,
    adj_r2_target: float = 0.99,
    max_rel_dev: float = 0.02,
    master_seed: int = 0,
) -> CalibrationResult:
    """Pair outcome and propensity quadratic coefficients of equal
    detectability.

    Runs one generated dataset of ``n_cal`` trajectories per grid cell
    (stream id = cell index), averages the SE ratio over the outcome-
    coefficient axis, fits the lowest-degree polynomial reaching the
    adjusted R^2 target with pointwise relative deviation at most
    ``max_rel_dev``, and emits one (phi, beta) pair per grid value.
    The relative-deviation gate matters: the two-decision ratio curve has
    a genuine low-amplitude wobble near zero that a low-degree fit smooths
    over, and any relative error in the fitted curve reappears one-for-one
    as t-statistic imbalance in the emitted pairs.

    Raises ``CalibrationError`` if no degree up to ``poly_max_degree``
    meets both gates; the error reports the best fit achieved.
    """
    definition, spec = _calibration_setup(scenario)
    if step <= 0.0:
        raise InvalidParameterError("grid.step must be > 0")
    if grid_hi <= grid_lo:
        raise InvalidParameterError("grid.hi must exceed grid.lo")
    if n_cal < 10:
        raise InvalidParameterError("n_cal is too small to fit the models")
    n_points = int(round((grid_hi - grid_lo) / step)) + 1
    grid = grid_lo + step * np.arange(n_points)
    cell_ratio = np.empty((n_points, n_points))
    cell = 0
    for i, phi_q in enumerate(grid):
        for j, beta_q in enumerate(grid):
            _, se_beta, _, se_phi = _cell_ses(
                definition, spec, float(beta_q), float(phi_q), n_cal,
                make_stream(master_seed, cell),
            )
            cell_ratio[i, j] = se_phi / se_beta
            cell += 1
    ratio_per_phi = cell_ratio.mean(axis=1)
    coeffs, adj_r2, degree, fit_rel = _fit_poly(
        grid, ratio_per_phi, poly_max_degree, adj_r2_target, max_rel_dev
    )
    beta_emitted = grid / np.polyval(coeffs, grid)
    pairs = np.column_stack([grid, beta_emitted])
    return CalibrationResult(
        scenario=scenario,
        grid=grid,
        cell_ratio=cell_ratio,
        ratio_per_phi=ratio_per_phi,
        poly_coeffs=coeffs,
        poly_degree=degree,
        adj_r2=adj_r2,
        fit_max_rel_dev=fit_rel,
        pairs=pairs,
        n_cal=n_cal,
        master_seed=master_seed,
    )


def check_tstat_balance(pair, scenario: str, n: int, reps: int, master_seed: int = 0) -> float:
    """Relative difference of mean |t| for a calibrated coefficient pair.

    For ``pair = (phi, beta)``, repeatedly generates data with those
    quadratic coefficients, fits the fully specified models, and compares
    the mean over replications of |t| for the two quadratic coefficients.
    Returns |difference| / mean of the two; a well calibrated pair stays
    within a few percent.
    """
    definition, spec = _calibration_setup(scenario)
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    phi_q, beta_q = float(pair[0]), float(pair[1])
    abs_t_beta = np.empty(reps)
    abs_t_phi = np.empty(reps)
    for r in range(reps):
        beta_hat, se_beta, phi_hat, se_phi = _cell_ses(
            definition, spec, beta_q, phi_q, n, make_stream(master_seed, r)
        )
        abs_t_beta[r] = abs(beta_hat / se_beta)
        abs_t_phi[r] = abs(phi_hat / se_phi)
    mean_beta = float(abs_t_beta.mean())
    mean_phi = float(abs_t_phi.mean())
    center = 0.5 * (mean_beta + mean_phi)
    if center == 0.0:
        return 0.0
    return abs(mean_beta - mean_phi) / center
