"""Detectability calibration of paired model perturbations.

The null |t| oracle is the folded standard normal mean sqrt(2/pi); the
polynomial gates are exercised on constructed curves where each gate is
decisive on its own.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dtrkit.calibrate import (
    CalibrationResult,
    _calibration_setup,
    _cell_inputs,
    _cell_ses,
    _fit_poly,
    calibrate_equiv_misspec,
    check_tstat_balance,
    grid_size,
)
from dtrkit.errors import CalibrationError, InvalidParameterError
from dtrkit.numerics import IRLS_TOL, expit, logistic_fit, wls_fit
from dtrkit.rng import make_stream
from dtrkit.scenarios import scenario_params

HALF_NORMAL_MEAN = np.sqrt(2.0 / np.pi)


class TestFitPoly:
    def test_recovers_exact_polynomial(self):
        x = np.linspace(-1.0, 1.0, 21)
        y = 1.5 - 0.8 * x + 0.6 * x * x
        coeffs, adj, degree, rel = _fit_poly(x, y, 6, 0.99, 0.02)
        assert degree == 2
        assert adj > 0.999999
        assert rel < 1e-10
        assert_allclose(coeffs, [0.6, -0.8, 1.5], atol=1e-10)

    def test_constant_curve_degenerates_to_degree_zero(self):
        x = np.linspace(-1.0, 1.0, 11)
        coeffs, adj, degree, rel = _fit_poly(x, np.full(11, 2.5), 6, 0.99, 0.02)
        assert degree == 0
        assert_allclose(coeffs, [2.5], atol=1e-12)
        assert rel < 1e-12

    def test_pointwise_gate_catches_localized_error(self):
        # a single 5% bump barely moves global R^2 but fails the pointwise
        # gate, so the R^2 gate alone would emit a fit that is locally wrong
        x = np.linspace(-1.0, 1.0, 41)
        y = 2.0 + 1.5 * x
        y[30] *= 1.05
        with pytest.raises(CalibrationError, match="max relative deviation") as info:
            _fit_poly(x, y, 1, 0.99, 0.02)
        assert info.value.best_adj_r2 > 0.99

    def test_r2_gate_still_active(self):
        x = np.linspace(-1.0, 1.0, 21)
        y = 1.0 + 0.5 * x * x
        with pytest.raises(CalibrationError, match="adjusted R\\^2"):
            _fit_poly(x, y, 1, 0.99, 1.0)


class TestCalibrationResult:
    def test_constant_ratio_gives_linear_pairing(self):
        # degenerate fit f = c pairs along the line beta = phi / c
        result = CalibrationResult(
            scenario="one_decision",
            grid=np.linspace(-1, 1, 5),
            cell_ratio=np.ones((5, 5)),
            ratio_per_phi=np.ones(5),
            poly_coeffs=np.array([2.0]),
            poly_degree=0,
            adj_r2=1.0,
            fit_max_rel_dev=0.0,
            pairs=np.zeros((5, 2)),
            n_cal=100,
            master_seed=0,
        )
        phis = np.array([-1.0, -0.3, 0.0, 0.4, 1.0])
        assert_allclose(result.beta_for(phis), phis / 2.0)
        assert_allclose(result.ratio_at(phis), np.full(5, 2.0))

    def test_zero_phi_pairs_with_zero_beta(self, fit_gates):
        fit_gates(adj_r2_target=0.0, max_rel_dev=0.1)
        res = calibrate_equiv_misspec(
            "one_decision", grid_lo=-0.1, grid_hi=0.1, step=0.1, n_cal=1500, master_seed=3,
        )
        i0 = int(np.argmin(np.abs(res.grid)))
        assert res.grid[i0] == 0.0
        assert res.pairs[i0, 1] == 0.0
        assert res.beta_for(0.0) == 0.0


class TestGridSize:
    def test_counts_the_grid_values(self):
        assert grid_size(-1.0, 1.0, 0.125) == 17
        assert grid_size(-0.1, 0.1, 0.1) == 3

    @pytest.mark.parametrize(
        "lo,hi,step,count",
        [(-1.0, 1.0, 0.3, 7), (-1.0, 1.0, 0.7, 3), (-1.0, 1.0, 0.05, 41), (0.0, 0.3, 0.1, 4),
         (0.1, 0.7, 0.2, 4), (0.0, 1.0, 0.4, 3)],
    )
    def test_last_value_does_not_pass_hi(self, lo, hi, step, count):
        # A step that does not divide the range stops below hi; one that
        # does, up to rounding (0.3 / 0.1 = 2.9999999999999996), reaches it.
        assert grid_size(lo, hi, step) == count
        assert lo + step * (count - 1) <= hi * (1.0 + 1e-12) + 1e-12
        assert lo + step * count > hi

    @given(lo=st.floats(-1.0, 1.0), step=st.floats(0.01, 1.0), k=st.integers(1, 200),
           part=st.sampled_from([0.0, 0.5, 0.999]))
    def test_counts_whole_steps(self, lo, step, k, part):
        assert grid_size(lo, lo + (k + part) * step, step) == k + 1

    def test_calibration_grid_ends_at_hi(self, fit_gates):
        # 0.0 + 3 * 0.1 is 0.30000000000000004: the grid clamps it at hi.
        fit_gates(adj_r2_target=0.0, max_rel_dev=1.0)
        res = calibrate_equiv_misspec("one_decision", 0.0, 0.3, 0.1, n_cal=200, master_seed=8)
        assert res.grid.tolist() == [0.0, 0.1, 0.2, 0.3]
        assert res.cell_ratio.shape == (4, 4)

    def test_rejects_grids_whose_cells_numpy_cannot_index(self):
        # n values make an n x n float64 array: n^2 * 8 bytes must be an intp
        limit = int(np.iinfo(np.intp).max)
        most = math.isqrt(limit // 8)
        assert most * most * 8 <= limit < (most + 1) * (most + 1) * 8
        assert grid_size(0.0, float(most - 1), 1.0) == most
        for hi, step in ((float(most), 1.0), (1.0, 1e-300), (2.0, 5e-324)):
            with pytest.raises(InvalidParameterError, match="grid.step"):
                grid_size(0.0, hi, step)


# The last-stage propensity logit of each calibratable scenario's law,
# written out: phi'(1, s1, s1^2) and phi2'(1, s1, a1, s2, a1 s2, s2^2).
def _law_logit(name, params, dataset):
    s1 = dataset.state_col(1, 1)
    if name == "one_decision":
        f = params.phi
        return f[0] + f[1] * s1 + f[2] * s1 * s1
    f, a1, s2 = params.phi2, dataset.action_col(1), dataset.state_col(2, 1)
    return f[0] + f[1] * s1 + f[2] * a1 + f[3] * s2 + f[4] * a1 * s2 + f[5] * s2 * s2


CALIBRATED = {
    "one_decision": {"phi": (0.2, -2.0, 0.7), "beta": (1.0, 1.0, -0.4)},
    "two_decision": {"phi2": (0.1, 0.5, 0.1, -1.0, -0.1, 1.0), "beta2": (3, 0, 0.1, -0.5, -0.5, 1)},
}


class TestFitStart:
    """The propensity fit of a cell starts at the generating coefficients."""

    @pytest.mark.parametrize("name", sorted(CALIBRATED))
    def test_start_is_the_laws_logit(self, name):
        definition, spec = _calibration_setup(name)
        params = scenario_params(name, **CALIBRATED[name])
        dataset = definition.generate(params, 500, make_stream(5, 1))
        design = spec.propensity.evaluate(dataset)
        start = np.asarray(getattr(params, definition.calibration[1]))
        assert_allclose(design @ start, _law_logit(name, params, dataset), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("name", sorted(CALIBRATED))
    @pytest.mark.parametrize("cell", range(6))
    def test_start_converges_sooner_to_the_same_fit(self, name, cell):
        definition, spec = _calibration_setup(name)
        params = scenario_params(name, **CALIBRATED[name])
        dataset = definition.generate(params, 10000, make_stream(11, cell))
        x = spec.propensity.evaluate(dataset)
        a = dataset.action_col(definition.n_stages).astype(float)
        cold = logistic_fit(x, a)
        warm = logistic_fit(x, a, start=getattr(params, definition.calibration[1]))
        for fit in (cold, warm):
            assert np.abs(x.T @ (a - expit(x @ fit.coefficients))).max() < IRLS_TOL
        assert warm.iterations < cold.iterations
        scale = np.abs(cold.coefficients).max()
        assert np.abs(warm.coefficients - cold.coefficients).max() <= 1e-12 * scale
        se = [np.sqrt(np.diag(fit.covariance)) for fit in (warm, cold)]
        assert_allclose(*se, rtol=1e-12)


class TestCellWork:
    """Each cell builds its designs in the work array of its call."""

    @pytest.mark.parametrize("name", sorted(CALIBRATED))
    def test_reused_work_array_carries_nothing_over(self, name):
        definition, spec = _calibration_setup(name)
        params, fresh = _cell_inputs(definition, spec, None, 2000, "n")
        fresh.fill(np.nan)
        alone = _cell_ses(definition, spec, params, 0.4, -0.6, 2000, make_stream(11, 3), fresh)
        assert np.isfinite(fresh).all()
        _, reused = _cell_inputs(definition, spec, None, 2000, "n")
        _cell_ses(definition, spec, params, -1.0, 1.0, 2000, make_stream(11, 2), reused)
        after = _cell_ses(definition, spec, params, 0.4, -0.6, 2000, make_stream(11, 3), reused)
        assert after == alone
        assert reused.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("name", sorted(CALIBRATED))
    def test_matches_row_major_designs(self, name):
        # The reference builds the designs row-major, as separate matrices.
        definition, spec = _calibration_setup(name)
        params, work = _cell_inputs(definition, spec, None, 3000, "n")
        got = _cell_ses(definition, spec, params, 0.5, 0.5, 3000, make_stream(4, 9), work)
        moved = {f: getattr(params, f)[:-1] + (0.5,) for f in definition.calibration}
        cell = replace(params, **moved)
        dataset = definition.generate(cell, 3000, make_stream(4, 9))
        a = dataset.action_col(definition.n_stages).astype(float)
        h = spec.h_features.evaluate(dataset)
        c = spec.c_features.evaluate(dataset)
        out_fit = wls_fit(np.hstack([h, a[:, None] * c]), dataset.y)
        prop_fit = logistic_fit(
            spec.propensity.evaluate(dataset), a,
            start=getattr(cell, definition.calibration[1]),
        )
        q = h.shape[1] - 1
        ref = (out_fit.coefficients[q], np.sqrt(out_fit.covariance[q, q]),
               prop_fit.coefficients[-1], np.sqrt(prop_fit.covariance[-1, -1]))
        assert_allclose(got, ref, rtol=1e-12)


class TestCalibrateEndToEnd:
    def test_deterministic_in_seed(self, fit_gates):
        fit_gates(adj_r2_target=0.0, max_rel_dev=0.1)
        kwargs = dict(grid_lo=-0.2, grid_hi=0.2, step=0.1, n_cal=1500)
        a = calibrate_equiv_misspec("one_decision", master_seed=21, **kwargs)
        b = calibrate_equiv_misspec("one_decision", master_seed=21, **kwargs)
        assert_allclose(a.cell_ratio, b.cell_ratio)
        assert_allclose(a.pairs, b.pairs)
        c = calibrate_equiv_misspec("one_decision", master_seed=22, **kwargs)
        assert not np.allclose(a.cell_ratio, c.cell_ratio)

    def test_grid_construction(self, fit_gates):
        fit_gates(adj_r2_target=0.0, max_rel_dev=0.1)
        res = calibrate_equiv_misspec(
            "one_decision", grid_lo=-0.2, grid_hi=0.2, step=0.1, n_cal=1500, master_seed=42,
        )
        assert_allclose(res.grid, [-0.2, -0.1, 0.0, 0.1, 0.2], atol=1e-12)
        assert res.cell_ratio.shape == (5, 5)
        assert_allclose(res.ratio_per_phi, res.cell_ratio.mean(axis=1))
        assert_allclose(res.pairs[:, 1], res.grid / np.polyval(res.poly_coeffs, res.grid))

    def test_odd_symmetric_pairing_when_curve_is_even(self, fit_gates):
        fit_gates(adj_r2_target=0.5, max_rel_dev=0.05)
        res = calibrate_equiv_misspec(
            "one_decision", grid_lo=-0.2, grid_hi=0.2, step=0.1, n_cal=2000, master_seed=42,
        )
        n = len(res.grid)
        row_se = res.cell_ratio.std(axis=1, ddof=1) / np.sqrt(res.cell_ratio.shape[1])
        for i in range(n // 2):
            j = n - 1 - i
            # even-ness of the ratio curve first, within its MC noise band
            band = 4.0 * float(np.hypot(row_se[i], row_se[j]))
            assert abs(res.ratio_per_phi[i] - res.ratio_per_phi[j]) <= band
            # then the pairing inherits odd symmetry
            assert abs(res.pairs[i, 1] + res.pairs[j, 1]) < 0.05

    def test_emitted_pairs_stable_in_n_cal(self, fit_gates):
        # quadrupling the per-cell sample moves the emitted pairings by less
        # than twice the ratio's MC standard error
        fit_gates(adj_r2_target=0.0, max_rel_dev=0.05)
        kwargs = dict(grid_lo=-0.2, grid_hi=0.2, step=0.1)
        a = calibrate_equiv_misspec("one_decision", n_cal=2500, master_seed=13, **kwargs)
        b = calibrate_equiv_misspec("one_decision", n_cal=10000, master_seed=14, **kwargs)
        se_a = a.cell_ratio.std(axis=1, ddof=1) / np.sqrt(a.cell_ratio.shape[1])
        se_b = b.cell_ratio.std(axis=1, ddof=1) / np.sqrt(b.cell_ratio.shape[1])
        delta = np.abs(a.pairs[:, 1] - b.pairs[:, 1])
        band = 2.0 * np.hypot(se_a, se_b) * np.abs(a.grid) / a.ratio_per_phi**2
        assert np.all(delta <= band)

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="calibration supports"):
            calibrate_equiv_misspec("moodie")
        with pytest.raises(InvalidParameterError, match="grid.step must be > 0"):
            calibrate_equiv_misspec("one_decision", step=0.0)
        with pytest.raises(InvalidParameterError, match="grid.hi"):
            calibrate_equiv_misspec("one_decision", grid_lo=0.5, grid_hi=0.5)
        with pytest.raises(InvalidParameterError, match="n_cal"):
            calibrate_equiv_misspec("one_decision", n_cal=5)

    def test_failure_reports_best_fit(self, fit_gates):
        # an honest grid but impossible gates
        fit_gates(adj_r2_target=0.999999, max_rel_dev=1e-9, poly_max_degree=1)
        with pytest.raises(CalibrationError) as info:
            calibrate_equiv_misspec(
                "one_decision", grid_lo=-0.2, grid_hi=0.2, step=0.1, n_cal=1500, master_seed=4,
            )
        assert np.isfinite(info.value.best_adj_r2)


class TestTstatBalance:
    def test_null_pair_matches_folded_normal(self):
        # independent oracle: with both quadratic coefficients zero each
        # |t| is asymptotically folded standard normal, mean sqrt(2/pi)
        reps, n = 800, 400
        definition, spec = _calibration_setup("one_decision")
        params, work = _cell_inputs(definition, spec, None, n, "n")
        t_beta = np.empty(reps)
        t_phi = np.empty(reps)
        for r in range(reps):
            beta_hat, se_b, phi_hat, se_p = _cell_ses(
                definition, spec, params, 0.0, 0.0, n, make_stream(7, r), work
            )
            t_beta[r] = abs(beta_hat / se_b)
            t_phi[r] = abs(phi_hat / se_p)
        for sample in (t_beta, t_phi):
            band = 4.0 * sample.std(ddof=1) / np.sqrt(reps)
            assert abs(sample.mean() - HALF_NORMAL_MEAN) < band
        assert check_tstat_balance((0.0, 0.0), "one_decision", n, reps, master_seed=7) < 0.05

    def test_unbalanced_pair_detected(self):
        # an outcome perturbation of 1 against a propensity perturbation of
        # 0.05 is heavily lopsided
        rel = check_tstat_balance((0.05, 1.0), "one_decision", 400, 60, master_seed=7)
        assert rel > 0.5

    def test_params_set_the_base_law(self):
        # The cells start from the given base: a larger outcome variance
        # shrinks the outcome |t| and so changes the balance.
        from dtrkit.scenarios import OneDecisionParams, TwoDecisionParams

        base = check_tstat_balance((0.3, 0.3), "one_decision", 400, 20, master_seed=2)
        same = check_tstat_balance(
            (0.3, 0.3), "one_decision", 400, 20, master_seed=2, params=OneDecisionParams()
        )
        noisy = check_tstat_balance(
            (0.3, 0.3), "one_decision", 400, 20, master_seed=2,
            params=OneDecisionParams(y_var=900.0),
        )
        assert same == base
        assert noisy > base + 0.3
        with pytest.raises(InvalidParameterError, match="params must be OneDecisionParams"):
            check_tstat_balance((0.0, 0.0), "one_decision", 100, 2, params=TwoDecisionParams())
        with pytest.raises(InvalidParameterError, match="params must be TwoDecisionParams"):
            calibrate_equiv_misspec("two_decision", n_cal=100, params=OneDecisionParams())

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="calibration supports"):
            check_tstat_balance((0.0, 0.0), "moodie", 100, 2)
        with pytest.raises(InvalidParameterError, match="reps"):
            check_tstat_balance((0.0, 0.0), "one_decision", 100, 0)
        # below MIN_N_CAL, as for n_cal; two_decision's full model has 9 columns
        with pytest.raises(InvalidParameterError, match="n must be at least 10"):
            check_tstat_balance((0.0, 0.0), "two_decision", 5, 2)
        with pytest.raises(InvalidParameterError, match="n_cal must be at least 10"):
            calibrate_equiv_misspec("two_decision", n_cal=9)
