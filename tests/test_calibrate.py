"""Detectability calibration of paired model perturbations.

The null |t| oracle is the folded standard normal mean sqrt(2/pi); the
polynomial gates are exercised on constructed curves where each gate is
decisive on its own.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dtrkit.calibrate import (
    CalibrationResult,
    _calibration_setup,
    _cell_ses,
    _fit_poly,
    calibrate_equiv_misspec,
    check_tstat_balance,
)
from dtrkit.errors import CalibrationError, InvalidParameterError
from dtrkit.rng import make_stream

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

    def test_zero_phi_pairs_with_zero_beta(self):
        res = calibrate_equiv_misspec(
            "one_decision", grid_lo=-0.1, grid_hi=0.1, step=0.1,
            n_cal=1500, adj_r2_target=0.0, max_rel_dev=0.1, master_seed=3,
        )
        i0 = int(np.argmin(np.abs(res.grid)))
        assert res.grid[i0] == 0.0
        assert res.pairs[i0, 1] == 0.0
        assert res.beta_for(0.0) == 0.0


class TestCalibrateEndToEnd:
    def test_deterministic_in_seed(self):
        kwargs = dict(
            grid_lo=-0.2, grid_hi=0.2, step=0.1,
            n_cal=1500, adj_r2_target=0.0, max_rel_dev=0.1,
        )
        a = calibrate_equiv_misspec("one_decision", master_seed=21, **kwargs)
        b = calibrate_equiv_misspec("one_decision", master_seed=21, **kwargs)
        assert_allclose(a.cell_ratio, b.cell_ratio)
        assert_allclose(a.pairs, b.pairs)
        c = calibrate_equiv_misspec("one_decision", master_seed=22, **kwargs)
        assert not np.allclose(a.cell_ratio, c.cell_ratio)

    def test_grid_construction(self):
        res = calibrate_equiv_misspec(
            "one_decision", grid_lo=-0.2, grid_hi=0.2, step=0.1,
            n_cal=1500, adj_r2_target=0.0, max_rel_dev=0.1, master_seed=42,
        )
        assert_allclose(res.grid, [-0.2, -0.1, 0.0, 0.1, 0.2], atol=1e-12)
        assert res.cell_ratio.shape == (5, 5)
        assert_allclose(res.ratio_per_phi, res.cell_ratio.mean(axis=1))
        assert_allclose(res.pairs[:, 1], res.grid / np.polyval(res.poly_coeffs, res.grid))

    def test_odd_symmetric_pairing_when_curve_is_even(self):
        res = calibrate_equiv_misspec(
            "one_decision", grid_lo=-0.2, grid_hi=0.2, step=0.1,
            n_cal=2000, adj_r2_target=0.5, max_rel_dev=0.05, master_seed=42,
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

    def test_emitted_pairs_stable_in_n_cal(self):
        # quadrupling the per-cell sample moves the emitted pairings by less
        # than twice the ratio's MC standard error
        kwargs = dict(grid_lo=-0.2, grid_hi=0.2, step=0.1, adj_r2_target=0.0, max_rel_dev=0.05)
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

    def test_failure_reports_best_fit(self):
        # an honest grid but impossible gates
        with pytest.raises(CalibrationError) as info:
            calibrate_equiv_misspec(
                "one_decision", grid_lo=-0.2, grid_hi=0.2, step=0.1,
                n_cal=1500, poly_max_degree=1, adj_r2_target=0.999999,
                max_rel_dev=1e-9, master_seed=4,
            )
        assert np.isfinite(info.value.best_adj_r2)


class TestTstatBalance:
    def test_null_pair_matches_folded_normal(self):
        # independent oracle: with both quadratic coefficients zero each
        # |t| is asymptotically folded standard normal, mean sqrt(2/pi)
        reps, n = 800, 400
        definition, spec = _calibration_setup("one_decision")
        t_beta = np.empty(reps)
        t_phi = np.empty(reps)
        for r in range(reps):
            beta_hat, se_b, phi_hat, se_p = _cell_ses(
                definition, spec, 0.0, 0.0, n, make_stream(7, r)
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

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="calibration supports"):
            check_tstat_balance((0.0, 0.0), "moodie", 100, 2)
        with pytest.raises(InvalidParameterError, match="reps"):
            check_tstat_balance((0.0, 0.0), "one_decision", 100, 0)
