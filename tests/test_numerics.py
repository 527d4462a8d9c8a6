"""Numerical kernels against independent oracles.

The normal cdf/pdf and the truncated-normal partial moments are checked
against arbitrary-precision values (mpmath) and direct quadrature, the
linear-algebra wrappers against hand solutions and reference LAPACK
routines, and the logistic fit against a brute-force likelihood search.
"""

import itertools

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dtrkit import (
    InvalidParameterError,
    NonConvergenceError,
    SingularSystemError,
    logistic_fit,
    make_stream,
    norm_pdf,
    scenarios,
    solve_linear,
    trunc_norm_moments,
    wls_fit,
)
from dtrkit import numerics
# ndtr is the normal cdf behind trunc_norm_moments and every closed-form value.
from dtrkit.numerics import IRLS_TOL, PIVOT_RTOL, expit, logistic_stack, ndtr

mpmath.mp.dps = 30

# 20-digit reference values, precomputed with mpmath.
PHI_AT = {
    -2.0: 0.022750131948179207200,
    -1.0: 0.15865525393145705142,
    0.0: 0.5,
    1.96: 0.97500210485177956586,
    8.0: 0.99999999999999937791,
}
PDF_AT = {
    0.0: 0.39894228040143267794,
    1.0: 0.24197072451914334980,
    -3.0: 0.0044318484119380075489,
}


def _mp_cdf(x):
    return float(mpmath.ncdf(x))


def _mp_pdf(x):
    return float(mpmath.npdf(x))


class TestNormalHelpers:
    @pytest.mark.parametrize("x,expected", sorted(PHI_AT.items()))
    def test_cdf_frozen_values(self, x, expected):
        assert ndtr(x) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("x,expected", sorted(PDF_AT.items()))
    def test_pdf_frozen_values(self, x, expected):
        assert norm_pdf(x) == pytest.approx(expected, abs=1e-15)

    def test_cdf_against_mpmath_grid(self):
        xs = np.concatenate([np.linspace(-8, 8, 41), [-12.5, 12.5, -0.007, 37.0]])
        for x in xs:
            assert abs(ndtr(x) - _mp_cdf(x)) < 1e-12

    def test_pdf_against_mpmath_grid(self):
        for x in np.linspace(-10, 10, 31):
            assert abs(norm_pdf(x) - _mp_pdf(x)) < 1e-14

    def test_cdf_vectorized_and_monotone(self):
        xs = np.linspace(-6, 6, 200)
        vals = ndtr(xs)
        assert vals.shape == xs.shape
        assert np.all(np.diff(vals) > 0)
        npt.assert_allclose(ndtr(xs) + ndtr(-xs), 1.0, atol=1e-14)


def _quad_trunc(mu, sigma, cut, side):
    """Quadrature oracle for the half-line probability and partial mean."""
    lo, hi = (cut, mu + 12 * sigma) if side == "above" else (mu - 12 * sigma, cut)
    dens = lambda t: np.exp(-0.5 * ((t - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    prob = quad(dens, lo, hi, epsabs=1e-13, limit=200)[0]
    partial = quad(lambda t: t * dens(t), lo, hi, epsabs=1e-13, limit=200)[0]
    return prob, partial


class TestTruncNormMoments:
    def test_known_case(self):
        # X ~ N(2, 3^2) above 1: z = -1/3, prob = 1 - Phi(-1/3) = 0.63055866,
        # partial mean = 2 prob + 3 phi(-1/3) = 2.39337253
        prob, partial = trunc_norm_moments(2.0, 3.0, 1.0, "above")
        oracle = _quad_trunc(2.0, 3.0, 1.0, "above")
        assert prob == pytest.approx(0.6305586598, abs=1e-9)
        assert partial == pytest.approx(2.3932670027, abs=1e-9)
        assert prob == pytest.approx(oracle[0], abs=1e-10)
        assert partial == pytest.approx(oracle[1], abs=1e-10)

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_against_quadrature(self, side):
        rng = np.random.default_rng(42)
        for _ in range(25):
            mu = rng.normal(0, 4)
            sigma = rng.uniform(0.2, 5)
            cut = mu + rng.normal(0, 2) * sigma
            prob, partial = trunc_norm_moments(mu, sigma, cut, side)
            q_prob, q_partial = _quad_trunc(mu, sigma, cut, side)
            assert prob == pytest.approx(q_prob, abs=1e-9)
            assert partial == pytest.approx(q_partial, abs=1e-8)

    def test_sides_are_complementary(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(0, 3, size=40)
        sigma = rng.uniform(0.1, 4, size=40)
        cut = rng.normal(0, 5, size=40)
        pa, ma = trunc_norm_moments(mu, sigma, cut, "above")
        pb, mb = trunc_norm_moments(mu, sigma, cut, "below")
        npt.assert_allclose(pa + pb, 1.0, atol=1e-13)
        npt.assert_allclose(ma + mb, mu, atol=1e-12)

    def test_scalar_in_scalar_out(self):
        prob, partial = trunc_norm_moments(0.0, 1.0, 0.0, "above")
        assert isinstance(prob, float) and isinstance(partial, float)
        assert prob == pytest.approx(0.5, abs=1e-14)
        assert partial == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-14)

    def test_array_broadcast(self):
        prob, partial = trunc_norm_moments([0.0, 1.0], 1.0, 0.0, "below")
        assert prob.shape == (2,)
        assert partial.shape == (2,)

    def test_rejects_bad_sigma_and_side(self):
        with pytest.raises(InvalidParameterError):
            trunc_norm_moments(0.0, 0.0, 0.0, "above")
        with pytest.raises(InvalidParameterError):
            trunc_norm_moments(0.0, [1.0, -2.0], 0.0, "below")
        with pytest.raises(InvalidParameterError):
            trunc_norm_moments(0.0, 1.0, 0.0, "between")

    def test_far_tail_stays_finite(self):
        prob, partial = trunc_norm_moments(0.0, 1.0, 40.0, "above")
        assert prob == 0.0
        assert np.isfinite(partial)


class TestSolveLinear:
    def test_hand_solved_system(self):
        x = solve_linear([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
        npt.assert_allclose(x, [1.0, 3.0], atol=1e-14)

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            b = rng.normal(size=6)
            npt.assert_allclose(solve_linear(a, b), np.linalg.solve(a, b), rtol=1e-10)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 3))
        npt.assert_allclose(a @ solve_linear(a, b), b, atol=1e-10)

    def test_singular_raises_with_diagnostic(self):
        with pytest.raises(SingularSystemError) as err:
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
        assert err.value.diagnostic < PIVOT_RTOL

    def test_zero_matrix(self):
        with pytest.raises(SingularSystemError):
            solve_linear(np.zeros((3, 3)), np.zeros(3))

    def test_near_singular_below_threshold(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(SingularSystemError):
            solve_linear(a, [1.0, 1.0])

    def test_badly_scaled_but_regular_is_fine(self):
        # scale invariance of the relative pivot test
        a = 1e-12 * np.array([[2.0, 1.0], [1.0, 3.0]])
        npt.assert_allclose(solve_linear(a, [5e-12, 10e-12]), [1.0, 3.0], rtol=1e-9)

    def test_shape_errors(self):
        with pytest.raises(InvalidParameterError):
            solve_linear(np.ones((2, 3)), np.ones(2))
        with pytest.raises(InvalidParameterError):
            solve_linear(np.eye(2), np.ones(3))


def _wls_oracle(x, y):
    """Coefficients via the QR route, independent of the LU path."""
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    return coef


class TestWlsFit:
    def test_exact_fit_zero_residuals(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        y = 2.0 + 3.0 * np.arange(5.0)
        fit = wls_fit(x, y)
        npt.assert_allclose(fit.coefficients, [2.0, 3.0], atol=1e-12)
        npt.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        npt.assert_allclose(fit.covariance, 0.0, atol=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=(40, 4))
            y = rng.normal(size=40)
            fit = wls_fit(x, y)
            npt.assert_allclose(fit.coefficients, _wls_oracle(x, y), atol=1e-10)

    def test_covariance_formula(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        fit = wls_fit(x, y)
        resid = y - x @ fit.coefficients
        sigma2 = resid @ resid / (50 - 3)
        npt.assert_allclose(fit.covariance, sigma2 * np.linalg.inv(x.T @ x), rtol=1e-9)
        eigvals = np.linalg.eigvalsh(fit.covariance)
        assert np.all(eigvals > -1e-12)

    def test_covariance_large_n_calibration(self):
        # SD of repeated coefficient estimates should match the model SE
        stream = make_stream(90, 0)
        coefs, ses = [], []
        for _ in range(400):
            x = np.column_stack([np.ones(60), stream.normal(size=60)])
            y = 1.0 + 2.0 * x[:, 1] + stream.normal(size=60, scale=1.5)
            fit = wls_fit(x, y)
            coefs.append(fit.coefficients[1])
            ses.append(np.sqrt(fit.covariance[1, 1]))
        ratio = np.std(coefs, ddof=1) / np.mean(ses)
        assert 0.85 < ratio < 1.15

    def test_saturated_fit_reports_zero_variance(self):
        x = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        fit = wls_fit(x, y)
        npt.assert_allclose(fit.coefficients, y, atol=1e-13)
        npt.assert_allclose(fit.covariance, 0.0)

    def test_fitted_plus_residuals(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        fit = wls_fit(x, y)
        npt.assert_allclose(fit.fitted + fit.residuals, y, atol=1e-12)

    def test_errors(self):
        x = np.ones((2, 3))
        with pytest.raises(InvalidParameterError):
            wls_fit(x, np.ones(2))
        with pytest.raises(SingularSystemError):
            wls_fit(np.ones((6, 2)), np.ones(6))


def _loglik(x, a, phi):
    eta = x @ phi
    return float(a @ eta - np.logaddexp(0.0, eta).sum())


class TestLogisticFit:
    def test_intercept_only_closed_form(self):
        # MLE of the intercept model is logit of the success rate
        a = np.array([1.0, 1.0, 1.0, 0.0], dtype=float)
        fit = logistic_fit(np.ones((4, 1)), a)
        assert fit.coefficients[0] == pytest.approx(np.log(3.0), abs=1e-9)
        # inverse Fisher: 1 / (n p (1-p))
        assert fit.covariance[0, 0] == pytest.approx(1.0 / (4 * 0.75 * 0.25), rel=1e-7)

    def test_score_equations_hold(self):
        stream = make_stream(21, 0)
        x = np.column_stack([np.ones(300), stream.normal(size=300)])
        p = 1.0 / (1.0 + np.exp(-(0.3 - 0.8 * x[:, 1])))
        a = stream.bernoulli(p, size=300).astype(float)
        fit = logistic_fit(x, a)
        score = x.T @ (a - (1.0 / (1.0 + np.exp(-(x @ fit.coefficients)))))
        assert np.max(np.abs(score)) < 1e-8
        assert fit.converged and fit.iterations >= 1

    def test_beats_grid_search(self):
        # the IRLS maximizer should dominate every point of a fine grid
        stream = make_stream(22, 0)
        x = np.column_stack([np.ones(120), stream.normal(size=120)])
        p = 1.0 / (1.0 + np.exp(-(0.5 + 1.2 * x[:, 1])))
        a = stream.bernoulli(p, size=120).astype(float)
        fit = logistic_fit(x, a)
        best = fit.coefficients
        ll_best = _loglik(x, a, best)
        grid = np.linspace(-3, 3, 61)
        for b0 in grid:
            for b1 in grid:
                assert _loglik(x, a, np.array([b0, b1])) <= ll_best + 1e-9

    def test_large_sample_recovery(self):
        stream = make_stream(23, 0)
        n = 200000
        s = stream.normal(size=n)
        truth = np.array([0.25, -0.75])
        p = 1.0 / (1.0 + np.exp(-(truth[0] + truth[1] * s)))
        a = stream.bernoulli(p, size=n).astype(float)
        x = np.column_stack([np.ones(n), s])
        fit = logistic_fit(x, a)
        ses = np.sqrt(np.diag(fit.covariance))
        npt.assert_array_less(np.abs(fit.coefficients - truth), 3.5 * ses)

    def test_covariance_matches_monte_carlo(self):
        stream = make_stream(24, 0)
        coefs, ses = [], []
        for _ in range(300):
            s = stream.normal(size=400)
            p = 1.0 / (1.0 + np.exp(-(0.2 + 0.6 * s)))
            a = stream.bernoulli(p, size=400).astype(float)
            fit = logistic_fit(np.column_stack([np.ones(400), s]), a)
            coefs.append(fit.coefficients[1])
            ses.append(np.sqrt(fit.covariance[1, 1]))
        ratio = np.std(coefs, ddof=1) / np.mean(ses)
        assert 0.85 < ratio < 1.15

    def test_residuals_are_response_scale(self):
        stream = make_stream(25, 0)
        x = np.column_stack([np.ones(50), stream.normal(size=50)])
        a = stream.bernoulli(0.5, size=50).astype(float)
        fit = logistic_fit(x, a)
        npt.assert_allclose(fit.fitted + fit.residuals, a, atol=1e-12)
        assert np.all((fit.fitted > 0) & (fit.fitted < 1))

    def test_constant_response_is_separated(self):
        x = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
        with pytest.raises(NonConvergenceError):
            logistic_fit(x, np.ones(20))
        with pytest.raises(NonConvergenceError):
            logistic_fit(x, np.zeros(20))

    def test_perfect_separation_raises(self):
        s = np.linspace(-2, 2, 40)
        a = (s > 0).astype(float)
        with pytest.raises(NonConvergenceError) as err:
            logistic_fit(np.column_stack([np.ones(40), s]), a)
        assert err.value.score_norm is not None

    def test_rank_deficient_design(self):
        x = np.column_stack([np.ones(30), np.ones(30)])
        a = np.zeros(30)
        a[::2] = 1.0
        with pytest.raises(SingularSystemError):
            logistic_fit(x, a)

    def test_response_validation(self):
        x = np.ones((4, 1))
        with pytest.raises(InvalidParameterError):
            logistic_fit(x, np.array([0.0, 1.0, 2.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            logistic_fit(x, np.array([0.0, 1.0]))

    def test_tolerance_is_tight(self):
        stream = make_stream(26, 0)
        x = np.column_stack([np.ones(500), stream.normal(size=500)])
        a = stream.bernoulli(0.4, size=500).astype(float)
        fit = logistic_fit(x, a)
        score = x.T @ (a - 1.0 / (1.0 + np.exp(-(x @ fit.coefficients))))
        assert np.max(np.abs(score)) < IRLS_TOL


@st.composite
def _logistic_stacks(draw):
    """A stack (x, a) of R logistic problems of one shape: small designs
    with normal or Cauchy covariates, n=10,000 calibration designs
    (two_decision's fully specified last-stage propensity), or nearly
    separated designs with a few labels flipped across the boundary (none:
    separated)."""
    kind = draw(st.sampled_from(["random", "heavy_tailed", "calibration", "nearly_separated"]))
    reps = draw(st.integers(1, 2 if kind == "calibration" else 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "calibration":
        definition = scenarios.scenario_registry("two_decision")
        spec = definition.full_specs()[-1]
        base = definition.params_cls()
        xs, acts = [], []
        for r in range(reps):
            phi_q = draw(st.floats(-1.0, 1.0))
            params = scenarios.scenario_params("two_decision", phi2=base.phi2[:-1] + (phi_q,))
            dataset = definition.generate(params, 10000, make_stream(seed, r))
            xs.append(spec.propensity.features.evaluate(dataset))
            acts.append(dataset.action_col(definition.n_stages).astype(float))
        return np.array(xs), np.array(acts)
    if kind in ("random", "heavy_tailed"):
        n = draw(st.integers(5, 300))
        p = draw(st.integers(1, 4))
        if kind == "random":
            covariates = rng.normal(size=(reps, n, p - 1))
        else:
            covariates = draw(st.sampled_from([1.0, 10.0])) * rng.standard_cauchy((reps, n, p - 1))
        x = np.concatenate([np.ones((reps, n, 1)), covariates], axis=-1)
        coef = rng.normal(scale=draw(st.sampled_from([0.5, 2.0, 6.0])), size=(reps, p))
        prob = expit(np.matmul(x, coef[..., None])[..., 0])
        return x, (rng.random((reps, n)) < prob).astype(float)
    n = draw(st.integers(20, 400))
    s = rng.normal(size=(reps, n))
    x = np.stack([np.ones((reps, n)), s], axis=-1)
    a = (s > 0.0).astype(float)
    flips = draw(st.integers(0, 3))
    for r in range(reps):
        flip = rng.choice(np.argsort(np.abs(s[r]))[: 2 * flips], size=flips, replace=False)
        a[r, flip] = 1.0 - a[r, flip]
    return x, a


def _fitted_and_score(x, a, phi):
    # Probabilities and score at each phi of a stack, computed as the IRLS
    # computes them: one BLAS call per problem.
    prob = expit(np.matmul(x, phi[..., None])[..., 0])
    return prob, np.matmul(np.swapaxes(x, -1, -2), (a - prob)[..., None])[..., 0]


def _overshooting_problem():
    # 15 rows, an intercept and three Cauchy covariates.  One Newton step of
    # this fit overshoots: the slope at its end is negative and the
    # log-likelihood falls, so the step is halved (four times).  No first
    # step from phi = 0 can overshoot, as the weights start at their
    # maximum 1/4.
    rng = np.random.default_rng(2200)
    n, p = int(rng.integers(10, 200)), int(rng.integers(2, 5))
    x = np.column_stack([np.ones(n), rng.standard_cauchy(size=(n, p - 1)) * rng.choice([1, 10])])
    coef = rng.normal(scale=rng.choice([0.5, 3, 10]), size=p)
    return x, (rng.random(n) < expit(x @ coef)).astype(float)


class TestLogisticStack:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=_logistic_stacks())
    def test_converged_means_score_below_tolerance(self, problem):
        x, a = problem
        phi, cov, prob, iterations, errors = logistic_stack(x, a)
        fitted, score = _fitted_and_score(x, a, phi)
        for r, error in enumerate(errors):
            if error is None:
                assert np.abs(score[r]).max() < IRLS_TOL
                assert prob[r].tobytes() == fitted[r].tobytes()
                assert iterations[r] >= 1 and np.all(np.isfinite(cov[r]))
            else:
                assert isinstance(error, (NonConvergenceError, SingularSystemError))
                assert np.all(np.isnan(phi[r])) and np.all(np.isnan(prob[r]))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=_logistic_stacks())
    def test_rows_equal_problems_alone(self, problem):
        x, a = problem
        stacked = logistic_stack(x, a)
        for r in range(x.shape[0]):
            alone = logistic_stack(x[r : r + 1], a[r : r + 1])
            for got, ref in zip(stacked[:4], alone[:4]):
                assert got[r : r + 1].tobytes() == ref.tobytes()
            assert type(stacked[4][r]) is type(alone[4][0])

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=_logistic_stacks(), scale=st.sampled_from([0.1, 1.0]), seed=st.integers(0, 99))
    def test_started_rows_equal_problems_alone(self, problem, scale, seed):
        x, a = problem
        start = np.random.default_rng(seed).normal(scale=scale, size=x.shape[::2])
        stacked = logistic_stack(x, a, start)
        fitted, score = _fitted_and_score(x, a, stacked[0])
        for r in range(x.shape[0]):
            alone = logistic_stack(x[r : r + 1], a[r : r + 1], start[r])
            for got, ref in zip(stacked[:4], alone[:4]):
                assert got[r : r + 1].tobytes() == ref.tobytes()
            assert type(stacked[4][r]) is type(alone[4][0])
            if stacked[4][r] is None:
                assert np.abs(score[r]).max() < IRLS_TOL

    def test_found_false_convergence_now_converges(self):
        # two_decision, seed 77, replication 297, stage-1 working propensity:
        # a stop on step size instead of the score ends this fit at a score
        # norm of 5.5e-7.
        definition = scenarios.scenario_registry("two_decision")
        dataset = definition.generate(definition.params_cls(), 200, make_stream(77, 297))
        x = definition.working_specs()[0].propensity.features.evaluate(dataset)
        a = dataset.action_col(1).astype(float)
        fit = logistic_fit(x, a)
        assert np.abs(x.T @ (a - fit.fitted)).max() < IRLS_TOL

    def test_overshooting_step_is_halved(self, monkeypatch):
        x, a = _overshooting_problem()
        calls = []
        loglik = numerics._logistic_loglik
        monkeypatch.setattr(
            numerics, "_logistic_loglik", lambda eta, a: calls.append(eta) or loglik(eta, a)
        )
        fit = logistic_fit(x, a)
        # the current point, the full step and at least one halved step
        assert len(calls) >= 3
        assert np.abs(x.T @ (a - fit.fitted)).max() < IRLS_TOL

    def test_failed_line_search_is_not_converged(self, monkeypatch):
        # Every candidate compares below the current point, so no halving
        # helps: the fit must end as an error, not as converged.
        x, a = _overshooting_problem()
        calls = itertools.count()
        monkeypatch.setattr(
            numerics, "_logistic_loglik", lambda eta, a: np.full(len(eta), -float(next(calls) > 0))
        )
        with pytest.raises(NonConvergenceError, match="step halving"):
            logistic_fit(x, a)


def _fit_or_error(fit, *args):
    try:
        return fit(*args)
    except (NonConvergenceError, SingularSystemError) as exc:
        return type(exc)


def _assert_close(got, ref, rtol):
    # relative to the largest entry, so that entries near zero do not count
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestDesignLayout:
    """A feature-major (Fortran-ordered) design fits like its C-ordered
    copy: the products X'X and X'WX give the same bits in both layouts,
    the matrix-vector products X'r and X theta may differ by rounding,
    which the solve amplifies by at most the condition number of X'X."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=_logistic_stacks(), seed=st.integers(0, 99))
    def test_fortran_design_fits_as_c_design(self, problem, seed):
        x, a = problem
        x, a = x[0], a[0]
        rng = np.random.default_rng(seed)
        y = x @ rng.normal(size=x.shape[1]) + rng.normal(size=x.shape[0])
        fx = np.asfortranarray(x)
        assert fx.flags.f_contiguous and (x.shape[1] == 1 or not fx.flags.c_contiguous)
        rtol = max(1e-12, 32 * np.finfo(float).eps * np.linalg.cond(x.T @ x))
        for fit, response in ((wls_fit, y), (logistic_fit, a)):
            ref, got = (_fit_or_error(fit, design, response) for design in (x, fx))
            if isinstance(ref, type) or isinstance(got, type):
                assert ref is got
                continue
            _assert_close(got.coefficients, ref.coefficients, rtol)
            _assert_close(got.covariance, ref.covariance, rtol)
            assert abs(got.iterations - ref.iterations) <= 1
