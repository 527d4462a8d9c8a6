"""Estimating-equation contrast estimator and its robustness properties."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dtrkit import alearn
from dtrkit.alearn import (
    a_pseudo_outcome,
    alearn_fit,
    alearn_stage_solve,
    propensity_eval,
)
from dtrkit.data import Dataset, KnownPropensity, StageSpec, build_design
from dtrkit.errors import (
    ExtremePropensityWarning,
    InvalidParameterError,
    SingularSystemError,
)
from dtrkit.qlearn import qlearn_fit
from dtrkit.rng import RngStream
from dtrkit.scenarios import (
    OneDecisionParams,
    TwoDecisionParams,
    derive_stage1_truth,
    gen_one_decision,
    gen_two_decision,
    scenario_registry,
)


def _one_stage_data(n=200, seed=21):
    rng = np.random.default_rng(seed)
    s1 = rng.normal(size=n)
    pi = 1.0 / (1.0 + np.exp(2.0 * s1))
    a1 = (rng.uniform(size=n) < pi).astype(np.int64)
    y = 1.0 + s1 + a1 * (1.0 + 0.5 * s1) + rng.normal(size=n)
    ds = Dataset((s1[:, None],), (a1,), y)
    xh = np.column_stack([np.ones(n), s1])
    xc = np.column_stack([np.ones(n), s1])
    return ds, xh, xc, pi


class TestStageSolve:
    def test_moment_equations_vanish(self):
        ds, xh, xc, pi = _one_stage_data()
        fit = alearn_stage_solve(xh, xc, ds.actions[0], pi, ds.y, stage=1)
        a = ds.actions[0].astype(float)
        g = np.hstack([(a - pi)[:, None] * xc, xh])
        resid = ds.y - (xh @ fit.beta + a * (xc @ fit.psi))
        assert fit.moment_inf_norm == pytest.approx(np.max(np.abs(g.T @ resid)))
        assert fit.moment_inf_norm < 1e-8 * (1.0 + np.max(np.abs(ds.y)))
        assert_allclose(fit.residuals, resid, atol=1e-12)

    def test_noiseless_exact_recovery(self):
        n = 80
        rng = np.random.default_rng(8)
        s1 = rng.normal(size=n)
        a1 = rng.integers(0, 2, size=n)
        y = 2.0 - s1 + a1 * (0.5 + 1.5 * s1)
        xh = np.column_stack([np.ones(n), s1])
        xc = np.column_stack([np.ones(n), s1])
        fit = alearn_stage_solve(xh, xc, a1, np.full(n, 0.5), y)
        assert_allclose(fit.psi, [0.5, 1.5], atol=1e-10)
        assert_allclose(fit.beta, [2.0, -1.0], atol=1e-10)

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidParameterError, match="one row per trajectory"):
            alearn_stage_solve(np.ones((4, 1)), np.ones((4, 1)), np.zeros(4), np.full(3, 0.5), np.zeros(4))

    def test_actions_equal_propensity_singular(self):
        # pihat == a makes every contrast moment identically zero
        n = 40
        rng = np.random.default_rng(11)
        s1 = rng.normal(size=n)
        a1 = rng.integers(0, 2, size=n)
        xh = np.column_stack([np.ones(n), s1])
        xc = np.ones((n, 1))
        with pytest.raises(SingularSystemError):
            alearn_stage_solve(xh, xc, a1, a1.astype(float), s1)

    def test_unsolved_moment_equations_are_a_numerical_error(self, monkeypatch):
        ds, xh, xc, pi = _one_stage_data()
        monkeypatch.setattr(alearn, "MOMENT_TOL", 0.0)
        with pytest.raises(SingularSystemError, match="estimating equations not solved"):
            alearn_stage_solve(xh, xc, ds.actions[0], pi, ds.y, stage=1)

    def test_covariance_calibration(self):
        # model-based covariance tracks the Monte Carlo spread
        reps = 400
        n = 300
        psi_hats = np.empty((reps, 2))
        ses = np.empty((reps, 2))
        for r in range(reps):
            ds, xh, xc, pi = _one_stage_data(n=n, seed=1000 + r)
            fit = alearn_stage_solve(xh, xc, ds.actions[0], pi, ds.y)
            psi_hats[r] = fit.psi
            ses[r] = np.sqrt(np.diag(fit.psi_cov))
        ratio = ses.mean(axis=0) / psi_hats.std(axis=0, ddof=1)
        assert np.all(ratio > 0.85)
        assert np.all(ratio < 1.15)


class TestPropensityEval:
    def test_known_constant(self):
        ds, *_ = _one_stage_data(n=50)
        pihat, fit = propensity_eval(KnownPropensity(0.5), ds, 1)
        assert fit is None
        assert_allclose(pihat, np.full(50, 0.5))

    def test_logistic_fit_recovers_truth(self):
        params = OneDecisionParams()
        ds = gen_one_decision(params, 100_000, RngStream(77, 0))
        spec = scenario_registry("one_decision").working_specs()[0]
        pihat, fit = propensity_eval(spec.propensity, ds, 1)
        se = np.sqrt(np.diag(fit.covariance))
        assert np.all(np.abs(fit.coefficients - np.array([0.0, -2.0])) < 4.0 * se)
        assert pihat.shape == (ds.n,)
        assert np.all((pihat > 0.0) & (pihat < 1.0))

    def test_extreme_propensity_warns_but_does_not_clip(self):
        ds, *_ = _one_stage_data(n=30)
        extreme = KnownPropensity(lambda d, k: np.full(d.n, 1e-9))
        with pytest.warns(ExtremePropensityWarning, match="within 1e-06"):
            pihat, _ = propensity_eval(extreme, ds, 1)
        assert_allclose(pihat, np.full(30, 1e-9))

    def test_missing_propensity(self):
        ds, *_ = _one_stage_data(n=30)
        with pytest.raises(InvalidParameterError, match="no usable propensity"):
            propensity_eval(None, ds, 1)


class TestPseudoOutcome:
    def test_regret_correction_identity(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        contrast = np.array([0.5, -0.5, 0.5, -0.5])
        actions = np.array([1, 0, 0, 1])
        out = a_pseudo_outcome(v, contrast, actions)
        # matching rows unchanged; mismatches corrected by the contrast
        assert_allclose(out, [1.0, 2.0, 3.5, 4.5])

    def test_zero_contrast_is_no_op_for_untreated(self):
        out = a_pseudo_outcome(np.array([2.0, 2.0]), np.zeros(2), np.array([0, 1]))
        assert_allclose(out, [2.0, 2.0])


class TestAlearnFit:
    def test_requires_spec_per_stage(self):
        params = TwoDecisionParams()
        ds = gen_two_decision(params, 50, RngStream(1, 0))
        with pytest.raises(InvalidParameterError, match="one stage spec"):
            alearn_fit(ds, scenario_registry("two_decision").full_specs()[:1])

    def test_matches_qlearn_under_known_constant_propensity(self):
        # with a known propensity that is constant and an h-model containing
        # the constant, the stacked moments are the normal equations of the
        # same regression, so the two estimators coincide stage by stage
        n = 400
        rng = np.random.default_rng(31)
        s1 = rng.normal(size=n)
        a1 = rng.integers(0, 2, size=n)
        y = 1.0 + s1 + a1 * (1.0 + 0.5 * s1) + rng.normal(size=n)
        ds = Dataset((s1[:, None],), (a1,), y)
        spec_q = StageSpec.parse(h=["1", "s1"], c=["1", "s1"])
        spec_a = StageSpec.parse(h=["1", "s1", "a1"], c=["1", "s1"])
        # qlearn regression on [1, s1, a1, a1 s1] equals alearn with pihat
        # constant only when the designs span the same space; use the direct
        # stage solve for an exact algebraic comparison instead
        xh = np.column_stack([np.ones(n), s1])
        xc = np.column_stack([np.ones(n), s1])
        qfit = qlearn_fit(ds, (spec_q,)).stage_fits[0]
        # stack [x_h | a x_c] regression normal equations: X'(v - X theta)=0;
        # alearn moments with pihat = p are [(a-p) x_c ; x_h]'(v - X theta)=0,
        # a nonsingular linear combination of the same equations
        afit = alearn_stage_solve(xh, xc, a1, np.full(n, 0.37), y)
        assert_allclose(afit.psi, qfit.psi, atol=1e-8)
        assert_allclose(afit.beta, qfit.beta, atol=1e-8)

    def test_intercept_only_models(self):
        # h = c = propensity = ["1"]: every model matrix is a column of ones.
        # The fitted propensity is the treated share up to the IRLS
        # tolerance, and each stage solves a 2x2 system in that constant:
        # sum (a - pbar)(v - beta - a psi) = 0 and sum (v - beta - a psi) = 0.
        ds = gen_two_decision(TwoDecisionParams(), 200, RngStream(8, 0))
        specs = tuple(StageSpec.parse(h=["1"], c=["1"], propensity=["1"]) for _ in range(2))
        result = alearn_fit(ds, specs)
        v = ds.y
        for k in (2, 1):
            fit = result.stage_fits[k - 1]
            a = ds.actions[k - 1].astype(float)
            pbar = fit.pihat[0]
            assert_array_equal(fit.pihat, np.full(200, pbar))
            assert pbar == pytest.approx(a.mean(), rel=1e-7)
            m = np.array([[np.sum((a - pbar) * a), np.sum(a - pbar)], [np.sum(a), 200.0]])
            psi, beta = np.linalg.solve(m, [np.sum((a - pbar) * v), np.sum(v)])
            assert_allclose(fit.psi, [psi], rtol=1e-8)
            assert_allclose(fit.beta, [beta], rtol=1e-8)
            v = a_pseudo_outcome(v, np.full(200, fit.psi[0]), a)
        q = qlearn_fit(ds, specs).stage_fits[1]
        a2 = ds.actions[1].astype(bool)
        assert_allclose(q.psi, [ds.y[a2].mean() - ds.y[~a2].mean()], rtol=1e-10)

    def test_fewer_rows_than_parameters_is_singular(self):
        # G'X has rank at most n < p, so the stage system is singular: a
        # numerical failure, not a bad parameter.
        ds = gen_one_decision(OneDecisionParams(), 4, RngStream(1, 0))
        spec = StageSpec.parse(h=["1", "s1", "s1^2"], c=["1", "s1"], propensity=0.5)
        with pytest.raises(SingularSystemError, match="alearn stage 1"):
            alearn_fit(ds, (spec,))
        with pytest.raises(InvalidParameterError, match="need at least p=5 rows"):
            qlearn_fit(ds, (spec,))

    def test_two_stage_pipeline_consistency(self):
        params = TwoDecisionParams()
        ds = gen_two_decision(params, 100_000, RngStream(55, 0))
        result = alearn_fit(ds, scenario_registry("two_decision").full_specs())
        _, psi1_true = derive_stage1_truth(params)
        fit2, fit1 = result.stage_fits[1], result.stage_fits[0]
        se2 = np.sqrt(np.diag(fit2.psi_cov))
        se1 = np.sqrt(np.diag(fit1.psi_cov))
        assert np.all(np.abs(fit2.psi - np.asarray(params.psi2)) < 4.0 * se2)
        assert np.all(np.abs(fit1.psi - psi1_true) < 4.0 * se1)
        assert fit2.phi is not None and fit2.phi_cov is not None
        assert fit1.moment_inf_norm < 1e-8 * (1.0 + np.max(np.abs(fit1.v)))

    def test_double_robustness_wrong_outcome_model(self):
        # quadratic outcome mean, linear h-model, correct propensity model:
        # the contrast estimate stays consistent while the regression
        # estimator drifts
        params = OneDecisionParams(beta=(1.0, 1.0, 1.0))
        ds = gen_one_decision(params, 200_000, RngStream(91, 0))
        specs = scenario_registry("one_decision").working_specs()
        afit = alearn_fit(ds, specs).stage_fits[0]
        se = np.sqrt(np.diag(afit.psi_cov))
        assert np.all(np.abs(afit.psi - np.array([1.0, 0.5])) < 4.0 * se)
        qfit = qlearn_fit(ds, specs).stage_fits[0]
        assert np.abs(qfit.psi - np.array([1.0, 0.5])).max() > 0.05

    def test_double_robustness_wrong_propensity_model(self):
        # quadratic assignment law, linear propensity model, correct
        # outcome model: contrast still consistent
        params = OneDecisionParams(phi=(0.0, -2.0, 1.0))
        ds = gen_one_decision(params, 200_000, RngStream(92, 0))
        afit = alearn_fit(ds, scenario_registry("one_decision").working_specs()).stage_fits[0]
        se = np.sqrt(np.diag(afit.psi_cov))
        assert np.all(np.abs(afit.psi - np.array([1.0, 0.5])) < 4.0 * se)

    def test_regime_rules_carry_psi(self):
        params = TwoDecisionParams()
        ds = gen_two_decision(params, 2_000, RngStream(4, 0))
        result = alearn_fit(ds, scenario_registry("two_decision").full_specs())
        for k in (1, 2):
            assert_array_equal(result.regime.rules[k - 1].psi, result.stage_fits[k - 1].psi)
