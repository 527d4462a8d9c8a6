"""Backward-recursion regression estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dtrkit.data import Dataset, StageSpec
from dtrkit.errors import InvalidParameterError, SingularSystemError
from dtrkit.qlearn import q_pseudo_outcome, qlearn_fit
from dtrkit.rng import RngStream
from dtrkit.scenarios import (
    TwoDecisionParams,
    derive_stage1_truth,
    gen_two_decision,
    scenario_registry,
)

WORKING = scenario_registry("two_decision").working_specs()


def _noiseless_two_stage(n=60, seed=5):
    """Two-stage data whose outcome follows the working model exactly."""
    rng = np.random.default_rng(seed)
    s1 = rng.normal(size=n)
    a1 = rng.integers(0, 2, size=n)
    s2 = rng.normal(size=n) + 0.5 * s1
    a2 = rng.integers(0, 2, size=n)
    beta2 = np.array([3.0, 0.2, -0.4, 0.1, -0.5])
    psi2 = np.array([1.0, 0.25, 0.5])
    h2 = np.column_stack([np.ones(n), s1, a1, s1 * a1, s2]) @ beta2
    c2 = np.column_stack([np.ones(n), a1, s2]) @ psi2
    y = h2 + a2 * c2
    ds = Dataset((s1[:, None], s2[:, None]), (a1, a2), y)
    return ds, beta2, psi2


def _one_stage(s1, a1, y):
    return Dataset((np.asarray(s1, dtype=float)[:, None],), (np.asarray(a1, dtype=np.int64),), y)


class TestStageFit:
    # A stage fit is least squares of its response on [x_h | a * x_c]; the
    # last stage of qlearn_fit fits the outcome itself.
    def test_noiseless_exact_recovery(self):
        ds, beta2, psi2 = _noiseless_two_stage()
        fit = qlearn_fit(ds, WORKING).stage_fits[1]
        assert fit.stage == 2
        assert fit.n_used == ds.n
        assert_allclose(fit.beta, beta2, atol=1e-10)
        assert_allclose(fit.psi, psi2, atol=1e-10)
        assert_allclose(fit.residuals, np.zeros(ds.n), atol=1e-9)

    def test_matches_plain_lstsq(self):
        # the stacked design [x_h | a x_c] is just a regression design
        rng = np.random.default_rng(17)
        n = 80
        s1 = rng.normal(size=n)
        a = rng.integers(0, 2, size=n).astype(float)
        v = rng.normal(size=n)
        spec = StageSpec.parse(h=["1", "s1"], c=["1"])
        fit = qlearn_fit(_one_stage(s1, a, v), (spec,)).stage_fits[0]
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(n), s1, a]), v, rcond=None)
        assert_allclose(np.concatenate([fit.beta, fit.psi]), coef, atol=1e-10)

    def test_all_zero_actions_singular(self):
        # nobody treated: the contrast column is identically zero
        n = 30
        spec = StageSpec.parse(h=["1"], c=["1"])
        with pytest.raises(SingularSystemError):
            qlearn_fit(_one_stage(np.zeros(n), np.zeros(n), np.arange(n, dtype=float)), (spec,))

    def test_row_count_mismatch(self):
        # a stage reads its design, actions and response from one Dataset,
        # which refuses rows of unequal count before any fit
        with pytest.raises(InvalidParameterError, match="length n"):
            _one_stage(np.zeros(4), np.zeros(3), np.zeros(4))
        with pytest.raises(InvalidParameterError, match=r"\(n, d_1\)"):
            _one_stage(np.zeros(4), np.zeros(4), np.zeros(5))

    def test_pseudo_outcome_identity(self):
        ds, beta2, psi2 = _noiseless_two_stage()
        spec = WORKING[1]
        from dtrkit.data import build_design

        xh = build_design(ds, 2, spec.h_features)
        xc = build_design(ds, 2, spec.c_features)
        fit = qlearn_fit(ds, WORKING).stage_fits[1]
        v = q_pseudo_outcome(fit, xh, xc)
        assert_allclose(v, xh @ fit.beta + np.maximum(xc @ fit.psi, 0.0))
        assert np.all(v >= xh @ fit.beta - 1e-12)


class TestQlearnFit:
    def test_noiseless_pipeline_recovers_stage2(self):
        ds, beta2, psi2 = _noiseless_two_stage()
        result = qlearn_fit(ds, WORKING)
        assert_allclose(result.stage_fits[1].psi, psi2, atol=1e-9)
        assert len(result.stage_fits) == 2
        assert result.regime.n_stages == 2

    def test_regime_uses_fitted_psi(self):
        ds, _, _ = _noiseless_two_stage()
        result = qlearn_fit(ds, WORKING)
        for k in (1, 2):
            rule = result.regime.rules[k - 1]
            assert_array_equal(rule.psi, result.stage_fits[k - 1].psi)
            assert rule.c_features is WORKING[k - 1].c_features or (
                rule.c_features.names() == WORKING[k - 1].c_features.names()
            )

    def test_spec_count_checked(self):
        ds, _, _ = _noiseless_two_stage()
        with pytest.raises(InvalidParameterError, match="one stage spec"):
            qlearn_fit(ds, WORKING[:1])

    def test_large_sample_consistency(self):
        # correct models: both stages' contrasts converge to the truth
        params = TwoDecisionParams()
        ds = gen_two_decision(params, 100_000, RngStream(42, 0))
        result = qlearn_fit(ds, scenario_registry("two_decision").full_specs())
        _, psi1_true = derive_stage1_truth(params)
        psi2_hat = result.stage_fits[1].psi
        se2 = np.sqrt(np.diag(result.stage_fits[1].psi_cov))
        assert np.all(np.abs(psi2_hat - np.asarray(params.psi2)) < 4.0 * se2)
        psi1_hat = result.stage_fits[0].psi
        se1 = np.sqrt(np.diag(result.stage_fits[0].psi_cov))
        assert np.all(np.abs(psi1_hat - psi1_true) < 4.0 * se1)
