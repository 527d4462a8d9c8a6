"""Scenario generators and their closed-form ground truth.

Moment checks run at large n with 4-sigma tolerances; closed-form stage-1
coefficients are checked against an independent quadrature oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from dtrkit.data import ArrayColumns
from dtrkit.errors import InvalidParameterError
from dtrkit.numerics import expit
from dtrkit.rng import RngStream
from dtrkit.scenarios import (
    MoodieParams,
    OneDecisionParams,
    TwoDecisionParams,
    derive_stage1_truth,
    gen_moodie,
    gen_one_decision,
    gen_two_decision,
    induced_q1_closed_form,
    scenario_names,
    scenario_params,
    scenario_registry,
    true_psi,
    true_regime,
)


class TestDefaults:
    def test_one_decision_defaults(self):
        p = OneDecisionParams()
        assert p.phi == (0.0, -2.0, 0.0)
        assert p.beta == (1.0, 1.0, 0.0)
        assert p.psi == (1.0, 0.5)
        assert p.y_var == 9.0

    def test_two_decision_defaults(self):
        p = TwoDecisionParams()
        assert p.phi1 == (0.3, -0.5)
        assert p.delta == (0.0, 0.5, -0.75, 0.25)
        assert p.s2_var == 2.0
        assert p.phi2 == (0.0, 0.5, 0.1, -1.0, -0.1, 0.0)
        assert p.beta2 == (3.0, 0.0, 0.1, -0.5, -0.5, 0.0)
        assert p.psi2 == (1.0, 0.25, 0.5)
        assert p.y_var == 10.0

    def test_moodie_defaults(self):
        p = MoodieParams()
        assert (p.s1_mean, p.s1_sd) == (450.0, 150.0)
        assert p.phi1 == (2.0, -0.006)
        assert (p.s2_coef, p.s2_sd) == (1.25, 60.0)
        assert p.phi2 == (0.8, -0.004)
        assert p.psi1 == (250.0, -1.0)
        assert p.psi2 == (720.0, -2.0)
        assert (p.yopt_intercept, p.yopt_slope, p.yopt_sd) == (400.0, 1.6, 60.0)

    def test_scenario_params_overrides(self):
        p = scenario_params("two_decision", beta2=(3.0, 0.0, 0.1, -0.5, -0.5, 1.0))
        assert p.beta2[5] == 1.0
        assert p.psi2 == (1.0, 0.25, 0.5)

    def test_scenario_params_unknown_key(self):
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            scenario_params("one_decision", sigma=2.0)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_scenario_params_check_each_override(self, data):
        # An override is accepted exactly when it has its default's shape in
        # finite real numbers (a variance or sd also > 0); it is then stored
        # as floats and survives dataclasses.replace.  Anything else raises
        # an error that names the field.
        name = data.draw(st.sampled_from(scenario_names()))
        field = data.draw(st.sampled_from(dataclasses.fields(scenario_registry(name).params_cls)))
        size = len(field.default) if isinstance(field.default, tuple) else 1
        finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers())
        entry = st.one_of(finite, st.floats(), st.integers(), st.booleans(), st.text(max_size=2))
        value = data.draw(
            st.one_of(
                finite,
                entry,
                st.lists(finite, min_size=size, max_size=size),
                st.lists(entry, min_size=size, max_size=size).map(tuple),
                st.lists(entry, max_size=size + 1),
                st.none(),
            )
        )

        def finite_real(v):
            if type(v) not in (int, float):
                return False
            try:
                return math.isfinite(float(v))
            except OverflowError:
                return False

        if isinstance(field.default, tuple):
            ok = isinstance(value, (list, tuple)) and len(value) == size
            ok = ok and all(map(finite_real, value))
            expected = tuple(float(v) for v in value) if ok else None
        else:
            ok = finite_real(value)
            ok = ok and (float(value) > 0.0 or not field.name.endswith(("_var", "_sd")))
            expected = float(value) if ok else None
        if not ok:
            with pytest.raises(InvalidParameterError, match=f"^{field.name} "):
                scenario_params(name, **{field.name: value})
            return
        params = scenario_params(name, **{field.name: value})
        stored = getattr(params, field.name)
        assert stored == expected
        assert type(stored) is type(expected)
        assert all(type(v) is float for v in (stored if isinstance(stored, tuple) else (stored,)))
        assert dataclasses.replace(params) == params
        assert dataclasses.replace(params, **{field.name: stored}) == params

    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameterError, match="unknown scenario"):
            scenario_registry("three_decision")

    def test_registry_shapes(self):
        assert scenario_registry("one_decision").n_stages == 1
        assert scenario_registry("one_decision").state_dims == (1,)
        assert scenario_registry("two_decision").n_stages == 2
        assert scenario_registry("moodie").state_dims == (1, 1)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize(
        "gen,params",
        [
            (gen_one_decision, OneDecisionParams()),
            (gen_two_decision, TwoDecisionParams()),
            (gen_moodie, MoodieParams()),
        ],
    )
    def test_reproducible(self, gen, params):
        a = gen(params, 50, RngStream(11, 3))
        b = gen(params, 50, RngStream(11, 3))
        for sa, sb in zip(a.states, b.states):
            assert_array_equal(sa, sb)
        for aa, ab in zip(a.actions, b.actions):
            assert_array_equal(aa, ab)
        assert_array_equal(a.y, b.y)
        c = gen(params, 50, RngStream(11, 4))
        assert not np.array_equal(c.y, b.y)

    @pytest.mark.parametrize(
        "gen,params",
        [
            (gen_one_decision, OneDecisionParams()),
            (gen_two_decision, TwoDecisionParams()),
            (gen_moodie, MoodieParams()),
        ],
    )
    def test_prefix_stable_in_n(self, gen, params):
        # growing n extends a run without changing the rows already drawn
        small = gen(params, 40, RngStream(7, 0))
        big = gen(params, 100, RngStream(7, 0))
        for ss, sb in zip(small.states, big.states):
            assert_array_equal(ss, sb[:40])
        for as_, ab in zip(small.actions, big.actions):
            assert_array_equal(as_, ab[:40])
        assert_array_equal(small.y, big.y[:40])

    def test_n_zero(self):
        ds = gen_one_decision(OneDecisionParams(), 0, RngStream(1, 0))
        assert ds.n == 0

    def test_variance_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="y_var"):
            gen_one_decision(OneDecisionParams(y_var=0.0), 5, RngStream(1, 0))
        with pytest.raises(InvalidParameterError, match="s2_var"):
            gen_two_decision(TwoDecisionParams(s2_var=-1.0), 5, RngStream(1, 0))
        with pytest.raises(InvalidParameterError, match="s1_sd"):
            gen_moodie(MoodieParams(s1_sd=0.0), 5, RngStream(1, 0))


class TestGeneratorMoments:
    # Sample-variance SE for normal data is var * sqrt(2/n); tolerances
    # below are ~4 sigma, which also kills any sd-vs-variance mixup.

    def test_one_decision_moments(self):
        n = 200_000
        params = OneDecisionParams()
        ds = gen_one_decision(params, n, RngStream(101, 0))
        s1 = ds.states[0][:, 0]
        assert abs(s1.mean()) < 4.0 / np.sqrt(n)
        assert abs(s1.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)
        # propensity wiring: a1 centered at expit(phi' basis) given s1
        pi = expit(-2.0 * s1)
        se = np.sqrt(np.sum(pi * (1.0 - pi))) / n
        assert abs(ds.actions[0].mean() - pi.mean()) < 4.0 * se
        # y_var is a variance, not an sd
        eps = ds.y - (1.0 + s1 + ds.actions[0] * (1.0 + 0.5 * s1))
        assert abs(eps.mean()) < 4.0 * 3.0 / np.sqrt(n)
        assert abs(eps.var(ddof=1) - 9.0) < 4.0 * 9.0 * np.sqrt(2.0 / n)

    def test_two_decision_moments(self):
        n = 200_000
        params = TwoDecisionParams()
        ds = gen_two_decision(params, n, RngStream(102, 0))
        s1 = ds.states[0][:, 0]
        a1 = ds.actions[0]
        s2 = ds.states[1][:, 0]
        a2 = ds.actions[1]
        assert set(np.unique(s1)) == {0.0, 1.0}
        assert abs(s1.mean() - 0.5) < 4.0 * 0.5 / np.sqrt(n)
        pi1 = expit(0.3 - 0.5 * s1)
        assert abs(a1.mean() - pi1.mean()) < 4.0 * 0.5 / np.sqrt(n)
        # intermediate state: mean from delta, variance s2_var
        resid2 = s2 - (0.5 * s1 - 0.75 * a1 + 0.25 * s1 * a1)
        assert abs(resid2.mean()) < 4.0 * np.sqrt(2.0 / n)
        assert abs(resid2.var(ddof=1) - 2.0) < 4.0 * 2.0 * np.sqrt(2.0 / n)
        pi2 = expit(0.5 * s1 + 0.1 * a1 - 1.0 * s2 - 0.1 * a1 * s2)
        assert abs(a2.mean() - pi2.mean()) < 4.0 * 0.5 / np.sqrt(n)
        h2 = 3.0 + 0.1 * a1 - 0.5 * s1 * a1 - 0.5 * s2
        c2 = 1.0 + 0.25 * a1 + 0.5 * s2
        eps = ds.y - (h2 + a2 * c2)
        assert abs(eps.var(ddof=1) - 10.0) < 4.0 * 10.0 * np.sqrt(2.0 / n)

    def test_moodie_moments(self):
        n = 200_000
        params = MoodieParams()
        ds = gen_moodie(params, n, RngStream(103, 0))
        s1 = ds.states[0][:, 0]
        s2 = ds.states[1][:, 0]
        assert abs(s1.mean() - 450.0) < 4.0 * 150.0 / np.sqrt(n)
        assert abs(s1.std(ddof=1) - 150.0) < 4.0 * 150.0 / np.sqrt(2.0 * n)
        resid2 = s2 - 1.25 * s1
        assert abs(resid2.mean()) < 4.0 * 60.0 / np.sqrt(n)
        assert abs(resid2.std(ddof=1) - 60.0) < 4.0 * 60.0 / np.sqrt(2.0 * n)
        pi1 = expit(2.0 - 0.006 * s1)
        assert abs(ds.actions[0].mean() - pi1.mean()) < 4.0 * 0.5 / np.sqrt(n)
        pi2 = expit(0.8 - 0.004 * s2)
        assert abs(ds.actions[1].mean() - pi2.mean()) < 4.0 * 0.5 / np.sqrt(n)

    def test_moodie_outcome_identity(self):
        # reconstruct the latent optimal outcome from its own substream and
        # verify y = yopt - regret1 - regret2 bit-for-bit
        n = 500
        params = MoodieParams()
        ds = gen_moodie(params, n, RngStream(104, 9))
        s1 = ds.states[0][:, 0]
        s2 = ds.states[1][:, 0]
        yopt = RngStream(104, 9).substream(4).normal(
            n, loc=params.yopt_intercept + params.yopt_slope * s1, scale=params.yopt_sd
        )
        c1 = 250.0 - s1
        c2 = 720.0 - 2.0 * s2
        expected = (
            yopt
            - c1 * ((c1 > 0.0) - ds.actions[0])
            - c2 * ((c2 > 0.0) - ds.actions[1])
        )
        assert_array_equal(ds.y, expected)


def _q1_quadrature(params, s1, a1):
    """Oracle for the true stage-1 value: integrate the optimal stage-2
    outcome over the intermediate state's normal law."""
    d = np.asarray(params.delta)
    b2 = np.asarray(params.beta2)
    p2 = np.asarray(params.psi2)
    mu = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
    sd = np.sqrt(params.s2_var)

    def integrand(s2):
        h = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
        c = p2[0] + p2[1] * a1 + p2[2] * s2
        return (h + max(0.0, c)) * stats.norm.pdf(s2, mu, sd)

    lo, hi = mu - 12.0 * sd, mu + 12.0 * sd
    # split at the contrast kink so the error estimate is trustworthy
    kink = [-(p2[0] + p2[1] * a1) / p2[2]] if p2[2] != 0.0 and lo < -(p2[0] + p2[1] * a1) / p2[2] < hi else None
    value, err = integrate.quad(
        integrand, lo, hi, limit=200, points=kink, epsabs=1e-11, epsrel=1e-11
    )
    assert err < 1e-9
    return value


def _stage1_truth_quadrature(params):
    q = {(s, a): _q1_quadrature(params, s, a) for s in (0.0, 1.0) for a in (0.0, 1.0)}
    beta1 = np.array([q[(0.0, 0.0)], q[(1.0, 0.0)] - q[(0.0, 0.0)]])
    psi1 = np.array(
        [
            q[(0.0, 1.0)] - q[(0.0, 0.0)],
            q[(1.0, 1.0)] - q[(1.0, 0.0)] - q[(0.0, 1.0)] + q[(0.0, 0.0)],
        ]
    )
    return beta1, psi1


class TestStage1Truth:
    def test_default_values(self):
        beta1, psi1 = derive_stage1_truth(TwoDecisionParams())
        assert_allclose(beta1, [4.02512727, -0.01418441], atol=5e-8)
        assert_allclose(psi1, [0.36159183, -0.51159183], atol=5e-8)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"beta2": (3.0, 0.0, 0.1, -0.5, -0.5, 1.0)},
            {"beta2": (3.0, 0.0, 0.1, -0.5, -0.5, -0.6)},
            {"psi2": (1.0, 0.25, 0.0)},
            {"psi2": (0.4, -0.3, -0.5)},
            {"delta": (0.2, -0.4, 0.6, -0.1), "s2_var": 0.5},
            {"psi2": (2.0, 1.0, 1.5), "s2_var": 4.0},
        ],
    )
    def test_matches_quadrature(self, overrides):
        params = scenario_params("two_decision", **overrides)
        beta1, psi1 = derive_stage1_truth(params)
        beta1_q, psi1_q = _stage1_truth_quadrature(params)
        assert_allclose(beta1, beta1_q, atol=1e-7)
        assert_allclose(psi1, psi1_q, atol=1e-7)


class TestInducedQ1:
    def test_matches_monte_carlo(self):
        beta21 = (3.0, -0.2, 0.1)
        psi21 = (1.0, 0.3, 0.25)
        gamma = (0.1, 0.5, -0.75)
        cases = [(0.0, 0.0), (1.0, 0.0), (0.4, 1.0), (-2.0, 1.0)]
        rng = np.random.default_rng(2024)
        for s1, a1 in cases:
            value = induced_q1_closed_form(s1, a1, beta21, -0.5, psi21, 0.5, gamma, 1.3)
            k = np.array([1.0, s1, a1])
            m = 400_000
            s2 = rng.normal(k @ np.asarray(gamma), 1.3, size=m)
            draws = k @ np.asarray(beta21) - 0.5 * s2 + np.maximum(
                0.0, k @ np.asarray(psi21) + 0.5 * s2
            )
            assert abs(value - draws.mean()) < 4.0 * draws.std(ddof=1) / np.sqrt(m)

    def test_requires_positive_slope_and_sd(self):
        with pytest.raises(InvalidParameterError, match="psi22"):
            induced_q1_closed_form(0.0, 0.0, (0.0,) * 3, 0.0, (0.0,) * 3, 0.0, (0.0,) * 3, 1.0)
        with pytest.raises(InvalidParameterError, match="sigma"):
            induced_q1_closed_form(0.0, 0.0, (0.0,) * 3, 0.0, (0.0,) * 3, 1.0, (0.0,) * 3, 0.0)


class TestTruthHelpers:
    def test_true_psi_one_decision(self):
        (psi,) = true_psi(OneDecisionParams())
        assert_allclose(psi, [1.0, 0.5])

    def test_true_psi_two_decision(self):
        psi1, psi2 = true_psi(TwoDecisionParams())
        assert_allclose(psi2, [1.0, 0.25, 0.5])
        assert_allclose(psi1, derive_stage1_truth(TwoDecisionParams())[1])

    def test_true_psi_moodie(self):
        psi1, psi2 = true_psi(MoodieParams())
        assert_allclose(psi1, [250.0, -1.0])
        assert_allclose(psi2, [720.0, -2.0])

    def test_true_psi_unknown(self):
        with pytest.raises(InvalidParameterError):
            true_psi(object())

    def test_true_regime_features_and_boundary(self):
        regime = true_regime(MoodieParams())
        assert regime.n_stages == 2
        assert regime.rules[0].c_features.names() == ["1", "s1_1"]
        assert regime.rules[1].c_features.names() == ["1", "s2_1"]
        # The thresholds sit at s1 = 250 and s2 = 360; a zero contrast does not treat.
        s1 = np.array([[240.0], [250.0], [240.0], [240.0]])
        s2 = np.array([[300.0], [300.0], [360.0], [400.0]])
        cols = ArrayColumns(4, {1: s1, 2: s2}, {1: np.ones(4)})
        assert_array_equal(regime.actions(1, cols), [1, 0, 1, 1])
        assert_array_equal(regime.actions(2, cols), [1, 1, 0, 0])

    def test_true_regime_two_decision_rule_features(self):
        regime = true_regime(TwoDecisionParams())
        assert regime.rules[1].c_features.names() == ["1", "a1", "s2_1"]


class TestSpecHelpers:
    def test_working_specs_shapes(self):
        (spec,) = scenario_registry("one_decision").working_specs()
        assert spec.h_features.names() == ["1", "s1_1"]
        assert spec.c_features.names() == ["1", "s1_1"]
        specs2 = scenario_registry("two_decision").working_specs()
        assert specs2[1].c_features.names() == ["1", "a1", "s2_1"]
        specsm = scenario_registry("moodie").working_specs()
        assert specsm[1].c_features.names() == ["1", "s2_1"]

    def test_full_specs_add_quadratics(self):
        (spec,) = scenario_registry("one_decision").full_specs()
        assert "s1_1^2" in spec.h_features.names()
        assert "s1_1^2" in spec.propensity.features.names()
        specs2 = scenario_registry("two_decision").full_specs()
        assert "s2_1^2" in specs2[1].h_features.names()
        assert "s2_1^2" in specs2[1].propensity.features.names()
