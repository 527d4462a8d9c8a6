"""Regime values (closed form and simulated) and the study driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from dtrkit.data import DecisionRule, FeatureMap, Regime
from dtrkit.errors import InvalidParameterError, StudyError
from dtrkit.evaluate import (
    StudyConfig,
    _threshold_stats,
    _within_sd,
    regime_value_analytic,
    run_mc_study,
    value_gcomputation,
)
from dtrkit import alearn, evaluate
from dtrkit.alearn import alearn_fit
from dtrkit.qlearn import qlearn_fit
from dtrkit.rng import RngStream, make_stream
from dtrkit.scenarios import (
    MoodieParams,
    OneDecisionParams,
    TwoDecisionParams,
    _linear_indicator_mean,
    gen_one_decision,
    scenario_registry,
    true_psi,
    true_regime,
)


def _indicator_mean_quad(c0, c1, r0, r1, mu, sd):
    def integrand(x):
        return (c0 + c1 * x) * (r0 + r1 * x > 0.0) * stats.norm.pdf(x, mu, sd)

    kink = [-r0 / r1] if r1 != 0.0 and abs(-r0 / r1 - mu) < 12.0 * sd else None
    value, err = integrate.quad(
        integrand, mu - 12.0 * sd, mu + 12.0 * sd,
        points=kink, limit=200, epsabs=1e-11, epsrel=1e-11,
    )
    assert err < 1e-8
    return value


def _regime_for(params, psi_list) -> Regime:
    if isinstance(params, OneDecisionParams):
        maps = [["1", "s1"]]
    elif isinstance(params, TwoDecisionParams):
        maps = [["1", "s1"], ["1", "a1", "s2"]]
    else:
        maps = [["1", "s1"], ["1", "s2"]]
    rules = tuple(
        DecisionRule(FeatureMap.parse(m), np.asarray(p, dtype=float))
        for m, p in zip(maps, psi_list)
    )
    return Regime(rules)


class TestLinearIndicatorMean:
    @pytest.mark.parametrize(
        "c0,c1,r0,r1,mu,sd",
        [
            (1.0, 0.5, 1.0, 0.5, 0.0, 1.0),
            (1.0, 0.5, -2.0, 1.0, 0.0, 1.0),
            (0.3, -1.2, 0.4, -0.7, 1.5, 2.0),
            (-1.0, 2.0, 3.0, 0.25, -2.0, 0.5),
            (2.0, 0.0, -0.5, 1.0, 0.0, 3.0),
        ],
    )
    def test_matches_quadrature(self, c0, c1, r0, r1, mu, sd):
        got = _linear_indicator_mean(c0, c1, r0, r1, mu, sd)
        assert got == pytest.approx(_indicator_mean_quad(c0, c1, r0, r1, mu, sd), abs=1e-9)

    def test_zero_slope_rule(self):
        # constant rule: treats everyone iff r0 > 0, strictly
        assert _linear_indicator_mean(1.0, 0.5, 2.0, 0.0, 0.3, 1.0) == pytest.approx(1.15)
        assert _linear_indicator_mean(1.0, 0.5, 0.0, 0.0, 0.3, 1.0) == 0.0
        assert _linear_indicator_mean(1.0, 0.5, -2.0, 0.0, 0.3, 1.0) == 0.0


class TestAnalyticValues:
    def test_one_decision_optimal_value_frozen(self):
        h_opt = regime_value_analytic(OneDecisionParams(), [[1.0, 0.5]])
        assert h_opt == pytest.approx(2.0042453513084148, abs=1e-12)

    def test_one_decision_optimality(self):
        params = OneDecisionParams()
        h_opt = regime_value_analytic(params, [[1.0, 0.5]])
        rng = np.random.default_rng(6)
        for _ in range(50):
            psi = np.array([1.0, 0.5]) + rng.normal(scale=0.8, size=2)
            assert regime_value_analytic(params, [psi]) <= h_opt + 1e-12

    def test_two_decision_optimality(self):
        params = TwoDecisionParams()
        psi1, psi2 = true_psi(params)
        h_opt = regime_value_analytic(params, [psi1, psi2])
        rng = np.random.default_rng(7)
        for _ in range(50):
            p1 = psi1 + rng.normal(scale=0.5, size=2)
            p2 = psi2 + rng.normal(scale=0.5, size=3)
            assert regime_value_analytic(params, [p1, p2]) <= h_opt + 1e-12

    def test_moodie_optimal_value_exact(self):
        # with both rules equal to the truth there is no regret anywhere
        h = regime_value_analytic(MoodieParams(), [[250.0, -1.0], [720.0, -2.0]])
        assert h == pytest.approx(400.0 + 1.6 * 450.0, abs=1e-9)

    def test_moodie_wrong_rule_loses_value(self):
        params = MoodieParams()
        h_opt = regime_value_analytic(params, [[250.0, -1.0], [720.0, -2.0]])
        assert regime_value_analytic(params, [[-250.0, 1.0], [720.0, -2.0]]) < h_opt - 10.0
        assert regime_value_analytic(params, [[250.0, -1.0], [500.0, -2.0]]) < h_opt

    def test_dispatch(self):
        params = OneDecisionParams()
        assert regime_value_analytic(params, [np.array([1.0, 0.5])]) == pytest.approx(
            scenario_registry("one_decision").value(params, [[1.0, 0.5]])
        )
        with pytest.raises(InvalidParameterError, match="unknown scenario"):
            regime_value_analytic(object(), [np.zeros(2)])


# Rules every stacked closed form meets, per scenario and stage: zero slopes
# with positive, zero and negative intercepts, and contrasts that are exactly
# zero at a support point or at the state mean (ties of the cut).
_SPECIAL_RULES = {
    "one_decision": [[(1.0, 0.0)], [(0.0, 0.0)], [(-1.0, 0.0)], [(0.0, 1.0)], [(0.0, -1.0)]],
    "two_decision": [
        [(1.0, 0.0), (1.0, 0.0, 0.0)],
        [(0.0, 0.0), (0.0, 0.0, 0.0)],
        [(-1.0, 0.0), (-1.0, 0.0, 0.0)],
        [(0.0, 1.0), (0.0, 0.5, 0.0)],
        [(-1.0, 1.0), (-0.5, 0.5, 0.0)],
        [(1.0, -1.0), (0.0, 0.0, 1.0)],
    ],
    "moodie": [
        [(1.0, 0.0), (1.0, 0.0)],
        [(0.0, 0.0), (0.0, 0.0)],
        [(-1.0, 0.0), (-1.0, 0.0)],
        [(450.0, -1.0), (562.5, -1.0)],
        [(-450.0, 1.0), (0.0, 1.0)],
    ],
}
_COEF_SCALE = {"one_decision": 3.0, "two_decision": 3.0, "moodie": 1000.0}


@st.composite
def _rule_stacks(draw, name):
    """Per-stage (R, p_k) stacks: random rows, the special rules, the truth
    and twice the truth (the same cuts), in random order, some rows NaN."""
    definition = scenario_registry(name)
    truth = [np.asarray(p) for p in definition.truth(definition.params_cls())]
    coef = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 0.5]),
        st.floats(-_COEF_SCALE[name], _COEF_SCALE[name], allow_subnormal=False),
    )
    sizes = [len(features) for features in definition.rules]
    rows = [
        [np.asarray(draw(st.lists(coef, min_size=p, max_size=p))) for p in sizes]
        for _ in range(draw(st.integers(0, 6)))
    ]
    rows += [[np.asarray(p, dtype=float) for p in rule] for rule in _SPECIAL_RULES[name]]
    rows += [truth, [2.0 * p for p in truth]]
    rows = draw(st.permutations(rows))
    nan = np.asarray(draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))))
    stages = [np.stack([row[k] for row in rows]) for k in range(definition.n_stages)]
    for block in stages:
        block[nan] = np.nan
    return stages, nan


class TestStackedValues:
    @pytest.mark.parametrize("name", ["one_decision", "two_decision", "moodie"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_equal_rules_alone(self, name, data):
        stages, nan = data.draw(_rule_stacks(name))
        definition = scenario_registry(name)
        params = definition.params_cls()
        h_opt = definition.value(params, definition.truth(params))
        stacked = definition.value(params, stages)
        assert stacked.shape == nan.shape
        for r in range(nan.size):
            alone = definition.value(params, [block[r : r + 1] for block in stages])
            assert alone.tobytes() == stacked[r : r + 1].tobytes()
            plain = definition.value(params, [block[r] for block in stages])
            assert isinstance(plain, float)
            assert np.float64(plain).tobytes() == alone.tobytes()
        assert np.all(np.isnan(stacked[nan]))
        assert np.all(stacked[~nan] <= h_opt + 1e-12)

    @pytest.mark.parametrize("name", ["one_decision", "two_decision", "moodie"])
    def test_truth_row_has_the_optimal_value(self, name):
        definition = scenario_registry(name)
        params = definition.params_cls()
        truth = definition.truth(params)
        h_opt = definition.value(params, truth)
        stacked = definition.value(params, [np.stack([p, 2.0 * p, -p]) for p in truth])
        assert abs(stacked[0] - h_opt) <= 1e-12
        assert abs(stacked[1] - h_opt) <= 1e-12
        assert stacked[2] < h_opt


class TestGcomputation:
    @pytest.mark.parametrize(
        "params,psi_list",
        [
            (OneDecisionParams(), [[1.0, 0.5]]),
            (OneDecisionParams(beta=(1.0, 1.0, 0.8)), [[0.3, -0.7]]),
            (TwoDecisionParams(), "true"),
            (TwoDecisionParams(beta2=(3.0, 0.0, 0.1, -0.5, -0.5, 0.4)), [[0.2, 0.3], [0.5, -0.25, 0.75]]),
            (MoodieParams(), [[250.0, -1.0], [600.0, -1.5]]),
        ],
    )
    def test_matches_analytic(self, params, psi_list):
        if psi_list == "true":
            psi_list = [p.tolist() for p in true_psi(params)]
        regime = _regime_for(params, psi_list)
        value, se = value_gcomputation(params, regime, 200_000, RngStream(314, 0))
        target = regime_value_analytic(params, [np.asarray(p) for p in psi_list])
        assert abs(value - target) < 4.0 * se

    def test_single_draw_has_no_se(self):
        value, se = value_gcomputation(
            OneDecisionParams(), _regime_for(OneDecisionParams(), [[1.0, 0.5]]), 1, RngStream(1, 0)
        )
        assert se is None
        assert np.isfinite(value)

    def test_se_scales_with_draws(self):
        regime = _regime_for(OneDecisionParams(), [[1.0, 0.5]])
        _, se_small = value_gcomputation(OneDecisionParams(), regime, 4_000, RngStream(2, 0))
        _, se_big = value_gcomputation(OneDecisionParams(), regime, 64_000, RngStream(2, 1))
        assert se_small / se_big == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize(
        "name,psi_a,psi_b",
        [
            ("one_decision", [[0.3, -0.7]], [[1.0, 0.0]]),
            ("two_decision", [[0.1, -1.0], [0.5, 0.2, -0.3]], [[0.3, 0.2], [1.0, 0.25, 0.5]]),
            ("moodie", [[200.0, -0.9], [600.0, -1.8]], [[250.0, -1.0], [1.0, 0.0]]),
        ],
    )
    @pytest.mark.parametrize("n_draws", [1, 777])
    def test_stacked_regime_rows_equal_each_regime_alone(self, name, psi_a, psi_b, n_draws):
        definition = scenario_registry(name)
        params = definition.params_cls()
        stacked = definition.regime([np.stack([a, b]) for a, b in zip(psi_a, psi_b)])
        values, ses = value_gcomputation(params, stacked, n_draws, RngStream(41, 5).substream(8))
        assert values.shape == (2,)
        for row, psi_list in enumerate((psi_a, psi_b)):
            regime = definition.regime([np.asarray(p) for p in psi_list])
            value, se = value_gcomputation(params, regime, n_draws, RngStream(41, 5).substream(8))
            assert np.float64(value).tobytes() == values[row].tobytes()
            if n_draws == 1:
                assert se is None and ses is None
            else:
                assert np.float64(se).tobytes() == ses[row].tobytes()

    def test_validation(self):
        regime = _regime_for(OneDecisionParams(), [[1.0, 0.5]])
        with pytest.raises(InvalidParameterError, match="n_draws"):
            value_gcomputation(OneDecisionParams(), regime, 0, RngStream(1, 0))
        with pytest.raises(InvalidParameterError, match="unknown scenario"):
            value_gcomputation(object(), regime, 10, RngStream(1, 0))


class TestDiagnostics:
    def test_within_sd_examples(self):
        assert _within_sd(np.array([0.4, 0.6])) == pytest.approx(0.1414213562373095)
        assert _within_sd(np.full(5, 0.3)) == 0.0
        assert _within_sd(np.array([0.5])) == 0.0

    def test_threshold_stats(self):
        block = np.array([[2.0, -1.0], [4.0, -2.0], [3.0, -1.0]])
        mean, se = _threshold_stats(block)
        thr = np.array([2.0, 2.0, 3.0])
        assert mean == pytest.approx(thr.mean())
        assert se == pytest.approx(thr.std(ddof=1) / np.sqrt(3))
        mean0, se0 = _threshold_stats(np.array([[1.0, 0.0]]))
        assert np.isnan(mean0) and np.isnan(se0)


class TestStudyConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameterError, match="unknown scenario"):
            StudyConfig("three_decision").resolve()

    def test_params_type_checked(self):
        with pytest.raises(InvalidParameterError, match="OneDecisionParams"):
            StudyConfig("one_decision", params=TwoDecisionParams()).resolve()

    def test_counts_positive(self):
        with pytest.raises(InvalidParameterError, match=">= 1"):
            StudyConfig("one_decision", n=0).resolve()
        with pytest.raises(InvalidParameterError, match=">= 1"):
            StudyConfig("one_decision", reps=0).resolve()
        with pytest.raises(InvalidParameterError, match="threads"):
            StudyConfig("one_decision", threads=0).resolve()

    def test_estimator_names_checked(self):
        with pytest.raises(InvalidParameterError, match="estimators"):
            StudyConfig("one_decision", estimators=("zlearn",)).resolve()
        with pytest.raises(InvalidParameterError, match="estimators"):
            StudyConfig("one_decision", estimators=()).resolve()

    def test_value_method_checked(self):
        with pytest.raises(InvalidParameterError, match="value_method"):
            StudyConfig("one_decision", value_method="exact").resolve()

    def test_spec_count_checked(self):
        specs = tuple(scenario_registry("one_decision").working_specs())
        with pytest.raises(InvalidParameterError, match="one stage spec"):
            StudyConfig("two_decision", specs=specs).resolve()

    def test_contrast_features_must_be_canonical(self):
        from dtrkit.data import StageSpec

        bad = (StageSpec.parse(h=["1", "s1"], c=["1"], propensity=["1", "s1"]),)
        with pytest.raises(InvalidParameterError, match="match the scenario rules"):
            run_mc_study(StudyConfig("one_decision", specs=bad, reps=2, n=50))


class TestRunStudy:
    def test_small_study_summaries(self):
        config = StudyConfig("one_decision", n=100, reps=50, master_seed=77)
        res = run_mc_study(config)
        assert res.psi_labels == ["psi1_0", "psi1_1"]
        assert res.h_opt == pytest.approx(2.0042453513084148)
        assert set(res.summaries) == {"qlearn", "alearn"}
        for est, s in res.summaries.items():
            ok = ~res.failed[est]
            block = res.psi_rep[est][ok]
            assert s.n_included == ok.sum()
            assert_allclose(s.mean_psi, block.mean(axis=0))
            assert_allclose(s.bias_psi, s.mean_psi - res.psi_true)
            assert_allclose(s.mse_psi, ((block - res.psi_true) ** 2).mean(axis=0))
            assert_allclose(s.value_mean, res.value_rep[est][ok].mean())
            assert_allclose(s.r_mean, s.value_mean / res.h_opt)
            assert_allclose(s.r_median, np.median(res.value_rep[est][ok]) / res.h_opt)
            # estimated regimes can never beat the optimal one
            assert np.all(res.value_rep[est][ok] <= res.h_opt + 1e-9)
            # two-coefficient stage rule: threshold summary present
            thr = -block[:, 0] / block[:, 1]
            assert s.threshold_mean[1] == pytest.approx(thr.mean())
        assert_allclose(
            res.mse_ratio, res.summaries["alearn"].mse_psi / res.summaries["qlearn"].mse_psi
        )
        assert res.mse_ratio_se is not None and np.all(res.mse_ratio_se > 0)
        assert res.propensity_sd[1] > 0.05
        assert res.propensity_sd_se[1] > 0.0

    def test_reps_one(self):
        res = run_mc_study(StudyConfig("one_decision", n=200, reps=1, master_seed=3))
        s = res.summaries["qlearn"]
        assert s.n_included == 1
        assert_array_equal(s.sd_psi, np.zeros(2))
        assert np.isnan(s.value_se)
        assert res.mse_ratio is not None
        assert res.mse_ratio_se is None

    def test_reproducible_and_thread_invariant(self):
        base = StudyConfig("one_decision", n=80, reps=8, master_seed=11)
        res1 = run_mc_study(base)
        res2 = run_mc_study(base)
        assert_array_equal(res1.psi_rep["alearn"], res2.psi_rep["alearn"])
        import dataclasses

        threaded = dataclasses.replace(base, threads=2)
        res3 = run_mc_study(threaded)
        for est in ("qlearn", "alearn"):
            assert_array_equal(res1.psi_rep[est], res3.psi_rep[est])
            assert_array_equal(res1.value_rep[est], res3.value_rep[est])

    def test_gcomp_value_wiring(self):
        # the study's gcomp value for a replication reproduces exactly from
        # that replication's stream
        config = StudyConfig(
            "one_decision", n=150, reps=2, master_seed=9,
            estimators=("qlearn",), value_method="gcomp", gcomp_draws=500,
        )
        res = run_mc_study(config)
        definition = scenario_registry("one_decision")
        params = OneDecisionParams()
        stream = make_stream(9, 0)
        dataset = definition.generate(params, 150, stream)
        fit = qlearn_fit(dataset, tuple(definition.working_specs()))
        value, _ = value_gcomputation(params, fit.regime, 500, stream.substream(8))
        assert res.value_rep["qlearn"][0] == value
        assert_allclose(res.psi_rep["qlearn"][0], fit.stage_fits[0].psi)

    def test_gcomp_runs_once_per_replication_for_all_estimators(self, monkeypatch):
        # Replications 0 and 169 fail for both estimators: g-computation
        # draws nothing for them and their values are NaN.  Every other
        # replication is one run, for the rules of each estimator that fit.
        calls = {}
        original = evaluate.value_gcomputation

        def recording(params, regime, n_draws, stream):
            calls[stream.stream_id] = regime.rules[0].psi.shape[0]
            return original(params, regime, n_draws, stream)

        monkeypatch.setattr(evaluate, "value_gcomputation", recording)
        config = StudyConfig(
            "two_decision", n=30, reps=400, master_seed=3, value_method="gcomp", gcomp_draws=50
        )
        res = run_mc_study(config)
        both = res.failed["qlearn"] & res.failed["alearn"]
        assert list(np.flatnonzero(both)) == [0, 169]
        assert sorted(calls) == list(np.flatnonzero(~both))
        for r, n_rules in calls.items():
            assert n_rules == 2 - res.failed["qlearn"][r] - res.failed["alearn"][r]
        for est in ("qlearn", "alearn"):
            assert_array_equal(np.isnan(res.value_rep[est]), res.failed[est])

    def test_failure_accounting_low_rate(self):
        res = run_mc_study(StudyConfig("one_decision", n=30, reps=200, master_seed=5))
        assert res.n_failed == 1
        assert res.failure_rate == pytest.approx(0.005)
        assert not res.high_failure_warning
        for est in ("qlearn", "alearn"):
            nan_rows = np.isnan(res.psi_rep[est]).any(axis=1)
            assert_array_equal(nan_rows, res.failed[est])
            assert res.summaries[est].n_included == 200 - res.failed[est].sum()

    def test_failure_warning_band(self):
        res = run_mc_study(StudyConfig("one_decision", n=14, reps=200, master_seed=5))
        assert 0.01 < res.failure_rate <= 0.10
        assert res.high_failure_warning

    def test_failure_error_above_ten_percent(self):
        with pytest.raises(StudyError, match="refusing to summarize"):
            run_mc_study(StudyConfig("one_decision", n=10, reps=200, master_seed=5))

    def test_mse_ratio_on_replications_where_both_succeed(self):
        res = run_mc_study(StudyConfig("two_decision", n=30, reps=400, master_seed=3))
        assert res.failed["qlearn"].sum() == 2
        assert res.failed["alearn"].sum() == 19
        both = ~(res.failed["qlearn"] | res.failed["alearn"])
        mse = {
            est: ((res.psi_rep[est][both] - res.psi_true) ** 2).mean(axis=0)
            for est in res.psi_rep
        }
        assert_array_equal(res.mse_ratio, mse["alearn"] / mse["qlearn"])

    def test_unsolved_moment_equations_fail_one_replication(self, monkeypatch):
        # Force the moment check to fail for exactly the replication with
        # the largest relative moment norm; the study counts it as failed
        # and every other row is unchanged.
        config = StudyConfig("two_decision", n=60, reps=12, master_seed=4)
        base = run_mc_study(config)
        definition = scenario_registry("two_decision")
        ratios = []
        for r in range(12):
            dataset = definition.generate(definition.params_cls(), 60, make_stream(4, r))
            fits = alearn_fit(dataset, definition.working_specs()).stage_fits
            ratios.append(max(f.moment_inf_norm / (1.0 + np.max(np.abs(f.v))) for f in fits))
        worst = int(np.argmax(ratios))
        top_two = sorted(ratios)[-2:]
        monkeypatch.setattr(alearn, "MOMENT_TOL", 0.5 * (top_two[0] + top_two[1]))
        res = run_mc_study(config)
        assert_array_equal(res.failed["alearn"], np.arange(12) == worst)
        assert not res.failed["qlearn"].any()
        assert res.n_failed == 1
        keep = np.arange(12) != worst
        for est in ("qlearn", "alearn"):
            assert_array_equal(res.psi_rep[est][keep], base.psi_rep[est][keep])
            assert_array_equal(res.value_rep[est][keep], base.value_rep[est][keep])
