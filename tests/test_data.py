"""Feature algebra, datasets, regimes, and CSV round trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dtrkit.data import (
    ArrayColumns,
    Dataset,
    DecisionRule,
    FeatureMap,
    KnownPropensity,
    Regime,
    StageSpec,
    Term,
    build_design,
    parse_term,
    read_dataset_csv,
    write_dataset_csv,
)
from dtrkit.errors import FeatureScopeError, InvalidParameterError, ParseError


def _small_dataset():
    # 2 stages, d_1 = 1, d_2 = 2, n = 4, hand-picked values
    s1 = np.array([[1.0], [2.0], [3.0], [4.0]])
    a1 = np.array([0, 1, 0, 1])
    s2 = np.array([[5.0, 9.0], [6.0, 8.0], [7.0, 7.0], [8.0, 6.0]])
    a2 = np.array([1, 1, 0, 0])
    y = np.array([10.0, 11.0, 12.0, 13.0])
    return Dataset((s1, s2), (a1, a2), y)


class TestTermParsing:
    def test_round_trips(self):
        for text in ["1", "s1_1", "s2_3", "a1", "s1_1^2", "s2_3^2", "s1_1*a1", "s1_1*s2_2"]:
            term = parse_term(text)
            assert str(term) == text
            assert parse_term(str(term)) == term

    def test_bare_state_means_first_component(self):
        assert parse_term("s1") == Term("state", stage=1, comp=1)
        assert parse_term("s3^2") == Term("state", stage=3, comp=1, power=2)

    def test_whitespace_tolerated(self):
        assert parse_term(" s1 * a1 ") == parse_term("s1*a1")

    def test_product_structure(self):
        term = parse_term("s2_1*a1")
        assert term.kind == "prod"
        assert term.factors == (Term("state", stage=2, comp=1), Term("action", stage=1))

    @pytest.mark.parametrize(
        "bad",
        ["", " ", "x1", "s0", "s1_0", "a0", "s", "a", "2", "s1^3", "1*", "*a1", "s1**2"],
    )
    def test_unparseable(self, bad):
        with pytest.raises(ParseError):
            parse_term(bad)

    def test_cannot_square_action(self):
        with pytest.raises(ParseError, match="square an action"):
            parse_term("a1^2")

    def test_cannot_square_constant(self):
        with pytest.raises(ParseError, match="square a constant"):
            parse_term("1^2")

    def test_at_most_two_factors(self):
        with pytest.raises(ParseError, match="more than two factors"):
            parse_term("s1*a1*s2")

    def test_max_stages(self):
        assert parse_term("1").max_stages() == (0, 0)
        assert parse_term("s2_3").max_stages() == (2, 0)
        assert parse_term("a1").max_stages() == (0, 1)
        assert parse_term("s1*a1").max_stages() == (1, 1)
        assert parse_term("s2^2*a1").max_stages() == (2, 1)


class TestFeatureMap:
    def test_names_and_count(self):
        fm = FeatureMap.parse(["1", "s1", "s1^2", "a1"])
        assert fm.n_features == 4
        assert fm.names() == ["1", "s1_1", "s1_1^2", "a1"]

    def test_check_stage_allows_history(self):
        FeatureMap.parse(["1", "s1", "s2_2", "a1"]).check_stage(2)
        FeatureMap.parse(["1", "s1"]).check_stage(1)

    def test_check_stage_rejects_future_state(self):
        with pytest.raises(FeatureScopeError, match="not available at stage 1"):
            FeatureMap.parse(["s2"]).check_stage(1)

    def test_check_stage_rejects_same_stage_action(self):
        # stage-k history carries a_1..a_{k-1} only
        with pytest.raises(FeatureScopeError, match="not available at stage 1"):
            FeatureMap.parse(["a1"]).check_stage(1)
        with pytest.raises(FeatureScopeError, match="not available at stage 2"):
            FeatureMap.parse(["s1*a2"]).check_stage(2)

    def test_evaluate_on_dataset(self):
        ds = _small_dataset()
        fm = FeatureMap.parse(["1", "s1", "s1^2", "a1", "s2_2", "s1*a1"])
        out = fm.evaluate(ds)
        s1 = ds.states[0][:, 0]
        expected = np.column_stack(
            [np.ones(4), s1, s1 * s1, ds.actions[0], ds.states[1][:, 1], s1 * ds.actions[0]]
        )
        assert_allclose(out, expected)

    def test_evaluate_empty(self):
        assert FeatureMap(()).evaluate(_small_dataset()).shape == (4, 0)

    def test_evaluate_constant_only_on_a_stack(self):
        # The row shape follows the dataset, not the constant term's (n,).
        ds = _small_dataset()
        stack = Dataset(
            tuple(np.stack([s, 2.0 * s]) for s in ds.states),
            tuple(np.stack([a, 1 - a]) for a in ds.actions),
            np.stack([ds.y, -ds.y]),
        )
        assert_array_equal(FeatureMap.parse(["1"]).evaluate(ds), np.ones((4, 1)))
        assert_array_equal(FeatureMap.parse(["1", "1"]).evaluate(stack), np.ones((2, 4, 2)))
        assert FeatureMap(()).evaluate(stack).shape == (2, 4, 0)
        mixed = FeatureMap.parse(["1", "s1"]).evaluate(stack)
        assert_array_equal(mixed[..., 0], np.ones((2, 4)))
        assert_array_equal(mixed[..., 1], stack.states[0][..., 0])

    def test_evaluate_into_a_feature_major_buffer(self):
        # The transpose of a (p, n) buffer receives the design bit for bit,
        # for one dataset and for a stack; its other rows stay as they were.
        ds = _small_dataset()
        stack = Dataset(
            tuple(np.stack([s, np.sqrt(s)]) for s in ds.states),
            tuple(np.stack([a, 1 - a]) for a in ds.actions),
            np.stack([ds.y, -ds.y]),
        )
        fm = FeatureMap.parse(["1", "s1", "s2_2^2", "s1*a1", "a1"])
        for columns in (ds, stack):
            expected = fm.evaluate(columns)
            buf = np.full(expected.shape[:-2] + (7, 4), np.nan)
            got = fm.evaluate(columns, out=np.swapaxes(buf[..., 1:6, :], -1, -2))
            assert not got.flags.c_contiguous
            assert np.shares_memory(got, buf)
            assert got.tobytes() == expected.tobytes()
            assert np.isnan(buf[..., 0, :]).all() and np.isnan(buf[..., 6, :]).all()
        for shape in ((4, 4), (5, 4), (2, 4, 5)):
            with pytest.raises(InvalidParameterError, match="out must have shape"):
                fm.evaluate(ds, out=np.empty(shape))

    def test_evaluate_on_array_columns(self):
        cols = ArrayColumns(
            3, states={1: np.array([1.0, 2.0, 3.0])}, actions={1: np.array([0, 1, 1])}
        )
        out = FeatureMap.parse(["s1", "s1*a1"]).evaluate(cols)
        assert_allclose(out, np.array([[1.0, 0.0], [2.0, 2.0], [3.0, 3.0]]))

    def test_array_columns_scope_errors(self):
        cols = ArrayColumns(2, states={1: np.zeros((2, 1))}, actions={})
        with pytest.raises(FeatureScopeError):
            cols.state_col(2, 1)
        with pytest.raises(FeatureScopeError):
            cols.state_col(1, 2)
        with pytest.raises(FeatureScopeError):
            cols.action_col(1)


class TestDataset:
    def test_shape_properties(self):
        ds = _small_dataset()
        assert ds.n == 4
        assert ds.n_stages == 2
        assert ds.state_dims == (1, 2)

    def test_column_accessors(self):
        ds = _small_dataset()
        assert_allclose(ds.state_col(2, 2), np.array([9.0, 8.0, 7.0, 6.0]))
        assert_array_equal(ds.action_col(1), np.array([0, 1, 0, 1]))
        with pytest.raises(FeatureScopeError):
            ds.state_col(1, 2)
        with pytest.raises(FeatureScopeError):
            ds.state_col(3, 1)
        with pytest.raises(FeatureScopeError):
            ds.action_col(0)

    def test_column_names(self):
        assert _small_dataset().column_names() == ["s1_1", "a1", "s2_1", "s2_2", "a2", "y"]

    def test_requires_matching_stage_counts(self):
        with pytest.raises(InvalidParameterError, match="per stage"):
            Dataset((np.zeros((2, 1)),), (np.zeros(2, dtype=int), np.zeros(2, dtype=int)), np.zeros(2))
        with pytest.raises(InvalidParameterError, match="per stage"):
            Dataset((), (), np.zeros(2))

    def test_rejects_bad_state_block(self):
        with pytest.raises(InvalidParameterError, match=r"\(n, d_1\)"):
            Dataset((np.zeros(3),), (np.zeros(3, dtype=int),), np.zeros(3))
        with pytest.raises(InvalidParameterError, match=r"\(n, d_1\)"):
            Dataset((np.zeros((2, 1)),), (np.zeros(3, dtype=int),), np.zeros(3))

    def test_rejects_bad_actions(self):
        with pytest.raises(InvalidParameterError, match="length n"):
            Dataset((np.zeros((3, 1)),), (np.zeros(2, dtype=int),), np.zeros(3))
        with pytest.raises(InvalidParameterError, match="0/1"):
            Dataset((np.zeros((3, 1)),), (np.array([0, 1, 2]),), np.zeros(3))

    def test_rejects_non_finite(self):
        s = np.zeros((3, 1))
        a = np.zeros(3, dtype=int)
        with pytest.raises(InvalidParameterError, match="finite"):
            Dataset((np.array([[0.0], [np.nan], [0.0]]),), (a,), np.zeros(3))
        with pytest.raises(InvalidParameterError, match="finite"):
            Dataset((s,), (a,), np.array([0.0, np.inf, 0.0]))


class TestBuildDesign:
    def test_stacks_requested_columns(self):
        ds = _small_dataset()
        x = build_design(ds, 2, FeatureMap.parse(["1", "s1", "s2_1", "a1"]))
        expected = np.column_stack(
            [np.ones(4), ds.states[0][:, 0], ds.states[1][:, 0], ds.actions[0].astype(float)]
        )
        assert_allclose(x, expected)

    def test_enforces_scope(self):
        with pytest.raises(FeatureScopeError):
            build_design(_small_dataset(), 1, FeatureMap.parse(["s2"]))


class TestRegime:
    def test_rule_length_checked(self):
        with pytest.raises(InvalidParameterError, match="coefficient length"):
            DecisionRule(FeatureMap.parse(["1", "s1"]), np.array([1.0]))

    def test_strictly_positive_contrast_treats(self):
        # threshold rule: treat while s1 < 250, boundary exactly at zero
        rule = DecisionRule(FeatureMap.parse(["1", "s1"]), np.array([250.0, -1.0]))
        regime = Regime((rule,))
        cols = ArrayColumns(3, states={1: np.array([[240.0], [250.0], [260.0]])})
        assert_array_equal(regime.actions(1, cols), [1, 0, 0])

    def test_zero_rule_never_treats(self):
        regime = Regime((DecisionRule(FeatureMap.parse(["1", "s1"]), np.zeros(2)),))
        cols = ArrayColumns(3, states={1: np.array([-5.0, 0.0, 5.0])})
        assert_array_equal(regime.actions(1, cols), np.zeros(3, dtype=np.int64))

    def test_vectorized_actions_match_scalar(self):
        rule1 = DecisionRule(FeatureMap.parse(["1", "s1"]), np.array([-1.0, 0.5]))
        rule2 = DecisionRule(FeatureMap.parse(["1", "s2", "a1"]), np.array([0.2, -0.3, 1.0]))
        regime = Regime((rule1, rule2))
        ds = _small_dataset()
        batch = regime.actions(2, ds)
        for i in range(ds.n):
            states = {k: s[i : i + 1] for k, s in enumerate(ds.states, 1)}
            actions = {k: a[i : i + 1] for k, a in enumerate(ds.actions, 1)}
            assert batch[i] == regime.actions(2, ArrayColumns(1, states, actions))[0]

    def test_contrast_scope_enforced(self):
        regime = Regime((DecisionRule(FeatureMap.parse(["s2"]), np.array([1.0])),))
        with pytest.raises(FeatureScopeError):
            regime.contrasts(1, _small_dataset())


class TestSpecs:
    def test_known_propensity_constant(self):
        ds = _small_dataset()
        assert_allclose(KnownPropensity(0.25).evaluate(ds, 1), np.full(4, 0.25))

    def test_known_propensity_callable(self):
        ds = _small_dataset()
        pi = KnownPropensity(lambda d, k: d.state_col(1, 1) / 10.0).evaluate(ds, 1)
        assert_allclose(pi, np.array([0.1, 0.2, 0.3, 0.4]))

    def test_known_propensity_range_checked(self):
        ds = _small_dataset()
        with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
            KnownPropensity(1.5).evaluate(ds, 1)
        with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
            KnownPropensity(lambda d, k: np.full(d.n, -0.1)).evaluate(ds, 1)

    def test_stage_spec_parse(self):
        spec = StageSpec.parse(["1", "s1"], ["1"], propensity=0.5)
        assert spec.h_features.names() == ["1", "s1_1"]
        assert spec.c_features.names() == ["1"]
        assert isinstance(spec.propensity, KnownPropensity)
        assert spec.propensity.value == 0.5

    def test_stage_spec_parse_logistic(self):
        spec = StageSpec.parse(["1"], ["1"], propensity=["1", "s1"])
        assert spec.propensity.features.names() == ["1", "s1_1"]

    def test_stage_spec_parse_no_propensity(self):
        assert StageSpec.parse(["1"], ["1"]).propensity is None


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = _small_dataset()
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path, header_comment="source: unit test\nseed: 1")
        back = read_dataset_csv(path, 2, (1, 2))
        for k in range(2):
            assert_allclose(back.states[k], ds.states[k])
            assert_array_equal(back.actions[k], ds.actions[k])
        assert_allclose(back.y, ds.y)

    def test_actions_written_as_integers(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(_small_dataset(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s1_1,a1,s2_1,s2_2,a2,y"
        assert lines[1].split(",")[1] == "0"
        assert lines[2].split(",")[1] == "1"

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# generated\n#  more metadata\ns1_1,a1,y\n1.0,1,2.0\n")
        ds = read_dataset_csv(path, 1, (1,))
        assert ds.n == 1
        assert ds.y[0] == 2.0

    def test_header_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1_1, a1, y\n1.0,1,2.0\n")
        assert read_dataset_csv(path, 1, (1,)).n == 1

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1_1,y\n1.0,2.0\n")
        with pytest.raises(ParseError, match="expected header"):
            read_dataset_csv(path, 1, (1,))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no header row"):
            read_dataset_csv(path, 1, (1,))

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1_1,a1,y\n1.0,1,2.0\n1.0,oops,2.0\n")
        with pytest.raises(ParseError, match="row 2, column a1"):
            read_dataset_csv(path, 1, (1,))

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1_1,a1,y\nnan,1,2.0\n")
        with pytest.raises(ParseError, match="row 1, column s1_1: non-finite"):
            read_dataset_csv(path, 1, (1,))

    def test_non_binary_action_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1_1,a1,y\n1.0,2,3.0\n")
        with pytest.raises(ParseError, match="action must be 0 or 1"):
            read_dataset_csv(path, 1, (1,))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s1_1,a1,y\n1.0,1\n")
        with pytest.raises(ParseError, match="row 1 has 2 fields"):
            read_dataset_csv(path, 1, (1,))

    def test_state_dims_length_checked(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="one entry per stage"):
            read_dataset_csv(tmp_path / "x.csv", 2, (1,))
