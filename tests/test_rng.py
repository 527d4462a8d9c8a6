"""Stream identity, substream disjointness, and draw-level contracts."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtrkit import InvalidParameterError, RngStream, make_stream
from dtrkit.rng import StreamStack

UINT64 = st.integers(0, 2**64 - 1)
# Substream indices, with the counter jumps j = index + 1 around the carry
# into the top counter word (2**64) and the wrap of the jump (2**128).
INDICES = st.one_of(
    st.integers(0, 50),
    st.integers(0, 2**140),
    *(st.integers(edge - 3, edge + 1) for edge in (2**64, 2**128)),
)


class TestStreamIdentity:
    def test_same_key_same_draws(self):
        a = make_stream(123, 7).normal(size=50)
        b = make_stream(123, 7).normal(size=50)
        npt.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = make_stream(123, 0).normal(size=50)
        b = make_stream(123, 1).normal(size=50)
        assert not np.any(a == b)

    def test_different_seeds_differ(self):
        a = make_stream(0, 4).uniform(size=50)
        b = make_stream(1, 4).uniform(size=50)
        assert not np.any(a == b)

    def test_negative_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_stream(-1, 0)
        with pytest.raises(InvalidParameterError):
            make_stream(0, -2)


class TestSubstreams:
    def test_pure_function_of_index(self):
        s = make_stream(9, 3)
        a = s.substream(2).normal(size=20)
        b = make_stream(9, 3).substream(2).normal(size=20)
        npt.assert_array_equal(a, b)

    def test_unaffected_by_parent_consumption(self):
        s1 = make_stream(9, 3)
        s1.normal(size=1000)  # consume a lot from the parent
        s2 = make_stream(9, 3)
        npt.assert_array_equal(
            s1.substream(0).uniform(size=10), s2.substream(0).uniform(size=10)
        )

    def test_unaffected_by_sibling_consumption(self):
        s = make_stream(5, 5)
        sub0 = s.substream(0)
        sub1 = s.substream(1)
        sub0.normal(size=5000)
        fresh = make_stream(5, 5).substream(1)
        npt.assert_array_equal(sub1.normal(size=10), fresh.normal(size=10))

    def test_substreams_are_disjoint(self):
        s = make_stream(17, 0)
        draws = [s.substream(i).uniform(size=200) for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert not np.any(draws[i] == draws[j])

    @settings(max_examples=80, deadline=None)
    @given(seed=UINT64, stream_id=UINT64, index=INDICES)
    def test_substream_draws_what_jumped_philox_draws(self, seed, stream_id, index):
        key = np.array([seed, stream_id], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key).jumped(index + 1))
        sub = RngStream(seed, stream_id).substream(index)
        row = StreamStack(seed, [stream_id]).substream(index)
        assert sub.uniform(7).tobytes() == expected.random(7).tobytes()
        assert sub.normal(5).tobytes() == expected.standard_normal(5).tobytes()
        fresh = RngStream(seed, stream_id).substream(index)
        assert row.uniform(7)[0].tobytes() == fresh.uniform(7).tobytes()

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_stream(0, 0).substream(-1)

    def test_repr_mentions_key(self):
        assert "master_seed=4" in repr(RngStream(4, 9))


class TestDraws:
    def test_uniform_range_and_moments(self):
        u = make_stream(31, 0).uniform(size=200000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_normal_loc_scale(self):
        z = make_stream(32, 0).normal(size=200000, loc=3.0, scale=0.5)
        assert abs(z.mean() - 3.0) < 0.01
        assert abs(z.std() - 0.5) < 0.01

    def test_normal_default_standard(self):
        z = make_stream(33, 0).normal(size=100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_bernoulli_moments_and_dtype(self):
        draws = make_stream(34, 0).bernoulli(0.3, size=100000)
        assert draws.dtype == np.int64
        assert set(np.unique(draws)) <= {0, 1}
        assert abs(draws.mean() - 0.3) < 0.01

    def test_bernoulli_vector_probabilities(self):
        p = np.array([0.0, 1.0, 0.5, 0.5])
        draws = make_stream(35, 0).bernoulli(p, size=4)
        assert draws[0] == 0 and draws[1] == 1

    def test_bernoulli_scalar(self):
        v = make_stream(36, 0).bernoulli(0.5)
        assert isinstance(v, int)

    def test_bernoulli_probability_validation(self):
        s = make_stream(37, 0)
        with pytest.raises(InvalidParameterError):
            s.bernoulli(-0.1)
        with pytest.raises(InvalidParameterError):
            s.bernoulli(1.1, size=3)
        with pytest.raises(InvalidParameterError):
            s.bernoulli(np.nan)

    def test_bernoulli_kth_draw_depends_on_kth_uniform_only(self):
        # changing one probability entry must not disturb other entries
        p1 = np.full(10, 0.5)
        p2 = p1.copy()
        p2[4] = 0.999
        a = make_stream(38, 0).bernoulli(p1, size=10)
        b = make_stream(38, 0).bernoulli(p2, size=10)
        mask = np.arange(10) != 4
        npt.assert_array_equal(a[mask], b[mask])
