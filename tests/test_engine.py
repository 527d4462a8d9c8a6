"""The stacked study engine, checked as properties.

Streams drawn side by side must equal the streams drawn one by one, and a
study's per-replication rows must not depend on how replications are
chunked, on how many replications the study has, or on ``threads``.  The
benchmark's tracer (``bench/spans.py``) must still find every name it wraps.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dtrkit import evaluate, scenarios
from dtrkit.alearn import alearn_fit
from dtrkit.cli import main
from dtrkit.data import StageSpec
from dtrkit.errors import InvalidParameterError, StudyError
from dtrkit.evaluate import StudyConfig, run_mc_study
from dtrkit.qlearn import qlearn_fit
from dtrkit.rng import RngStream, StreamStack, make_stream

ROOT = Path(__file__).resolve().parents[1]
UINT64 = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=UINT64,
    ids=st.lists(UINT64, min_size=1, max_size=4),
    jump=st.one_of(st.integers(0, 40), st.integers(0, 2**131)),
    size=st.integers(1, 17),
)
def test_stream_stack_draws_what_jumped_philox_draws(seed, ids, jump, size):
    # Jumps of 2**64 and more carry into the top counter word, and jumps
    # wrap modulo 2**128 as Philox.jumped does.
    stack = StreamStack(seed, ids, _jump=jump)
    uniform = stack.uniform(size)
    normal = stack.normal(size)
    for r, stream_id in enumerate(ids):
        key = np.array([seed, stream_id], dtype=np.uint64)

        def fresh():
            return np.random.Generator(np.random.Philox(key=key).jumped(jump))

        assert uniform[r].tobytes() == fresh().random(size).tobytes()
        assert normal[r].tobytes() == fresh().standard_normal(size).tobytes()
        one = RngStream(seed, stream_id, _jump=jump)
        assert uniform[r].tobytes() == one.uniform(size).tobytes()


def test_streams_keyed_at_or_above_2_to_63_are_distinct():
    assert RngStream(2**63, 0).uniform() != RngStream(2**63 + 1, 0).uniform()
    with pytest.raises(InvalidParameterError, match="2\\*\\*64"):
        RngStream(2**64, 0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    index=st.integers(0, 9),
    p=st.floats(0.0, 1.0),
)
def test_stream_stack_substreams_match_rng_stream(seed, ids, index, p):
    sub = StreamStack(seed, ids).substream(index)
    draws = sub.normal(9, loc=2.0, scale=3.0), sub.bernoulli(p, 9)
    for r, stream_id in enumerate(ids):
        one = RngStream(seed, stream_id).substream(index)
        assert draws[0][r].tobytes() == one.normal(9, loc=2.0, scale=3.0).tobytes()
        one = RngStream(seed, stream_id).substream(index)
        assert draws[1][r].tobytes() == one.bernoulli(p, 9).tobytes()


def _study(config, chunk_reps=None):
    """run_mc_study with chunks of ``chunk_reps`` replications (the default
    chunking when None)."""
    if chunk_reps is None:
        return run_mc_study(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "CHUNK_ROWS", chunk_reps * config.n)
        return run_mc_study(config)


def _assert_rows_equal(res, ref, reps):
    for est in ref.psi_rep:
        assert res.failed[est].tobytes() == ref.failed[est][:reps].tobytes()
        assert res.psi_rep[est].tobytes() == ref.psi_rep[est][:reps].tobytes()
        assert res.value_rep[est].tobytes() == ref.value_rep[est][:reps].tobytes()


@pytest.mark.parametrize("value_method", ["analytic", "gcomp"])
@pytest.mark.parametrize("scenario", ["one_decision", "two_decision", "moodie"])
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    chunk_reps=st.sampled_from([1, 7, None]),
    reps=st.integers(1, 12),
    threads=st.sampled_from([1, 2]),
)
def test_study_rows_invariant_to_chunks_prefix_and_threads(
    scenario, value_method, seed, chunk_reps, reps, threads
):
    config = StudyConfig(
        scenario, n=40, reps=12, master_seed=seed, value_method=value_method, gcomp_draws=300
    )
    try:
        ref = run_mc_study(config)
    except StudyError:
        assume(False)
    try:
        res = _study(dataclasses.replace(config, reps=reps, threads=threads), chunk_reps)
    except StudyError:
        # A short prefix can fail too large a share of its replications.
        failed = np.logical_or.reduce([ref.failed[est][:reps] for est in ref.failed])
        assert failed.mean() > evaluate.FAILURE_ERROR_RATE
        return
    _assert_rows_equal(res, ref, reps)


@pytest.mark.parametrize(
    "scenario,n", [("two_decision", 30), ("one_decision", 20), ("moodie", 30)]
)
def test_failures_invariant_to_chunks(scenario, n):
    config = StudyConfig(scenario, n=n, reps=400, master_seed=3)
    ref = run_mc_study(config)
    assert any(ref.failed[est].any() for est in ref.failed)
    for chunk_reps in (1, 7):
        res = _study(config, chunk_reps)
        _assert_rows_equal(res, ref, 400)
        assert res.n_extreme_propensity == ref.n_extreme_propensity
        assert res.propensity_sd == ref.propensity_sd


def test_intercept_only_models_fit_each_replication():
    # Feature maps of constants alone still give one model matrix per
    # replication, and each row is the fit of that replication alone.
    specs = tuple(
        StageSpec.parse(h=["1"], c=c, propensity=["1"]) for c in (["1", "s1"], ["1", "a1", "s2"])
    )
    config = StudyConfig("two_decision", n=40, reps=9, master_seed=6, specs=specs)
    ref = run_mc_study(config)
    assert not any(ref.failed[est].any() for est in ref.failed)
    _assert_rows_equal(_study(config, 4), ref, 9)
    definition = scenarios.scenario_registry("two_decision")
    for r in (0, 8):
        dataset = definition.generate(definition.params_cls(), 40, make_stream(6, r))
        for est, fit in (("qlearn", qlearn_fit), ("alearn", alearn_fit)):
            psi = np.concatenate([f.psi for f in fit(dataset, specs).stage_fits])
            assert ref.psi_rep[est][r].tobytes() == psi.tobytes()


def test_benchmark_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.TARGETS]
    registry = dict(scenarios._REGISTRY)
    config = tmp_path / "config.json"
    config.write_text(
        '{"version": 1, "seed": 2, "scenario": {"name": "two_decision"},'
        ' "study": {"n": 40, "reps": 5}}'
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["study", str(config), "--out-dir", str(tmp_path)]) == 0
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert metrics["scenarios.generate_calls"] == 1
    # one closed-form call per chunk (here one) and estimator, and the
    # optimal value
    assert metrics["evaluate.value_analytic_calls"] == 2 * 1 + 1
    assert metrics["evaluate.study_self_s"] > 0.0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert scenarios._REGISTRY == registry
