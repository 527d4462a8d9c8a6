"""Each scenario's law, pinned bit for bit against raw Philox draws.

The expected values are recomputed here from ``numpy.random.Philox`` at the
documented stream positions, with every formula written out, and compared
with dtrkit's generators and g-computation byte for byte.

Positions: the stream ``(seed, id)`` is ``Philox(key=[seed, id])`` and its
substream ``k`` is that generator jumped ``k + 1`` times.  Generation draws
variable number k (in time order s1, a1, s2, a2, outcome noise) from
substream k: normals are ``loc + scale * standard_normal``, and a Bernoulli
draw is ``uniform < p``.  g-computation draws the states in turn from the
one stream it is given (a replication's substream 8 in a study), lets the
regime choose the actions and adds no outcome noise.
"""

import numpy as np
import pytest
from scipy.special import expit

from dtrkit.data import DecisionRule, FeatureMap, Regime
from dtrkit.evaluate import value_gcomputation
from dtrkit.rng import StreamStack, make_stream
from dtrkit.scenarios import gen_moodie, gen_one_decision, gen_two_decision, scenario_params

SEED = 2024
N = 257
N_DRAWS = 3001

QUADRATIC = {
    "one_decision": {"beta": (1.0, 1.0, 0.3), "phi": (0.0, -2.0, 0.4)},
    "two_decision": {
        "beta2": (3.0, 0.0, 0.1, -0.5, -0.5, 0.2),
        "phi2": (0.0, 0.5, 0.1, -1.0, -0.1, -0.3),
    },
    "moodie": {"s2_coef": 1.1, "yopt_sd": 30.0, "phi2": (0.5, -0.002)},
}
GENERATORS = {
    "one_decision": gen_one_decision,
    "two_decision": gen_two_decision,
    "moodie": gen_moodie,
}
RULE_FEATURES = {
    "one_decision": [["1", "s1"]],
    "two_decision": [["1", "s1"], ["1", "a1", "s2"]],
    "moodie": [["1", "s1"], ["1", "s2"]],
}
RULES = {
    "one_decision": [(0.3, -0.7)],
    "two_decision": [(0.1, -1.0), (0.5, 0.2, -0.3)],
    "moodie": [(200.0, -0.9), (600.0, -1.8)],
}


def _philox(seed, stream_id, jumps):
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key).jumped(jumps))


def _bernoulli(u, p):
    return (u < p).astype(np.int64)


def _expected_dataset(name, p, rep):
    sub = [_philox(SEED, rep, k + 1) for k in range(5)]
    if name == "one_decision":
        b, f, c = p.beta, p.phi, p.psi
        s1 = 0.0 + 1.0 * sub[0].standard_normal(N)
        a1 = _bernoulli(sub[1].random(N), expit(f[0] + f[1] * s1 + f[2] * s1 * s1))
        mean = b[0] + b[1] * s1 + b[2] * s1 * s1 + a1 * (c[0] + c[1] * s1)
        y = mean + np.sqrt(p.y_var) * sub[2].standard_normal(N)
        return [s1], [a1], y
    if name == "two_decision":
        d, f1, f2, b2, c2 = p.delta, p.phi1, p.phi2, p.beta2, p.psi2
        s1 = _bernoulli(sub[0].random(N), 0.5).astype(float)
        a1 = _bernoulli(sub[1].random(N), expit(f1[0] + f1[1] * s1))
        mu2 = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
        s2 = mu2 + np.sqrt(p.s2_var) * sub[2].standard_normal(N)
        eta2 = f2[0] + f2[1] * s1 + f2[2] * a1 + f2[3] * s2 + f2[4] * a1 * s2 + f2[5] * s2 * s2
        a2 = _bernoulli(sub[3].random(N), expit(eta2))
        h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
        y = h2 + a2 * (c2[0] + c2[1] * a1 + c2[2] * s2)
        y = y + np.sqrt(p.y_var) * sub[4].standard_normal(N)
        return [s1, s2], [a1, a2], y
    f1, f2, c1, c2 = p.phi1, p.phi2, p.psi1, p.psi2
    s1 = p.s1_mean + p.s1_sd * sub[0].standard_normal(N)
    a1 = _bernoulli(sub[1].random(N), expit(f1[0] + f1[1] * s1))
    s2 = p.s2_coef * s1 + p.s2_sd * sub[2].standard_normal(N)
    a2 = _bernoulli(sub[3].random(N), expit(f2[0] + f2[1] * s2))
    yopt = p.yopt_intercept + p.yopt_slope * s1 + p.yopt_sd * sub[4].standard_normal(N)
    r1 = c1[0] + c1[1] * s1
    r2 = c2[0] + c2[1] * s2
    y = yopt - r1 * ((r1 > 0.0) - a1) - r2 * ((r2 > 0.0) - a2)
    return [s1, s2], [a1, a2], y


def _rule(columns, psi):
    return ((np.column_stack(columns) @ np.asarray(psi)) > 0.0).astype(np.int64)


def _expected_gcomp(name, p, psi, rep):
    gen = _philox(SEED, rep, 8 + 1)
    one = np.ones(N_DRAWS)
    if name == "one_decision":
        b, c = p.beta, p.psi
        s1 = 0.0 + 1.0 * gen.standard_normal(N_DRAWS)
        a1 = _rule([one, s1], psi[0])
        u = b[0] + b[1] * s1 + b[2] * s1 * s1 + a1 * (c[0] + c[1] * s1)
    elif name == "two_decision":
        d, b2, c2 = p.delta, p.beta2, p.psi2
        s1 = _bernoulli(gen.random(N_DRAWS), 0.5).astype(float)
        a1 = _rule([one, s1], psi[0])
        mu2 = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
        s2 = mu2 + np.sqrt(p.s2_var) * gen.standard_normal(N_DRAWS)
        a2 = _rule([one, a1.astype(float), s2], psi[1])
        h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
        u = h2 + a2 * (c2[0] + c2[1] * a1 + c2[2] * s2)
    else:
        c1, c2 = p.psi1, p.psi2
        s1 = p.s1_mean + p.s1_sd * gen.standard_normal(N_DRAWS)
        a1 = _rule([one, s1], psi[0])
        s2 = p.s2_coef * s1 + p.s2_sd * gen.standard_normal(N_DRAWS)
        a2 = _rule([one, s2], psi[1])
        r1 = c1[0] + c1[1] * s1
        r2 = c2[0] + c2[1] * s2
        u = p.yopt_intercept + p.yopt_slope * s1 - r1 * ((r1 > 0.0) - a1) - r2 * ((r2 > 0.0) - a2)
    return float(np.mean(u)), float(np.std(u, ddof=1) / np.sqrt(N_DRAWS))


CASES = [(name, quad) for name in GENERATORS for quad in (False, True)]


def _params(name, quad):
    return scenario_params(name, **(QUADRATIC[name] if quad else {}))


def _assert_dataset_bytes(dataset, expected, row=None):
    states, actions, y = expected
    pick = (lambda a: a) if row is None else (lambda a: a[row])
    for got, want in zip(dataset.states, states):
        assert pick(got)[..., 0].tobytes() == want.tobytes()
    for got, want in zip(dataset.actions, actions):
        assert pick(got).dtype == np.int64
        assert pick(got).tobytes() == want.tobytes()
    assert pick(dataset.y).tobytes() == y.tobytes()


@pytest.mark.parametrize("name,quad", CASES)
def test_generation_matches_raw_philox(name, quad):
    p = _params(name, quad)
    for rep in (0, 7):
        dataset = GENERATORS[name](p, N, make_stream(SEED, rep))
        _assert_dataset_bytes(dataset, _expected_dataset(name, p, rep))
    stacked = GENERATORS[name](p, N, StreamStack(SEED, [7, 0]))
    _assert_dataset_bytes(stacked, _expected_dataset(name, p, 7), row=0)
    _assert_dataset_bytes(stacked, _expected_dataset(name, p, 0), row=1)


@pytest.mark.parametrize("name,quad", CASES)
def test_gcomputation_matches_raw_philox(name, quad):
    p = _params(name, quad)
    for rep, psi in ((3, RULES[name]), (4, [(1.0,) + (0.5,) * (len(f) - 1) for f in RULE_FEATURES[name]])):
        regime = Regime(
            tuple(DecisionRule(FeatureMap.parse(f), c) for f, c in zip(RULE_FEATURES[name], psi))
        )
        stream = make_stream(SEED, rep).substream(8)
        value, se = value_gcomputation(p, regime, N_DRAWS, stream)
        want_value, want_se = _expected_gcomp(name, p, psi, rep)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert np.float64(se).tobytes() == np.float64(want_se).tobytes()
