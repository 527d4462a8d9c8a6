"""Synthetic trajectory scenarios with known ground truth.

Three generative laws, each with binary actions and a terminal outcome:

``one_decision``
    One stage.  S1 ~ N(0, 1), A1 ~ Bernoulli(expit(phi' (1, s1, s1^2))),
    Y = beta' (1, s1, s1^2) + a1 * psi' (1, s1) + eps, eps ~ N(0, y_var).
    The default has zero quadratic coefficients; setting them nonzero makes
    the linear working outcome model or propensity model wrong while the
    treatment contrast stays correct.

``two_decision``
    Two stages.  S1 ~ Bernoulli(1/2) on {0, 1},
    A1 ~ Bernoulli(expit(phi1' (1, s1))),
    S2 | s1, a1 ~ N(delta' (1, s1, a1, s1 a1), s2_var),
    A2 ~ Bernoulli(expit(phi2' (1, s1, a1, s2, a1 s2, s2^2))),
    Y = beta2' (1, s1, a1, s1 a1, s2, s2^2) + a2 * psi2' (1, a1, s2) + eps,
    eps ~ N(0, y_var).  The quadratic coefficients phi2[5] and beta2[5]
    control misspecification exactly as above.

``moodie``
    Two stages on a clinical scale.  S1 ~ N(s1_mean, s1_sd^2),
    A1 ~ Bernoulli(expit(phi1' (1, s1))), S2 | s1 ~ N(s2_coef * s1, s2_sd^2),
    A2 ~ Bernoulli(expit(phi2' (1, s2))), and the outcome is built from a
    potential optimal outcome penalized by the regret of each action taken:
    Y = Yopt - C1(s1) (1{C1 > 0} - a1) - C2(s2) (1{C2 > 0} - a2) with
    C_k = psi_k' (1, s_k) and Yopt ~ N(yopt_intercept + yopt_slope * s1,
    yopt_sd^2).  True action-free means are nonsmooth in the states, so
    linear outcome models are misspecified by construction while the
    contrast and propensity models are correct.

Variance conventions: ``y_var`` and ``s2_var`` are variances; the clinical
scenario is parameterized by standard deviations (``*_sd``).

Each generator draws every variable from its own substream of the stream it
is given, in time order (s1, a1, s2, a2, outcome noise), so draws are prefix
stable in n and an edit to one variable's law never shifts another's draws.
Given a :class:`~dtrkit.rng.StreamStack` of R streams, the same code draws R
datasets side by side and returns them as one stacked :class:`Dataset`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DecisionRule, FeatureMap, Regime, StageSpec
from .errors import InvalidParameterError
from .numerics import expit, trunc_norm_moments
from .rng import RngStream

__all__ = [
    "MoodieParams",
    "OneDecisionParams",
    "TwoDecisionParams",
    "derive_stage1_truth",
    "gen_moodie",
    "gen_one_decision",
    "gen_two_decision",
    "induced_q1_closed_form",
    "moodie_specs",
    "one_decision_full_specs",
    "one_decision_specs",
    "scenario_params",
    "scenario_registry",
    "true_psi",
    "true_regime",
    "two_decision_full_specs",
    "two_decision_specs",
]


@dataclass(frozen=True)
class OneDecisionParams:
    """Parameters of the one-stage scenario (variances, not sds)."""

    phi: tuple = (0.0, -2.0, 0.0)
    beta: tuple = (1.0, 1.0, 0.0)
    psi: tuple = (1.0, 0.5)
    y_var: float = 9.0


@dataclass(frozen=True)
class TwoDecisionParams:
    """Parameters of the two-stage scenario (variances, not sds)."""

    phi1: tuple = (0.3, -0.5)
    delta: tuple = (0.0, 0.5, -0.75, 0.25)
    s2_var: float = 2.0
    phi2: tuple = (0.0, 0.5, 0.1, -1.0, -0.1, 0.0)
    beta2: tuple = (3.0, 0.0, 0.1, -0.5, -0.5, 0.0)
    psi2: tuple = (1.0, 0.25, 0.5)
    y_var: float = 10.0


@dataclass(frozen=True)
class MoodieParams:
    """Parameters of the clinical-scale two-stage scenario (sds, not variances).

    Both contrast slopes are negative by default: treatment helps below a
    state threshold (-psi[0]/psi[1], here 250 at stage 1 and 360 at stage 2)
    and harms above it.
    """

    s1_mean: float = 450.0
    s1_sd: float = 150.0
    phi1: tuple = (2.0, -0.006)
    s2_coef: float = 1.25
    s2_sd: float = 60.0
    phi2: tuple = (0.8, -0.004)
    psi1: tuple = (250.0, -1.0)
    psi2: tuple = (720.0, -2.0)
    yopt_intercept: float = 400.0
    yopt_slope: float = 1.6
    yopt_sd: float = 60.0


def _check_sd(value: float, name: str) -> float:
    if value <= 0.0:
        raise InvalidParameterError(f"{name} must be positive")
    return float(value)


def gen_one_decision(params: OneDecisionParams, n: int, stream: RngStream) -> Dataset:
    """Draw n one-stage trajectories."""
    sd = np.sqrt(_check_sd(params.y_var, "y_var"))
    b = np.asarray(params.beta)
    f = np.asarray(params.phi)
    p = np.asarray(params.psi)
    s1 = stream.substream(0).normal(n)
    a1 = stream.substream(1).bernoulli(expit(f[0] + f[1] * s1 + f[2] * s1 * s1), n)
    eps = stream.substream(2).normal(n, scale=sd)
    y = b[0] + b[1] * s1 + b[2] * s1 * s1 + a1 * (p[0] + p[1] * s1) + eps
    return Dataset((s1[..., None],), (a1,), y)


def gen_two_decision(params: TwoDecisionParams, n: int, stream: RngStream) -> Dataset:
    """Draw n two-stage trajectories."""
    s2_sd = np.sqrt(_check_sd(params.s2_var, "s2_var"))
    y_sd = np.sqrt(_check_sd(params.y_var, "y_var"))
    f1 = np.asarray(params.phi1)
    d = np.asarray(params.delta)
    f2 = np.asarray(params.phi2)
    b2 = np.asarray(params.beta2)
    p2 = np.asarray(params.psi2)
    s1 = stream.substream(0).bernoulli(0.5, n).astype(float)
    a1 = stream.substream(1).bernoulli(expit(f1[0] + f1[1] * s1), n)
    mu2 = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
    s2 = stream.substream(2).normal(n, loc=mu2, scale=s2_sd)
    eta2 = f2[0] + f2[1] * s1 + f2[2] * a1 + f2[3] * s2 + f2[4] * a1 * s2 + f2[5] * s2 * s2
    a2 = stream.substream(3).bernoulli(expit(eta2), n)
    eps = stream.substream(4).normal(n, scale=y_sd)
    h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
    c2 = p2[0] + p2[1] * a1 + p2[2] * s2
    y = h2 + a2 * c2 + eps
    return Dataset((s1[..., None], s2[..., None]), (a1, a2), y)


def gen_moodie(params: MoodieParams, n: int, stream: RngStream) -> Dataset:
    """Draw n two-stage clinical-scale trajectories."""
    for name in ("s1_sd", "s2_sd", "yopt_sd"):
        _check_sd(getattr(params, name), name)
    f1 = np.asarray(params.phi1)
    f2 = np.asarray(params.phi2)
    p1 = np.asarray(params.psi1)
    p2 = np.asarray(params.psi2)
    s1 = stream.substream(0).normal(n, loc=params.s1_mean, scale=params.s1_sd)
    a1 = stream.substream(1).bernoulli(expit(f1[0] + f1[1] * s1), n)
    s2 = stream.substream(2).normal(n, loc=params.s2_coef * s1, scale=params.s2_sd)
    a2 = stream.substream(3).bernoulli(expit(f2[0] + f2[1] * s2), n)
    yopt = stream.substream(4).normal(
        n, loc=params.yopt_intercept + params.yopt_slope * s1, scale=params.yopt_sd
    )
    c1 = p1[0] + p1[1] * s1
    c2 = p2[0] + p2[1] * s2
    y = yopt - c1 * ((c1 > 0.0) - a1) - c2 * ((c2 > 0.0) - a2)
    return Dataset((s1[..., None], s2[..., None]), (a1, a2), y)


# ---------------------------------------------------------------------------
# Analysis model sets
# ---------------------------------------------------------------------------


def one_decision_specs() -> list:
    """Linear working models: correct contrast and propensity shape, no
    quadratic terms anywhere."""
    return [StageSpec.parse(h=["1", "s1"], c=["1", "s1"], propensity=["1", "s1"])]


def one_decision_full_specs() -> list:
    """Models matching the generative law, quadratic terms included."""
    return [
        StageSpec.parse(
            h=["1", "s1", "s1^2"], c=["1", "s1"], propensity=["1", "s1", "s1^2"]
        )
    ]


def two_decision_specs() -> list:
    """Linear working models omitting the stage-2 quadratic terms."""
    return [
        StageSpec.parse(h=["1", "s1"], c=["1", "s1"], propensity=["1", "s1"]),
        StageSpec.parse(
            h=["1", "s1", "a1", "s1*a1", "s2"],
            c=["1", "a1", "s2"],
            propensity=["1", "s1", "a1", "s2", "a1*s2"],
        ),
    ]


def two_decision_full_specs() -> list:
    """Models matching the generative law, stage-2 quadratic terms included."""
    return [
        StageSpec.parse(h=["1", "s1"], c=["1", "s1"], propensity=["1", "s1"]),
        StageSpec.parse(
            h=["1", "s1", "a1", "s1*a1", "s2", "s2^2"],
            c=["1", "a1", "s2"],
            propensity=["1", "s1", "a1", "s2", "a1*s2", "s2^2"],
        ),
    ]


def moodie_specs() -> list:
    """Working models for the clinical scenario: correct contrasts and
    propensities, linear (hence misspecified) action-free means."""
    return [
        StageSpec.parse(h=["1", "s1"], c=["1", "s1"], propensity=["1", "s1"]),
        StageSpec.parse(
            h=["1", "s1", "a1", "s1*a1", "s2"],
            c=["1", "s2"],
            propensity=["1", "s2"],
        ),
    ]


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def induced_q1_closed_form(s1, a1, beta21, beta22, psi21, psi22, gamma, sigma):
    """Stage-1 outcome value induced by a linear stage-2 model.

    For a two-stage problem where, given (s1, a1), the intermediate state is
    S2 ~ N(k' gamma, sigma^2) with k = (1, s1, a1)', and the stage-2 outcome
    model is E(Y | s1, a1, s2, a2) = k' beta21 + beta22 s2
    + a2 (k' psi21 + psi22 s2), acting optimally at stage 2 yields

        Q1(s1, a1) = k'(beta21 + gamma beta22)
                     + (k' psi21) (1 - Phi(eta))
                     + psi22 {sigma phi(eta) + (k' gamma)(1 - Phi(eta))},

    with eta = -k'(psi21 / psi22 + gamma) / sigma.  Requires psi22 > 0 (the
    optimal stage-2 action is then s2 > -k' psi21 / psi22) and sigma > 0.
    """
    if psi22 <= 0.0:
        raise InvalidParameterError("psi22 must be positive")
    if sigma <= 0.0:
        raise InvalidParameterError("sigma must be positive")
    k = np.asarray([1.0, s1, a1], dtype=float)
    beta21 = np.asarray(beta21, dtype=float)
    psi21 = np.asarray(psi21, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    mu = float(k @ gamma)
    cut = -float(k @ psi21) / psi22
    prob, partial = trunc_norm_moments(mu, sigma, cut, "above")
    return float(k @ beta21) + beta22 * mu + float(k @ psi21) * prob + psi22 * partial


def _expected_positive_part(mu: float, sd: float) -> float:
    """E[X 1{X > 0}] for X ~ N(mu, sd^2), allowing sd = 0."""
    if sd == 0.0:
        return mu if mu > 0.0 else 0.0
    _, partial = trunc_norm_moments(mu, sd, 0.0, "above")
    return partial


def _q1_two_decision(params: TwoDecisionParams, s1: float, a1: float) -> float:
    """True stage-1 outcome value E{Y acting optimally at stage 2 | s1, a1}."""
    d = np.asarray(params.delta)
    b2 = np.asarray(params.beta2)
    p2 = np.asarray(params.psi2)
    mu = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
    var2 = params.s2_var
    h_mean = (
        b2[0]
        + b2[1] * s1
        + b2[2] * a1
        + b2[3] * s1 * a1
        + b2[4] * mu
        + b2[5] * (mu * mu + var2)
    )
    # C2 = psi20 + psi21 a1 + psi22 S2 is normal given (s1, a1)
    c_mean = p2[0] + p2[1] * a1 + p2[2] * mu
    c_sd = abs(p2[2]) * np.sqrt(var2)
    return h_mean + _expected_positive_part(c_mean, c_sd)


def derive_stage1_truth(params: TwoDecisionParams):
    """True stage-1 coefficients of the two-stage scenario.

    With s1 and a1 both binary, the saturated model
    Q1 = beta10 + beta11 s1 + a1 (psi10 + psi11 s1) reproduces the four
    values of the true stage-1 outcome value exactly, so the coefficients
    follow from corner differences:

        beta10 = Q1(0,0),        beta11 = Q1(1,0) - Q1(0,0),
        psi10  = Q1(0,1) - Q1(0,0),
        psi11  = Q1(1,1) - Q1(1,0) - Q1(0,1) + Q1(0,0).

    Returns ``(beta1, psi1)`` as length-2 arrays.
    """
    q00 = _q1_two_decision(params, 0.0, 0.0)
    q10 = _q1_two_decision(params, 1.0, 0.0)
    q01 = _q1_two_decision(params, 0.0, 1.0)
    q11 = _q1_two_decision(params, 1.0, 1.0)
    beta1 = np.asarray([q00, q10 - q00])
    psi1 = np.asarray([q01 - q00, q11 - q10 - q01 + q00])
    return beta1, psi1


def true_psi(params) -> list:
    """True contrast coefficient vectors, one per stage."""
    if isinstance(params, OneDecisionParams):
        return [np.asarray(params.psi, dtype=float)]
    if isinstance(params, TwoDecisionParams):
        _, psi1 = derive_stage1_truth(params)
        return [psi1, np.asarray(params.psi2, dtype=float)]
    if isinstance(params, MoodieParams):
        return [np.asarray(params.psi1, dtype=float), np.asarray(params.psi2, dtype=float)]
    raise InvalidParameterError(f"unknown scenario parameters {type(params).__name__}")


def _rule_feature_maps(params) -> list:
    if isinstance(params, OneDecisionParams):
        return [FeatureMap.parse(["1", "s1"])]
    if isinstance(params, TwoDecisionParams):
        return [FeatureMap.parse(["1", "s1"]), FeatureMap.parse(["1", "a1", "s2"])]
    if isinstance(params, MoodieParams):
        return [FeatureMap.parse(["1", "s1"]), FeatureMap.parse(["1", "s2"])]
    raise InvalidParameterError(f"unknown scenario parameters {type(params).__name__}")


def true_regime(params) -> Regime:
    """The optimal regime of a scenario: treat where the true contrast is
    positive."""
    rules = tuple(
        DecisionRule(fm, psi) for fm, psi in zip(_rule_feature_maps(params), true_psi(params))
    )
    return Regime(rules)


# ---------------------------------------------------------------------------
# Registry used by the study driver and the command line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDef:
    name: str
    params_cls: type
    generate: callable
    working_specs: callable
    full_specs: callable | None
    n_stages: int
    state_dims: tuple
    default_n: int


_REGISTRY = {
    "one_decision": ScenarioDef(
        "one_decision", OneDecisionParams, gen_one_decision,
        one_decision_specs, one_decision_full_specs, 1, (1,), 200,
    ),
    "two_decision": ScenarioDef(
        "two_decision", TwoDecisionParams, gen_two_decision,
        two_decision_specs, two_decision_full_specs, 2, (1, 1), 200,
    ),
    "moodie": ScenarioDef(
        "moodie", MoodieParams, gen_moodie,
        moodie_specs, None, 2, (1, 1), 1000,
    ),
}


def scenario_registry(name: str) -> ScenarioDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown scenario {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None


def scenario_params(name: str, **overrides):
    """Default parameters for a scenario, with keyword overrides applied."""
    params = scenario_registry(name).params_cls()
    if overrides:
        bad = set(overrides) - {f.name for f in dataclasses.fields(params)}
        if bad:
            raise InvalidParameterError(f"unknown parameter(s) for {name}: {sorted(bad)}")
        params = dataclasses.replace(params, **overrides)
    return params
