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

Each scenario is one :class:`ScenarioDef` in the registry, with its law
written once.  Generation runs the law drawing every variable from its own
substream of the stream it is given, in time order (s1, a1, s2, a2, outcome
noise), so draws are prefix stable in n and an edit to one variable's law
never shifts another's draws; a :class:`~dtrkit.rng.StreamStack` of R
streams gives R datasets side by side.  g-computation runs the same law with
the states drawn in turn from one stream, a regime choosing the actions and
no outcome noise.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import ArrayColumns, Dataset, DecisionRule, FeatureMap, Regime, StageSpec
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
    "scenario_names",
    "scenario_of",
    "scenario_params",
    "scenario_registry",
    "true_psi",
    "true_regime",
]


def _finite_float(value) -> float:
    """``value`` as a float if it is one finite real number (not a bool), else NaN."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return float(value) if real and abs(value) <= sys.float_info.max else math.nan


class _Params:
    """Base of the scenario parameter classes, which checks each field against
    its default.  A tuple default takes a list or tuple of as many finite real
    numbers, any other default one finite real number; values are stored as
    floats, and the fields in ``_scales`` (variances and sds) must be > 0.  A
    bad value raises :class:`InvalidParameterError` naming the field."""

    _scales = ()

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value, default = getattr(self, field.name), field.default
            vector = isinstance(default, tuple)
            if not vector:
                floats = (_finite_float(value),)
            elif isinstance(value, (list, tuple)) and len(value) == len(default):
                floats = tuple(map(_finite_float, value))
            else:
                floats = (math.nan,)
            if not all(map(math.isfinite, floats)):
                raise InvalidParameterError(
                    f"{field.name} must be finite numbers shaped like {default!r}, got {value!r}"
                )
            if field.name in self._scales and floats[0] <= 0.0:
                raise InvalidParameterError(f"{field.name} must be positive")
            object.__setattr__(self, field.name, floats if vector else floats[0])


@dataclass(frozen=True)
class OneDecisionParams(_Params):
    """Parameters of the one-stage scenario (variances, not sds)."""

    _scales = ("y_var",)

    phi: tuple = (0.0, -2.0, 0.0)
    beta: tuple = (1.0, 1.0, 0.0)
    psi: tuple = (1.0, 0.5)
    y_var: float = 9.0


@dataclass(frozen=True)
class TwoDecisionParams(_Params):
    """Parameters of the two-stage scenario (variances, not sds)."""

    _scales = ("s2_var", "y_var")

    phi1: tuple = (0.3, -0.5)
    delta: tuple = (0.0, 0.5, -0.75, 0.25)
    s2_var: float = 2.0
    phi2: tuple = (0.0, 0.5, 0.1, -1.0, -0.1, 0.0)
    beta2: tuple = (3.0, 0.0, 0.1, -0.5, -0.5, 0.0)
    psi2: tuple = (1.0, 0.25, 0.5)
    y_var: float = 10.0


@dataclass(frozen=True)
class MoodieParams(_Params):
    """Parameters of the clinical-scale two-stage scenario (sds, not variances).

    Both contrast slopes are negative by default: treatment helps below a
    state threshold (-psi[0]/psi[1], here 250 at stage 1 and 360 at stage 2)
    and harms above it.
    """

    _scales = ("s1_sd", "s2_sd", "yopt_sd")

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


class _Source:
    """The draws a law runs on, keeping the states and actions so far.

    Without a regime (generation) variable k comes from substream k, each
    action from its propensity, and the outcome gets its noise.  With a
    regime (g-computation) the states come in turn from the stream itself,
    the regime chooses each action, and the outcome is its mean; under E
    stacked rules each raw draw serves all E, and what follows broadcasts.
    """

    def __init__(self, stream, n: int, regime: Regime | None = None):
        self.stream, self.n, self.regime = stream, n, regime
        self.states, self.actions = [], []

    def _next(self):
        if self.regime is not None:
            return self.stream
        return self.stream.substream(len(self.states) + len(self.actions))

    def normal(self, loc, scale):
        """The next state, N(loc, scale^2)."""
        self.states.append(self._next().normal(self.n, loc=loc, scale=scale))
        return self.states[-1]

    def coin(self, p):
        """The next state, 1.0 with probability p and 0.0 otherwise."""
        self.states.append(self._next().bernoulli(p, self.n).astype(float))
        return self.states[-1]

    def action(self, eta: Callable):
        """The next action: Bernoulli(expit(eta())), or the regime's."""
        if self.regime is None:
            self.actions.append(self._next().bernoulli(expit(eta()), self.n))
        else:
            states = {k: s[..., None] for k, s in enumerate(self.states, 1)}
            history = ArrayColumns(self.n, states, dict(enumerate(self.actions, 1)))
            self.actions.append(self.regime.actions(len(self.actions) + 1, history))
        return self.actions[-1]

    def outcome(self, mean, sd):
        """``mean`` plus N(0, sd^2) noise, or ``mean`` under a regime."""
        if self.regime is not None:
            return mean
        return self._next().normal(self.n, loc=mean, scale=sd)


def _one_decision_law(params: OneDecisionParams, draw: _Source):
    sd = np.sqrt(params.y_var)
    b = np.asarray(params.beta)
    f = np.asarray(params.phi)
    p = np.asarray(params.psi)
    s1 = draw.normal(0.0, 1.0)
    a1 = draw.action(lambda: f[0] + f[1] * s1 + f[2] * s1 * s1)
    return draw.outcome(b[0] + b[1] * s1 + b[2] * s1 * s1 + a1 * (p[0] + p[1] * s1), sd)


def _two_decision_law(params: TwoDecisionParams, draw: _Source):
    s2_sd = np.sqrt(params.s2_var)
    y_sd = np.sqrt(params.y_var)
    f1 = np.asarray(params.phi1)
    d = np.asarray(params.delta)
    f2 = np.asarray(params.phi2)
    b2 = np.asarray(params.beta2)
    p2 = np.asarray(params.psi2)
    s1 = draw.coin(0.5)
    a1 = draw.action(lambda: f1[0] + f1[1] * s1)
    mu2 = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
    s2 = draw.normal(mu2, s2_sd)
    a2 = draw.action(
        lambda: f2[0] + f2[1] * s1 + f2[2] * a1 + f2[3] * s2 + f2[4] * a1 * s2 + f2[5] * s2 * s2
    )
    h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
    c2 = p2[0] + p2[1] * a1 + p2[2] * s2
    return draw.outcome(h2 + a2 * c2, y_sd)


def _moodie_law(params: MoodieParams, draw: _Source):
    f1 = np.asarray(params.phi1)
    f2 = np.asarray(params.phi2)
    p1 = np.asarray(params.psi1)
    p2 = np.asarray(params.psi2)
    s1 = draw.normal(params.s1_mean, params.s1_sd)
    a1 = draw.action(lambda: f1[0] + f1[1] * s1)
    s2 = draw.normal(params.s2_coef * s1, params.s2_sd)
    a2 = draw.action(lambda: f2[0] + f2[1] * s2)
    # The noise belongs to Yopt, before the regrets are taken off: the
    # rounding of y depends on that order.
    yopt = draw.outcome(params.yopt_intercept + params.yopt_slope * s1, params.yopt_sd)
    c1 = p1[0] + p1[1] * s1
    c2 = p2[0] + p2[1] * s2
    return yopt - c1 * ((c1 > 0.0) - a1) - c2 * ((c2 > 0.0) - a2)


def _generate(law, params, n: int, stream) -> Dataset:
    draw = _Source(stream, n)
    y = law(params, draw)
    return Dataset(tuple(s[..., None] for s in draw.states), tuple(draw.actions), y)


def gen_one_decision(params: OneDecisionParams, n: int, stream: RngStream) -> Dataset:
    """Draw n one-stage trajectories."""
    return _generate(_one_decision_law, params, n, stream)


def gen_two_decision(params: TwoDecisionParams, n: int, stream: RngStream) -> Dataset:
    """Draw n two-stage trajectories."""
    return _generate(_two_decision_law, params, n, stream)


def gen_moodie(params: MoodieParams, n: int, stream: RngStream) -> Dataset:
    """Draw n two-stage clinical-scale trajectories."""
    return _generate(_moodie_law, params, n, stream)


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


def _stage2_means(params: TwoDecisionParams, s1: float, a1: float, var2: float):
    """Mean of S2 given (s1, a1), and of the stage-2 action-free outcome,
    with E S2^2 = mu^2 + var2."""
    d = np.asarray(params.delta)
    b2 = np.asarray(params.beta2)
    mu = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
    h_mean = (
        b2[0]
        + b2[1] * s1
        + b2[2] * a1
        + b2[3] * s1 * a1
        + b2[4] * mu
        + b2[5] * (mu * mu + var2)
    )
    return mu, h_mean


def _q1_two_decision(params: TwoDecisionParams, s1: float, a1: float) -> float:
    """True stage-1 outcome value E{Y acting optimally at stage 2 | s1, a1}."""
    p2 = np.asarray(params.psi2)
    var2 = params.s2_var
    mu, h_mean = _stage2_means(params, s1, a1, var2)
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


# ---------------------------------------------------------------------------
# Closed-form regime values
# ---------------------------------------------------------------------------


def _linear_indicator_mean(c0, c1, r0, r1, mu, sd):
    """E[(c0 + c1 X) 1{r0 + r1 X > 0}] for X ~ N(mu, sd^2), elementwise.

    A zero rule slope makes the indicator constant (strict inequality, so
    r0 = 0 means the indicator is 0).  A NaN rule gives NaN.
    """
    flat = r1 == 0.0
    cut = -r0 / np.where(flat, 1.0, r1)
    above = trunc_norm_moments(mu, sd, cut, "above")
    below = trunc_norm_moments(mu, sd, cut, "below")
    prob, partial = (np.where(r1 > 0.0, a, b) for a, b in zip(above, below))
    return np.where(flat, np.where(r0 > 0.0, c0 + c1 * mu, 0.0), c0 * prob + c1 * partial)


def _one_decision_value(params: OneDecisionParams, psi_list):
    """Population value of the rule 1{psi0 + psi1 s1 > 0}.

    H(d) = beta0 + beta1 E(S1) + beta2 E(S1^2)
           + E[1{psi0 + psi1 S1 > 0} (psi0* + psi1* S1)]

    with S1 ~ N(0, 1) and starred coefficients the true contrast.
    """
    (psi,) = (np.asarray(psi, dtype=float) for psi in psi_list)
    b = np.asarray(params.beta)
    p0 = np.asarray(params.psi)
    base = b[0] + b[2]
    value = base + _linear_indicator_mean(p0[0], p0[1], psi[..., 0], psi[..., 1], 0.0, 1.0)
    return value if np.ndim(value) else float(value)


def _two_decision_value(params: TwoDecisionParams, psi_list):
    """Population value of a two-stage rule pair.

    Averages over the two equally likely values of S1.  Within each branch
    the stage-1 action a1 follows the stage-1 rule, S2 | s1, a1 is normal,
    and the expected outcome adds the true action-free mean (including the
    quadratic term against E S2^2 = mu^2 + var) to the true contrast gained
    on the event the stage-2 rule treats.
    """
    psi1, psi2 = (np.asarray(psi, dtype=float) for psi in psi_list)
    p2 = np.asarray(params.psi2)
    sd2 = float(np.sqrt(params.s2_var))
    total = 0.0
    for s1 in (0.0, 1.0):
        a1 = np.where(psi1[..., 0] + psi1[..., 1] * s1 > 0.0, 1.0, 0.0)
        mu, h_mean = _stage2_means(params, s1, a1, sd2 * sd2)
        gain = _linear_indicator_mean(
            p2[0] + p2[1] * a1, p2[2], psi2[..., 0] + psi2[..., 1] * a1, psi2[..., 2], mu, sd2
        )
        total += 0.5 * (h_mean + gain)
    return total if np.ndim(total) else float(total)


def _moodie_value(params: MoodieParams, psi_list):
    """Population value of a two-stage rule pair in the clinical scenario.

    The generative outcome is the potential optimal outcome minus the regret
    of each stage's action, and each stage's state has a normal marginal
    (S2 = s2_coef * S1 + noise), so

    H(d) = E(Yopt) - sum_k E[C_k(S_k) (1{C_k(S_k) > 0} - 1{rule_k treats})]

    with every term a normal half-line moment.  Equals
    yopt_intercept + yopt_slope * s1_mean exactly when both rules match the
    true contrasts' signs.
    """
    psi1, psi2 = (np.asarray(psi, dtype=float) for psi in psi_list)
    p1 = np.asarray(params.psi1)
    p2 = np.asarray(params.psi2)
    mu1, sd1 = params.s1_mean, params.s1_sd
    mu2 = params.s2_coef * params.s1_mean
    sd2 = float(np.hypot(params.s2_coef * params.s1_sd, params.s2_sd))
    value = params.yopt_intercept + params.yopt_slope * params.s1_mean
    for true_c, rule, mu, sd in ((p1, psi1, mu1, sd1), (p2, psi2, mu2, sd2)):
        optimal = _linear_indicator_mean(true_c[0], true_c[1], true_c[0], true_c[1], mu, sd)
        achieved = _linear_indicator_mean(true_c[0], true_c[1], rule[..., 0], rule[..., 1], mu, sd)
        value -= optimal - achieved
    return value if np.ndim(value) else float(value)


# ---------------------------------------------------------------------------
# Registry used by studies, evaluation, calibration and the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDef:
    """One scenario: its law and everything that must agree with it.

    ``generate(params, n, stream)`` draws a dataset by running ``law``.
    ``truth(params)`` gives the true contrast coefficients, one array per
    stage, and ``value(params, psi_list)`` the closed-form value of the
    rules with coefficients ``psi_list``: (R,) values for (R, p_k) stacks,
    a float for (p_k,) vectors.  ``rules`` holds each stage's rule
    features and ``working`` / ``full`` each stage's ``(h, c, propensity)``
    features; ``full`` models the law exactly, quadratic terms included.
    ``calibration`` names the last-stage outcome and propensity fields whose
    final (quadratic) entries calibration moves.  ``derived_truth(params)``
    gives the stage-1 ``(beta1, psi1)`` the later stages induce.
    """

    name: str
    params_cls: type
    generate: Callable
    law: Callable
    truth: Callable
    value: Callable
    rules: tuple
    working: tuple
    default_n: int
    full: tuple | None = None
    calibration: tuple | None = None
    derived_truth: Callable | None = None

    @property
    def n_stages(self) -> int:
        return len(self.rules)

    @property
    def state_dims(self) -> tuple:
        return (1,) * self.n_stages

    def working_specs(self) -> list:
        return [StageSpec.parse(h, c, propensity=prop) for h, c, prop in self.working]

    def full_specs(self) -> list:
        if self.full is None:
            raise InvalidParameterError(f"scenario {self.name} has no full model set")
        return [StageSpec.parse(h, c, propensity=prop) for h, c, prop in self.full]

    def regime(self, psi_list) -> Regime:
        """The regime with this scenario's rule features and coefficients
        ``psi_list``, one array per stage."""
        rules = zip(self.rules, psi_list)
        return Regime(tuple(DecisionRule(FeatureMap.parse(f), psi) for f, psi in rules))

    def outcome_means(self, params, regime: Regime, n: int, stream) -> np.ndarray:
        """The law's g-computation run: n outcome means under ``regime`` ((E, n) if stacked)."""
        return self.law(params, _Source(stream, n, regime))


# Feature lists shared by the model sets.  Each working model leaves out the
# law's quadratic term; the full model adds it back.
_S1 = ("1", "s1")
_H2 = ("1", "s1", "a1", "s1*a1", "s2")
_P2 = ("1", "s1", "a1", "s2", "a1*s2")
_STAGE1 = (_S1, _S1, _S1)

_REGISTRY = {
    "one_decision": ScenarioDef(
        "one_decision", OneDecisionParams, gen_one_decision, _one_decision_law,
        truth=lambda params: [np.asarray(params.psi, dtype=float)],
        value=_one_decision_value,
        rules=(_S1,),
        working=(_STAGE1,),
        full=((_S1 + ("s1^2",), _S1, _S1 + ("s1^2",)),),
        calibration=("beta", "phi"),
        default_n=200,
    ),
    "two_decision": ScenarioDef(
        "two_decision", TwoDecisionParams, gen_two_decision, _two_decision_law,
        truth=lambda params: [
            derive_stage1_truth(params)[1], np.asarray(params.psi2, dtype=float)
        ],
        value=_two_decision_value,
        rules=(_S1, ("1", "a1", "s2")),
        working=(_STAGE1, (_H2, ("1", "a1", "s2"), _P2)),
        full=(_STAGE1, (_H2 + ("s2^2",), ("1", "a1", "s2"), _P2 + ("s2^2",))),
        calibration=("beta2", "phi2"),
        derived_truth=derive_stage1_truth,
        default_n=200,
    ),
    "moodie": ScenarioDef(
        "moodie", MoodieParams, gen_moodie, _moodie_law,
        truth=lambda params: [np.asarray(p, dtype=float) for p in (params.psi1, params.psi2)],
        value=_moodie_value,
        rules=(_S1, ("1", "s2")),
        working=(_STAGE1, (_H2, ("1", "s2"), ("1", "s2"))),
        default_n=1000,
    ),
}


def scenario_names() -> list:
    """Names of the built-in scenarios, sorted."""
    return sorted(_REGISTRY)


def scenario_registry(name: str) -> ScenarioDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown scenario {name!r}; expected one of {scenario_names()}"
        ) from None


def scenario_of(params) -> ScenarioDef:
    """The built-in scenario that ``params`` parameterizes."""
    for definition in _REGISTRY.values():
        if isinstance(params, definition.params_cls):
            return definition
    raise InvalidParameterError(f"unknown scenario parameters {type(params).__name__}")


def true_psi(params) -> list:
    """True contrast coefficient vectors, one per stage."""
    return scenario_of(params).truth(params)


def true_regime(params) -> Regime:
    """The optimal regime of a scenario: treat where the true contrast is
    positive."""
    definition = scenario_of(params)
    return definition.regime(definition.truth(params))


def scenario_params(name: str, **overrides):
    """Default parameters for a scenario, with keyword overrides applied."""
    params_cls = scenario_registry(name).params_cls
    bad = set(overrides) - {f.name for f in dataclasses.fields(params_cls)}
    if bad:
        raise InvalidParameterError(f"unknown parameter(s) for {name}: {sorted(bad)}")
    return params_cls(**overrides)
