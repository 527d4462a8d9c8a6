"""Doubly-robust contrast estimation for optimal regimes.

Each stage models the treatment contrast C_k(h) = x_c(h)' psi_k, a nuisance
action-free mean x_h(h)' beta_k, and the propensity pi_k(h).  The stage
coefficients solve the stacked estimating equations

    sum_i (a_i - pihat_i) x_c_i (v_i - a_i x_c_i' psi - x_h_i' beta) = 0
    sum_i            x_h_i (v_i - a_i x_c_i' psi - x_h_i' beta) = 0

whose solution is consistent for psi when either the propensity model or
the action-free mean model is correct (the contrast model itself being
correct).  Both sums are linear in (psi, beta), so the solve is one linear
system; the propensity is fit first by maximum likelihood, which reproduces
the simultaneous root exactly because the likelihood score does not involve
(psi, beta).

The fitted stage induces the pseudo-outcome

    v_i <- v_i + chat_i * (1{chat_i > 0} - a_i),    chat_i = x_c_i' psi_hat,

the observed response corrected by the regret of the action actually taken,
which becomes the response one stage earlier.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import Dataset, KnownPropensity, LogisticPropensity, StageFit, build_design
from .errors import ExtremePropensityWarning, InvalidParameterError, SingularSystemError
# solve_linear is not called here, but bench/spans.py traces it as
# alearn.solve_linear.
from .numerics import (  # noqa: F401
    _matvec,
    _swap,
    _take,
    estimating_solve,
    logistic_fit,
    logistic_stack,
    solve_linear,
)
from .recursion import RegimeFit, backward_fit, first_replication, single_fit

__all__ = [
    "ALearnResult",
    "a_pseudo_outcome",
    "alearn_fit",
    "alearn_stack",
    "alearn_stage_solve",
    "extreme_propensity",
    "propensity_eval",
]

ALearnResult = RegimeFit

# Stacked moment sums at the solution must vanish to solver precision.
MOMENT_TOL = 1e-8
# Fitted propensities closer to 0 or 1 than this trigger a warning.
PROPENSITY_EPS = 1e-6


def extreme_propensity(pihat) -> np.ndarray:
    """Whether any propensity (per replication of a stack) lies within
    ``PROPENSITY_EPS`` of 0 or 1."""
    return np.any((pihat < PROPENSITY_EPS) | (pihat > 1.0 - PROPENSITY_EPS), axis=-1)


def _warn_extreme(pihat, stage: int) -> None:
    if extreme_propensity(pihat):
        warnings.warn(
            f"stage {stage}: fitted propensities within {PROPENSITY_EPS:g} of 0 or 1; "
            "contrast estimates may be unstable",
            ExtremePropensityWarning,
            stacklevel=3,
        )


def propensity_eval(propensity, dataset: Dataset, stage: int):
    """Evaluate or fit the stage propensity.

    Returns ``(pihat, fit)`` where ``fit`` is the logistic
    :class:`~dtrkit.numerics.FitResult` when a model was fit and None when
    the propensity is known.  Values within ``PROPENSITY_EPS`` of 0 or 1
    are left untouched but raise :class:`ExtremePropensityWarning`.
    """
    if isinstance(propensity, LogisticPropensity):
        propensity.features.check_stage(stage)
        fit = logistic_fit(propensity.features.evaluate(dataset), dataset.action_col(stage))
        pihat = fit.fitted
    else:
        pihat, fit = _known_propensity(propensity, dataset, stage), None
    _warn_extreme(pihat, stage)
    return pihat, fit


def _known_propensity(propensity, dataset: Dataset, stage: int):
    if not isinstance(propensity, KnownPropensity):
        raise InvalidParameterError(
            f"stage {stage} has no usable propensity specification ({propensity!r})"
        )
    return propensity.evaluate(dataset, stage)


def _stage_solve(design_h, design_c, actions, pihat, v, stage: int):
    """The stacked estimating equations of one stage for each replication of
    a stack; returns ``(fit, errors)`` as the recursion expects."""
    p_c = design_c.shape[-1]
    g = np.concatenate([(actions - pihat)[..., None] * design_c, design_h], axis=-1)
    xreg = np.concatenate([actions[..., None] * design_c, design_h], axis=-1)
    theta, cov, resid, errors, min_rel_pivot = estimating_solve(
        xreg, v, g, context=f"alearn stage {stage}"
    )
    moment_norm = np.max(np.abs(_matvec(_swap(g), resid)), axis=-1)
    scale = 1.0 + np.max(np.abs(v), axis=-1) if v.shape[-1] else np.ones(v.shape[0])
    for r in np.flatnonzero(moment_norm > MOMENT_TOL * scale):
        if errors[r] is None:
            errors[r] = SingularSystemError(
                f"stage {stage}: estimating equations not solved "
                f"(moment norm {moment_norm[r]:.3e} exceeds {MOMENT_TOL:g} * {scale[r]:.3g})",
                diagnostic=float(min_rel_pivot[r]),
            )
    fit = StageFit(
        stage=stage,
        psi=theta[:, :p_c],
        beta=theta[:, p_c:],
        psi_cov=cov[:, :p_c, :p_c],
        beta_cov=cov[:, p_c:, p_c:],
        v=v,
        residuals=resid,
        pihat=pihat,
        moment_inf_norm=moment_norm,
        n_used=v.shape[-1],
    )
    return fit, errors


def alearn_stage_solve(design_h, design_c, actions, pihat, v, stage: int = 0) -> StageFit:
    """Solve one stage's stacked estimating equations for (psi, beta).

    The system is linear: with g_i = [(a_i - pihat_i) x_c_i ; x_h_i] and
    regression vector x_i = [a_i x_c_i ; x_h_i], the solution solves
    (sum_i g_i x_i') theta = sum_i g_i v_i.  The covariance reported is the
    model-based M-estimator form sigma2_hat M^{-1} (sum_i g_i g_i') M^{-T}
    with M = sum_i g_i x_i', treating the propensity as fixed.

    The residual moment sums are checked to vanish (infinity norm below
    ``MOMENT_TOL * (1 + max |v|)``) and their norm is stored on the fit.

    Raises
    ------
    SingularSystemError
        If the system is numerically rank deficient, or the moment sums do
        not vanish at its solution.
    """
    design_h = np.asarray(design_h, dtype=float)
    design_c = np.asarray(design_c, dtype=float)
    actions = np.asarray(actions, dtype=float)
    pihat = np.asarray(pihat, dtype=float)
    v = np.asarray(v, dtype=float)
    n = design_h.shape[0]
    if design_c.shape[0] != n or actions.shape != (n,) or pihat.shape != (n,) or v.shape != (n,):
        raise InvalidParameterError("stage inputs must share one row per trajectory")
    fit, errors = _stage_solve(
        design_h[None], design_c[None], actions[None], pihat[None], v[None], stage
    )
    if errors[0] is not None:
        raise errors[0]
    return first_replication(fit)


def a_pseudo_outcome(prev_v, contrast, actions) -> np.ndarray:
    """Regret-correct the response for the action actually taken.

    Returns ``prev_v + contrast * (1{contrast > 0} - actions)``: rows whose
    action already matches the rule implied by the fitted contrast are left
    unchanged.
    """
    prev_v = np.asarray(prev_v, dtype=float)
    contrast = np.asarray(contrast, dtype=float)
    actions = np.asarray(actions, dtype=float)
    return prev_v + contrast * ((contrast > 0.0) - actions)


def _stage(dataset: Dataset, k: int, spec, v, live):
    design_h = _take(build_design(dataset, k, spec.h_features), live)
    design_c = _take(build_design(dataset, k, spec.c_features), live)
    actions = _take(dataset.action_col(k), live).astype(float)
    propensity = spec.propensity
    if isinstance(propensity, LogisticPropensity):
        propensity.features.check_stage(k)
        phi, phi_cov, pihat, _, prop_errors = logistic_stack(
            _take(propensity.features.evaluate(dataset), live), actions
        )
    else:
        pihat = np.broadcast_to(_known_propensity(propensity, dataset, k), dataset.y.shape)
        pihat, phi, phi_cov, prop_errors = _take(pihat, live), None, None, [None] * live.size
    fit, errors = _stage_solve(design_h, design_c, actions, pihat, v, k)
    fit.phi, fit.phi_cov = phi, phi_cov
    errors = [p if p is not None else e for p, e in zip(prop_errors, errors)]
    return fit, errors, a_pseudo_outcome(v, _matvec(design_c, fit.psi), actions)


def alearn_stack(dataset: Dataset, specs):
    """A-learning on every replication of a stacked dataset; see
    :func:`dtrkit.recursion.backward_fit`."""
    return backward_fit(dataset, specs, _stage)


def alearn_fit(dataset: Dataset, specs) -> RegimeFit:
    """Backward recursion over all stages of ``dataset``.

    Each spec must carry a propensity (known or logistic).  Logistic
    propensity coefficients and their covariance are stored on the stage
    fit alongside the fitted probabilities.  A stage whose propensities come
    within ``PROPENSITY_EPS`` of 0 or 1 raises
    :class:`ExtremePropensityWarning`.

    Raises
    ------
    SingularSystemError, NonConvergenceError
        If a stage system is singular, its moment sums do not vanish, or a
        propensity fit fails.
    """
    result = single_fit(dataset, specs, _stage)
    for fit in reversed(result.stage_fits):
        _warn_extreme(fit.pihat, fit.stage)
    return result
