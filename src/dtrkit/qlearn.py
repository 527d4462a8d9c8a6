"""Regression-based backward recursion for optimal-regime estimation.

At the last stage the observed outcome is regressed on a stage model that is
linear in an action-free part and an action-by-contrast part,

    Q_K(h, a) = x_h(h)' beta_K + a * x_c(h)' psi_K,

by least squares on the stacked design [x_h | a * x_c].  The
fitted stage then induces the pseudo-outcome

    v_i = x_h(h_i)' beta_hat + max(0, x_c(h_i)' psi_hat),

the value of acting optimally from that stage on, which becomes the response
one stage earlier.  The estimated regime treats at stage k exactly when
x_c' psi_hat_k > 0.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, StageFit, build_design
# wls_fit is not called here, but bench/spans.py traces it as qlearn.wls_fit.
from .numerics import _matvec, _take, estimating_solve, require_rows, wls_fit  # noqa: F401
from .recursion import RegimeFit, backward_fit, single_fit

__all__ = ["q_pseudo_outcome", "qlearn_fit", "qlearn_stack"]


def _stage_fit(stage: int, p_h: int, theta, cov, v, resid) -> StageFit:
    return StageFit(
        stage=stage,
        psi=theta[..., p_h:],
        beta=theta[..., :p_h],
        psi_cov=cov[..., p_h:, p_h:],
        beta_cov=cov[..., :p_h, :p_h],
        v=v,
        residuals=resid,
        n_used=v.shape[-1],
    )


def q_pseudo_outcome(stage_fit: StageFit, design_h, design_c) -> np.ndarray:
    """Predicted value of acting optimally from this stage on.

    Computes ``design_h @ beta + max(0, design_c @ psi)`` row-wise; the
    result is never below the no-treatment prediction ``design_h @ beta``.
    Stacked designs and coefficients give one row per replication.
    """
    baseline = _matvec(np.asarray(design_h, dtype=float), stage_fit.beta)
    contrast = _matvec(np.asarray(design_c, dtype=float), stage_fit.psi)
    return baseline + np.maximum(contrast, 0.0)


def _stage(dataset: Dataset, k: int, spec, v, live):
    design_h = _take(build_design(dataset, k, spec.h_features), live)
    design_c = _take(build_design(dataset, k, spec.c_features), live)
    actions = _take(dataset.action_col(k), live).astype(float)
    design = np.concatenate([design_h, actions[..., None] * design_c], axis=-1)
    require_rows(design)
    theta, cov, resid, errors, _ = estimating_solve(design, v, context=f"qlearn stage {k}")
    fit = _stage_fit(k, design_h.shape[-1], theta, cov, v, resid)
    return fit, errors, q_pseudo_outcome(fit, design_h, design_c)


def qlearn_stack(dataset: Dataset, specs):
    """Q-learning on every replication of a stacked dataset; see
    :func:`dtrkit.recursion.backward_fit`."""
    return backward_fit(dataset, specs, _stage)


def qlearn_fit(dataset: Dataset, specs) -> RegimeFit:
    """Backward recursion over all stages of ``dataset``.

    Parameters
    ----------
    dataset : Dataset
    specs : sequence of StageSpec
        One working model per stage; propensity entries are ignored here.

    Raises
    ------
    InvalidParameterError
        If a stage design has fewer rows than columns.
    SingularSystemError
        If a stage's least-squares system is numerically rank deficient.
    """
    return single_fit(dataset, specs, _stage)
