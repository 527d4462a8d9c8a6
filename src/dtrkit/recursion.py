"""One backward recursion for both estimators, over stacks of datasets.

Q-learning and A-learning fit stage K first and work backwards.  Each stage
solves the linear estimating equations (G'X) theta = G'v for the stage
response v (see :func:`dtrkit.numerics.estimating_solve`), then turns its
fit into the response of the stage before.  The estimators differ only in
the stage: :mod:`dtrkit.qlearn` and :mod:`dtrkit.alearn` each supply one.

The recursion runs on a stack of R datasets of one size at once, every
array carrying a leading replication axis; a single dataset is the stack
R = 1.  Replications fail one by one: a singular system, a non-convergent
propensity fit or unsolved estimating equations mark that replication
failed, and the stages before run on the others only.  Every replication's
numbers are those it gets when fit alone.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DecisionRule, Regime, StageFit
from .errors import InvalidParameterError

__all__ = ["RegimeFit", "StackedFit", "backward_fit", "first_replication", "single_fit"]


@dataclass
class RegimeFit:
    """Per-stage fits and the estimated regime they induce."""

    stage_fits: list
    regime: Regime


@dataclass
class StackedFit:
    """A backward recursion over a stack of R datasets.

    ``stage_fits[k-1]`` is the stage-k :class:`StageFit` whose arrays carry
    a leading replication axis; rows of replications that failed at or
    after stage k are NaN.  ``errors[r]`` is None or the error that stopped
    replication r (not raised).
    """

    stage_fits: list
    errors: list

    @property
    def failed(self) -> np.ndarray:
        return np.array([e is not None for e in self.errors], dtype=bool)


def _stack_one(dataset: Dataset) -> Dataset:
    """A single dataset as a stack of one."""
    return Dataset(
        tuple(s[None] for s in dataset.states),
        tuple(a[None] for a in dataset.actions),
        dataset.y[None],
    )


def _map_arrays(fit: StageFit, func) -> StageFit:
    """``fit`` with ``func`` applied to each of its array fields."""
    return dataclasses.replace(
        fit,
        **{
            f.name: func(getattr(fit, f.name))
            for f in dataclasses.fields(fit)
            if isinstance(getattr(fit, f.name), np.ndarray)
        },
    )


def first_replication(fit: StageFit) -> StageFit:
    """The fit of the first replication of a stacked fit; per-replication
    scalars become floats."""
    return _map_arrays(fit, lambda values: values[0] if values.ndim > 1 else float(values[0]))


def _widen(values: np.ndarray, live: np.ndarray, reps: int) -> np.ndarray:
    """Rows of the replications ``live``, widened to all ``reps`` with NaN rows."""
    out = np.full((reps,) + values.shape[1:], np.nan)
    out[live] = values
    return out


def backward_fit(dataset: Dataset, specs, stage) -> StackedFit:
    """Backward recursion over all stages of a stacked ``dataset``.

    ``stage(dataset, k, spec, v, live)`` fits stage k for the replications
    ``live`` (sorted indices into the stack) to their responses ``v`` and
    returns ``(fit, errors, next_v)``: a stacked :class:`StageFit`, one
    error or None per live replication, and the responses of stage k - 1.
    """
    n_stages = dataset.n_stages
    if len(specs) != n_stages:
        raise InvalidParameterError("need one stage spec per dataset stage")
    reps = dataset.y.shape[0]
    errors = [None] * reps
    fits = [None] * n_stages
    live = np.arange(reps)
    v = dataset.y
    for k in range(n_stages, 0, -1):
        fit, stage_errors, v = stage(dataset, k, specs[k - 1], v, live)
        if live.size < reps:
            fit = _map_arrays(fit, functools.partial(_widen, live=live, reps=reps))
        fits[k - 1] = fit
        ok = np.array([e is None for e in stage_errors], dtype=bool)
        for r, error in zip(live[~ok], (e for e in stage_errors if e is not None)):
            errors[r] = error
        if not ok.all():
            live, v = live[ok], v[ok]
    return StackedFit(fits, errors)


def single_fit(dataset: Dataset, specs, stage) -> RegimeFit:
    """The backward recursion on one dataset: the stack R = 1, whose error,
    if any, is raised."""
    stacked = backward_fit(_stack_one(dataset), specs, stage)
    if stacked.errors[0] is not None:
        raise stacked.errors[0]
    fits = [first_replication(fit) for fit in stacked.stage_fits]
    rules = tuple(DecisionRule(spec.c_features, fit.psi) for spec, fit in zip(specs, fits))
    return RegimeFit(stage_fits=fits, regime=Regime(rules))
