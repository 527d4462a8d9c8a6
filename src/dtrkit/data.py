"""Trajectory data, feature construction, and decision regimes.

A trajectory records states, binary actions, and a terminal outcome over K
decision stages: (s_1, a_1, s_2, a_2, ..., s_K, a_K, y).  Datasets hold
trajectories column-wise so model matrices come out of vectorized feature
evaluation.

Features form a small closed algebra over the history available at a stage:
a constant, a state component, an earlier action, the square of a state
component, or the product of two such terms.  They are written compactly as
strings: ``"1"``, ``"s1"``, ``"s2_3"``, ``"a1"``, ``"s2^2"``, ``"s1*a1"``.
The history available to a stage-k model is (s_1..s_k, a_1..a_{k-1}); a
feature referencing anything later raises ``FeatureScopeError``.

A regime is one linear decision rule per stage: at stage k, take action 1
exactly when psi_k' c_k(history) > 0.  Zero contrast means action 0, so a
regime with an all-zero rule never treats at that stage.
"""

from __future__ import annotations

import csv
import numbers
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FeatureScopeError, InvalidParameterError, ParseError

__all__ = [
    "Dataset",
    "DecisionRule",
    "FeatureMap",
    "KnownPropensity",
    "LogisticPropensity",
    "Regime",
    "StageFit",
    "StageSpec",
    "Term",
    "build_design",
    "read_dataset_csv",
    "write_dataset_csv",
]


# ---------------------------------------------------------------------------
# Feature algebra
# ---------------------------------------------------------------------------

_STATE_RE = re.compile(r"^s(\d+)(?:_(\d+))?$")
_ACTION_RE = re.compile(r"^a(\d+)$")


@dataclass(frozen=True)
class Term:
    """One feature: a constant, state component, action, square, or product.

    ``kind`` is one of "const", "state", "action", "prod".  For "state",
    ``stage``/``comp`` locate the component (1-based) and ``power`` is 1 or
    2.  For "action", ``stage`` is the acting stage.  For "prod",
    ``factors`` holds exactly two non-product terms.
    """

    kind: str
    stage: int = 0
    comp: int = 0
    power: int = 1
    factors: tuple = ()

    def __str__(self) -> str:
        if self.kind == "const":
            return "1"
        if self.kind == "state":
            base = f"s{self.stage}_{self.comp}"
            return base if self.power == 1 else f"{base}^2"
        if self.kind == "action":
            return f"a{self.stage}"
        return "*".join(str(f) for f in self.factors)

    def max_stages(self) -> tuple[int, int]:
        """Latest (state stage, action stage) this term touches; 0 if none."""
        if self.kind == "state":
            return self.stage, 0
        if self.kind == "action":
            return 0, self.stage
        if self.kind == "prod":
            pairs = [f.max_stages() for f in self.factors]
            return max(p[0] for p in pairs), max(p[1] for p in pairs)
        return 0, 0

    def evaluate(self, columns) -> np.ndarray:
        """Evaluate on a column provider exposing state_col/action_col/n."""
        if self.kind == "const":
            return np.ones(columns.n)
        if self.kind == "state":
            col = columns.state_col(self.stage, self.comp)
            return col * col if self.power == 2 else col
        if self.kind == "action":
            return np.asarray(columns.action_col(self.stage), dtype=float)
        left, right = self.factors
        return left.evaluate(columns) * right.evaluate(columns)


def _parse_factor(text: str, original: str) -> Term:
    power = 1
    if text.endswith("^2"):
        power = 2
        text = text[:-2]
    if text == "1":
        if power == 2:
            raise ParseError(f"cannot square a constant in feature {original!r}")
        return Term("const")
    m = _STATE_RE.match(text)
    if m:
        stage = int(m.group(1))
        comp = int(m.group(2)) if m.group(2) else 1
        if stage < 1 or comp < 1:
            raise ParseError(f"bad state reference in feature {original!r}")
        return Term("state", stage=stage, comp=comp, power=power)
    m = _ACTION_RE.match(text)
    if m:
        if power == 2:
            raise ParseError(
                f"cannot square an action in feature {original!r} (a*a equals a)"
            )
        stage = int(m.group(1))
        if stage < 1:
            raise ParseError(f"bad action reference in feature {original!r}")
        return Term("action", stage=stage)
    raise ParseError(f"cannot parse feature {original!r}")


def parse_term(text: str) -> Term:
    """Parse one feature expression such as ``"s2_1^2"`` or ``"s1*a1"``."""
    parts = [p.strip() for p in text.strip().split("*")]
    if any(not p for p in parts):
        raise ParseError(f"cannot parse feature {text!r}")
    if len(parts) == 1:
        return _parse_factor(parts[0], text)
    if len(parts) == 2:
        return Term("prod", factors=(_parse_factor(parts[0], text), _parse_factor(parts[1], text)))
    raise ParseError(f"feature {text!r} has more than two factors")


@dataclass(frozen=True)
class FeatureMap:
    """An ordered list of feature terms defining a model matrix."""

    terms: tuple

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FeatureMap":
        return cls(tuple(parse_term(s) for s in specs))

    @property
    def n_features(self) -> int:
        return len(self.terms)

    def names(self) -> list[str]:
        return [str(t) for t in self.terms]

    def check_stage(self, k: int) -> None:
        """Raise unless every term is part of the stage-k history."""
        for t in self.terms:
            smax, amax = t.max_stages()
            if smax > k or amax > k - 1:
                raise FeatureScopeError(
                    f"feature {t} is not available at stage {k} "
                    f"(history is s1..s{k}, a1..a{k - 1})"
                )

    def evaluate(self, columns, out=None) -> np.ndarray:
        """Model matrix of shape (..., columns.n, n_features).

        Stacked columns of shape (R, n) give a stack of R model matrices.
        The row shape comes from the columns, not the terms: a constant term
        is one row of ones, whatever the stack.  ``out``, when given,
        receives the matrix in its own layout, such as a (p, n) array's .T.
        """
        rows = columns.y.shape if isinstance(columns, Dataset) else (columns.n,)
        values = [t.evaluate(columns) for t in self.terms]
        shape = np.broadcast_shapes(rows, *(v.shape for v in values)) + (len(values),)
        out = np.empty(shape) if out is None else out
        if out.shape != shape:
            raise InvalidParameterError(f"out must have shape {shape}, got {out.shape}")
        for j, v in enumerate(values):
            out[..., j] = v
        return out


# ---------------------------------------------------------------------------
# Column views and datasets
# ---------------------------------------------------------------------------


class ArrayColumns:
    """Column view over plain arrays, for simulated batches.

    ``states`` maps stage -> (n, d_k) array and ``actions`` maps stage ->
    (n,) array; only the stages filled in so far need to be present.  As in
    :class:`Dataset`, a leading axis stacks histories: (E, n, d_k), (E, n).
    """

    def __init__(self, n: int, states: dict | None = None, actions: dict | None = None):
        self.n = n
        self.states = states if states is not None else {}
        self.actions = actions if actions is not None else {}

    def state_col(self, stage: int, comp: int) -> np.ndarray:
        try:
            block = self.states[stage]
        except KeyError:
            raise FeatureScopeError(f"no state for stage {stage}") from None
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            if comp != 1:
                raise FeatureScopeError(f"state s{stage} has one component, not {comp}")
            return block
        if comp > block.shape[-1]:
            raise FeatureScopeError(
                f"state s{stage} has {block.shape[-1]} components, not {comp}"
            )
        return block[..., comp - 1]

    def action_col(self, stage: int) -> np.ndarray:
        try:
            return np.asarray(self.actions[stage], dtype=float)
        except KeyError:
            raise FeatureScopeError(f"no action for stage {stage}") from None


@dataclass
class Dataset:
    """Column-wise store of n trajectories over K stages.

    ``states[k-1]`` is the (n, d_k) stage-k state block, ``actions[k-1]``
    the (n,) integer 0/1 action vector, and ``y`` the (n,) outcome.  A
    stack of R datasets of one size has a leading replication axis on every
    array: (R, n, d_k) states, (R, n) actions and outcomes.
    """

    states: tuple
    actions: tuple
    y: np.ndarray

    def __post_init__(self):
        self.states = tuple(np.asarray(s, dtype=float) for s in self.states)
        self.actions = tuple(np.asarray(a) for a in self.actions)
        self.y = np.asarray(self.y, dtype=float)
        if len(self.states) != len(self.actions) or not self.states:
            raise InvalidParameterError("need one state block and one action vector per stage")
        rows = self.y.shape
        for k, (s, a) in enumerate(zip(self.states, self.actions), start=1):
            if s.ndim != len(rows) + 1 or s.shape[:-1] != rows:
                raise InvalidParameterError(f"stage {k} state block must be (n, d_{k})")
            if a.shape != rows:
                raise InvalidParameterError(f"stage {k} action vector must have length n")
            if not np.all((a == 0) | (a == 1)):
                raise InvalidParameterError(f"stage {k} actions must be 0/1")
            if not np.all(np.isfinite(s)):
                raise InvalidParameterError(f"stage {k} states must be finite")
        if not np.all(np.isfinite(self.y)):
            raise InvalidParameterError("outcomes must be finite")

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def n_stages(self) -> int:
        return len(self.states)

    @property
    def state_dims(self) -> tuple:
        return tuple(s.shape[-1] for s in self.states)

    def state_col(self, stage: int, comp: int) -> np.ndarray:
        if not (1 <= stage <= self.n_stages) or not (1 <= comp <= self.state_dims[stage - 1]):
            raise FeatureScopeError(f"dataset has no state s{stage}_{comp}")
        return self.states[stage - 1][..., comp - 1]

    def action_col(self, stage: int) -> np.ndarray:
        if not (1 <= stage <= self.n_stages):
            raise FeatureScopeError(f"dataset has no action a{stage}")
        return self.actions[stage - 1]

    def column_names(self) -> list[str]:
        return _expected_header(self.n_stages, self.state_dims)


def build_design(dataset: Dataset, stage: int, features: FeatureMap) -> np.ndarray:
    """Stage-k model matrix, after checking each feature is in scope."""
    features.check_stage(stage)
    return features.evaluate(dataset)


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionRule:
    """Linear stage rule: action 1 exactly when psi' c(history) > 0.  An
    (E, p) ``psi`` stacks E rules on the same features."""

    c_features: FeatureMap
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        if self.psi.ndim not in (1, 2) or self.psi.shape[-1] != self.c_features.n_features:
            raise InvalidParameterError("rule coefficient length must match its features")


@dataclass(frozen=True)
class Regime:
    """One decision rule per stage; rules holding (E, p) stacks make E
    regimes, whose contrasts and actions gain a leading axis E."""

    rules: tuple

    @property
    def n_stages(self) -> int:
        return len(self.rules)

    def contrasts(self, stage: int, columns) -> np.ndarray:
        rule = self.rules[stage - 1]
        rule.c_features.check_stage(stage)
        return np.matmul(rule.c_features.evaluate(columns), rule.psi[..., None])[..., 0]

    def actions(self, stage: int, columns) -> np.ndarray:
        """Vectorized rule: 1 where the contrast is strictly positive."""
        return (self.contrasts(stage, columns) > 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# Model specifications and fit containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnownPropensity:
    """Propensity known by design: a constant or a callable.

    A callable receives ``(dataset, stage)`` and returns the (n,) vector of
    treatment probabilities.
    """

    value: float | Callable

    def evaluate(self, dataset: Dataset, stage: int) -> np.ndarray:
        if callable(self.value):
            pi = np.asarray(self.value(dataset, stage), dtype=float)
        else:
            pi = np.full(dataset.y.shape, float(self.value))
        if np.any(pi < 0.0) or np.any(pi > 1.0):
            raise InvalidParameterError("known propensities must lie in [0, 1]")
        return pi


@dataclass(frozen=True)
class LogisticPropensity:
    """Propensity modeled as expit(features' phi), fitted by ML."""

    features: FeatureMap


@dataclass(frozen=True)
class StageSpec:
    """Working models for one stage.

    ``h_features`` parameterizes the action-free part of the stage outcome
    model, ``c_features`` the treatment contrast, and ``propensity`` the
    treatment assignment model (unused by pure regression fits).
    """

    h_features: FeatureMap
    c_features: FeatureMap
    propensity: KnownPropensity | LogisticPropensity | None = None

    @classmethod
    def parse(cls, h: Sequence[str], c: Sequence[str], propensity=None) -> "StageSpec":
        """Stage models from feature lists; ``propensity`` is a feature list
        (a logistic model), a probability in [0, 1] (known by design) or
        None."""
        for key, features in (("h", h), ("c", c)):
            if not _is_feature_list(features):
                raise InvalidParameterError(
                    f"{key} must be a list of feature strings, got {features!r}"
                )
        if _is_feature_list(propensity):
            propensity = LogisticPropensity(FeatureMap.parse(propensity))
        elif isinstance(propensity, numbers.Real) and not isinstance(propensity, bool):
            if not 0.0 <= propensity <= 1.0:
                raise InvalidParameterError(f"propensity must lie in [0, 1], got {propensity!r}")
            propensity = KnownPropensity(float(propensity))
        elif propensity is not None:
            raise InvalidParameterError(
                f"propensity must be a list of feature strings or a probability, got {propensity!r}"
            )
        return cls(FeatureMap.parse(h), FeatureMap.parse(c), propensity)


def _is_feature_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


@dataclass
class StageFit:
    """Fitted stage quantities shared by both estimators.

    ``psi`` are the contrast coefficients (they define the estimated rule),
    ``beta`` the action-free outcome coefficients, and ``phi`` the fitted
    propensity coefficients where a propensity model was fit.  ``v`` is the
    response the stage was fit to (the outcome at the last stage, a
    pseudo-outcome earlier).  Covariances are model based.
    """

    stage: int
    psi: np.ndarray
    beta: np.ndarray
    psi_cov: np.ndarray
    beta_cov: np.ndarray
    v: np.ndarray = field(repr=False, default=None)
    residuals: np.ndarray = field(repr=False, default=None)
    phi: np.ndarray | None = None
    phi_cov: np.ndarray | None = None
    pihat: np.ndarray | None = field(repr=False, default=None)
    moment_inf_norm: float | None = None
    n_used: int = 0


# ---------------------------------------------------------------------------
# CSV input and output
# ---------------------------------------------------------------------------


def _expected_header(n_stages: int, state_dims: Sequence[int]) -> list[str]:
    names = []
    for k in range(1, n_stages + 1):
        names.extend(f"s{k}_{j}" for j in range(1, state_dims[k - 1] + 1))
        names.append(f"a{k}")
    names.append("y")
    return names


def read_dataset_csv(path, n_stages: int, state_dims: Sequence[int]) -> Dataset:
    """Read a trajectory dataset written by :func:`write_dataset_csv`.

    The expected header is ``s1_1..s1_d1, a1, s2_1.., a2, ..., y``.  Leading
    lines starting with ``#`` are metadata and are skipped.  Malformed cells
    raise ``ParseError`` naming the 1-based data row and the column, e.g.
    ``row 5, column a1``.
    """
    if len(state_dims) != n_stages:
        raise InvalidParameterError("state_dims must have one entry per stage")
    expected = _expected_header(n_stages, state_dims)
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ParseError(f"{path}: no header row")
    header = [c.strip() for c in rows[0]]
    if header != expected:
        raise ParseError(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
    n = len(rows) - 1
    data = np.empty((n, len(expected)))
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(expected):
            raise ParseError(f"{path}: row {i} has {len(row)} fields, expected {len(expected)}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i}, column {expected[j]}: cannot parse {cell.strip()!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(f"{path}: row {i}, column {expected[j]}: non-finite value")
            if expected[j].startswith("a") and value not in (0.0, 1.0):
                raise ParseError(
                    f"{path}: row {i}, column {expected[j]}: action must be 0 or 1, got {cell.strip()}"
                )
            data[i - 1, j] = value
    states = []
    actions = []
    pos = 0
    for k in range(n_stages):
        d = state_dims[k]
        states.append(data[:, pos : pos + d])
        actions.append(data[:, pos + d].astype(np.int64))
        pos += d + 1
    return Dataset(tuple(states), tuple(actions), data[:, pos])


def write_dataset_csv(dataset: Dataset, path, header_comment: str | None = None) -> None:
    """Write a dataset with its canonical header, optionally preceded by
    ``# <header_comment>`` metadata lines."""
    blocks = []
    for s, a in zip(dataset.states, dataset.actions):
        blocks.append(s)
        blocks.append(a[:, None].astype(float))
    blocks.append(dataset.y[:, None])
    table = np.hstack(blocks)
    names = dataset.column_names()
    with open(path, "w", newline="") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        action_cols = {names.index(f"a{k}") for k in range(1, dataset.n_stages + 1)}
        for row in table:
            writer.writerow(
                [
                    (str(int(v)) if j in action_cols else repr(float(v)))
                    for j, v in enumerate(row)
                ]
            )
