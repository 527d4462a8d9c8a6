"""Regime values and Monte Carlo study machinery.

The population value H(d) of a regime d is the mean outcome were everyone
treated according to d.  Each built-in scenario's registry entry holds H(d)
in closed form, from normal half-line moments, for a stack of rules at once;
``value_gcomputation`` runs the scenario's law forward under any regime, or
under E stacked regimes on one set of draws, averaging the true conditional
mean outcome (no outcome noise is drawn, so its Monte Carlo error comes from
the state draws alone).

``run_mc_study`` repeats: draw a dataset (one stream per replication, keyed
by the replication index, so results do not depend on scheduling), fit the
requested estimators, record contrast coefficients and the value of the
estimated regime.  Replications run in chunks: a chunk's datasets are drawn
side by side into stacked arrays, and each estimator fits the whole stack in
one backward recursion (:mod:`dtrkit.recursion`); one closed-form call values
an estimator's whole chunk, and one g-computation run per replication serves
all its estimators.  Every replication's numbers are exactly those it gets
alone.  Summaries follow: means, SDs,
componentwise MSE and the A/Q MSE ratio, mean and median value efficiencies R = H(d-hat)/H(d-opt),
mean decision thresholds for two-coefficient rules, and the within-dataset
SD of fitted propensities.  Every summary carries its own Monte Carlo
standard error (SD over replications divided by sqrt of replications).

Replications that fail (singular stage system, unsolved estimating
equations, non-convergent propensity) are excluded and counted; more than 1%
failed flags a warning in the results, more than 10% raises ``StudyError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# alearn_fit and qlearn_fit are not called here, but bench/spans.py traces
# them under these module names.
from .alearn import alearn_fit, alearn_stack, extreme_propensity  # noqa: F401
from .data import DecisionRule, Regime
from .errors import InvalidParameterError, StudyError
from .qlearn import qlearn_fit, qlearn_stack  # noqa: F401
from .rng import RngStream, StreamStack, make_stream
from .scenarios import scenario_of, scenario_registry, true_psi, true_regime

__all__ = [
    "EstimatorSummary",
    "StudyConfig",
    "StudyResults",
    "regime_value_analytic",
    "run_mc_study",
    "value_gcomputation",
]

ESTIMATOR_NAMES = ("qlearn", "alearn")
_STACKED_FITS = {"qlearn": qlearn_stack, "alearn": alearn_stack}
# A chunk holds as many replications as fit in this many trajectories: it
# bounds the memory of the stacked arrays.
CHUNK_ROWS = 16384
# Substream of a replication's stream that g-computation draws from.
GCOMP_SUBSTREAM = 8
# Study failure-rate policy: warn above 1%, refuse to summarize above 10%.
FAILURE_WARN_RATE = 0.01
FAILURE_ERROR_RATE = 0.10


# ---------------------------------------------------------------------------
# Regime values
# ---------------------------------------------------------------------------


def regime_value_analytic(params, psi_list):
    """Closed-form H(d) for a stage-rule coefficient list on a built-in
    scenario: a float, or (R,) values for (R, p_k) stacks (NaN rows give NaN)."""
    return scenario_of(params).value(params, psi_list)


def value_gcomputation(params, regime: Regime, n_draws: int, stream: RngStream):
    """Estimate H(d) by forward simulation from the true state laws.

    States are drawn in time order from ``stream``; actions follow the
    regime; each draw contributes the true conditional mean outcome given
    its generated history.  Returns ``(value, se)``: the mean and its Monte
    Carlo standard error (None when ``n_draws`` is 1).  Rules holding
    (E, p_k) stacks make E regimes on one set of draws (memory E * n_draws):
    (E,) values and SEs, row e exactly what regime e gets alone.
    """
    if n_draws < 1:
        raise InvalidParameterError("n_draws must be >= 1")
    u = scenario_of(params).outcome_means(params, regime, n_draws, stream)
    value = np.mean(u, axis=-1)
    se = np.std(u, axis=-1, ddof=1) / np.sqrt(n_draws) if n_draws > 1 else None
    if u.ndim == 1:
        return float(value), se if se is None else float(se)
    return value, se


# ---------------------------------------------------------------------------
# Monte Carlo studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one Monte Carlo study.

    ``estimators`` is a subset of ("qlearn", "alearn").  ``specs`` of None
    means the scenario's standard working models.  ``value_method`` is
    "analytic" or "gcomp"; the latter uses ``gcomp_draws`` state draws per
    replication.  ``threads`` parallelizes over replications without
    changing any result (each replication owns the stream keyed by its
    index).
    """

    scenario: str
    params: object | None = None
    n: int | None = None
    reps: int = 10000
    master_seed: int = 0
    estimators: tuple = ESTIMATOR_NAMES
    specs: tuple | None = None
    value_method: str = "analytic"
    gcomp_draws: int = 10000
    threads: int = 1

    def resolve(self):
        definition = scenario_registry(self.scenario)
        params = self.params if self.params is not None else definition.params_cls()
        if not isinstance(params, definition.params_cls):
            raise InvalidParameterError(
                f"params for {self.scenario} must be {definition.params_cls.__name__}"
            )
        n = self.n if self.n is not None else definition.default_n
        if n < 1 or self.reps < 1:
            raise InvalidParameterError("n and reps must be >= 1")
        specs = tuple(self.specs) if self.specs is not None else tuple(definition.working_specs())
        if len(specs) != definition.n_stages:
            raise InvalidParameterError("need one stage spec per scenario stage")
        estimators = tuple(self.estimators)
        if (
            not estimators
            or any(e not in ESTIMATOR_NAMES for e in estimators)
            or len(set(estimators)) < len(estimators)
        ):
            raise InvalidParameterError(
                f"estimators must be distinct names drawn from {ESTIMATOR_NAMES}"
            )
        if self.value_method not in ("analytic", "gcomp"):
            raise InvalidParameterError("value_method must be 'analytic' or 'gcomp'")
        if self.threads < 1:
            raise InvalidParameterError("threads must be >= 1")
        # The bias summaries and the analytic value compare fitted rule
        # coefficients against the scenario's canonical rule parameterization,
        # so the working contrast features must be exactly the canonical ones.
        canonical = [r.c_features.names() for r in true_regime(params).rules]
        supplied = [s.c_features.names() for s in specs]
        if supplied != canonical:
            raise InvalidParameterError(
                f"working contrast features must match the scenario rules: "
                f"expected {canonical}, got {supplied}"
            )
        return definition, params, n, specs, estimators


@dataclass
class EstimatorSummary:
    """Summary of one estimator over the included replications."""

    estimator: str
    n_included: int
    mean_psi: np.ndarray
    sd_psi: np.ndarray
    se_mean_psi: np.ndarray
    bias_psi: np.ndarray
    mse_psi: np.ndarray
    se_mse_psi: np.ndarray
    value_mean: float
    value_se: float
    value_median: float
    r_mean: float
    r_mean_se: float
    r_median: float
    threshold_mean: dict = field(default_factory=dict)
    threshold_se: dict = field(default_factory=dict)


@dataclass
class StudyResults:
    """Everything a study produced: per-replication records and summaries.

    ``psi_rep[e]`` is the (reps, p) array of contrast estimates for
    estimator ``e`` (rows of failed replications are NaN), ``value_rep[e]``
    the matching H(d-hat), and ``failed[e]`` the failure mask.  ``psi_true``
    concatenates the true stage contrasts in stage order.
    """

    config: StudyConfig
    psi_true: np.ndarray
    psi_labels: list
    h_opt: float
    psi_rep: dict
    value_rep: dict
    failed: dict
    summaries: dict
    mse_ratio: np.ndarray | None
    mse_ratio_se: np.ndarray | None
    propensity_sd: dict
    propensity_sd_se: dict
    n_failed: int
    failure_rate: float
    high_failure_warning: bool
    n_extreme_propensity: int = 0


def _within_sd(values: np.ndarray):
    # Sample SD (n-1 denominator) along the last axis: the two-point vector
    # (0.4, 0.6) has SD 0.1414..., and a constant vector has SD 0.
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 2:
        return np.zeros(values.shape[:-1]) if values.ndim > 1 else 0.0
    sd = np.std(values, axis=-1, ddof=1)
    return sd if values.ndim > 1 else float(sd)


def _run_chunk(
    scenario, params, n, specs, estimators, value_method, gcomp_draws, master_seed, reps
):
    """Generate and fit the replications ``reps`` (a range) as one stack.

    Returns, per estimator, the failure mask, the (R, p) contrast estimates
    and the values (NaN where failed) and, for A-learning, the (R, K)
    within-dataset SDs of the fitted propensities; and the mask of
    replications whose successful A-learning fit met an extreme propensity.
    """
    definition = scenario_registry(scenario)
    dataset = definition.generate(params, n, StreamStack(master_seed, reps))
    out, stage_psi = {}, {}
    extreme = np.zeros(len(reps), dtype=bool)
    for est in estimators:
        stacked = _STACKED_FITS[est](dataset, specs)
        failed = stacked.failed
        fits = stacked.stage_fits
        # Each stage's (R, p_k) rules, NaN where the fit failed: so is their value.
        stage_psi[est] = [np.where(failed[:, None], np.nan, f.psi) for f in fits]
        value = np.full(len(reps), np.nan)
        if value_method == "analytic":
            value = regime_value_analytic(params, stage_psi[est])
        pihat_sd = None
        if est == "alearn":
            pihat_sd = np.stack([_within_sd(f.pihat) for f in fits], axis=-1)
            for f in fits:
                extreme |= extreme_propensity(f.pihat) & ~failed
        out[est] = (failed, np.concatenate(stage_psi[est], axis=-1), value, pihat_sd)
    if value_method == "gcomp":
        for r, rep in enumerate(reps):
            # One run for the rules of every estimator that fitted replication r.
            ok = [est for est in estimators if not out[est][0][r]]
            if not ok:
                continue
            rules = [np.stack([stage_psi[est][k][r] for est in ok]) for k in range(len(specs))]
            regime = Regime(tuple(DecisionRule(s.c_features, p) for s, p in zip(specs, rules)))
            stream = make_stream(master_seed, rep).substream(GCOMP_SUBSTREAM)
            values, _ = value_gcomputation(params, regime, gcomp_draws, stream)
            for est, v in zip(ok, values):
                out[est][2][r] = v
    return out, extreme


def _threshold_stats(psi_block: np.ndarray):
    """Mean and MC SE of the decision threshold -psi0/psi1 across
    replications, for a two-coefficient rule."""
    slopes = psi_block[:, 1]
    ok = slopes != 0.0
    if not np.any(ok):
        return float("nan"), float("nan")
    thr = -psi_block[ok, 0] / slopes[ok]
    se = float(np.std(thr, ddof=1) / np.sqrt(thr.size)) if thr.size > 1 else float("nan")
    return float(np.mean(thr)), se


def run_mc_study(config: StudyConfig) -> StudyResults:
    """Run a full Monte Carlo study.  See the module docstring."""
    definition, params, n, specs, estimators = config.resolve()
    psi_true_stages = true_psi(params)
    psi_true = np.concatenate(psi_true_stages)
    psi_labels = [
        f"psi{k}_{j}"
        for k, stage_psi in enumerate(psi_true_stages, start=1)
        for j in range(len(stage_psi))
    ]
    h_opt = regime_value_analytic(params, psi_true_stages)

    reps = config.reps
    run_chunk = functools.partial(
        _run_chunk,
        config.scenario,
        params,
        n,
        specs,
        estimators,
        config.value_method,
        config.gcomp_draws,
        config.master_seed,
    )
    size = max(1, CHUNK_ROWS // n)
    chunks = [range(start, min(start + size, reps)) for start in range(0, reps, size)]
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(run_chunk, chunks))
    else:
        records = [run_chunk(chunk) for chunk in chunks]

    failed, psi_rep, value_rep = (
        {e: np.concatenate([fits[e][i] for fits, _ in records]) for e in estimators}
        for i in range(3)
    )
    n_extreme = int(sum(extreme.sum() for _, extreme in records))
    p_total = psi_true.size

    any_failed = np.zeros(reps, dtype=bool)
    for est in estimators:
        any_failed |= failed[est]
    n_failed = int(any_failed.sum())
    failure_rate = n_failed / reps
    if failure_rate > FAILURE_ERROR_RATE:
        raise StudyError(
            f"{n_failed} of {reps} replications failed ({failure_rate:.1%}); "
            "refusing to summarize"
        )

    # Per-stage slices of the concatenated psi vector
    bounds = np.cumsum([0] + [len(stage_psi) for stage_psi in psi_true_stages])
    slices = [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]

    summaries = {}
    for est in estimators:
        ok = ~failed[est]
        m = int(ok.sum())
        if m == 0:
            raise StudyError(f"all replications failed for {est}")
        block = psi_rep[est][ok]
        values = value_rep[est][ok]
        sq_err = (block - psi_true) ** 2
        mean_psi = block.mean(axis=0)
        sd_psi = block.std(axis=0, ddof=1) if m > 1 else np.zeros(p_total)
        value_se = float(values.std(ddof=1) / np.sqrt(m)) if m > 1 else float("nan")
        thr_mean, thr_se = {}, {}
        for k, sl in enumerate(slices, start=1):
            if sl.stop - sl.start == 2:
                thr_mean[k], thr_se[k] = _threshold_stats(block[:, sl])
        summaries[est] = EstimatorSummary(
            estimator=est,
            n_included=m,
            mean_psi=mean_psi,
            sd_psi=sd_psi,
            se_mean_psi=sd_psi / np.sqrt(m),
            bias_psi=mean_psi - psi_true,
            mse_psi=sq_err.mean(axis=0),
            se_mse_psi=(sq_err.std(axis=0, ddof=1) / np.sqrt(m)) if m > 1 else np.zeros(p_total),
            value_mean=float(values.mean()),
            value_se=value_se,
            value_median=float(np.median(values)),
            r_mean=float(values.mean() / h_opt),
            r_mean_se=value_se / abs(h_opt) if m > 1 else float("nan"),
            r_median=float(np.median(values) / h_opt),
            threshold_mean=thr_mean,
            threshold_se=thr_se,
        )

    # The ratio and its delta-method SE both use the replications where
    # both estimators succeeded.
    mse_ratio = None
    mse_ratio_se = None
    if "qlearn" in estimators and "alearn" in estimators:
        both = ~(failed["qlearn"] | failed["alearn"])
        mb = int(both.sum())
        ea = (psi_rep["alearn"][both] - psi_true) ** 2
        eq = (psi_rep["qlearn"][both] - psi_true) ** 2
        ma, mq = ea.mean(axis=0), eq.mean(axis=0)
        mse_ratio = ma / mq
        if mb > 1:
            va, vq = ea.var(axis=0, ddof=1), eq.var(axis=0, ddof=1)
            cov = ((ea - ma) * (eq - mq)).sum(axis=0) / (mb - 1)
            var_ratio = (va / mq**2 + (ma**2) * vq / mq**4 - 2 * ma * cov / mq**3) / mb
            mse_ratio_se = np.sqrt(np.maximum(var_ratio, 0.0))

    propensity_sd = {}
    propensity_sd_se = {}
    if "alearn" in estimators and not failed["alearn"].all():
        stage_sds = np.concatenate([fits["alearn"][3] for fits, _ in records])
        stage_sds = stage_sds[~failed["alearn"]]
        m = stage_sds.shape[0]
        for k in range(stage_sds.shape[1]):
            propensity_sd[k + 1] = float(stage_sds[:, k].mean())
            propensity_sd_se[k + 1] = (
                float(stage_sds[:, k].std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
            )

    return StudyResults(
        config=config,
        psi_true=psi_true,
        psi_labels=psi_labels,
        h_opt=h_opt,
        psi_rep=psi_rep,
        value_rep=value_rep,
        failed=failed,
        summaries=summaries,
        mse_ratio=mse_ratio,
        mse_ratio_se=mse_ratio_se,
        propensity_sd=propensity_sd,
        propensity_sd_se=propensity_sd_se,
        n_failed=n_failed,
        failure_rate=failure_rate,
        high_failure_warning=failure_rate > FAILURE_WARN_RATE,
        n_extreme_propensity=n_extreme,
    )

