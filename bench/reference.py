"""Independent recomputation of what dtrkit reports.

Nothing here calls dtrkit.  Datasets are regenerated straight from numpy's
Philox bit generator under the documented stream contract (stream
``(master_seed, stream_id)`` is ``Philox(key=[master_seed, stream_id])``;
substream ``j`` of it is that generator jumped ``j + 1`` times), the working
models are fitted with ``numpy.linalg.lstsq`` and ``scipy.optimize``, and
regime values come from ``scipy.integrate.quad``.  Scenario parameters are
passed in as plain dataclasses, the program's inputs.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit

SQRT2PI = np.sqrt(2.0 * np.pi)


def substream(master_seed: int, stream_id: int, index: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=[master_seed, stream_id]).jumped(index + 1)
    return np.random.Generator(bitgen)


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------


def generate(scenario: str, params, n: int, master_seed: int, stream_id: int) -> dict:
    """Columns s1, a1, s2, a2, y of one replication's dataset."""

    def draw(index):
        return substream(master_seed, stream_id, index)

    if scenario == "two_decision":
        f1, d, f2 = params.phi1, params.delta, params.phi2
        b2, p2 = params.beta2, params.psi2
        s1 = (draw(0).random(n) < 0.5).astype(float)
        a1 = (draw(1).random(n) < expit(f1[0] + f1[1] * s1)).astype(float)
        mu2 = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1
        s2 = mu2 + np.sqrt(params.s2_var) * draw(2).standard_normal(n)
        eta2 = f2[0] + f2[1] * s1 + f2[2] * a1 + f2[3] * s2 + f2[4] * a1 * s2 + f2[5] * s2 * s2
        a2 = (draw(3).random(n) < expit(eta2)).astype(float)
        eps = np.sqrt(params.y_var) * draw(4).standard_normal(n)
        h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
        y = h2 + a2 * (p2[0] + p2[1] * a1 + p2[2] * s2) + eps
    elif scenario == "moodie":
        p1, p2 = params.psi1, params.psi2
        s1 = params.s1_mean + params.s1_sd * draw(0).standard_normal(n)
        a1 = (draw(1).random(n) < expit(params.phi1[0] + params.phi1[1] * s1)).astype(float)
        s2 = params.s2_coef * s1 + params.s2_sd * draw(2).standard_normal(n)
        a2 = (draw(3).random(n) < expit(params.phi2[0] + params.phi2[1] * s2)).astype(float)
        yopt = params.yopt_intercept + params.yopt_slope * s1 + params.yopt_sd * draw(
            4
        ).standard_normal(n)
        c1 = p1[0] + p1[1] * s1
        c2 = p2[0] + p2[1] * s2
        y = yopt - c1 * ((c1 > 0.0) - a1) - c2 * ((c2 > 0.0) - a2)
    else:
        raise ValueError(f"no reference generator for {scenario!r}")
    return {"s1": s1, "a1": a1, "s2": s2, "a2": a2, "y": y}


def _cols(data: dict, names) -> np.ndarray:
    one = np.ones_like(data["y"])
    out = []
    for name in names:
        if name == "1":
            out.append(one)
        elif name.endswith("^2"):
            out.append(data[name[:-2]] ** 2)
        elif "*" in name:
            left, right = name.split("*")
            out.append(data[left] * data[right])
        else:
            out.append(data[name])
    return np.column_stack(out)


# Working models of the study scenarios, stage 1 first: (h, c, propensity).
WORKING = {
    "two_decision": (
        (("1", "s1"), ("1", "s1"), ("1", "s1")),
        (("1", "s1", "a1", "s1*a1", "s2"), ("1", "a1", "s2"), ("1", "s1", "a1", "s2", "a1*s2")),
    ),
    "moodie": (
        (("1", "s1"), ("1", "s1"), ("1", "s1")),
        (("1", "s1", "a1", "s1*a1", "s2"), ("1", "s2"), ("1", "s2")),
    ),
}
# Fully specified stage-2 models of the two_decision calibration.
FULL_H = ("1", "s1", "a1", "s1*a1", "s2", "s2^2")
FULL_C = ("1", "a1", "s2")
FULL_PROP = ("1", "s1", "a1", "s2", "a1*s2", "s2^2")
QUAD_INDEX = 5  # s2^2 in FULL_H and in FULL_PROP


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def logistic_mle(x: np.ndarray, a: np.ndarray):
    """Maximum likelihood logistic coefficients and inverse Fisher
    information, by scipy's exact-Hessian trust-region minimizer on
    column-scaled covariates."""
    scale = np.max(np.abs(x), axis=0)
    z = x / scale

    def nll(b):
        eta = z @ b
        return float(np.logaddexp(0.0, eta).sum() - a @ eta), z.T @ (expit(eta) - a)

    def hess(b):
        p = expit(z @ b)
        return (z * (p * (1.0 - p))[:, None]).T @ z

    res = optimize.minimize(
        nll, np.zeros(z.shape[1]), jac=True, hess=hess, method="trust-exact",
        options={"gtol": 1e-9 * len(a)},
    )
    # Finish with Newton steps: the trust region stops at gtol, and the
    # comparison with the program needs the root to full precision.
    b = res.x
    for _ in range(3):
        b = b - np.linalg.solve(hess(b), nll(b)[1])
    coef = b / scale
    cov = np.linalg.inv(hess(b)) / np.outer(scale, scale)
    return coef, cov


def qlearn(data: dict, scenario: str) -> list:
    """Contrast coefficients, stage 1 first, by least squares backward
    recursion."""
    v = data["y"]
    psi = [None, None]
    for k in (2, 1):
        h_names, c_names, _ = WORKING[scenario][k - 1]
        h, c = _cols(data, h_names), _cols(data, c_names)
        x = np.hstack([h, data[f"a{k}"][:, None] * c])
        coef = np.linalg.lstsq(x, v, rcond=None)[0]
        beta, psi[k - 1] = coef[: h.shape[1]], coef[h.shape[1]:]
        v = h @ beta + np.maximum(c @ psi[k - 1], 0.0)
    return psi


def alearn(data: dict, scenario: str) -> list:
    """Contrast coefficients, stage 1 first, from a logistic MLE followed by
    the stacked moment solve, with regret-corrected pseudo-outcomes."""
    v = data["y"]
    psi = [None, None]
    for k in (2, 1):
        h_names, c_names, p_names = WORKING[scenario][k - 1]
        h, c, z = _cols(data, h_names), _cols(data, c_names), _cols(data, p_names)
        a = data[f"a{k}"]
        pihat = expit(z @ logistic_mle(z, a)[0])
        g = np.hstack([(a - pihat)[:, None] * c, h])
        x = np.hstack([a[:, None] * c, h])
        theta = np.linalg.solve(g.T @ x, g.T @ v)
        psi[k - 1] = theta[: c.shape[1]]
        contrast = c @ psi[k - 1]
        v = v + contrast * ((contrast > 0.0) - a)
    return psi


def calibration_cell_ratio(params, n: int, master_seed: int, cell: int) -> float:
    """SE(propensity quadratic) / SE(outcome quadratic) of one calibration
    cell: OLS by lstsq, logistic MLE by scipy."""
    data = generate("two_decision", params, n, master_seed, cell)
    x = np.hstack([_cols(data, FULL_H), data["a2"][:, None] * _cols(data, FULL_C)])
    coef, _, _, _ = np.linalg.lstsq(x, data["y"], rcond=None)
    resid = data["y"] - x @ coef
    sigma2 = float(resid @ resid) / (n - x.shape[1])
    se_beta = np.sqrt(sigma2 * np.linalg.inv(x.T @ x)[QUAD_INDEX, QUAD_INDEX])
    _, cov = logistic_mle(_cols(data, FULL_PROP), data["a2"])
    return float(np.sqrt(cov[QUAD_INDEX, QUAD_INDEX]) / se_beta)


# ---------------------------------------------------------------------------
# Regime values by quadrature
# ---------------------------------------------------------------------------


def _normal_expectation(f, mu: float, sd: float, cuts=()) -> float:
    """E f(X) for X ~ N(mu, sd^2), integrating piecewise between cuts over
    mu +- 12 sd (the mass outside is below 1e-32)."""
    lo, hi = mu - 12.0 * sd, mu + 12.0 * sd
    edges = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(
            lambda x: f(x) * np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * SQRT2PI),
            lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        total += val
    return total


def _cut(r0: float, r1: float) -> float:
    return -r0 / r1 if r1 != 0.0 else np.nan


def value(scenario: str, params, psi1, psi2) -> float:
    """H(d) of the rule pair (psi1, psi2), by one-dimensional quadrature."""
    if scenario == "two_decision":
        d, b2, p2 = params.delta, params.beta2, params.psi2
        sd = np.sqrt(params.s2_var)
        total = 0.0
        for s1 in (0.0, 1.0):
            a1 = 1.0 if psi1[0] + psi1[1] * s1 > 0.0 else 0.0
            mu = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1

            def mean_y(s2, s1=s1, a1=a1):
                a2 = 1.0 if psi2[0] + psi2[1] * a1 + psi2[2] * s2 > 0.0 else 0.0
                h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
                return h2 + a2 * (p2[0] + p2[1] * a1 + p2[2] * s2)

            total += 0.5 * _normal_expectation(
                mean_y, mu, sd, [_cut(psi2[0] + psi2[1] * a1, psi2[2])]
            )
        return total
    if scenario == "moodie":
        p1, p2 = params.psi1, params.psi2
        mu1, sd1 = params.s1_mean, params.s1_sd
        mu2 = params.s2_coef * mu1
        sd2 = float(np.hypot(params.s2_coef * sd1, params.s2_sd))

        def regret(true, rule):
            def f(s):
                c = true[0] + true[1] * s
                return c * (float(c > 0.0) - float(rule[0] + rule[1] * s > 0.0))
            return f

        loss1 = _normal_expectation(regret(p1, psi1), mu1, sd1, [_cut(*p1), _cut(*psi1)])
        loss2 = _normal_expectation(regret(p2, psi2), mu2, sd2, [_cut(*p2), _cut(*psi2)])
        return params.yopt_intercept + params.yopt_slope * mu1 - loss1 - loss2
    raise ValueError(f"no reference value for {scenario!r}")


def two_decision_stage1_truth(params) -> np.ndarray:
    """True stage-1 contrast (psi10, psi11): corner differences of the
    stage-1 value under optimal stage-2 action, by quadrature."""
    d, b2, p2 = params.delta, params.beta2, params.psi2
    sd = np.sqrt(params.s2_var)

    def q1(s1, a1):
        mu = d[0] + d[1] * s1 + d[2] * a1 + d[3] * s1 * a1

        def best(s2):
            h2 = b2[0] + b2[1] * s1 + b2[2] * a1 + b2[3] * s1 * a1 + b2[4] * s2 + b2[5] * s2 * s2
            return h2 + max(0.0, p2[0] + p2[1] * a1 + p2[2] * s2)

        return _normal_expectation(best, mu, sd, [_cut(p2[0] + p2[1] * a1, p2[2])])

    q00, q10, q01, q11 = q1(0, 0), q1(1, 0), q1(0, 1), q1(1, 1)
    return np.array([q01 - q00, q11 - q10 - q01 + q00])


def gcomp_moodie(params, psi1, psi2, n_draws: int, master_seed: int, stream_id: int):
    """Re-simulation of the g-computation value of replication ``stream_id``
    (its substream 8), with its Monte Carlo standard error."""
    gen = substream(master_seed, stream_id, 8)
    s1 = params.s1_mean + params.s1_sd * gen.standard_normal(n_draws)
    s2 = params.s2_coef * s1 + params.s2_sd * gen.standard_normal(n_draws)
    a1 = (psi1[0] + psi1[1] * s1 > 0.0).astype(float)
    a2 = (psi2[0] + psi2[1] * s2 > 0.0).astype(float)
    c1 = params.psi1[0] + params.psi1[1] * s1
    c2 = params.psi2[0] + params.psi2[1] * s2
    u = (
        params.yopt_intercept + params.yopt_slope * s1
        - c1 * ((c1 > 0.0) - a1) - c2 * ((c2 > 0.0) - a2)
    )
    return float(np.mean(u)), float(np.std(u, ddof=1) / np.sqrt(n_draws))
