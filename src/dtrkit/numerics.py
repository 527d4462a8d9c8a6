"""Deterministic numerical kernels used throughout the package.

Normal distribution helpers, truncated-normal partial moments, a dense linear
solver with an explicit rank guard, least squares, and logistic
maximum likelihood via iteratively reweighted least squares (IRLS).

The normal cdf is evaluated through the complementary error function, which
keeps the absolute error far below the 1e-12 target everywhere, including in
the tails.  All solvers go through one LU factorization path so that the
rank-deficiency policy (relative pivot threshold ``PIVOT_RTOL``) is identical
for every caller.

The solvers work on stacks of R problems of one shape (a leading
replication axis): ``lu_stack``, ``estimating_solve`` and
``logistic_stack``.  They make, for each problem, the BLAS and LAPACK calls
a single problem makes, so every problem's result is bit-identical to
fitting it alone, and a problem that fails (a singular system, a
non-convergent fit) is reported in a per-problem error list instead of
raising.  ``solve_linear``, ``wls_fit`` and ``logistic_fit`` are the stacks
of one, and raise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr

from .errors import InvalidParameterError, NonConvergenceError, SingularSystemError

__all__ = [
    "FitResult",
    "estimating_solve",
    "expit",
    "logistic_fit",
    "logistic_stack",
    "lu_solve_stack",
    "lu_stack",
    "norm_pdf",
    "require_rows",
    "solve_linear",
    "trunc_norm_moments",
    "wls_fit",
]

# Relative pivot threshold below which a linear system is declared singular.
PIVOT_RTOL = 1e-12
# IRLS convergence tolerance on the score and step infinity norms.
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 100


@dataclass
class FitResult:
    """Coefficients and diagnostics of a regression fit.

    Attributes
    ----------
    coefficients : ndarray, shape (p,)
    covariance : ndarray, shape (p, p)
        Model-based covariance of the coefficient estimates.
    residuals : ndarray, shape (n,)
        Response residuals (observed minus fitted mean).
    converged : bool
    iterations : int
        Number of iterations used (0 for closed-form fits).
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray
    converged: bool = True
    iterations: int = 0
    fitted: np.ndarray = field(default=None, repr=False)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return out if out.ndim else float(out)


def trunc_norm_moments(mu, sigma, cut, side):
    """Half-line probability and partial first moment of a normal variable.

    For X ~ N(mu, sigma^2) and z = (cut - mu)/sigma:

    ``side="above"``: returns (P(X > cut), E[X 1{X > cut}])
        = (1 - Phi(z), mu (1 - Phi(z)) + sigma phi(z))
    ``side="below"``: returns (P(X < cut), E[X 1{X < cut}])
        = (Phi(z), mu Phi(z) - sigma phi(z))

    The two sides are complementary: probabilities add to 1 and partial means
    add to mu.

    Parameters
    ----------
    mu, sigma, cut : float or ndarray
        Mean, standard deviation (must be > 0), and cut point.
    side : {"above", "below"}

    Returns
    -------
    (prob, partial_mean) : tuple of floats or ndarrays
    """
    if side not in ("above", "below"):
        raise InvalidParameterError(f"side must be 'above' or 'below', got {side!r}")
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise InvalidParameterError("sigma must be positive")
    z = (np.asarray(cut, dtype=float) - mu) / sigma
    dens = norm_pdf(z)
    if side == "above":
        prob = ndtr(-z)
        partial = mu * prob + sigma * dens
    else:
        prob = ndtr(z)
        partial = mu * prob - sigma * dens
    if np.ndim(prob) == 0:
        return float(prob), float(partial)
    return prob, partial


@functools.cache
def _lapack():
    # scipy.linalg is imported on first use: it is slow to import, and
    # commands that fit nothing never need it.
    from scipy.linalg import lapack

    return lapack.dgetrf, lapack.dgetrs


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of matrices: one BLAS call per pair, the same
    call (and bits) as the 2-D product.  A stack of one is multiplied as
    2-D arrays, which spares large operands the copies of numpy's stacked
    loop."""
    if a.ndim == 3 and a.shape[0] == 1:
        return (a[0] @ b[0])[None]
    return a @ b


def _matvec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix-vector product for every matrix of a stack."""
    return _matmul(a, b[..., None])[..., 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching rows of two (R, n) stacks."""
    return _matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (sorted, distinct) of a stack; the stack itself,
    uncopied, when they are all of its rows."""
    return a if rows.size == a.shape[0] else a[rows]


def _put(a: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``a`` with its rows ``rows`` (sorted, distinct) set to ``values``;
    ``values`` itself, uncopied, when they are all of its rows."""
    if rows.size == a.shape[0]:
        return values
    a[rows] = values
    return a


def lu_stack(a: np.ndarray, context: str):
    """LU-factor each matrix of a stack of shape (R, p, p).

    Returns ``(factors, errors, min_rel_pivot)``: per matrix, the LAPACK
    ``(lu, piv)`` pair or None, a :class:`SingularSystemError` (not raised)
    or None, and the smallest pivot relative to the largest entry.  A
    matrix is singular when that pivot falls below ``PIVOT_RTOL``, when it
    is zero, or when it has a non-finite entry.
    """
    getrf = _lapack()[0]
    reps, p = a.shape[0], a.shape[-1]
    scale = np.abs(a).max(axis=(-2, -1)) if p else np.zeros(reps)
    usable = np.isfinite(scale) & (scale != 0.0)
    # Each matrix in column-major order, which LAPACK factors in place.
    lu = np.swapaxes(a, -1, -2).copy()
    factors = [
        (m.T, getrf(m.T, overwrite_a=1)[1]) if ok else None
        for m, ok in zip(lu, usable.tolist())
    ]
    pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).min(axis=-1, initial=np.inf)
    min_rel_pivot = np.where(
        usable, pivots / np.where(usable, scale, 1.0), np.where(np.isfinite(scale), 0.0, np.nan)
    )
    errors = [None] * reps
    for r in np.flatnonzero(~(min_rel_pivot >= PIVOT_RTOL)):
        factors[r] = None
        if not usable[r]:
            what = "has non-finite entries" if np.isnan(min_rel_pivot[r]) else "is zero"
            message = f"{context}: matrix {what}"
        else:
            message = (
                f"{context}: system is singular or numerically rank deficient "
                f"(min relative pivot {min_rel_pivot[r]:.3e} < {PIVOT_RTOL:.0e})"
            )
        errors[r] = SingularSystemError(message, diagnostic=float(min_rel_pivot[r]))
    return factors, errors, min_rel_pivot


def lu_solve_stack(factors, b: np.ndarray) -> np.ndarray:
    """Solve with each factor of :func:`lu_stack` against the matching slice
    of ``b`` (R, p) or (R, p, k); slices without a factor are NaN."""
    getrs = _lapack()[1]
    out = np.full(b.shape, np.nan)
    for r, factor in enumerate(factors):
        if factor is not None:
            out[r] = getrs(factor[0], factor[1], b[r])[0]
    return out


def _raise_first(errors) -> None:
    if errors[0] is not None:
        raise errors[0]


def solve_linear(a, b):
    """Solve the dense square system a x = b with partial pivoting.

    Raises
    ------
    SingularSystemError
        If any LU pivot falls below ``PIVOT_RTOL`` times the largest entry
        of ``a`` in magnitude.  The error carries the offending relative
        pivot as ``diagnostic``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise InvalidParameterError("right-hand side length does not match matrix")
    factors, errors, _ = lu_stack(a[None], "solve_linear")
    _raise_first(errors)
    return lu_solve_stack(factors, b[None])[0]


def require_rows(x: np.ndarray) -> None:
    """Raise :class:`InvalidParameterError` if a design (or stack of
    designs) of shape (..., n, p) has fewer rows than columns."""
    n, p = x.shape[-2:]
    if n < p:
        raise InvalidParameterError(f"need at least p={p} rows, got n={n}")


def estimating_solve(x: np.ndarray, v: np.ndarray, g: np.ndarray | None = None, *, context: str):
    """Solve the linear estimating equations (G'X) theta = G'v for each
    replication of a stack.

    ``x`` and ``g`` are (R, n, p) and ``v`` is (R, n); ``g`` of None means
    G = X, i.e. least squares.  The covariance is model based,
    sigma2_hat (X'X)^{-1} for least squares and the sandwich
    sigma2_hat M^{-1} (G'G) M^{-T} with M = G'X otherwise, where
    sigma2_hat = |v - X theta|^2 / (n - p) (0 when n = p).

    Returns ``(theta, cov, resid, errors, min_rel_pivot)``; ``errors`` and
    ``min_rel_pivot`` are as in :func:`lu_stack`, and the rows of a
    replication whose system is singular are NaN.  With n < p, G'X has rank
    at most n, so every replication fails the rank check; least-squares
    callers reject that case up front with :func:`require_rows`.
    """
    n, p = x.shape[-2:]
    gt = _swap(x if g is None else g)
    factors, errors, min_rel_pivot = lu_stack(_matmul(gt, x), context)
    theta = lu_solve_stack(factors, _matvec(gt, v))
    resid = v - _matvec(x, theta)
    dof = n - p
    if dof > 0:
        sigma2 = _rowdot(resid, resid)[:, None] / dof
    else:
        sigma2 = np.zeros((x.shape[0], 1))
    m_inv = lu_solve_stack(factors, np.broadcast_to(np.eye(p), (x.shape[0], p, p)))
    if g is None:
        cov = sigma2[..., None] * m_inv
    else:
        cov = sigma2[..., None] * m_inv @ _matmul(gt, g) @ _swap(m_inv)
    cov = 0.5 * (cov + _swap(cov))
    return theta, cov, resid, errors, min_rel_pivot


def wls_fit(x, y) -> FitResult:
    """Least squares with model-based covariance.

    Solves the normal equations (X'X) b = X'y and reports the covariance
    sigma2_hat (X'X)^{-1} with sigma2_hat = sum(e^2) / (n - p).

    Parameters
    ----------
    x : ndarray, shape (n, p)
    y : ndarray, shape (n,)

    Raises
    ------
    InvalidParameterError
        If n < p.
    SingularSystemError
        If the normal matrix is numerically rank deficient.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    require_rows(x)
    coef, cov, resid, errors, _ = estimating_solve(x[None], y[None], context="wls_fit")
    _raise_first(errors)
    return FitResult(coef[0], cov[0], resid[0], converged=True, iterations=0, fitted=y - resid[0])


def _logistic_loglik(eta: np.ndarray, a: np.ndarray) -> np.ndarray:
    # sum a*eta - log(1 + exp(eta)) per row, stable for large |eta|
    return _rowdot(a, eta) - np.logaddexp(0.0, eta).sum(axis=-1)


def logistic_stack(x: np.ndarray, a: np.ndarray):
    """Logistic regression by IRLS for each replication of a stack.

    ``x`` is (R, n, p) and ``a`` the (R, n) 0/1 responses.  Every
    replication follows :func:`logistic_fit`'s iteration on its own: each
    leaves the iteration when it converges or fails, and step halving runs
    only for the replications whose likelihood fell.

    Returns ``(phi, cov, prob, iterations, errors)``: coefficients (R, p),
    inverse Fisher information (R, p, p), fitted probabilities (R, n),
    iterations used (R,), and per replication None or the
    :class:`SingularSystemError` / :class:`NonConvergenceError` that stopped
    it (not raised).  Rows of failed replications are NaN.
    """
    reps, _, p = x.shape
    phi = np.zeros((reps, p))
    eta = _matvec(x, phi)
    loglik = _logistic_loglik(eta, a)
    score_norm = np.full(reps, np.inf)
    iterations = np.zeros(reps, dtype=int)
    factors = [None] * reps
    errors = [None] * reps
    active = np.arange(reps)

    def information(rows, xs):
        # Score and information at the current iterate of ``rows``.
        prob = expit(_take(eta, rows))
        score = _matvec(_swap(xs), _take(a, rows) - prob)
        score_norm[rows] = np.abs(score).max(axis=-1, initial=0.0)
        w = prob * (1.0 - prob)
        factored, failed, _ = lu_stack(_matmul(_swap(xs * w[..., None]), xs), "logistic_fit")
        return score, factored, failed

    for it in range(1, IRLS_MAX_ITER + 1):
        if not active.size:
            break
        xs = _take(x, active)
        score, factored, failed = information(active, xs)
        going = []
        for j, r in enumerate(active.tolist()):
            if failed[j] is not None:
                # After the first iteration, degenerate information means the
                # likelihood is maximized at infinity, not at an interior point.
                errors[r] = failed[j] if it == 1 else NonConvergenceError(
                    f"logistic fit did not converge (degenerate information after "
                    f"{it - 1} iterations, score norm {score_norm[r]:.3e})",
                    score_norm=float(score_norm[r]),
                )
            elif score_norm[r] < IRLS_TOL:
                factors[r], iterations[r] = factored[j], it
            else:
                going.append(j)
        if len(going) < active.size:
            going = np.asarray(going, dtype=int)
            active, xs, score = active[going], xs[going], score[going]
            factored = [factored[j] for j in going]
            if not active.size:
                break
        step = lu_solve_stack(factored, score)
        base, base_loglik, a_act = _take(phi, active), _take(loglik, active), _take(a, active)
        cand = base + step
        cand_eta = _matvec(xs, cand)
        cand_loglik = _logistic_loglik(cand_eta, a_act)
        halve = np.flatnonzero(cand_loglik < base_loglik)
        for _ in range(50):
            if not halve.size:
                break
            step[halve] = 0.5 * step[halve]
            cand[halve] = base[halve] + step[halve]
            halved_eta = _matvec(_take(xs, halve), cand[halve])
            halved_loglik = _logistic_loglik(halved_eta, _take(a_act, halve))
            cand_eta = _put(cand_eta, halve, halved_eta)
            cand_loglik[halve] = halved_loglik
            halve = halve[halved_loglik < base_loglik[halve]]
        phi = _put(phi, active, cand)
        eta = _put(eta, active, cand_eta)
        loglik = _put(loglik, active, cand_loglik)
        small = np.abs(step).max(axis=-1, initial=0.0) < IRLS_TOL
        if small.any():
            rows = active[small]
            _, factored, failed = information(rows, _take(xs, np.flatnonzero(small)))
            for j, r in enumerate(rows.tolist()):
                errors[r] = failed[j]
                factors[r], iterations[r] = factored[j], it
            active = active[~small]
    for r in active:
        errors[r] = NonConvergenceError(
            f"logistic fit did not converge in {IRLS_MAX_ITER} iterations "
            f"(score norm {score_norm[r]:.3e})",
            score_norm=float(score_norm[r]),
        )
    # A final iterate that classifies every row perfectly with saturated
    # probabilities means the data are separated and the MLE diverges.  The
    # magnitude guard only rules out boundary-noise false positives; the
    # score stop can fire as early as |eta| ~ log(n/tol), hence 15, not
    # something larger.
    perfect = np.all((2.0 * a - 1.0) * eta > 0.0, axis=-1)
    for r in np.flatnonzero(perfect):
        if errors[r] is None and np.abs(eta[r]).max() > 15.0:
            factors[r] = None
            errors[r] = NonConvergenceError(
                f"logistic fit did not converge: data are completely separated "
                f"(score norm {score_norm[r]:.3e})",
                score_norm=float(score_norm[r]),
            )
    cov = lu_solve_stack(factors, np.broadcast_to(np.eye(p), (reps, p, p)))
    cov = 0.5 * (cov + _swap(cov))
    failed = np.array([e is not None for e in errors], dtype=bool)
    phi[failed] = np.nan
    prob = expit(eta)
    prob[failed] = np.nan
    return phi, cov, prob, iterations, errors


def logistic_fit(x, a) -> FitResult:
    """Logistic regression by IRLS with step halving.

    Solves the maximum likelihood score equations
    sum_i x_i (a_i - expit(x_i' phi)) = 0 starting from phi = 0, declaring
    convergence when the score or the applied step drops below ``IRLS_TOL``
    in infinity norm.  The covariance is the inverse Fisher information at
    the solution.

    Separated data have no finite maximizer; a fit whose final iterate
    classifies every row perfectly with saturated probabilities is reported
    as non-convergent rather than returned.

    Raises
    ------
    InvalidParameterError
        If the response is not 0/1.
    SingularSystemError
        If the design is rank deficient at the starting point.
    NonConvergenceError
        If 100 iterations pass without convergence, or the data are
        separated.  Carries the final score infinity norm.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.ndim != 2 or a.shape != (x.shape[0],):
        raise InvalidParameterError("design and response shapes do not match")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise InvalidParameterError("response must be binary 0/1")
    phi, cov, prob, iterations, errors = logistic_stack(x[None], a[None])
    _raise_first(errors)
    return FitResult(
        phi[0], cov[0], a - prob[0], converged=True, iterations=int(iterations[0]), fitted=prob[0]
    )
