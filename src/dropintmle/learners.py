"""Binary / quasi-binary regression machinery.

Everything downstream (propensity models, sequential outcome regressions,
targeting fluctuations) reduces to weighted logistic-link regression with an
offset, where the response may be fractional in [0, 1].  We solve these by
iteratively reweighted least squares with a small ridge jitter on the normal
equations, which keeps late-follow-up fits stable when covariate columns
collapse or collide.  A discrete (selector) super learner picks among
candidate design matrices by V-fold cross-validated quasi-binomial loss.
A learner is the name of its feature map (see features.py), and a library is
a list of names; the IRLS settings are the ``fit_binary_glm`` defaults.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

PROB_CLIP = 1e-6      # clip for probabilities entering logit transforms
SCORE_TOL = 1e-6      # max-norm of the weighted score at convergence
EPS_TOL = 1e-10       # step tolerance for the one-dimensional fluctuation
FLUCT_MAX_ITER = 100  # Newton/bisection steps of the one-dimensional fluctuation


class FitError(ValueError):
    """Raised when a regression problem is unusable (no data, no weight)."""


@dataclass
class FittedModel:
    """A fitted logit-link model: predictions are expit(X @ coef [+ offset]).

    ``constant`` marks a degenerate fit (response had no variation); the
    stored probability is returned exactly, bypassing the linear predictor.
    """

    coef: np.ndarray
    converged: bool
    deviance: float
    n_iter: int = 0
    constant: float | None = None

    def predict(self, design: np.ndarray, offset: np.ndarray | None = None) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        if self.constant is not None:
            return np.full(design.shape[0], self.constant)
        eta = design @ self.coef
        if offset is not None:
            eta = eta + offset
        # keep the open interval even under separation-sized coefficients
        return np.clip(expit(eta), 1e-12, 1.0 - 1e-12)


def clip_probs(p: np.ndarray | float, lo: float = PROB_CLIP) -> np.ndarray:
    return np.clip(p, lo, 1.0 - lo)


def _log_likelihood(y, p, w) -> float:
    """Weighted quasi-binomial log-likelihood sum_i w_i [y_i log p_i +
    (1-y_i) log(1-p_i)] at clipped p; valid for fractional y (constant terms
    in y are dropped)."""
    p = clip_probs(np.asarray(p, dtype=float))
    return float(np.sum(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def fit_binary_glm(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray | None = None,
    offset: np.ndarray | None = None,
    max_iter: int = 50,
    tol: float = 1e-10,
    ridge: float = 1e-8,
) -> FittedModel:
    """Weighted quasi-binomial regression with fixed offset, via IRLS.

    Maximizes sum_i w_i [y_i log mu_i + (1-y_i) log(1-mu_i)] with
    mu = expit(offset + X beta).  At convergence the weighted score
    X' w (y - mu) has max-norm <= 1e-6; otherwise the best iterate is
    returned with ``converged`` False (e.g. under separation).
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(response, dtype=float)
    n = X.shape[0]
    if n < 1:
        raise FitError("design has no rows")
    if y.shape[0] != n:
        raise FitError(f"response length {y.shape[0]} != design rows {n}")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape[0] != n:
        raise FitError("weights length mismatch")
    if np.any(w < 0):
        raise FitError("weights must be nonnegative")
    if not np.any(w > 0):
        raise FitError("all weights are zero")
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    if off.shape[0] != n:
        raise FitError("offset length mismatch")
    if np.any(y < 0) or np.any(y > 1):
        raise FitError("response must lie in [0, 1]")

    # Bit-identical to the textbook loop: X beta is kept from the last mu, mu is
    # not re-clipped, and a design with no zero weight is used in place, in C
    # order since BLAS sums in a layout-dependent order.
    active = w > 0
    if np.all(active):
        Xa, ya, wa, offa = np.ascontiguousarray(X), y, w, off
    else:
        Xa, ya, wa, offa = X[active], y[active], w[active], off[active]
    p = X.shape[1]

    def mu_and_deviance(xb):
        mu = clip_probs(expit(offa + xb))
        ll = ya * np.log(mu) + (1.0 - ya) * np.log(1.0 - mu)
        return mu, -2.0 * float(np.sum(wa * ll))

    beta = np.zeros(p)
    xb = Xa @ beta
    mu, dev = mu_and_deviance(xb)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        var = mu * (1.0 - mu)
        irls_w = wa * mu * (1.0 - mu)
        # working response on the linear-predictor scale, offset removed
        z = xb + (ya - mu) / np.maximum(var, 1e-12)
        XtW = Xa.T * irls_w
        lhs = XtW @ Xa + ridge * np.eye(p)
        rhs = XtW @ z
        try:
            beta_new = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            break
        xb_new = Xa @ beta_new
        mu_new, dev_new = mu_and_deviance(xb_new)
        step = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta, mu, xb = beta_new, mu_new, xb_new
        if abs(dev - dev_new) < tol * (abs(dev_new) + 1.0) and step <= 1e-9:
            dev = dev_new
            break
        dev = dev_new

    score = Xa.T @ (wa * (ya - mu))
    converged = bool(np.max(np.abs(score), initial=0.0) <= SCORE_TOL)
    return FittedModel(coef=beta, converged=converged, deviance=dev, n_iter=n_iter)


def fit_constant(response: np.ndarray, weights: np.ndarray | None = None) -> FittedModel:
    """Degenerate-fit shortcut: a model that predicts the weighted mean exactly."""
    y = np.asarray(response, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if not np.any(w > 0):
        raise FitError("all weights are zero")
    mean = float(np.sum(w * y) / np.sum(w))
    return FittedModel(
        coef=np.array([logit(clip_probs(mean))]),
        converged=True,
        deviance=-2.0 * _log_likelihood(y, np.full_like(y, max(mean, 1e-12)), w),
        constant=mean,
    )


def fit_intercept_fluctuation(
    pseudo_outcome: np.ndarray,
    offset_logit: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, bool]:
    """Solve sum_i w_i (y_i - expit(offset_i + eps)) = 0 for scalar eps.

    This is the targeting update: the returned eps shifts the offset so the
    weighted residual score vanishes.  Newton steps with a bisection fallback;
    if no weight is positive the update is vacuous and eps = 0 is returned
    with a warning.  Returns (eps, converged).
    """
    y = np.asarray(pseudo_outcome, dtype=float)
    o = np.asarray(offset_logit, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(y)):
        raise FitError("pseudo-outcome contains non-finite values")
    pos = w > 0
    if not np.any(pos):
        warnings.warn("fluctuation has no positive weights; update is vacuous")
        return 0.0, True
    y, o, w = y[pos], o[pos], w[pos]
    wsum = float(np.sum(w))

    def score(eps):
        return float(np.sum(w * (y - expit(o + eps))))

    # the score is strictly decreasing in eps; cap the root search so a
    # one-sided pseudo-outcome cannot run off to +-inf
    lo, hi = -30.0, 30.0
    s_lo, s_hi = score(lo), score(hi)
    if s_lo <= 0:
        return lo, False
    if s_hi >= 0:
        return hi, False

    eps = 0.0
    for _ in range(FLUCT_MAX_ITER):
        mu = expit(o + eps)
        s = float(np.sum(w * (y - mu)))
        if s > 0:
            lo = max(lo, eps)
        else:
            hi = min(hi, eps)
        slope = float(np.sum(w * mu * (1.0 - mu)))
        if slope <= 0:
            break
        step = s / slope
        eps_new = eps + step
        if not (lo < eps_new < hi):
            eps_new = 0.5 * (lo + hi)
        if abs(eps_new - eps) <= EPS_TOL * max(1.0, abs(eps_new)):
            eps = eps_new
            break
        eps = eps_new
    converged = abs(score(eps)) <= 1e-8 * max(1.0, wsum)
    return eps, converged


def cv_fold_ids(n: int, n_folds: int, seed: int) -> np.ndarray:
    """Seed-deterministic V-fold assignment (balanced, permuted)."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n) % n_folds
    rng.shuffle(ids)
    return ids


@dataclass
class SelectorFit:
    """Result of the discrete super learner: the refit winner plus the CV report."""

    name: str
    model: FittedModel
    cv_risks: dict = field(default_factory=dict)


def fit_discrete_super_learner(
    candidates: list[tuple[str, np.ndarray]],
    response: np.ndarray,
    n_folds: int = 10,
    seed: int = 0,
) -> SelectorFit:
    """Discrete super learner over candidate design matrices.

    Each candidate is (name, design) sharing the same response.  The member
    minimizing V-fold cross-validated quasi-binomial loss is refit on all data;
    ties break toward the earliest member.  Members that error on every fold
    get no CV risk; if all members fail, raises FitError.  Every fit uses the
    ``fit_binary_glm`` defaults.
    """
    if not candidates:
        raise FitError("empty learner library")
    y = np.asarray(response, dtype=float)
    n = y.shape[0]
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n < n_folds:
        raise FitError(f"n={n} smaller than number of folds {n_folds}")

    folds = cv_fold_ids(n, n_folds, seed)
    cv_risks: dict[str, float] = {}
    for name, design in candidates:
        X = np.atleast_2d(np.asarray(design, dtype=float))
        total, n_scored, failed_folds = 0.0, 0.0, 0
        for v in range(n_folds):
            val = folds == v        # n >= n_folds >= 2: both sides are nonempty
            train = ~val
            try:
                m = fit_binary_glm(X[train], y[train])
                p = m.predict(X[val])
            except (FitError, np.linalg.LinAlgError):
                failed_folds += 1
                continue
            total += -_log_likelihood(y[val], p, 1.0)
            n_scored += float(np.sum(val))
        if failed_folds < n_folds:
            cv_risks[name] = total / n_scored

    if not cv_risks:
        raise FitError("every library member failed cross-validation")

    best_name, best_risk = None, np.inf
    for name, _ in candidates:
        if name in cv_risks and cv_risks[name] < best_risk:
            best_name, best_risk = name, cv_risks[name]
    design = dict(candidates)[best_name]
    return SelectorFit(name=best_name, model=fit_binary_glm(design, y), cv_risks=cv_risks)
