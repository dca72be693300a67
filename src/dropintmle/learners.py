"""Binary / quasi-binary regression machinery.

Propensity models and sequential outcome regressions reduce to
logistic-link regression where the response may be fractional in [0, 1].  We
solve these by iteratively reweighted least squares, each step in Newton
form.  Columns that are exactly equal on the fitted rows (under full
adherence the running mean of A is the last A, and A_0 = A_1 = ...) are
fitted as one, with an equal share to each member; a small ridge jitter on
the normal equations keeps late-follow-up fits stable when the remaining
columns nearly collide.  A fit works on one transposed copy of the distinct
columns and forms the weighted Gram over row blocks, so its only other
design-sized scratch is one block.  That copy and the column groups are a
``Design``, prepared once and shared by every fit on the same rows (the
arms of one estimation step); a matrix given to a fit is prepared on the
spot.  The super learner prepares each member's design once, keeps on it
its fold ids and each fold's column groups, and gathers each fold's rows
from it when it fits.  The loop stops once the deviance has settled and the
score vanishes, so a fit that runs to ``max_iter`` has not converged.  A fit may start from a nearby fit's coefficients (``start``),
which is kept only when its deviance is no worse than the zero start's; a
large fit without one starts from a fit on a subsample of its rows, under
the same rule.  The targeting step, a weighted intercept-only fluctuation
with an offset (a fit's linear predictor within LOGIT_CLIP), has its own
one-dimensional solver.  Both solvers refuse
non-finite input.  A discrete (selector) super learner picks among candidate
design matrices by V-fold cross-validated quasi-binomial loss.  A learner is
the name of its feature map (see features.py), and a library is a list of
names.  The logistic function and its inverse are numpy's vectorized ``exp``
and ``log`` in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

PROB_CLIP = 1e-6      # clip for probabilities entering logit transforms
SCORE_TOL = 1e-6      # max-norm of the IRLS score at convergence
DEV_TOL = 1e-10       # relative deviance change at which an IRLS fit has settled
RIDGE = 1e-8          # jitter on the diagonal of the IRLS normal equations
EPS_TOL = 1e-10       # step tolerance for the one-dimensional fluctuation
FLUCT_MAX_ITER = 100  # Newton/bisection steps of the one-dimensional fluctuation
SIGN_MARGIN = 1e-8    # relative bound margin that decides the sign of a fluctuation score
_BLOCK = 1 << 14            # rows per block of the IRLS weighted Gram
_SUBSAMPLE_FROM = 1 << 15   # rows from which a cold IRLS fit starts from a subsample fit
_SUBSAMPLE = 1 << 13        # that subsample is every (n // _SUBSAMPLE)-th row


class FitError(ValueError):
    """Raised when a regression problem is unusable (no data, bad response)."""


def expit(x, out=None):
    """The logistic function 1 / (1 + exp(-x)), elementwise, written into
    ``out`` if given (which may be ``x`` itself).

    The formula of ``scipy.special.expit``: an ``exp(-x)`` that overflows
    gives exactly 0, here without an overflow warning.  Only the output is
    allocated."""
    scalar = out is None and np.ndim(x) == 0
    if out is None:
        out = np.empty(np.shape(x))
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out[()] if scalar else out


def logit(p, out=None):
    """The log-odds log(p / (1 - p)), elementwise, written into ``out`` if
    given (which may be ``p`` itself, at the cost of a copy of ``p``).

    The formula of ``scipy.special.logit``: on [0.3, 0.65], where the
    quotient loses precision, log1p(s) - log1p(-s) with s = 2 (p - 0.5).
    p = 0 and 1 give -inf and inf without a warning."""
    p = np.asarray(p, dtype=float)
    scalar = out is None and p.ndim == 0
    if out is None:
        out = np.empty(p.shape)
    elif np.shares_memory(out, p):
        p = p.copy()
    mid = (p >= 0.3) & (p <= 0.65)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(1.0, p, out=out)
        np.divide(p, out, out=out)
        np.log(out, out=out)
    if mid.any():
        s = p[mid]
        s -= 0.5
        s *= 2.0
        out[mid] = np.log1p(s) - np.log1p(-s)
    return out[()] if scalar else out


#: the logit of [PROB_CLIP, 1 - PROB_CLIP]: a fluctuation's offset range
LOGIT_CLIP = (float(logit(PROB_CLIP)), float(logit(1.0 - PROB_CLIP)))


@dataclass
class FittedModel:
    """A fitted logit-link model: predictions are expit(X @ coef).

    ``constant`` marks a degenerate fit (response had no variation); the
    stored probability is returned exactly, bypassing the linear predictor.
    """

    coef: np.ndarray
    converged: bool
    deviance: float
    n_iter: int = 0
    constant: float | None = None

    def linear_predictor(self, design) -> np.ndarray:
        """X @ coef, a new array; ``design`` is a matrix or a ``Design``."""
        return np.asarray(design, dtype=float) @ self.coef

    def predict(self, design) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        if self.constant is not None:
            return np.full(design.shape[0], self.constant)
        return fitted_prob(self.linear_predictor(design))


def fitted_prob(eta: np.ndarray) -> np.ndarray:
    """expit(eta) in place, kept in the open interval even under
    separation-sized coefficients: a model's predictions at linear predictor
    ``eta``."""
    expit(eta, out=eta)
    return np.clip(eta, 1e-12, 1.0 - 1e-12, out=eta)


def clip_probs(p: np.ndarray | float) -> np.ndarray:
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def _log_likelihood(y, p) -> float:
    """Quasi-binomial log-likelihood sum_i [y_i log p_i + (1-y_i) log(1-p_i)]
    at clipped p; valid for fractional y (constant terms in y are dropped)."""
    p = clip_probs(np.asarray(p, dtype=float))
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _column_leaders(X: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """For each column, the index of the first column exactly equal to it.

    Columns are compared only when their ``sums`` agree, so a design of
    distinct columns costs no pass over X beyond the sums."""
    leaders = np.arange(X.shape[1])
    by_sum: dict[float, list[int]] = {}
    for j, s in enumerate(sums.tolist()):
        firsts = by_sum.setdefault(s, [])
        leaders[j] = next((i for i in firsts if np.array_equal(X[:, i], X[:, j])), j)
        if leaders[j] == j:
            firsts.append(j)
    return leaders


def _groups(X: np.ndarray, sums: np.ndarray):
    """The columns of X in groups of exactly equal columns: the first column
    of each group (``keep``), each column's group and its group's size
    (``sums`` are X's column sums, see ``_column_leaders``)."""
    leaders = _column_leaders(X, sums)
    keep = np.flatnonzero(leaders == np.arange(X.shape[1]))
    group = np.searchsorted(keep, leaders)
    return keep, group, np.bincount(group)[group].astype(float)


@dataclass(eq=False)
class Design:
    """A design matrix prepared for any number of IRLS fits on its rows.

    The columns fall into groups of exactly equal columns, each fitted
    through its first column: ``group`` gives each column's group and
    ``share`` its group's size, and ``XT`` holds the first columns
    transposed, one per row, in C order whatever the matrix's layout (BLAS
    sums in a layout-dependent order).  ``np.asarray(design)`` gives the
    matrix: ``X`` when held, else one rebuilt from ``XT`` (equal columns are
    equal).  ``splits`` keeps what ``rows`` finds, and the super learner's
    fold ids.
    """

    XT: np.ndarray
    group: np.ndarray
    share: np.ndarray
    X: np.ndarray | None = field(default=None, repr=False)
    splits: dict = field(default_factory=dict, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.XT.shape[1], self.group.size

    def __array__(self, dtype=None, copy=None):
        X = self.X if self.X is not None else np.ascontiguousarray(self.XT[self.group].T)
        return np.array(X, dtype=dtype, copy=copy)

    def rows(self, index: np.ndarray, key) -> Design:
        """The design of the rows ``index`` (ascending), whose columns may
        fall into coarser groups there.  Those groups are found on the first
        call with ``key`` and kept in ``splits[key]``; the transposed columns
        are gathered from ``XT`` at each call, so what is kept is a few
        numbers per column, not a design."""
        XT = self.XT.take(index, axis=1)
        if key not in self.splits:
            keep, group, _ = _groups(XT.T, XT.sum(axis=1))
            group = group[self.group]        # each column's group on these rows
            self.splits[key] = keep, group, np.bincount(group)[group].astype(float)
        keep, group, share = self.splits[key]
        return Design(XT=XT if keep.size == XT.shape[0] else XT[keep], group=group, share=share)


def prepare_design(design) -> Design:
    """``design`` (a matrix with rows) as a ``Design`` that holds it.  An
    empty or non-finite design is a FitError."""
    X = np.atleast_2d(np.asarray(design, dtype=float))
    if X.shape[0] < 1:
        raise FitError("design has no rows")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = X.sum(axis=0)  # finite unless a cell is not (or the sum overflows)
    if not np.all(np.isfinite(sums)) and not np.all(np.isfinite(X)):
        raise FitError("design contains non-finite values")
    keep, group, share = _groups(X, sums)
    return Design(XT=np.ascontiguousarray(X.T[keep]), group=group, share=share, X=X)


def fit_binary_glm(design, response: np.ndarray,
                   max_iter: int = 50, start: np.ndarray | None = None) -> FittedModel:
    """Quasi-binomial regression via IRLS.

    Maximizes sum_i [y_i log mu_i + (1-y_i) log(1-mu_i)] with
    mu = expit(X beta).  Exactly equal columns carry one coefficient: the
    normal equations are reduced to the first column of each group, and every
    member gets an equal share (the minimum-norm split).  The loop stops with
    ``converged`` True once the deviance changes by less than
    DEV_TOL * (|deviance| + 1) and the score X' (y - mu) has max-norm
    <= SCORE_TOL.  A fit that runs to ``max_iter`` (e.g. under separation)
    returns its last iterate with ``converged`` False.  The loop starts from
    ``start`` (one coefficient per column) when its deviance is no worse
    than that of the zero start, and from zero otherwise.  Without ``start``,
    a fit on at least 2^15 rows first fits every (n // 2^13)-th row and, if
    that fit converged, offers its coefficients as the start.  ``n_iter``
    counts the iterations on all rows only.  ``design`` is a ``Design``, or
    a matrix prepared on the spot (see ``prepare_design``).  A non-finite
    response or design cell is a FitError.
    """
    d = design if isinstance(design, Design) else prepare_design(design)
    y = np.asarray(response, dtype=float)
    n, p = d.shape
    if y.shape[0] != n:
        raise FitError(f"response length {y.shape[0]} != design rows {n}")
    if not np.all(np.isfinite(y)):
        raise FitError("response contains non-finite values")
    if np.any(y < 0) or np.any(y > 1):
        raise FitError("response must lie in [0, 1]")
    gamma = None
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (p,):
            raise ValueError(f"start has shape {start.shape}, not ({p},)")
        gamma = np.bincount(d.group, weights=start, minlength=d.XT.shape[0])  # same X beta
    elif n >= _SUBSAMPLE_FROM:
        rows = slice(None, None, n // _SUBSAMPLE)
        sub, _, sub_converged, _ = _irls(np.ascontiguousarray(d.XT[:, rows]), y[rows],
                                         None, max_iter)
        gamma = sub if sub_converged else None
    gamma, dev, converged, n_iter = _irls(d.XT, y, gamma, max_iter)
    return FittedModel(coef=gamma[d.group] / d.share, converged=converged, deviance=dev,
                       n_iter=n_iter)


def _irls(XT: np.ndarray, y: np.ndarray, start: np.ndarray | None, max_iter: int):
    """The IRLS loop of ``fit_binary_glm`` on the transposed design ``XT``
    (one row per distinct column); returns (coefficients, deviance,
    converged, iterations).

    Each iteration solves the Newton form (G + RIDGE I) b' = G b + X' (y - mu)
    of the working-response equations, with G = X' diag(mu (1 - mu)) X formed
    over blocks of _BLOCK rows.  mu is clipped to [PROB_CLIP, 1 - PROB_CLIP],
    so no IRLS weight is small enough for a floor on it to bind.  The
    n-length quantities are formed in place, in buffers allocated once.  The
    tests keep the textbook form of this arithmetic (every quantity
    recomputed each iteration) as the reference a fit matches bit for bit."""
    q, n = XT.shape
    is_one = y == 1.0
    binary = np.array_equal(y, is_one)
    if not binary:
        one_minus_y, t2 = np.subtract(1.0, y), np.empty(n)
    mu, t1 = np.empty(n), np.empty(n)
    XtW = np.empty((q, min(n, _BLOCK)))

    def update(gamma):
        """mu, the deviance and the score at X beta = gamma @ XT."""
        expit(np.matmul(gamma, XT, out=t1), out=mu)
        np.clip(mu, PROB_CLIP, 1.0 - PROB_CLIP, out=mu)
        if binary:   # y log mu + (1 - y) log(1 - mu), term by term: 0 log(.) adds -0.0
            np.subtract(1.0, mu, out=t1)
            np.copyto(t1, mu, where=is_one)
            ll = np.log(t1, out=t1)
        else:
            ll = np.multiply(np.log(mu, out=t1), y, out=t1)
            tail = np.log(np.subtract(1.0, mu, out=t2), out=t2)
            tail *= one_minus_y
            ll += tail
        dev = -2.0 * float(np.sum(ll))
        return dev, XT @ np.subtract(y, mu, out=t1)

    gamma = start
    if gamma is not None:
        dev, score = update(gamma)
    if gamma is None or dev > 2.0 * n * np.log(2.0):   # the zero start's: mu = 1/2
        gamma = np.zeros(q)
        dev, score = update(gamma)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        np.subtract(1.0, mu, out=t1)
        t1 *= mu                                   # irls_w = var = mu (1 - mu)
        gram = np.zeros((q, q))
        for lo in range(0, n, _BLOCK):
            block = slice(lo, min(lo + _BLOCK, n))
            part = np.multiply(XT[:, block], t1[block], out=XtW[:, :block.stop - lo])
            gram += part @ XT[:, block].T
        rhs = gram @ gamma + score
        gram[np.diag_indices(q)] += RIDGE
        try:
            gamma = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            break
        dev_new, score = update(gamma)
        settled = abs(dev - dev_new) < DEV_TOL * (abs(dev_new) + 1.0)
        dev = dev_new
        if settled and np.max(np.abs(score), initial=0.0) <= SCORE_TOL:
            converged = True
            break
    return gamma, dev, converged, n_iter


def fit_constant(response: np.ndarray) -> FittedModel:
    """Degenerate-fit shortcut: a model that predicts the mean exactly."""
    y = np.asarray(response, dtype=float)
    if y.size == 0:
        raise FitError("response has no rows")
    mean = float(np.mean(y))
    return FittedModel(
        coef=np.array([logit(clip_probs(mean))]),
        converged=True,
        deviance=-2.0 * _log_likelihood(y, np.full_like(y, max(mean, 1e-12))),
        constant=mean,
    )


def fit_intercept_fluctuation(
    pseudo_outcome: np.ndarray,
    offset_logit: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, bool]:
    """Solve sum_i w_i (y_i - expit(offset_i + eps)) = 0 for scalar eps.

    This is the targeting update: the returned eps shifts the offset so the
    weighted residual score vanishes.  Newton steps with a bisection fallback
    inside the bracket [-30, 30]; a root beyond it returns the bracket end,
    unconverged.  An end's score is evaluated only when its sign is not
    already clear from the offset's range.  If no weight is positive the
    update is vacuous and eps = 0 is returned with a warning.  A non-finite
    pseudo-outcome, offset or weight is a FitError.  Returns (eps, converged).
    """
    y = np.asarray(pseudo_outcome, dtype=float)
    o = np.asarray(offset_logit, dtype=float)
    w = np.asarray(weights, dtype=float)
    for name, v in (("pseudo-outcome", y), ("offset", o), ("weights", w)):
        if not np.all(np.isfinite(v)):
            raise FitError(f"{name} contains non-finite values")
    pos = w > 0
    if not np.any(pos):
        warnings.warn("fluctuation has no positive weights; update is vacuous")
        return 0.0, True
    if not pos.all():   # by index: a mask of scattered zeros gathers slowly
        rows = np.flatnonzero(pos)
        y, o, w = y.take(rows), o.take(rows), w.take(rows)
    wsum = float(np.sum(w))
    mu, t = np.empty(y.size), np.empty(y.size)

    def score(eps):
        """sum w (y - mu) at eps, leaving mu = expit(o + eps) in ``mu``."""
        expit(np.add(o, eps, out=mu), out=mu)
        np.subtract(y, mu, out=t)
        return float(np.sum(np.multiply(t, w, out=t)))

    # the score is strictly decreasing in eps; cap the root search so a
    # one-sided pseudo-outcome cannot run off to +-inf.  Bounding each
    # expit(o + eps) by its value at the offset's max (min) bounds the score
    # at an end from below (above); a bound past SIGN_MARGIN * wsum, far
    # beyond the score's rounding error, decides that end's sign unevaluated.
    lo, hi = -30.0, 30.0
    wy, margin = float(np.sum(w * y)), SIGN_MARGIN * wsum
    lo_positive = wy - wsum * float(expit(np.max(o) + lo)) > margin
    if not lo_positive and score(lo) <= 0:
        return lo, False
    hi_negative = wy - wsum * float(expit(np.min(o) + hi)) < -margin
    if not hi_negative and score(hi) >= 0:
        return hi, False

    eps = 0.0
    for _ in range(FLUCT_MAX_ITER):
        s = score(eps)
        if s > 0:
            lo = max(lo, eps)
        else:
            hi = min(hi, eps)
        np.multiply(w, mu, out=t)
        t *= np.subtract(1.0, mu, out=mu)
        slope = float(np.sum(t))
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


def remember(starts: dict, key, model: FittedModel) -> FittedModel:
    """Record a converged ``model`` in ``starts[key]``, as the start of the
    next fit on the same rows and columns; returns the model."""
    if model.converged:
        starts[key] = model.coef
    return model


@dataclass
class SelectorFit:
    """Result of the discrete super learner: the refit winner plus the CV report."""

    name: str
    model: FittedModel
    cv_risks: dict = field(default_factory=dict)


def fit_discrete_super_learner(
    candidates: list[tuple[str, object]],
    response: np.ndarray,
    n_folds: int = 10,
    seed: int = 0,
    starts: dict | None = None,
) -> SelectorFit:
    """Discrete super learner over candidate design matrices.

    Each candidate is (name, design) sharing the same response; a design is a
    matrix or a ``Design``.  The member minimizing V-fold cross-validated
    quasi-binomial loss is refit on all data; ties break toward the earliest
    member.  Members that error on every fold get no CV risk; if all members
    fail, raises FitError.  With ``starts``, the fit of member ``name`` on
    fold v (v None for all rows) starts from ``starts[name, v]`` if present,
    and a converged fit is recorded there (see ``remember``).  A matrix is
    prepared once (see ``prepare_design``), and a member whose design cannot
    be prepared, or has not one row per response, fails every fold.  Each
    fold's rows are gathered from the ``Design``, which keeps the fold ids
    and each fold's column groups for the next fit on its rows (see
    ``Design.rows``).
    """
    if not candidates:
        raise FitError("empty learner library")
    y = np.asarray(response, dtype=float)
    n = y.shape[0]
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n < n_folds:
        raise FitError(f"n={n} smaller than number of folds {n_folds}")

    starts = {} if starts is None else starts
    designs: dict[str, Design | None] = {}   # None: every fold fails
    for name, design in candidates:
        try:
            d = design if isinstance(design, Design) else prepare_design(design)
        except FitError:
            d = None
        designs[name] = d if d is not None and d.shape[0] == n else None
    cv_risks: dict[str, float] = {}
    for name, design in designs.items():
        if design is None:
            continue
        # the fold ids, made once for all fits on the design's rows
        fold_ids = design.splits.get((n_folds, seed))
        if fold_ids is None:
            fold_ids = design.splits[n_folds, seed] = cv_fold_ids(n, n_folds, seed)
        X = np.asarray(design)
        total, n_scored, failed_folds = 0.0, 0.0, 0
        for v in range(n_folds):
            # n >= n_folds >= 2: both sides are nonempty
            train, val = np.flatnonzero(fold_ids != v), np.flatnonzero(fold_ids == v)
            try:
                m = remember(starts, (name, v),
                             fit_binary_glm(design.rows(train, (n_folds, seed, v)), y[train],
                                            start=starts.get((name, v))))
                p = m.predict(X[val])
            except (FitError, np.linalg.LinAlgError):
                failed_folds += 1
                continue
            total += -_log_likelihood(y[val], p)
            n_scored += float(val.size)
        if failed_folds < n_folds:
            cv_risks[name] = total / n_scored

    if not cv_risks:
        raise FitError("every library member failed cross-validation")

    best_name, best_risk = None, np.inf
    for name, _ in candidates:
        if name in cv_risks and cv_risks[name] < best_risk:
            best_name, best_risk = name, cv_risks[name]
    key = (best_name, None)
    model = remember(starts, key, fit_binary_glm(designs[best_name], y, start=starts.get(key)))
    return SelectorFit(name=best_name, model=model, cv_risks=cv_risks)
