"""The estimation pass's step functions as they were before the step's
designs, CV folds and interventional factors were shared across arms and
before the fluctuation took the fit's linear predictor, kept verbatim as the
reference the pass is compared with: the fluctuation solver that evaluated
both bracket ends up front, one arm's clever weight re-forming its law's
factors, the weight summary by ``np.percentile``, and the step fit and
marginalization that fluctuate logit(clip(expit(X beta))).  ``install``
routes ``tmle_arm`` through them."""

import warnings

import numpy as np

from dropintmle import engine
from dropintmle.engine import EstimationError, _Denominators, _fit_learner, _z_options
from dropintmle.features import history_design
from dropintmle.interventions import USE_OBSERVED_G, ArmPolicy, gstar_prob1, panel_history
from dropintmle.learners import EPS_TOL, FLUCT_MAX_ITER, FitError, clip_probs, expit, logit
from dropintmle.panel import at_risk_mask


def install(monkeypatch) -> None:
    """Run every ``tmle_arm`` pass through the step functions of this module."""
    monkeypatch.setattr(engine, "_fit_arms", _fit_arms)
    monkeypatch.setattr(engine, "_marginalize", _marginalize)


def fit_intercept_fluctuation(
    pseudo_outcome: np.ndarray,
    offset_logit: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, bool]:
    """Solve sum_i w_i (y_i - expit(offset_i + eps)) = 0 for scalar eps.

    This is the targeting update: the returned eps shifts the offset so the
    weighted residual score vanishes.  Newton steps with a bisection fallback;
    if no weight is positive the update is vacuous and eps = 0 is returned
    with a warning.  A non-finite pseudo-outcome, offset or weight is a
    FitError.  Returns (eps, converged).
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


def _clever_weight(den: _Denominators, policy: ArmPolicy, l: int, weight_cap=None):
    """One arm's clever weight at step l, for every subject:

    H_l = 1{at risk at l} * prod_{j<l} g*_{A_j,Z_j}(obs) / g_{A_j,Z_j}(obs)
        * prod_{m<=l} 1{C_m=0} / g_C_m(0|.),

    truncated at ``weight_cap``.  The visit-l at-risk rows are the ones the
    treatment node l-1 and the censoring node l are used on; absorbed rows
    are cut off by the same mask."""
    panel = den.panel
    cum_treat = 1.0
    for j in range(l):
        treat = (panel.a_at(j) == policy.a_value) / den.g("A", j)
        p1 = gstar_prob1(policy.z_spec, j, *panel_history(panel, j))
        if p1 is not USE_OBSERVED_G:
            treat = treat * np.where(panel.z_at(j) == 1, p1, 1.0 - p1) / den.g("Z", j)
        cum_treat = cum_treat * treat
    h = den.used(l) * cum_treat * den.censoring(l)
    return h if weight_cap is None else np.minimum(h, weight_cap)


def _weight_row(l, h, threshold=50.0):
    """Visit l's weight-tail summary: max, 99th percentile, share above the
    near-violation threshold among positive weights."""
    pos = h[h > 0]
    return {
        "visit": l,
        "max_weight": float(pos.max()) if pos.size else 0.0,
        "p99_weight": float(np.percentile(pos, 99)) if pos.size else 0.0,
        "frac_above": float(np.mean(pos > threshold)) if pos.size else 0.0,
        "n_positive": int(pos.size),
    }


def _fit_arms(arms, panel, l, den, learner, seed, n_folds, weight_cap):
    """Step l of every arm: its outcome regression on the step's shared design,
    fitted once per pseudo-outcome (so once at the horizon) and warm-started
    from the previous arm of its kind (targeted or not); a targeted arm's
    fluctuation weighted by its clever weight, its influence-curve term and score."""
    n = panel.n
    rows = at_risk_mask(panel, l) & (panel.c_at(l) == 0)    # at risk and uncensored at l
    if not rows.any():
        raise EstimationError(f"empty at-risk set at step {l}")
    count = int(rows.sum())
    designs, fits, starts = {}, {}, {}

    def design(name):
        if name not in designs:
            designs[name] = history_design(panel, name, treat_upto=l - 1)[rows]
        return designs[name]

    for arm in arms:
        try:
            y, key = arm.pseudo[rows], id(arm.pseudo)
            if key not in fits:
                try:
                    fits[key] = _fit_learner(learner, design, y, seed + l, n_folds,
                                             starts.setdefault(arm.eic is None, {}))
                except Exception as exc:  # fails every arm that shares the fit
                    fits[key] = exc
            if isinstance(fits[key], Exception):
                raise fits[key]
            arm.model, arm.features = fits[key]
            # formed after the fit, so as not to be held during it
            h = None if arm.eic is None else _clever_weight(den, arm.policy, l, weight_cap)
            if arm.model.constant is not None:
                preds = np.full(count, arm.model.constant)
            else:
                preds = arm.model.predict(design(arm.features))

            # a degenerate response is fitted exactly: its weighted score
            # already vanishes and the update is a no-op
            arm.fluctuate = h is not None and arm.model.constant is None
            arm.eps, ok, score = 0.0, True, 0.0
            if arm.fluctuate:
                offset = logit(clip_probs(preds))
                arm.eps, ok = fit_intercept_fluctuation(y, offset, h[rows])
                offset += arm.eps
                preds = expit(offset, out=offset)
            if h is not None:
                term = (y - preds) * h[rows]
                score = float(np.sum(term) / n)
                arm.eic[rows] += term
                arm.weights.append(_weight_row(l, h))
            arm.steps.append((arm.eps, ok, score, count))
        except Exception as exc:  # fails this arm alone
            arm.failure = exc


def _marginalize(arms, panel, l):
    """Replace every arm's pseudo-outcome by its step-l fit (fluctuated)
    averaged over the visit-(l-1) treatment pair under the arm's laws,
    splicing prior events (value 1) and prior deaths (value 0).  Each
    distinct substituted design is built once and read by every arm that
    needs it."""
    n, j = panel.n, l - 1
    options, uses = {}, {}
    for arm in arms:
        spec = arm.policy.z_spec
        try:
            if id(spec) not in options:
                options[id(spec)] = _z_options(panel, spec, j)
        except Exception as exc:
            arm.failure = exc
            continue
        a_sub = float(arm.policy.a_value)
        for z_sub, z_w in options[id(spec)]:
            feats = None if arm.model.constant is not None else arm.features
            z_key = z_sub if z_sub is None or np.ndim(z_sub) == 0 else ("vector", id(z_sub))
            uses.setdefault((feats, a_sub, z_key), (a_sub, z_sub, []))[2].append((arm, z_w))
        arm.pseudo = np.zeros(n)

    for (feats, _, _), (a_sub, z_sub, users) in uses.items():
        try:
            design = None if feats is None else history_design(
                panel, feats, treat_upto=j, sub_a=a_sub, sub_z=z_sub)
        except Exception as exc:
            for arm, _ in users:
                arm.failure = exc
            continue
        preds = {}       # per model: arms that share a fit (at the horizon) share it
        for arm, z_w in users:
            if arm.failure is not None:
                continue
            try:
                model = arm.model
                if id(model) not in preds:
                    preds[id(model)] = (np.full(n, model.constant) if design is None
                                        else model.predict(design))
                p = preds[id(model)]
                if arm.fluctuate:
                    p = logit(clip_probs(p))
                    p += arm.eps
                    expit(p, out=p)
                arm.pseudo += z_w * p
            except Exception as exc:
                arm.failure = exc
        del design, preds

    if j >= 1:
        y_prev = panel.y_at(j).astype(bool)
        d_prev = panel.d_at(j).astype(bool)
        for arm in arms:
            if arm.failure is None:
                np.copyto(arm.pseudo, 0.0, where=d_prev)
                np.copyto(arm.pseudo, 1.0, where=y_prev)
