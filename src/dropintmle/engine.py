"""Estimation core: nuisance fits, sequential targeted regression, inference.

For one hypothetical arm the estimator runs backwards over visits.  At step l
the current pseudo-outcome (the marginalized continuation value from step
l+1, or the observed horizon status at the top) is regressed on the history
through visit l-1 among subjects still under observation; the fit is then
fluctuated on the logit scale in a weighted intercept-only update whose
weights are cumulative interventional-to-observed density ratios ("clever
weights"); finally the targeted fit is averaged over the visit-(l-1)
treatment pair under the arm's interventional laws -- an exact 2x2 finite
sum since both nodes are binary.  Event and death indicators splice the
recursion: a prior event pins the value at 1, a prior death at 0, and dead
subjects stay in the denominator (absolute-risk, not cause-specific,
semantics).  The run ends with the plug-in mean over baseline covariates,
per-subject influence-curve values, and the solved-score check.

The top step is fitted once per panel (``fit_top_step``) and shared by every
arm and policy: its pseudo-outcome is the observed Y_K, and its rows, design
and fold seed do not depend on the arm either.

Censoring is resolved first within a visit, so subjects censored at l carry
zero weight at step l and drop out of that regression; the censoring ratio
product therefore runs through the current visit.  In censoring-free panels
this coincides with the lagged product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import expit, logit

from .features import history_design, mechanism_design
from .interventions import USE_OBSERVED_G, ArmPolicy, gstar_prob1, panel_history
from .learners import (
    FittedModel,
    clip_probs,
    fit_binary_glm,
    fit_constant,
    fit_discrete_super_learner,
    fit_intercept_fluctuation,
)
from .panel import TrialPanel, at_risk_mask, validate_panel


class EstimationError(RuntimeError):
    """Raised when an estimation run cannot proceed (empty risk sets etc.)."""


# ---------------------------------------------------------------------------
# Observed-data mechanisms


@dataclass
class _Mech:
    """One fitted treatment/censoring mechanism.  ``model`` None means the
    randomized arm is carried forward deterministically (adherence); a
    constant model (the randomized 1/2, a degenerate response) is returned
    exactly.  Only fitted, non-constant models are floored."""

    model: FittedModel | None
    features: str | None = None

    def prob1(self, panel: TrialPanel, node: str, k: int) -> np.ndarray:
        if self.model is None:
            return panel.A0.astype(float)
        if self.model.constant is not None:
            return np.full(panel.n, self.model.constant)
        return self.model.predict(mechanism_design(panel, self.features, node, k))


@dataclass(frozen=True)
class GFit:
    """Fitted observed-data mechanisms for every visit up to the horizon."""

    a_mechs: list
    z_mechs: list
    c_mechs: list                  # index k-1 holds the visit-k censoring mechanism
    g_floor: float

    def floored_prob(self, panel, node, k, used_mask) -> tuple[np.ndarray, int]:
        """Floored probability of the observed A_k / Z_k, or of C_k = 0, full
        length, and how many ``used_mask`` rows hit the floor.  Only fitted,
        non-constant models are floored."""
        mech = self.c_mechs[k - 1] if node == "C" else \
            (self.a_mechs if node == "A" else self.z_mechs)[k]
        p1 = mech.prob1(panel, node, k)
        n_floored = 0
        if mech.model is not None and mech.model.constant is None:
            clipped = np.clip(p1, self.g_floor, 1.0 - self.g_floor)
            n_floored = int(np.sum((clipped != p1) & used_mask))
            p1 = clipped
        if node == "C":
            return 1.0 - p1, n_floored
        obs = (panel.a_at(k) if node == "A" else panel.z_at(k)).astype(float)
        return np.where(obs == 1.0, p1, 1.0 - p1), n_floored


def _fit_learner(learner, design, y, seed, n_folds):
    """The one learner dispatch: a constant fit for a degenerate response, the
    single learner (a feature-map name), or the discrete super learner over a
    library (a list of names).  ``design(name)`` builds a member's design.
    Returns (model, features)."""
    if np.all(y == y[0]):
        return fit_constant(y), None
    if isinstance(learner, str):
        return fit_binary_glm(design(learner), y), learner
    sel = fit_discrete_super_learner([(nm, design(nm)) for nm in learner], y,
                                     n_folds=n_folds, seed=seed)
    return sel.model, sel.name


def _fit_mech(panel, node, k, mask, learner, seed, n_folds) -> _Mech:
    y = {"A": panel.a_at, "Z": panel.z_at, "C": panel.c_at}[node](k)[mask].astype(float)
    return _Mech(*_fit_learner(
        learner, lambda f: mechanism_design(panel, f, node, k)[mask], y, seed, n_folds))


def check_options(g_floor: float = 1e-3, weight_cap: float | None = None) -> None:
    """Raise ValueError unless the g floor lies in [0, 0.5) and the weight cap
    is None or a finite number above 0."""
    if not 0 <= g_floor < 0.5:
        raise ValueError(f"g floor {g_floor} is outside [0, 0.5)")
    if weight_cap is not None and not (np.isfinite(weight_cap) and weight_cap > 0):
        raise ValueError(f"weight cap {weight_cap} is not a finite number above 0")


def fit_g(panel: TrialPanel, learner: str | list[str] = "running_avg",
          g_floor: float = 1e-3, randomized: bool = True, seed: int = 0,
          n_folds: int = 10) -> GFit:
    """Fit the treatment and censoring mechanisms per visit, on a panel that
    passes ``validate_panel`` (which raises DataError otherwise).

    Shortcuts: the baseline randomized assignment is the known constant 1/2
    under ``randomized``; a post-baseline randomized-treatment column equal
    to the arm for every observed subject is treated as deterministic
    adherence; constant responses (e.g. no censoring anywhere) fit to the
    empirical constant.  Everything else is a logistic fit on at-risk rows
    with ``learner``: a feature-map name, or a list of them for the discrete
    super learner.
    """
    check_options(g_floor=g_floor)
    validate_panel(panel)
    K = panel.K
    a_mechs, z_mechs, c_mechs = [], [], []
    for k in range(K):
        mask = at_risk_mask(panel, k + 1)   # at risk after the visit-k status block
        if not mask.any():
            raise EstimationError(f"no at-risk subjects carry treatment at visit {k}")
        if k == 0 and randomized:
            a_mechs.append(_Mech(fit_constant(np.full(1, 0.5))))
        else:
            a_obs = panel.a_at(k)[mask]
            if k >= 1 and np.array_equal(a_obs, panel.A0[mask]):
                a_mechs.append(_Mech(None))
            else:
                a_mechs.append(_fit_mech(panel, "A", k, mask, learner, seed, n_folds))
        z_mechs.append(_fit_mech(panel, "Z", k, mask, learner, seed, n_folds))

    for k in range(1, K + 1):
        mask = at_risk_mask(panel, k)
        if not mask.any():
            raise EstimationError(f"empty at-risk set at visit {k}")
        c_mechs.append(_fit_mech(panel, "C", k, mask, learner, seed, n_folds))

    return GFit(a_mechs=a_mechs, z_mechs=z_mechs, c_mechs=c_mechs, g_floor=g_floor)


# ---------------------------------------------------------------------------
# Clever weights


def clever_weight_path(panel, gfit: GFit, policy: ArmPolicy, horizon: int, weight_cap=None):
    """Clever weights for steps 1..horizon, shape (horizon, n), and the number
    of used probabilities that hit the g floor, per node (e.g. ``"Z1"``).

    H_l = 1{no event/death before l} * prod_{j<=l} 1{C_j=0}/g_C_j(0|.)
        * prod_{j<l} g*_{A_j,Z_j}(obs)/g_{A_j,Z_j}(obs).
    The visit-l at-risk rows are the ones the treatment node l-1 and the
    censoring node l are used on; absorbed rows are cut off by the same mask.
    """
    n = panel.n
    floored = {}

    def g(node, k, used):
        prob, n_floored = gfit.floored_prob(panel, node, k, used)
        if n_floored:
            floored[f"{node}{k}"] = n_floored
        return prob

    H = np.zeros((horizon, n))
    cum_treat = np.ones(n)
    cum_cens = np.ones(n)
    for l in range(1, horizon + 1):
        j = l - 1
        used = at_risk_mask(panel, l)
        treat = np.ones(n)
        if policy.a_value is not None:
            treat = treat * (panel.a_at(j) == policy.a_value).astype(float) / g("A", j, used)
        p1 = gstar_prob1(policy.z_spec, j, *panel_history(panel, j))
        if p1 is not USE_OBSERVED_G:
            treat = treat * np.where(panel.z_at(j) == 1, p1, 1.0 - p1) / g("Z", j, used)
        uncens = (panel.c_at(l) == 0).astype(float)
        cum_treat = cum_treat * treat                       # treatment nodes through l-1
        cum_cens = cum_cens * (uncens / g("C", l, used))    # censoring through l
        H[l - 1] = used * cum_treat * cum_cens
    if weight_cap is not None:
        H = np.minimum(H, weight_cap)
    return H, floored


def _weight_summary(H, threshold=50.0):
    """Per-visit weight-tail summary: max, 99th percentile, share above the
    near-violation threshold among positive weights."""
    rows = []
    for l, h in enumerate(H, start=1):
        pos = h[h > 0]
        rows.append({
            "visit": l,
            "max_weight": float(pos.max()) if pos.size else 0.0,
            "p99_weight": float(np.percentile(pos, 99)) if pos.size else 0.0,
            "frac_above": float(np.mean(pos > threshold)) if pos.size else 0.0,
            "n_positive": int(pos.size),
        })
    return rows


def support_diagnostics(panel, gfit, policy, horizon=None, threshold=50.0,
                        weight_cap=None):
    """Per-visit weight-tail summary of the clever-weight path."""
    horizon = panel.K if horizon is None else horizon
    return _weight_summary(clever_weight_path(panel, gfit, policy, horizon, weight_cap)[0],
                           threshold)


# ---------------------------------------------------------------------------
# Sequential targeted estimation


@dataclass
class ArmEstimate:
    """One arm's estimate: plug-in mean, influence-curve values, diagnostics."""

    psi: float
    eic: np.ndarray | None
    targeted: bool
    horizon: int
    n: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def mean_eic(self) -> float:
        return float(np.mean(self.eic)) if self.eic is not None else float("nan")


def _z_options(panel, spec, j):
    """Integration support for the visit-j concomitant node under ``spec``: a
    list of (substitution, weight) where the substitution is None (keep the
    observed column), a scalar, or a per-subject vector, and the weight is a
    scalar or vector of interventional probabilities.  A degenerate law
    (static, dynamic) substitutes its value.
    """
    p1 = gstar_prob1(spec, j, *panel_history(panel, j))
    if p1 is USE_OBSERVED_G:
        return [(None, 1.0)]
    if spec.form == "stochastic":
        return [(0.0, 1.0 - p1), (1.0, p1)]
    return [(p1, 1.0)]


def _predict_step(panel, model, features, l, sub_a=None, sub_z=None):
    if model.constant is not None:
        return np.full(panel.n, model.constant)
    design = history_design(panel, features, treat_upto=l - 1,
                            sub_a=sub_a, sub_z=sub_z)
    return model.predict(design)


def _fit_step(panel, learner, pseudo, l, seed, n_folds):
    """Step-l outcome regression on the observed, uncensored at-risk rows.
    Returns (rows, model, features)."""
    rows = at_risk_mask(panel, l) & (panel.c_at(l) == 0)
    if not rows.any():
        raise EstimationError(f"empty at-risk set at step {l}")
    model, feats = _fit_learner(
        learner, lambda f: history_design(panel, f, treat_upto=l - 1)[rows],
        pseudo[rows], seed + l, n_folds)
    return rows, model, feats


@dataclass(frozen=True)
class TopStep:
    """The step-``horizon`` outcome regression fitted on ``panel``: its rows,
    model and chosen features, the settings of every step of an arm, and a
    memo of pre-fluctuation predictions keyed by the substituted (a, z) values."""

    panel: TrialPanel
    rows: np.ndarray
    model: FittedModel
    features: str | None
    horizon: int
    learner: str | list[str]
    seed: int
    n_folds: int
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def predict(self, sub_a=None, sub_z=None) -> np.ndarray:
        """Read-only prediction, computed once per substitution."""
        key = tuple(None if s is None else np.asarray(s, dtype=float).tobytes()
                    for s in (sub_a, sub_z))
        if key not in self.memo:
            p = _predict_step(self.panel, self.model, self.features, self.horizon,
                              sub_a, sub_z)
            p.flags.writeable = False
            self.memo[key] = p
        return self.memo[key]


def fit_top_step(panel, learner="running_avg", horizon=None, seed=0,
                 n_folds=10) -> TopStep:
    """Fit the horizon step of ``panel`` once; every ``tmle_arm`` call on the
    panel shares it and takes its learner, horizon, seed and n_folds."""
    horizon = panel.K if horizon is None else horizon
    if not 1 <= horizon <= panel.K:
        raise ValueError(f"horizon must lie in 1..{panel.K}")
    rows, model, feats = _fit_step(panel, learner, panel.y_at(horizon).astype(float),
                                   horizon, seed, n_folds)
    return TopStep(panel, rows, model, feats, horizon, learner, seed, n_folds)


def tmle_arm(gfit: GFit, policy: ArmPolicy, top: TopStep, *, targeted: bool = True,
             weight_cap: float | None = None) -> ArmEstimate:
    """Targeted (or plain sequential-regression) estimate for one arm on
    ``top.panel``, with every step fitted like ``top``.

    With ``targeted`` False the fluctuation steps are skipped, giving the
    non-targeted g-computation estimator; no influence-curve values or
    variance are attached in that case.
    """
    check_options(weight_cap=weight_cap)
    panel, horizon, n = top.panel, top.horizon, top.panel.n

    H, floored = (clever_weight_path(panel, gfit, policy, horizon, weight_cap) if targeted
                  else (None, {}))
    a_sub = None if policy.a_value is None else float(policy.a_value)

    pseudo = panel.y_at(horizon).astype(float)
    eic = np.zeros(n) if targeted else None
    epsilons, fluct_ok, step_scores, at_risk_counts = [], [], [], []

    for l in range(horizon, 0, -1):
        if l == horizon:
            obs_mask, model, predict = top.rows, top.model, top.predict
        else:
            obs_mask, model, feats = _fit_step(panel, top.learner, pseudo, l, top.seed, top.n_folds)
            predict = partial(_predict_step, panel, model, feats, l)
        at_risk_counts.append(int(obs_mask.sum()))
        preds = predict()

        # a degenerate response is fitted exactly: its weighted score already
        # vanishes and the update is a no-op
        fluctuate = targeted and model.constant is None
        eps, ok, score = 0.0, True, 0.0
        if fluctuate:
            offset = logit(clip_probs(preds))
            eps, ok = fit_intercept_fluctuation(pseudo[obs_mask], offset[obs_mask],
                                                H[l - 1][obs_mask])
            preds = expit(offset + eps)
        if targeted:
            h = H[l - 1]
            score = float(np.sum(h[obs_mask] * (pseudo[obs_mask] - preds[obs_mask])) / n)
            eic += np.where(obs_mask, h * (pseudo - preds), 0.0)
        epsilons.append(eps)
        fluct_ok.append(ok)
        step_scores.append(score)

        # marginalize the visit-(l-1) treatment pair under the arm's laws,
        # splicing prior events (value 1) and prior deaths (value 0)
        marg = np.zeros(n)
        for z_sub, z_w in _z_options(panel, policy.z_spec, l - 1):
            p = predict(a_sub, z_sub)
            if fluctuate:
                p = expit(logit(clip_probs(p)) + eps)
            marg = marg + z_w * p

        if l - 1 >= 1:
            y_prev = panel.y_at(l - 1).astype(bool)
            d_prev = panel.d_at(l - 1).astype(bool)
            nxt = np.where(y_prev, 1.0, np.where(d_prev, 0.0, marg))
        else:
            nxt = marg
        pseudo = nxt

    psi = float(np.mean(pseudo))
    if targeted:
        eic += pseudo - psi
    diagnostics = {
        "epsilons": epsilons[::-1],
        "fluct_converged": bool(all(fluct_ok)),
        "step_scores": step_scores[::-1],
        "at_risk_counts": at_risk_counts[::-1],
        "floored_counts": floored,
        "mean_eic": float(np.mean(eic)) if eic is not None else None,
    }
    if targeted:
        diagnostics["weights"] = _weight_summary(H)
        if abs(diagnostics["mean_eic"]) > 1e-6:
            warnings.warn(f"influence-curve equation poorly solved: "
                          f"mean={diagnostics['mean_eic']:.3e}")
    return ArmEstimate(psi=psi, eic=eic, targeted=targeted, horizon=horizon,
                       n=n, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Contrasts and reports


@dataclass
class EstimateReport:
    """Risk-difference report for one balancing intervention."""

    policy: str
    horizon: int
    n: int
    risk1: float
    risk0: float
    psi: float
    se: float | None
    ci_low: float | None
    ci_high: float | None
    targeted: bool
    diagnostics: dict = field(default_factory=dict)


def contrast(active: ArmEstimate, control: ArmEstimate, policy: str = "") -> EstimateReport:
    """Risk difference between the hypothetical active and control arms, with
    influence-curve variance when both arms are targeted."""
    if active.horizon != control.horizon:
        raise ValueError("arms estimated at different horizons")
    psi = active.psi - control.psi
    se = ci_low = ci_high = None
    if active.eic is not None and control.eic is not None:
        if active.eic.shape != control.eic.shape:
            raise ValueError("arms estimated on different subject sets")
        diff = active.eic - control.eic
        se = float(np.std(diff, ddof=1) / np.sqrt(diff.shape[0]))
        ci_low, ci_high = psi - 1.96 * se, psi + 1.96 * se
    n = active.n
    diag = {
        "arm1": {k: v for k, v in active.diagnostics.items() if k != "weights"},
        "arm0": {k: v for k, v in control.diagnostics.items() if k != "weights"},
        "weights1": active.diagnostics.get("weights"),
        "weights0": control.diagnostics.get("weights"),
    }
    return EstimateReport(policy=policy, horizon=active.horizon, n=n,
                          risk1=active.psi, risk0=control.psi, psi=psi, se=se,
                          ci_low=ci_low, ci_high=ci_high,
                          targeted=active.targeted and control.targeted,
                          diagnostics=diag)
