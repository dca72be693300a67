"""Estimation core: nuisance fits, sequential targeted regression, inference.

A hypothetical arm sets the randomized treatment to 0 or 1 (an ``ArmPolicy``
with ``a_value`` 0 or 1) and intervenes on concomitant treatment; the
estimator takes no other arm.  For one arm the estimator runs backwards over
visits.  At step l the current pseudo-outcome (the marginalized continuation
value from step l+1, or the observed horizon status at the top) is regressed
on the history through visit l-1 among subjects still under observation; the
fit is then fluctuated on the logit scale in a weighted intercept-only update
whose weights are cumulative interventional-to-observed density ratios
("clever weights"); finally the targeted fit is averaged over the visit-(l-1)
treatment pair under the arm's interventional laws -- an exact 2x2 finite sum
since both nodes are binary.  Event and death indicators splice the
recursion: a prior event pins the value at 1, a prior death at 0, and dead
subjects stay in the denominator (absolute-risk, not cause-specific,
semantics).  The run ends with the plug-in mean over baseline covariates,
per-subject influence-curve values, and the solved-score check.

The top step is fitted once per panel (``fit_top_step``) and shared by every
arm and policy: its pseudo-outcome is the observed Y_K, and its rows, design
and fold seed do not depend on the arm either.

``tmle_arm`` runs every arm it is given in one pass, step by step.  At each
step the regression rows and design are built once and every arm fits its
own pseudo-outcome on them, each fit starting from the previous arm's
converged fit on the same rows and columns (arms are passed in policy order,
active before control); the design is then freed, and each distinct
substituted (a, z) design is built once for the arms that marginalize over
it.  The weight denominators are computed once per pass, and an arm's
clever weight is formed at its step, so no arm holds its whole weight path.
The warm starts make an arm's numbers depend, below 1e-9, on the arms fitted
before it; without them (or for one arm) each arm's numbers are those of a
pass over that arm alone.

Censoring is resolved first within a visit, so subjects censored at l carry
zero weight at step l and drop out of that regression; the censoring ratio
product therefore runs through the current visit.  In censoring-free panels
this coincides with the lagged product.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .features import history_design, mechanism_design
from .interventions import USE_OBSERVED_G, ArmPolicy, gstar_prob1, panel_history
from .learners import (
    FittedModel,
    clip_probs,
    expit,
    fit_binary_glm,
    fit_constant,
    fit_discrete_super_learner,
    fit_intercept_fluctuation,
    logit,
    remember,
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


def _fit_learner(learner, design, y, seed, n_folds, starts=None):
    """The one learner dispatch: a constant fit for a degenerate response, the
    single learner (a feature-map name), or the discrete super learner over a
    library (a list of names).  ``design(name)`` builds a member's design, and
    ``starts`` warm-starts the fits (see ``fit_discrete_super_learner``).
    Returns (model, features)."""
    if np.all(y == y[0]):
        return fit_constant(y), None
    if isinstance(learner, str):
        starts = {} if starts is None else starts
        key = (learner, None)
        return remember(starts, key, fit_binary_glm(design(learner), y,
                                                    start=starts.get(key))), learner
    sel = fit_discrete_super_learner([(nm, design(nm)) for nm in learner], y,
                                     n_folds=n_folds, seed=seed, starts=starts)
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


def _compact(v):
    """``v``, or its one value when every subject has the same one: a
    constant factor multiplies and divides exactly as its full vector."""
    return v[0] if np.ndim(v) and v.size and np.all(v == v[0]) else v


class _Denominators:
    """The arm-free parts of a panel's clever weights, each computed once and
    on first use: the floored probability g of the observed A_j / Z_j, the
    censoring ratio product prod_{m<=l} 1{C_m=0} / g_C_m(0|.), and how many
    used probabilities hit the g floor, per node (e.g. ``"Z1"``)."""

    def __init__(self, panel: TrialPanel, gfit: GFit):
        self.panel, self.gfit = panel, gfit
        self.probs: dict[str, object] = {}
        self.floored: dict[str, int] = {}
        self.cens: list = [1.0]       # cens[l]: the censoring product through visit l
        self.at_risk = {}             # visit l -> at_risk_mask(panel, l)

    def used(self, l: int) -> np.ndarray:
        """The rows at risk at visit l, which nodes l-1 and C_l are used on."""
        if l not in self.at_risk:
            self.at_risk[l] = at_risk_mask(self.panel, l)
        return self.at_risk[l]

    def g(self, node: str, k: int):
        key = f"{node}{k}"
        if key not in self.probs:
            used = self.used(k if node == "C" else k + 1)
            prob, self.floored[key] = self.gfit.floored_prob(self.panel, node, k, used)
            self.probs[key] = _compact(prob)
        return self.probs[key]

    def censoring(self, l: int):
        while len(self.cens) <= l:
            m = len(self.cens)
            uncens = (self.panel.c_at(m) == 0).astype(float)
            self.cens.append(_compact(self.cens[-1] * (uncens / self.g("C", m))))
        return self.cens[l]

    def release(self, l: int) -> None:
        """Drop what only step l and later steps read: a backward pass is past them."""
        for key in (f"A{l - 1}", f"Z{l - 1}", f"C{l}"):
            self.probs.pop(key, None)
        if l < len(self.cens):
            self.cens[l] = None

    def floored_counts(self, policy: ArmPolicy, horizon: int) -> dict:
        """The nodes an arm uses through ``horizon`` that hit the floor, with
        their counts, in visit order."""
        keys = []
        for l in range(1, horizon + 1):
            keys.append(f"A{l - 1}")
            if policy.z_spec.intervenes_at(l - 1):
                keys.append(f"Z{l - 1}")
            keys.append(f"C{l}")
        return {key: self.floored[key] for key in keys if self.floored.get(key)}


def _clever_weight(panel, den: _Denominators, policy: ArmPolicy, l: int, weight_cap=None):
    """One arm's clever weight at step l, for every subject:

    H_l = 1{at risk at l} * prod_{j<l} g*_{A_j,Z_j}(obs) / g_{A_j,Z_j}(obs)
        * prod_{m<=l} 1{C_m=0} / g_C_m(0|.),

    truncated at ``weight_cap``.  The visit-l at-risk rows are the ones the
    treatment node l-1 and the censoring node l are used on; absorbed rows
    are cut off by the same mask."""
    cum_treat = 1.0
    for j in range(l):
        treat = (panel.a_at(j) == policy.a_value) / den.g("A", j)
        p1 = gstar_prob1(policy.z_spec, j, *panel_history(panel, j))
        if p1 is not USE_OBSERVED_G:
            treat = treat * np.where(panel.z_at(j) == 1, p1, 1.0 - p1) / den.g("Z", j)
        cum_treat = cum_treat * treat
    h = den.used(l) * cum_treat * den.censoring(l)
    return h if weight_cap is None else np.minimum(h, weight_cap)


def _check_arms(policies) -> None:
    """Refuse an arm whose randomized treatment is not set to 0 or 1."""
    bad = [p.a_value for p in policies if p.a_value not in (0, 1)]
    if bad:
        raise ValueError(f"a_value {bad} is not 0 or 1: the estimator takes randomized arms only")


def clever_weight_path(panel, gfit: GFit, policy: ArmPolicy, horizon: int, weight_cap=None):
    """Clever weights for steps 1..horizon, shape (horizon, n) (see
    ``_clever_weight``), and the number of used probabilities that hit the g
    floor, per node (e.g. ``"Z1"``).  The arm's ``a_value`` must be 0 or 1."""
    _check_arms([policy])
    den = _Denominators(panel, gfit)
    H = np.array([_clever_weight(panel, den, policy, l, weight_cap)
                  for l in range(1, horizon + 1)])
    return H, den.floored_counts(policy, horizon)


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


def support_diagnostics(panel, gfit, policy, horizon=None, threshold=50.0,
                        weight_cap=None):
    """Per-visit weight-tail summary of the clever-weight path."""
    horizon = panel.K if horizon is None else horizon
    H = clever_weight_path(panel, gfit, policy, horizon, weight_cap)[0]
    return [_weight_row(l, h, threshold) for l, h in enumerate(H, start=1)]


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


@dataclass(frozen=True)
class TopStep:
    """The step-``horizon`` outcome regression fitted on ``panel``: its rows,
    model and chosen features, and the settings of every step of an arm."""

    panel: TrialPanel
    rows: np.ndarray
    model: FittedModel
    features: str | None
    horizon: int
    learner: str | list[str]
    seed: int
    n_folds: int


def _step_rows(panel, l):
    """The rows of the step-l regression: at risk at l and uncensored at l."""
    rows = at_risk_mask(panel, l) & (panel.c_at(l) == 0)
    if not rows.any():
        raise EstimationError(f"empty at-risk set at step {l}")
    return rows


def fit_top_step(panel, learner="running_avg", horizon=None, seed=0,
                 n_folds=10) -> TopStep:
    """Fit the horizon step of ``panel`` once; every ``tmle_arm`` call on the
    panel shares it and takes its learner, horizon, seed and n_folds."""
    horizon = panel.K if horizon is None else horizon
    if not 1 <= horizon <= panel.K:
        raise ValueError(f"horizon must lie in 1..{panel.K}")
    rows = _step_rows(panel, horizon)
    model, feats = _fit_learner(
        learner, lambda f: history_design(panel, f, treat_upto=horizon - 1)[rows],
        panel.y_at(horizon).astype(float)[rows], seed + horizon, n_folds)
    return TopStep(panel, rows, model, feats, horizon, learner, seed, n_folds)


@dataclass
class _Arm:
    """One arm's running state in a pass: its pseudo-outcome, influence-curve
    values and diagnostics, this step's fit and fluctuation, or its failure."""

    policy: ArmPolicy
    pseudo: np.ndarray
    eic: np.ndarray | None
    failure: Exception | None = None
    model: FittedModel | None = None
    features: str | None = None
    eps: float = 0.0
    fluctuate: bool = False
    steps: list = field(default_factory=list)     # (eps, converged, score, rows), last step first
    weights: list = field(default_factory=list)
    floored: dict = field(default_factory=dict)


def _fit_arms(arms, top, l, den, weight_cap):
    """Step l of every arm: its outcome regression on the step's shared
    design (the top step's own fit at the horizon), warm-started from the
    previous arm's fit; the fluctuation weighted by its clever weight; and
    its influence-curve term and score."""
    panel, n = top.panel, top.panel.n
    if l == top.horizon:
        rows = top.rows
    else:
        rows = _step_rows(panel, l)
    count = int(rows.sum())
    designs = {}

    def design(name):
        if name not in designs:
            designs[name] = history_design(panel, name, treat_upto=l - 1)[rows]
        return designs[name]

    starts = {}
    for arm in arms:
        try:
            y = arm.pseudo[rows]
            if l == top.horizon:
                arm.model, arm.features = top.model, top.features
            else:
                arm.model, arm.features = _fit_learner(top.learner, design, y, top.seed + l,
                                                       top.n_folds, starts)
            # formed after the fit, so as not to be held during it; the
            # horizon step has read every node that it reads
            h = None if den is None else _clever_weight(panel, den, arm.policy, l, weight_cap)
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
                if l == top.horizon:
                    arm.floored = den.floored_counts(arm.policy, l)
            arm.steps.append((arm.eps, ok, score, count))
        except Exception as exc:  # fails this arm alone
            arm.failure = exc


def _marginalize(arms, top, l):
    """Replace every arm's pseudo-outcome by its step-l fit (fluctuated)
    averaged over the visit-(l-1) treatment pair under the arm's laws,
    splicing prior events (value 1) and prior deaths (value 0).  Each
    distinct substituted design is built once and read by every arm that
    needs it."""
    panel, n, j = top.panel, top.panel.n, l - 1
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
        preds = {}       # per model: arms of one policy share the top step's
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


def _run_phase(phase, arms, *args) -> None:
    """Run one phase of a step on the arms that have not failed; an exception
    it raises (a step no arm can pass, e.g. an empty risk set) fails them all."""
    live = [arm for arm in arms if arm.failure is None]
    try:
        phase(live, *args)
    except Exception as exc:
        for arm in live:
            arm.failure = exc


def _finish(arm: _Arm, top: TopStep, targeted: bool) -> ArmEstimate:
    psi = float(np.mean(arm.pseudo))
    eic = arm.eic
    if targeted:
        eic += arm.pseudo - psi
    epsilons, fluct_ok, step_scores, at_risk_counts = (list(v) for v in zip(*arm.steps[::-1]))
    diagnostics = {
        "epsilons": epsilons,
        "fluct_converged": bool(all(fluct_ok)),
        "step_scores": step_scores,
        "at_risk_counts": at_risk_counts,
        "floored_counts": arm.floored,
        "mean_eic": float(np.mean(eic)) if eic is not None else None,
    }
    if targeted:
        diagnostics["weights"] = arm.weights[::-1]
        if abs(diagnostics["mean_eic"]) > 1e-6:
            warnings.warn(f"influence-curve equation poorly solved: "
                          f"mean={diagnostics['mean_eic']:.3e}")
    return ArmEstimate(psi=psi, eic=eic, targeted=targeted, horizon=top.horizon,
                       n=top.panel.n, diagnostics=diagnostics)


def tmle_arm(gfit: GFit, policy: ArmPolicy | Sequence[ArmPolicy], top: TopStep, *,
             targeted: bool = True, weight_cap: float | None = None):
    """Targeted (or plain sequential-regression) estimate of one arm, or of a
    sequence of arms, on ``top.panel``, with every step fitted like ``top``.

    Every arm runs in one pass backwards over the steps: each step's design
    and each distinct substituted design are built once for all arms, the
    weight denominators once per pass, and each step's fit starts from the
    previous arm's fit on the same rows and columns.  One arm gives its
    ArmEstimate (or raises); a sequence gives a list holding each arm's
    ArmEstimate or the exception that failed that arm alone.  An arm whose
    ``a_value`` is not 0 or 1 raises ValueError before any step.

    With ``targeted`` False the fluctuation steps are skipped, giving the
    non-targeted g-computation estimator; no influence-curve values or
    variance are attached in that case.
    """
    check_options(weight_cap=weight_cap)
    single = isinstance(policy, ArmPolicy)
    policies = [policy] if single else list(policy)
    _check_arms(policies)
    panel, horizon = top.panel, top.horizon
    y_top = panel.y_at(horizon).astype(float)    # every arm's pseudo-outcome at the top
    arms = [_Arm(pol, y_top, np.zeros(panel.n) if targeted else None) for pol in policies]
    del y_top
    den = _Denominators(panel, gfit) if targeted else None
    for l in range(horizon, 0, -1):
        _run_phase(_fit_arms, arms, top, l, den, weight_cap)
        _run_phase(_marginalize, arms, top, l)
        if den is not None:
            den.release(l)
    results = [arm.failure if arm.failure is not None else _finish(arm, top, targeted)
               for arm in arms]
    return arm_estimate(results[0]) if single else results


def arm_estimate(result) -> ArmEstimate:
    """A result of ``tmle_arm``'s pass as an ArmEstimate, raising the
    exception that failed the arm."""
    if isinstance(result, Exception):
        raise result
    return result


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
