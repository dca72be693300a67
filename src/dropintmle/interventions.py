"""Hypothetical treatment and censoring mechanisms.

An intervention replaces the conditional law of a treatment node.  Forms:

  static        degenerate at a fixed value at every visit
  dynamic       degenerate at the subject's baseline concomitant status
  stochastic    a fitted conditional law depending only on the previous
                concomitant status and baseline covariates (the balancing
                intervention: decisions made as for an average trial
                participant with the same baseline profile and usage history)
  observational the node is left alone (its observed-data law is kept)

Censoring is always intervened to "remain under observation".  An arm policy
bundles the randomized-arm assignment with one concomitant-treatment form;
the same form applies at every visit.

The policy catalogue lives here: ``POLICY_NAMES`` names the five balancing
interventions of the study, ``policy_specs`` builds the requested ones by
name, ``policy_arms`` gives each one's active and control arms, always in
``POLICY_NAMES`` order, and ``policy_pairs`` pairs per-arm results back up.
The harness, ``cli estimate``, ``cli oracle`` and the one-pass oracle all
take their policies from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .features import gstar_columns
from .learners import FittedModel, clip_probs, fit_binary_glm, fit_constant
from .panel import SettingError, TrialPanel, at_risk_mask

Z_FORMS = ("static", "dynamic", "stochastic", "observational")

#: the balancing interventions contrasted in the study, in the order in which
#: one estimation pass chains its warm starts
POLICY_NAMES = ("static0", "static1", "dynamic", "stochastic", "ignore")

#: sentinel returned by gstar_prob1 for nodes left alone ("use fitted g")
USE_OBSERVED_G = None


@dataclass(frozen=True)
class InterventionSpec:
    """The hypothetical mechanism of the concomitant-treatment node: its
    form, the static value, and the stochastic form's fitted laws."""

    form: str
    value: int | None = None
    models: tuple[FittedModel, ...] = field(default=())

    def __post_init__(self):
        if self.form not in Z_FORMS:
            raise ValueError(f"unknown form '{self.form}'")
        if self.form == "static" and self.value not in (0, 1):
            raise ValueError("static form needs value 0 or 1")
        if self.form == "stochastic" and not self.models:
            raise ValueError("stochastic form needs its fitted laws (models)")

    def intervenes_at(self, k: int) -> bool:
        """Whether the visit-k node is replaced under this spec.  The
        observational form replaces none; the dynamic form, whose rule is
        the observed baseline status, leaves the visit-0 node alone."""
        if self.form == "observational":
            return False
        return k > 0 or self.form != "dynamic"


def static_z(value: int) -> InterventionSpec:
    return InterventionSpec(form="static", value=value)


def dynamic_z() -> InterventionSpec:
    return InterventionSpec(form="dynamic")


def observational_z() -> InterventionSpec:
    return InterventionSpec(form="observational")


@dataclass(frozen=True)
class ArmPolicy:
    """One hypothetical arm: static randomized-treatment assignment (0 or 1)
    plus a concomitant-treatment form.  Only the simulator's natural-course
    oracle (``simulate_counterfactual_mean``) takes ``a_value`` None, which
    draws the randomized arm as the trial does; the estimator refuses it.
    Censoring is always intervened to "remain under observation"."""

    a_value: int | None
    z_spec: InterventionSpec


def gstar_prob1(spec: InterventionSpec, k: int, l0=None, z_prev=None, z0=None):
    """Interventional probability that the visit-k concomitant node is 1.

    The single evaluator of every intervention form: the fixed value (a
    float) for static, the baseline status ``z0`` for dynamic, and the fitted
    law at baseline covariates ``l0`` (rows, see ``gstar_columns``) and
    previous status ``z_prev``, clipped to [PROB_CLIP, 1 - PROB_CLIP], for
    stochastic.  Returns USE_OBSERVED_G when the node is not intervened.
    """
    if not spec.intervenes_at(k):
        return USE_OBSERVED_G
    if spec.form == "static":
        return float(spec.value)
    if spec.form == "dynamic":
        if z0 is None:
            raise ValueError("dynamic form needs the baseline status z0")
        return np.asarray(z0, dtype=float)
    if k >= len(spec.models):
        raise ValueError(f"stochastic intervention has no law for visit {k}")
    return clip_probs(spec.models[k].predict(gstar_columns(l0, k, z_prev)))


def panel_history(panel: TrialPanel, k: int) -> tuple:
    """The history arguments (l0, z_prev, z0) of ``gstar_prob1`` for every
    subject of a panel at visit k."""
    return panel.L0, (panel.z_at(k - 1) if k >= 1 else None), panel.Z0


def fit_stochastic_gstar(panel: TrialPanel, upto: int | None = None) -> InterventionSpec:
    """Fit the balancing intervention from a panel.

    For each visit k the concomitant status is regressed on the previous
    status and baseline covariates among at-risk subjects, pooled over both
    randomization arms.  Visit 0 regresses on baseline covariates alone.
    A visit with no variation in the response falls back to the empirical
    constant with a warning.
    """
    K = panel.K if upto is None else upto
    models = []
    for k in range(K):
        # response Z_k is observed for subjects still at risk after the
        # visit-k status block
        mask = at_risk_mask(panel, k + 1)
        if not mask.any():
            raise ValueError(f"no at-risk subjects at visit {k}")
        y = panel.z_at(k)[mask].astype(float)
        if np.all(y == y[0]):
            warnings.warn(f"concomitant status constant at visit {k}; degenerate fit")
            models.append(fit_constant(y))
            continue
        z_prev = panel.z_at(k - 1)[mask] if k >= 1 else None
        models.append(fit_binary_glm(gstar_columns(panel.L0[mask], k, z_prev), y))
    return InterventionSpec(form="stochastic", models=tuple(models))


def check_policy_names(names) -> list[str]:
    """``names`` as a list; SettingError if it is empty or names a policy
    outside POLICY_NAMES."""
    names = list(names)
    bad = [p for p in names if p not in POLICY_NAMES]
    if bad or not names:
        problem = f"unknown policies {bad}" if bad else "no policies given"
        raise SettingError(f"{problem}; choose from {list(POLICY_NAMES)}")
    return names


def policy_specs(names, fit_stochastic) -> dict[str, InterventionSpec]:
    """Each policy of ``names`` (see ``check_policy_names``) once, by name, in
    POLICY_NAMES order.  The stochastic law is ``fit_stochastic()``, called
    only when it is requested."""
    chosen = set(check_policy_names(names))
    specs = {"static0": static_z(0), "static1": static_z(1), "dynamic": dynamic_z(),
             "stochastic": fit_stochastic() if "stochastic" in chosen else None,
             "ignore": observational_z()}
    return {name: specs[name] for name in POLICY_NAMES if name in chosen}


def arm_pair(z_spec: InterventionSpec) -> tuple[ArmPolicy, ArmPolicy]:
    """The two hypothetical arms (active, control) sharing one balancing form."""
    return ArmPolicy(a_value=1, z_spec=z_spec), ArmPolicy(a_value=0, z_spec=z_spec)


def policy_arms(specs: dict[str, InterventionSpec]) -> list[ArmPolicy]:
    """Each policy's ``arm_pair``, in the order of ``specs``: the order in
    which one ``tmle_arm`` pass chains its warm starts."""
    return [arm for spec in specs.values() for arm in arm_pair(spec)]


def policy_pairs(specs: dict, per_arm) -> dict:
    """The inverse of ``policy_arms``: ``per_arm`` (one item per arm of
    ``policy_arms(specs)``, in its order) as {policy name: (active, control)}."""
    it = iter(per_arm)
    return dict(zip(specs, zip(it, it)))
