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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .features import gstar_columns, gstar_design
from .learners import FittedModel, clip_probs, fit_binary_glm, fit_constant
from .panel import TrialPanel, at_risk_mask

Z_FORMS = ("static", "dynamic", "stochastic", "observational")

#: sentinel returned by gstar_prob for observational nodes ("use fitted g")
USE_OBSERVED_G = None


@dataclass(frozen=True)
class InterventionSpec:
    """Specification of one node's hypothetical mechanism.

    ``intervene_baseline`` controls whether the visit-0 node is replaced as
    well; it is forced off for the dynamic form (whose rule references the
    observed baseline status) and on for censoring.
    """

    node: str                       # "A" | "Z" | "C"
    form: str
    value: int | None = None
    models: tuple[FittedModel, ...] = field(default=())
    intervene_baseline: bool = True

    def __post_init__(self):
        if self.node not in ("A", "Z", "C"):
            raise ValueError(f"unknown node '{self.node}'")
        if self.form not in Z_FORMS:
            raise ValueError(f"unknown form '{self.form}'")
        if self.node == "C" and not (self.form == "static" and self.value == 0):
            raise ValueError("censoring can only be intervened to static 0")
        if self.form == "static" and self.value not in (0, 1):
            raise ValueError("static form needs value 0 or 1")
        if self.form == "dynamic" and self.intervene_baseline:
            object.__setattr__(self, "intervene_baseline", False)

    @property
    def fitted(self) -> bool:
        return self.form != "stochastic" or len(self.models) > 0

    def intervenes_at(self, k: int) -> bool:
        """Whether the visit-k node is replaced under this spec."""
        if self.form == "observational":
            return False
        if k == 0:
            return self.intervene_baseline
        return True


def static_z(value: int) -> InterventionSpec:
    return InterventionSpec(node="Z", form="static", value=value)


def dynamic_z() -> InterventionSpec:
    return InterventionSpec(node="Z", form="dynamic", intervene_baseline=False)


def observational_z() -> InterventionSpec:
    return InterventionSpec(node="Z", form="observational", intervene_baseline=False)


@dataclass(frozen=True)
class ArmPolicy:
    """One hypothetical arm: static randomized-treatment assignment plus a
    concomitant-treatment form.  ``a_value`` None leaves the randomized
    treatment observational (used for natural-course checks only).
    Censoring is always intervened to "remain under observation"."""

    a_value: int | None
    z_spec: InterventionSpec
    name: str = ""

    def a_intervenes(self) -> bool:
        return self.a_value is not None


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
    if not spec.fitted:
        raise ValueError("stochastic intervention queried before fitting "
                         "(no fitted conditional law)")
    if k >= len(spec.models):
        raise ValueError(f"stochastic intervention has no law for visit {k}")
    return clip_probs(spec.models[k].predict(gstar_columns(l0, k, z_prev)))


def panel_history(panel: TrialPanel, k: int) -> tuple:
    """The history arguments (l0, z_prev, z0) of ``gstar_prob1`` and
    ``gstar_prob`` for every subject of a panel at visit k."""
    return panel.L0, (panel.z_at(k - 1) if k >= 1 else None), panel.Z0


def gstar_prob(spec: InterventionSpec, value, k: int, l0=None, z_prev=None,
               z0=None):
    """Interventional probability that the visit-k node takes ``value``.

    History arguments are vectors (or scalars) of the conditioning variables
    the form needs: baseline covariates ``l0`` (one row per history),
    previous concomitant status ``z_prev`` and baseline status ``z0``.  Only
    at-risk histories are meaningful (the law conditions on survival).  For
    observational nodes the sentinel USE_OBSERVED_G is returned.
    """
    p1 = gstar_prob1(spec, k, l0, z_prev, z0)
    if p1 is USE_OBSERVED_G:
        return USE_OBSERVED_G
    out = np.where(np.asarray(value, dtype=float) == 1, p1, 1.0 - p1)
    return out if out.size > 1 else float(out.reshape(-1)[0])


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
        design = gstar_design(panel, k)[mask]
        models.append(fit_binary_glm(design, y))
    return InterventionSpec(node="Z", form="stochastic", models=tuple(models),
                            intervene_baseline=True)


def standard_policies(stochastic_spec: InterventionSpec | None = None
                      ) -> dict[str, InterventionSpec]:
    """The concomitant-treatment forms contrasted in the study, by name."""
    pol = {
        "static0": static_z(0),
        "static1": static_z(1),
        "dynamic": dynamic_z(),
        "ignore": observational_z(),
    }
    if stochastic_spec is not None:
        pol["stochastic"] = stochastic_spec
    return pol


def arm_pair(z_spec: InterventionSpec, name: str = "") -> tuple[ArmPolicy, ArmPolicy]:
    """The two hypothetical arms (active, control) sharing one balancing form."""
    return (ArmPolicy(a_value=1, z_spec=z_spec, name=f"{name}:a1"),
            ArmPolicy(a_value=0, z_spec=z_spec, name=f"{name}:a0"))
