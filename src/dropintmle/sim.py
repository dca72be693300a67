"""Discrete-time trial simulator and Monte-Carlo counterfactual oracle.

The data-generating process: baseline covariate standard normal, arm
assignment a fair coin, baseline concomitant use logistic in the covariate.
During follow-up the covariate drifts downward with treatment exposure
(running averages summarize history), the primary event hazard is logistic in
the running averages, and concomitant initiation is logistic in the current
covariate with strong persistence.  Randomized-treatment adherence is full.
Competing-death and censoring hazards default to zero but can be switched on.

Randomness is organized as one counter-based stream per (seed, visit, node),
with subject i always reading draw i; panels are bit-identical for identical
(config, n, seed) regardless of worker count, and factual/counterfactual runs
share all non-intervened randomness, so arm contrasts are paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .interventions import (USE_OBSERVED_G, ArmPolicy, InterventionSpec, fit_stochastic_gstar,
                            gstar_prob1)
from .panel import TrialPanel, at_risk_mask

_NODE_L0, _NODE_Z0, _NODE_A0 = 0, 1, 2
_NODE_C, _NODE_D, _NODE_Y, _NODE_L, _NODE_Z = 3, 4, 5, 6, 7


@dataclass(frozen=True)
class ScenarioConfig:
    """All data-generating parameters.

    ``c_z0`` shifts baseline concomitant use, ``c_z`` the initiation rate;
    ``p_z`` / ``p_zy`` scale the concomitant efficacy on the covariate and the
    outcome; ``b_zz`` makes initiated treatment sticky.  ``avg_decay`` turns
    the plain running averages into discounted ones (None = plain).
    Only full adherence (A_k = A_0) is implemented.
    """

    c_z0: float
    c_z: float
    p_z: float
    p_zy: float
    b_zz: float = 8.0
    outcome_intercept: float = -3.75
    outcome_slope: float = 0.3
    covariate_drift_coef: float = 0.3
    covariate_noise_sd: float = 0.5
    n_visits: int = 5
    full_adherence: bool = True
    death_hazard: float = 0.0
    censor_hazard: float = 0.0
    avg_decay: float | None = None

    def __post_init__(self):
        if self.p_z < 0 or self.p_zy < 0:
            raise ValueError("efficacy parameters must be nonnegative")
        if self.covariate_noise_sd <= 0:
            raise ValueError("covariate noise sd must be positive")
        if self.n_visits < 1:
            raise ValueError("need at least one follow-up visit")
        if not self.full_adherence:
            raise NotImplementedError("only full adherence (A_k = A_0) is modeled")
        for h in (self.death_hazard, self.censor_hazard):
            if not 0.0 <= h < 1.0:
                raise ValueError("hazards must lie in [0, 1)")


def scenario_presets() -> dict[str, ScenarioConfig]:
    """The three study scenarios: reference, high drop-in rate, low efficacy."""
    return {
        "scenario1": ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1.0, p_zy=1.0),
        "scenario2": ScenarioConfig(c_z0=-1.0, c_z=0.0, p_z=1.0, p_zy=1.0),
        "scenario3": ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=0.1, p_zy=0.1),
    }


def resolve_scenario(name_or_config) -> ScenarioConfig:
    if isinstance(name_or_config, ScenarioConfig):
        return name_or_config
    presets = scenario_presets()
    if name_or_config not in presets:
        raise KeyError(f"unknown scenario '{name_or_config}'; "
                       f"choose from {sorted(presets)} or pass a config")
    return presets[name_or_config]


def _stream(seed: int, visit: int, node: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=abs(int(seed)), spawn_key=(visit, node))
    return np.random.Generator(np.random.Philox(ss))


def _uniforms(seed, visit, node, n):
    return _stream(seed, visit, node).random(n)


def _normals(seed, visit, node, n):
    return _stream(seed, visit, node).standard_normal(n)


class _RunningAverages:
    """Incrementally maintained (optionally discounted) running averages."""

    def __init__(self, a0, z0, l0, decay):
        self.decay = decay
        self.a = a0.astype(float).copy()
        self.z = z0.astype(float).copy()
        self.l = l0.astype(float).copy()
        self._a_sum = a0.astype(float).copy()
        self._z_sum = z0.astype(float).copy()
        self._l_sum = l0.astype(float).copy()
        self._wsum = 1.0

    def push(self, a, z, l):
        lam = 1.0 if self.decay is None else self.decay   # 1.0 * x == x: plain sums
        for total, x in ((self._a_sum, a), (self._z_sum, z), (self._l_sum, l)):
            total *= lam
            total += x
        self._wsum = lam * self._wsum + 1.0
        self.a = self._a_sum / self._wsum
        self.z = self._z_sum / self._wsum
        self.l = self._l_sum / self._wsum


def _sample_z(policy_spec, k, u, l_curr, z_prev, l0, z0, config):
    """Draw the visit-k concomitant status under an intervention form.

    Static and dynamic laws put mass 1 on one value, so ``u < p`` with
    u in [0, 1) reproduces that value exactly."""
    p = (USE_OBSERVED_G if policy_spec is None
         else gstar_prob1(policy_spec, k, l0[:, None], z_prev, z0))
    if p is USE_OBSERVED_G:
        p = expit(l_curr + config.b_zz * z_prev + config.c_z) if k >= 1 \
            else expit(l0 + config.c_z0)
    return (u < p).astype(np.int8)


def _simulate(config: ScenarioConfig, n: int, seed: int,
              a_value: int | None = None,
              z_spec: InterventionSpec | None = None,
              censor_free: bool = False,
              keep_panel: bool = True,
              horizon: int | None = None):
    """Shared core for factual and counterfactual simulation.

    Returns a TrialPanel when ``keep_panel``, else the event-status vector at
    ``horizon``.  Absorbed subjects carry their last covariate/treatment
    values forward; those payloads are ignored downstream.
    """
    if n < 1:
        raise ValueError("need at least one subject")
    K = config.n_visits
    horizon = K if horizon is None else horizon
    if not 1 <= horizon <= K:
        raise ValueError(f"horizon {horizon} is outside 1..K; the scenario has K = {K}")

    l0 = _normals(seed, 0, _NODE_L0, n)
    if a_value is None:
        a0 = (_uniforms(seed, 0, _NODE_A0, n) < 0.5).astype(np.int8)
    else:
        a0 = np.full(n, a_value, dtype=np.int8)
    z0 = _sample_z(z_spec, 0, _uniforms(seed, 0, _NODE_Z0, n), None, None, l0, None, config)

    avg = _RunningAverages(a0, z0, l0, config.avg_decay)
    y_abs = np.zeros(n, dtype=bool)
    d_abs = np.zeros(n, dtype=bool)
    c_abs = np.zeros(n, dtype=bool)
    l_prev = l0.copy()
    z_prev = z0.copy()

    if keep_panel:
        Y = np.zeros((K, n), dtype=np.int8)
        D = np.zeros((K, n), dtype=np.int8)
        C = np.zeros((K, n), dtype=np.int8)
        L = np.zeros((K - 1, n, 1))
        A = np.zeros((K - 1, n), dtype=np.int8)
        Z = np.zeros((K - 1, n), dtype=np.int8)

    for k in range(1, K + 1):
        at_risk = ~(y_abs | d_abs | c_abs)

        if not censor_free and config.censor_hazard > 0:
            u = _uniforms(seed, k, _NODE_C, n)
            newly_c = at_risk & (u < config.censor_hazard)
        else:
            newly_c = np.zeros(n, dtype=bool)
        alive = at_risk & ~newly_c

        if config.death_hazard > 0:
            u = _uniforms(seed, k, _NODE_D, n)
            newly_d = alive & (u < config.death_hazard)
        else:
            newly_d = np.zeros(n, dtype=bool)
        alive = alive & ~newly_d

        hazard = expit(config.outcome_slope
                       * (avg.l - avg.a - config.p_zy * avg.z)
                       + config.outcome_intercept)
        u = _uniforms(seed, k, _NODE_Y, n)
        newly_y = alive & (u < hazard)

        c_abs |= newly_c
        d_abs |= newly_d
        y_abs |= newly_y
        if keep_panel:
            C[k - 1] = c_abs
            D[k - 1] = d_abs
            Y[k - 1] = y_abs

        if k <= K - 1:
            survivors = ~(y_abs | d_abs | c_abs)
            mean_l = l_prev - config.covariate_drift_coef * (avg.a + config.p_z * avg.z)
            draw_l = mean_l + config.covariate_noise_sd * _normals(seed, k, _NODE_L, n)
            l_curr = np.where(survivors, draw_l, l_prev)
            u = _uniforms(seed, k, _NODE_Z, n)
            z_drawn = _sample_z(z_spec, k, u, l_curr, z_prev, l0, z0, config)
            z_curr = np.where(survivors, z_drawn, z_prev).astype(np.int8)
            a_curr = a0  # full adherence
            if keep_panel:
                L[k - 1, :, 0] = l_curr
                A[k - 1] = a_curr
                Z[k - 1] = z_curr
            avg.push(a_curr.astype(float), z_curr.astype(float), l_curr)
            l_prev, z_prev = l_curr, z_curr
        if not keep_panel and k == horizon:
            return y_abs.astype(np.int8)

    return TrialPanel(
        visit_times=np.arange(K + 1, dtype=float),
        L0=l0[:, None], Z0=z0, A0=a0, Y=Y, D=D, C=C, L=L, A=A, Z=Z,
    )


def simulate_trial(config: ScenarioConfig, n: int, seed: int) -> TrialPanel:
    """Draw an observed-data panel from the scenario's generating process."""
    return _simulate(config, n, seed, keep_panel=True)


@dataclass(frozen=True)
class OracleResult:
    risk: float
    mc_se: float
    n_mc: int
    horizon: int


def simulate_counterfactual_mean(config: ScenarioConfig, policy: ArmPolicy,
                                 horizon: int, n_mc: int, seed: int,
                                 ) -> OracleResult:
    """Ground-truth event risk at ``horizon`` under an arm policy, by direct
    sampling from the post-interventional distribution."""
    y = _simulate(config, n_mc, seed, a_value=policy.a_value,
                  z_spec=policy.z_spec, censor_free=True,
                  keep_panel=False, horizon=horizon)
    risk = float(np.mean(y))
    se = float(np.sqrt(max(risk * (1.0 - risk), 0.0) / n_mc))
    return OracleResult(risk=risk, mc_se=se, n_mc=n_mc, horizon=horizon)


@dataclass(frozen=True)
class OracleContrast:
    psi: float
    mc_se: float
    risk1: float
    risk0: float
    n_mc: int
    horizon: int


def oracle_risk_difference(config: ScenarioConfig, z_spec: InterventionSpec,
                           horizon: int, n_mc: int, seed: int) -> OracleContrast:
    """Paired-arm oracle: both hypothetical arms reuse the same randomness, so
    the Monte-Carlo error of the difference reflects the paired design."""
    y1 = _simulate(config, n_mc, seed, a_value=1, z_spec=z_spec,
                   censor_free=True, keep_panel=False, horizon=horizon)
    y0 = _simulate(config, n_mc, seed, a_value=0, z_spec=z_spec,
                   censor_free=True, keep_panel=False, horizon=horizon)
    diff = y1.astype(float) - y0.astype(float)
    psi = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / np.sqrt(n_mc))
    return OracleContrast(psi=psi, mc_se=se, risk1=float(np.mean(y1)),
                          risk0=float(np.mean(y0)), n_mc=n_mc, horizon=horizon)


def fit_reference_gstar(config: ScenarioConfig, n_fit: int = 1_000_000,
                        seed: int = 20_240_001):
    """Canonical balancing law for oracle truths: the stochastic intervention
    fitted once on a large observational panel from the scenario."""
    panel = simulate_trial(config, n_fit, seed)
    return fit_stochastic_gstar(panel)


def drop_in_trajectory(panel: TrialPanel) -> dict:
    """Per-arm fraction of at-risk subjects on concomitant treatment, by visit.

    Covers visits 0..K-1 (the final visit carries no treatment decision).
    Visits with an empty at-risk set yield NaN.
    """
    K, n = panel.K, panel.n
    out = {"visit": np.arange(K), "arm0": np.full(K, np.nan),
           "arm1": np.full(K, np.nan), "n_at_risk0": np.zeros(K, dtype=int),
           "n_at_risk1": np.zeros(K, dtype=int)}
    for k in range(K):
        risk = np.ones(n, dtype=bool) if k == 0 else at_risk_mask(panel, k)
        z = panel.z_at(k)
        for arm in (0, 1):
            mask = risk & (panel.A0 == arm)
            out[f"n_at_risk{arm}"][k] = int(mask.sum())
            if mask.any():
                out[f"arm{arm}"][k] = float(z[mask].mean())
    return out
