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
share all non-intervened randomness, so arm contrasts are paired.  Subjects
are simulated in consecutive blocks, each stream read block by block, which
leaves every draw where it was.  The oracle makes one pass: each stream is
read once per block, and every arm of every policy advances over that block
on those same draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .interventions import (USE_OBSERVED_G, ArmPolicy, InterventionSpec, fit_stochastic_gstar,
                            gstar_prob1, policy_arms)
from .learners import expit
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
    death_hazard: float = 0.0
    censor_hazard: float = 0.0
    avg_decay: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value, integral = getattr(self, f.name), f.name == "n_visits"
            if value is None and f.name == "avg_decay":
                continue
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Integral if integral else numbers.Real)
                    and math.isfinite(value)):
                raise ValueError(f"{f.name} {value!r} is not "
                                 f"{'an integer' if integral else 'a finite number'}")
        if self.p_z < 0 or self.p_zy < 0:
            raise ValueError("efficacy parameters must be nonnegative")
        if self.covariate_noise_sd <= 0:
            raise ValueError("covariate noise sd must be positive")
        if self.n_visits < 1:
            raise ValueError("need at least one follow-up visit")
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


#: subjects advanced together; every stream is read in consecutive blocks of
#: this many draws, so subject i still reads draw i of each stream
_BLOCK = 1 << 14


def _stream(seed: int, visit: int, node: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=abs(int(seed)), spawn_key=(visit, node))
    return np.random.Generator(np.random.Philox(ss))


def _blocks(seed: int, n: int):
    """Consecutive blocks of subjects: yields ``(rows, draw)`` per block, where
    ``draw(visit, node)`` gives that block's slice of the (seed, visit, node)
    stream (standard normal for the covariate nodes, uniform otherwise).  Each
    slice is drawn once per block, from a generator kept across blocks, so
    every caller within a block reads the same draws."""
    streams: dict[tuple[int, int], np.random.Generator] = {}
    for lo in range(0, n, _BLOCK):
        rows = slice(lo, min(lo + _BLOCK, n))
        drawn: dict[tuple[int, int], np.ndarray] = {}

        def draw(visit, node, rows=rows, drawn=drawn):
            key = (visit, node)
            if key not in drawn:
                if key not in streams:
                    # a stream first read after block 0 would hand out its
                    # first draws to the wrong subjects
                    assert rows.start == 0, f"stream {key} first read past block 0"
                    streams[key] = _stream(seed, visit, node)
                size = rows.stop - rows.start
                drawn[key] = (streams[key].standard_normal(size)
                              if node in (_NODE_L0, _NODE_L) else streams[key].random(size))
            return drawn[key]

        yield rows, draw


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


def _check_run(config: ScenarioConfig, n: int, horizon: int) -> None:
    if n < 1:
        raise ValueError("need at least one subject")
    K = config.n_visits
    if not 1 <= horizon <= K:
        raise ValueError(f"horizon {horizon} is outside 1..K; the scenario has K = {K}")


def _simulate(config: ScenarioConfig, draw, rows: slice, horizon: int,
              a_value: int | None = None,
              z_spec: InterventionSpec | None = None,
              panel: dict | None = None) -> np.ndarray:
    """Advance one arm over one block of subjects (``rows``), reading its
    uniforms and normals through ``draw(visit, node)`` (see ``_blocks``).

    Returns the block's event status at ``horizon``.  With ``panel``, a dict
    of full-length panel arrays, the run is the observed-data one: censoring
    is drawn too and every visit is written into the block's columns.  Absorbed subjects carry their last covariate/treatment values
    forward; those payloads are ignored downstream.
    """
    n = rows.stop - rows.start
    l0 = draw(0, _NODE_L0)
    if a_value is None:
        a0 = (draw(0, _NODE_A0) < 0.5).astype(np.int8)
    else:
        a0 = np.full(n, a_value, dtype=np.int8)
    z0 = _sample_z(z_spec, 0, draw(0, _NODE_Z0), None, None, l0, None, config)
    if panel is not None:
        panel["L0"][rows, 0] = l0
        panel["Z0"][rows] = z0
        panel["A0"][rows] = a0

    a_avg = a0.astype(float)  # full adherence: A_k = A_0
    # (optionally discounted) running sums of Z and L, updated in place
    lam = config.avg_decay
    z_sum, l_sum, w_sum = z0.astype(float), l0.copy(), 1.0
    alive = np.ones(n, dtype=bool)   # neither event, death nor censoring yet
    y_abs = np.zeros(n, dtype=bool)
    d_abs = np.zeros(n, dtype=bool)
    c_abs = np.zeros(n, dtype=bool)
    l_prev = l0
    z_prev = z0

    for k in range(1, horizon + 1):
        z_avg, l_avg = z_sum / w_sum, l_sum / w_sum

        if panel is not None and config.censor_hazard > 0:
            newly_c = alive & (draw(k, _NODE_C) < config.censor_hazard)
            c_abs |= newly_c
            alive &= ~newly_c
        if config.death_hazard > 0:
            newly_d = alive & (draw(k, _NODE_D) < config.death_hazard)
            d_abs |= newly_d
            alive &= ~newly_d
        hazard = expit(config.outcome_slope
                       * (l_avg - a_avg - config.p_zy * z_avg)
                       + config.outcome_intercept)
        newly_y = alive & (draw(k, _NODE_Y) < hazard)
        y_abs |= newly_y
        alive &= ~newly_y
        if panel is not None:
            panel["C"][k - 1, rows] = c_abs
            panel["D"][k - 1, rows] = d_abs
            panel["Y"][k - 1, rows] = y_abs

        if k < horizon:  # the visit-k covariate and status act from visit k + 1 on
            mean_l = l_prev - config.covariate_drift_coef * (a_avg + config.p_z * z_avg)
            draw_l = mean_l + config.covariate_noise_sd * draw(k, _NODE_L)
            l_curr = np.where(alive, draw_l, l_prev)
            z_drawn = _sample_z(z_spec, k, draw(k, _NODE_Z), l_curr, z_prev, l0, z0, config)
            z_curr = np.where(alive, z_drawn, z_prev)
            if panel is not None:
                panel["L"][k - 1, rows, 0] = l_curr
                panel["A"][k - 1, rows] = a0
                panel["Z"][k - 1, rows] = z_curr
            if lam is not None:
                z_sum *= lam
                l_sum *= lam
                w_sum *= lam
            z_sum += z_curr
            l_sum += l_curr
            w_sum += 1.0
            l_prev, z_prev = l_curr, z_curr
    return y_abs


def simulate_trial(config: ScenarioConfig, n: int, seed: int) -> TrialPanel:
    """Draw an observed-data panel from the scenario's generating process."""
    K = config.n_visits
    _check_run(config, n, K)
    panel = {"L0": np.zeros((n, 1)), "Z0": np.zeros(n, dtype=np.int8),
             "A0": np.zeros(n, dtype=np.int8)}
    for name in ("Y", "D", "C"):
        panel[name] = np.zeros((K, n), dtype=np.int8)
    panel["L"] = np.zeros((K - 1, n, 1))
    panel["A"] = np.zeros((K - 1, n), dtype=np.int8)
    panel["Z"] = np.zeros((K - 1, n), dtype=np.int8)
    for rows, draw in _blocks(seed, n):
        _simulate(config, draw, rows, K, panel=panel)
    return TrialPanel(**panel)


def _arm_outcomes(config: ScenarioConfig, arms: list[ArmPolicy], horizon: int, n_mc: int,
                  seed: int) -> list[np.ndarray]:
    """Event status at ``horizon`` (int8, one per subject) of each arm.  One
    pass over blocks of subjects: every arm advances over a block on the same
    draws before the next block is drawn."""
    _check_run(config, n_mc, horizon)
    ys = [np.empty(n_mc, dtype=np.int8) for _ in arms]
    for rows, draw in _blocks(seed, n_mc):
        for y, arm in zip(ys, arms):
            y[rows] = _simulate(config, draw, rows, horizon, arm.a_value, arm.z_spec)
    return ys


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
    sampling from the post-interventional distribution (``a_value`` None
    draws the randomized arm as the trial does)."""
    (y,) = _arm_outcomes(config, [policy], horizon, n_mc, seed)
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


def oracle_risk_differences(config: ScenarioConfig, specs: dict[str, InterventionSpec],
                            horizon: int, n_mc: int, seed: int) -> dict[str, OracleContrast]:
    """Paired-arm oracle for every named intervention form in one pass: all
    hypothetical arms reuse the same randomness, so the Monte-Carlo error of
    each difference reflects the paired design.  Its SE needs n_mc >= 2."""
    _check_run(config, n_mc, horizon)
    if n_mc < 2:
        raise ValueError(f"n_mc = {n_mc}: a paired contrast needs at least 2 draws "
                         "for its Monte-Carlo SE")
    ys = iter(_arm_outcomes(config, policy_arms(specs), horizon, n_mc, seed))
    out = {}
    for name, y1, y0 in zip(specs, ys, ys):
        diff = y1.astype(float) - y0.astype(float)
        out[name] = OracleContrast(
            psi=float(np.mean(diff)), mc_se=float(np.std(diff, ddof=1) / np.sqrt(n_mc)),
            risk1=float(np.mean(y1)), risk0=float(np.mean(y0)), n_mc=n_mc, horizon=horizon)
    return out


def oracle_risk_difference(config: ScenarioConfig, z_spec: InterventionSpec,
                           horizon: int, n_mc: int, seed: int) -> OracleContrast:
    """The paired-arm oracle (see ``oracle_risk_differences``) of one form."""
    return oracle_risk_differences(config, {"": z_spec}, horizon, n_mc, seed)[""]


def fit_reference_gstar(config: ScenarioConfig, n_fit: int, seed: int):
    """Canonical balancing law for oracle truths: the stochastic intervention
    fitted on an ``n_fit``-subject observational panel drawn at seed + 900 001."""
    panel = simulate_trial(config, n_fit, seed + 900_001)
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
