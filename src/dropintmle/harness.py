"""Replication harness: truth computation, replication loops, summary tables.

One run covers a scenario and a set of balancing policies: oracle truths are
computed once by counterfactual Monte Carlo (the stochastic policy's
reference law is fitted on a large observational panel), then each
replication simulates a panel with seed + r, fits the nuisance mechanisms and
the panel's own stochastic law, estimates every policy on both hypothetical
arms, and accumulates bias / coverage / interval-length summaries.
Replication failures (non-convergence, empty risk sets) are recorded and
excluded, never silently dropped.  Results are reduced in replication order,
so tables are byte-stable for a fixed seed regardless of worker count.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .engine import (EstimationError, arm_estimate, check_options, contrast, fit_g,
                     fit_top_step, tmle_arm)
from .interventions import (POLICY_NAMES, check_policy_names, fit_stochastic_gstar,
                            policy_arms, policy_specs)
from .sim import (
    ScenarioConfig,
    fit_reference_gstar,
    oracle_risk_differences,
    resolve_scenario,
    simulate_trial,
)

TABLE_COLUMNS = [
    "scenario", "policy", "truth", "truth_mc_se", "mean_est", "emp_sd",
    "mean_se", "coverage", "mean_ci_len", "norm_ci_len", "reps", "failures",
]


def n_workers() -> int:
    """Worker count: the LTMLE_THREADS variable if set, else every core."""
    env = os.environ.get("LTMLE_THREADS")
    try:
        workers = int(env) if env else os.cpu_count() or 1
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"LTMLE_THREADS={env!r} is not an integer of at least 1")
    return workers


@dataclass
class PolicyReplication:
    """Accumulated replication results for one (scenario, policy) pair."""

    policy: str
    truth: float
    truth_mc_se: float
    estimates: np.ndarray
    ses: np.ndarray
    covers: np.ndarray
    ci_lens: np.ndarray
    max_weights: np.ndarray
    mean_eics: np.ndarray
    gcomp_estimates: np.ndarray | None
    failures: int
    failure_reasons: dict[str, int] = field(default_factory=dict)  # reason -> replications

    @property
    def n_ok(self) -> int:
        return int(self.estimates.size)

    def row(self, scenario: str) -> dict:
        e = self.estimates
        single = e.size < 2
        return {
            "scenario": scenario,
            "policy": self.policy,
            "truth": self.truth,
            "truth_mc_se": self.truth_mc_se,
            "mean_est": float(e.mean()) if e.size else float("nan"),
            "emp_sd": float("nan") if single else float(e.std(ddof=1)),
            "mean_se": float(self.ses.mean()) if self.ses.size else float("nan"),
            "coverage": float(self.covers.mean()) if self.covers.size else float("nan"),
            "mean_ci_len": float(self.ci_lens.mean()) if self.ci_lens.size else float("nan"),
            "norm_ci_len": (float(self.ci_lens.mean()) / abs(self.truth)
                            if self.ci_lens.size and self.truth != 0 else float("nan")),
            "reps": self.n_ok,
            "failures": self.failures,
        }


@dataclass
class ReplicationTable:
    scenario: str
    n: int
    reps: int
    horizon: int
    seed: int
    n_mc: int
    policies: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        return [self.policies[p].row(self.scenario) for p in self.policies]


@dataclass(frozen=True)
class PolicyRun:
    """One policy in one replication: the contrast and its interval, the
    largest clever weight, the worse arm's |mean EIC| and the g-computation
    contrast if requested; or only the ``failure`` reason."""

    psi: float | None = None
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    max_weight: float | None = None
    mean_eic: float | None = None
    gcomp_psi: float | None = None
    failure: str | None = None


def _replication_worker(cfg, policy_names, n, horizon, g_floor, weight_cap, q_learner,
                        include_gcomp, seed_r):
    panel = simulate_trial(cfg, n, seed_r)
    try:
        gfit = fit_g(panel, g_floor=g_floor)
        specs = policy_specs(policy_names, lambda: fit_stochastic_gstar(panel, upto=horizon))
        arms = policy_arms(specs)
        top = fit_top_step(panel, q_learner, horizon)
    except Exception as exc:  # a dead panel fails every policy
        return {name: PolicyRun(failure=f"{type(exc).__name__}: {exc}")
                for name in policy_names}
    tmle = iter(tmle_arm(gfit, arms, top, weight_cap=weight_cap))
    gcomp = iter(tmle_arm(gfit, arms, top, targeted=False) if include_gcomp
                 else [None] * len(arms))
    out = {}
    for name, pair, gpair in zip(specs, zip(tmle, tmle), zip(gcomp, gcomp)):
        try:
            e1, e0 = (arm_estimate(r) for r in pair)
            if not (e1.diagnostics["fluct_converged"] and e0.diagnostics["fluct_converged"]):
                raise EstimationError("fluctuation did not converge")
            rep = contrast(e1, e0, name)
            maxw = max(
                max(r["max_weight"] for r in rep.diagnostics["weights1"]),
                max(r["max_weight"] for r in rep.diagnostics["weights0"]),
            )
            mean_eic = max(abs(e1.mean_eic), abs(e0.mean_eic))
            gpsi = None
            if include_gcomp:
                g1, g0 = (arm_estimate(r) for r in gpair)
                gpsi = g1.psi - g0.psi
            out[name] = PolicyRun(psi=rep.psi, se=rep.se, ci_low=rep.ci_low,
                                  ci_high=rep.ci_high, max_weight=maxw,
                                  mean_eic=mean_eic, gcomp_psi=gpsi)
        except Exception as exc:
            out[name] = PolicyRun(failure=f"{type(exc).__name__}: {exc}")
    return out


def compute_truths(cfg: ScenarioConfig, policy_names, horizon, n_mc, seed,
                   n_fit: int = 1_000_000):
    """Oracle risk-difference truths per policy (paired hypothetical arms),
    every policy in one oracle pass."""
    specs = policy_specs(policy_names, lambda: fit_reference_gstar(cfg, n_fit, seed))
    contrasts = oracle_risk_differences(cfg, specs, horizon, n_mc, seed + 700_001)
    return {name: (oc.psi, oc.mc_se, oc.risk1, oc.risk0) for name, oc in contrasts.items()}


def run_replications(scenario, policies=POLICY_NAMES, n: int = 9340,
                     reps: int = 500, horizon: int | None = None,
                     seed: int = 1, n_mc: int = 1_000_000,
                     g_floor: float = 1e-3, weight_cap: float | None = None,
                     q_learner: str | list[str] = "running_avg",
                     include_gcomp: bool = False, workers: int | None = None,
                     truths: dict | None = None) -> ReplicationTable:
    """Full replication study for one scenario.

    ``q_learner`` fits the outcome regressions; the nuisance mechanisms use the
    default learner.  ``truths`` can be supplied to skip the oracle pass (e.g.
    reusing truths across runs); otherwise they are computed at ``n_mc`` draws.
    """
    cfg = resolve_scenario(scenario)
    name = scenario if isinstance(scenario, str) else "custom"
    horizon = cfg.n_visits if horizon is None else horizon
    if not 1 <= horizon <= cfg.n_visits:
        raise ValueError(f"horizon {horizon} is outside 1..K; the scenario has "
                         f"K = {cfg.n_visits}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    check_options(g_floor, weight_cap)
    policy_names = check_policy_names(policies)
    workers = n_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    if truths is None:
        truths = compute_truths(cfg, policy_names, horizon, n_mc, seed)

    worker = partial(_replication_worker, cfg, policy_names, n, horizon, g_floor,
                     weight_cap, q_learner, include_gcomp)
    seeds = range(seed + 1, seed + reps + 1)
    if workers > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, seeds, chunksize=4))
    else:
        results = [worker(s) for s in seeds]

    table = ReplicationTable(scenario=name, n=n, reps=reps, horizon=horizon,
                             seed=seed, n_mc=n_mc)
    for pol in policy_names:
        truth, truth_se = truths[pol][0], truths[pol][1]
        runs = [res[pol] for res in results]
        ok = [run for run in runs if run.failure is None]
        psi, se, lo, hi, maxw, eics = (np.array([getattr(run, f) for run in ok]) for f in (
            "psi", "se", "ci_low", "ci_high", "max_weight", "mean_eic"))
        gests = [run.gcomp_psi for run in ok if run.gcomp_psi is not None]
        reasons = dict(Counter(run.failure for run in runs if run.failure is not None))
        table.policies[pol] = PolicyReplication(
            policy=pol, truth=truth, truth_mc_se=truth_se, estimates=psi, ses=se,
            covers=(lo <= truth) & (truth <= hi), ci_lens=hi - lo,
            max_weights=maxw, mean_eics=eics,
            gcomp_estimates=np.array(gests) if gests else None,
            failures=sum(reasons.values()), failure_reasons=reasons,
        )
    return table


# ---------------------------------------------------------------------------
# Report emission


def _fmt6(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if np.isnan(x):
            return ""
        return f"{x:.6g}"
    return str(x)


def emit_report(obj, path, fmt: str = "csv") -> None:
    """Write a table or report to disk with a stable schema.

    ReplicationTable -> CSV with the documented column order (or JSON, whose
    rows also count each policy's failures by reason, ``failure_reasons``);
    dicts -> canonical JSON (see ``_write_json``); drop-in trajectories ->
    per-visit CSV.
    """
    if isinstance(obj, ReplicationTable) and fmt == "json":
        rows = [dict(row, failure_reasons=p.failure_reasons)
                for row, p in zip(obj.rows(), obj.policies.values())]
        obj = {"scenario": obj.scenario, "n": obj.n, "reps": obj.reps,
               "horizon": obj.horizon, "seed": obj.seed, "rows": rows}
    if isinstance(obj, ReplicationTable):
        cols, rows = TABLE_COLUMNS, obj.rows()
    elif isinstance(obj, dict) and "visit" in obj:
        cols = ["visit", "arm0", "arm1", "n_at_risk0", "n_at_risk1"]
        rows = [{c: float(obj[c][i]) if c in ("arm0", "arm1") else int(obj[c][i])
                 for c in cols} for i in range(len(obj["visit"]))]
    elif isinstance(obj, dict):
        with open(path, "w") as fh:
            _write_json(obj, fh)
        return
    else:
        raise TypeError(f"do not know how to emit {type(obj).__name__}")
    lines = [",".join(cols)] + [",".join(_fmt6(row[c]) for c in cols) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}") if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(payload, fh) -> None:
    """The one JSON serializer, for files and stdout alike: sorted keys,
    floats at 6 significant digits, non-finite floats as null."""
    fh.write(json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n")
