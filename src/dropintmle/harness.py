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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import (EstimateReport, EstimationError, contrast, fit_g, fit_top_step, gcomp_arm,
                     tmle_arm)
from .interventions import arm_pair, fit_stochastic_gstar, standard_policies
from .sim import (
    ScenarioConfig,
    fit_reference_gstar,
    oracle_risk_difference,
    resolve_scenario,
    simulate_trial,
)

POLICY_NAMES = ("static0", "static1", "dynamic", "stochastic", "ignore")

TABLE_COLUMNS = [
    "scenario", "policy", "truth", "truth_mc_se", "mean_est", "emp_sd",
    "mean_se", "coverage", "mean_ci_len", "norm_ci_len", "reps", "failures",
]


def n_workers() -> int:
    env = os.environ.get("LTMLE_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


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


def _replication_worker(args):
    cfg, policy_names, n, horizon, seed_r, g_floor, weight_cap, q_learner, include_gcomp = args
    panel = simulate_trial(cfg, n, seed_r)
    try:
        gfit = fit_g(panel, g_floor=g_floor, validate=False)
        gstar = fit_stochastic_gstar(panel) if "stochastic" in policy_names else None
        specs = standard_policies(gstar)
        top = fit_top_step(panel, q_learner, horizon)
    except Exception as exc:  # a dead panel fails every policy
        return {name: PolicyRun(failure=f"{type(exc).__name__}: {exc}")
                for name in policy_names}
    out = {}
    for name in policy_names:
        try:
            p1, p0 = arm_pair(specs[name], name)
            e1, e0 = (tmle_arm(panel, gfit, p, q_learner, horizon, weight_cap=weight_cap,
                               top=top) for p in (p1, p0))
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
                g1, g0 = (gcomp_arm(panel, gfit, p, q_learner, horizon, top=top)
                          for p in (p1, p0))
                gpsi = g1.psi - g0.psi
            out[name] = PolicyRun(psi=rep.psi, se=rep.se, ci_low=rep.ci_low,
                                  ci_high=rep.ci_high, max_weight=maxw,
                                  mean_eic=mean_eic, gcomp_psi=gpsi)
        except Exception as exc:
            out[name] = PolicyRun(failure=f"{type(exc).__name__}: {exc}")
    return out


def compute_truths(cfg: ScenarioConfig, policy_names, horizon, n_mc, seed,
                   n_fit: int = 1_000_000):
    """Oracle risk-difference truths per policy (paired hypothetical arms)."""
    gstar_ref = (fit_reference_gstar(cfg, n_fit=n_fit, seed=seed + 900_001)
                 if "stochastic" in policy_names else None)
    specs = standard_policies(gstar_ref)
    truths = {}
    for name in policy_names:
        oc = oracle_risk_difference(cfg, specs[name], horizon, n_mc, seed + 700_001)
        truths[name] = (oc.psi, oc.mc_se, oc.risk1, oc.risk0)
    return truths


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
    policy_names = list(policies)

    if truths is None:
        truths = compute_truths(cfg, policy_names, horizon, n_mc, seed)

    tasks = [(cfg, policy_names, n, horizon, seed + r, g_floor, weight_cap,
              q_learner, include_gcomp) for r in range(1, reps + 1)]
    workers = n_workers() if workers is None else workers
    if workers > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_worker, tasks, chunksize=4))
    else:
        results = [_replication_worker(t) for t in tasks]

    table = ReplicationTable(scenario=name, n=n, reps=reps, horizon=horizon,
                             seed=seed, n_mc=n_mc)
    for pol in policy_names:
        truth, truth_se = truths[pol][0], truths[pol][1]
        est, ses, covers, lens, maxw, eics, gests = [], [], [], [], [], [], []
        failures = 0
        for res in results:
            run = res[pol]
            if run.failure is not None:
                failures += 1
                continue
            est.append(run.psi)
            ses.append(run.se)
            covers.append(run.ci_low <= truth <= run.ci_high)
            lens.append(run.ci_high - run.ci_low)
            maxw.append(run.max_weight)
            eics.append(run.mean_eic)
            if run.gcomp_psi is not None:
                gests.append(run.gcomp_psi)
        table.policies[pol] = PolicyReplication(
            policy=pol, truth=truth, truth_mc_se=truth_se,
            estimates=np.array(est), ses=np.array(ses),
            covers=np.array(covers, dtype=bool), ci_lens=np.array(lens),
            max_weights=np.array(maxw), mean_eics=np.array(eics),
            gcomp_estimates=np.array(gests) if gests else None,
            failures=failures,
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

    ReplicationTable -> CSV with the documented column order (or JSON);
    EstimateReport / dicts -> canonical JSON (see ``_write_json``); drop-in
    trajectories -> per-visit CSV.
    """
    if isinstance(obj, ReplicationTable) and fmt == "json":
        obj = {"scenario": obj.scenario, "n": obj.n, "reps": obj.reps,
               "horizon": obj.horizon, "seed": obj.seed, "rows": obj.rows()}
    elif isinstance(obj, EstimateReport):
        obj = obj.to_dict()
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
