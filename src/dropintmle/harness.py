"""Replication harness: truth computation, replication loops, summary tables.

One run covers a scenario and a set of balancing policies: oracle truths are
computed once by counterfactual Monte Carlo (the stochastic policy's
reference law is fitted on a large observational panel), then each
replication simulates a panel with seed + r, fits the nuisance mechanisms and
the panel's own stochastic law, and estimates every policy on both
hypothetical arms in one pass.  Each policy's EstimateReport (the record
``cli estimate`` writes) is tallied as it is: psi, SE and interval, the
largest clever weight (``weights1``/``weights0``) and the worse arm's
|mean EIC| (``arm1``/``arm0``) give the bias / coverage / interval-length
summaries.  Replication failures (non-convergence, empty risk sets) are
counted by reason and excluded, never silently dropped.  Results are reduced
in replication order, so tables are byte-stable for a fixed seed regardless
of worker count.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .engine import EstimationError, check_options, contrast, fit_g, tmle_arm
from .features import check_learner
from .interventions import (POLICY_NAMES, check_policy_names, fit_stochastic_gstar,
                            policy_arms, policy_pairs, policy_specs)
from .panel import SettingError
from .sim import (
    ScenarioConfig,
    _check_paired_draws,
    _check_run,
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
        raise SettingError(f"LTMLE_THREADS={env!r} is not an integer of at least 1")
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


def _replication_worker(cfg, policy_names, n, horizon, g_floor, weight_cap, q_learner,
                        include_gcomp, seed_r):
    """One replication: per policy, the EstimateReport of its contrast and of
    its g-computation contrast (None without ``include_gcomp``), or the reason
    it failed: its active arm, control arm, an unconverged fluctuation, then
    its g-computation arms, whichever fails first."""
    panel = simulate_trial(cfg, n, seed_r)
    try:
        gfit = fit_g(panel, g_floor=g_floor)
        specs = policy_specs(policy_names, lambda: fit_stochastic_gstar(panel, upto=horizon))
    except Exception as exc:  # a dead panel fails every policy
        return dict.fromkeys(policy_names, f"{type(exc).__name__}: {exc}")
    # one pass: every arm targeted, then every arm by g-computation if asked
    arms, kinds = policy_arms(specs), [True] + [False] * include_gcomp
    results = tmle_arm(gfit, arms * len(kinds), q_learner, horizon, weight_cap=weight_cap,
                       targeted=[t for t in kinds for _ in arms])
    tmle, gcomp = (policy_pairs(specs, results[i * len(arms):]) for i in range(2))
    out = {}
    for name, pair in tmle.items():
        try:
            rep = contrast(*pair, name)
            arm1, arm0 = rep.diagnostics["arm1"], rep.diagnostics["arm0"]
            if not (arm1["fluct_converged"] and arm0["fluct_converged"]):
                raise EstimationError("fluctuation did not converge")
            out[name] = rep, contrast(*gcomp[name], name) if include_gcomp else None
        except Exception as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
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
    The scenario, ``n``, horizon, ``n_mc``, ``reps``, g floor, weight cap,
    learner, policies, worker count and supplied truths (one per policy) are
    checked first: a bad one raises SettingError before any truth or panel.
    """
    cfg = resolve_scenario(scenario)
    name = scenario if isinstance(scenario, str) else "custom"
    horizon = cfg.n_visits if horizon is None else horizon
    _check_run(cfg, n, horizon)
    _check_paired_draws(n_mc)
    if reps < 1:
        raise SettingError("reps must be >= 1")
    check_options(g_floor, weight_cap)
    check_learner(q_learner)
    policy_names = check_policy_names(policies)
    workers = n_workers() if workers is None else workers
    if workers < 1:
        raise SettingError(f"workers must be at least 1, got {workers}")
    missing = [p for p in policy_names if truths is not None and p not in truths]
    if missing:
        raise SettingError(f"truths give no value for {', '.join(missing)}")

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
        reasons = dict(Counter(run for run in runs if isinstance(run, str)))
        ok = [run for run in runs if not isinstance(run, str)]
        psi, se, lo, hi = (np.array([getattr(rep, f) for rep, _ in ok])
                           for f in ("psi", "se", "ci_low", "ci_high"))
        diags = [rep.diagnostics for rep, _ in ok]
        maxw = np.array([max(w["max_weight"] for w in d["weights1"] + d["weights0"])
                         for d in diags])
        eics = np.array([max(abs(d["arm1"]["mean_eic"]), abs(d["arm0"]["mean_eic"]))
                         for d in diags])
        gests = [g.psi for _, g in ok if g is not None]
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


def emit_report(obj, path=None, fmt: str = "csv") -> None:
    """Write a table or report with a stable schema to ``path``, or to
    standard output when ``path`` is None.

    ReplicationTable -> CSV with the documented column order (or JSON, whose
    rows also count each policy's failures by reason, ``failure_reasons``);
    drop-in trajectories -> per-visit CSV; other dicts -> canonical JSON:
    sorted keys, floats at 6 significant digits, non-finite floats as null.
    """
    if isinstance(obj, ReplicationTable) and fmt == "json":
        rows = [dict(row, failure_reasons=p.failure_reasons)
                for row, p in zip(obj.rows(), obj.policies.values())]
        obj = {"scenario": obj.scenario, "n": obj.n, "reps": obj.reps,
               "horizon": obj.horizon, "seed": obj.seed, "rows": rows}
    if isinstance(obj, dict) and "visit" not in obj:
        text = json.dumps(_round_floats(obj), indent=2, sort_keys=True)
    else:
        if isinstance(obj, ReplicationTable):
            cols, rows = TABLE_COLUMNS, obj.rows()
        elif isinstance(obj, dict):
            cols = ["visit", "arm0", "arm1", "n_at_risk0", "n_at_risk1"]
            rows = [{c: float(obj[c][i]) if c in ("arm0", "arm1") else int(obj[c][i])
                     for c in cols} for i in range(len(obj["visit"]))]
        else:
            raise TypeError(f"do not know how to emit {type(obj).__name__}")
        text = "\n".join([",".join(cols)] + [",".join(_fmt6(row[c]) for c in cols)
                                             for row in rows])
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.write(text + "\n")


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

