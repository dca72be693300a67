"""The three workloads and the measuring loop.

A workload generates its inputs from the seed before anything is timed, then
runs the steps of its plan (timed ``prepare`` and ``estimate`` stages) in
this single process, and finally checks the program's outputs.  Why each
workload exists and which layers it stresses is written in README.md.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from dropintmle import cli, harness, sim

from . import checks, inputs
from .tracing import Tracer, summarize, unit

POLICIES = harness.POLICY_NAMES
TRIAL_N = 9340
CHECK_NMC = 100_000       # oracle draws for the truths the checks compare to
SETUP_SAMPLES = 6         # fresh interpreters per run, half at each end; setup_s is their median


class ReplicateSc1:
    """Scenario-1 simulation study: oracle truths once, then replications."""

    horizon = 5

    def __init__(self, seed: int, workdir: Path):
        self.cfg = sim.resolve_scenario("scenario1")
        self.seed = seed
        self.tables = []
        self.truths = None

    def plan(self, seconds):
        return [("prepare", self.prepare, 1, None),
                ("estimate", self.replicate, 10, seconds)]

    def prepare(self, i: int):
        self.tables = []
        self.truths = harness.compute_truths(self.cfg, POLICIES, self.horizon,
                                             1_000_000, self.seed)
        return 1, 0

    def replicate(self, i: int):
        table = harness.run_replications(
            "scenario1", policies=POLICIES, n=TRIAL_N, reps=1, horizon=self.horizon,
            seed=10_000 * self.seed + i, truths=self.truths, workers=1)
        self.tables.append(table)
        return len(POLICIES), sum(p.failures for p in table.policies.values())

    def checks(self):
        return [("no_failed_replications", lambda: checks.no_failed_replications(self.tables)),
                ("eic_solved", lambda: checks.replication_eics_solved(self.tables)),
                ("mean_near_truth",
                 lambda: checks.replication_mean_near_truth(self.tables, self.truths)),
                ("oracle_symmetry", lambda: checks.oracle_symmetry(self.truths))]


class _CliWorkload:
    """A repeated CLI command that writes the panel, then one `estimate` on it."""

    estimate_opts: list = []

    def __init__(self, workdir: Path):
        self.panel_csv = workdir / "panel.csv"
        self.estimate_json = workdir / "estimate.json"

    def plan(self, seconds):
        # prepare is sampled on both sides of the long estimate, so that its
        # median spans the run rather than one stretch of it
        return [("prepare", self.prepare, 1, seconds / 2),
                ("estimate", self.estimate, 1, None),
                ("prepare", self.prepare, 1, seconds / 2)]

    def _cli(self, argv):
        return 1, int(cli.cli_main(argv) != 0)

    def prepare(self, i: int):
        return self._cli(self.prepare_argv)

    def estimate(self, i: int):
        return self._cli(["estimate", "--panel", str(self.panel_csv),
                          "--out", str(self.estimate_json)] + self.estimate_opts)

    def _report_checks(self, panel, cfg, horizon):
        """Checks on the CSV and estimate JSON; ``panel`` builds the panel the
        CSV must hold.  Truths are computed once, untimed; both scenarios
        have p_z = p_zy = 1, so the oracle symmetry holds in each."""
        truths = functools.cache(lambda: harness.compute_truths(
            cfg, POLICIES, horizon, CHECK_NMC, self.seed, n_fit=CHECK_NMC))

        def report():
            with open(self.estimate_json) as fh:
                return json.load(fh)

        return [("panel_csv_matches", lambda: checks.panel_csv_matches(self.panel_csv, panel())),
                ("estimates_targeted", lambda: checks.estimates_targeted(report())),
                ("estimates_near_truth", lambda: checks.estimates_near_truth(report(), truths())),
                ("oracle_symmetry", lambda: checks.oracle_symmetry(truths()))]


class Estimate100k(_CliWorkload):
    """`simulate` a 100 000-subject scenario-1 panel, then `estimate` it."""

    n = 100_000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.seed = seed
        self.prepare_argv = ["simulate", "--scenario", "scenario1", "--n", str(self.n),
                             "--seed", str(seed), "--out", str(self.panel_csv)]

    def checks(self):
        cfg = sim.resolve_scenario("scenario1")
        return self._report_checks(lambda: sim.simulate_trial(cfg, self.n, self.seed), cfg, 5)


class Leader8(_CliWorkload):
    """LEADER-shaped trial: `ingest` event records, then `estimate` with the
    cross-validated two-member super learner."""

    estimate_opts = ["--learner", "main,running_avg", "--folds", "2"]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.seed = seed
        self.cfg = inputs.load_scenario()
        self.panel = sim.simulate_trial(self.cfg, TRIAL_N, seed)
        events = workdir / "events.csv"
        rng = np.random.default_rng([seed, 8])
        inputs.write_event_csv(inputs.event_rows(self.panel, inputs.LEADER_GRID, rng), events)
        grid = ",".join(f"{t:g}" for t in inputs.LEADER_GRID)
        self.prepare_argv = ["ingest", "--events", str(events), "--grid", grid,
                             "--out", str(self.panel_csv)]

    def checks(self):
        return self._report_checks(lambda: self.panel, self.cfg, self.cfg.n_visits)


WORKLOADS = {"replicate-sc1": ReplicateSc1, "estimate-100k": Estimate100k,
             "leader-k8": Leader8}


def _timed(fn, *args, **kwargs):
    t = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t, out


def measure(plan, counts: list | None = None) -> dict:
    """Run the plan's steps in order; samples of one metric are pooled.

    A step ``(metric, function, minimum, fill)`` repeats its function at
    least ``minimum`` times and, when ``fill`` is set, until its repetitions
    add up to ``fill`` seconds; a step whose operations fail stops at its
    minimum, so that a failing operation is attempted a fixed number of
    times.  With ``counts`` step j runs exactly ``counts[j]`` times.
    Functions get the metric's sample index and return (operations
    attempted, operations failed).
    """
    out = {"attempted": 0, "failed": 0, "counts": []}
    for j, (metric, fn, minimum, fill) in enumerate(plan):
        times = out.setdefault(metric, [])
        spent, n, step_failed = 0.0, 0, 0
        while True:
            dt, (attempted, failed) = _timed(fn, len(times))
            times.append(dt)
            spent += dt
            n += 1
            step_failed += failed
            out["attempted"] += attempted
            out["failed"] += failed
            if counts is not None:
                if n >= counts[j]:
                    break
            elif n >= minimum and (fill is None or spent >= fill or step_failed):
                break
        out["counts"].append(n)
    return out


def setup_sampler(root: Path):
    """A plan function timing one fresh interpreter that imports the package
    and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import dropintmle, dropintmle.cli"]

    def sample(i: int):
        # no timeout: with one, the wait polls on a 50 ms sleep and
        # quantizes the measurement
        subprocess.run(cmd, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
        return 0, 0

    return sample


def run_checks(wl) -> list[tuple[str, bool, str]]:
    results = []
    for name, check in wl.checks():
        try:
            results.append(check())
        except Exception as exc:  # a malformed output fails its check, not the run
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        workdir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    wl = WORKLOADS[name](seed, workdir)
    plan = wl.plan(seconds)
    if trace:
        tracer = Tracer()
        tracer.install()
        bindings = tracer.bindings()
        tracer.enabled = True
        try:
            # fixed work (each step its minimum), so per-layer totals compare
            traced = measure(plan, [minimum for _, _, minimum, _ in plan])
        finally:
            tracer.enabled = False
            tracer.uninstall()
        counts = measure(plan, traced["counts"])
        stage_s = {k: sum(m["prepare"]) + sum(m["estimate"])
                   for k, m in (("traced", traced), ("untraced", counts))}
        metrics = summarize(tracer.spans)
        metrics["trace.overhead_s"] = stage_s["traced"] - stage_s["untraced"]
        record = {"bindings": bindings, "stage_s": stage_s, "spans": tracer.spans}
    else:
        setup = setup_sampler(root)
        setup(-1)  # unrecorded: compiles byte code in a fresh checkout
        half = [("setup", setup, SETUP_SAMPLES // 2, None)]
        counts = measure(half + plan + half)
        metrics = {"setup_s": statistics.median(counts["setup"]),
                   "prepare_s": statistics.median(counts["prepare"]),
                   "estimate_s": statistics.median(counts["estimate"]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        record = {"setup": counts["setup"]}
    results = run_checks(wl)
    record.update(prepare=counts["prepare"], estimate=counts["estimate"], checks=results)
    return {
        "correct": all(ok for _, ok, _ in results),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }, record
