#!/usr/bin/env python3
"""Reproduce the full simulation study.

For each scenario: oracle truths for the five balancing policies, the
replication table (bias / coverage / CI lengths / weight diagnostics), and
the per-arm drop-in trajectories.  The study-scale run uses 2000
replications; pass --reps 500 for a desk-scale pass.

Outputs per scenario: results_<scenario>.csv, trajectory_<scenario>.csv.

Example:
    python scripts/run_simulation_study.py --out results/ --reps 2000
"""

import argparse
import pathlib
import sys
import time

from dropintmle.cli import _at_least
from dropintmle.harness import POLICY_NAMES, emit_report, run_replications
from dropintmle.sim import drop_in_trajectory, scenario_presets, simulate_trial


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--reps", type=_at_least(1), default=2000)
    ap.add_argument("--n", type=_at_least(1), default=9340)
    ap.add_argument("--nmc", type=_at_least(1), default=1_000_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", type=_at_least(1), default=None)
    ap.add_argument("--scenarios", default="scenario1,scenario2,scenario3")
    args = ap.parse_args(argv)
    presets = scenario_presets()
    names = [name.strip() for name in args.scenarios.split(",")]
    unknown = [name for name in names if name not in presets]
    if unknown:
        ap.error(f"unknown scenarios {unknown}; choose from {sorted(presets)}")

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        cfg = presets[name]
        t0 = time.time()
        table = run_replications(name, policies=POLICY_NAMES, n=args.n,
                                 reps=args.reps, seed=args.seed,
                                 n_mc=args.nmc, workers=args.workers)
        emit_report(table, out_dir / f"results_{name}.csv")
        panel = simulate_trial(cfg, args.n, args.seed)
        emit_report(drop_in_trajectory(panel), out_dir / f"trajectory_{name}.csv")
        print(f"{name}: {args.reps} replications in {time.time() - t0:.0f}s")
        for row in table.rows():
            print(f"  {row['policy']:10s} truth={row['truth']:+.4f} "
                  f"mean={row['mean_est']:+.4f} cover={row['coverage']:.3f} "
                  f"norm_len={row['norm_ci_len']:.2f} failures={row['failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
