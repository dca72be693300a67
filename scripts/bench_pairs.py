"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pairs.py --ref HEAD --pairs 10 --seed 7 --tag mychange

Runs ``perfbench/run.py --trace 0`` as it stands in each tree.  Both trees
are sibling directories under one temporary directory, removed afterwards,
so both sides read and write alike: the base tree holds the committed files
of ``--ref`` (extracted with ``git archive``), the change tree a copy of the
working tree's tracked and untracked, non-ignored files.  Each pair runs
both sides once per workload with the same seed and the ``run_seconds`` of
BENCHMARK.json, alternating which side goes first.  Every result line and
machine record is written to ``BENCH_<tag>.json`` at the repository
root; the summary printed per workload and metric gives each side's median
and quartiles, the share of pairs the change won (ties count for neither
side), whether the gap between the medians exceeds the base side's spread
between quartiles (IQR), and, for each end-to-end metric, whether the change
median is worse than the base median by more than that metric's relative
``bound`` in BENCHMARK.json.  Such a metric is marked ``PAST-BOUND`` in the
table and named again after it.  A run that reports ``correct: false`` or failed operations
is no sample: the script stops with exit status 1, naming the workload, the
side and the failing check lines.  Run from the repository root, on an
otherwise idle machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reftree import ROOT, copy_working_tree, extract_ref  # noqa: E402  (beside this script)

WORKLOADS = ("replicate-sc1", "estimate-100k", "leader-k8")


@contextlib.contextmanager
def bench_trees(ref: str, root: Path = ROOT):
    """Yield ``{"base": tree, "change": tree}``: the committed files of ``ref``
    and a copy of the working tree of ``root``, side by side in one
    temporary directory that is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        extract_ref(ref, trees["base"], root)
        copy_working_tree(trees["change"], root)
        yield trees


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; returns its result and machine record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """The result object, machine record and check lines of one run's output."""
    lines = stdout.strip().splitlines()
    machine = next(json.loads(ln[len("machine "):]) for ln in lines if ln.startswith("machine "))
    checks = [ln for ln in lines if ln.startswith("check ")]
    return {"result": json.loads(lines[-1]), "machine": machine, "checks": checks}


def run_failure(run: dict, workload: str, side: str) -> str | None:
    """Why a run is no valid sample (a failed check or operation), or None."""
    result = run["result"]
    if result["correct"] and result["failed"] == 0:
        return None
    failing = [ln for ln in run["checks"] if not ln.split(": ", 1)[-1].startswith("ok")]
    return "\n  ".join([f"{workload} ({side} side): correct={result['correct']}, "
                        f"failed={result['failed']}"] + failing)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload and metric: quartiles, the change's win count, whether the
    gap between the medians exceeds the base IQR, and ``past_bound``: for a
    metric with a relative bound in ``bounds``, whether the change median is
    worse than the base median by more than that bound (None without one)."""
    bounds = bounds or {}
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        done = [p for p in pairs.values() if {"base", "change"} <= p.keys()]
        rows = {}
        for metric in done[0]["base"] if done else []:
            base = [p["base"][metric]["value"] for p in done]
            change = [p["change"][metric]["value"] for p in done]
            sign = -1.0 if better.get(metric, "lower") == "higher" else 1.0
            wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
            (q1, med, q3), change_q = quartiles(base), quartiles(change)
            worse = sign * (change_q[1] - med)
            rows[metric] = {"base": (q1, med, q3), "change": change_q, "wins": wins,
                            "pairs": len(done),
                            "gap_exceeds_base_iqr": abs(change_q[1] - med) > q3 - q1,
                            "past_bound": (worse > bounds[metric] * abs(med)
                                           if metric in bounds else None)}
        out[workload] = rows
    return out


def print_summary(summary: dict) -> None:
    print(f"{'workload':15} {'metric':12} {'base q1/median/q3':>30} "
          f"{'change q1/median/q3':>30} {'ratio':>6} {'wins':>6} gap>IQR bound")
    past = []
    for workload, rows in summary.items():
        for metric, row in rows.items():
            b, c = row["base"], row["change"]
            ratio = c[1] / b[1] if b[1] else float("nan")
            flag = {None: "", False: "ok", True: "PAST-BOUND"}[row["past_bound"]]
            print(f"{workload:15} {metric:12} "
                  f"{b[0]:10.4g}{b[1]:10.4g}{b[2]:10.4g} {c[0]:10.4g}{c[1]:10.4g}{c[2]:10.4g} "
                  f"{ratio:6.3f} {row['wins']:>3}/{row['pairs']} "
                  f"{row['gap_exceeds_base_iqr']!s:7} {flag}")
            if row["past_bound"]:
                past.append(f"{workload} {metric} ({ratio:.3f}x)")
    if past:
        print("worse than the base by more than the bound: " + ", ".join(past))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", default="HEAD", help="base commit (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tag", required=True, help="result file is BENCH_<tag>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ref = subprocess.run(["git", "rev-parse", args.ref], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    out_path = ROOT / f"BENCH_{args.tag}.json"
    record = {"base_ref": ref, "change": f"working tree on {head}", "seed": args.seed,
              "seconds": seconds, "pairs": args.pairs, "workloads": list(WORKLOADS),
              "runs": []}

    with bench_trees(ref) as trees:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in WORKLOADS:
                for position, side in enumerate(order):
                    run = run_side(trees[side], workload, args.seed, seconds)
                    failure = run_failure(run, workload, side)
                    if failure:
                        print(f"bad run, stopping (pair {i}):\n  {failure}", file=sys.stderr)
                        return 1
                    record["runs"].append({"workload": workload, "pair": i, "side": side,
                                           "position": position, **run})
                    metrics = run["result"]["metrics"]
                    print(f"pair {i} {workload} {side}: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in metrics.items())
                        + f" failed={run['result']['failed']}", flush=True)
                record["summary"] = summarize(record["runs"], better, bounds)
                out_path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record["summary"])
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
