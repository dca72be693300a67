"""Byte-identity check: the outputs of a base commit against the working tree.

    python3 scripts/compare_outputs.py --ref HEAD

Runs one fixed list of commands (``COMMANDS``) in each tree: the base side
from the committed files of ``--ref`` (extracted with ``git archive`` into a
temporary directory that is removed afterwards), the change side from the
working tree.  Each side imports its own ``src`` and ``perfbench``, runs with
``OPENBLAS_NUM_THREADS=1`` and writes to the same relative paths of its own
scratch directory; the standard output of command i is kept as
``NN_<name>.stdout``.  Every file is then compared byte for byte.  The
script exits 1 naming every file that differs (or exists on one side only),
or the command that failed and its side, and 0 with the file count when
every output is byte-identical.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reftree import ROOT, ref_tree  # noqa: E402  (the helper beside this script)

CLI = ["-m", "dropintmle.cli"]
LEADER_GRID = ",".join(str(6 * k) for k in range(9))
#: LEADER-shaped long event records (2000 subjects, K = 8, death and
#: censoring on), as the benchmark's leader-k8 workload builds them
LEADER_EVENTS = """
import numpy as np
from dropintmle.sim import simulate_trial
from perfbench import inputs
panel = simulate_trial(inputs.load_scenario(), 2000, 8)
rows = inputs.event_rows(panel, inputs.LEADER_GRID, np.random.default_rng([8, 8]))
inputs.write_event_csv(rows, "events.csv")
"""
#: ``policy_specs(names, fit_stochastic)`` and ``POLICY_NAMES`` in any tree:
#: a tree whose catalogue is ``harness.POLICY_NAMES`` and
#: ``standard_policies(stochastic_spec)`` gets the same function from those
CATALOGUE = """
try:
    from dropintmle.interventions import POLICY_NAMES, policy_specs
except ImportError:
    from dropintmle.harness import POLICY_NAMES
    from dropintmle.interventions import standard_policies

    def policy_specs(names, fit_stochastic):
        specs = standard_policies(fit_stochastic())
        return {name: specs[name] for name in POLICY_NAMES if name in names}
"""
#: every arm estimate at full precision on the scenario-2 and LEADER-shaped
#: panels: each policy with arm 1 and arm 0, targeted and g-computation, as
#: psi's repr, the SHA-256 of the EIC and the diagnostics JSON, plus each
#: contrast's SE
ARMS = CATALOGUE + """
import hashlib, json
from dropintmle import (ArmPolicy, contrast, fit_g, fit_stochastic_gstar, fit_top_step,
                        read_panel_csv, tmle_arm)
PANELS = (("sc2.csv", "running_avg", 10, 8.0, 4),
          ("leader.csv", ["main", "running_avg"], 2, None, 8))
with open("arms.txt", "w") as out:
    for path, learner, folds, cap, horizon in PANELS:
        panel = read_panel_csv(path)
        gfit = fit_g(panel, learner, seed=1, n_folds=folds)
        top = fit_top_step(panel, learner, horizon, seed=1, n_folds=folds)
        specs = policy_specs(POLICY_NAMES, lambda: fit_stochastic_gstar(panel, upto=horizon))
        for name, spec in specs.items():
            arms = {}
            for a in (1, 0):
                for targeted in (True, False):
                    est = arms[a, targeted] = tmle_arm(gfit, ArmPolicy(a, spec), top,
                                                       targeted=targeted, weight_cap=cap)
                    eic = None if est.eic is None else hashlib.sha256(est.eic).hexdigest()
                    diag = json.dumps(est.diagnostics, sort_keys=True)
                    print(path, name, a, targeted, repr(est.psi), eic, diag, file=out)
            print(path, name, "se", repr(contrast(arms[1, True], arms[0, True]).se), file=out)
"""
#: oracle truths at full precision: the repr of every OracleContrast field of
#: all five policies from the one-pass oracle and from ``oracle_risk_difference``,
#: on scenario 1 with discounted averages and death, scenario 2 and the
#: LEADER-shaped scenario (also below K), at a draw count spanning several
#: subject blocks; one natural-course risk (A drawn) and the SHA-256 of a
#: panel spanning several blocks
TRUTHS = CATALOGUE + """
import dataclasses, hashlib
from dropintmle import ArmPolicy, scenario_presets, simulate_counterfactual_mean, simulate_trial
from dropintmle.sim import fit_reference_gstar, oracle_risk_difference
from perfbench import inputs
try:
    from dropintmle.sim import oracle_risk_differences
except ImportError:  # a tree without the one-pass oracle: one policy at a time
    def oracle_risk_differences(config, specs, horizon, n_mc, seed):
        return {name: oracle_risk_difference(config, spec, horizon, n_mc, seed)
                for name, spec in specs.items()}
N_MC = 3 * 2 ** 14 + 1001
sc1, sc2 = scenario_presets()["scenario1"], scenario_presets()["scenario2"]
leader = inputs.load_scenario()
CASES = (("sc1_decay_death", dataclasses.replace(sc1, avg_decay=0.5, death_hazard=0.03), 5),
         ("sc2", sc2, 5), ("leader", leader, 8), ("leader", leader, 3))
with open("truths.txt", "w") as out:
    for label, cfg, horizon in CASES:
        specs = policy_specs(POLICY_NAMES, lambda: fit_reference_gstar(cfg, 20_000, 3))
        for source, truths in (
                ("one-pass", oracle_risk_differences(cfg, specs, horizon, N_MC, 11)),
                ("per-policy", {name: oracle_risk_difference(cfg, spec, horizon, N_MC, 11)
                                for name, spec in specs.items()})):
            for name, oc in truths.items():
                print(label, horizon, source, name, *(repr(getattr(oc, f.name))
                      for f in dataclasses.fields(oc)), file=out)
    natural = simulate_counterfactual_mean(leader, ArmPolicy(None, specs["ignore"]), 8, N_MC, 12)
    print("natural", repr(natural), file=out)
    panel = simulate_trial(leader, N_MC, 13)
    digest = hashlib.sha256()
    for f in dataclasses.fields(panel):
        digest.update(getattr(panel, f.name).tobytes())
    print("panel", digest.hexdigest(), file=out)
"""
MESSY_GRID = "1,4,7,10,13"
#: a messy events file (see ``messy_event_rows``) from a fixed seed, written
#: by this script's own generator on both sides
MESSY_EVENTS = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import numpy as np
from compare_outputs import event_text, messy_event_rows
rng = np.random.default_rng(18)
rows = messy_event_rows(rng, 300, [{MESSY_GRID}])
with open("messy.csv", "w", newline="") as fh:
    fh.write(event_text(rows, rng, "\\r\\n"))
"""
#: ``ingest`` of the messy file in process, keeping its warnings and exit code
MESSY_INGEST = f"""
import warnings
from dropintmle.cli import cli_main
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    code = cli_main(["ingest", "--events", "messy.csv", "--grid", "{MESSY_GRID}",
                     "--out", "messy_panel.csv"])
with open("messy_warnings.txt", "w") as fh:
    fh.write(f"exit {{code}}\\n")
    fh.writelines(f"{{w.category.__name__}}: {{w.message}}\\n" for w in caught)
"""
REPLICATE = CLI + ["replicate", "--scenario", "scenario1", "--n", "600", "--reps", "2",
                   "--horizon", "4", "--nmc", "20000", "--seed", "5", "--workers", "1"]

#: (name, interpreter arguments), run in order in one directory per side
COMMANDS = [
    ("simulate", CLI + ["simulate", "--scenario", "scenario2", "--n", "2000", "--seed", "4",
                        "--out", "sc2.csv"]),
    ("estimate", CLI + ["estimate", "--panel", "sc2.csv", "--weight-cap", "8", "--horizon", "4",
                        "--out", "sc2_estimate.json"]),
    ("events", ["-c", LEADER_EVENTS]),
    ("ingest", CLI + ["ingest", "--events", "events.csv", "--grid", LEADER_GRID,
                      "--out", "leader.csv"]),
    ("estimate_leader", CLI + ["estimate", "--panel", "leader.csv", "--learner",
                               "main,running_avg", "--folds", "2",
                               "--out", "leader_estimate.json"]),
    ("arms", ["-c", ARMS]),
    ("messy_events", ["-c", MESSY_EVENTS]),
    ("ingest_messy", ["-c", MESSY_INGEST]),
    ("ingest_spaced", CLI + ["ingest", "--events", "events.csv", "--visits", "8", "--spacing", "6",
                             "--out", "leader_spaced.csv"]),
    ("replicate_csv", REPLICATE + ["--out", "replicate.csv"]),
    ("replicate_json", REPLICATE + ["--format", "json", "--out", "replicate.json"]),
    ("truths", ["-c", TRUTHS]),
    ("oracle", CLI + ["oracle", "--scenario", "scenario1", "--policy", "stochastic_a1",
                      "--nmc", "50000", "--nfit", "50000", "--out", "oracle.json"]),
    ("trajectory", CLI + ["trajectory", "--scenario", "scenario1", "--n", "2000", "--seed", "6",
                          "--out", "trajectory.csv"]),
]


def messy_event_rows(rng, n: int, grid) -> list[list[str]]:
    """Long event rows (lists of cells) of ``n`` subjects that ingest onto
    ``grid`` without error while touching every rule the event reader keeps:
    repeated baseline and event rows (the last wins), empty value cells, NaN
    and infinite covariate components, tied, on-visit, early and late
    measurement times, endpoints at or before t_0 and on visit times,
    start-start-stop and open-ended exposure runs, integral indicators
    written as floats, and ids holding a comma.  Each subject's rows keep their order;
    subjects interleave.  Uses numpy and the standard library only."""
    grid = [float(t) for t in grid]
    t0, t_last = grid[0], grid[-1]
    d = int(rng.integers(1, 4))
    d_time = int(rng.integers(0, d + 1))

    def num(x):
        return repr(float(x))

    def some_time():
        pick = rng.random()
        if pick < 0.3:
            return grid[int(rng.integers(0, len(grid)))]
        return float(rng.uniform(t0 - 2.0, t_last + 2.0)) if pick < 0.9 else t_last + 1.0

    def flag():
        return str(rng.choice(["0", "1", "1.0", "0.0", "1e0"]))

    def values(k):
        cells = [str(rng.choice(["nan", "inf", "-inf"])) if rng.random() < 0.2
                 else num(rng.normal()) for _ in range(k)]
        for _ in range(int(rng.integers(0, 2))):  # empty cells are skipped
            cells.insert(int(rng.integers(0, len(cells) + 1)), "")
        return cells

    per_subject = []
    for i in range(n):
        sid = f"S,{i}" if rng.random() < 0.1 else f"S{i:03d}"
        rows = []
        for _ in range(int(rng.integers(1, 3))):
            rows.append([sid, "0", "baseline"] + [num(rng.normal()) for _ in range(d)]
                        + [flag(), flag()])
        for _ in range(int(rng.integers(1, 3))):
            t = (max(0.0, some_time()) if rng.random() < 0.8
                 else float(rng.choice([0.0, t0, t0 / 2])))
            rows.append([sid, num(t), "event", str(rng.choice(["0", "1", "2", "1.0"]))])
        meas = []
        for _ in range(int(rng.integers(0, 6))):
            t = meas[-1][1] if meas and rng.random() < 0.25 else num(some_time())
            meas.append([sid, t, "covariate"] + values(d_time))
        rows += meas
        rng.shuffle(rows)  # any order; the exposure rows below keep theirs
        expo, t = [], float(rng.uniform(t0 - 1.0, t_last))
        for _ in range(int(rng.integers(0, 3))):
            if rng.random() < 0.3:  # a start that the next one replaces
                expo.append([sid, num(t), "exposure_start", ""])
                t += float(rng.exponential(1.0))
            start = grid[int(rng.integers(0, len(grid)))] if rng.random() < 0.2 else t
            t = max(t, start)
            expo.append([sid, num(start), "exposure_start"])
            if rng.random() < 0.25:  # left open to the end of follow-up
                break
            t += float(rng.exponential(3.0)) if rng.random() < 0.8 else 0.0
            if rng.random() < 0.2:  # stop on the next visit time
                t = min((g for g in grid if g >= t), default=t)
            expo.append([sid, num(t), "exposure_stop"])
            t += float(rng.exponential(2.0))
        slots = np.sort(rng.integers(0, len(rows) + 1, size=len(expo))).tolist()
        for offset, (slot, row) in enumerate(zip(slots, expo)):
            rows.insert(slot + offset, row)
        per_subject.append(rows)
    # interleave the subjects, each one's rows in order
    owners = np.repeat(np.arange(n), [len(r) for r in per_subject])
    rng.shuffle(owners)
    cursor = [0] * n
    out = []
    for i in owners.tolist():
        out.append(per_subject[i][cursor[i]])
        cursor[i] += 1
    return out


def event_text(rows: list[list[str]], rng, eol: str) -> str:
    """Rows as event CSV text with line end ``eol``: a header wide enough for
    every row, some rows padded with empty cells, some cells quoted (and
    every cell that needs it), and some blank lines."""
    width = max(len(r) for r in rows) - 3

    def cell(c):
        if "," in c or '"' in c or rng.random() < 0.1:
            return '"' + c.replace('"', '""') + '"'
        return c

    lines = [",".join(["id", "time", "kind"] + [f"v{j + 1}" for j in range(width)])]
    for r in rows:
        if rng.random() < 0.5:
            r = r + [""] * (width + 3 - len(r))
        lines.append(",".join(cell(c) for c in r))
        if rng.random() < 0.05:
            lines.append("")
    return eol.join(lines) + eol


def run_commands(tree: Path, out: Path) -> str | None:
    """Run ``COMMANDS`` with the code of ``tree``, writing into ``out``;
    returns why a command failed, or None."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]),
               OPENBLAS_NUM_THREADS="1")
    for i, (name, argv) in enumerate(COMMANDS):
        with open(out / f"{i:02d}_{name}.stdout", "w") as fh:
            proc = subprocess.run([sys.executable, *argv], cwd=out, env=env, stdout=fh,
                                  stderr=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return f"{name} exited {proc.returncode} with the code of {tree}:\n{proc.stderr}"
    return None


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def differences(base: Path, change: Path) -> list[str]:
    """Every file, by relative path, that differs between two directories or
    exists in only one of them; empty when every file is byte-identical."""
    def same(name):
        a, b = base / name, change / name
        return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
    return [name for name in sorted(files(base) | files(change)) if not same(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", default="HEAD", help="base commit (default HEAD)")
    args = ap.parse_args(argv)
    with ref_tree(args.ref, "outputs-base-") as base_tree, \
            tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        outs = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for side, tree in (("base", base_tree), ("change", ROOT)):
            outs[side].mkdir()
            failure = run_commands(tree, outs[side])
            if failure:
                print(f"{side} side: {failure}", file=sys.stderr)
                return 1
        differs = differences(outs["base"], outs["change"])
        count = len(files(outs["change"]))
    for name in differs:
        print(f"differs: {name}", file=sys.stderr)
    if differs:
        return 1
    print(f"{count} files byte-identical between {args.ref} and the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
