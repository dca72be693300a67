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
every output is byte-identical.  Each differing file is named with its
largest absolute numeric drift, its line and the text just before the
number, when the two texts differ only in their numbers and SHA-256 digests
(so rounding noise can be told from a real change, and a drift in a solved
score from one in an estimate), and with "structure differs" otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import re
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
#: every arm estimate at full precision on the scenario-2 and LEADER-shaped
#: panels: each policy with arm 1 and arm 0, targeted and g-computation, as
#: psi's repr, the SHA-256 of the EIC with the repr of its sum and of its
#: max |.|, and the diagnostics JSON, plus each contrast's SE
ARMS = """
import hashlib, json
import numpy as np
from dropintmle import (POLICY_NAMES, ArmPolicy, contrast, fit_g, fit_stochastic_gstar,
                        policy_specs, read_panel_csv, tmle_arm)
PANELS = (("sc2.csv", "running_avg", 10, 8.0, 4),
          ("leader.csv", ["main", "running_avg"], 2, None, 8))
with open("arms.txt", "w") as out:
    for path, learner, folds, cap, horizon in PANELS:
        panel = read_panel_csv(path)
        gfit = fit_g(panel, learner, seed=1, n_folds=folds)
        specs = policy_specs(POLICY_NAMES, lambda: fit_stochastic_gstar(panel, upto=horizon))
        for name, spec in specs.items():
            arms = {}
            for a in (1, 0):
                for targeted in (True, False):
                    est = arms[a, targeted] = tmle_arm(
                        gfit, ArmPolicy(a, spec), learner, horizon, seed=1, n_folds=folds,
                        targeted=targeted, weight_cap=cap)
                    eic = None if est.eic is None else (
                        hashlib.sha256(est.eic).hexdigest(), repr(float(np.sum(est.eic))),
                        repr(float(np.max(np.abs(est.eic)))))
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
TRUTHS = """
import dataclasses, hashlib
from dropintmle import (POLICY_NAMES, ArmPolicy, policy_specs, scenario_presets,
                        simulate_counterfactual_mean, simulate_trial)
from dropintmle.sim import fit_reference_gstar, oracle_risk_difference, oracle_risk_differences
from perfbench import inputs
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
#: one replication table at full precision: the repr of every field of each
#: policy's PolicyReplication (arrays as dtype and list) and of its table row,
#: with g-computation estimates and a weight cap that binds on some
#: replications; static1 fails one of the two (its fluctuation does not converge)
REPLICATIONS = """
import dataclasses
import numpy as np
from dropintmle.harness import run_replications
table = run_replications("scenario1", n=600, reps=2, horizon=4, n_mc=20_000, seed=5,
                         weight_cap=40.0, include_gcomp=True, workers=1)
with open("replications.txt", "w") as out:
    for name, pr in table.policies.items():
        for f in dataclasses.fields(pr):
            value = getattr(pr, f.name)
            if isinstance(value, np.ndarray):
                value = (value.dtype.str, value.tolist())
            print(name, f.name, repr(value), file=out)
        print(name, "row", repr(pr.row(table.scenario)), file=out)
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
    ("replications", ["-c", REPLICATIONS]),
    ("truths", ["-c", TRUTHS]),
    ("oracle", CLI + ["oracle", "--scenario", "scenario1", "--policy", "stochastic_a1",
                      "--nmc", "50000", "--nfit", "50000", "--out", "oracle.json"]),
    ("trajectory", CLI + ["trajectory", "--scenario", "scenario1", "--n", "2000", "--seed", "6",
                          "--out", "trajectory.csv"]),
    ("trajectory_leader", CLI + ["trajectory", "--panel", "leader.csv",
                                 "--out", "leader_trajectory.csv"]),
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


#: a decimal number, nan or inf standing alone (not inside a word such as a
#: hex digest)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|nan|inf|NaN|Infinity)(?![\w.])")
#: a SHA-256 hex digest, standing alone
DIGEST = re.compile(r"(?<!\w)[0-9a-f]{64}(?!\w)")


def numeric_drift(base: str, change: str) -> tuple[float, int, str] | None:
    """The largest absolute difference between corresponding numbers of two
    texts whose other text is identical once SHA-256 digests are masked (0
    for equal spellings, inf where a non-finite value changed), with where
    it is first found: the line number and the line's text before the
    number, in the change text (0 and "" when no number differs).  None
    when the other text differs.  A digest is read through the numbers
    printed beside it."""
    base, change = DIGEST.sub("<digest>", base), DIGEST.sub("<digest>", change)
    if NUMBER.sub("#", base) != NUMBER.sub("#", change):
        return None
    drift, at = 0.0, None
    for a, b in zip(NUMBER.findall(base), NUMBER.finditer(change)):
        if a != b.group():
            d = abs(float(a) - float(b.group()))
            d = d if math.isfinite(d) else math.inf
            if at is None or d > drift:
                drift, at = d, b.start()
    if at is None:
        return drift, 0, ""
    start = change.rfind("\n", 0, at) + 1
    return drift, change.count("\n", 0, at) + 1, change[start:at]


#: characters of a line kept before the number that drifts most
CONTEXT = 60


def drift_note(base: Path, change: Path) -> str:
    """How two versions of one output file differ, as printed by ``main``:
    the largest numeric drift with its line and the text just before it
    on that line (its last CONTEXT characters), so that a drift in a solved
    score can be told from one in an estimate."""
    if not (base.is_file() and change.is_file()):
        return "structure differs"
    site = numeric_drift(base.read_text(errors="replace"), change.read_text(errors="replace"))
    if site is None:
        return "structure differs"
    drift, line, before = site
    note = f"max numeric drift {drift:.3g}"
    if line:
        note += f" at line {line}"
    if before.strip():
        note += f' after "{before[-CONTEXT:].lstrip()}"'
    return note


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
        differs = {name: drift_note(outs["base"] / name, outs["change"] / name)
                   for name in differences(outs["base"], outs["change"])}
        count = len(files(outs["change"]))
    for name, note in differs.items():
        print(f"differs: {name}: {note}", file=sys.stderr)
    if differs:
        return 1
    print(f"{count} files byte-identical between {args.ref} and the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
