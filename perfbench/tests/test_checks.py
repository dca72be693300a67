"""Each correctness check passes on intact output and fails on corrupted output."""

import copy
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dropintmle import harness, panel as panel_mod, sim
from perfbench import checks, inputs
from perfbench.tracing import Tracer, self_times, summarize


def _table(estimates, mean_eics=None, failures=0, policies=("static0", "ignore")):
    est = np.asarray(estimates, dtype=float)
    eics = np.zeros(est.size) if mean_eics is None else np.asarray(mean_eics)
    table = harness.ReplicationTable("scenario1", 100, est.size, 5, 1, 1000)
    for p in policies:
        table.policies[p] = harness.PolicyReplication(
            policy=p, truth=0.0, truth_mc_se=0.0, estimates=est, ses=est * 0 + 0.01,
            covers=est == est, ci_lens=est * 0, max_weights=est * 0 + 1.0,
            mean_eics=eics, gcomp_estimates=None, failures=failures)
    return table


TRUTHS = {"static0": (-0.035, 2e-4, 0.079446, 0.114), "static1": (-0.024, 2e-4, 0.055, 0.079446),
          "ignore": (-0.030, 2e-4, 0.08, 0.11)}


def test_no_failed_replications():
    assert checks.no_failed_replications([_table([0.1])])[1]
    assert not checks.no_failed_replications([_table([0.1]), _table([0.1], failures=1)])[1]


def test_replication_eics_solved():
    assert checks.replication_eics_solved([_table([0.1, 0.2], [1e-17, 3e-9])])[1]
    assert not checks.replication_eics_solved([_table([0.1, 0.2], [1e-17, 2e-6])])[1]


def test_replication_mean_near_truth():
    rng = np.random.default_rng(5)
    tables = [_table([-0.033 + 0.005 * rng.standard_normal()]) for _ in range(8)]
    assert checks.replication_mean_near_truth(tables, TRUTHS)[1]
    shifted = [_table(t.policies["static0"].estimates + 0.05) for t in tables]
    assert not checks.replication_mean_near_truth(shifted, TRUTHS)[1]
    assert not checks.replication_mean_near_truth(tables[:1], TRUTHS)[1]


def test_oracle_symmetry():
    assert checks.oracle_symmetry(TRUTHS)[1]
    broken = dict(TRUTHS, static1=(-0.024, 2e-4, 0.055, 0.079446 + 1e-12))
    assert not checks.oracle_symmetry(broken)[1]


@pytest.fixture(scope="module")
def small_panel():
    return sim.simulate_trial(sim.resolve_scenario("scenario1"), 300, 21)


def _rewrite_cell(path, row, col, text):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_panel_csv_matches(tmp_path, small_panel):
    path = tmp_path / "panel.csv"
    panel_mod.write_panel_csv(small_panel, path)
    assert checks.panel_csv_matches(path, small_panel)[1]
    header = path.read_text().splitlines()[0].split(",")

    flipped = tmp_path / "flipped.csv"
    shutil.copy(path, flipped)
    z = int(small_panel.Z[1, 7])
    _rewrite_cell(flipped, 7, header.index("Z2"), str(1 - z))
    assert not checks.panel_csv_matches(flipped, small_panel)[1]

    nudged = tmp_path / "nudged.csv"
    shutil.copy(path, nudged)
    v = small_panel.L[0, 3, 0]
    _rewrite_cell(nudged, 3, header.index("L1_1"), f"{v * (1 + 1e-8):.10g}")
    assert not checks.panel_csv_matches(nudged, small_panel)[1]


def test_event_encoding_round_trip(tmp_path):
    cfg = inputs.load_scenario()
    source = sim.simulate_trial(cfg, 400, 9)
    assert source.D.any() and source.C.any() and source.Y.any()
    rows = inputs.event_rows(source, inputs.LEADER_GRID, np.random.default_rng(3))
    events = tmp_path / "events.csv"
    inputs.write_event_csv(rows, events)
    ingested = panel_mod.ingest_long_events(panel_mod.read_event_csv(events),
                                            inputs.LEADER_GRID)
    for name in ("L0", "Z0", "A0", "Y", "D", "C", "L", "A", "Z"):
        np.testing.assert_array_equal(getattr(ingested, name), getattr(source, name))
    out = tmp_path / "ingested.csv"
    panel_mod.write_panel_csv(ingested, out)
    assert checks.panel_csv_matches(out, source)[1]

    # move one subject's event into the next visit window
    i = int(np.argmax(source.Y[2] & ~source.Y[1]))
    moved = [list(r) for r in rows]
    for r in moved:
        if r[0] == f"S{i:05d}" and r[2] == "event":
            r[1] += 6.0
    inputs.write_event_csv(moved, events)
    panel_mod.write_panel_csv(panel_mod.ingest_long_events(
        panel_mod.read_event_csv(events), inputs.LEADER_GRID), out)
    assert not checks.panel_csv_matches(out, source)[1]


REPORT = {"policies": {
    p: {"psi": t[0] + 0.001, "se": 0.002,
        "diagnostics": {arm: {"fluct_converged": True, "mean_eic": 1e-17}
                        for arm in ("arm1", "arm0")}}
    for p, t in TRUTHS.items()}}


def test_estimates_targeted():
    assert checks.estimates_targeted(REPORT)[1]
    bad = copy.deepcopy(REPORT)
    bad["policies"]["ignore"]["diagnostics"]["arm0"]["mean_eic"] = -2e-6
    assert not checks.estimates_targeted(bad)[1]
    bad = copy.deepcopy(REPORT)
    bad["policies"]["static0"]["diagnostics"]["arm1"]["fluct_converged"] = False
    assert not checks.estimates_targeted(bad)[1]


def test_estimates_near_truth():
    assert checks.estimates_near_truth(REPORT, TRUTHS)[1]
    bad = copy.deepcopy(REPORT)
    bad["policies"]["static1"]["psi"] += 0.01
    assert not checks.estimates_near_truth(bad, TRUTHS)[1]


def test_self_times_subtract_direct_children():
    spans = [{"name": "a", "parent": None, "start": 0.0, "end": 10.0},
             {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
             {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
             {"name": "b", "parent": 0, "start": 5.0, "end": 6.0}]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_restores(small_panel):
    import dropintmle
    from dropintmle import cli, engine, learners

    orig = learners.fit_binary_glm
    tracer = Tracer()
    tracer.install()
    try:
        bound = tracer.bindings()
        for name in ("dropintmle.fit_binary_glm", "dropintmle.engine.fit_binary_glm",
                     "dropintmle.learners.fit_binary_glm", "dropintmle.cli.read_panel_csv",
                     "dropintmle.harness.tmle_arm", "dropintmle.cli.tmle_arm"):
            assert name in bound
        tracer.enabled = True
        gfit = engine.fit_g(small_panel)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert learners.fit_binary_glm is orig and dropintmle.fit_binary_glm is orig
    assert cli.read_panel_csv is panel_mod.read_panel_csv
    names = {s["name"] for s in tracer.spans}
    assert {"engine.fit_g", "learners.fit_binary_glm", "features.mechanism_design"} <= names
    metrics = summarize(tracer.spans)
    assert metrics["learners.fit_binary_glm.calls"] > 0
    assert metrics["learners.fit_binary_glm.iters"] >= metrics["learners.fit_binary_glm.calls"]
    assert gfit.z_mechs


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(inputs.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(inputs.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leader-k8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
