import dataclasses

import numpy as np
import pytest

from dropintmle import harness
from dropintmle.engine import EstimateReport
from dropintmle.harness import (
    TABLE_COLUMNS,
    compute_truths,
    emit_report,
    run_replications,
)
from dropintmle.sim import scenario_presets, simulate_trial
from dropintmle.sim import drop_in_trajectory

FAST = dict(n=1200, reps=4, seed=11, n_mc=60_000, workers=1)


@pytest.fixture(scope="module")
def small_table():
    return run_replications("scenario1", policies=("static0", "ignore"), **FAST)


def test_table_row_schema(small_table):
    rows = small_table.rows()
    assert {r["policy"] for r in rows} == {"static0", "ignore"}
    for r in rows:
        assert list(r.keys()) == TABLE_COLUMNS
        assert r["reps"] + r["failures"] == FAST["reps"]
        assert 0.0 <= r["coverage"] <= 1.0
        assert r["norm_ci_len"] >= 0


def test_replication_determinism(tmp_path):
    kw = dict(policies=("ignore",), n=800, reps=3, seed=5, n_mc=40_000)
    t1 = run_replications("scenario1", workers=1, **kw)
    t2 = run_replications("scenario1", workers=2, **kw)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(t1, p1)
    emit_report(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_single_rep_blank_sd(tmp_path):
    t = run_replications("scenario1", policies=("ignore",), n=800, reps=1,
                         seed=5, n_mc=40_000, workers=1)
    row = t.rows()[0]
    assert np.isnan(row["emp_sd"])
    path = tmp_path / "one.csv"
    emit_report(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert lines[1].split(",")[TABLE_COLUMNS.index("emp_sd")] == ""


def test_truths_reusable(small_table):
    cfg = scenario_presets()["scenario1"]
    truths = compute_truths(cfg, ("ignore",), 5, 50_000, 11)
    t = run_replications("scenario1", policies=("ignore",), truths=truths,
                         n=600, reps=2, seed=3, workers=1)
    assert t.policies["ignore"].truth == truths["ignore"][0]


@pytest.mark.parametrize("horizon", [0, 6, 9])
def test_horizon_outside_scenario_rejected(horizon):
    truths = {"ignore": (0.0, 0.0, 0.0, 0.0)}
    with pytest.raises(ValueError, match="K = 5"):
        run_replications("scenario1", policies=("ignore",), truths=truths, n=200,
                         reps=1, horizon=horizon, workers=1)


@pytest.mark.parametrize("kwargs,match", [
    ({"weight_cap": -1.0}, "weight cap"), ({"weight_cap": float("nan")}, "weight cap"),
    ({"g_floor": 0.7}, "g floor"), ({"policies": []}, "no policies"),
    ({"workers": 0}, "workers must be at least 1, got 0"),
    ({"workers": -2}, "workers must be at least 1, got -2"),
], ids=["cap-1", "capnan", "floor0.7", "no-policies", "workers0", "workers-2"])
def test_bad_setting_rejected_before_truths(monkeypatch, kwargs, match):
    def no_truths(*args, **kw):
        raise AssertionError("truths computed before the settings were checked")

    monkeypatch.setattr(harness, "compute_truths", no_truths)
    with pytest.raises(ValueError, match=match):
        run_replications("scenario1", **{"policies": ("ignore",), "n": 200, "reps": 1,
                                         "workers": 1, **kwargs})


def test_gcomp_collection():
    t = run_replications("scenario1", policies=("static0",), n=900, reps=3,
                         seed=7, n_mc=40_000, workers=1,
                         q_learner="intercept",
                         include_gcomp=True)
    pr = t.policies["static0"]
    assert pr.gcomp_estimates is not None and pr.gcomp_estimates.size == 3
    # intercept-only g-computation collapses the arm difference to zero
    assert np.allclose(pr.gcomp_estimates, 0.0, atol=1e-10)


def test_mean_eic_collected(small_table):
    for pr in small_table.policies.values():
        assert pr.mean_eics.size == pr.n_ok
        assert np.max(np.abs(pr.mean_eics)) <= 1e-8


def test_emit_report_json(tmp_path, small_table):
    path = tmp_path / "tab.json"
    emit_report(small_table, path, fmt="json")
    import json

    payload = json.loads(path.read_text())
    assert payload["scenario"] == "scenario1"
    assert len(payload["rows"]) == 2


def test_emit_estimate_report_round_trip(tmp_path):
    rep = EstimateReport(policy="static0", horizon=5, n=100, risk1=0.07123456,
                         risk0=0.1098765, psi=-0.03864194, se=0.00812345,
                         ci_low=-0.0545659, ci_high=-0.0227180, targeted=True,
                         diagnostics={"note": 1.23456789})
    path = tmp_path / "rep.json"
    emit_report(dataclasses.asdict(rep), path)
    import json

    text1 = path.read_text()
    payload = json.loads(text1)
    emit_report(payload, path)
    assert path.read_text() == text1   # canonical serialization round-trips


def test_emit_trajectory(tmp_path):
    panel = simulate_trial(scenario_presets()["scenario1"], 500, 3)
    tr = drop_in_trajectory(panel)
    path = tmp_path / "traj.csv"
    emit_report(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "visit,arm0,arm1,n_at_risk0,n_at_risk1"
    assert len(lines) == 1 + panel.K


def test_unknown_object_rejected(tmp_path):
    with pytest.raises(TypeError):
        emit_report(object(), tmp_path / "x")
