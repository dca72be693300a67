import dataclasses

import numpy as np
import pytest

from dropintmle import harness
from dropintmle.engine import ArmEstimate, EstimateReport, EstimationError
from dropintmle.harness import (
    POLICY_NAMES,
    TABLE_COLUMNS,
    compute_truths,
    emit_report,
    run_replications,
)
from dropintmle.panel import SettingError
from dropintmle.sim import scenario_presets, simulate_trial
from dropintmle.sim import drop_in_trajectory

FAST = dict(n=1200, reps=4, seed=11, n_mc=60_000, workers=1)
#: placeholder truths for runs that check failures, not bias or coverage
ZERO_TRUTHS = {p: (0.0, 0.0, 0.0, 0.0) for p in POLICY_NAMES}


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
    kw = dict(policies=("ignore",), n=800, reps=3, seed=5, n_mc=40_000, include_gcomp=True)
    t1 = run_replications("scenario1", workers=1, **kw)
    t2 = run_replications("scenario1", workers=2, **kw)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(t1, p1)
    emit_report(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # every tallied array, bit for bit, whether or not the results crossed a process pool
    pr1, pr2 = t1.policies["ignore"], t2.policies["ignore"]
    assert pr1.gcomp_estimates is not None and pr1.gcomp_estimates.size == pr1.n_ok
    for f in dataclasses.fields(pr1):
        a, b = getattr(pr1, f.name), getattr(pr2, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


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
    ({"n": 0}, "need at least one subject"), ({"n": -3}, "need at least one subject"),
    ({"q_learner": "bogus"}, r"bogus.*running_avg"),
    ({"q_learner": []}, r"no learner.*running_avg"),
    ({"n_mc": 1}, "n_mc = 1"),
], ids=["cap-1", "capnan", "floor0.7", "no-policies", "workers0", "workers-2", "n0", "n-3",
        "learner-bogus", "learner-empty", "nmc1"])
def test_bad_setting_rejected_before_truths(monkeypatch, kwargs, match):
    def no_truths(*args, **kw):
        raise AssertionError("truths computed before the settings were checked")

    monkeypatch.setattr(harness, "compute_truths", no_truths)
    with pytest.raises(ValueError, match=match):
        run_replications("scenario1", **{"policies": ("ignore",), "n": 200, "reps": 1,
                                         "workers": 1, **kwargs})


def test_unknown_scenario_names_the_presets(monkeypatch):
    def no_truths(*args, **kw):
        raise AssertionError("truths computed for an unknown scenario")

    monkeypatch.setattr(harness, "compute_truths", no_truths)
    with pytest.raises(ValueError, match="unknown scenario 'bogus'.*scenario1"):
        run_replications("bogus", policies=("ignore",), n=200, reps=1, workers=1)


def test_truths_missing_a_policy_rejected_before_any_panel(monkeypatch):
    def no_panel(*args, **kw):
        raise AssertionError("panel simulated before the truths were checked")

    monkeypatch.setattr(harness, "simulate_trial", no_panel)
    with pytest.raises(SettingError, match="truths give no value for dynamic, static0"):
        run_replications("scenario1", policies=("dynamic", "ignore", "static0"),
                         truths={"ignore": ZERO_TRUTHS["ignore"]}, n=300, reps=2, workers=1)


@pytest.mark.parametrize("include_gcomp", [False, True], ids=["tmle", "with-gcomp"])
@pytest.mark.parametrize("failing,reason", [
    ("fit_g", "EstimationError: no subject at risk"),
    # scenario 1's covariates are continuous, so no outcome step can be fitted
    ("q_learner", "DataError: saturated features require binary history columns"),
], ids=["dead-panel", "saturated-learner"])
def test_a_failure_of_every_arm_fails_every_policy(monkeypatch, failing, reason,
                                                   include_gcomp):
    def dead_panel(*args, **kw):
        raise EstimationError("no subject at risk")

    kw = {"q_learner": "saturated"} if failing == "q_learner" else {}
    if failing == "fit_g":
        monkeypatch.setattr(harness, "fit_g", dead_panel)
    t = run_replications("scenario1", policies=("static0", "ignore"), truths=ZERO_TRUTHS,
                         n=300, reps=2, seed=3, workers=1, include_gcomp=include_gcomp, **kw)
    for pr in t.policies.values():
        assert pr.failures == 2 and pr.n_ok == 0 and pr.gcomp_estimates is None
        assert pr.failure_reasons == {reason: 2}


#: (policy, arm, targeted) -> what the pass gives that arm instead of its estimate
INJECTED = {("static0", 1, True): ValueError("active arm"),
            ("static0", 0, True): ValueError("control arm"),
            ("static0", 1, False): ValueError("gcomp arm"),
            ("static1", 0, True): ValueError("control arm"),
            ("static1", 1, False): ValueError("gcomp arm"),
            ("dynamic", 1, True): "unconverged",
            ("dynamic", 0, False): ValueError("gcomp arm"),
            ("ignore", 0, False): ValueError("gcomp arm")}


@pytest.mark.parametrize("include_gcomp", [False, True], ids=["tmle", "with-gcomp"])
def test_a_policy_fails_on_its_first_failure_in_a_fixed_order(monkeypatch, include_gcomp):
    """Active arm, then control arm, then an unconverged fluctuation, then the
    g-computation arms: a policy's failure reason is the first one met."""
    policies = ("static0", "static1", "dynamic", "ignore")
    real = harness.tmle_arm

    def injected(gfit, arms, *args, targeted, **kw):
        results = real(gfit, arms, *args, targeted=targeted, **kw)
        for i, (est, kind) in enumerate(zip(results, targeted)):
            j = i % (2 * len(policies))
            what = INJECTED.get((policies[j // 2], 1 - j % 2, kind))
            assert isinstance(est, ArmEstimate)
            if what == "unconverged":
                results[i] = dataclasses.replace(
                    est, diagnostics={**est.diagnostics, "fluct_converged": False})
            elif what is not None:
                results[i] = what
        return results

    monkeypatch.setattr(harness, "tmle_arm", injected)
    t = run_replications("scenario1", policies=policies, truths=ZERO_TRUTHS, n=300, reps=2,
                         seed=3, workers=1, include_gcomp=include_gcomp)
    assert {p: pr.failure_reasons for p, pr in t.policies.items()} == {
        "static0": {"ValueError: active arm": 2},
        "static1": {"ValueError: control arm": 2},
        "dynamic": {"EstimationError: fluctuation did not converge": 2},
        "ignore": {"ValueError: gcomp arm": 2} if include_gcomp else {}}
    assert [pr.failures for pr in t.policies.values()] == [2, 2, 2, 2 * include_gcomp]
    assert t.policies["ignore"].n_ok == 2 * (not include_gcomp)


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


def test_emit_report_without_path_writes_stdout(tmp_path, capsys):
    payload = {"psi": -0.0386419412, "se": float("nan"), "arm": 1}
    path = tmp_path / "rep.json"
    emit_report(payload, path)
    capsys.readouterr()
    emit_report(payload)
    assert capsys.readouterr().out == path.read_text()


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
