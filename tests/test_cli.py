import json

import numpy as np
import pytest

from dropintmle.cli import cli_main
from dropintmle.panel import read_panel_csv


def run(argv):
    return cli_main(argv)


def test_usage_errors():
    assert run(["definitely-not-a-command"]) == 1
    assert run([]) == 1
    assert run(["oracle", "--scenario", "bogus", "--policy", "static_a0_z0"]) == 1
    assert run(["oracle", "--scenario", "scenario1", "--policy", "nonsense"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_simulate_and_estimate_round_trip(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "1500",
                "--seed", "3", "--out", str(panel_path)]) == 0
    panel = read_panel_csv(panel_path)
    assert panel.n == 1500 and panel.K == 5

    out = tmp_path / "est.json"
    assert run(["estimate", "--panel", str(panel_path),
                "--policies", "static0,ignore", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["policies"]) == {"static0", "ignore"}
    rep = payload["policies"]["static0"]
    assert rep["ci_low"] < rep["psi"] < rep["ci_high"]
    capsys.readouterr()


def test_estimate_missing_column_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,L0_1,Z0,A0,Y1,D1\n0,0.0,0,1,0,0\n")
    assert run(["estimate", "--panel", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "C1" in err


@pytest.mark.parametrize("horizon", ["0", "6", "9"])
def test_estimate_horizon_outside_panel_is_usage_error(tmp_path, capsys, horizon):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    capsys.readouterr()
    assert run(["estimate", "--panel", str(panel_path), "--horizon", horizon]) == 1
    assert "K = 5" in capsys.readouterr().err


def test_estimate_malformed_panel_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,L0_1,Z0,A0,Y1,D1,C1\n0,0.1,0,1,0,0,0\n1,0.2,0,1,0,nan,0\n")
    assert run(["estimate", "--panel", str(bad)]) == 2
    assert "column D1" in capsys.readouterr().err


def test_estimate_missing_file_is_data_error(tmp_path, capsys):
    assert run(["estimate", "--panel", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


def test_oracle_json(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--scenario", "scenario1", "--policy", "static_a0_z0",
                "--horizon", "5", "--nmc", "200000", "--seed", "7",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["arm"] == 0 and payload["horizon"] == 5
    assert payload["n_mc"] == 200000
    assert payload["risk"] == pytest.approx(0.114, abs=0.005)
    capsys.readouterr()


def test_oracle_policy_grammar(tmp_path, capsys):
    out = tmp_path / "o.json"
    for text, arm in [("dynamic_a1", 1), ("ignore_a0", 0), ("static_a1_z1", 1)]:
        assert run(["oracle", "--scenario", "scenario1", "--policy", text,
                    "--nmc", "20000", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["arm"] == arm
    capsys.readouterr()


def test_trajectory_from_scenario(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run(["trajectory", "--scenario", "scenario1", "--n", "2000",
                "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("visit,arm0,arm1")
    assert len(lines) == 6
    capsys.readouterr()


def test_replicate_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(["replicate", "--scenario", "scenario1", "--policies",
                "ignore", "--n", "800", "--reps", "2", "--nmc", "40000",
                "--seed", "5", "--workers", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,policy,truth")
    assert len(lines) == 2
    capsys.readouterr()


def test_ingest_round_trip(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(
        "id,time,kind,v1,v2,v3\n"
        "p1,0,baseline,0.5,0,1\n"
        "p1,4.2,event,1,,\n"
        "p1,0.0,covariate,0.5,,\n"
        "p1,3.1,exposure_start,,,\n"
        "p1,5.0,exposure_stop,,,\n"
        "p2,0,baseline,-0.2,1,0\n"
        "p2,100,event,0,,\n"
    )
    out = tmp_path / "panel.csv"
    assert run(["ingest", "--events", str(events), "--grid", "0,3,6,9,12",
                "--out", str(out)]) == 0
    panel = read_panel_csv(out)
    assert panel.n == 2 and panel.K == 4
    assert panel.y_at(2)[0] == 1          # event at 4.2 lands in (3, 6]
    assert panel.z_at(2)[0] == 1          # exposure (3.1, 5.0) overlaps (3, 6]
    assert panel.z_at(1)[0] == 0
    assert panel.c_at(4)[1] == 0 and panel.Y[:, 1].sum() == 0
    capsys.readouterr()


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["simulate", "--scenario", "scenario3", "--n", "400",
                    "--seed", "9", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    for path in (ja, jb):
        assert run(["oracle", "--scenario", "scenario1", "--policy",
                    "static_a0_z0", "--nmc", "30000", "--out", str(path)]) == 0
    assert ja.read_bytes() == jb.read_bytes()
    capsys.readouterr()


def test_scenario_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_z0": -1.5, "c_z": -2.5, "p_z": 1.0,
                               "p_zy": 1.0, "n_visits": 3}))
    out = tmp_path / "p.csv"
    assert run(["simulate", "--config", str(cfg), "--n", "300", "--seed", "2",
                "--out", str(out)]) == 0
    assert read_panel_csv(out).K == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"c_z0": 0, "bogus_field": 1}))
    assert run(["simulate", "--config", str(bad), "--n", "10", "--seed", "1",
                "--out", str(out)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["replicate", "--policies", "static0", "--n", "200", "--reps", "1", "--nmc", "2000",
     "--workers", "1", "--horizon", "9"],
    ["oracle", "--policy", "static_a0_z0", "--nmc", "2000", "--horizon", "9"],
    ["oracle", "--policy", "static_a0_z0", "--nmc", "2000", "--horizon", "0"],
], ids=["replicate-9", "oracle-9", "oracle-0"])
def test_horizon_outside_scenario_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--scenario", "scenario1", "--out", str(out)]) == 1
    assert "K = 5" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_learner_is_usage_error(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    capsys.readouterr()
    for argv in (["estimate", "--panel", str(panel_path)],
                 ["replicate", "--scenario", "scenario1", "--n", "200", "--reps", "1",
                  "--nmc", "2000", "--workers", "1", "--out", str(tmp_path / "t.csv")]):
        assert run(argv + ["--learner", "main,bogus"]) == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "running_avg" in err


def test_ingest_covariate_rows_wider_than_baseline_is_data_error(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(
        "id,time,kind,v1,v2,v3\n"
        "p1,0,baseline,0.5,0,1\n"
        "p1,100,event,0,,\n"
        "p1,4.0,covariate,0.1,0.2,\n"
    )
    assert run(["ingest", "--events", str(events), "--grid", "0,3,6,9,12",
                "--out", str(tmp_path / "panel.csv")]) == 2
    assert "subject p1" in capsys.readouterr().err


def test_stdout_json_is_the_file_text(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "400",
                "--seed", "3", "--out", str(panel_path)]) == 0
    out = tmp_path / "out.json"
    for argv in (["estimate", "--panel", str(panel_path), "--policies", "static0,stochastic"],
                 ["oracle", "--scenario", "scenario1", "--policy", "stochastic_a1",
                  "--nmc", "3000", "--nfit", "3000"]):
        capsys.readouterr()
        assert run(argv) == 0
        printed = capsys.readouterr().out
        assert run(argv + ["--out", str(out)]) == 0
        assert printed == out.read_text()
