import dataclasses
import json
from itertools import combinations

import numpy as np
import pytest

from dropintmle.cli import cli_main
from dropintmle.harness import TABLE_COLUMNS
from dropintmle.panel import read_panel_csv, write_panel_csv
from dropintmle.sim import scenario_presets, simulate_trial


def run(argv):
    return cli_main(argv)


def test_usage_errors():
    assert run(["definitely-not-a-command"]) == 1
    assert run([]) == 1
    assert run(["oracle", "--scenario", "bogus", "--policy", "static_a0_z0"]) == 1
    assert run(["oracle", "--scenario", "scenario1", "--policy", "nonsense"]) == 1


def test_unknown_scenario_is_one_clean_error_line(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["simulate", "--scenario", "bogus", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bogus" in err and "scenario1" in err and '"' not in err
    assert not out.exists()


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


def test_estimate_non_binary_treatment_is_data_error_naming_column_and_visit(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    header, *rows = panel_path.read_text().splitlines()
    first = header.split(",")
    cells = rows[0].split(",")
    cells[first.index("Z2")] = "2"
    panel_path.write_text("\n".join([header, ",".join(cells)] + rows[1:]) + "\n")
    capsys.readouterr()
    assert run(["estimate", "--panel", str(panel_path), "--policies", "static0"]) == 2
    assert "Z has a non-binary value at visit 2 (subject 0)" in capsys.readouterr().err


def test_estimate_panel_without_time_varying_covariates(tmp_path, capsys):
    # K = 5 and no L{k}_* columns: the running averages carry no covariate block
    sim = simulate_trial(scenario_presets()["scenario1"], 400, 3)
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(dataclasses.replace(sim, L=np.zeros((sim.K - 1, sim.n, 0))), panel_path)
    assert not any(c.startswith("L1_") for c in panel_path.read_text().split("\n")[0].split(","))
    out = tmp_path / "est.json"
    assert run(["estimate", "--panel", str(panel_path), "--policies", "static0,ignore",
                "--out", str(out)]) == 0
    capsys.readouterr()
    for rep in json.loads(out.read_text())["policies"].values():
        assert rep["ci_low"] < rep["psi"] < rep["ci_high"]


def test_estimate_saturated_learner_on_continuous_history_is_data_error(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "est.json"
    assert run(["estimate", "--panel", str(panel_path), "--learner", "saturated",
                "--out", str(out)]) == 2
    assert ("data error: saturated features require binary history columns"
            in capsys.readouterr().err)
    assert not out.exists()


def test_estimate_missing_file_is_data_error(tmp_path, capsys):
    assert run(["estimate", "--panel", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "scenario1", "--n", "50", "--out", "{dir}"],
    ["estimate", "--panel", "{dir}"],
], ids=["simulate-out", "estimate-panel"])
def test_directory_path_is_data_error(tmp_path, capsys, argv):
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"Is a directory: '{tmp_path}'" in err
    assert err.count("\n") == 1


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


def test_oracle_takes_one_draw(tmp_path, capsys):
    # one arm's risk has a binomial SE at n = 1, unlike a replicate contrast
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--scenario", "scenario1", "--policy", "static_a0_z0",
                "--nmc", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_mc"] == 1 and payload["mc_se"] == 0.0
    capsys.readouterr()


ORACLE_SPELLINGS = {"static_a0_z0": ("static0", 0), "static_a0_z1": ("static1", 0),
                    "static_a1_z0": ("static0", 1), "static_a1_z1": ("static1", 1),
                    "dynamic_a0": ("dynamic", 0), "dynamic_a1": ("dynamic", 1),
                    "stochastic_a0": ("stochastic", 0), "stochastic_a1": ("stochastic", 1),
                    "ignore_a0": ("ignore", 0), "ignore_a1": ("ignore", 1)}


def test_oracle_policy_grammar(tmp_path, capsys):
    # exactly the ten documented spellings, each naming one arm
    out = tmp_path / "o.json"
    for text, (policy, arm) in ORACLE_SPELLINGS.items():
        assert run(["oracle", "--scenario", "scenario1", "--policy", text,
                    "--nmc", "2000", "--nfit", "2000", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["policy"], payload["arm"]) == (policy, arm)
    capsys.readouterr()


@pytest.mark.parametrize("text", ["dynamic_a0_a1", "a1_static_z0", "STATIC_A0_Z0",
                                  "observational_a1", "z1_a0", "static0_a1", "dynamic"])
def test_oracle_policy_outside_the_table_is_usage_error(tmp_path, capsys, text):
    out = tmp_path / "o.json"
    assert run(["oracle", "--scenario", "scenario1", "--policy", text, "--nmc", "2000",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert text in err and all(spelling in err for spelling in ORACLE_SPELLINGS)
    assert not out.exists()


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


@pytest.mark.parametrize("text,named", [
    ('{"c_z0": -1.5, "c_z": -2.5, "p_z": 1.0, "p_zy": 1.0, "n_visits": "5"}', "n_visits"),
    ('{"c_z0": -1.5, "c_z": -2.5, "p_z": 1.0, "p_zy": 1.0, "n_visits": 2.5}', "n_visits"),
    ('{"c_z0": -1.5, "c_z": -2.5, "p_z": 1.0}', "p_zy"),
    ('{"c_z0": -1.5, "c_z": -2.5, "p_z": -1.0, "p_zy": 1.0}', "nonnegative"),
    ('{"c_z0": -1.5, "c_z": -2.5, "p_z', "line 1"),
    ("[1, 2]", "a scenario is a JSON object"),
], ids=["n_visits-str", "n_visits-float", "missing", "negative", "truncated", "list"])
def test_bad_scenario_config_is_data_error(tmp_path, capsys, text, named):
    # every problem of a scenario file is a data error naming the file, never
    # a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "p.csv"
    for argv in (["simulate", "--n", "10", "--out", str(out)],
                 ["oracle", "--policy", "static_a0_z0", "--nmc", "10"]):
        assert run(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {cfg}: ") and named in err
    assert not out.exists()


SOURCE_COMMANDS = {
    "simulate": ["simulate", "--n", "50"],
    "oracle": ["oracle", "--policy", "static_a0_z0", "--nmc", "50"],
    "replicate": ["replicate", "--policies", "static0", "--n", "50", "--reps", "1",
                  "--nmc", "50", "--workers", "1"],
    "trajectory": ["trajectory", "--n", "50"],
}


@pytest.mark.parametrize("command", SOURCE_COMMANDS)
def test_one_scenario_source_per_command(tmp_path, capsys, command):
    # a command reads its scenario (trajectory: or its panel) from exactly
    # one source: two, or none, is a usage error before any work
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_z0": -1.5, "c_z": -2.5, "p_z": 1.0, "p_zy": 1.0,
                               "n_visits": 3}))
    sources = [["--scenario", "scenario1"], ["--config", str(cfg)]]
    if command == "trajectory":
        panel = tmp_path / "panel.csv"
        write_panel_csv(simulate_trial(scenario_presets()["scenario1"], 50, 1), panel)
        sources.append(["--panel", str(panel)])
    out = tmp_path / "out"
    for given in [a + b for a, b in combinations(sources, 2)] + [[]]:
        assert run(SOURCE_COMMANDS[command] + given + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("not allowed with argument" in err if given
                else "one of the arguments" in err and "is required" in err)
        assert not out.exists()


def test_truncated_request_is_usage_error(tmp_path, capsys):
    request = tmp_path / "request.json"
    request.write_text('{"panel_path": "panel.csv", "lear')
    assert run(["estimate", "--request", str(request)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {request}: ")


def test_policy_order_changes_no_estimate(tmp_path, capsys):
    # the pass runs the policies in one fixed order, whatever order is asked
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario2", "--n", "600",
                "--seed", "4", "--out", str(panel_path)]) == 0
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for policies, out in zip(("dynamic,static0,stochastic", "stochastic,static0,dynamic"), outs):
        assert run(["estimate", "--panel", str(panel_path), "--policies", policies,
                    "--folds", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert set(json.loads(outs[0].read_text())["policies"]) == {"dynamic", "static0",
                                                                  "stochastic"}


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


def test_oracle_horizon_defaults_to_the_scenario_k(tmp_path, capsys):
    # as for replicate: a K = 3 scenario's risk is read at visit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_z0": -1.5, "c_z": -2.5, "p_z": 1.0, "p_zy": 1.0,
                               "n_visits": 3}))
    outs = [tmp_path / "default.json", tmp_path / "k.json"]
    for out, horizon in zip(outs, ([], ["--horizon", "3"])):
        assert run(["oracle", "--config", str(cfg), "--policy", "static_a0_z0", "--nmc", "2000",
                    "--out", str(out)] + horizon) == 0
    capsys.readouterr()
    assert json.loads(outs[0].read_text())["horizon"] == 3
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("given", [["--n", "50"], ["--seed", "2"], ["--seed", "2", "--n", "50"]],
                         ids=["n", "seed", "both"])
def test_trajectory_panel_refuses_simulation_options(tmp_path, capsys, given):
    # --n and --seed size and seed a simulated panel: with --panel they are
    # a usage error, not silently ignored
    panel = tmp_path / "panel.csv"
    write_panel_csv(simulate_trial(scenario_presets()["scenario1"], 50, 1), panel)
    out = tmp_path / "traj.csv"
    assert run(["trajectory", "--panel", str(panel), "--out", str(out)] + given) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(opt in err for opt in given[::2]) and "--panel" in err
    assert not out.exists()


def test_unknown_learner_is_usage_error(tmp_path, capsys):
    # an unknown name, and an empty learner given in any form, are refused
    # before any fit, on estimate and replicate alike
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "t.csv"
    for argv in (["estimate", "--panel", str(panel_path), "--out", str(out)],
                 ["replicate", "--scenario", "scenario1", "--n", "200", "--reps", "1",
                  "--nmc", "2000", "--workers", "1", "--out", str(out)]):
        for learner, named in (("main,bogus", "bogus"), ("", "no learner"),
                               (",", "no learner"), (" ", "no learner")):
            assert run(argv + ["--learner", learner]) == 1
            err = capsys.readouterr().err
            assert named in err and "running_avg" in err
            assert not out.exists()
    request = tmp_path / "request.json"
    for learner in ([], "", ","):
        request.write_text(json.dumps({"panel_path": str(panel_path), "learner": learner}))
        assert run(["estimate", "--request", str(request), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no learner" in err and "running_avg" in err
        assert not out.exists()


def test_request_learner_list(tmp_path, capsys):
    # a request JSON may name the library as a list: it runs like the comma
    # string, and a list with an unknown name is a usage error
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    request = tmp_path / "request.json"
    common = ["--policies", "static0", "--folds", "2"]
    request.write_text(json.dumps({"panel_path": str(panel_path),
                                   "learner": ["main", "running_avg"]}))
    capsys.readouterr()
    assert run(["estimate", "--request", str(request)] + common) == 0
    from_request = capsys.readouterr().out
    assert run(["estimate", "--panel", str(panel_path), "--learner", "main,running_avg"]
               + common) == 0
    assert from_request == capsys.readouterr().out
    request.write_text(json.dumps({"panel_path": str(panel_path),
                                   "learner": ["main", "bogus"]}))
    assert run(["estimate", "--request", str(request)] + common) == 1
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


def test_request_policies_string_and_key_checks(tmp_path, capsys):
    # a request may give its policies as a comma string, like --policies; a
    # value of the wrong type and an unknown key are usage errors naming it
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    request = tmp_path / "request.json"
    capsys.readouterr()
    outputs = []
    for policies in ("static0,ignore", ["static0", "ignore"]):
        request.write_text(json.dumps({"panel_path": str(panel_path), "policies": policies}))
        assert run(["estimate", "--request", str(request), "--folds", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert set(json.loads(outputs[0])["policies"]) == {"static0", "ignore"}
    for extra, named in (({"horizon": "5"}, "'horizon'"), ({"seed": True}, "'seed'"),
                         ({"policies": "static0,bogus"}, "bogus"),
                         ({"horizn": 5}, "horizn")):
        request.write_text(json.dumps({"panel_path": str(panel_path), **extra}))
        assert run(["estimate", "--request", str(request)]) == 1
        assert named in capsys.readouterr().err


def test_non_integer_thread_count_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LTMLE_THREADS", "abc")
    out = tmp_path / "t.csv"
    assert run(["replicate", "--scenario", "scenario1", "--policies", "static0", "--n", "200",
                "--reps", "1", "--nmc", "2000", "--out", str(out)]) == 1
    assert "LTMLE_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_thread_count_below_one_is_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("LTMLE_THREADS", value)
    out = tmp_path / "t.csv"
    assert run(["replicate", "--scenario", "scenario1", "--policies", "static0", "--n", "200",
                "--reps", "1", "--nmc", "2000", "--out", str(out)]) == 1
    assert f"LTMLE_THREADS={value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("opts, named", [
    (["--grid", "0,x,12"], "argument --grid: could not convert string to float: 'x'"),
    (["--grid", "0,nan,12"], "argument --grid: visit grid times must be finite"),
    (["--grid", "0,6,inf"], "argument --grid: visit grid times must be finite"),
    (["--visits", "0"], "argument --visits: 0 is below 1"),
    (["--spacing", "-6"], "argument --spacing: -6 is not a finite number above 0"),
    (["--spacing", "nan"], "argument --spacing: nan is not a finite number above 0"),
], ids=["grid-x", "grid-nan", "grid-inf", "visits0", "spacing-6", "spacing-nan"])
def test_ingest_bad_grid_option_is_usage_error(tmp_path, capsys, opts, named):
    events = tmp_path / "events.csv"
    events.write_text("id,time,kind,v1,v2,v3\n"
                      "p1,0,baseline,0.5,0,1\n"
                      "p1,4.2,event,1,,\n")
    out = tmp_path / "panel.csv"
    assert run(["ingest", "--events", str(events), "--out", str(out)] + opts) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_ingest_overflowing_spaced_grid_is_usage_error_before_reading(tmp_path, capsys):
    # the events file does not exist: the grid is refused before it is read
    out = tmp_path / "panel.csv"
    assert run(["ingest", "--events", str(tmp_path / "missing.csv"), "--visits", "8",
                "--spacing", "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--visits 8 --spacing 1e+308: visit grid times must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("baseline, named", [
    ("p1,0,baseline,0.5,300,1", "subject p1: Z0 holds 300.0, not 0 or 1"),
    ("p1,0,baseline,0.5,0,-129", "subject p1: A0 holds -129.0, not 0 or 1"),
    ("p1,0,baseline,0.5,2,1", "subject p1: Z0 holds 2.0, not 0 or 1"),
], ids=["z0-300", "a0-minus129", "z0-2"])
def test_ingest_indicator_outside_int8_is_data_error(tmp_path, capsys, baseline, named):
    events = tmp_path / "events.csv"
    events.write_text(f"id,time,kind,v1,v2,v3\n{baseline}\np1,4.2,event,1,,\n")
    out = tmp_path / "panel.csv"
    assert run(["ingest", "--events", str(events), "--grid", "0,3,6",
                "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_replicate_json_counts_failure_reasons(tmp_path):
    common = ["replicate", "--scenario", "scenario1", "--n", "600", "--reps", "2",
              "--horizon", "4", "--nmc", "20000", "--seed", "5", "--workers", "1"]
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert run(common + ["--format", "json", "--out", str(out_json)]) == 0
    rows = {r["policy"]: r for r in json.loads(out_json.read_text())["rows"]}
    assert rows["static1"]["failures"] == 1
    assert rows["static1"]["failure_reasons"] == {
        "EstimationError: fluctuation did not converge": 1}
    for r in rows.values():
        assert sum(r["failure_reasons"].values()) == r["failures"]
    assert run(common + ["--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[0] == ",".join(TABLE_COLUMNS)


def test_ingest_malformed_event_row_is_data_error(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("id,time,kind,v1,v2,v3\n"
                      "p1,0,baseline,0.5,0,1\n"
                      "p1,later,event,0,,\n")
    assert run(["ingest", "--events", str(events), "--grid", "0,3,6",
                "--out", str(tmp_path / "panel.csv")]) == 2
    assert "line 3: field time" in capsys.readouterr().err


@pytest.mark.parametrize("opts,named", [
    (["--weight-cap", "-1"], "weight cap"),
    (["--weight-cap", "0"], "weight cap"),
    (["--weight-cap", "nan"], "weight cap"),
    (["--g-floor", "0.7"], "g floor"),
    (["--g-floor", "0.5"], "g floor"),
    (["--folds", "1", "--learner", "main,running_avg"], "--folds"),
    (["--policies", " , "], "policies"),
], ids=["cap-1", "cap0", "capnan", "floor0.7", "floor0.5", "folds1", "no-policies"])
def test_estimate_out_of_range_option_is_usage_error(tmp_path, capsys, opts, named):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "est.json"
    assert run(["estimate", "--panel", str(panel_path), "--out", str(out)] + opts) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra,named", [
    ({"weight_cap": -1}, "weight cap"), ({"g_floor": 0.7}, "g floor"),
    ({"policies": []}, "policies"),
], ids=["cap", "floor", "no-policies"])
def test_request_out_of_range_value_is_usage_error(tmp_path, capsys, extra, named):
    panel_path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "scenario1", "--n", "300",
                "--seed", "3", "--out", str(panel_path)]) == 0
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"panel_path": str(panel_path), **extra}))
    capsys.readouterr()
    assert run(["estimate", "--request", str(request)]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("opts,named", [
    (["--weight-cap", "-1"], "weight cap"), (["--g-floor", "0.7"], "g floor"),
    (["--policies", ","], "policies"),
], ids=["cap", "floor", "no-policies"])
def test_replicate_out_of_range_option_is_usage_error(tmp_path, capsys, opts, named):
    out = tmp_path / "t.csv"
    assert run(["replicate", "--scenario", "scenario1", "--policies", "static0", "--n", "200",
                "--reps", "1", "--nmc", "2000", "--workers", "1", "--out", str(out)] + opts) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


SMALL_REPLICATE = ["replicate", "--scenario", "scenario1", "--policies", "static0", "--n", "200",
                   "--reps", "1", "--nmc", "2000", "--workers", "1"]
SMALL_ORACLE = ["oracle", "--scenario", "scenario1", "--policy", "stochastic_a0",
                "--nmc", "2000", "--nfit", "2000"]


@pytest.mark.parametrize("argv, option, least", [
    (["simulate", "--scenario", "scenario1", "--n", "0"], "--n", 1),
    (["trajectory", "--scenario", "scenario1", "--n", "0"], "--n", 1),
    (SMALL_ORACLE + ["--nmc", "0"], "--nmc", 1),
    (SMALL_ORACLE + ["--nfit", "0"], "--nfit", 1),
    (SMALL_REPLICATE + ["--reps", "0"], "--reps", 1),
    (SMALL_REPLICATE + ["--n", "0"], "--n", 1),
    (SMALL_REPLICATE + ["--nmc", "1"], "--nmc", 2),   # its SE needs two draws
    (SMALL_REPLICATE + ["--workers", "0"], "--workers", 1),
    (["estimate", "--panel", "panel.csv", "--folds", "1"], "--folds", 2),
], ids=["simulate-n", "trajectory-n", "oracle-nmc", "oracle-nfit", "replicate-reps",
        "replicate-n", "replicate-nmc", "replicate-workers", "estimate-folds"])
def test_count_below_its_minimum_is_usage_error(tmp_path, capsys, argv, option, least):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {option}: {least - 1} is below {least}" in err
    assert not out.exists()
