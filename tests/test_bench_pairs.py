import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _stdout(correct, failed):
    result = {"correct": correct, "attempted": 3, "failed": failed,
              "metrics": {"estimate_s": {"value": 1.0, "unit": "s"}}}
    return "\n".join([
        "check estimates_targeted: ok (all arms)",
        "check estimates_near_truth: FAILED (max |z| 5.1 (bound 4.5))",
        'machine {"nproc": 2}',
        json.dumps(result),
    ])


def test_incorrect_run_is_named_with_its_failing_checks():
    run = bench_pairs.parse_run(_stdout(False, 0))
    message = bench_pairs.run_failure(run, "leader-k8", "change")
    assert message.startswith("leader-k8 (change side): correct=False, failed=0")
    assert "check estimates_near_truth: FAILED (max |z| 5.1 (bound 4.5))" in message
    assert "estimates_targeted" not in message


def test_failed_operations_stop_a_correct_run():
    run = bench_pairs.parse_run(_stdout(True, 2))
    assert "base side): correct=True, failed=2" in bench_pairs.run_failure(
        run, "replicate-sc1", "base")


def test_clean_run_is_a_sample():
    stdout = _stdout(True, 0).replace("FAILED", "ok")
    assert bench_pairs.run_failure(bench_pairs.parse_run(stdout), "estimate-100k", "base") is None


def test_change_tree_holds_uncommitted_edits(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                        "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("out/\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.py").write_text("")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")   # uncommitted edit
    (repo / "new.py").write_text("Y = 1\n")           # untracked
    (repo / "out").mkdir()
    (repo / "out" / "panel.csv").write_text("ignored\n")
    (repo / "gone.py").unlink()
    with bench_pairs.bench_trees("HEAD", root=repo) as trees:
        base, change = trees["base"], trees["change"]
        assert base.parent == change.parent
        assert (base / "pkg" / "mod.py").read_text() == "X = 1\n"
        assert (change / "pkg" / "mod.py").read_text() == "X = 2\n"
        assert (change / "new.py").read_text() == "Y = 1\n"
        assert (base / "gone.py").exists() and not (change / "gone.py").exists()
        assert not (change / "out").exists()
    assert not base.exists() and not change.exists()


def _runs(values, workload="leader-k8"):
    """Result lines of paired runs: ``values`` maps a metric to its
    (base, change) value per pair."""
    n_pairs = len(next(iter(values.values())))
    return [{"workload": workload, "pair": i, "side": side,
             "result": {"metrics": {m: {"value": v[i][k]} for m, v in values.items()}}}
            for i in range(n_pairs) for k, side in enumerate(("base", "change"))]


def test_summary_counts_wins_by_the_better_direction():
    # ties count for neither side; a higher-better metric wins upwards
    runs = _runs({"estimate_s": [(1.0, 0.9), (1.0, 1.0), (1.0, 0.8), (1.0, 1.1)],
                  "sim.oracle_draws_per_s": [(5.0, 6.0), (5.0, 4.0), (5.0, 7.0), (5.0, 5.0)]})
    rows = bench_pairs.summarize(runs, {"sim.oracle_draws_per_s": "higher"})["leader-k8"]
    assert (rows["estimate_s"]["wins"], rows["estimate_s"]["pairs"]) == (2, 4)
    assert rows["sim.oracle_draws_per_s"]["wins"] == 2


def test_summary_drops_a_pair_without_both_sides():
    runs = _runs({"estimate_s": [(1.0, 0.9), (1.0, 0.8)]})[:-1]
    row = bench_pairs.summarize(runs, {})["leader-k8"]["estimate_s"]
    assert row["pairs"] == 1 and row["base"] == (1.0, 1.0, 1.0)


def test_summary_compares_the_median_gap_with_the_base_iqr():
    # base quartiles 1.05 / 1.1 / 1.15: an IQR of 0.1
    base = [1.0, 1.1, 1.2]
    for change, exceeds in (([1.2, 1.25, 1.3], True), ([1.1, 1.15, 1.2], False),
                            ([0.9, 0.95, 1.0], True)):
        runs = _runs({"estimate_s": list(zip(base, change))})
        row = bench_pairs.summarize(runs, {})["leader-k8"]["estimate_s"]
        assert row["base"] == pytest.approx((1.05, 1.1, 1.15))
        assert row["gap_exceeds_base_iqr"] is exceeds


def test_summary_flags_a_metric_worse_than_its_bound():
    # a change median 1.46x the base median on a lower-better metric with a
    # 0.24 bound is flagged; 1.2x is not, nor is a metric without a bound
    bounds = {"prepare_s": 0.24, "estimate_s": 0.24, "sim.oracle_draws_per_s": 0.1}
    runs = _runs({"prepare_s": [(0.274, 0.40)] * 3, "estimate_s": [(1.0, 1.2)] * 3,
                  "setup_s": [(0.2, 1.0)] * 3,
                  "sim.oracle_draws_per_s": [(100.0, 85.0)] * 3})
    rows = bench_pairs.summarize(runs, {"sim.oracle_draws_per_s": "higher"},
                                 bounds)["leader-k8"]
    assert rows["prepare_s"]["past_bound"] is True
    assert rows["estimate_s"]["past_bound"] is False
    assert rows["setup_s"]["past_bound"] is None
    assert rows["sim.oracle_draws_per_s"]["past_bound"] is True   # 15% lower, higher is better
    better = _runs({"prepare_s": [(0.4, 0.274)] * 3})
    assert bench_pairs.summarize(better, {}, bounds)["leader-k8"]["prepare_s"]["past_bound"] is False


def test_summary_table_names_the_flagged_metrics(capsys):
    runs = _runs({"prepare_s": [(0.274, 0.40)] * 3, "estimate_s": [(1.0, 1.0)] * 3})
    summary = bench_pairs.summarize(runs, {}, {"prepare_s": 0.24, "estimate_s": 0.24})
    bench_pairs.print_summary(summary)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("PAST-BOUND") and lines[2].endswith(" ok")
    assert lines[-1] == "worse than the base by more than the bound: leader-k8 prepare_s (1.460x)"
