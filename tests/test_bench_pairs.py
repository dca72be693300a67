import importlib.util
import json
import subprocess
from pathlib import Path

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
