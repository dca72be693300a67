import importlib.util
import json
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
