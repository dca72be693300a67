import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(stem):
    spec = importlib.util.spec_from_file_location(stem, SCRIPTS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


study = load("run_simulation_study")
compare = load("compare_outputs")


def test_unknown_scenario_is_an_argument_error(tmp_path, capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as info:
        study.main(["--scenarios", "scenario1,nope", "--reps", "1", "--n", "200",
                    "--nmc", "1000", "--workers", "1", "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err and "scenario1" in err and "scenario3" in err
    assert not out.exists()


def test_output_comparison_names_the_first_differing_file(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for root in (base, change):
        (root / "sub").mkdir(parents=True)
        (root / "a.csv").write_bytes(b"x,y\r\n1,2\r\n")
        (root / "sub" / "b.json").write_bytes(b'{"psi": 0.125}\n')
    assert compare.first_difference(base, change) is None
    (change / "sub" / "b.json").write_bytes(b'{"psi": 0.135}\n')    # one byte changed
    assert compare.first_difference(base, change) == "sub/b.json"
    (base / "only_base.txt").write_text("x")
    assert compare.first_difference(base, change) == "only_base.txt"
