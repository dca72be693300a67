import contextlib
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
    assert compare.differences(base, change) == []
    (change / "sub" / "b.json").write_bytes(b'{"psi": 0.135}\n')    # one byte changed
    assert compare.differences(base, change) == ["sub/b.json"]
    (base / "only_base.txt").write_text("x")
    assert compare.differences(base, change) == ["only_base.txt", "sub/b.json"]
    (change / "a.csv").write_bytes(b"x,y\n1,2\n")                  # a second differing file
    assert compare.differences(base, change) == ["a.csv", "only_base.txt", "sub/b.json"]


def test_output_comparison_lists_every_differing_file(tmp_path, monkeypatch, capsys):
    outputs = {"base": {"a.csv": "1", "b.json": "2", "c.txt": "3"},
               "change": {"a.csv": "1", "b.json": "20", "c.txt": "30"}}

    def run_commands(tree, out):
        for name, text in outputs["change" if tree == compare.ROOT else "base"].items():
            (out / name).write_text(text)

    @contextlib.contextmanager
    def ref_tree(ref, prefix):
        yield tmp_path

    monkeypatch.setattr(compare, "run_commands", run_commands)
    monkeypatch.setattr(compare, "ref_tree", ref_tree)
    assert compare.main(["--ref", "parent"]) == 1
    assert capsys.readouterr().err.splitlines() == ["differs: b.json", "differs: c.txt"]
    outputs["change"] = outputs["base"]
    assert compare.main(["--ref", "parent"]) == 0
    assert "3 files byte-identical between parent" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--reps", "--n", "--nmc", "--workers"])
def test_study_count_below_one_is_an_argument_error(tmp_path, capsys, option):
    out = tmp_path / "results"
    argv = {"--reps": "1", "--n": "200", "--nmc": "1000", "--workers": "1"} | {option: "0"}
    with pytest.raises(SystemExit) as info:
        study.main(["--scenarios", "scenario1", "--out", str(out)]
                   + [a for pair in argv.items() for a in pair])
    assert info.value.code == 2
    assert f"{option}: 0 is below 1" in capsys.readouterr().err
    assert not out.exists()
