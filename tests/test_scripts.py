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
    assert capsys.readouterr().err.splitlines() == [
        "differs: b.json: max numeric drift 18 at line 1",
        "differs: c.txt: max numeric drift 27 at line 1"]
    outputs["change"] = outputs["base"]
    assert compare.main(["--ref", "parent"]) == 0
    assert "3 files byte-identical between parent" in capsys.readouterr().out


def test_output_comparison_reports_numeric_drift(tmp_path):
    def drift(base, change):
        site = compare.numeric_drift(base, change)
        return None if site is None else site[0]

    assert drift('{"psi": 0.125, "se": 2e-3}', '{"psi": 0.125, "se": 2.5e-3}') == 5e-4
    assert drift("a,-1.5,nan\r\n", "a,-1.25,nan\r\n") == 0.25
    assert drift("x 1", "x 1") == 0.0
    assert drift("x nan", "x 1") == float("inf")
    assert drift('{"psi": 1}', '{"phi": 1}') is None                 # a key changed
    assert drift("1 2", "1 2 3") is None                             # a number added
    assert drift("h 3fa9c2", "h 3fa9c3") is None                     # digits of a digest
    d1, d2 = "0a" * 32, "b9" * 32                                    # SHA-256 digests
    assert drift(f"eic ('{d1}', '0.5', '2.25')", f"eic ('{d2}', '0.5', '2.5')") == 0.25
    assert drift(f"eic {d1} 1", f"eic {d2} 1") == 0.0
    assert drift(f"eic {d1} 1", f"eic {d1[:-1]} 1") is None           # not a digest
    assert compare.numeric_drift("a 1\nb 2 3", "a 1\nb 2 3.5") == (0.5, 2, "b 2 ")
    assert compare.numeric_drift("a 1", "a 1") == (0.0, 0, "")
    (tmp_path / "base").mkdir()
    (tmp_path / "change").mkdir()
    for side, text in (("base", "v 1.0000000001e-3\n"), ("change", "v 1e-3\n")):
        (tmp_path / side / "a.txt").write_text(text)
    assert compare.drift_note(tmp_path / "base" / "a.txt", tmp_path / "change" / "a.txt") \
        == 'max numeric drift 1e-13 at line 1 after "v "'
    # the largest drift is named by its line and the text before it: here a
    # solved score (an EIC sum) moved more than the estimate beside it
    for side, (psi, digest, total) in (("base", ("0.125", d1, "1e-09")),
                                       ("change", ("0.125000000001", d2, "1.7e-08"))):
        (tmp_path / side / "arms.txt").write_text(
            f"sc2 static0 1 True 0.5 None {{}}\n"
            f"sc2 static0 1 True {psi} ('{digest}', '{total}', '2.5') {{}}\n")
    before = "sc2 static0 1 True 0.125000000001 ('<digest>', '"
    assert compare.drift_note(tmp_path / "base" / "arms.txt", tmp_path / "change" / "arms.txt") \
        == f'max numeric drift 1.6e-08 at line 2 after "{before}"'
    (tmp_path / "change" / "arms.txt").write_text("x " * 40 + "2\n")
    (tmp_path / "base" / "arms.txt").write_text("x " * 40 + "1\n")
    assert compare.drift_note(tmp_path / "base" / "arms.txt", tmp_path / "change" / "arms.txt") \
        == f'max numeric drift 1 at line 1 after "{"x " * 30}"'
    assert compare.drift_note(tmp_path / "base" / "a.txt",
                              tmp_path / "change" / "b.txt") == "structure differs"


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
