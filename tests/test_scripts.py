import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_simulation_study.py"
_spec = importlib.util.spec_from_file_location("run_simulation_study", SCRIPT)
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)


def test_unknown_scenario_is_an_argument_error(tmp_path, capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as info:
        study.main(["--scenarios", "scenario1,nope", "--reps", "1", "--n", "200",
                    "--nmc", "1000", "--workers", "1", "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err and "scenario1" in err and "scenario3" in err
    assert not out.exists()
