"""Every name a package, script or test module imports is used in that module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "dropintmle").glob("*.py") if p.name != "__init__.py")
OTHERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
IDS = [p.stem for p in MODULES] + [f"{p.parent.name}/{p.stem}" for p in OTHERS]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom re import sub, match\nsys.exit(sub)\n") \
        == ["os (line 1)", "match (line 3)"]


@pytest.mark.parametrize("path", MODULES + OTHERS, ids=IDS)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_package_and_cli_import_no_scipy():
    # scipy is a test dependency only: the kernels are numpy's
    code = ("import sys, dropintmle, dropintmle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
