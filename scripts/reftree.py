"""The committed files of one commit, extracted for side-by-side runs."""

from __future__ import annotations

import contextlib
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def ref_tree(ref: str, prefix: str):
    """Yield a temporary directory holding the committed files of ``ref``,
    extracted with ``git archive``; the directory is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)
