"""Trees of files for side-by-side runs: one commit's, or the working tree's."""

from __future__ import annotations

import contextlib
import shutil
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract_ref(ref: str, dest: Path, root: Path = ROOT) -> None:
    """Write the committed files of ``ref`` into ``dest`` with ``git archive``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", ref], cwd=root, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path, root: Path = ROOT) -> None:
    """Copy the working tree's tracked and untracked, non-ignored files into
    ``dest``, uncommitted edits included; a tracked file deleted in the
    working tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, capture_output=True,
                            check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


@contextlib.contextmanager
def ref_tree(ref: str, prefix: str):
    """Yield a temporary directory holding the committed files of ``ref``,
    extracted with ``git archive``; the directory is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        extract_ref(ref, Path(tmp))
        yield Path(tmp)
