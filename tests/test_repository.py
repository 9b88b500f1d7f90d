"""Repository hygiene: nothing that .gitignore lists is tracked, so build
output cannot slip back into version control."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("the project is not the root of a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked but ignored:\n{listed.stdout}"
