"""Repository hygiene: nothing that .gitignore lists is tracked, so build
output cannot slip back into version control, and the benchmark harness
still finds every name it wraps."""

import importlib.util
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


def test_benchmark_tracer_installs_and_uninstalls():
    path = ROOT / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not in this tree")
    from k3fm import surfaces

    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = surfaces.isometry_between
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert surfaces.isometry_between is not original
    finally:
        tracer.uninstall()
    assert surfaces.isometry_between is original
