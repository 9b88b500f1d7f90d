"""Repository hygiene: nothing that .gitignore lists is tracked, so build
output cannot slip back into version control, the benchmark harness
still finds every name it wraps, the benchmark's sweep check passes
on the t = 3..30 sweep, and the lattice layer does not reach up into
the discriminant forms built on it."""

import ast
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


def _load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not in this tree")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls():
    tracing = _load_perfbench("tracing")
    from k3fm import surfaces

    original = surfaces.isometry_between
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert surfaces.isometry_between is not original
    finally:
        tracer.uninstall()
    assert surfaces.isometry_between is original


def test_sweep_passes_the_benchmark_checks(tmp_path, capsys):
    # the benchmark's own checks: closed forms recomputed without k3fm, and
    # FM counts recorded in perfbench/expected.json
    checks = _load_perfbench("checks")
    from k3fm.cli import main

    csv_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--t-min", "3", "--t-max", "30", "--out", str(csv_path)])
    out = capsys.readouterr().out
    cells = [(d, t) for t in range(3, 31) for d in range(t)]
    errors = checks.check_sweep(rc, out, csv_path.read_text(), cells, checks.Expected())
    assert errors == []


def test_lattices_imports_nothing_from_discforms():
    # discforms builds on lattices; an import back, even a deferred one,
    # makes a cycle
    tree = ast.parse((ROOT / "src" / "k3fm" / "lattices.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("discforms" in n.split(".") for n in names), ast.unparse(node)
