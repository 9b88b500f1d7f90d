"""Repository hygiene: nothing that .gitignore lists is tracked, so build
output cannot slip back into version control, the benchmark harness
still finds every name it wraps, the benchmark's sweep check passes
on the t = 3..30 sweep, the lattice layer does not reach up into the
discriminant forms built on it, no module imports a name it never uses,
the package exports exactly what its __init__ imports, no function is
kept in the library for the tests alone, and no process-lifetime memo
hides outside the three known ones."""

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


def test_modules_use_every_name_they_import():
    # pyflakes' unused-import check, which the project does not depend on;
    # __init__.py imports to re-export
    for path in sorted((ROOT / "src" / "k3fm").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name}: {sorted(imported - used)}"


def test_all_lists_each_imported_name_once():
    # a name deleted from a module must leave __all__ too: every listed
    # name resolves, and the list is the set of names __init__ imports
    import k3fm

    tree = ast.parse((ROOT / "src" / "k3fm" / "__init__.py").read_text())
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    exported = k3fm.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(k3fm, name)] == []
    assert set(exported) == imported


# module-level functions that nothing in src/k3fm reads and k3fm does not
# export, each with the reason it stays
UNREFERENCED = {
    # perfbench/run.py reads it to label its route, until the benchmark is
    # re-based off the kernels layer (ROADMAP item 1)
    "kernels.compiled_available",
}


def test_every_library_function_has_a_library_caller_or_is_exported():
    # a function only tests call belongs in tests/ as an oracle; names and
    # attributes count as references, docstrings do not
    import k3fm

    defined, used = [], set()
    for path in sorted((ROOT / "src" / "k3fm").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = {name for name in defined
                    if name.split(".")[1] not in used | set(k3fm.__all__)}
    assert unreferenced == UNREFERENCED


MEMOS = ("cache", "lru_cache")


def _memo_sites(tree):
    """(decorated function or None, line) for each use of functools' cache
    or lru_cache in a module, bound by either import form."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname or a.name for a in node.names if a.name in MEMOS)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")

    def is_memo(node):
        if isinstance(node, ast.Name):
            return node.id in names and isinstance(node.ctx, ast.Load)
        return (
            isinstance(node, ast.Attribute)
            and node.attr in MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                decorated[id(target)] = node.name
    return [
        (decorated.get(id(node)), node.lineno) for node in ast.walk(tree) if is_memo(node)
    ]


def test_only_three_process_lifetime_memos():
    # a memo outside the ns_form cache stays warm across the benchmark's
    # cold passes, which clear only ns_form; build_parser's parser holds
    # no results, and the arithmetic records of intmath.modulus (a
    # factorisation and what is read off it, per modulus) are the one
    # known exception, bounded like ns_form
    from k3fm.discforms import ns_form
    from k3fm.intmath import modulus

    found = []
    for path in sorted((ROOT / "src" / "k3fm").glob("*.py")):
        for func, line in _memo_sites(ast.parse(path.read_text())):
            found.append((path.stem, func or f"line {line}"))
    assert sorted(found) == [
        ("cli", "build_parser"), ("discforms", "ns_form"), ("intmath", "modulus")]
    assert modulus.cache_info().maxsize == ns_form.cache_info().maxsize
