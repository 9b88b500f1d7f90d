"""Tests of the benchmark itself, not of k3fm.  From the repository root:

    python3 -m pytest -q perfbench/tests
"""

import ast
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SMALL_MIX = tuple((name, 6) for name, _ in workloads.QUERY_MIX)
SMALL_BIGCELL = (
    ("fm_s", ["fm", "--d", "1", "--t", "5"]),
    ("de_s", ["de", "--d", "6", "--t", "12", "--t-general", "--json"]),
    ("genus_s", ["genus", "--d", "1", "--t", "13"]),
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_same_seed_gives_same_requests():
    a = workloads.query_stream(5)
    assert a == workloads.query_stream(5)
    assert a != workloads.query_stream(6)
    info = workloads.describe_stream(a)
    assert info["requests"] == 1000
    assert info["mix"] == dict(sorted(workloads.QUERY_MIX))
    assert info["json_share"] == 0.5
    assert 0 < info["repeated_dt_share"] < 1
    assert all(int(argv[argv.index("--t") + 1]) <= workloads.QUERY_T_MAX for argv in a)


def test_fm_and_genus_cover_every_t_equally():
    for seed in (0, 1):
        stream = workloads.query_stream(seed)
        for kind in workloads.STRATIFIED:
            ts = sorted(int(a[a.index("--t") + 1]) for a in stream if a[0] == kind)
            assert ts == sorted(3 + i % (workloads.QUERY_T_MAX - 2) for i in range(len(ts)))


def test_generated_requests_pass_their_checks(tmp_path):
    session = run.Session(str(tmp_path))
    p = session.queries_pass(workloads.query_stream(3, mix=SMALL_MIX, t_max=16))
    assert p.attempted == 66
    assert p.errors == []


def test_corrupted_output_is_a_failure(tmp_path, monkeypatch):
    session = run.Session(str(tmp_path))
    real_run = session.cli.run

    def corrupted(request):
        code, text = real_run(request)
        return code, text.translate(str.maketrans("0123456789", "1234567890"))

    stream = workloads.query_stream(4, mix=SMALL_MIX, t_max=16)
    # pair coordinates are checked for range and order only, which a
    # shifted digit can survive; every other number is pinned exactly
    pinned = sum(argv[0] != "pair" and any(c.isdigit() for c in session.request(argv)[2])
                 for argv in stream)
    monkeypatch.setattr(session.cli, "run", corrupted)
    p = session.queries_pass(stream)
    assert p.attempted == len(stream)
    assert 0 < pinned <= p.failed


def test_recorded_values_and_closed_forms_catch_wrong_numbers():
    expected = checks.Expected()
    assert checks.check_request(["fm", "--d", "0", "--t", "100"], 0, "fm=40\n", expected) is None
    assert checks.check_request(["fm", "--d", "0", "--t", "100"], 0, "fm=41\n", expected)
    de = ["de", "--d", "6", "--t", "12"]
    assert checks.check_request(de, 0, "de=8 de_orbits=4 twist_classes=2\n", expected) is None
    assert checks.check_request(de, 0, "de=9 de_orbits=4 twist_classes=2\n", expected)
    assert checks.check_request(de, 3, "", expected) == "exit code 3"


def test_sweep_check_counts_each_bad_cell(tmp_path):
    session = run.Session(str(tmp_path))
    cells = [(d, t) for t in range(3, 6) for d in range(t)]
    csv_path = str(tmp_path / "s.csv")
    _, rc, out, _ = session.request(workloads.sweep_argv(csv_path, (3, 5)))
    with open(csv_path) as fh:
        csv_text = fh.read()
    assert checks.check_sweep(rc, out, csv_text, cells, session.expected) == []
    bad = out.replace("\n1 4 1 0 2 1 1 1 1 ", "\n1 4 1 0 2 1 1 1 7 ")
    bad_csv = csv_text.replace("1,4,1,0,2,1,1,1,1,", "1,4,1,0,2,1,1,1,7,")
    assert bad != out and bad_csv != csv_text
    assert len(checks.check_sweep(rc, bad, bad_csv, cells, session.expected)) == 1
    assert len(checks.check_sweep(rc, bad, csv_text, cells, session.expected)) == 1


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    from k3fm import discforms, surfaces

    original = discforms.isometry_between
    tracer = Tracer()
    session = run.Session(str(tmp_path), tracer)
    tracer.install()
    try:
        assert surfaces.isometry_between is not original
        tracer.reset()
        p = session.bigcell_pass(SMALL_BIGCELL)
        session.cold_cache()
        big = tracer.pass_metrics(*session.caps)
        tracer.reset()
        p2 = session.sweep_pass((3, 8))
        session.cold_cache()
        sweep = tracer.pass_metrics(*session.caps)
    finally:
        tracer.uninstall()
    assert surfaces.isometry_between is original and discforms.isometry_between is original
    assert p.errors == [] and p2.errors == []
    names = [name for name, _, _ in PER_LAYER]
    assert list(big) == names and list(sweep) == names
    assert big["surfaces.fm_count.calls"] == 1
    assert big["kernels.scan_isotropic_elements.calls"] == 1
    assert big["kernels.elements_visited"] == 144
    assert big["kernels.pure_calls"] + big["kernels.compiled_calls"] == (
        big["kernels.scan_isotropic_elements.calls"] + big["kernels.scan_isometries.calls"])
    assert 0 < big["discforms.ns_form.hit_ratio"] < 1
    assert big["cli.sweep_cell.s"] == 0 < sweep["cli.sweep_cell.s"]
    assert sweep["surfaces.fm_count.calls"] == sum(range(3, 9))
    assert sweep["discforms.DFElement.created"] > 0
    assert 0 < sweep["discforms.isometry_between.found_ratio"] <= 1
    assert sweep["surfaces.fm_count.self_s"] <= sweep["surfaces.fm_count.s"]


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        *PER_LAYER, run.TRACE_OVERHEAD]


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_share_no_code_with_the_library():
    with open(os.path.join(BENCH, "checks.py")) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "k3fm" not in imported
