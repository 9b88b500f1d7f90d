"""Byte-identity of the command line against recorded outputs.

Each line of ``golden.txt`` is a hash of one request's exit code, stdout
and stderr (and, for ``sweep``, the CSV it writes), then its argv.  A
change that is meant to leave every output alone keeps this test
passing; one that changes an output on purpose re-records the file:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.txt")
SWEEP = ["sweep", "--t-min", "3", "--t-max", "60", "--out", "{csv}"]
FIXED = [
    ["fm", "--d", "0", "--t", "97", "--g-gen", "22,0;0,75", "--g-order", "4", "--json"],
    ["de", "--d", "0", "--t", "97", "--g-gen", "22,0;0,75", "--g-order", "4", "--json"],
    ["lagr", "--d", "30", "--t", "2000", "--list", "--json"],
    ["de", "--d", "6", "--t", "12", "--t-general", "--json"],
    ["de", "--d", "30", "--t", "2000", "--t-general", "--json"],
    ["de", "--d", "0", "--t", "2000", "--json"],
    ["de", "--d", "1", "--t", "2001", "--json"],
    ["de", "--d", "0", "--t", "2", "--json"],
    ["de", "--d", "1", "--t", "1", "--json"],
    ["sweep", "--t-min", "1", "--t-max", "12", "--verify"],
]


def _query_streams():
    """The seed-0 and seed-1 ``queries`` streams of perfbench, or [] when
    perfbench/ is not in this tree."""
    bench = ROOT / "perfbench"
    if not (bench / "workloads.py").is_file():
        return []
    sys.path.insert(0, str(bench))  # workloads imports checks
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
    return workloads.query_stream(0) + workloads.query_stream(1)


def _digest(argv):
    """Hash of exit code, stdout, stderr and any --out file of one request."""
    from k3fm.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        real = [csv.as_posix() if word == "{csv}" else word for word in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(real)
            except SystemExit as exc:
                code = exc.code
        written = csv.read_text() if csv.exists() else ""
    blob = "\0".join([str(code), out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _requests():
    return [SWEEP, *FIXED, *_query_streams()]


def _check(requests):
    recorded = {}
    for line in GOLDEN.read_text().splitlines():
        digest, argv = line.split(" ", 1)
        recorded[argv] = digest
    for argv in requests:
        key = shlex.join(argv)
        assert key in recorded, f"no recorded hash for {key}"
        assert _digest(argv) == recorded[key], f"output differs: {key}"


def test_sweep_and_fixed_requests_match_the_recorded_hashes():
    _check([SWEEP, *FIXED])


def test_query_streams_match_the_recorded_hashes():
    streams = _query_streams()
    if not streams:
        pytest.skip("perfbench/ is not in this tree")
    _check(streams)


if __name__ == "__main__":
    lines = {shlex.join(argv): _digest(argv) for argv in _requests()}
    GOLDEN.write_text("".join(f"{h} {argv}\n" for argv, h in lines.items()))
