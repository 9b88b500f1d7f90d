"""CLI surface: byte-exact goldens, canonical-JSON stability, exit codes,
sweep consistency with the single-cell subcommands, CSV export, the
parallel path, and JSON output against the library's values."""

import argparse
import contextlib
import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3fm
from k3fm import budget, intmath
from k3fm.cli import (
    SWEEP_FIELDS,
    SweepVerifyError,
    _sweep_workers,
    _twist_order,
    build_parser,
    main,
)
from k3fm.discforms import ns_form, structure_invariants
from k3fm.errors import CapacityError, InvalidParameterError
from k3fm.lagrangians import GSpec, count_lagrangians, enumerate_lagrangian_elements
from k3fm.lattices import genus_representatives
from k3fm.surfaces import _fm_walk, coprime_jacobian_classes, de_counts, fm_count
from test_repository import _load_perfbench


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN = [
    (
        ["lagr", "--d", "0", "--t", "5", "--json"],
        '{"d":0,"elements":8,"m":5,"omega_m":1,"subgroups":2,"t":5}\n',
    ),
    (["lagr", "--d", "0", "--t", "5"], "elements=8 subgroups=2\n"),
    (["ht", "--d", "6", "--t", "6", "--t-general"], "NonJacobianPartnersExist\n"),
    (
        ["ht", "--d", "6", "--t", "6", "--t-general", "--json"],
        '{"d":6,"ht_class":"NonJacobianPartnersExist","m":6,"omega_m":2,'
        '"t":6,"t_general":true}\n',
    ),
    (["jac", "--t", "6", "--k", "4"], "3\n"),
    (["jac", "--t", "6", "--k", "4", "--json"], '{"index":3,"k":4,"t":6}\n'),
    (
        ["disc", "--d", "3", "--t", "4", "--json"],
        '{"a":2,"b":8,"d":3,"orders":[2,8],"q":["3/2","13/8"],"t":4}\n',
    ),
    (["disc", "--d", "3", "--t", "4"], "a=2 b=8 orders=2,8 q=3/2,13/8\n"),
    (
        ["overlattice", "--d", "0", "--t", "5", "--gens", "1/5,0", "--json"],
        '{"d":0,"det":-1,"gram":[[0,1],[1,0]],"index":5,"t":5}\n',
    ),
    (
        ["overlattice", "--d", "0", "--t", "5", "--gens", "1/5,0"],
        "gram=0,1;1,0 det=-1 index=5\n",
    ),
    # the Hermite basis (1/4, 3/8), (0, 1/8): a non-zero corner
    (
        ["overlattice", "--d", "4", "--t", "8", "--gens", "1/4,-1/8"],
        "gram=2,1;1,0 det=-1 index=8\n",
    ),
    (
        ["overlattice", "--d", "36", "--t", "45", "--gens", "0,1/5", "--json"],
        '{"d":36,"det":-81,"gram":[[72,9],[9,0]],"index":5,"t":45}\n',
    ),
    (
        ["overlattice", "--d", "0", "--t", "6", "--gens", "1/3,0;0,1/2"],
        "gram=0,1;1,0 det=-1 index=6\n",
    ),
    (
        ["caldararu", "--d", "2", "--t", "5", "--r", "0", "--x", "0",
         "--y", "1", "--s", "0", "--json"],
        '{"class":[20],"d":2,"divisibility":5,"q":"0","r":0,"s":0,"t":5,'
        '"x":0,"y":1}\n',
    ),
    (
        ["pair", "--d", "2", "--t", "5", "--json"],
        '{"d":2,"same_subgroup":true,"t":5,"vbar":[5],"vprime":[15]}\n',
    ),
    (["pair", "--d", "2", "--t", "5"], "vbar=5 vprime=15 same_subgroup=true\n"),
    (
        ["genus", "--d", "1", "--t", "5", "--json"],
        '{"d":1,"representatives":[1,4],"t":5}\n',
    ),
    (["fm", "--d", "1", "--t", "5", "--json"], '{"d":1,"fm":2,"g_order":2,"t":5}\n'),
    (
        ["de", "--d", "6", "--t", "6", "--json"],
        '{"b_order":2,"d":6,"de":4,"de_orbits":4,"g_order":2,"t":6,'
        '"t_general":true,"twist_classes":1}\n',
    ),
    (["de", "--d", "6", "--t", "6"], "de=4 de_orbits=4 twist_classes=1\n"),
    (
        ["de", "--d", "1", "--t", "5", "--g-gen", "24", "--g-order", "2", "--json"],
        '{"b_order":2,"d":1,"de":2,"de_orbits":1,"g_order":2,"t":5,'
        '"t_general":false,"twist_classes":2}\n',
    ),
    (
        ["fm", "--d", "0", "--t", "97", "--g-gen", "22,0;0,75", "--g-order", "4",
         "--json"],
        '{"d":0,"fm":24,"g_order":4,"t":97}\n',
    ),
    (
        ["de", "--d", "0", "--t", "97", "--g-gen", "22,0;0,75", "--g-order", "4",
         "--json"],
        '{"b_order":2,"d":0,"de":48,"de_orbits":2,"g_order":4,"t":97,'
        '"t_general":false,"twist_classes":48}\n',
    ),
    (
        ["de", "--d", "1", "--t", "13", "--b-order", "4", "--json"],
        '{"b_order":4,"d":1,"de":6,"de_orbits":1,"g_order":2,"t":13,'
        '"t_general":true,"twist_classes":3}\n',
    ),
    (
        ["de", "--d", "1", "--t", "7", "--b-order", "6", "--json"],
        '{"b_order":6,"d":1,"de":3,"de_orbits":1,"g_order":2,"t":7,'
        '"t_general":true,"twist_classes":1}\n',
    ),
    (
        ["involution", "--d", "6", "--t", "6", "--selector", "2:V,3:Vprime",
         "--json"],
        # the generators of A(0, 6): d enters through d mod t
        '{"d":6,"image_generator":[4,3],"image_selector":{"2":"Vprime","3":"V"},'
        '"source_generator":[3,4],"source_selector":{"2":"V","3":"Vprime"},'
        '"t":6}\n',
    ),
    (
        ["involution", "--d", "6", "--t", "6", "--selector", "2:V,3:Vprime"],
        "source=2:V,3:Vprime image=2:Vprime,3:V\n",
    ),
    (
        ["lagr", "--d", "0", "--t", "2", "--list", "--json"],
        '{"d":0,"elements":[[0,1],[1,0]],"m":2,"omega_m":1,"subgroups":'
        '[{"generator":[1,0],"selector":{"2":"V"}},{"generator":[0,1],'
        '"selector":{"2":"Vprime"}}],"t":2}\n',
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_outputs(argv, expected, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == expected


OVERLATTICE_REFUSALS = [
    (["overlattice", "--d", "3", "--t", "6", "--gens", "1/2,0"],
     "k3fm: generator ('1/2', '0') is not isotropic\n"),
    (["overlattice", "--d", "0", "--t", "6", "--gens", "1/6,0;0,1/6"],
     "k3fm: overlattice pairing is not integral; subgroup invalid\n"),
]


@pytest.mark.parametrize("argv,expected", OVERLATTICE_REFUSALS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_overlattice_refusals(argv, expected, capsys):
    assert run_cli(argv, capsys) == (2, "", expected)


def test_queries_overlattice_requests_pass_the_benchmark_checks(capsys, monkeypatch):
    # every overlattice request of the seed-0 and seed-1 queries streams,
    # checked by the benchmark's own closed forms
    checks = _load_perfbench("checks")
    monkeypatch.syspath_prepend(str(Path(checks.__file__).parent))
    workloads = _load_perfbench("workloads")
    requests = [argv for seed in (0, 1) for argv in workloads.query_stream(seed)
                if argv[0] == "overlattice"]
    assert len(requests) == 132
    for argv in requests:
        code, out, err = run_cli(argv, capsys)
        assert err == ""
        assert checks.check_request(argv, code, out, checks.Expected()) is None, argv


def test_json_round_trip_stability(capsys):
    for argv, expected in GOLDEN:
        if "--json" not in argv:
            continue
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        redump = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
        assert redump + "\n" == out


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_script_commands():
    """The ways to start the ``k3fm`` command that ``pyproject.toml`` declares.

    The first is the wrapper an installer writes for the ``[project.scripts]``
    entry, run by this interpreter against the ``k3fm`` package the suite
    imported, so it needs no install. The second is the installed script,
    wherever one is on PATH."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["k3fm"]
    module, _, func = spec.partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ, PYTHONPATH=str(Path(k3fm.__file__).resolve().parent.parent))
    commands = [([sys.executable, "-c", wrapper], env)]
    exe = shutil.which("k3fm")
    if exe is not None:
        commands.append(([exe], None))
    return commands


def test_console_script_installed():
    argv, expected = GOLDEN[0]  # lagr --d 0 --t 5 --json
    for command, env in console_script_commands():
        proc = subprocess.run(
            command + argv,
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout == expected
        # main()'s return value must reach the shell as the exit status
        proc = subprocess.run(
            command + ["disc", "--d", "1", "--t", "0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stderr.startswith("k3fm: ")


# ------------------------------------------------------------ parser reuse

# One of each outcome main() has: a table and a JSON answer, an argparse
# rejection (missing --t), invalid input, an exceeded budget, an unknown
# subcommand (rejected by the top-level parser), and a valid request
# again after all of them.
REUSE_SEQUENCE = [
    ["disc", "--d", "3", "--t", "4"],
    ["pair", "--d", "2", "--t", "5", "--json"],
    ["fm", "--d", "1"],
    ["disc", "--d", "1", "--t", "0"],
    ["fm", "--d", "0", "--t", "101"],
    ["f", "--d", "3", "--t", "4"],
    ["disc", "--d", "3", "--t", "4"],
]


def _run_sequence(capsys):
    seen = []
    for argv in REUSE_SEQUENCE:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        seen.append((code, out.out, out.err))
    return seen


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch):
    shared = _run_sequence(capsys)
    assert [code for code, _, _ in shared] == [
        0, 0, ("SystemExit", 2), 2, 3, ("SystemExit", 2), 0
    ]
    assert shared[0] == shared[-1]
    monkeypatch.setattr("k3fm.cli.build_parser", build_parser.__wrapped__)
    assert _run_sequence(capsys) == shared


# ----------------------------------------------------- one parse per request

# argv that main() must handle exactly as build_parser().parse_args does:
# help, unknown and abbreviated subcommands, missing, repeated,
# abbreviated, '='-joined and unknown flags, negative values, exclusive
# flags, stray words, '--' and a lone '-', values that are flags or are
# missing, a flag of another subcommand, and dash, empty and signed values.
PARITY_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["fm", "-h"],
    ["disc", "--d", "1", "--t", "5", "--help"],
    ["f", "--d", "1", "--t", "5"],
    ["--d", "1", "disc"],
    ["fm", "--d", "1"],
    ["fm", "--t", "5", "--d", "1", "--d", "2"],
    ["fm", "--d", "1", "--t", "5", "--js"],
    ["de", "--d", "1", "--t", "5", "--t-gen"],
    ["de", "--d", "1", "--t", "5", "--g", "4"],  # --g-order or --g-gen
    ["fm", "--d=1", "--t=5", "--json"],
    ["disc", "--d", "x", "--t", "5"],
    ["disc", "--d", "1", "--t", "5", "--bogus"],
    ["jac", "--t", "5", "--k", "-3"],
    ["jac", "--t", "5", "--k", "2", "--compose", "--l", "-2"],
    ["lagr", "--d", "0", "--t", "5", "--count", "--list"],
    ["disc", "--d", "1", "--t", "5", "extra"],
    ["disc", "--d", "1", "--t", "5", "--"],
    ["disc", "--", "--d", "1", "--t", "5"],
    ["disc", "--d", "1", "--t", "5", "-"],
    ["sweep", "--t-min", "3", "--t-max", "4", "--jobs", "-1"],
    # the edges of main's direct read of the flag table
    ["fm", "--d", "1", "--t", "--json"],
    ["disc", "--d", "1", "--t"],
    ["disc", "--d", "1", "--t", "5", "--k", "3"],
    ["fm", "--d", "1", "--t", "5", "--g-gen", "-1,0;0,-1"],
    ["jac", "--t", "5", "--k", "-.5"],
    ["disc", "--d", "", "--t", "5"],
    ["disc", "--d", "1", "--t", "5", "--json", "--json"],
    ["jac", "--t", "5", "--k", "1", "--canonical", "--index"],
    ["disc", "--d", "-3", "--t", "5"],
    ["disc", "--d", "+3", "--t", "5"],
]


def _outcome(parse, argv, capsys):
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


def _main_namespace(monkeypatch):
    """main() with ``run`` replaced, returning the namespace it parsed."""
    parsed = []

    def record(args):
        parsed.append(args)
        return 0, ""

    monkeypatch.setattr("k3fm.cli.run", record)

    def parse(argv):
        parsed.clear()
        assert main(argv) == 0
        (args,) = parsed
        return args

    return parse


def _parse_args(argv):
    return k3fm.cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("fresh", [False, True], ids=["shared", "fresh"])
@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda v: " ".join(v) or "(none)")
def test_main_parses_like_the_top_level_parser(argv, fresh, capsys, monkeypatch):
    if fresh:
        monkeypatch.setattr("k3fm.cli.build_parser", build_parser.__wrapped__)
    via_main = _main_namespace(monkeypatch)
    expected = _outcome(_parse_args, argv, capsys)
    assert _outcome(via_main, argv, capsys) == expected


def test_main_parses_the_query_streams_like_the_top_level_parser(monkeypatch):
    # workloads.py imports its sibling checks.py by bare name
    monkeypatch.setitem(sys.modules, "checks", _load_perfbench("checks"))
    workloads = _load_perfbench("workloads")
    via_main = _main_namespace(monkeypatch)
    for seed in (0, 1):
        for argv in workloads.query_stream(seed):
            assert via_main(argv) == _parse_args(argv), (seed, argv)


def test_a_valid_request_is_parsed_once(capsys, monkeypatch):
    # a well-formed request is read off the flag table with no argparse
    # pass; any other argv makes exactly the calls of one parse_args
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)

    def route(parse, argv):
        calls.clear()
        with contextlib.suppress(SystemExit):
            parse(argv)
        capsys.readouterr()
        return list(calls)

    for argv in (
        ["disc", "--d", "3", "--t", "4", "--json"],
        ["jac", "--t", "5", "--k", "-3", "--compose", "--l", "-2"],
        ["lagr", "--d", "0", "--t", "5", "--list"],
    ):
        assert route(main, argv) == [], argv
    for argv, expected in (
        (["f", "--d", "3"], ["k3fm"]),
        (["disc", "--d", "3", "--t", "4", "x"], ["k3fm", "k3fm disc"]),
        (["disc", "--d", "3", "--t", "4", "--json", "--json"], ["k3fm", "k3fm disc"]),
    ):
        assert route(main, argv) == route(_parse_args, argv) == expected, argv
    # the benchmark's query streams are all well-formed
    monkeypatch.setitem(sys.modules, "checks", _load_perfbench("checks"))
    workloads = _load_perfbench("workloads")
    via_main = _main_namespace(monkeypatch)
    calls.clear()
    for seed in (0, 1):
        for argv in workloads.query_stream(seed):
            via_main(argv)
    assert calls == []


def test_import_builds_no_parser():
    src = Path(k3fm.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import k3fm.cli; print(k3fm.cli.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_import_builds_no_record_and_factors_nothing():
    # a profiler hook sees every Python-level call into intmath while
    # k3fm.cli is imported; a cache hit would leave a record behind
    src = Path(k3fm.__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "reads = {'_factor', 'modulus', 'is_prime', 'units_mod'}\n"
        "calls = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in reads:\n"
        "        calls.append(frame.f_code.co_name)\n"
        "sys.setprofile(watch)\n"
        "import k3fm.cli\n"
        "sys.setprofile(None)\n"
        "print(k3fm.intmath.modulus.cache_info().currsize, calls)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "0 []\n"), proc.stderr


def _prime_powers_and_divisors(t):
    """The divisors of t and the prime powers dividing t^2: the moduli a
    cell of t may factor (t, m, t/m and the orders of A's p-parts)."""
    out = set()
    for x in range(1, t * t + 1):
        if t * t % x:
            continue
        p = next((q for q in range(2, x + 1) if x % q == 0), None)
        y = x
        while p is not None and y % p == 0:
            y //= p
        if t % x == 0 or y == 1:
            out.add(x)
    return out


def test_a_cold_sweep_factors_each_modulus_once_and_reads_the_budget_once(
    capsys, monkeypatch
):
    factored, parses = Counter(), []
    factor, parse = intmath._factor, budget._parse_budget

    def counted_factor(n):
        factored[n] += 1
        return factor(n)

    def counted_parse():
        parses.append(os.environ.get("K3FM_BUDGET"))
        return parse()

    monkeypatch.setattr(intmath, "_factor", counted_factor)
    monkeypatch.setattr(budget, "_parse_budget", counted_parse)
    monkeypatch.setenv("K3FM_BUDGET", "4000000")
    intmath.modulus.cache_clear()
    ns_form.cache_clear()
    code, out, err = run_cli(["sweep", "--t-min", "3", "--t-max", "30"], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + sum(range(3, 31))
    # one factorisation per distinct modulus, and only of t, its divisors,
    # the orders of A's p-parts and the order 2 of G = {+-1}
    assert factored and max(factored.values()) == 1, factored.most_common(3)
    allowed = {2}.union(*(_prime_powers_and_divisors(t) for t in range(3, 31)))
    assert set(factored) <= allowed, set(factored) - allowed
    assert parses == ["4000000"]
    for argv in (
        ["fm", "--d", "6", "--t", "30"],
        ["de", "--d", "6", "--t", "12"],
        ["lagr", "--d", "30", "--t", "60", "--list"],
        ["genus", "--d", "1", "--t", "97"],
    ):
        parses.clear()
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        assert len(parses) <= 1, argv
    # outside cli.main each read parses afresh, so a later setenv is seen
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        enumerate_lagrangian_elements(1, 5)
    monkeypatch.setenv("K3FM_BUDGET", "25")
    assert len(enumerate_lagrangian_elements(1, 5)) == 4


def test_invalid_budget_fails_only_requests_that_read_it(capsys, monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "abc")
    # genus reads the cap for its walk over the units mod t/m
    for sub, want in (("genus", 2), ("disc", 0), ("fm", 2)):
        code, out, err = run_cli([sub, "--d", "1", "--t", "5"], capsys)
        assert code == want, (sub, out, err)
    assert err == "k3fm: K3FM_BUDGET must be a positive integer, got 'abc'\n"
    # the failed request keeps nothing: a library call reads the new value
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        enumerate_lagrangian_elements(1, 5)


def test_counts_at_a_large_t_build_no_unit_list(capsys):
    # lagr --count and ht read t's factorisation only; the units mod t and
    # the CRT idempotents stay unbuilt on t's record
    t = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    for argv in (["lagr", "--d", "30", "--t", str(t)], ["ht", "--d", "30", "--t", str(t)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
    assert "units" not in vars(intmath.modulus(t))
    assert "idempotents" not in vars(intmath.modulus(t))


# ----------------------------------------------------------------- errors


def test_exit_code_invalid_input(capsys):
    for argv in [
        ["disc", "--d", "1", "--t", "0"],
        ["jac", "--t", "6", "--k", "4", "--compose"],  # missing --l
        ["involution", "--d", "6", "--t", "6", "--selector", "5:V"],
        ["involution", "--d", "6", "--t", "6", "--selector", "2:W,3:V"],
        ["overlattice", "--d", "0", "--t", "5", "--gens", "nonsense"],
        ["caldararu", "--d", "2", "--t", "5", "--r", "1", "--x", "0",
         "--y", "0", "--s", "1"],  # square -2
        ["fm", "--d", "1", "--t", "5", "--g-order", "3"],  # odd order
        ["de", "--d", "1", "--t", "5", "--g-gen", "7"],  # 7 breaks q
        ["de", "--d", "1", "--t", "7", "--b-order", "4"],  # -1 not a square mod 7
        ["de", "--d", "1", "--t", "5", "--b-order", "6"],  # no order-6 units mod 5
        ["de", "--d", "1", "--t", "5", "--b-order", "3"],
        ["de", "--d", "1", "--t", "2", "--b-order", "4"],
        ["sweep", "--t-min", "0", "--t-max", "2"],
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("k3fm: ")


def test_exit_code_capacity(capsys, monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "10")
    code, out, err = run_cli(["lagr", "--d", "1", "--t", "5", "--list"], capsys)
    assert code == 3
    assert "budget" in err


def test_genus_is_not_budgeted(capsys, monkeypatch):
    # genus is arithmetic in t: the cap bounds its walk over the
    # phi(200) = 80 units, not |A| = 40,000; fm still enumerates O(A_p)
    # on each p-primary part under the cap (here parts of 2^6 and 5^4
    # elements)
    monkeypatch.setenv("K3FM_BUDGET", "100")
    code, out, err = run_cli(["genus", "--d", "1", "--t", "200"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("representatives=")
    code, out, err = run_cli(["fm", "--d", "1", "--t", "200"], capsys)
    assert code == 3
    assert "budget" in err


def test_fm_budget_bounds_the_largest_primary_part(capsys, monkeypatch):
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    # |A| = 30030^2 / 30, but no part exceeds 13^2 = 169 elements
    code, out, err = run_cli(["fm", "--d", "30", "--t", "30030"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("fm=")
    # t = 101 is prime: one part of 101^2 = 10,201 > 10,000 elements
    code, out, err = run_cli(["fm", "--d", "0", "--t", "101"], capsys)
    assert (code, out) == (3, "")
    assert "budget" in err
    # the error names the part: |A| = 1000^2, the part at 5 is Z/5^6
    code, out, err = run_cli(["fm", "--d", "6", "--t", "1000"], capsys)
    assert (code, out) == (3, "")
    assert "the order of Z/15625, a group scanned for isometries, is 15625" in err
    argv = ["sweep", "--t-min", "100", "--t-max", "101", "--d-max", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert "budget" in err


def test_fm_budget_bounds_the_genus_walk(capsys, monkeypatch):
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    # 8633 = 89 * 97: both parts are under the isometry cap, but the walk
    # over the genus is phi(t) * (89^2 + 97^2) = 146,403,840 > 4,000,000;
    # the closed form for G = +-1 walks no genus, so fm answers
    with pytest.raises(CapacityError, match="genus walk is 146403840"):
        _fm_walk(1, 8633, GSpec.sign_group(ns_form(1, 8633).form))
    assert run_cli(["fm", "--d", "1", "--t", "8633"], capsys) == (0, "fm=2114\n", "")
    # 3565 = 5 * 23 * 31 walks 3,999,600, just under the cap
    code, out, err = run_cli(["fm", "--d", "1", "--t", "3565"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("fm=")


def test_fm_genus_walk_runs_over_the_units_mod_t_over_m(capsys, monkeypatch):
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    # m = t: one genus class, a walk of phi(1) * sum_p p^2, not phi(t) * ...
    code, out, err = run_cli(["fm", "--d", "0", "--t", "510510"], capsys)
    assert (code, out, err) == (0, "fm=2949120\n", "")


def test_fm_refuses_a_large_prime_t_at_once(capsys, monkeypatch):
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(["fm", "--d", "1", "--t", "100000007"], capsys)
    assert (code, out) == (3, "")
    assert "budget" in err
    assert time.perf_counter() - start < 1.0


def test_every_subcommand_survives_a_huge_smooth_t(capsys, monkeypatch):
    # 2^61 and 10^18 factor at once, the primes 10^18 + 3 and 2^61 - 1 by
    # one Miller-Rabin proof, and (10^9 + 7)(10^9 + 9) by rho, but a list
    # of their units would not fit in memory: each request answers or is
    # refused with one line
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    huge = (2**61, 10**18, 10**18 + 3, (10**9 + 7) * (10**9 + 9), 2**61 - 1)
    for t in map(str, huge):
        dt = ["--d", "1", "--t", t]
        for argv in (
            ["disc", *dt], ["lagr", *dt], ["lagr", *dt, "--list"], ["pair", *dt],
            ["involution", *dt], ["genus", *dt], ["fm", *dt], ["de", *dt],
            ["de", *dt, "--b-order", "4"], ["de", *dt, "--b-order", "6"],
            ["ht", *dt], ["jac", "--t", t, "--k", "1"],
            ["overlattice", *dt, "--gens", "1,0"],
            ["caldararu", *dt, "--r", "0", "--x", "0", "--y", "1", "--s", "0"],
            ["sweep", "--t-min", t, "--t-max", t, "--d-min", "1", "--d-max", "1"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code in (0, 2, 3), argv
            assert "Traceback" not in err and err.count("\n") == (code != 0), argv
    assert run_cli(["genus", "--d", "1", "--t", str(2**61)], capsys)[0] == 3
    # no root of -1 mod any of them: refused from t's primes, not a walk
    for t in huge:
        argv = ["de", "--d", "1", "--t", str(t), "--b-order", "4"]
        assert run_cli(argv, capsys)[0] == 2, argv
    # a unit of order 3 exists mod the last three (each has a prime 1 mod
    # 3), and twist_classes is phi(t)/6, with phi(t) written out here
    phis = {10**18 + 3: 10**18 + 2, (10**9 + 7) * (10**9 + 9): (10**9 + 6) * (10**9 + 8),
            2**61 - 1: 2**61 - 2}
    for t in huge:
        argv = ["de", "--d", "1", "--t", str(t), "--b-order", "6", "--json"]
        code, out, err = run_cli(argv, capsys)
        if t in phis:
            assert code == 0 and json.loads(out)["twist_classes"] == phis[t] // 6, argv
        else:
            assert code == 2 and err.startswith("k3fm: no cyclic order-6"), argv


def _brute_twist_root(t, order):
    """A unit x mod t with x^2 = -1 (order 4) or x of order 3 (order 6),
    by a search over every residue, or None."""
    if order == 4:
        return next((x for x in range(t) if (x * x + 1) % t == 0), None)
    return next((x for x in range(2, t) if (x * x * x - 1) % t == 0), None)


def test_b_orders_4_and_6_exist_where_the_prime_rules_say():
    # an order-4 B needs x^2 = -1 mod t, an order-6 one x^3 = -1 with
    # x^2 != 1, that is -x of order 3
    for t in range(3, 3001):
        for order in (4, 6):
            found = _brute_twist_root(t, order) is not None
            try:
                got = _twist_order(t, order)
            except InvalidParameterError:
                assert not found, (t, order)
            else:
                assert found and got == order, (t, order)


def test_b_order_outside_2_4_6_is_named_at_every_t(capsys):
    # the value is checked before t: at t <= 2 too, 0, -1, 3 and 5 are
    # refused as values, not as orders above 2
    for t in (1, 2, 5):
        for order in (0, -1, 3, 5):
            argv = ["de", "--d", "1", "--t", str(t), "--b-order", str(order)]
            want = f"k3fm: --b-order must be 2, 4 or 6, got {order}\n"
            assert run_cli(argv, capsys) == (2, "", want), argv


def test_de_b_order_walks_no_unit_of_t(capsys, monkeypatch):
    # |B| is read off t's primes; a huge prime t is arithmetic
    def walk(t):
        raise AssertionError("units walked")

    monkeypatch.setattr("k3fm.cli.units_mod", walk)
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    for argv, out in (
        (["de", "--d", "1", "--t", "13", "--b-order", "4"],
         "de=6 de_orbits=1 twist_classes=3\n"),
        (["de", "--d", "1", "--t", "7", "--b-order", "6"],
         "de=3 de_orbits=1 twist_classes=1\n"),
        (["de", "--d", "1", "--t", "1000000009", "--b-order", "4"],
         "de=500000004 de_orbits=1 twist_classes=250000002\n"),
    ):
        assert run_cli(argv, capsys) == (0, out, ""), argv


def test_fm_reads_the_least_genus_member_without_a_genus_walk(capsys, monkeypatch):
    def walk(d, t):
        raise AssertionError("genus walked")

    monkeypatch.setattr("k3fm.surfaces.genus_representatives", walk)
    argv = ["fm", "--d", "1", "--t", "9699690"]
    assert run_cli(argv, capsys) == (0, "fm=414752\n", "")


def test_a_t_past_the_proven_primality_bound_exits_3(capsys, monkeypatch):
    # the product of two 20-digit primes is past Miller-Rabin's proven
    # bound: refused at once, with one line
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    t = str(10000000000000000051 * 20000000000000000011)
    for argv in (["fm", "--d", "1", "--t", t], ["lagr", "--d", "1", "--t", t]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"k3fm: factoring {t}: ") and err.count("\n") == 1, err


def test_import_and_a_disc_request_load_no_dataclasses_or_inspect():
    # the value classes are written out, so no module that compiles or
    # inspects source is needed; -S keeps site's own imports out
    src = Path(k3fm.__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "import k3fm.cli\n"
        "code = k3fm.cli.main(['disc', '--d', '1', '--t', '5'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "a=1 b=25 orders=25 q=48/25\n0 []\n"), proc.stderr


def test_non_isometry_g_gen_is_refused(capsys):
    # x -> 7x is an automorphism of Z/25 of order 4, but it breaks q
    for cmd in ("fm", "de"):
        argv = [cmd, "--d", "1", "--t", "5", "--g-gen", "7", "--g-order", "4"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err == "k3fm: q not preserved on generator 0\n", argv
    # -id passes without the check, in either spelling
    for images in ("24", "-1"):
        argv = ["fm", "--d", "1", "--t", "5", "--g-gen", images]
        assert run_cli(argv, capsys) == (0, "fm=2\n", "")


def test_exit_code_verify_failure(capsys, monkeypatch):
    def boom(d, t, row):
        raise SweepVerifyError(f"cell d={d} t={t}: forced mismatch")

    monkeypatch.setattr("k3fm.cli._verify_cell", boom)
    code, out, err = run_cli(
        ["sweep", "--t-min", "3", "--t-max", "3", "--verify"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("k3fm: verification failed:")


# ------------------------------------------------------------------ sweep


def test_sweep_table_shape(capsys):
    code, out, _ = run_cli(["sweep", "--t-min", "3", "--t-max", "5"], capsys)
    assert code == 0
    lines = out.strip("\n").split("\n")
    assert lines[0] == " ".join(SWEEP_FIELDS)
    assert len(lines) == 1 + 3 + 4 + 5  # full d range per t


def test_sweep_verify_passes(capsys):
    code, out, _ = run_cli(
        ["sweep", "--t-min", "3", "--t-max", "5", "--verify"], capsys
    )
    assert code == 0
    assert len(out.strip("\n").split("\n")) == 13


def test_sweep_verify_up_to_t12(capsys):
    code, _, _ = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "12", "--verify"], capsys
    )
    assert code == 0


def test_sweep_verify_checks_fm_when_m_is_one(capsys, monkeypatch):
    # gcd(d, t) = 1 cells compare fm with the count of Jacobian classes
    monkeypatch.setattr(
        "k3fm.cli.fm_count", lambda d, t, g: fm_count(d, t, g) + 1
    )
    code, out, err = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "12", "--verify"], capsys
    )
    assert code == 1
    assert out == ""
    assert "classes of Jacobians" in err


def test_sweep_verify_checks_fm_against_the_genus_walk(capsys, monkeypatch):
    # the sign group's closed form is checked against the class-by-class
    # Burnside walk on every row
    walk = k3fm.cli._fm_walk
    monkeypatch.setattr(
        "k3fm.cli._fm_walk", lambda d, t, g: walk(d, t, g) + ((d, t) == (2, 6))
    )
    code, out, err = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "12", "--verify"], capsys
    )
    assert code == 1
    assert out == ""
    assert "cell d=2 t=6: fm=1 but the genus walk gives 2" in err


def test_sweep_verify_checks_de_against_the_subgroup_walk(capsys, monkeypatch):
    # the sign group's closed DE counts are checked against the Burnside
    # walk over the Lagrangian subgroups on every row
    walk = k3fm.cli._de_walk

    def off_by_one(d, t, g):
        de, orbits = walk(d, t, g)
        return de + ((d, t) == (2, 6)), orbits

    monkeypatch.setattr("k3fm.cli._de_walk", off_by_one)
    code, out, err = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "12", "--verify"], capsys
    )
    assert code == 1
    assert out == ""
    assert "cell d=2 t=6: de=2 de_orbits=2 but the subgroup walk gives 3 and 2" in err


def test_de_sign_group_past_the_element_budget_is_the_closed_form(capsys):
    # -id given as --g-gen is not T-general, and |A| = 2001^2 is over the
    # element budget: the closed form answers unscanned
    code, out, err = run_cli(
        ["de", "--d", "0", "--t", "2001", "--g-gen", "2000,0;0,2000", "--json"], capsys
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["de"], payload["de_orbits"], payload["t_general"]) == (4928, 8, False)


def test_sweep_verify_checks_de_against_fm(capsys, monkeypatch):
    # probe P17: 2 fm = de + w(1) + w(t - 1) over the classes 1 and t - 1
    # of the genus; with every weight read as 0 the first row with 1 in
    # its genus, (1, 3), fails
    monkeypatch.setattr("k3fm.cli._isometry_order", lambda d, factors: 0)
    code, out, err = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "12", "--verify"], capsys
    )
    assert code == 1
    assert out == ""
    assert "cell d=1 t=3: 2 fm=2 but de + w(1) + w(t-1) = 1" in err


def test_sweep_formula_only_nulls(capsys):
    code, out, _ = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "3", "--formula-only", "--json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 + 2 + 3
    for row in rows:
        assert row["fm"] is None
        if row["t"] <= 2:
            assert row["de"] is None and row["de_orbits"] is None
        else:
            assert row["de"] is not None and row["de_orbits"] is not None


def test_sweep_formula_matches_full_run(capsys):
    # closed forms agree with the enumerating run wherever both apply
    code, full, _ = run_cli(
        ["sweep", "--t-min", "3", "--t-max", "8", "--json"], capsys
    )
    assert code == 0
    code, fast, _ = run_cli(
        ["sweep", "--t-min", "3", "--t-max", "8", "--formula-only", "--json"],
        capsys,
    )
    assert code == 0
    for frow, qrow in zip(json.loads(full), json.loads(fast)):
        assert (frow["d"], frow["t"]) == (qrow["d"], qrow["t"])
        assert frow["de"] == qrow["de"]
        assert frow["de_orbits"] == qrow["de_orbits"]
        assert frow["ht_class"] == qrow["ht_class"]


def test_sweep_rows_sorted_lexicographically(capsys):
    _, out, _ = run_cli(["sweep", "--t-min", "3", "--t-max", "6", "--json"], capsys)
    rows = json.loads(out)
    keys = [(row["t"], row["d"]) for row in rows]
    assert keys == sorted(keys)


def test_sweep_d_window(capsys):
    _, out, _ = run_cli(
        ["sweep", "--t-min", "5", "--t-max", "6", "--d-min", "2", "--d-max", "3",
         "--json"],
        capsys,
    )
    rows = json.loads(out)
    assert [(row["d"], row["t"]) for row in rows] == [(2, 5), (3, 5), (2, 6), (3, 6)]


def test_sweep_empty_range(capsys):
    code, out, _ = run_cli(["sweep", "--t-min", "4", "--t-max", "3"], capsys)
    assert code == 0
    assert out == " ".join(SWEEP_FIELDS) + "\n"


def test_sweep_csv_export(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        ["sweep", "--t-min", "1", "--t-max", "3", "--formula-only",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SWEEP_FIELDS)
    assert len(rows) == 7
    by_cell = {(row[0], row[1]): row for row in rows[1:]}
    assert by_cell[("0", "1")][SWEEP_FIELDS.index("fm")] == ""
    assert by_cell[("0", "1")][SWEEP_FIELDS.index("de")] == ""
    assert by_cell[("0", "3")][SWEEP_FIELDS.index("de")] == "2"  # m = 3, omega = 1


def test_sweep_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a missing directory and a directory: one error line naming the
    # path, nothing on stdout, and nothing written
    for target in (tmp_path / "missing" / "rows.csv", tmp_path):
        argv = ["sweep", "--t-min", "3", "--t-max", "3", "--out", str(target)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), target
        assert err.startswith("k3fm: ") and err.count("\n") == 1, err
        assert str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_a_failed_sweep_writes_no_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "10")  # t = 4 has a part of 16 elements
    target = tmp_path / "rows.csv"
    argv = ["sweep", "--t-min", "3", "--t-max", "8", "--out", str(target)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "") and "budget" in err
    assert not target.exists()


def test_sweep_parallel_matches_serial(capsys):
    argv = ["sweep", "--t-min", "3", "--t-max", "7", "--json"]
    code, serial, _ = run_cli(argv, capsys)
    assert code == 0
    code, parallel, _ = run_cli(argv + ["--jobs", "3"], capsys)
    assert code == 0
    assert parallel == serial


def test_sweep_jobs_below_one_rejected(capsys):
    for jobs in ("0", "-5"):
        code, out, err = run_cli(
            ["sweep", "--t-min", "3", "--t-max", "4", "--jobs", jobs], capsys
        )
        assert code == 2, jobs
        assert out == ""
        assert err.startswith("k3fm: ") and "--jobs" in err


def test_sweep_worker_count_capped(monkeypatch):
    # Only the computed count is checked; no pool is started here.
    monkeypatch.setattr("k3fm.cli.os.cpu_count", lambda: 4)
    assert _sweep_workers(100_000, 462) == 4
    assert _sweep_workers(3, 462) == 3
    assert _sweep_workers(3, 2) == 2
    assert _sweep_workers(1, 462) == 1
    monkeypatch.setattr("k3fm.cli.os.cpu_count", lambda: None)
    assert _sweep_workers(100_000, 462) == 1


def test_sweep_cells_match_single_subcommands(capsys):
    rng = random.Random(20260814)
    cells = {(rng.randrange(0, t), t) for t in rng.choices(range(3, 13), k=6)}
    for d, t in sorted(cells, key=lambda c: (c[1], c[0])):
        _, out, _ = run_cli(
            ["sweep", "--t-min", str(t), "--t-max", str(t), "--d-min", str(d),
             "--d-max", str(d), "--json"],
            capsys,
        )
        row = json.loads(out)[0]
        _, out, _ = run_cli(["lagr", "--d", str(d), "--t", str(t), "--json"], capsys)
        lagr = json.loads(out)
        assert (row["lagr_elements"], row["lagr_subgroups"]) == (
            lagr["elements"],
            lagr["subgroups"],
        )
        assert (row["m"], row["omega_m"]) == (lagr["m"], lagr["omega_m"])
        _, out, _ = run_cli(
            ["ht", "--d", str(d), "--t", str(t), "--t-general", "--json"], capsys
        )
        assert row["ht_class"] == json.loads(out)["ht_class"]
        _, out, _ = run_cli(["de", "--d", str(d), "--t", str(t), "--json"], capsys)
        de = json.loads(out)
        assert (row["de"], row["de_orbits"]) == (de["de"], de["de_orbits"])
        _, out, _ = run_cli(["fm", "--d", str(d), "--t", str(t), "--json"], capsys)
        assert row["fm"] == json.loads(out)["fm"]


def _main_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return json.loads(out.getvalue())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16).flatmap(lambda t: st.tuples(st.integers(-t, 2 * t), st.just(t))))
def test_json_matches_library(cell):
    d, t = cell
    out = {
        sub: _main_json([sub, "--d", str(d), "--t", str(t), "--json"])
        for sub in ("disc", "lagr", "genus", "fm", "de")
    }
    for payload in out.values():
        assert (payload["d"], payload["t"]) == (d, t)
    nf = ns_form(d % t, t)  # the CLI computes with d mod t
    assert (out["disc"]["a"], out["disc"]["b"]) == structure_invariants(d, t)
    assert out["disc"]["orders"] == list(nf.form.orders)
    assert out["disc"]["q"] == [str(q) for q in nf.form.q_gen]
    assert (out["lagr"]["elements"], out["lagr"]["subgroups"]) == count_lagrangians(d, t)
    assert out["genus"]["representatives"] == list(genus_representatives(d, t))
    assert out["fm"]["fm"] == fm_count(d, t, GSpec.sign_group(ns_form(d, t).form))
    de = de_counts(d, t, GSpec.sign_group(ns_form(d, t).form), True)
    assert (out["de"]["de"], out["de"]["de_orbits"]) == de


# Every subcommand with --d but overlattice and caldararu, whose flags
# are coordinates in the lattice of the d given
_D_MOD_T = (["disc"], ["lagr"], ["lagr", "--list"], ["pair"], ["involution"],
            ["genus"], ["fm"], ["de"], ["ht"], ["ht", "--t-general"])


def test_d_enters_through_d_mod_t():
    for t in range(1, 13):
        for d in range(t):
            for sub in _D_MOD_T:
                want = _main_json([*sub, "--d", str(d), "--t", str(t), "--json"])
                for e in (d + t, d - 3 * t, d + 7 * t):
                    got = _main_json([*sub, "--d", str(e), "--t", str(t), "--json"])
                    assert got == {**want, "d": e}, (sub, e, t)


def test_selector_and_g_gen_name_generators_of_a_d_mod_t():
    # (2, 3) is an order-4 isometry of A(0, 5) = (Z/5)^2 whose square is -id
    for d in (0, 5, -10):
        argv = ["fm", "--d", str(d), "--t", "5", "--g-gen", "2,0;0,3", "--g-order", "4",
                "--json"]
        assert _main_json(argv) == {"d": d, "fm": 1, "g_order": 4, "t": 5}
    want = _main_json(["involution", "--d", "6", "--t", "6", "--selector", "2:Vprime,3:V",
                       "--json"])
    for d in (12, -6):
        got = _main_json(["involution", "--d", str(d), "--t", "6", "--selector",
                          "2:Vprime,3:V", "--json"])
        assert got == {**want, "d": d}


def test_de_twist_classes_count_the_cosets_of_b(capsys):
    # de reports phi(t)/|B|; coprime_jacobian_classes lists the cosets of
    # a B built from the brute root: {+-1, +-x} (order 4), {+-1, +-y, +-y^2}
    for t in range(3, 61):
        for order in (2, 4, 6):
            argv = ["de", "--d", "1", "--t", str(t), "--b-order", str(order), "--json"]
            root = t - 1 if order == 2 else _brute_twist_root(t, order)
            if root is None:
                assert run_cli(argv, capsys)[0] == 2, argv
                continue
            b = {s * pow(root, k, t) % t for s in (1, t - 1) for k in range(3)}
            assert len(b) == order, (t, order)
            payload = _main_json(argv)
            assert payload["b_order"] == order, argv
            assert payload["twist_classes"] == coprime_jacobian_classes(t, b)[0], argv
