"""CLI surface: byte-exact goldens, canonical-JSON stability, exit codes,
sweep consistency with the single-cell subcommands, CSV export, the
parallel path, and JSON output against the library's values."""

import contextlib
import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3fm
from k3fm.cli import SWEEP_FIELDS, SweepVerifyError, _sweep_workers, build_parser, main
from k3fm.discforms import ns_form, structure_invariants
from k3fm.lagrangians import GSpec, count_lagrangians
from k3fm.lattices import genus_representatives
from k3fm.surfaces import SurfaceModel, de_counts, fm_count


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
        '{"d":6,"image_generator":[1,3],"image_selector":{"2":"Vprime","3":"V"},'
        '"source_generator":[1,4],"source_selector":{"2":"V","3":"Vprime"},'
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
# rejection (missing --t), invalid input, an exceeded budget, and a valid
# request again after all of them.
REUSE_SEQUENCE = [
    ["disc", "--d", "3", "--t", "4"],
    ["pair", "--d", "2", "--t", "5", "--json"],
    ["fm", "--d", "1"],
    ["disc", "--d", "1", "--t", "0"],
    ["fm", "--d", "0", "--t", "101"],
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
    assert [code for code, _, _ in shared] == [0, 0, ("SystemExit", 2), 2, 3, 0]
    assert shared[0] == shared[-1]
    monkeypatch.setattr("k3fm.cli.build_parser", build_parser.__wrapped__)
    assert _run_sequence(capsys) == shared


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
    # genus is arithmetic in t; fm still enumerates O(A) under the cap
    monkeypatch.setenv("K3FM_BUDGET", "10")
    code, out, err = run_cli(["genus", "--d", "1", "--t", "200"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("representatives=")
    code, out, err = run_cli(["fm", "--d", "1", "--t", "200"], capsys)
    assert code == 3
    assert "budget" in err


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
    nf = ns_form(d, t)
    assert (out["disc"]["a"], out["disc"]["b"]) == structure_invariants(d, t)
    assert out["disc"]["orders"] == list(nf.form.orders)
    assert out["disc"]["q"] == [str(q) for q in nf.form.q_gen]
    assert (out["lagr"]["elements"], out["lagr"]["subgroups"]) == count_lagrangians(d, t)
    assert out["genus"]["representatives"] == list(genus_representatives(d, t))
    assert out["fm"]["fm"] == fm_count(d, t, GSpec.sign_group(nf.form))
    de = de_counts(SurfaceModel.general(d, t))
    assert (out["de"]["de"], out["de"]["de_orbits"]) == de
