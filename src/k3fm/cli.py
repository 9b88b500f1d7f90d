"""Command-line interface.

Every library operation is a subcommand; output is a one-line table
rendering by default or canonical JSON with --json.  JSON objects use
sorted keys, no whitespace, and a trailing newline, so output bytes are
stable and round-trip through a parse/re-dump cycle unchanged.  Exit
codes: 0 success, 1 sweep verification mismatch, 2 invalid input,
3 budget exceeded.

Each subcommand's flags are declared once, in ``SUBCOMMANDS``; the
argparse parser is built from that table.  ``main`` reads well-formed
argv against the table directly and hands anything else to the
parser's ``parse_args``, for argparse's own help and error output.

Field names and flag formats are frozen; see docs/schema.md.
"""

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache, partial
from math import gcd, isqrt

from ._value import Value
from .budget import within_request
from .discforms import DFIsometry, ns_form, structure_invariants
from .errors import (
    CapacityError,
    InvalidParameterError,
    InvalidSubgroupError,
    K3FMError,
)
from .intmath import modulus, units_mod
from .lagrangians import (
    SELECT_V,
    SELECT_VPRIME,
    GSpec,
    LagrangianSubgroup,
    canonical_pair,
    count_lagrangians,
    enumerate_lagrangian_elements,
    enumerate_lagrangian_subgroups,
    involution,
)
from .lattices import _check_t, ns_gram, overlattice
from .surfaces import (
    MukaiVector,
    _de_closed_form,
    _de_walk,
    _fm_walk,
    _isometry_order,
    caldararu_class,
    de_counts,
    fm_count,
    genus_representatives,
    ht_classify,
    jacobian_class_canonical,
    jacobian_compose,
    jacobian_index,
    mukai_divisibility,
)

# argparse's test for a word that is a negative number, not a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

SWEEP_FIELDS = (
    "d",
    "t",
    "m",
    "omega_m",
    "lagr_elements",
    "lagr_subgroups",
    "de",
    "de_orbits",
    "fm",
    "ht_class",
)


class SweepVerifyError(K3FMError):
    """A brute-force oracle disagreed with a sweep row."""


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_images(text: str):
    """Generator images for --g-gen: per-generator coordinate tuples,
    ';' between generators and ',' between coordinates."""
    try:
        return tuple(
            tuple(int(x) for x in part.split(","))
            for part in text.split(";")
        )
    except ValueError:
        raise InvalidParameterError(
            f"--g-gen must look like 'a,c;b,d', got {text!r}"
        ) from None


def _parse_g(d: int, t: int, args) -> GSpec:
    form = ns_form(d, t).form
    if getattr(args, "g_gen", None) is None:
        return GSpec.sign_group(form, order=args.g_order)
    images = _parse_images(args.g_gen)
    return GSpec(DFIsometry(form, form, images), args.g_order)


def _parse_selector(text, d: int, t: int):
    primes = modulus(t).common_primes(d)
    if text is None or text == "":
        return tuple((p, SELECT_V) for p in primes)
    pairs = []
    for chunk in text.split(","):
        p, _, choice = chunk.partition(":")
        try:
            prime = int(p)
        except ValueError:
            raise InvalidParameterError(
                f"--selector entries look like '5:V', got {chunk!r}"
            ) from None
        if choice not in (SELECT_V, SELECT_VPRIME):
            raise InvalidParameterError(
                f"selector choice must be V or Vprime, got {choice!r}"
            )
        pairs.append((prime, choice))
    pairs.sort()
    if tuple(p for p, _ in pairs) != primes:
        raise InvalidSubgroupError(
            f"selector must name exactly the primes {list(primes)}"
        )
    return tuple(pairs)


def _twist_order(t: int, order: int) -> int:
    """|B| for --b-order: the order of a cyclic twist group B of units mod
    t containing -1, which is all that any output reads of B.  For t <= 2,
    where 1 = -1, B = {+-1} has one element and only order 2 is accepted.
    Whether B exists is read off t's primes, with no walk over the units:
    order 4 needs a root of -1 mod t (4 does not divide t, and every odd
    p | t is 1 mod 4), order 6 a unit of order 3 (9 | t, or some p | t is
    1 mod 3)."""
    if order not in (2, 4, 6):
        raise InvalidParameterError(f"--b-order must be 2, 4 or 6, got {order}")
    if order == 2 or t <= 2:
        if order != 2:
            raise InvalidParameterError("--b-order above 2 needs t > 2")
        return 2 if t > 2 else 1
    primes = modulus(t).primes
    if order == 4:  # x^2 = -1 mod t
        exists = t % 4 and all(p % 4 == 1 for p in primes if p > 2)
    else:  # x = -y, y of order 3
        exists = t % 9 == 0 or any(p % 3 == 1 for p in primes)
    if not exists:
        raise InvalidParameterError(
            f"no cyclic order-{order} twist group containing -1 exists mod {t}"
        )
    return order


def _selector_json(selector):
    return {str(p): c for p, c in selector}


def _selector_text(selector):
    if not selector:
        return "-"
    return ",".join(f"{p}:{c}" for p, c in selector)


def _coords_text(coords):
    return ",".join(str(c) for c in coords)


def _dt(args):
    """(d mod t, t): the lattices of d and d + kt are isometric (H -> H + kF),
    so a subcommand computes with d mod t and echoes ``args.d`` as given."""
    _check_t(args.t)
    return args.d % args.t, args.t


def _cmd_disc(args):
    d, t = _dt(args)
    a, b = structure_invariants(d, t)
    nf = ns_form(d, t)
    payload = {
        "a": a,
        "b": b,
        "d": args.d,
        "orders": list(nf.form.orders),
        "q": [str(q) for q in nf.form.q_gen],
        "t": t,
    }
    table = (
        f"a={a} b={b}"
        f" orders={_coords_text(nf.form.orders)}"
        f" q={','.join(str(q) for q in nf.form.q_gen)}"
    )
    return payload, table


def _cmd_lagr(args):
    d, t = _dt(args)
    m = gcd(d, t)
    elements, subgroups = count_lagrangians(d, t)
    omega = len(modulus(t).common_primes(d))
    if not args.list:
        payload = {
            "d": args.d,
            "elements": elements,
            "m": m,
            "omega_m": omega,
            "subgroups": subgroups,
            "t": t,
        }
        return payload, f"elements={elements} subgroups={subgroups}"
    els = enumerate_lagrangian_elements(d, t)
    subs = enumerate_lagrangian_subgroups(d, t)
    payload = {
        "d": args.d,
        "elements": [list(e.coords) for e in els],
        "m": m,
        "omega_m": omega,
        "subgroups": [
            {
                "generator": list(L.generator.coords),
                "selector": _selector_json(L.selector),
            }
            for L in subs
        ],
        "t": t,
    }
    lines = [f"element {_coords_text(e.coords)}" for e in els]
    lines += [
        f"subgroup {_selector_text(L.selector)}"
        f" generator={_coords_text(L.generator.coords)}"
        for L in subs
    ]
    return payload, "\n".join(lines)


def _cmd_pair(args):
    d, t = _dt(args)
    vb, vp = canonical_pair(d, t)
    same = gcd(d, t) == 1
    payload = {
        "d": args.d,
        "same_subgroup": same,
        "t": t,
        "vbar": list(vb.coords),
        "vprime": list(vp.coords),
    }
    table = (
        f"vbar={_coords_text(vb.coords)} vprime={_coords_text(vp.coords)}"
        f" same_subgroup={'true' if same else 'false'}"
    )
    return payload, table


def _cmd_involution(args):
    d, t = _dt(args)
    source = LagrangianSubgroup(d, t, _parse_selector(args.selector, d, t))
    image = involution(d, t, source)
    payload = {
        "d": args.d,
        "image_generator": list(image.generator.coords),
        "image_selector": _selector_json(image.selector),
        "source_generator": list(source.generator.coords),
        "source_selector": _selector_json(source.selector),
        "t": t,
    }
    table = (
        f"source={_selector_text(source.selector)}"
        f" image={_selector_text(image.selector)}"
    )
    return payload, table


def _cmd_genus(args):
    d, t = _dt(args)
    reps = genus_representatives(d, t)
    payload = {"d": args.d, "representatives": list(reps), "t": t}
    return payload, f"representatives={_coords_text(reps)}"


def _cmd_fm(args):
    d, t = _dt(args)
    g = _parse_g(d, t, args)
    n = fm_count(d, t, g)
    payload = {"d": args.d, "fm": n, "g_order": g.order, "t": t}
    return payload, f"fm={n}"


def _cmd_de(args):
    d, t = _dt(args)
    g = _parse_g(d, t, args)
    t_general = args.t_general or args.g_gen is None
    b_order = _twist_order(t, args.b_order)
    de, de_orbits = de_counts(d, t, g, t_general)
    twists = modulus(t).phi // b_order if t > 2 else None
    payload = {
        "b_order": b_order,
        "d": args.d,
        "de": de,
        "de_orbits": de_orbits,
        "g_order": g.order,
        "t": t,
        "t_general": t_general,
        "twist_classes": twists,
    }
    table = f"de={de} de_orbits={de_orbits}"
    if twists is not None:
        table += f" twist_classes={twists}"
    return payload, table


def _cmd_ht(args):
    d, t = _dt(args)
    m = gcd(d, t)
    cls = ht_classify(d, t, args.t_general)
    payload = {
        "d": args.d,
        "ht_class": cls.value,
        "m": m,
        "omega_m": len(modulus(t).common_primes(d)),
        "t": t,
        "t_general": bool(args.t_general),
    }
    return payload, cls.value


def _cmd_jac(args):
    t, k = args.t, args.k
    if args.compose:
        if args.l is None:
            raise InvalidParameterError("--compose needs --l")
        value = jacobian_compose(k, args.l, t)
        return {"compose": value, "k": k, "l": args.l, "t": t}, str(value)
    if args.canonical:
        value = jacobian_class_canonical(k, t)
        return {"canonical": value, "k": k, "t": t}, str(value)
    value = jacobian_index(t, k)
    return {"index": value, "k": k, "t": t}, str(value)


def _cmd_overlattice(args):
    try:
        gens = [tuple(map(Fraction, part.split(","))) for part in args.gens.split(";")]
    except (ValueError, ZeroDivisionError):
        raise InvalidParameterError(
            f"--gens must look like '1/5,0;0,1/5', got {args.gens!r}"
        ) from None
    lat = ns_gram(args.d, args.t)
    over = overlattice(lat, gens)
    index = isqrt(abs(lat.det()) // abs(over.det()))
    payload = {
        "d": args.d,
        "det": over.det(),
        "gram": [list(row) for row in over.gram],
        "index": index,
        "t": args.t,
    }
    gram_text = ";".join(_coords_text(row) for row in over.gram)
    return payload, f"gram={gram_text} det={over.det()} index={index}"


def _cmd_caldararu(args):
    d, t = args.d, args.t
    v = MukaiVector(args.r, (args.x, args.y), args.s)
    elem = caldararu_class(d, t, v)
    payload = {
        "class": list(elem.coords),
        "d": d,
        "divisibility": mukai_divisibility(d, t, v),
        "q": str(elem.q()),
        "r": args.r,
        "s": args.s,
        "t": t,
        "x": args.x,
        "y": args.y,
    }
    table = (
        f"class={_coords_text(elem.coords)}"
        f" divisibility={payload['divisibility']} q={payload['q']}"
    )
    return payload, table


def sweep_cell(cell, formula_only: bool, verify: bool) -> dict:
    """One sweep row; module-level so multiprocessing can pickle it."""
    d, t = cell
    m = gcd(d, t)
    elements, subgroups = count_lagrangians(d, t)
    row = {
        "d": d,
        "t": t,
        "m": m,
        "omega_m": len(modulus(t).common_primes(d)),
        "lagr_elements": elements,
        "lagr_subgroups": subgroups,
        "ht_class": ht_classify(d, t, True).value,
    }
    if formula_only:
        row["de"], row["de_orbits"] = _de_closed_form(d, t) or (None, None)
        row["fm"] = None
        return row
    g = GSpec.sign_group(ns_form(d, t).form)
    row["de"], row["de_orbits"] = de_counts(d, t, g, True)
    row["fm"] = fm_count(d, t, g)
    if verify:
        _verify_cell(d, t, row)
    return row


def _verify_cell(d: int, t: int, row: dict):
    els = enumerate_lagrangian_elements(d, t)
    if len(els) != row["lagr_elements"]:
        raise SweepVerifyError(
            f"cell d={d} t={t}: enumerated {len(els)} elements,"
            f" formula says {row['lagr_elements']}"
        )
    subs = enumerate_lagrangian_subgroups(d, t)
    if len(subs) != row["lagr_subgroups"]:
        raise SweepVerifyError(
            f"cell d={d} t={t}: enumerated {len(subs)} subgroups,"
            f" formula says {row['lagr_subgroups']}"
        )
    coords = {e.coords for e in els}
    for sub in subs:
        if sub.generator.coords not in coords:
            raise SweepVerifyError(
                f"cell d={d} t={t}: subgroup generator not a Lagrangian element"
            )
        if involution(d, t, involution(d, t, sub)) != sub:
            raise SweepVerifyError(
                f"cell d={d} t={t}: involution is not an involution"
            )
    walked = _de_walk(d, t, GSpec.sign_group(ns_form(d, t).form))
    if (row["de"], row["de_orbits"]) != walked:
        raise SweepVerifyError(
            f"cell d={d} t={t}: de={row['de']} de_orbits={row['de_orbits']}"
            f" but the subgroup walk gives {walked[0]} and {walked[1]}"
        )
    if row["fm"] is not None and row["fm"] < 1:
        raise SweepVerifyError(f"cell d={d} t={t}: fm={row['fm']} < 1")
    if row["fm"] is not None and gcd(d, t) == 1:
        jacobians = _jacobian_class_count(d, t)
        if row["fm"] != jacobians:
            raise SweepVerifyError(
                f"cell d={d} t={t}: fm={row['fm']} but {jacobians}"
                " classes of Jacobians"
            )
    if row["fm"] is not None:
        _verify_fm(d, t, row)


def _verify_fm(d: int, t: int, row: dict):
    """fm against the class-by-class Burnside walk for G = {+-1}, and, for
    t >= 3, against de by probe P17: 2 fm = de + w(1) [1 in the genus] +
    w(t-1) [t-1 in the genus], with w(e) = |O(A)| / |H_e| the weight of
    the class e (``NSForm.o_lambda_order`` is |H_e|)."""
    nf = ns_form(d, t)
    walked = _fm_walk(d, t, GSpec.sign_group(nf.form))
    if row["fm"] != walked:
        raise SweepVerifyError(
            f"cell d={d} t={t}: fm={row['fm']} but the genus walk gives {walked}"
        )
    if t < 3:
        return
    order = _isometry_order(d, t)
    reps = genus_representatives(d, t)
    ends = sum(order // ns_form(e, t).o_lambda_order for e in (1, t - 1) if e in reps)
    if 2 * row["fm"] != row["de"] + ends:
        raise SweepVerifyError(
            f"cell d={d} t={t}: 2 fm={2 * row['fm']} but de + w(1) + w(t-1)"
            f" = {row['de'] + ends}"
        )


def _jacobian_class_count(d: int, t: int) -> int:
    """FM partners when gcd(d, t) = 1, where every partner is a Jacobian
    J^k, k in (Z/t)*, and J^k = J^l exactly when l = +-k or l = +-(dk)^-1
    mod t: the number of distinct min(k, -k, j, -j) mod t, j = (dk)^-1."""
    classes = set()
    for k in units_mod(t):
        j = pow(d * k, -1, t)
        classes.add(min(k, -k % t, j, -j % t))
    return len(classes)


def _sweep_workers(jobs: int, n_cells: int) -> int:
    """Worker processes for a sweep: --jobs capped by the CPUs and cells."""
    if jobs < 1:
        raise InvalidParameterError(f"--jobs must be a positive integer, got {jobs}")
    return min(jobs, os.cpu_count() or 1, n_cells)


def _cmd_sweep(args):
    if args.t_min < 1:
        raise InvalidParameterError("--t-min must be a positive integer")
    cells = []
    for t in range(args.t_min, args.t_max + 1):
        lo = args.d_min if args.d_min is not None else 0
        hi = args.d_max if args.d_max is not None else t - 1
        for d in range(lo, hi + 1):
            cells.append((d, t))
    worker = partial(sweep_cell, formula_only=args.formula_only, verify=args.verify)
    workers = _sweep_workers(args.jobs, len(cells))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            rows = pool.map(worker, cells)
    else:
        rows = [worker(cell) for cell in cells]
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(SWEEP_FIELDS)
                for row in rows:
                    writer.writerow(
                        ["" if row[k] is None else row[k] for k in SWEEP_FIELDS]
                    )
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot write --out {args.out!r}: {exc.strerror or exc}"
            ) from None
    lines = [" ".join(SWEEP_FIELDS)]
    for row in rows:
        lines.append(
            " ".join("-" if row[k] is None else str(row[k]) for k in SWEEP_FIELDS)
        )
    return rows, "\n".join(lines)


class Flag(Value):
    """One flag of a subcommand; a ``bool`` flag is a store_true switch.
    The flags of one ``group`` exclude each other."""

    __slots__ = _fields = ("name", "type", "required", "default", "help", "group")

    def __init__(self, name: str, type: type = bool, required: bool = False,
                 default: object = None, help: str | None = None, group: str | None = None):
        self.name, self.type, self.required = name, type, required
        self.default, self.help, self.group = default, help, group


_DT = (
    Flag("--d", int, True, help="degree parameter d"),
    Flag("--t", int, True, help="multisection index t"),
)
_JSON = (Flag("--json", help="emit canonical JSON"),)
_G = (
    Flag("--g-order", int, default=2, help="abstract order of G (even)"),
    Flag("--g-gen", str, help="generator images, e.g. 'a,c;b,d' (default: -id)"),
)
_T_GENERAL = Flag("--t-general", help="declare T-general")

# Each subcommand's handler, help and flags in --help order: the one
# definition of the CLI grammar, which docs/schema.md freezes.
SUBCOMMANDS = {
    "disc": (_cmd_disc, "discriminant group structure and form", _DT + _JSON),
    "lagr": (_cmd_lagr, "Lagrangian elements and subgroups", (
        *_DT,
        Flag("--count", help="counts only (default)", group="mode"),
        Flag("--list", help="materialize both lists", group="mode"),
        *_JSON,
    )),
    "pair": (_cmd_pair, "the canonical pair of Lagrangian classes", _DT + _JSON),
    "involution": (_cmd_involution, "apply the selector involution", (
        *_DT,
        Flag("--selector", str,
             help="subgroup selector like '2:V,3:Vprime' (default: all V)"),
        *_JSON,
    )),
    "genus": (_cmd_genus, "genus representatives of the lattice", _DT + _JSON),
    "fm": (_cmd_fm, "Fourier-Mukai partner count", _DT + _G + _JSON),
    "de": (_cmd_de, "derived elliptic structure counts", (
        *_DT,
        *_G,
        _T_GENERAL,
        Flag("--b-order", int, default=2, help=(
            "order of the twist group B (2, 4 or 6; 4 and 6 pin isotrivial j)")),
        *_JSON,
    )),
    "ht": (_cmd_ht, "partner-location classification", (*_DT, _T_GENERAL, *_JSON)),
    "jac": (_cmd_jac, "Jacobian index / composition / class", (
        Flag("--t", int, True),
        Flag("--k", int, True),
        Flag("--index", help="index of J^k (default)", group="mode"),
        Flag("--compose", help="J^k of J^l", group="mode"),
        Flag("--canonical", help="canonical class of k", group="mode"),
        Flag("--l", int, help="second operand for --compose"),
        *_JSON,
    )),
    "overlattice": (_cmd_overlattice, "even overlattice from isotropic classes", (
        *_DT,
        Flag("--gens", str, True,
             help="dual vectors like '1/5,0;0,1/5' (coordinates in the H,F basis)"),
        *_JSON,
    )),
    "caldararu": (_cmd_caldararu, "obstruction class of a Mukai vector", (
        *_DT,
        Flag("--r", int, True),
        Flag("--x", int, True, help="H coefficient of D"),
        Flag("--y", int, True, help="F coefficient of D"),
        Flag("--s", int, True),
        *_JSON,
    )),
    "sweep": (_cmd_sweep, "batch rows over a (d, t) grid", (
        Flag("--t-min", int, True),
        Flag("--t-max", int, True),
        Flag("--d-min", int),
        Flag("--d-max", int),
        Flag("--verify", help="run brute-force oracles per cell", group="mode"),
        Flag("--formula-only", group="mode", help=(
            "closed forms only; de/fm null where enumeration would be needed")),
        Flag("--jobs", int, default=1, help="parallel worker count"),
        Flag("--out", str, help="also write CSV here"),
        *_JSON,
    )),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``SUBCOMMANDS`` on the first call
    and shared after it.

    Sharing is safe: ``parse_args`` makes a fresh namespace per call and
    leaves the parser unchanged, and help text is laid out when printed.
    Its ``flag_lookup`` holds, per subcommand, what ``_parse_argv``
    reads: each flag's dest and type, every dest's default, the required
    flags and the exclusive groups.
    """
    parser = argparse.ArgumentParser(
        prog="k3fm",
        description=(
            "Exact arithmetic for rank-two elliptic K3 lattices: "
            "discriminant forms, Lagrangian subgroups, Jacobians, "
            "derived elliptic structures and Fourier-Mukai counts."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.flag_lookup = {}
    for name, (_, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        groups, lookup, defaults = {}, {}, {}
        for f in flags:
            if f.group is not None and f.group not in groups:
                groups[f.group] = p.add_mutually_exclusive_group()
            target = groups.get(f.group, p)
            if f.type is bool:
                action = target.add_argument(f.name, action="store_true", help=f.help)
            else:
                action = target.add_argument(
                    f.name, type=f.type, required=f.required, default=f.default,
                    help=f.help,
                )
            lookup[f.name] = action.dest, f.type
            defaults[action.dest] = action.default
        required = frozenset(f.name for f in flags if f.required)
        exclusive = [frozenset(f.name for f in flags if f.group == g) for g in groups]
        parser.flag_lookup[name] = lookup, defaults, required, exclusive
    return parser


def run(args: argparse.Namespace) -> tuple[int, str]:
    """(exit code, output) of one parsed request: the handler's payload as
    JSON with --json, else its table."""
    payload, table = SUBCOMMANDS[args.subcommand][0](args)
    return 0, _json_dump(payload) if args.json else table + "\n"


def _parse_argv(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """The namespace ``parser.parse_args(argv)`` gives.

    Well-formed argv is read against ``parser.flag_lookup`` directly: a
    subcommand, then flags spelled out in full, each at most once, each
    value the next word, not starting with '-' unless it is a negative
    number, and converting with the flag's type; every required flag
    given, at most one of each exclusive group.  Anything else goes to
    ``parse_args``, so help, errors, abbreviations, '='-joined and
    repeated flags and '--' are argparse's own.
    """
    spec = parser.flag_lookup.get(argv[0]) if argv else None
    if spec is not None:
        lookup, defaults, required, exclusive = spec
        values, seen = dict(defaults), set()
        words = iter(argv[1:])
        for word in words:
            if word in seen or word not in lookup:
                break
            seen.add(word)
            dest, kind = lookup[word]
            if kind is bool:
                values[dest] = True
                continue
            value = next(words, "-")  # a missing value is refused like a flag
            if value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                break
            try:
                values[dest] = kind(value)
            except ValueError:
                break
        else:
            if required <= seen and all(len(g & seen) < 2 for g in exclusive):
                return argparse.Namespace(subcommand=argv[0], **values)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one request (``sys.argv[1:]`` by default); returns the exit code.

    Well-formed argv is parsed without argparse, into the namespace
    ``build_parser().parse_args`` would give; anything else goes through
    that call (``_parse_argv``).  ``K3FM_BUDGET`` is parsed at most once
    per request (``budget.within_request``)."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_argv(build_parser(), argv)
    try:
        code, text = within_request(run, args)
    except SweepVerifyError as exc:
        print(f"k3fm: verification failed: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"k3fm: {exc}", file=sys.stderr)
        return 3
    except K3FMError as exc:
        print(f"k3fm: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
