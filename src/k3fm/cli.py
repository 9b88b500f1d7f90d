"""Command-line interface.

Every library operation is a subcommand; output is a one-line table
rendering by default or canonical JSON with --json.  JSON objects use
sorted keys, no whitespace, and a trailing newline, so output bytes are
stable and round-trip through a parse/re-dump cycle unchanged.  Exit
codes: 0 success, 1 sweep verification mismatch, 2 invalid input,
3 budget exceeded.

``main`` parses each request once, with its subcommand's parser; argv
that names no subcommand, or that the subcommand's parser leaves words
over from, goes through the top-level parser for argparse's own help
and error output.

Field names and flag formats are frozen; see docs/schema.md.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd, isqrt

from .discforms import DFIsometry, ns_form, structure_invariants
from .errors import (
    CapacityError,
    InvalidParameterError,
    InvalidSubgroupError,
    K3FMError,
)
from .intmath import distinct_primes, units_mod
from .lagrangians import (
    SELECT_V,
    SELECT_VPRIME,
    GSpec,
    _subgroup,
    canonical_pair,
    count_lagrangians,
    enumerate_lagrangian_elements,
    enumerate_lagrangian_subgroups,
    involution,
)
from .lattices import RationalVector, ns_gram, overlattice
from .surfaces import (
    J_1728,
    J_GENERIC,
    J_ZERO,
    MukaiVector,
    SurfaceModel,
    _de_closed_form,
    caldararu_class,
    coprime_jacobian_classes,
    de_counts,
    fm_count,
    genus_representatives,
    ht_classify,
    jacobian_class_canonical,
    jacobian_compose,
    jacobian_index,
    mukai_divisibility,
)

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


@dataclass(frozen=True)
class Request:
    subcommand: str
    params: argparse.Namespace
    output_mode: str  # "table" or "json"


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
    primes = distinct_primes(gcd(d, t))
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


def _twist_group(t: int, order: int):
    """The twist group B for --b-order: cyclic of the requested order,
    containing -1.  Orders 4 and 6 exist only for suitable t and pin the
    isotrivial j-invariant; the least generator is chosen when several
    subgroups qualify."""
    if order == 2 or t <= 2:
        if order != 2:
            raise InvalidParameterError("--b-order above 2 needs t > 2")
        return frozenset({1 % t, (-1) % t}), J_GENERIC
    if order not in (4, 6):
        raise InvalidParameterError(f"--b-order must be 2, 4 or 6, got {order}")
    for x in units_mod(t):
        if pow(x, order // 2, t) != t - 1:
            continue
        if order == 6 and pow(x, 2, t) == 1:
            continue
        group = frozenset(pow(x, i, t) for i in range(order))
        return group, (J_1728 if order == 4 else J_ZERO)
    raise InvalidParameterError(
        f"no cyclic order-{order} twist group containing -1 exists mod {t}"
    )


def _selector_json(selector):
    return {str(p): c for p, c in selector}


def _selector_text(selector):
    if not selector:
        return "-"
    return ",".join(f"{p}:{c}" for p, c in selector)


def _coords_text(coords):
    return ",".join(str(c) for c in coords)


def _cmd_disc(args):
    a, b = structure_invariants(args.d, args.t)
    nf = ns_form(args.d, args.t)
    payload = {
        "a": a,
        "b": b,
        "d": args.d,
        "orders": list(nf.form.orders),
        "q": [str(q) for q in nf.form.q_gen],
        "t": args.t,
    }
    table = (
        f"a={a} b={b}"
        f" orders={_coords_text(nf.form.orders)}"
        f" q={','.join(str(q) for q in nf.form.q_gen)}"
    )
    return payload, table


def _cmd_lagr(args):
    d, t = args.d, args.t
    m = gcd(d, t)
    omega = len(distinct_primes(m))
    elements, subgroups = count_lagrangians(d, t)
    if not args.list:
        payload = {
            "d": d,
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
        "d": d,
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
    vb, vp = canonical_pair(args.d, args.t)
    same = gcd(args.d, args.t) == 1
    payload = {
        "d": args.d,
        "same_subgroup": same,
        "t": args.t,
        "vbar": list(vb.coords),
        "vprime": list(vp.coords),
    }
    table = (
        f"vbar={_coords_text(vb.coords)} vprime={_coords_text(vp.coords)}"
        f" same_subgroup={'true' if same else 'false'}"
    )
    return payload, table


def _cmd_involution(args):
    d, t = args.d, args.t
    source = _subgroup(d, t, _parse_selector(args.selector, d, t))
    image = involution(d, t, source)
    payload = {
        "d": d,
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
    reps = genus_representatives(args.d, args.t)
    payload = {"d": args.d, "representatives": list(reps), "t": args.t}
    return payload, f"representatives={_coords_text(reps)}"


def _cmd_fm(args):
    g = _parse_g(args.d, args.t, args)
    n = fm_count(args.d, args.t, g)
    payload = {"d": args.d, "fm": n, "g_order": g.order, "t": args.t}
    return payload, f"fm={n}"


def _cmd_de(args):
    d, t = args.d, args.t
    g = _parse_g(d, t, args)
    t_general = args.t_general or args.g_gen is None
    b, j = _twist_group(t, args.b_order)
    model = SurfaceModel(d, t, g, b, b, t_general=t_general, isotrivial_j=j)
    de, de_orbits = de_counts(model)
    twists = coprime_jacobian_classes(t, b)[0] if t > 2 else None
    payload = {
        "b_order": len(b),
        "d": d,
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
    d, t = args.d, args.t
    m = gcd(d, t)
    cls = ht_classify(d, t, args.t_general)
    payload = {
        "d": d,
        "ht_class": cls.value,
        "m": m,
        "omega_m": len(distinct_primes(m)),
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
        gens = [
            RationalVector(tuple(Fraction(x) for x in part.split(",")))
            for part in args.gens.split(";")
        ]
    except (ValueError, ZeroDivisionError):
        raise InvalidParameterError(
            f"--gens must look like '1/5,0;0,1/5', got {args.gens!r}"
        ) from None
    lat = ns_gram(args.d, args.t).to_lattice()
    over = overlattice(lat, gens)
    index = isqrt(abs(lat.det()) // abs(over.det()))
    payload = {
        "d": args.d,
        "det": over.det(),
        "gram": [list(row) for row in over.gram.entries],
        "index": index,
        "t": args.t,
    }
    gram_text = ";".join(_coords_text(row) for row in over.gram.entries)
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
    omega = len(distinct_primes(m))
    elements, subgroups = count_lagrangians(d, t)
    row = {
        "d": d,
        "t": t,
        "m": m,
        "omega_m": omega,
        "lagr_elements": elements,
        "lagr_subgroups": subgroups,
        "ht_class": ht_classify(d, t, True).value,
    }
    if formula_only:
        row["de"], row["de_orbits"] = _de_closed_form(d, t) or (None, None)
        row["fm"] = None
        return row
    model = SurfaceModel.general(d, t)
    row["de"], row["de_orbits"] = de_counts(model)
    row["fm"] = fm_count(d, t, model.G)
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
    closed = _de_closed_form(d, t)
    if closed is not None and row["de"] != closed[0]:
        raise SweepVerifyError(
            f"cell d={d} t={t}: de={row['de']} but closed form {closed[0]}"
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
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_FIELDS)
            for row in rows:
                writer.writerow(
                    ["" if row[k] is None else row[k] for k in SWEEP_FIELDS]
                )
    lines = [" ".join(SWEEP_FIELDS)]
    for row in rows:
        lines.append(
            " ".join("-" if row[k] is None else str(row[k]) for k in SWEEP_FIELDS)
        )
    return rows, "\n".join(lines)


_HANDLERS = {
    "disc": _cmd_disc,
    "lagr": _cmd_lagr,
    "pair": _cmd_pair,
    "involution": _cmd_involution,
    "genus": _cmd_genus,
    "fm": _cmd_fm,
    "de": _cmd_de,
    "ht": _cmd_ht,
    "jac": _cmd_jac,
    "overlattice": _cmd_overlattice,
    "caldararu": _cmd_caldararu,
    "sweep": _cmd_sweep,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Sharing is safe: ``parse_args`` makes a fresh namespace per call and
    leaves the parser unchanged, and help text is laid out when printed.
    Its ``subcommand_parsers`` maps each subcommand name to the parser
    ``main`` hands the rest of argv to.
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
    parser.subcommand_parsers = sub.choices

    def add_dt(sp):
        sp.add_argument("--d", type=int, required=True, help="degree parameter d")
        sp.add_argument("--t", type=int, required=True, help="multisection index t")

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit canonical JSON")

    def add_g(sp):
        sp.add_argument(
            "--g-order", type=int, default=2, help="abstract order of G (even)"
        )
        sp.add_argument(
            "--g-gen",
            type=str,
            default=None,
            help="generator images, e.g. 'a,c;b,d' (default: -id)",
        )

    p = sub.add_parser("disc", help="discriminant group structure and form")
    add_dt(p)
    add_json(p)

    p = sub.add_parser("lagr", help="Lagrangian elements and subgroups")
    add_dt(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="counts only (default)")
    mode.add_argument("--list", action="store_true", help="materialize both lists")
    add_json(p)

    p = sub.add_parser("pair", help="the canonical pair of Lagrangian classes")
    add_dt(p)
    add_json(p)

    p = sub.add_parser("involution", help="apply the selector involution")
    add_dt(p)
    p.add_argument(
        "--selector",
        type=str,
        default=None,
        help="subgroup selector like '2:V,3:Vprime' (default: all V)",
    )
    add_json(p)

    p = sub.add_parser("genus", help="genus representatives of the lattice")
    add_dt(p)
    add_json(p)

    p = sub.add_parser("fm", help="Fourier-Mukai partner count")
    add_dt(p)
    add_g(p)
    add_json(p)

    p = sub.add_parser("de", help="derived elliptic structure counts")
    add_dt(p)
    add_g(p)
    p.add_argument("--t-general", action="store_true", help="declare T-general")
    p.add_argument(
        "--b-order",
        type=int,
        default=2,
        help="order of the twist group B (2, 4 or 6; 4 and 6 pin isotrivial j)",
    )
    add_json(p)

    p = sub.add_parser("ht", help="partner-location classification")
    add_dt(p)
    p.add_argument("--t-general", action="store_true", help="declare T-general")
    add_json(p)

    p = sub.add_parser("jac", help="Jacobian index / composition / class")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--index", action="store_true", help="index of J^k (default)")
    mode.add_argument("--compose", action="store_true", help="J^k of J^l")
    mode.add_argument("--canonical", action="store_true", help="canonical class of k")
    p.add_argument("--l", type=int, default=None, help="second operand for --compose")
    add_json(p)

    p = sub.add_parser("overlattice", help="even overlattice from isotropic classes")
    add_dt(p)
    p.add_argument(
        "--gens",
        type=str,
        required=True,
        help="dual vectors like '1/5,0;0,1/5' (coordinates in the H,F basis)",
    )
    add_json(p)

    p = sub.add_parser("caldararu", help="obstruction class of a Mukai vector")
    add_dt(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=int, required=True, help="H coefficient of D")
    p.add_argument("--y", type=int, required=True, help="F coefficient of D")
    p.add_argument("--s", type=int, required=True)
    add_json(p)

    p = sub.add_parser("sweep", help="batch rows over a (d, t) grid")
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--d-max", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--verify", action="store_true", help="run brute-force oracles per cell"
    )
    mode.add_argument(
        "--formula-only",
        action="store_true",
        help="closed forms only; de/fm null where enumeration would be needed",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--out", type=str, default=None, help="also write CSV here")
    add_json(p)

    return parser


def run(request: Request) -> tuple[int, str]:
    handler = _HANDLERS[request.subcommand]
    payload, table = handler(request.params)
    if request.output_mode == "json":
        return 0, _json_dump(payload)
    return 0, table + "\n"


def _parse_argv(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """The namespace ``parser.parse_args(argv)`` gives, in one argparse pass.

    For a subcommand the top-level parser only hands the rest of argv to
    the subcommand's ``parse_known_args`` and sets ``subcommand``; this
    makes that call directly.  Everything else, and a request the
    subcommand's parser leaves arguments over from, goes through
    ``parse_args``, so help and error output are argparse's own.
    """
    sub = parser.subcommand_parsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.subcommand = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one request (``sys.argv[1:]`` by default); returns the exit code.

    The request is parsed once, by its subcommand's parser
    (``_parse_argv``), into the namespace ``build_parser().parse_args``
    would give."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_argv(build_parser(), argv)
    request = Request(
        args.subcommand,
        args,
        "json" if getattr(args, "json", False) else "table",
    )
    try:
        code, text = run(request)
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
