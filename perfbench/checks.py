"""Output checks for the benchmark's requests.

Nothing here imports k3fm: every expected value is either a closed form
recomputed from (d, t) with the small helpers below, or a value recorded
in ``expected.json`` (FM counts and genus representatives, which have no
closed form yet).  A check returns ``None`` when the output is right and
a one-line reason when it is not.
"""

import csv
import io
import json
import os
from fractions import Fraction
from math import gcd

SWEEP_FIELDS = (
    "d", "t", "m", "omega_m", "lagr_elements", "lagr_subgroups",
    "de", "de_orbits", "fm", "ht_class",
)


def primes_of(n: int) -> list[int]:
    out, p = [], 2
    n = abs(n)
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    out = n
    for p in primes_of(n):
        out = out // p * (p - 1)
    return out


def ht_class(d: int, t: int, t_general: bool) -> str:
    m = gcd(d, t)
    omega = len(primes_of(m))
    if m == 1:
        return "SingleFibrationCovers"
    if omega == 1:
        return "TwoFibrationsCover"
    if t_general or omega >= 7:
        return "NonJacobianPartnersExist"
    return "Inconclusive"


class Expected:
    """FM counts and genus representatives recorded from the library."""

    def __init__(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
        with open(path) as fh:
            data = json.load(fh)
        self.fm = {_key(k): v for k, v in data["fm"].items()}
        self.genus = {_key(k): tuple(v) for k, v in data["genus"].items()}


def _key(text):
    d, t = text.split(",")
    return int(d), int(t)


def flags(argv) -> dict:
    """``--name value`` pairs of an argv list; bare flags map to True."""
    out = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = True
            i += 1
    return out


def _ints(text):
    return [int(x) for x in text.split(",")] if text else []


def group_orders(d: int, t: int) -> tuple[int, ...]:
    """Generator orders of L*/L = Z/a + Z/b, a = gcd(2d, t), b = t^2/a."""
    a = gcd(2 * d, t)
    return tuple(n for n in (a, t * t // a) if n > 1)


def element_order(coords, orders) -> int:
    out = 1
    for c, n in zip(coords, orders):
        k = n // gcd(n, c)
        out = out * k // gcd(out, k)
    return out


def _lagrangian_element_error(coords, d, t):
    orders = group_orders(d, t)
    if len(coords) != len(orders) or any(not 0 <= c < n for c, n in zip(coords, orders)):
        return f"element {coords} is not reduced in Z/{orders}"
    if element_order(coords, orders) != t:
        return f"element {coords} does not have order t = {t}"
    return None


def _pairs(line):
    return dict(tok.split("=", 1) for tok in line.split())


def _selector_text(sel: dict) -> str:
    return ",".join(f"{p}:{sel[p]}" for p in sorted(sel, key=int)) or "-"


def check_request(argv, rc, out, expected: Expected):
    """Why the output of one CLI request is wrong, or None."""
    if rc != 0:
        return f"exit code {rc}"
    if not out.endswith("\n"):
        return "output does not end with a newline"
    f = flags(argv)
    payload = None
    if f.get("json"):
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" != out:
            return "JSON is not canonical"
        for key in ("d", "t", "k", "l", "r", "x", "y", "s"):
            if key in payload and isinstance(f.get(key), str) and payload[key] != int(f[key]):
                return f"echoed {key}={payload[key]}, requested {f[key]}"
        if "m" in payload:
            m = gcd(int(f["d"]), int(f["t"]))
            if (payload["m"], payload["omega_m"]) != (m, len(primes_of(m))):
                return f"m, omega_m = {payload['m']}, {payload['omega_m']}"
    try:
        return _CHECKS[argv[0]](f, payload, out.rstrip("\n"), expected)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def _check_disc(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    if payload is None:
        p = _pairs(text)
        a, b = int(p["a"]), int(p["b"])
        orders = _ints(p["orders"])
        qs = p["q"].split(",") if p["q"] else []
    else:
        a, b, orders, qs = payload["a"], payload["b"], payload["orders"], payload["q"]
    if a != gcd(2 * d, t) or b != t * t // a:
        return f"invariants ({a}, {b}) for d={d} t={t}"
    prod = 1
    for n in orders:
        prod *= n
    if orders != [n for n in (a, b) if n > 1] or prod != t * t:
        return f"orders {orders} do not multiply to t^2 = {t * t}"
    for n, q in zip(orders, qs):
        q = Fraction(q)
        if not 0 <= q < 2 or (n * q).denominator != 1:
            return f"q value {q} is not defined on Z/{n}"
    return None if len(qs) == len(orders) else "one q value per generator expected"


def _check_lagr(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    subs = 1 << len(primes_of(gcd(d, t)))
    elements = totient(t) * subs
    if f.get("list"):
        if payload is None:
            lines = text.split("\n")
            els = [_ints(x.split()[1]) for x in lines if x.startswith("element ")]
            gens = [_ints(x.split("generator=")[1]) for x in lines if x.startswith("subgroup ")]
        else:
            els = payload["elements"]
            gens = [s["generator"] for s in payload["subgroups"]]
        if els != sorted(els) or len(set(map(tuple, els))) != len(els):
            return "elements are not sorted and distinct"
        if any(g not in els for g in gens):
            return "a subgroup generator is not a Lagrangian element"
        for e in els:
            err = _lagrangian_element_error(e, d, t)
            if err:
                return err
        got_e, got_s = len(els), len(gens)
    elif payload is None:
        p = _pairs(text)
        got_e, got_s = int(p["elements"]), int(p["subgroups"])
    else:
        got_e, got_s = payload["elements"], payload["subgroups"]
    if (got_e, got_s) != (elements, subs):
        return f"lagr ({got_e}, {got_s}) but phi(t) 2^omega(m) = {elements}, 2^omega(m) = {subs}"
    return None


def _check_pair(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    if payload is None:
        p = _pairs(text)
        same = p["same_subgroup"] == "true"
        vbar, vprime = _ints(p["vbar"]), _ints(p["vprime"])
    else:
        same, vbar, vprime = payload["same_subgroup"], payload["vbar"], payload["vprime"]
    if same != (gcd(d, t) == 1):
        return f"same_subgroup={same} with gcd(d, t) = {gcd(d, t)}"
    if not same and vbar == vprime:
        return "distinct subgroups share a generator"
    return _lagrangian_element_error(vbar, d, t) or _lagrangian_element_error(vprime, d, t)


def _check_involution(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    source = {str(p): "V" for p in primes_of(gcd(d, t))}
    if isinstance(f.get("selector"), str):
        source = dict(chunk.split(":") for chunk in f["selector"].split(","))
    image = {p: "Vprime" if c == "V" else "V" for p, c in source.items()}
    if payload is None:
        p = _pairs(text)
        got = (p["source"], p["image"])
        want = (_selector_text(source), _selector_text(image))
    else:
        got = (payload["source_selector"], payload["image_selector"])
        want = (source, image)
    return None if got == want else f"involution {got}, expected {want}"


def _check_genus(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    if payload is None:
        reps = _ints(_pairs(text)["representatives"])
    else:
        reps = payload["representatives"]
    if not reps or any(a >= b for a, b in zip(reps, reps[1:])):
        return f"representatives {reps} are not strictly ascending"
    a = gcd(2 * d, t)
    if any(not 0 <= e < t or gcd(2 * e, t) != a for e in reps) or reps[0] > d % t:
        return f"representatives {reps} leave the candidate set of d={d} t={t}"
    want = expected.genus.get((d, t))
    if want is not None and tuple(reps) != want:
        return f"representatives {reps}, recorded {list(want)}"
    return None


def _check_fm(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    n = int(_pairs(text)["fm"]) if payload is None else payload["fm"]
    genus = expected.genus.get((d, t), ())
    if n < max(1, len(genus)):
        return f"fm={n} is below the genus size {len(genus)}"
    want = expected.fm.get((d, t))
    if want is not None and n != want:
        return f"fm={n}, recorded {want}"
    return None


def _check_de(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    omega = len(primes_of(gcd(d, t)))
    want = ((1 << omega) * totient(t) // 2, 1 << omega, totient(t) // 2)
    if payload is None:
        p = _pairs(text)
        got = (int(p["de"]), int(p["de_orbits"]), int(p["twist_classes"]))
    else:
        got = (payload["de"], payload["de_orbits"], payload["twist_classes"])
    return None if got == want else f"(de, de_orbits, twist_classes) = {got}, closed form {want}"


def _check_ht(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    t_general = bool(f.get("t_general"))
    if payload is not None and payload["t_general"] != t_general:
        return f"t_general={payload['t_general']} not echoed"
    got = text if payload is None else payload["ht_class"]
    want = ht_class(d, t, t_general)
    return None if got == want else f"ht_class {got}, rule gives {want}"


def _check_jac(f, payload, text, expected):
    t, k = int(f["t"]), int(f["k"])
    if f.get("compose"):
        key, want = "compose", k * int(f["l"]) % t
    elif f.get("canonical"):
        key, want = "canonical", min(k % t, -k % t)
    else:
        key, want = "index", t // gcd(t, k)
    got = int(text) if payload is None else payload[key]
    return None if got == want else f"jac {key}={got}, expected {want}"


def _check_overlattice(f, payload, text, expected):
    t = int(f["t"])
    k = Fraction(f["gens"].split(",")[1]).denominator
    if payload is None:
        p = _pairs(text)
        gram = [_ints(row) for row in p["gram"].split(";")]
        det, index = int(p["det"]), int(p["index"])
    else:
        gram, det, index = payload["gram"], payload["det"], payload["index"]
    (g11, g12), (g21, g22) = gram
    if g12 != g21 or g11 % 2 or g22 % 2 or g11 * g22 - g12 * g21 != det:
        return f"gram {gram} is not an even symmetric matrix of det {det}"
    if index != k or det * k * k != -t * t:
        return f"index {index}, det {det} for an index-{k} overlattice of det {-t * t}"
    return None


def _check_caldararu(f, payload, text, expected):
    d, t = int(f["d"]), int(f["t"])
    r, x, y, s = (int(f[n]) for n in ("r", "x", "y", "s"))
    tv = gcd(gcd(r, s), gcd(2 * d * x + t * y, t * x))
    want_q = Fraction(2 * x * (d * x + t * y), tv * tv) % 2
    if payload is None:
        p = _pairs(text)
        got = (int(p["divisibility"]), Fraction(p["q"]))
    else:
        got = (payload["divisibility"], Fraction(payload["q"]))
    return None if got == (tv, want_q) else f"(divisibility, q) = {got}, expected {(tv, want_q)}"


_CHECKS = {
    "disc": _check_disc,
    "lagr": _check_lagr,
    "pair": _check_pair,
    "involution": _check_involution,
    "genus": _check_genus,
    "fm": _check_fm,
    "de": _check_de,
    "ht": _check_ht,
    "jac": _check_jac,
    "overlattice": _check_overlattice,
    "caldararu": _check_caldararu,
}


def sweep_row_error(row: dict, expected: Expected):
    """Why one sweep row (fields as strings, None for empty) is wrong, or None."""
    d, t = int(row["d"]), int(row["t"])
    m = gcd(d, t)
    omega = len(primes_of(m))
    want = {
        "m": m,
        "omega_m": omega,
        "lagr_elements": totient(t) * (1 << omega),
        "lagr_subgroups": 1 << omega,
        "de": (1 << omega) * totient(t) // 2,
        "de_orbits": 1 << omega,
        "fm": expected.fm.get((d, t)),
    }
    for name, value in want.items():
        if value is not None and row[name] != str(value):
            return f"sweep d={d} t={t}: {name}={row[name]}, expected {value}"
    if row["fm"] is None or int(row["fm"]) < 1:
        return f"sweep d={d} t={t}: fm={row['fm']}"
    if row["ht_class"] != ht_class(d, t, True):
        return f"sweep d={d} t={t}: ht_class={row['ht_class']}"
    return None


def check_sweep(rc, out, csv_text, cells, expected: Expected) -> list[str]:
    """One reason per failed cell of a sweep over ``cells`` ((d, t) pairs,
    in output order); the table and the CSV must carry the same rows."""
    if rc != 0:
        return [f"sweep exit code {rc}"] * len(cells)
    lines = out.rstrip("\n").split("\n")
    if tuple(lines[0].split()) != SWEEP_FIELDS:
        return ["sweep table header"] * len(cells)
    table = [dict(zip(SWEEP_FIELDS, line.split())) for line in lines[1:]]
    for row in table:
        for k, v in row.items():
            row[k] = None if v == "-" else v
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or tuple(rows[0]) != SWEEP_FIELDS:
        return ["sweep CSV header"] * len(cells)
    from_csv = [{k: (v or None) for k, v in zip(SWEEP_FIELDS, r)} for r in rows[1:]]
    errors = []
    for i, (d, t) in enumerate(cells):
        row = table[i] if i < len(table) else None
        if row is None or (i < len(from_csv) and from_csv[i] != row) or i >= len(from_csv):
            errors.append(f"sweep d={d} t={t}: row missing or table and CSV disagree")
        elif (int(row["d"]), int(row["t"])) != (d, t):
            errors.append(f"sweep row {i} is ({row['d']}, {row['t']}), expected ({d}, {t})")
        else:
            err = sweep_row_error(row, expected)
            if err:
                errors.append(err)
    extra = max(len(table), len(from_csv)) - len(cells)
    errors += ["sweep has rows beyond the grid"] * max(extra, 0)
    return errors
