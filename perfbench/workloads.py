"""The requests each workload sends, as k3fm argv lists.

Only argv lists leave this module; the program under test sees nothing
else of the generator.  ``sweep`` and ``bigcell`` are fixed requests;
``queries`` is a stream drawn from a seed.
"""

import random
from collections import Counter
from math import gcd

from checks import primes_of

SWEEP_T = (3, 30)


def sweep_argv(csv_path, t_range=SWEEP_T):
    return ["sweep", "--t-min", str(t_range[0]), "--t-max", str(t_range[1]),
            "--jobs", "1", "--out", csv_path]


# Each request is one large group sitting exactly at a default budget:
# |A| = 100^2 = 10,000 is the isometry cap, |A| = 2000^2 = 4,000,000 the
# element cap.  fm(0, 100) has a one-class genus, so no DFIsometry.inverse.
BIGCELL = (
    ("fm_s", ["fm", "--d", "0", "--t", "100"]),
    ("de_s", ["de", "--d", "30", "--t", "2000", "--t-general"]),
    ("genus_s", ["genus", "--d", "1", "--t", "97"]),
)

QUERY_T_MAX = 48
# Requests per subcommand in one stream of 1,000.
QUERY_MIX = (
    ("disc", 100), ("lagr", 100), ("pair", 90), ("involution", 90),
    ("genus", 92), ("fm", 92), ("de", 100), ("ht", 100), ("jac", 100),
    ("caldararu", 70), ("overlattice", 66),
)
# fm and genus cost grows steeply with t, so their t values are
# stratified (every t in 3..48 equally often) to keep a stream's total
# cost nearly the same from seed to seed; only d and the order vary.
STRATIFIED = ("fm", "genus")
# Share of the other requests that reuse an earlier (d, t), so the
# ns_form cache both hits and misses.
REPEAT_SHARE = 0.3


def _caldararu(rng, d, t):
    """A primitive Mukai vector (r, xH + yF, s) of square zero."""
    while True:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        n = x * (d * x + t * y)  # square zero means r s = n
        if n == 0:
            r, s = rng.choice(((0, rng.randint(-3, 3)), (rng.randint(-3, 3), 0)))
        else:
            divisors = [k for k in range(1, abs(n) + 1) if n % k == 0]
            r = rng.choice(divisors) * rng.choice((1, -1))
            s = n // r
        if gcd(gcd(r, s), gcd(x, y)) == 1:
            return ["--r", str(r), "--x", str(x), "--y", str(y), "--s", str(s)]


def _request(kind, d, t, rng):
    dt = ["--d", str(d), "--t", str(t)]
    if kind == "lagr":
        return ["lagr", *dt, "--list" if rng.random() < 0.25 else "--count"]
    if kind == "involution":
        primes = primes_of(gcd(d, t))
        if primes and rng.random() < 0.5:
            sel = ",".join(f"{p}:{rng.choice(('V', 'Vprime'))}" for p in primes)
            return ["involution", *dt, "--selector", sel]
        return ["involution", *dt]
    if kind in ("de", "ht"):
        return [kind, *dt] + (["--t-general"] if rng.random() < 0.5 else [])
    if kind == "jac":
        k = rng.randint(-60, 60)
        mode = rng.choice(("index", "compose", "canonical"))
        extra = ["--l", str(rng.randint(-60, 60))] if mode == "compose" else []
        return ["jac", "--t", str(t), "--k", str(k), f"--{mode}", *extra]
    if kind == "overlattice":
        k = rng.choice([k for k in range(2, t + 1) if t % k == 0])
        return ["overlattice", *dt, "--gens", f"0,1/{k}"]
    if kind == "caldararu":
        return ["caldararu", *dt, *_caldararu(rng, d, t)]
    return [kind, *dt]


def query_stream(seed: int, mix=QUERY_MIX, t_max=QUERY_T_MAX):
    """The seeded list of argv lists for the ``queries`` workload."""
    rng = random.Random(seed)
    kinds = [name for name, n in mix for _ in range(n)]
    rng.shuffle(kinds)
    as_json = [i % 2 == 0 for i in range(len(kinds))]
    rng.shuffle(as_json)
    strata = {}
    for name, n in mix:
        if name in STRATIFIED:
            ts = [3 + i % (t_max - 2) for i in range(n)]
            rng.shuffle(ts)
            strata[name] = ts
    seen = []
    out = []
    for kind, js in zip(kinds, as_json):
        if kind in strata:
            t = strata[kind].pop()
            d = rng.randrange(t)
        elif seen and rng.random() < REPEAT_SHARE:
            d, t = rng.choice(seen)
        else:
            t = rng.randint(3, t_max)
            d = rng.randrange(t)
        if kind != "jac":
            seen.append((d, t))
        out.append(_request(kind, d, t, rng) + (["--json"] if js else []))
    return out


def describe_stream(stream) -> dict:
    """Subcommand mix and the share of requests whose (d, t) came earlier."""
    mix = Counter(argv[0] for argv in stream)
    seen = set()
    repeats = 0
    for argv in stream:
        if argv[0] == "jac":
            continue
        key = (argv[argv.index("--d") + 1], argv[argv.index("--t") + 1])
        repeats += key in seen
        seen.add(key)
    return {
        "requests": len(stream),
        "mix": dict(sorted(mix.items())),
        "json_share": sum("--json" in argv for argv in stream) / len(stream),
        "repeated_dt_share": repeats / len(stream),
    }
