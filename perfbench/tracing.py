"""Traced runs: spans and counters around the public functions of every
k3fm module, installed from outside the package.

Modules import names directly (``from .discforms import isometry_between``),
so a wrapper replaces the original under every name in every k3fm module
that holds it, and ``uninstall`` puts the originals back.  Hot, tiny calls
(element construction, isometry composition, the intmath and budget
helpers, the kernel routes) get count-only wrappers, so the self times of
the spans around them stay meaningful.  Spans stay in memory and are
written out by ``write`` when the run ends.
"""

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "surfaces", "lattices", "discforms", "lagrangians", "kernels", "budget", "intmath")
COUNT_ONLY_LAYERS = ("budget", "intmath")
# (module, class, method, counter)
COUNTED_METHODS = (
    ("discforms", "DFElement", "__post_init__", "discforms.DFElement"),
    ("discforms", "DFIsometry", "compose", "discforms.DFIsometry.compose"),
    ("lagrangians", "LagrangianElement", "__post_init__", "lagrangians.LagrangianElement"),
)
SPANNED_METHODS = (("discforms", "DFIsometry", "inverse"),)
# The implementations behind kernels' dispatch: which route a scan took.
ROUTES = (("_pykernels", "kernels.pure"), ("_ckernels", "kernels.compiled"))

# (metric, unit, better).  A name ending in .calls, .s or .self_s is read
# off the spans and counters of the function (or layer) it names; the rest
# are derived in ``Tracer.pass_metrics``.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_parser.calls", "count", "lower"),
    ("cli.build_parser.s", "s", "lower"),
    ("cli.sweep_cell.s", "s", "lower"),
    ("surfaces.self_s", "s", "lower"),
    ("surfaces.fm_count.calls", "count", "lower"),
    ("surfaces.fm_count.s", "s", "lower"),
    ("surfaces.fm_count.self_s", "s", "lower"),
    ("surfaces.de_counts.s", "s", "lower"),
    ("surfaces.o_lambda_image.calls", "count", "lower"),
    ("surfaces.o_lambda_image.s", "s", "lower"),
    ("lattices.self_s", "s", "lower"),
    ("lattices.genus_representatives.calls", "count", "lower"),
    ("lattices.genus_representatives.s", "s", "lower"),
    ("lattices.rank2_isometries.calls", "count", "lower"),
    ("lattices.smith_normal_form.calls", "count", "lower"),
    ("lattices.smith_normal_form.s", "s", "lower"),
    ("discforms.self_s", "s", "lower"),
    ("discforms.ns_form.calls", "count", "lower"),
    ("discforms.ns_form.hit_ratio", "ratio", "higher"),
    ("discforms.from_lattice.s", "s", "lower"),
    ("discforms.isometry_group.calls", "count", "lower"),
    ("discforms.isometry_group.s", "s", "lower"),
    ("discforms.isometry_between.calls", "count", "lower"),
    ("discforms.isometry_between.s", "s", "lower"),
    ("discforms.isometry_between.found_ratio", "ratio", "higher"),
    ("discforms.DFIsometry.inverse.calls", "count", "lower"),
    ("discforms.DFIsometry.inverse.s", "s", "lower"),
    ("discforms.DFIsometry.compose.calls", "count", "lower"),
    ("discforms.DFElement.created", "count", "lower"),
    ("lagrangians.self_s", "s", "lower"),
    ("lagrangians.enumerate_lagrangian_elements.calls", "count", "lower"),
    ("lagrangians.enumerate_lagrangian_elements.s", "s", "lower"),
    ("lagrangians.g_orbits.s", "s", "lower"),
    ("lagrangians.LagrangianElement.created", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.scan_isotropic_elements.calls", "count", "lower"),
    ("kernels.scan_isotropic_elements.s", "s", "lower"),
    ("kernels.elements_visited", "count", "lower"),
    ("kernels.element_hit_ratio", "ratio", "higher"),
    ("kernels.scan_isometries.calls", "count", "lower"),
    ("kernels.scan_isometries.s", "s", "lower"),
    ("kernels.isometry_candidates", "count", "lower"),
    ("kernels.isometry_hit_ratio", "ratio", "higher"),
    ("kernels.compiled_calls", "count", "higher"),
    ("kernels.pure_calls", "count", "lower"),
    ("budget.element_peak_ratio", "ratio", "lower"),
    ("budget.isometry_peak_ratio", "ratio", "lower"),
    ("intmath.factorize.calls", "count", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one traced run; ``reset`` starts a pass."""

    def __init__(self):
        self.spans = []  # (request, parent index, name, start, end)
        self.stack = []
        self.counts = Counter()
        self.request = 0
        self._undo = []
        self.reset()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.cache = [0, 0]  # ns_form hits, misses
        self.found = 0
        self.elements = [0, 0, 0]  # visited, hits, largest |A|
        self.isometries = [0, 0, 0]  # candidates, hits, largest |A|

    def begin_request(self):
        self.request += 1

    def note_cache(self, info):
        """Fold in ns_form's cache_info() before the cache is cleared."""
        self.cache[0] += info.hits
        self.cache[1] += info.misses

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.request, stack[-1] if stack else -1, name, start, end)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_between(self, args, result):
        self.found += result is not None

    def _observe_elements(self, args, result):
        size = args[0] * args[1]
        acc = self.elements
        acc[0] += size
        acc[1] += len(result)
        acc[2] = max(acc[2], size)

    def _observe_isometries(self, args, result):
        n1, n2 = args[0], args[1]
        acc = self.isometries
        acc[0] += n1 ** 3 * n2  # (b, d, a, c) loop bound: n1 * n2 * n1 * n1
        acc[1] += len(result)
        acc[2] = max(acc[2], n1 * n2)

    # -- installation -----------------------------------------------------

    def _replace(self, old, new):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "k3fm" or name.startswith("k3fm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, old))

    def install(self):
        mods = {name: importlib.import_module(f"k3fm.{name}") for name in LAYERS}
        observers = {
            "discforms.isometry_between": self._observe_between,
            "kernels.scan_isotropic_elements": self._observe_elements,
            "kernels.scan_isometries": self._observe_isometries,
        }
        targets = []
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_")
                func = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if public and func and getattr(obj, "__module__", None) == mod.__name__:
                    targets.append((f"{layer}.{attr}", obj))
        for name, obj in targets:
            if name.split(".")[0] in COUNT_ONLY_LAYERS:
                self._replace(obj, self._count(name, obj))
            else:
                self._replace(obj, self._span(name, obj, observers.get(name)))
        for modname, counter in ROUTES:
            impl = sys.modules.get(f"k3fm.{modname}")
            if impl is None:
                continue
            for attr in ("scan_isotropic_elements", "scan_isometries"):
                self._replace(getattr(impl, attr), self._count(counter, getattr(impl, attr)))
        for modname, cls_name, attr, counter in COUNTED_METHODS:
            cls = getattr(mods[modname], cls_name)
            self._patch_method(cls, attr, self._count(counter, vars(cls)[attr]))
        for modname, cls_name, attr in SPANNED_METHODS:
            cls = getattr(mods[modname], cls_name)
            self._patch_method(cls, attr, self._span(f"{modname}.{cls_name}.{attr}", vars(cls)[attr]))

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def pass_metrics(self, element_cap: int, isometry_cap: int) -> dict:
        """Every PER_LAYER metric for the pass since the last ``reset``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own, layer_own = Counter(), Counter(), Counter(), Counter()
        for i, (_, parent, name, start, end) in enumerate(spans):
            calls[name] += 1
            self_time = end - start - child[i]
            own[name] += self_time
            layer_own[name.split(".", 1)[0]] += self_time
            p = parent
            while p >= 0 and spans[p][2] != name:
                p = spans[p][1]
            if p < 0:  # not nested in a call of itself
                incl[name] += end - start
        derived = {
            "discforms.ns_form.hit_ratio": _ratio(self.cache[0], sum(self.cache)),
            "discforms.isometry_between.found_ratio": _ratio(
                self.found, calls["discforms.isometry_between"]),
            "kernels.elements_visited": self.elements[0],
            "kernels.element_hit_ratio": _ratio(self.elements[1], self.elements[0]),
            "kernels.isometry_candidates": self.isometries[0],
            "kernels.isometry_hit_ratio": _ratio(self.isometries[1], self.isometries[0]),
            "kernels.compiled_calls": self.counts["kernels.compiled"],
            "kernels.pure_calls": self.counts["kernels.pure"],
            "budget.element_peak_ratio": self.elements[2] / element_cap,
            "budget.isometry_peak_ratio": self.isometries[2] / isometry_cap,
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif kind == "calls":
                out[metric] = calls[base] + self.counts[base]
            elif kind == "created":
                out[metric] = self.counts[base]
            elif kind == "s":
                out[metric] = incl[base]
            elif kind == "self_s":
                out[metric] = layer_own[base] if base in LAYERS else own[base]
            else:
                raise KeyError(metric)
        return out

    def write(self, path, meta: dict):
        """Dump the spans of the last pass as one JSON document."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["request", "parent", "name", "start_s", "end_s"],
                    "names": names,
                    "spans": [[r, p, index[n], round(a, 7), round(b, 7)]
                              for r, p, n, a, b in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
