"""k3fm benchmark: three closed-loop, single-client workloads driven
in-process through ``k3fm.cli.main``, so argument parsing and rendering
are inside the timed region.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run plus the tracing overhead.  The last line of
stdout is one JSON object; the lines before it describe the run.  See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import workloads
from tracing import LAYERS, PER_LAYER, Tracer

KNOBS = ("K3FM_BUDGET", "K3FM_PURE_PYTHON")
WORKLOADS = ("sweep", "bigcell", "queries")
# Tail percentile per workload: the highest one with at least ten samples
# beyond it in a single pass (462 cells, 3 requests, 1,000 requests).
TAIL_PERCENTILE = {"sweep": 95, "bigcell": 90, "queries": 99}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Reported by traced runs next to tracing.PER_LAYER.
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")
SETUP_LAUNCHES = 15
MIN_PASSES = 3
# On a shared 2-vCPU virtual machine the same Python code ran up to 1.5x
# slower for minutes at a time.  A fixed loop of integer arithmetic that
# shares no code with k3fm is timed between operations, at most every
# PROBE_EVERY_S, and every operation time is scaled by REFERENCE_PROBE_S /
# (the run's median probe), i.e. reported at the speed where the probe
# takes 30 ms.
PROBE_ITERATIONS = 400_000
PROBE_EVERY_S = 0.5
REFERENCE_PROBE_S = 0.03
TRACE_DIR = ".perfbench"


class Pass:
    """One pass over a workload's requests."""

    def __init__(self):
        self.wall = 0.0
        self.probe_s = 0.0  # speed probes run inside the timed request
        self.ops = []  # seconds per operation
        self.attempted = 0
        self.failed = 0
        self.errors = []  # one line per failure, for stderr
        self.by_label = {}
        self.layers = None


class Session:
    """The library under test, driven one CLI request at a time."""

    def __init__(self, workdir, tracer=None):
        from k3fm import budget, cli, kernels
        from k3fm.discforms import ns_form

        self.cli = cli
        self.ns_form = ns_form  # the lru_cache object itself, never a wrapper
        self.caps = (budget.element_cap(), budget.isometry_cap())
        self.route = "compiled" if kernels.compiled_available() else "pure"
        self.workdir = workdir
        self.tracer = tracer
        self.expected = checks.Expected()
        self.probes = []  # speed_probe() seconds, see REFERENCE_PROBE_S
        self.last_probe = 0.0

    def probe(self, p):
        """Between two operations: time the speed probe when it is due.
        Traced runs skip it, so it stays out of their spans."""
        if self.tracer is None and time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            seconds = speed_probe()
            self.probes.append(seconds)
            p.probe_s += seconds
            self.last_probe = time.perf_counter()

    def cold_cache(self):
        if self.tracer is not None:
            self.tracer.note_cache(self.ns_form.cache_info())
        self.ns_form.cache_clear()

    def request(self, argv):
        """(seconds, exit code or None on a crash, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_request()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            rc = exc.code
        except Exception:  # a crash fails this request, not the run
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        return elapsed, rc, out.getvalue(), err.getvalue()

    def checked(self, p, argv):
        """Time one request, check its output and record it in the pass."""
        self.probe(p)
        elapsed, rc, out, err = self.request(argv)
        p.ops.append(elapsed)
        p.wall += elapsed
        p.attempted += 1
        error = checks.check_request(argv, rc, out, self.expected)
        if error:
            p.failed += 1
            p.errors.append(f"{' '.join(argv)}: {error} {err.strip()[-200:]}".strip())
        return elapsed

    # -- passes -----------------------------------------------------------

    def sweep_pass(self, t_range=workloads.SWEEP_T):
        p = Pass()
        cells = [(d, t) for t in range(t_range[0], t_range[1] + 1) for d in range(t)]
        csv_path = os.path.join(self.workdir, "sweep.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        inner = self.cli.sweep_cell

        def timed_cell(*args, **kwargs):
            self.probe(p)
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                p.ops.append(time.perf_counter() - start)

        self.cold_cache()
        self.cli.sweep_cell = timed_cell
        try:
            elapsed, rc, out, err = self.request(workloads.sweep_argv(csv_path, t_range))
        finally:
            self.cli.sweep_cell = inner
        p.wall = elapsed - p.probe_s
        csv_text = ""
        if os.path.exists(csv_path):
            with open(csv_path, newline="") as fh:
                csv_text = fh.read()
        p.attempted = len(cells)
        p.errors = checks.check_sweep(rc, out, csv_text, cells, self.expected)
        p.failed = min(len(p.errors), p.attempted)
        if p.errors and err:
            p.errors.append(err.strip()[-500:])
        return p

    def bigcell_pass(self, requests=workloads.BIGCELL):
        p = Pass()
        for label, argv in requests:
            self.cold_cache()
            p.by_label[label] = self.checked(p, argv)
        return p

    def queries_pass(self, stream):
        p = Pass()
        self.cold_cache()
        for argv in stream:
            self.checked(p, argv)
        return p


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def typical_wall(passes):
    """Seconds of one pass: each operation's median over the passes,
    summed, plus the median time spent outside operations.  A burst of
    host noise in one pass then moves only the operations it hit."""
    per_op = sum(statistics.median(xs) for xs in zip(*(p.ops for p in passes)))
    return per_op + statistics.median(p.wall - sum(p.ops) for p in passes)


def speed_probe():
    """Seconds for a fixed loop that shares no code with k3fm."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def measure(session, one_pass, seconds, min_passes):
    """Passes until the next one would end past ``seconds`` (at least
    ``min_passes``); each traced pass carries its per-layer metrics."""
    passes = []
    start = time.perf_counter()
    while True:
        if session.tracer is not None:
            session.tracer.reset()
        p = one_pass()
        session.cold_cache()  # folds the pass's cache statistics in
        if session.tracer is not None:
            p.layers = session.tracer.pass_metrics(*session.caps)
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(x.wall for x in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def measure_setup(root, launches=SETUP_LAUNCHES):
    """Median seconds from a fresh interpreter to ``k3fm.cli`` imported."""
    # Bytecode goes to a cache of the benchmark's own, so the timed launches
    # import from cached bytecode, as an installed k3fm does, whatever the
    # caller's PYTHONDONTWRITEBYTECODE says.
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(root, TRACE_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", "import k3fm.cli"]
    # untimed first launch: fills the bytecode cache and warms the page cache
    subprocess.run(cmd, env=env, check=True, timeout=120)
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pass_runner(session, workload, seed):
    if workload == "sweep":
        return session.sweep_pass, {"request": " ".join(workloads.sweep_argv("<csv>"))}
    if workload == "bigcell":
        return session.bigcell_pass, {"requests": [" ".join(a) for _, a in workloads.BIGCELL]}
    stream = workloads.query_stream(seed)
    return (lambda: session.queries_pass(stream)), workloads.describe_stream(stream)


def report_failures(passes):
    shown = 0
    for p in passes:
        for error in p.errors:
            if shown < 10:
                print(f"perfbench: FAILED {error}", file=sys.stderr)
            shown += 1
    if shown > 10:
        print(f"perfbench: ... {shown - 10} more failures", file=sys.stderr)


def traced_run(session, one_pass, seconds, workload, seed, root):
    """Per-layer metrics.  Traced passes alternate with untraced ones, so
    the tracing overhead compares passes run side by side."""
    tracer = session.tracer
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1].wall + traced[-1].wall <= seconds:
        session.tracer = None
        untraced += measure(session, one_pass, 0, 1)
        session.tracer = tracer
        tracer.install()
        try:
            traced += measure(session, one_pass, 0, 1)
        finally:
            tracer.uninstall()
    metrics = {
        name: {"value": statistics.median(p.layers[name] for p in traced), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    base, slow = typical_wall(untraced), typical_wall(traced)
    metrics[TRACE_OVERHEAD[0]] = {"value": slow - base, "unit": TRACE_OVERHEAD[1]}
    layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS
                     if f"{layer}.self_s" in metrics)
    print(f"tracing untraced_wall_s={base:.4f} traced_wall_s={slow:.4f}"
          f" overhead_ratio={slow / base - 1:.4f} layer_self_sum_s={layer_self:.4f}")
    trace_path = os.path.join(TRACE_DIR, f"trace-{workload}.json")
    session.tracer.write(os.path.join(root, trace_path), {"workload": workload, "seed": seed})
    print(f"spans of the last traced pass: {len(session.tracer.spans)} in {trace_path}")
    return untraced + traced, metrics


def untraced_run(session, one_pass, seconds, workload, root):
    """End-to-end metrics, tracing off."""
    setup = measure_setup(root)
    passes = measure(session, one_pass, seconds, MIN_PASSES)
    probe = statistics.median(session.probes)
    scale = REFERENCE_PROBE_S / probe
    ops = [x for p in passes for x in p.ops]
    tail = TAIL_PERCENTILE[workload]
    raw = {
        "wall_s": typical_wall(passes),
        "op_p50_ms": 1e3 * percentile(ops, 50),
        "op_tail_ms": 1e3 * percentile(ops, tail),
    }
    values = {
        "setup_s": setup,
        **{name: scale * value for name, value in raw.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"ops={len(ops)} tail=p{tail} speed_probe_median_s={probe:.5f}"
          f" (of {len(session.probes)}) scale={scale:.4f}")
    print("unscaled " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    for label in passes[0].by_label:
        median = statistics.median(p.by_label[label] for p in passes)
        print(f"{label} {scale * median:.4f} s (unscaled {median:.4f} s)")
    return passes, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run(workload, seed, seconds, trace, root):
    knobs = {k: os.environ.pop(k, None) for k in KNOBS}
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, TRACE_DIR)) as workdir:
        session = Session(workdir, Tracer() if trace else None)
        one_pass, described = pass_runner(session, workload, seed)
        print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
        print("environment " + json.dumps({
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "kernel_route": session.route,
            "cleared_knobs": knobs,
        }, sort_keys=True))
        print(f"workload {json.dumps(described, sort_keys=True)}")
        if trace:
            passes, metrics = traced_run(session, one_pass, seconds, workload, seed, root)
        else:
            passes, metrics = untraced_run(session, one_pass, seconds, workload, root)
    print(f"passes={len(passes)} pass_wall_s=" + ",".join(f"{p.wall:.4f}" for p in passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report_failures(passes)
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "k3fm", "cli.py")):
        print("perfbench: no k3fm sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
