"""Benchmark of setcoverlab: one workload per run, one JSON line last.

    python3 bench/run.py --workload estimate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run builds the workload's inputs from the seed (set-up, repeated and
timed), makes one untimed warm-up pass over the workload's operations,
then makes timed passes until ``--seconds`` have gone by, at least two
passes and at least 100 operations.  Outputs of the last pass are checked
against values computed apart from the program (``oracle.py``), and every
pass must give the same outputs.

With ``--trace 0`` the metrics are the end-to-end figures.  With
``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer figures of the traced passes plus the tracing overhead.
Details and span dumps go to ``bench/out/``.  See README.md.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calib
from tracing import EXACT_COUNTS, LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, CheckContext

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
MIN_TRACED_PASSES = 4  # untraced, traced, traced, untraced: a drift cancels out
MIN_OPS = 100
MAX_PASSES = 40

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


IMPORT_PROBE = ("import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; import calib; "
                "c = calib.seconds(); t = time.perf_counter(); import setcoverlab; "
                "t = time.perf_counter() - t; print(t * calib.scale(c, calib.seconds()))")


def load_program():
    """Import setcoverlab from the checkout's src/ and nowhere else."""
    if not (SRC / "setcoverlab" / "__init__.py").is_file():
        sys.exit(f"bench: no setcoverlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    gauge = calib.seconds()
    start = time.perf_counter()
    pkg = importlib.import_module("setcoverlab")
    own_import_s = (time.perf_counter() - start) * calib.scale(gauge, calib.seconds())
    if Path(pkg.__file__).resolve().parent != SRC / "setcoverlab":
        sys.exit(f"bench: setcoverlab was imported from {pkg.__file__}, not {SRC}")
    api = SimpleNamespace(**{layer: importlib.import_module(f"setcoverlab.{layer}")
                             for layer in LAYERS})
    return api, own_import_s


def import_seconds(first: float) -> list:
    """The program's import time: this process's, then fresh interpreters'."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = IMPORT_PROBE.format(src=str(SRC), bench=str(HERE))
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return samples


def cpu_seconds() -> float:
    """CPU time of this process's threads plus that of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_pass(workload, api, items, tracer=None):
    """One pass over the items; only the operations themselves are timed.

    The garbage collector runs before each operation, outside the timed
    region, so that no operation pays for garbage an earlier one left (as
    each `cover` command starts with a fresh heap).  The speed gauge of
    calib.py runs between operations; each operation's time is scaled by
    the gauge taken before and after it.  The pass's wall and CPU times are
    the sums over its operations.
    """
    prepared = [workload.prepare(api, item) for item in items]
    outs, raw, latencies, factors, cpu = [], [], [], [], 0.0
    gauge = calib.seconds()
    for op, (item, arg) in enumerate(zip(items, prepared)):
        out = {}
        if tracer is not None:
            tracer.op = op
        gc.collect()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            workload.run(api, item, out, arg)
        except Exception as exc:  # a failed operation is counted, not fatal
            out["error"] = exc.with_traceback(None)
        elapsed = time.perf_counter() - start
        used = cpu_seconds() - cpu0
        after = calib.seconds()
        factor = calib.scale(gauge, after)
        gauge = after
        raw.append(elapsed)
        factors.append(factor)
        latencies.append(elapsed * factor)
        cpu += used * factor
        outs.append(out)
    return SimpleNamespace(wall=sum(latencies), cpu=cpu, latencies=latencies, raw=raw,
                           factors=factors, outs=outs, failed=sum("error" in out for out in outs))


def fingerprints(workload, outs):
    result = []
    for out in outs:
        try:
            result.append(workload.fingerprint(out))
        except KeyError:
            error = out.get("error")
            result.append(("error", type(error).__name__, str(error)))
    return result


def check_outputs(workload, api, items, outs, problems):
    ctx = CheckContext()
    for op, (item, out) in enumerate(zip(items, outs)):
        error = out.get("error")
        if error is not None and not workload.failure_expected(out):
            problems.append(f"op {op} ({item.kind}) failed: {type(error).__name__}: {error}")
            continue
        try:
            workload.check(api, item, out, ctx)
        except Exception as exc:
            problems.append(f"op {op} ({item.kind}): {type(exc).__name__}: {exc}")


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api, own_import_s = load_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    # set-up: build the inputs several times, keep the last
    build_times, setup_spans = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        items = None
        if tracer:
            tracer.install()
        gauge = calib.seconds()
        start = time.perf_counter()
        try:
            items = workload.build(api, args.seed)
        finally:
            build_factor = calib.scale(gauge, calib.seconds())
            build_times.append((time.perf_counter() - start) * build_factor)
            if tracer:
                tracer.uninstall()
                setup_spans = tracer.take()[0]
    import_times = import_seconds(own_import_s) if tracer is None else [own_import_s]
    setup_s = statistics.median(import_times) + statistics.median(build_times)

    problems = []
    warm = run_pass(workload, api, items)
    reference = fingerprints(workload, warm.outs)
    del warm

    passes, traced, traced_spans = [], [], []
    min_passes = MIN_TRACED_PASSES if tracer else MIN_PASSES
    began = time.perf_counter()
    while len(passes) < MAX_PASSES and (
            time.perf_counter() - began < args.seconds or len(passes) < min_passes
            or len(passes) * len(items) < MIN_OPS or (tracer and len(passes) % 4)):
        use_tracer = tracer is not None and len(passes) % 4 in (1, 2)
        if use_tracer:
            tracer.install()
        try:
            p = run_pass(workload, api, items, tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        if use_tracer:
            spans, counts = tracer.take()
            traced.append(layer_metrics(spans, counts, p.factors, setup_spans,
                                        build_factor))
            traced_spans.append(spans)
        p.traced = use_tracer
        if fingerprints(workload, p.outs) != reference:
            problems.append(f"pass {len(passes)} gave other outputs than the warm-up pass")
        if passes:
            passes[-1].outs = None  # keep only the outputs of the pass that gets checked
        passes.append(p)
    rss = peak_rss_mb()

    check_outputs(workload, api, items, passes[-1].outs, problems)
    attempted = len(items) * len(passes)
    failed = sum(p.failed for p in passes)

    kind_s = {}
    for item, latency in zip(items, passes[-1].latencies):
        kind_s[item.kind] = kind_s.get(item.kind, 0.0) + latency
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "operations_per_pass": len(items), "passes": len(passes),
               "pass_wall_s": [p.wall for p in passes],
               "pass_traced": [p.traced for p in passes],
               "last_pass_s_by_kind": kind_s,
               "labels": [f"{item.kind} {item.label}" for item in items],
               "latencies_ms": [[round(1000 * x, 3) for x in p.latencies] for p in passes],
               "raw_latencies_ms": [[round(1000 * x, 3) for x in p.raw] for p in passes],
               "pass_cpu_s": [p.cpu for p in passes],
               "import_s": import_times,
               "build_s": build_times, "problems": problems}
    if tracer is None:
        latencies = [x for p in passes for x in p.latencies]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * percentile(latencies, 90),
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = per_layer_output(traced, passes, details)
        OUT.mkdir(exist_ok=True)
        Tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    [setup_spans] + traced_spans)

    correct = not problems
    for line in problems[:20]:
        print(f"bench: CHECK FAILED: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


UNITS = {"_mb_per_s": "MB/s", "_per_s": "1/s", "_pct": "%", "_mb": "MB", "_s": "s"}


def per_layer_unit(name):
    """Unit from the name's suffix, most specific first; counts have none."""
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_output(traced, passes, details):
    """Median of the traced passes for times, the repeated value for counts."""
    metrics = {}
    unsteady = []
    for name in traced[0]:
        values = [m[name] for m in traced]
        if name in EXACT_COUNTS and len(set(values)) > 1:
            unsteady.append(name)
        metrics[name] = statistics.median(values)
    traced_wall = statistics.median(p.wall for p in passes if p.traced)
    untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
    metrics["tracing.traced_wall_s"] = traced_wall
    metrics["tracing.untraced_wall_s"] = untraced_wall
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    metrics["tracing.overhead_pct"] = 100 * (traced_wall - untraced_wall) / untraced_wall
    details["counts_not_repeated"] = unsteady
    if unsteady:
        print(f"bench: counts differ between traced passes: {unsteady}", file=sys.stderr)
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
