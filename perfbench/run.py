"""genturan benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {search,hosts,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src, never
from an installed copy; without ./src/genturan the run fails with exit 2.

--trace 0 repeats untraced passes while the next one should end within S
seconds (at least one pass) and reports the end-to-end metrics: median pass
wall and CPU time, set-up time (median of fresh-process samples taken before
the first pass and after every pass), peak RSS, work per second and
per-operation latency.  --trace 1 runs one traced pass and reports the
per-layer metrics derived from its spans, which are also written to
.perfbench-out/.  Every pass's outputs are checked; the last line of stdout
is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

# Other modules are imported where they are used, so that a set-up timing
# child (--setup-only) loads little besides argparse before its clock starts.
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# Set-up samples taken before the first pass and after every pass, so that
# they spread over the run rather than one moment of the machine's speed.
SETUP_BATCH = 4
WORKLOADS = ("search", "hosts", "verify")


def import_workloads():
    """Import the benchmark's workloads against ./src/genturan, or exit 2."""
    init = os.path.join(SRC, "genturan", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: {init} not found; run from a genturan checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import genturan
    if os.path.dirname(os.path.abspath(genturan.__file__)) != os.path.dirname(init):
        print(f"perfbench: imported genturan from {genturan.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def setup_only(workload: str, seed: int, size: str) -> None:
    """Time the import of genturan plus building the inputs, in this process."""
    t0 = time.perf_counter()
    wl_mod = import_workloads()
    wl_mod.make(workload, seed, OUT_DIR, trace=False, size=size)
    print(repr(time.perf_counter() - t0))


def setup_samples(workload: str, seed: int, size: str, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters, one after another."""
    import subprocess
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--size", size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _cpu_seconds() -> float:
    import resource
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    import resource
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def timed_pass(wl_mod, wl):
    """Run one pass from cold program caches; (wall s, cpu s, PassResult)."""
    import gc
    wl_mod.clear_program_caches()
    gc.collect()
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = wl.run_pass()
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - c0, result


def measure(wl_mod, workload: str, seed: int, seconds: float, size: str, chk):
    """End-to-end metrics over untraced passes lasting about `seconds`."""
    import statistics
    start = time.perf_counter()
    setup = setup_samples(workload, seed, size, SETUP_BATCH)
    wl = wl_mod.make(workload, seed, OUT_DIR, trace=False, size=size)
    walls, cpus, rates, p50s, p90s = [], [], [], [], []
    op_samples = 0
    while True:
        wall, cpu, result = timed_pass(wl_mod, wl)
        setup += setup_samples(workload, seed, size, SETUP_BATCH)
        wl.check(result.outputs, chk)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(result.work / wall)
        p50s.append(percentile(result.op_seconds, 50))
        p90s.append(percentile(result.op_seconds, 90))
        op_samples += len(result.op_seconds)
        # Start another pass only if it should end within the time given.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(p50s) * 1000, "ms"),
        "op_p90_ms": (statistics.median(p90s) * 1000, "ms"),
    }
    notes = [f"passes={len(walls)} op_samples={op_samples} "
             f"setup_samples={len(setup)}"]
    return metrics, notes


def span_cost_seconds(calls: int = 20000) -> float:
    """Extra seconds one recorded span costs, from a wrapped no-op."""
    import types
    from spans import Tracer
    box = types.SimpleNamespace(f=lambda x: x)
    plain = box.f
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    base = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(box, "f", "calibrate")
    wrapped = box.f
    t0 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return max(0.0, (time.perf_counter() - t0 - base) / calls)


def trace(wl_mod, workload: str, seed: int, size: str, chk):
    """Per-layer metrics from one traced pass."""
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    wl_mod.install_spans(tracer)
    try:
        with tracer.span("bench.setup"):
            wl = wl_mod.make(workload, seed, OUT_DIR, trace=True, size=size)
        with tracer.span("bench.pass"):
            wall, _, result = timed_pass(wl_mod, wl)
    finally:
        tracer.restore()
    wl.check(result.outputs, chk)

    metrics = layer_metrics(tracer, repeat_text=wl_mod.problem_text)
    metrics["trace.overhead_s"] = (metrics["trace.spans"][0] * span_cost_seconds(), "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv")
    tracer.write_tsv(path)
    notes = [f"traced pass wall={wall!r} s; overhead: spans x calibrated cost per span",
             f"spans written to {os.path.relpath(path, ROOT)}"]
    return metrics, notes


def parse_args(argv):
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(wl_mod, workload: str, seed: int, seconds: float, traced: bool,
        size: str = "full"):
    """Measure one workload; returns (result dict, human-readable lines)."""
    chk = wl_mod.Checker()
    if traced:
        metrics, notes = trace(wl_mod, workload, seed, size, chk)
    else:
        metrics, notes = measure(wl_mod, workload, seed, seconds, size, chk)
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"fail_ratio = {chk.failed}/{chk.attempted} outputs checked")
    lines.extend(notes)
    lines.extend(f"FAILED CHECK: {m}" for m in chk.messages)
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed, args.size)
        return 0
    import json
    wl_mod = import_workloads()
    result, lines = run(wl_mod, args.workload, args.seed, args.seconds, bool(args.trace),
                        args.size)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
