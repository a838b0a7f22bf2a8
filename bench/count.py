"""Counting and packing harness: CPU time and output hashes on fixed hosts.

    python3 bench/count.py [--src DIR] [--runs 5] [--seeds 1,2,3,4]

Imports genturan from DIR (default: ./src next to this script's parent) and
rebuilds the hosts of the perfbench `hosts` workload for each seed: twelve
G(n, m) hosts (n = 16, 18, ..., 38, m = 2n edges drawn uniformly with
`random.Random(seed)`) and the eight symmetric hosts of `bench/canon.py`.
Each counting kernel below is run on every host whose workload plan counts
its pattern, as the workload does: the copy and meeting counts (the meeting
count with the first max(1, n // 4) vertices, exactly 1) of 2K2 and of the
connected patterns K3, K4, C4, C5 and K2,3, and the induced-family totals of
the patterns whose family has a disconnected member (2K1 in C4's, 2K1 and
K2+K1 in C5's, 2K1 and 3K1 in K2,3's, 2K1, K2+K1 and 2K2 in 2K2's).  The
packing kernels, the copy vertex sets and the maximum packing size of C5 and
of K3, run on every symmetric host whose workload plan packs the pattern.

It prints one JSON object: per kernel the number of calls, the median CPU
time of `--runs` timed passes over all its calls, and a hash of its outputs,
so two checkouts can be compared for equal outputs as well as for speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import sys
import time

import canon  # bench/canon.py, beside this script: the symmetric hosts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RANDOM_SIZES = tuple(range(16, 40, 2))
RANDOM_PATTERNS = ("K3", "K4", "C4", "C5", "K2,3", "2*K2")
# The patterns the workload counts on each symmetric host of `canon.HOSTS`.
SYMMETRIC = {
    "T(20,4)": ("K3", "K4", "C4", "2*K2"),
    "T(18,3)": ("K3", "K4", "C4", "2*K2"),
    "join(K2,T(30,3))": ("K3", "K4"),
    "8*C5": ("C5", "C4", "K2,3", "2*K2"),
    "thm35_lower(20,3,2)": ("K3", "C4", "C5", "2*K2"),
    "thm62_lower(20,3)": ("K3", "K4", "C4"),
    "f_star(C5,0,2)": ("C5", "C4", "2*K2"),
    "f_star(C4,0,3)": ("C4", "C5", "2*K2"),
}
# The patterns among C5 and K3 that the workload packs on each symmetric host.
PACKED = {
    "T(20,4)": ("K3",), "T(18,3)": ("K3",), "join(K2,T(30,3))": ("K3",),
    "8*C5": ("C5",), "thm35_lower(20,3,2)": ("K3", "C5"), "thm62_lower(20,3)": ("K3",),
    "f_star(C5,0,2)": ("C5", "K3"), "f_star(C4,0,3)": ("K3",),
}
CONNECTED = ("K3", "K4", "C4", "C5", "K2,3")
PACKING_KERNELS = ("copy_vertex_sets", "max_packing_size")
KERNELS = ((("count_copies", "2*K2"), ("count_copies_meeting", "2*K2"),
            ("count_induced_family", "2*K2"), ("count_induced_family", "K2,3"),
            ("count_induced_family", "C5"), ("count_induced_family", "C4"))
           + tuple((kind, p) for kind in ("count_copies", "count_copies_meeting")
                   for p in CONNECTED)
           + tuple((kind, p) for kind in PACKING_KERNELS for p in ("C5", "K3")))


def build_hosts(seed: int, graphs, gspec, constructions) -> list[tuple]:
    """(host, patterns it counts, patterns it packs) for one seed, in the
    workload's order."""
    rng = random.Random(seed)
    out = []
    for n in RANDOM_SIZES:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append((graphs.from_edges(n, rng.sample(pairs, 2 * n)), RANDOM_PATTERNS, ()))
    symmetric = canon.build_hosts(graphs, gspec, constructions)
    out += [(symmetric[name], patterns, PACKED[name]) for name, patterns in SYMMETRIC.items()]
    return out


def kernel_calls(counting, packing, gspec, hosts, kind: str, pattern: str) -> list:
    h = gspec.parse_spec(pattern).build()
    fn = getattr(packing if kind in PACKING_KERNELS else counting, kind)
    calls = []
    for g, counted, packed in hosts:
        if pattern not in (packed if kind in PACKING_KERNELS else counted):
            continue
        if kind == "count_copies_meeting":
            meet = (1 << max(1, g.n // 4)) - 1
            calls.append(lambda g=g: fn(g, h, meet, 1))
        else:
            calls.append(lambda g=g: fn(g, h))
    return calls


def median_cpu_s(calls, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.process_time()
        for call in calls:
            call()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the genturan package")
    ap.add_argument("--runs", type=int, default=5, help="timed passes per kernel")
    ap.add_argument("--seeds", default="1,2,3,4", help="comma-separated host seeds")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from genturan import constructions, counting, graphs, gspec, packing

    seeds = [int(s) for s in args.seeds.split(",")]
    hosts = [host for seed in seeds for host in build_hosts(seed, graphs, gspec, constructions)]
    out: dict = {"src": os.path.abspath(args.src), "runs": args.runs, "seeds": seeds,
                 "python": sys.version.split()[0], "kernels": {}}
    total = 0.0
    for kind, pattern in KERNELS:
        calls = kernel_calls(counting, packing, gspec, hosts, kind, pattern)
        outputs = [call() for call in calls]
        cpu = median_cpu_s(calls, args.runs)
        total += cpu
        out["kernels"][f"{kind}({pattern})"] = {
            "calls": len(calls), "cpu_ms": round(1000 * cpu, 2),
            "outputs_sha256": hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]}
    out["total_cpu_ms"] = round(1000 * total, 2)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
