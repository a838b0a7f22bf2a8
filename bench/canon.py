"""Canonical-search harness: leaves, refinements and CPU time on fixed inputs.

    python3 bench/canon.py [--src DIR] [--runs 5]

Imports genturan from DIR (default: ./src next to this script's parent) and
prints one JSON object with two parts:

- "hosts": `canonical_form` of each symmetric host the perfbench `hosts`
  workload builds, rebuilt here from `gspec` and `constructions`;
- "walk8": every acceptance test (`graphs._accept_child`) the walk of all
  graphs on 8 vertices makes, replayed from the recorded inputs.

For each input it gives the leaves `_canon_search` reaches (`_leaf_cert`
calls), the `_refine` calls, the median CPU time of `--runs` uncounted runs,
and a hash of the outputs (certificates; for the walk also every accept or
reject decision and the orbits of each accepted child's generators), so two
checkouts can be compared for equal outputs as well as for speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The symmetric hosts of perfbench's `hosts` workload: gspec expressions,
# or construction calls on the named pattern.
HOSTS = ("T(20,4)", "T(18,3)", "join(K2,T(30,3))", "8*C5", "thm35_lower(20,3,2)",
         "thm62_lower(20,3)", "f_star(C5,0,2)", "f_star(C4,0,3)")


def build_hosts(graphs, gspec, constructions) -> dict:
    calls = {
        "thm35_lower(20,3,2)": lambda: constructions.thm35_lower(20, 3, 2),
        "thm62_lower(20,3)": lambda: constructions.thm62_lower(20, 3),
        "f_star(C5,0,2)": lambda: constructions.f_star(graphs.cycle(5), 0, 2),
        "f_star(C4,0,3)": lambda: constructions.f_star(graphs.cycle(4), 0, 3),
    }
    return {name: calls[name]() if name in calls else gspec.parse_spec(name).build()
            for name in HOSTS}


class Counter:
    """Counts calls of `graphs._leaf_cert` and `graphs._refine` while active."""

    def __init__(self, graphs):
        self.graphs = graphs
        self.leaves = self.refines = 0

    def __enter__(self):
        g = self.graphs
        self.saved = g._leaf_cert, g._refine
        leaf_cert, refine = self.saved

        def counted_leaf(*args):
            self.leaves += 1
            return leaf_cert(*args)

        def counted_refine(*args, **kwargs):
            self.refines += 1
            return refine(*args, **kwargs)

        g._leaf_cert, g._refine = counted_leaf, counted_refine
        return self

    def __exit__(self, *exc):
        self.graphs._leaf_cert, self.graphs._refine = self.saved


def median_cpu_s(fn, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def record_acceptance_inputs(graphs, n: int) -> list[tuple]:
    """The (adj, n) of every acceptance test the walk of all graphs makes."""
    inputs = []
    real = graphs._accept_child

    def recorded(adj, m):
        inputs.append((adj, m))
        return real(adj, m)

    graphs._accept_child = recorded
    try:
        for _ in graphs.enumerate_graphs(n):
            pass
    finally:
        graphs._accept_child = real
    return inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the genturan package")
    ap.add_argument("--runs", type=int, default=5, help="timed runs per input")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from genturan import constructions, graphs, gspec

    out: dict = {"src": os.path.abspath(args.src), "runs": args.runs,
                 "python": sys.version.split()[0], "hosts": {}}
    for name, g in build_hosts(graphs, gspec, constructions).items():
        with Counter(graphs) as c:
            form = graphs.canonical_form(g)
        out["hosts"][name] = {
            "n": g.n, "leaves": c.leaves, "refine_calls": c.refines,
            "cpu_ms": round(1000 * median_cpu_s(lambda: graphs.canonical_form(g), args.runs), 2),
            "form_sha256": hashlib.sha256(form).hexdigest()[:16]}

    inputs = record_acceptance_inputs(graphs, 8)
    digest = hashlib.sha256()
    accepted = 0
    with Counter(graphs) as c:
        for adj, m in inputs:
            res = graphs._accept_child(adj, m)
            if res is None:
                digest.update(repr((adj, None)).encode())
            else:
                accepted += 1
                orbits = tuple(min(graphs._orbit(v, res.gens)) for v in range(m))
                digest.update(repr((adj, res.cert, orbits)).encode())

    def replay():
        for adj, m in inputs:
            graphs._accept_child(adj, m)

    out["walk8"] = {
        "tests": len(inputs), "accepted": accepted, "leaves": c.leaves,
        "refine_calls": c.refines, "cpu_s": round(median_cpu_s(replay, args.runs), 3),
        "outputs_sha256": digest.hexdigest()[:16]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
