"""Shared test helpers: independent brute-force oracles and random graphs.

Everything here deliberately avoids the library's counting/canonical code
paths so tests compare two unrelated computations."""

from __future__ import annotations

import os
import random
from itertools import combinations, islice, permutations
from pathlib import Path

import pytest

import genturan
from genturan.graphs import Graph, turan_part_sizes


# Graph expressions that parse but that a `graphs` constructor refuses: a
# parameter out of range, or more than 64 vertices (at a leaf, a join or a
# copy count), or a deleted vertex outside the graph.
MALFORMED_SPECS = ("C2", "T(3,4)", "0*K2", "30*K3", "100*K1", "K65", "join(K40,K30)",
                   "del(K4, 9)", "del(E0, 0)", "T(1000000,1000000)")


def nested_specs(depth: int) -> dict[str, str]:
    """An expression of each shape nesting `depth` combinators deep, each
    building the same graph at any depth: joins and unions of E0, and copy
    counts 1* of K1."""
    return {"join": "join(E0, " * depth + "E0" + ")" * depth,
            "union": "union(E0, " * depth + "E0" + ")" * depth,
            "copies": "1*" * depth + "K1"}


# Nesting depths, by shape, far past gspec.MAX_DEPTH: deep enough to
# overflow Python's stack in a recursive parser with no depth limit.
DEEP_NESTING = {"join": 600, "union": 600, "copies": 3000}


def package_env() -> dict[str, str]:
    """The environment with PYTHONPATH led by the directory the tests import
    genturan from, so a child Python process runs the same package."""
    root = str(Path(genturan.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([root, rest] if rest else [root])}


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def naive_count_copies(g: Graph, h: Graph, meet: int = 0,
                       exactly: int | None = None) -> int:
    """Copies of h in g by explicit subsets and permutations.

    For every |V(h)|-subset of hosts, every bijection to the pattern is
    tried; distinct surviving edge sets are distinct copies.  With `exactly`
    set, only subsets holding exactly that many vertices of the bitmask
    `meet` count."""
    if h.n > g.n:
        return 0
    h_edges = list(h.edges())
    total = 0
    for subset in combinations(range(g.n), h.n):
        if exactly is not None and sum(meet >> v & 1 for v in subset) != exactly:
            continue
        seen: set[frozenset] = set()
        for perm in permutations(subset):
            mapped = []
            ok = True
            for a, b in h_edges:
                u, v = perm[a], perm[b]
                if not g.adj[u] >> v & 1:
                    ok = False
                    break
                mapped.append((u, v) if u < v else (v, u))
            if ok:
                seen.add(frozenset(mapped))
        total += len(seen)
    return total


def naive_count_induced(g: Graph, h: Graph) -> int:
    """Vertex subsets of g inducing a graph isomorphic to h, by permutations."""
    if h.n > g.n:
        return 0
    count = 0
    for subset in combinations(range(g.n), h.n):
        if any(_is_induced_iso(g, subset, h, perm)
               for perm in permutations(range(h.n))):
            count += 1
    return count


def _is_induced_iso(g: Graph, subset: tuple[int, ...], h: Graph,
                    perm: tuple[int, ...]) -> bool:
    for i in range(h.n):
        for j in range(i + 1, h.n):
            if bool(g.adj[subset[i]] >> subset[j] & 1) != bool(h.adj[perm[i]] >> perm[j] & 1):
                return False
    return True


def naive_automorphisms(g: Graph) -> int:
    count = 0
    for perm in permutations(range(g.n)):
        if all((g.adj[u] >> v & 1) == (g.adj[perm[u]] >> perm[v] & 1)
               for u in range(g.n) for v in range(u + 1, g.n)):
            count += 1
    return count if g.n else 1


def naive_orbits(g: Graph) -> list[set[int]]:
    """The orbit of each vertex under Aut(g): the images of that vertex over
    every automorphism, each found by mapping vertex 0, 1, ... in turn to
    every unused vertex that keeps the adjacencies to the earlier ones."""
    orbits = [set() for _ in range(g.n)]
    images: list[int] = []

    def extend(used: int) -> None:
        v = len(images)
        if v == g.n:
            for u, w in enumerate(images):
                orbits[u].add(w)
            return
        for w in range(g.n):
            if not used >> w & 1 and all(
                    (g.adj[u] >> v & 1) == (g.adj[images[u]] >> w & 1)
                    for u in range(v)):
                images.append(w)
                extend(used | 1 << w)
                images.pop()

    extend(0)
    return orbits


def first_hosts_search(k: int):
    """A stand-in for `verify.brute_force_ex`: a partial search that
    evaluates only the first k hosts of `enumerate_graphs`.  It reports their
    maximum, its canonical witnesses and extremal count, and exhaustive=False
    unless the walk holds no more than k hosts.  It reads no cache, takes no
    seed and ignores the deadline, so it is the same partial search on every
    run."""
    from genturan.graph6 import encode_graph6
    from genturan.graphs import canonical_graph, enumerate_graphs
    from genturan.search import DEFAULT_WITNESS_CAP, ExtremalResult, _problem_key

    def search(problem, *, witness_cap=DEFAULT_WITNESS_CAP, **_):
        hosts = list(islice(enumerate_graphs(problem.n, problem.forbidden), k + 1))
        values = [problem.objective.evaluate(g) for g in hosts[:k]]
        top = max(values, default=None)
        witnesses = sorted({encode_graph6(canonical_graph(g))
                            for g, value in zip(hosts, values) if value == top})
        return ExtremalResult(problem.n, top, tuple(witnesses[:witness_cap]),
                              values.count(top), len(values), len(hosts) <= k,
                              _problem_key(problem))
    return search


def registry_usage() -> tuple[list[tuple[Graph, ...]], list[Graph]]:
    """The distinct forbidden families the verify registry searches, and the
    patterns whose automorphisms or orbits its counting and freeness prune
    read, recorded from one run of every check with one-host searches."""
    problems, patterns = _registry_run()
    return list(dict.fromkeys(p.forbidden for p in problems)), patterns


def registry_problems() -> list:
    """The distinct search problems the verify registry issues, in the order
    of a run of every check with one-host searches."""
    return _registry_run()[0]


def _registry_run() -> tuple[list, list[Graph]]:
    from genturan import counting, verify
    problems: dict = {}
    patterns: dict[Graph, None] = {}

    def recorded(real, seen, key):
        def call(arg, **kwargs):
            seen[key(arg)] = None
            return real(arg, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "brute_force_ex", recorded(
            first_hosts_search(1), problems, lambda problem: problem))
        for name in ("automorphism_count", "_orbit_representatives"):
            mp.setattr(counting, name, recorded(
                getattr(counting, name), patterns, lambda h: h))
        verify.run_all()
    return list(problems), list(patterns)


def every_subset_walk(n: int, forbidden=()):
    """Reference for `enumerate_graphs`: the walk without orbit pruning.

    Every neighbour subset of the new vertex is tried, in ascending order,
    against the full freeness test, and accepted siblings are deduplicated by
    canonical certificate.  It shares only the canonical-deletion test with
    the library, since that test picks which labelled graph stands for a
    class; the orbit pruning, the degree filter and the incremental freeness
    prune are all left out."""
    from genturan.counting import is_family_free
    from genturan.graphs import _accept_child, canonical_cert

    def descend(g: Graph):
        if g.n == n:
            yield g
            return
        m = g.n
        seen = set()
        for s in range(1 << m):
            adj = tuple(row | (s >> v & 1) << m for v, row in enumerate(g.adj))
            child = Graph(m + 1, adj + (s,))
            if _accept_child(child.adj, child.n) is None:
                continue
            if not is_family_free(child, forbidden):
                continue
            cert = canonical_cert(child)
            if cert not in seen:
                seen.add(cert)
                yield from descend(child)

    if is_family_free(Graph(0), forbidden):
        yield from descend(Graph(0))


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return any(_is_induced_iso(g, tuple(range(g.n)), h, perm)
               for perm in permutations(range(h.n)))


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if bits >> idx & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, adj)


def naive_isomorphism_classes(n: int) -> list[Graph]:
    """Representatives of all n-vertex classes via pairwise permutation tests."""
    buckets: dict[tuple, list[Graph]] = {}
    for g in all_labeled_graphs(n):
        key = (g.edge_count(), tuple(sorted(g.degrees())))
        reps = buckets.setdefault(key, [])
        if not any(naive_isomorphic(g, r) for r in reps):
            reps.append(g)
    return [g for reps in buckets.values() for g in reps]


def naive_copy_vertex_sets(g: Graph, f: Graph) -> list[int]:
    """Vertex sets spanning a copy of f, by subsets and permutations."""
    f_edges = list(f.edges())
    out = []
    for subset in combinations(range(g.n), f.n):
        hit = False
        for perm in permutations(subset):
            if all(g.adj[perm[a]] >> perm[b] & 1 for a, b in f_edges):
                hit = True
                break
        if hit:
            out.append(sum(1 << v for v in subset))
    return out


def naive_max_packing(g: Graph, f: Graph) -> int:
    """Largest family of disjoint copy vertex sets, by explicit combinations."""
    masks = naive_copy_vertex_sets(g, f)
    upper = g.n // f.n if f.n else 0
    for k in range(min(upper, len(masks)), 0, -1):
        for combo in combinations(masks, k):
            used = 0
            ok = True
            for m in combo:
                if m & used:
                    ok = False
                    break
                used |= m
            if ok:
                return k
    return 0


def turan_clique_count_naive(n: int, r: int, s: int) -> int:
    """Independent evaluation of turan_clique_count by explicit subsets."""
    sizes = turan_part_sizes(n, r)
    if s > len(sizes):
        return 0
    total = 0
    for idxs in combinations(range(len(sizes)), s):
        prod = 1
        for i in idxs:
            prod *= sizes[i]
        total += prod
    return total
