"""Packing exactness, the canonical split, and its invariants."""

from __future__ import annotations

import random

import pytest

from genturan.counting import is_free
from genturan.graphs import (Graph, complete, complete_bipartite, copies,
                             cycle, disjoint_union, empty_graph, from_edges,
                             join, turan)
from genturan.packing import (canonical_partition, copy_vertex_sets,
                              is_kF_free, max_disjoint_packing,
                              max_packing_size)

from conftest import naive_copy_vertex_sets, naive_max_packing, random_graph

K3 = complete(3)
P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_packing_spec_examples():
    assert max_disjoint_packing(copies(2, K3), K3).size == 2
    assert max_disjoint_packing(complete(6), K3).size == 2
    assert max_disjoint_packing(cycle(5), cycle(5)).size == 1


def test_copy_vertex_sets_vs_naive():
    # The last four patterns have several vertex orbits, several
    # components, or both.
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6, 0.9]))
        for f in (K3, cycle(4), complete(2), P4, complete_bipartite(1, 3),
                  copies(2, complete(2)), disjoint_union(K3, complete(2))):
            assert copy_vertex_sets(g, f) == sorted(naive_copy_vertex_sets(g, f))


def test_exact_packing_vs_exhaustive_up_to_7():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        for f in (K3, complete(2), cycle(4)):
            assert max_packing_size(g, f) == naive_max_packing(g, f)


def test_is_kf_free_spec_examples():
    assert is_kF_free(join(complete(1), turan(8, 2)), 2, cycle(5))
    assert not is_kF_free(copies(2, K3), 2, K3)
    with pytest.raises(ValueError):
        is_kF_free(K3, 0, K3)


def test_is_kf_free_matches_the_embedder_on_the_disjoint_union():
    # Oracle: g has k disjoint copies of f exactly when it holds a copy of
    # their disjoint union, which the embedder looks for on its own.
    rng = random.Random(41)
    cases = ((K3, 2), (K3, 3), (cycle(4), 2), (cycle(5), 2),
             (complete_bipartite(1, 2), 2))
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.8]))
        for f, k in cases:
            assert is_kF_free(g, k, f) == is_free(g, copies(k, f)), (g.adj, f.adj, k)


def test_join_safety_property():
    # Gluing k-1 universal vertices onto an F-free graph kills k disjoint copies.
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        for f, k in ((K3, 2), (K3, 3), (cycle(4), 2), (cycle(5), 3)):
            if not is_free(g, f):
                continue
            built = join(complete(k - 1), g)
            assert is_kF_free(built, k, f)
            checked += 1


def test_packing_monotone_under_edge_addition():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, 0.4)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.adj[u] >> v & 1]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        adj = list(g.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        g2 = Graph(n, adj)
        for f in (K3, cycle(4)):
            assert max_packing_size(g2, f) >= max_packing_size(g, f)


def test_canonical_partition_spec_examples():
    g = disjoint_union(copies(2, K3), empty_graph(3))
    part = canonical_partition(g, K3)
    assert len(part.L) == 6 and len(part.R) == 3
    assert g.induced(part.R).edge_count() == 0

    g = join(complete(1), turan(6, 2))
    part = canonical_partition(g, K3)
    assert len(part.L) == 3 and part.packing.size == 1
    assert is_free(g.induced(part.R), K3)

    g = turan(8, 2)
    part = canonical_partition(g, K3)
    assert part.L == () and part.R == tuple(range(8))


def test_canonical_partition_invariants_random():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        for f in (K3, cycle(4)):
            part = canonical_partition(g, f)
            assert sorted(part.L + part.R) == list(range(n))
            assert set(part.L).isdisjoint(part.R)
            assert is_free(g.induced(part.R), f)
            support = [v for c in part.packing.copies for v in c]
            assert sorted(support) == sorted(part.L)
            for c in part.packing.copies:
                sub = g.induced(c)
                assert not is_free(sub, f) and sub.n == f.n


def test_packing_deterministic_and_lex_least():
    g = copies(3, K3)
    p1 = max_disjoint_packing(g, K3)
    p2 = max_disjoint_packing(g, K3)
    assert p1 == p2
    assert p1.copies == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_pattern_with_isolated_vertex_packs_spares():
    f = disjoint_union(complete(2), empty_graph(1))  # an edge plus a floater
    g = disjoint_union(complete(2), empty_graph(1))
    assert max_disjoint_packing(g, f).size == 1
    g2 = complete(2)  # no spare vertex for the floater
    assert max_disjoint_packing(g2, f).size == 0


def test_complete_host_packing_floor():
    for n in range(3, 10):
        assert max_packing_size(complete(n), K3) == n // 3
