"""Graph representation, constructors and canonical-form machinery."""

from __future__ import annotations

import pickle
import random
import tracemalloc
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import graphs as graphs_mod
from genturan.constructions import thm35_lower
from genturan.counting import count_injections
from genturan.graphs import (MAX_VERTICES, Graph, _canon_search,
                             _orbit_representatives, _refine, are_isomorphic,
                             automorphism_count, canonical_form,
                             canonical_graph, complete, complete_bipartite,
                             copies, cycle, delete_vertex, disjoint_union,
                             empty_graph, enumerate_graphs, from_edges, join,
                             relabel, turan)

from conftest import (naive_automorphisms, naive_isomorphism_classes,
                      naive_orbits, random_graph, registry_usage)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0))            # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))               # loop
    with pytest.raises(ValueError):
        Graph(1, (0b10,))              # bit beyond n
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)           # cap
    with pytest.raises(ValueError):
        from_edges(2, [(0, 0)])


def test_constructor_arithmetic():
    assert complete(5).edge_count() == 10
    assert cycle(7).edge_count() == 7
    assert complete_bipartite(2, 3).edge_count() == 6
    assert turan(5, 2).edge_count() == 6
    assert empty_graph(4).edge_count() == 0
    assert copies(2, complete(3)).edge_count() == 6
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        turan(3, 4)


def test_constructors_check_size_before_work():
    for n in (-1, MAX_VERTICES + 1):
        with pytest.raises(ValueError):
            from_edges(n, [])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            turan(2_000_000, 2_000_000)
        with pytest.raises(ValueError):
            copies(10**9, complete(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert copies(10**9, empty_graph(0)) == empty_graph(0)


@pytest.mark.parametrize("g", [complete(1), complete(3), cycle(5), complete_bipartite(2, 3)],
                         ids=["K1", "K3", "C5", "K2,3"])
def test_copies_is_repeated_disjoint_union(g):
    union = g
    for k in range(1, 5):
        assert copies(k, g) == union
        union = disjoint_union(union, g)


@pytest.mark.parametrize("n,r", [(5, 2), (7, 3), (9, 3), (10, 4), (6, 6)])
def test_turan_edge_count_formula(n, r):
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    expected = (comb(n, 2) - sum(comb(s, 2) for s in sizes))
    assert turan(n, r).edge_count() == expected
    assert max(sizes) - min(sizes) <= 1


def test_turan_2_quarter_squared():
    for n in range(2, 20):
        assert turan(n, 2).edge_count() == n * n // 4


def test_join_arithmetic():
    g, h = cycle(4), complete(3)
    j = join(g, h)
    assert j.n == g.n + h.n
    assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


def test_delete_vertex_examples():
    assert are_isomorphic(delete_vertex(complete(3), 0), complete(2))
    p3 = from_edges(3, [(0, 1), (1, 2)])
    for v in range(4):
        assert are_isomorphic(delete_vertex(cycle(4), v), p3)
    big_side = complete_bipartite(2, 3)
    assert are_isomorphic(delete_vertex(big_side, 4), complete_bipartite(2, 2))
    with pytest.raises(ValueError):
        delete_vertex(complete(3), 3)


def test_delete_vertex_compacts_indices():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = delete_vertex(g, 1)
    assert h.n == 3
    assert sorted(h.edges()) == [(1, 2)]


def test_induced_rejects_vertices_outside_the_graph():
    assert sorted(cycle(5).induced([4, 0]).edges()) == [(0, 1)]
    with pytest.raises(ValueError, match="vertex -1 out of range for n=5"):
        cycle(5).induced([-1, 0])
    with pytest.raises(ValueError, match="vertex 5 out of range for n=5"):
        cycle(5).induced([0, 5])
    with pytest.raises(ValueError, match="vertex 5 out of range for n=5"):
        cycle(5).induced_mask(1 << 5)
    with pytest.raises(ValueError, match="negative"):
        cycle(5).induced_mask(-1)


def test_canonical_form_same_graph_different_labels():
    assert canonical_form(cycle(4)) == canonical_form(complete_bipartite(2, 2))
    p3 = from_edges(3, [(0, 1), (1, 2)])
    k2k1 = disjoint_union(complete(2), empty_graph(1))
    assert canonical_form(p3) != canonical_form(k2k1)


def test_canonical_form_separates_all_classes_on_4_vertices():
    reps = naive_isomorphism_classes(4)
    assert len(reps) == 11
    forms = {canonical_form(g) for g in reps}
    assert len(forms) == 11


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 7), st.floats(0.1, 0.9),
       st.integers(0, 10 ** 9))
def test_canonical_form_relabel_invariant(seed, n, p, pseed):
    g = random_graph(random.Random(seed), n, p)
    perm = list(range(n))
    random.Random(pseed).shuffle(perm)
    assert canonical_form(g) == canonical_form(relabel(g, perm))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 6), st.floats(0.1, 0.9))
def test_canonical_graph_is_isomorphic_representative(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    cg = canonical_graph(g)
    assert canonical_form(cg) == canonical_form(g)
    assert sorted(cg.degrees()) == sorted(g.degrees())


def test_automorphism_counts_known():
    assert automorphism_count(complete(3)) == 6
    assert automorphism_count(cycle(4)) == 8          # brute force over 4! below
    assert automorphism_count(complete_bipartite(2, 3)) == 12
    assert automorphism_count(cycle(5)) == 10
    assert automorphism_count(empty_graph(4)) == 24
    assert automorphism_count(copies(2, complete(3))) == 72


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 6), st.floats(0.1, 0.9))
def test_automorphism_count_vs_brute_force(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    assert automorphism_count(g) == naive_automorphisms(g)


def test_automorphism_count_vs_self_embeddings():
    # The reference is the embedder: every injective edge-preserving map of
    # a graph into itself is an automorphism.
    rng = random.Random(8)
    graphs = [empty_graph(8), copies(3, complete(3)), turan(12, 3), copies(2, cycle(5))]
    graphs += [random_graph(rng, n, p) for n in range(8, 13) for p in (0.3, 0.5, 0.7)
               for _ in range(3)]
    for g in graphs:
        assert automorphism_count(g) == count_injections(g, g), g.adj


def _multipartite_aut(parts: list[int]) -> int:
    """|Aut| of the complete multipartite graph with these part sizes: each
    part's vertices permute freely, and parts of one size swap whole."""
    return (prod(factorial(p) for p in parts)
            * prod(factorial(parts.count(p)) for p in set(parts)))


def test_automorphism_count_of_twin_rich_graphs():
    # Closed forms; a universal K_a is a parts of size 1.
    for n, r in [(6, 2), (7, 3), (12, 4), (20, 4), (18, 3), (11, 11), (9, 1)]:
        parts = [len(range(i, n, r)) for i in range(r)]
        assert automorphism_count(turan(n, r)) == _multipartite_aut(parts), (n, r)
        for a in (1, 2, 3):
            assert (automorphism_count(join(complete(a), turan(n, r)))
                    == _multipartite_aut(parts + [1] * a)), (a, n, r)
    assert (automorphism_count(join(complete(2), turan(30, 3)))
            == factorial(2) * factorial(10) ** 3 * factorial(3))
    assert automorphism_count(thm35_lower(20, 3, 2)) == factorial(10) * factorial(9)
    for n in (1, 2, 5, 12, 20):
        assert automorphism_count(complete(n)) == factorial(n)
        assert automorphism_count(empty_graph(n)) == factorial(n)
    for s, t in [(1, 1), (1, 6), (3, 3), (6, 7), (10, 10)]:
        assert automorphism_count(complete_bipartite(s, t)) == _multipartite_aut([s, t])
    for k in (1, 2, 3, 7):
        assert automorphism_count(copies(k, complete(2))) == 2 ** k * factorial(k)


def test_twin_seeds_cut_the_leaves_searched(monkeypatch):
    # Twin transpositions are known before the search, so one leaf per twin
    # is no longer needed to find them.  Leaf counts are exact, not timings.
    leaves = [0]
    real = graphs_mod._leaf_cert

    def counted(adj, order):
        leaves[0] += 1
        return real(adj, order)

    monkeypatch.setattr(graphs_mod, "_leaf_cert", counted)
    for g, want in [(turan(20, 4), 7), (join(complete(2), turan(30, 3)), 4),
                    (complete(12), 1), (complete_bipartite(6, 7), 1)]:
        leaves[0] = 0
        _canon_search(g.adj, g.n)
        assert leaves[0] == want, (g, leaves[0])


def test_twin_seeds_keep_the_starting_cells():
    # Leaf 0 of the star is individualised, so it is no longer a twin of the
    # other leaves within any cell: no generator may swap it with them.
    n = 7
    star = from_edges(n, [(v, n - 1) for v in range(n - 1)])
    cells = _refine(star.adj, [[0], list(range(1, n))])
    gens = _canon_search(star.adj, n, cells).gens
    assert gens
    for gen in gens:
        for cell in cells:
            assert sorted(gen[v] for v in cell) == sorted(cell), (gen, cells)
    orbits = _generated_orbits(n, gens)
    assert all(orbits[v] == set(cell) for cell in cells for v in cell)


def _generated_orbits(n: int, gens) -> list[set[int]]:
    """The orbit of each vertex under the group the permutations generate."""
    orbits = [{v} for v in range(n)]
    for gen in gens:
        for v in range(n):
            if gen[v] not in orbits[v]:
                merged = orbits[v] | orbits[gen[v]]
                for u in merged:
                    orbits[u] = merged
    return orbits


def test_canon_search_generators_give_every_orbit():
    rng = random.Random(6)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                gens = _canon_search(h.adj, h.n).gens
                assert _generated_orbits(h.n, gens) == naive_orbits(h)


def test_orbit_representatives_of_registry_patterns():
    _, patterns = registry_usage()
    assert len(patterns) >= 8
    for h in patterns:
        orbits = naive_orbits(h)
        assert _orbit_representatives(h) == tuple(
            v for v in range(h.n) if v == min(orbits[v])), h


def test_is_connected():
    from genturan.graphs import is_connected
    assert is_connected(complete(1))
    assert is_connected(empty_graph(0))
    assert is_connected(cycle(5))
    assert not is_connected(empty_graph(2))
    assert not is_connected(copies(2, complete(3)))
    assert is_connected(join(empty_graph(2), empty_graph(2)))


def test_relabel_roundtrip():
    g = cycle(5)
    perm = [2, 0, 4, 1, 3]
    inverse = [perm.index(i) for i in range(5)]
    assert relabel(relabel(g, perm), inverse) == g
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2, 3])


def test_pickle_roundtrip():
    rng = random.Random(7)
    graphs = [empty_graph(0), empty_graph(4), complete(3), complete(9),
              turan(10, 3)]
    for n in (5, 12, 40):
        g = random_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    for g in graphs:
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Graph and back == g and back.adj == g.adj
        assert hash(back) == hash(g)
