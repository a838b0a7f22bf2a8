"""Copy counting against independent subset-permutation oracles."""

from __future__ import annotations

import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan.constructions import turan_clique_count
from genturan.counting import (contains, count_copies, count_copies_meeting,
                               count_induced_copies, count_induced_family,
                               count_injections, induced_family,
                               is_family_free, is_free)
from genturan.graphs import (automorphism_count, complete, complete_bipartite,
                             copies, cycle, disjoint_union, empty_graph,
                             from_edges, turan)

from conftest import naive_count_copies, naive_count_induced, random_graph

P3 = from_edges(3, [(0, 1), (1, 2)])
P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_count_copies_spec_examples():
    assert count_copies(complete(4), complete(3)) == 4
    assert count_copies(turan(5, 2), complete(2)) == 6          # floor(25/4)
    assert count_copies(complete_bipartite(2, 3), cycle(4)) == 3


def test_count_copies_edges_and_vertices():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
        assert count_copies(g, complete(2)) == g.edge_count()
        assert count_copies(g, complete(1)) == g.n


def test_count_induced_spec_examples():
    assert count_induced_copies(complete(4), complete(3)) == 4
    assert count_induced_copies(cycle(5), P3) == 5
    edge_plus_isolated = disjoint_union(complete(2), empty_graph(1))
    assert count_induced_copies(complete(4), edge_plus_isolated) == 0


K1, K2 = complete(1), complete(2)
P3_K2 = disjoint_union(P3, K2)


@pytest.mark.parametrize("pattern", [
    complete(3), complete(4), cycle(4), cycle(5),
    copies(2, K2), complete_bipartite(2, 2), copies(2, complete(3)),
    P3, disjoint_union(K2, K1),
    P4, complete_bipartite(1, 3), disjoint_union(complete(3), K2),
    # Patterns whose plan ends in isolated vertices and/or one K2, counted
    # in closed form once the rest is mapped.
    empty_graph(2), empty_graph(3), disjoint_union(K2, empty_graph(2)),
    copies(3, K2), P3_K2, disjoint_union(P3_K2, K1),
])
def test_count_copies_vs_naive_oracle(pattern):
    rng = random.Random(hash((pattern.n, pattern.adj)) & 0xFFFF)
    meets = random.Random(pattern.edge_count())
    for _ in range(12):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        assert count_copies(g, pattern) == naive_count_copies(g, pattern)
        meet = meets.getrandbits(n)
        for exactly in range(pattern.n + 1):
            assert (count_copies_meeting(g, pattern, meet, exactly)
                    == naive_count_copies(g, pattern, meet, exactly))


def test_disconnected_tails_match_closed_forms():
    # The test's own arithmetic on hosts too large for the naive oracle:
    # 2K2 = pairs of edges minus pairs sharing a vertex, iK1 = C(n, i),
    # K2+K1 = an edge and any other vertex, and copies of K1 and K2 meeting
    # a set M by their ends in M.
    rng = random.Random(29)
    for _ in range(8):
        n = rng.randint(12, 30)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5]))
        edges = list(g.edges())
        m = len(edges)
        degrees = [row.bit_count() for row in g.adj]
        assert count_copies(g, copies(2, K2)) == comb(m, 2) - sum(comb(d, 2) for d in degrees)
        for i in (1, 2, 3, 4):
            assert count_copies(g, empty_graph(i)) == comb(n, i)
        assert count_copies(g, disjoint_union(K2, K1)) == m * (n - 2)
        meet = rng.getrandbits(n)
        inside = bin(meet).count("1")
        assert count_copies_meeting(g, K1, meet, 1) == inside
        assert count_copies_meeting(g, K1, meet, 0) == n - inside
        for ends in (0, 1, 2):
            want = sum(1 for u, v in edges if (meet >> u & 1) + (meet >> v & 1) == ends)
            assert count_copies_meeting(g, K2, meet, ends) == want


def test_count_induced_family_vs_naive_member_sum():
    # The induced subgraphs of C5 and of K2,3, listed by hand: the empty
    # graph counts once, every other member by the naive oracle.
    k13 = complete_bipartite(1, 3)
    families = {
        cycle(5): [K1, empty_graph(2), K2, disjoint_union(K2, K1), P3, P4, cycle(5)],
        complete_bipartite(2, 3): [K1, empty_graph(2), K2, empty_graph(3), P3, cycle(4),
                                   k13, complete_bipartite(2, 3)],
    }
    rng = random.Random(31)
    for _ in range(6):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6, 0.8]))
        for h, members in families.items():
            want = 1 + sum(naive_count_copies(g, f) for f in members)
            assert count_induced_family(g, h) == want


def test_meet_set_members_must_be_host_vertices():
    g = cycle(5)
    for meet in ([-1], [0, 5], {7}, 1 << 5):
        with pytest.raises(ValueError, match="meet set has vertices outside the host"):
            count_copies_meeting(g, K2, meet, 1)


@pytest.mark.parametrize("pattern", [complete(3), cycle(4), P3,
                                     copies(2, complete(2))])
def test_count_induced_vs_naive_oracle(pattern):
    rng = random.Random(pattern.edge_count() * 7 + pattern.n)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6]))
        assert count_induced_copies(g, pattern) == naive_count_induced(g, pattern)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 8), st.floats(0.1, 0.9))
def test_injections_divisible_by_automorphisms(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    for pattern in (complete(3), cycle(4), P3):
        assert count_injections(g, pattern) % automorphism_count(pattern) == 0


def test_turan_clique_counts_match_generic_counter():
    for n in range(1, 13):
        for r in range(1, n + 1):
            g = turan(n, r)
            for s in range(1, min(r, 5) + 1):
                assert count_copies(g, complete(s)) == turan_clique_count(n, r, s)


def test_contains_and_freeness():
    assert is_free(turan(8, 2), complete(3))
    assert not is_free(complete(4), complete(3))
    assert is_family_free(cycle(5), [cycle(4), complete(3)])
    assert contains(complete(5), copies(2, complete(2)))
    assert not contains(cycle(3), copies(2, complete(2)))


def test_count_copies_meeting_examples():
    from genturan.graphs import join
    g = join(complete(1), turan(6, 2))  # vertex 0 universal
    k3 = complete(3)
    assert count_copies_meeting(g, k3, {0}, 1) == 9
    assert count_copies_meeting(g, k3, {0}, 0) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(3, 8), st.floats(0.2, 0.9),
       st.integers(0, 255))
def test_count_copies_meeting_partition_identity(seed, n, p, smask):
    g = random_graph(random.Random(seed), n, p)
    s = smask & ((1 << n) - 1)
    for pattern in (complete(3), P3):
        total = count_copies(g, pattern)
        assert sum(count_copies_meeting(g, pattern, s, i)
                   for i in range(pattern.n + 1)) == total


def test_induced_family_k3():
    fam = induced_family(complete(3))
    assert len(fam) == 4
    assert [g.n for g in fam] == [0, 1, 2, 3]


def test_induced_family_c4_by_subset_enumeration():
    # Oracle: the 2^4 subsets of a 4-cycle induce exactly these classes:
    # empty, a vertex, two vertices (adjacent or not), the 3-path, the cycle.
    fam = induced_family(cycle(4))
    assert len(fam) == 6
    assert sorted((g.n, g.edge_count()) for g in fam) == [
        (0, 0), (1, 0), (2, 0), (2, 1), (3, 2), (4, 4)]


def test_induced_family_k1():
    assert len(induced_family(complete(1))) == 2


def test_count_induced_family_examples():
    assert count_induced_family(complete(3), complete(3)) == 1 + 3 + 3 + 1
    for n in range(0, 7):
        assert count_induced_family(empty_graph(n), complete(2)) == 1 + n
    assert count_induced_family(complete(3), complete(1)) == 4


def test_matching_count_bound_in_triangle_free_hosts():
    # Any triangle-free host: ordered l-matchings are at most the product of
    # shrinking edge maxima, so copies are at most that over l factorial.
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4]))
        if not is_free(g, complete(3)):
            continue
        for l in (2, 3):
            if n < 2 * l:
                continue
            bound = 1
            for i in range(l):
                bound *= (n - 2 * i) ** 2 // 4
            pattern = copies(l, complete(2))
            assert count_copies(g, pattern) * factorial(l) <= bound


def test_pattern_must_be_nonempty():
    with pytest.raises(ValueError):
        count_copies(complete(3), empty_graph(0))
