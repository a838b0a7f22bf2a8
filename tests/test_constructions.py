"""Construction generators, closed forms, and their freeness claims."""

from __future__ import annotations

import random
from math import comb

import pytest

from genturan.constructions import (default_center_vertex, erdos_value,
                                    f_star, prop54_lower, prop61_value,
                                    thm32_lower, thm35_leading, thm35_lower,
                                    thm62_lower, turan_clique_count,
                                    universal_join, x_exponent)
from genturan.counting import (count_copies, count_copies_meeting, is_free)
from genturan.graphs import (are_isomorphic, complete, complete_bipartite,
                             copies, cycle, delete_vertex, join, turan)
from genturan.packing import is_kF_free

from conftest import random_graph, turan_clique_count_naive

K3 = complete(3)


def test_universal_join_examples():
    g = turan(8, 2)
    assert universal_join(1, g) == g
    built = universal_join(2, g)
    assert built.n == 9
    assert built.degrees().count(8) == 1
    k, h = 3, cycle(5)
    built = universal_join(k, h)
    assert built.edge_count() == h.edge_count() + (k - 1) * h.n + comb(k - 1, 2)
    for k, h in ((2, complete(64)), (10**12, K3)):
        with pytest.raises(ValueError):
            universal_join(k, h)


def test_x_exponent_forced_arithmetic():
    assert x_exponent(2, 3, 3) == 2
    assert x_exponent(3, 3, 4) == 2
    assert x_exponent(2, 2, 2) == 1
    with pytest.raises(ValueError):
        x_exponent(1, 3, 3)
    with pytest.raises(ValueError):
        x_exponent(2, 2, 5)  # s >= k*t leaves nothing to count
    with pytest.raises(ValueError):
        x_exponent(2, 3, 2)  # s < t


def test_x_exponent_matches_ceiling_definition():
    from math import ceil
    for k in range(2, 6):
        for t in range(2, 6):
            for s in range(t, 2 * k * t):
                expected = ceil((k * t - s) / (k - 1)) - 1
                if expected < 0:
                    with pytest.raises(ValueError):
                        x_exponent(k, t, s)
                else:
                    assert x_exponent(k, t, s) == expected


def test_thm32_construction():
    g = thm32_lower(8, 3, 3, 2)
    assert are_isomorphic(g, join(complete(1), turan(7, 2)))
    for (n, s, t, k) in [(8, 3, 3, 2), (9, 3, 3, 2), (10, 4, 3, 2), (9, 4, 4, 3)]:
        x = x_exponent(k, t, s)
        built = thm32_lower(n, s, t, k)
        assert is_kF_free(built, k, complete(t))
        assert s + (k - 1) * x < k * t
        inner = turan_clique_count(n - s + x, x, x)
        assert count_copies(built, complete(s)) >= inner


def test_thm35_construction_and_leading_term():
    built = thm35_lower(7, 3, 2)
    assert are_isomorphic(built, join(complete(1), turan(6, 2)))
    assert thm35_leading(7, 3, 3, 2) == comb(1, 1) * 9
    universal = (1 << 1) - 1
    assert count_copies_meeting(built, complete(3), universal, 1) == 9
    # s = t specialization: one universal vertex per copy
    for n in range(6, 12):
        k = 3
        t = 4
        built = thm35_lower(n, t, k)
        assert thm35_leading(n, t, t, k) == (
            comb(k - 1, 1) * turan_clique_count(n - k + 1, t - 1, t - 1))
        assert is_kF_free(built, k, complete(t))


def test_thm62_construction():
    g = thm62_lower(9, 3)
    assert are_isomorphic(g, join(complete(2), complete_bipartite(3, 4)))
    for n in range(4, 12):
        for k in range(2, 4):
            if n < k + 1:
                continue
            built = thm62_lower(n, k)
            assert is_kF_free(built, k, K3)
            m = n - k + 1
            bip = complete_bipartite(m // 2, (m + 1) // 2)
            for l in range(1, k):
                lhs = count_copies(built, copies(l, K3) if l > 1 else K3)
                match = copies(l, complete(2)) if l > 1 else complete(2)
                assert lhs >= comb(k - 1, l) * count_copies(bip, match)


def test_prop54_construction():
    g = prop54_lower(8, 3)
    assert are_isomorphic(g, complete_bipartite(2, 6))
    assert count_copies(g, complete_bipartite(1, 2)) >= comb(2, 1) * comb(6, 2)
    for t in range(3, 5):
        assert is_free(g, complete_bipartite(3, t))
    assert prop54_lower(5, 1).edge_count() == 0


def test_f_star_shape():
    fs = f_star(K3, 0, 2)
    assert fs.n == 9 and fs.edge_count() == 12
    center = fs.n - 1
    m = (2 - 1) * 3 + 1
    assert count_copies_meeting(fs, K3, {center}, 1) == m
    assert count_copies_meeting(fs, K3, {center}, 0) == 0
    # removing the center leaves m disjoint copies of the deleted-vertex graph
    rest = delete_vertex(fs, center)
    fu = delete_vertex(K3, 0)
    assert are_isomorphic(rest, copies(m, fu))


def test_f_star_various_patterns():
    for f, u, k in [(cycle(5), 2, 2), (complete(4), 1, 2),
                    (complete_bipartite(2, 3), 0, 2), (cycle(4), 3, 3)]:
        m = (k - 1) * f.n + 1
        fs = f_star(f, u, k)
        assert fs.n == m * (f.n - 1) + 1
        center = fs.n - 1
        assert count_copies_meeting(fs, f, {center}, 1) >= m
        rest = delete_vertex(fs, center)
        assert are_isomorphic(rest, copies(m, delete_vertex(f, u)))
    with pytest.raises(ValueError):
        f_star(cycle(6), 0, 5)  # 25 copies of a 5-vertex remnant: too big


def test_default_center_vertex_deterministic():
    g = complete_bipartite(2, 3)
    assert default_center_vertex(g) == 0  # small side has the high degree
    assert g.degree(default_center_vertex(g)) == max(g.degrees())
    assert default_center_vertex(cycle(5)) == 0


def test_prop61_host_attains_formula():
    from genturan.constructions import prop61_host
    from genturan.counting import count_copies
    for n in range(2, 10):
        host = prop61_host(n)
        assert is_free(host, K3)
        for l in (1, 2, 3):
            if n < 2 * l:
                continue
            match = copies(l, complete(2)) if l > 1 else complete(2)
            assert count_copies(host, match) == prop61_value(n, l)


def test_prop61_forced_values():
    assert prop61_value(6, 2) == 18
    assert prop61_value(8, 3) == 96
    for n in range(2, 15):
        assert prop61_value(n, 1) == n * n // 4
    with pytest.raises(ValueError):
        prop61_value(5, 3)


def test_prop61_division_exact_wide_scan():
    for l in range(1, 11):
        for n in range(2 * l, 41):
            prop61_value(n, l)  # asserts exact divisibility internally


def test_erdos_value():
    assert erdos_value(6, 2, 3) == 9
    assert erdos_value(6, 3, 4) == 8
    for n in range(4, 13):
        for t in range(3, 6):
            for s in range(2, t):
                if t > n:
                    continue
                assert erdos_value(n, s, t) == count_copies(turan(n, t - 1), complete(s))


def test_turan_clique_count_vs_naive():
    for n in range(1, 20):
        for r in range(1, min(n, 8) + 1):
            for s in range(0, r + 1):
                assert turan_clique_count(n, r, s) == turan_clique_count_naive(n, r, s)


def test_freeness_at_full_scale():
    # The generators stay free all the way to the 64-vertex cap.
    assert is_kF_free(thm62_lower(64, 3), 3, K3)
    assert is_kF_free(thm62_lower(40, 4), 4, K3)
    assert is_kF_free(thm35_lower(64, 3, 2), 2, K3)
    assert is_kF_free(thm35_lower(50, 4, 3), 3, complete(4))
    assert is_kF_free(thm32_lower(64, 3, 3, 2), 2, K3)
    assert is_kF_free(thm32_lower(40, 4, 3, 2), 2, K3)
    assert is_free(prop54_lower(64, 3), complete_bipartite(3, 3))


def test_universal_join_on_random_free_hosts():
    rng = random.Random(53)
    done = 0
    while done < 100:
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        f = rng.choice([K3, cycle(4), cycle(5), complete(4)])
        if not is_free(g, f):
            continue
        k = rng.choice([2, 3])
        built = universal_join(k, g)
        assert is_kF_free(built, k, f)
        done += 1
