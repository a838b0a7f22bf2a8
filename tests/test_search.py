"""Exhaustive search: enumeration, oracle values, shards, determinism."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest

from genturan import cli, graphs as graph_module, search
from genturan.constructions import erdos_value, prop61_value
from genturan.counting import count_copies, count_induced_family, is_family_free
from genturan.graph6 import decode_graph6, encode_graph6
from genturan.graphs import (Graph, add_vertex, automorphism_count, canonical_cert,
                             canonical_form, canonical_graph, complete,
                             complete_bipartite, copies, cycle, disjoint_union,
                             enumerate_graphs, is_connected, join, relabel,
                             turan)
from genturan.packing import FreenessPrune
from genturan.search import (ExtremalResult, Objective, SearchProblem,
                             brute_force_ex, merge, result_line,
                             serialize_problem)

from conftest import (all_labeled_graphs, every_subset_walk,
                      naive_isomorphism_classes, package_env, random_graph,
                      registry_problems, registry_usage)

K3 = complete(3)
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@pytest.mark.parametrize("n,count", sorted(GRAPH_CLASS_COUNTS.items()))
def test_enumeration_class_counts(n, count):
    assert sum(1 for _ in enumerate_graphs(n)) == count


def test_enumeration_yields_distinct_classes():
    for n in range(1, 7):
        forms = [canonical_form(g) for g in enumerate_graphs(n)]
        assert len(forms) == len(set(forms))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_naive_dedupe(n):
    naive = naive_isomorphism_classes(n)
    mine = list(enumerate_graphs(n))
    assert len(mine) == len(naive)
    assert {canonical_form(g) for g in mine} == {canonical_form(g) for g in naive}


def test_pruned_enumeration_triangle_free_counts():
    # Triangle-free class counts for n = 1..9.
    expected = [1, 2, 3, 7, 14, 38, 107, 410, 1897]
    for n, want in enumerate(expected, start=1):
        got = sum(1 for _ in enumerate_graphs(n, (K3,)))
        assert got == want, (n, got, want)


def _union(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = disjoint_union(out, part)
    return out


# Connected members (two with vertices in different orbits), kF unions,
# mixed unions (one with an isolated-vertex component, one whose leftover
# after the anchored component mixes two types), families mixing both
# kinds, and relabelled members whose components interleave.
PRUNE_FAMILIES = [
    (K3,), (cycle(4),), (cycle(5),), (complete(4),), (copies(2, complete(2)),),
    (complete_bipartite(1, 3),), (K3, cycle(4)), (cycle(5), complete(4)),
    (_union(complete_bipartite(1, 2), K3),),
    (copies(2, K3),), (copies(2, cycle(4)),), (copies(2, cycle(5)),),
    (_union(complete(4), cycle(4)),), (_union(K3, cycle(4)),),
    (_union(complete(2), complete(1)),), (_union(K3, complete(2), complete(2)),),
    (copies(2, K3), cycle(5)), (complete(4), cycle(4)),
    (relabel(copies(2, K3), [0, 2, 4, 1, 3, 5]),),
    (relabel(_union(K3, cycle(4)), [6, 0, 3, 1, 5, 2, 4]),),
]


def test_mass_formula_all_graphs():
    # Orbit-stabilizer: the classes' labelled counts n!/|Aut| sum to the
    # number of labelled graphs, so no class is missed or repeated.
    for n in range(1, 8):
        mass = sum(Fraction(factorial(n), automorphism_count(g))
                   for g in enumerate_graphs(n))
        assert mass == 2 ** comb(n, 2), n


def test_mass_formula_registry_families():
    labelled = list(all_labeled_graphs(6))
    families, _ = registry_usage()
    assert len(families) >= 8
    for family in families:
        mass = sum(Fraction(720, automorphism_count(g))
                   for g in enumerate_graphs(6, family))
        assert mass == sum(1 for g in labelled if is_family_free(g, family)), family


def test_hereditary_pruning_equals_post_filter():
    # The incremental prune against the unpruned enumeration filtered by the
    # full containment test, for every n <= 7.
    for n in range(1, 8):
        everything = list(enumerate_graphs(n))
        for family in PRUNE_FAMILIES:
            pruned = [canonical_form(g) for g in enumerate_graphs(n, family)]
            filtered = {canonical_form(g) for g in everything
                        if is_family_free(g, family)}
            assert len(pruned) == len(set(pruned)), (n, family)
            assert set(pruned) == filtered, (n, family)


def test_blocked_sets_match_the_full_freeness_test():
    # For every family-free parent g on at most 6 vertices, one per class in
    # a shuffled labelling, and every neighbour set s of a new vertex a: s
    # holds one of g's blocked sets exactly when g + a~s contains a member,
    # and no blocked set holds another.
    families, _ = registry_usage()
    families += [family for family in PRUNE_FAMILIES if family not in families
                 and not all(is_connected(f) for f in family)]
    rng = random.Random(5)
    parents = []
    for m in range(7):
        for g in enumerate_graphs(m):
            perm = list(range(m))
            rng.shuffle(perm)
            parents.append(relabel(g, perm))
    for family in families:
        prune = FreenessPrune(family, 7)
        for g in parents:
            if not is_family_free(g, family):
                continue
            blocked = prune.blocked(g)
            assert all(a & ~b for a in blocked for b in blocked if a != b), blocked
            m = g.n
            for s in range(1 << m):
                adj = tuple(row | (s >> v & 1) << m for v, row in enumerate(g.adj))
                child = Graph(m + 1, adj + (s,))
                hit = any(s & b == b for b in blocked)
                assert hit != is_family_free(child, family), (family, g.adj, s)


def _labelled(graphs):
    return [(g.n, g.adj) for g in graphs]


def test_orbit_pruned_walk_matches_oracle():
    # The same labelled graphs in the same order as trying every subset, for
    # all graphs and every family the registry searches.
    families, _ = registry_usage()
    for family in [(), *families]:
        for n in range(8):
            got = _labelled(enumerate_graphs(n, family))
            assert got == _labelled(every_subset_walk(n, family)), (n, family)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_shards_merge_to_unsharded_at_small_n(n):
    problem = SearchProblem(n, (), Objective.edges())
    search.clear_cache()
    full = brute_force_ex(problem)
    pieces = [brute_force_ex(problem, shard=(i, 3)) for i in range(3)]
    assert merge(pieces) == full
    assert full.explored == (2 if n == 2 else 1)


# Per-shard `explored` of 2K3-free n=8 edges, by number of parts.
SHARD_EXPLORED = {2: [1667, 2488], 3: [1111, 1794, 1250],
                  4: [917, 2059, 750, 429],
                  7: [1182, 1472, 593, 82, 8, 659, 159]}


def test_shards_deal_the_walk_into_disjoint_classes(monkeypatch):
    problem = SearchProblem(8, (copies(2, K3),), Objective.edges())
    full_classes = {canonical_form(g) for g in enumerate_graphs(8, problem.forbidden)}
    assert len(full_classes) == 4155
    search.clear_cache()
    full = brute_force_ex(problem)
    real = search.enumerate_graphs
    hosts = []

    def recorded(*args, **kwargs):
        for item in real(*args, **kwargs):
            hosts[-1].append(canonical_form(item[0]))
            yield item

    monkeypatch.setattr(search, "enumerate_graphs", recorded)
    for parts, explored in SHARD_EXPLORED.items():
        results = []
        hosts.clear()
        for i in range(parts):
            hosts.append([])
            results.append(brute_force_ex(problem, shard=(i, parts)))
        assert [r.explored for r in results] == explored
        assert [len(h) for h in hosts] == explored
        every = [c for h in hosts for c in h]
        assert len(set(every)) == len(every) and set(every) == full_classes
        assert merge(results) == full


@pytest.mark.parametrize("bad", [(-1, 2), (2, 2), (0, 0)])
def test_shard_outside_its_parts_rejected(bad):
    with pytest.raises(ValueError, match="0 <= i < parts"):
        brute_force_ex(SearchProblem(4, (), Objective.edges()), shard=bad)


def test_brute_force_spec_examples():
    r = brute_force_ex(SearchProblem(5, (K3,), Objective.edges()))
    assert r.value == 6
    r = brute_force_ex(SearchProblem(4, (copies(2, K3),), Objective.copies(K3)))
    assert r.value == 4
    r = brute_force_ex(SearchProblem(6, (K3,), Objective.copies(copies(2, complete(2)))))
    assert r.value == 18


def test_brute_force_matches_naive_all_labeled_graphs():
    # Exhaustiveness at tiny n: maximize over every labeled graph directly.
    for n in range(1, 6):
        for family, objective in [
            ((K3,), Objective.edges()),
            ((cycle(4),), Objective.edges()),
            ((complete(4),), Objective.copies(K3)),
        ]:
            best = None
            from conftest import all_labeled_graphs
            for g in all_labeled_graphs(n):
                if not is_family_free(g, family):
                    continue
                v = objective.evaluate(g)
                best = v if best is None else max(best, v)
            assert brute_force_ex(SearchProblem(n, family, objective)).value == best


def test_witnesses_are_free_and_attain_value():
    problem = SearchProblem(6, (complete(4),), Objective.copies(K3))
    r = brute_force_ex(problem)
    assert r.value == erdos_value(6, 3, 4)
    assert r.witnesses
    for w in r.witnesses:
        g = decode_graph6(w)
        assert is_family_free(g, problem.forbidden)
        assert count_copies(g, K3) == r.value
    assert encode_graph6(canonical_graph(turan(6, 3))) in r.witnesses


def test_witness_cap_and_exact_class_count():
    # With an edgeless objective every triangle-free class is extremal.
    search.clear_cache()
    r = brute_force_ex(SearchProblem(5, (K3,), Objective.copies(complete(1))),
                       witness_cap=4)
    assert r.value == 5
    assert len(r.witnesses) == 4
    assert r.num_extremal == 14  # all triangle-free 5-vertex classes
    assert r.witnesses == tuple(sorted(r.witnesses))


@pytest.mark.parametrize("cap", [0, -1])
def test_witness_cap_below_one_rejected(cap):
    problem = SearchProblem(5, (K3,), Objective.edges())
    with pytest.raises(ValueError, match="witness_cap must be >= 1"):
        brute_force_ex(problem, witness_cap=cap)
    with pytest.raises(ValueError, match="witness_cap must be >= 1"):
        merge([brute_force_ex(problem)], witness_cap=cap)


def test_nan_deadline_rejected():
    # A deadline already passed is legal (the search stops at once); one
    # that is not a number is refused.
    problem = SearchProblem(5, (K3,), Objective.edges())
    with pytest.raises(ValueError, match="deadline must be a number"):
        brute_force_ex(problem, deadline=float("nan"))


def test_infeasible_problem_returns_none():
    search.clear_cache()
    r = brute_force_ex(SearchProblem(3, (complete(1),), Objective.edges()))
    assert r.value is None and r.witnesses == () and r.num_extremal == 0


def test_exstar_and_exbar_examples():
    # Triangle-free hosts: the weighted objective degenerates to edge count.
    for n in range(4, 8):
        r = brute_force_ex(SearchProblem(n, (K3,), Objective.exstar(2)))
        assert r.value == n * n // 4
    # Sandwich: triangle max <= star max <= (k-1)*edge max + triangle max.
    for n in range(4, 8):
        k = 2
        f = cycle(4)
        tri = brute_force_ex(SearchProblem(n, (f,), Objective.copies(K3)))
        edg = brute_force_ex(SearchProblem(n, (f,), Objective.edges()))
        star = brute_force_ex(SearchProblem(n, (f,), Objective.exstar(k)))
        assert tri.value <= star.value <= (k - 1) * edg.value + tri.value
    # Induced-family lower bound: any alpha(H)-subset realizes the
    # independent-set member, so the maximum is at least C(n, alpha(H)).
    r = brute_force_ex(SearchProblem(6, (cycle(4),), Objective.exbar(K3)))
    assert r.value >= comb(6, 1)
    p3 = complete_bipartite(1, 2)   # alpha = 2
    r = brute_force_ex(SearchProblem(6, (K3,), Objective.exbar(p3)))
    assert r.value >= comb(6, 2)
    # One-vertex pattern: the empty member plus each vertex.
    r = brute_force_ex(SearchProblem(5, (K3,), Objective.exbar(complete(1))))
    assert r.value == 6


def test_thm21_lower_direction_small():
    # k >= |V(H)| regime: the k-1 universal vertices recover every induced
    # member as a full pattern copy, up to the lone empty member.
    k, h, f = 2, complete(2), K3
    for n in range(5, 8):
        inner = brute_force_ex(SearchProblem(n - k + 1, (f,), Objective.exbar(h)))
        oracle = brute_force_ex(SearchProblem(n, (copies(k, f),), Objective.edges()))
        assert oracle.value >= inner.value - 1


def test_shard_merge_identity_and_permutation_invariance():
    problem = SearchProblem(6, (K3,), Objective.copies(copies(2, complete(2))))
    search.clear_cache()
    full = brute_force_ex(problem)
    results = [brute_force_ex(problem, shard=(i, 4)) for i in range(4)]
    merged = merge(results)
    assert merged == full
    rng = random.Random(9)
    for _ in range(10):
        perm = results[:]
        rng.shuffle(perm)
        assert merge(perm) == full
    # single shard is the identity
    assert brute_force_ex(problem, shard=(0, 1)) == full
    # associativity: fold pairwise in arbitrary grouping
    left = merge([merge(results[:2]), merge(results[2:])])
    assert left == full


def test_shard_counts_partition_explored():
    problem = SearchProblem(6, (), Objective.edges())
    search.clear_cache()
    full = brute_force_ex(problem)
    results = [brute_force_ex(problem, shard=(i, 3)) for i in range(3)]
    assert sum(r.explored for r in results) == full.explored == 156


def test_problem_serialization_pinned():
    problem = SearchProblem(7, (K3, cycle(4)), Objective.copies(complete(4)))
    assert serialize_problem(problem) == "n=7 objective=copies pattern=C~ forbid=Bw,Cl"
    star = SearchProblem(6, (cycle(5),), Objective.exstar(3))
    assert serialize_problem(star) == "n=6 objective=exstar k=3 forbid=Dhc"
    line = result_line(problem, brute_force_ex(problem))
    assert line.startswith("n=7 ") and "value=" in line


@pytest.mark.parametrize("kind,fields,field", [
    ("edges", dict(k=3, pattern=complete(2)), "pattern"),
    ("edges", dict(pattern=complete(2)), "pattern"),
    ("exstar", dict(k=3, pattern=complete(2)), "pattern"),
    ("edges", dict(k=3), "k"),
    ("copies", dict(pattern=complete(2), k=3), "k"),
    ("exbar", dict(pattern=complete(2), k=3), "k"),
])
def test_objective_rejects_fields_its_kind_ignores(kind, fields, field):
    with pytest.raises(ValueError, match=f"takes no {field}"):
        Objective(kind, **fields)


def test_caches_drop_the_oldest_key_past_their_limit(monkeypatch):
    monkeypatch.setattr(search, "_cache", {})
    monkeypatch.setattr(search, "_CACHE_KEYS", 3)
    # Four searches store four results (n = 1..4): one key past the limit.
    problems = [SearchProblem(n, (), Objective.edges()) for n in range(1, 5)]
    for problem in problems:
        brute_force_ex(problem)
    assert [key[0] for key in search._cache] == [2, 3, 4]
    # A hit on a held key stores nothing, so nothing is dropped.
    key = search._problem_key(problems[1]) + (search.DEFAULT_WITNESS_CAP, False)
    assert brute_force_ex(problems[1]) is search._cache[key]
    assert [key[0] for key in search._cache] == [2, 3, 4]


def test_cache_keeps_bounded_and_full_results_apart(monkeypatch):
    monkeypatch.setattr(search, "_cache", {})
    problem = SearchProblem(6, (K3,), Objective.edges())
    bounded = brute_force_ex(problem, bounded=True)
    full = brute_force_ex(problem)
    assert full.explored == 38 and bounded.explored < 38
    assert brute_force_ex(problem, bounded=True) is bounded
    assert brute_force_ex(problem) is full


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective("nonsense")
    with pytest.raises(ValueError):
        Objective.exstar(1)
    with pytest.raises(ValueError):
        Objective("copies")


def test_witness_recheck_raises_under_optimize():
    # The re-check is a raised VerificationError, so `python -O` keeps it.
    code = "\n".join([
        "import sys",
        "from genturan import search",
        "from genturan.graphs import VerificationError, complete",
        "search.is_family_free = lambda g, family: False",
        "problem = search.SearchProblem(4, (complete(3),), search.Objective.edges())",
        "try:",
        "    search.brute_force_ex(problem)",
        "except VerificationError as err:",
        "    print('optimize', sys.flags.optimize, err)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize 1 witness")


def test_seed_recheck_raises_under_optimize():
    # The seed host is re-checked with a raised VerificationError, so
    # `python -O` keeps it; the (n-1) result it starts from is cached first.
    code = "\n".join([
        "import sys",
        "from genturan import search",
        "from genturan.graphs import VerificationError, complete",
        "def problem(n):",
        "    return search.SearchProblem(n, (complete(3),), search.Objective.edges())",
        "search.brute_force_ex(problem(3), bounded=True)",
        "search.is_family_free = lambda g, family: False",
        "try:",
        "    search.brute_force_ex(problem(4), bounded=True)",
        "except VerificationError as err:",
        "    print('optimize', sys.flags.optimize, err)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize 1 seed host")


# ---------------------------------------------------------------------------
# Incumbent-bounded search
# ---------------------------------------------------------------------------

_P3 = complete_bipartite(1, 2)

_2K2 = copies(2, complete(2))
_K13 = complete_bipartite(1, 3)

INCREMENT_OBJECTIVES = [
    Objective.edges(), Objective.copies(K3), Objective.copies(complete(4)),
    Objective.copies(cycle(4)), Objective.copies(complete_bipartite(2, 3)),
    Objective.copies(_2K2), Objective.copies(_P3), Objective.copies(_K13),
    Objective.exstar(2), Objective.exstar(3), Objective.exbar(_P3),
    Objective.exbar(cycle(4)),
]


def test_objective_terms_match_the_closed_forms():
    # Each kind's weighted sum of copy counts against the formula it stands
    # for, on every class with at most six vertices.
    closed = [
        (Objective.edges(), lambda g: g.edge_count()),
        (Objective.copies(complete(2)), lambda g: g.edge_count()),
        (Objective.copies(_P3), lambda g: count_copies(g, _P3)),
        (Objective.exstar(2), lambda g: g.edge_count() + count_copies(g, K3)),
        (Objective.exstar(4), lambda g: 3 * g.edge_count() + count_copies(g, K3)),
        (Objective.exbar(_P3), lambda g: count_induced_family(g, _P3)),
        (Objective.exbar(cycle(4)), lambda g: count_induced_family(g, cycle(4))),
        (Objective.exbar(complete(1)), lambda g: 1 + g.n),
    ]
    for m in range(7):
        for g in enumerate_graphs(m):
            for objective, formula in closed:
                assert objective.evaluate(g) == formula(g), (objective, g.adj)


def test_copies_of_k2_and_edges_share_a_cache_entry(monkeypatch):
    monkeypatch.setattr(search, "_cache", {})
    edges = brute_force_ex(SearchProblem(6, (K3,), Objective.edges()))
    k2 = SearchProblem(6, (K3,), Objective.copies(complete(2)))
    assert brute_force_ex(k2) is edges and len(search._cache) == 1
    assert search._problem_key(k2) == edges.problem_key
    triangles = SearchProblem(6, (K3,), Objective.copies(K3))
    assert search._problem_key(triangles) != edges.problem_key
    # Equal patterns with other weights are another problem.
    stars = [search._problem_key(SearchProblem(6, (K3,), Objective.exstar(k)))
             for k in (2, 3)]
    assert stars[0] != stars[1]


def _objective_id(objective):
    return serialize_problem(SearchProblem(0, (), objective)).split(" ", 1)[1]


@pytest.mark.parametrize("objective", INCREMENT_OBJECTIVES, ids=_objective_id)
def test_increment_is_the_exact_value_change(objective):
    # value(g + a~s) == value(g) + gain(increment(g), s) for every graph g on
    # at most six vertices and every neighbour set s of the new vertex a; and
    # the gain never falls when s grows, which the bounded search's parent
    # skip relies on.
    for m in range(7):
        for g in enumerate_graphs(m):
            base = objective.evaluate(g)
            table = objective.increment(g)
            gains = [search.gain(table, s) for s in range(1 << m)]
            for s, got in enumerate(gains):
                assert objective.evaluate(add_vertex(g, s)) == base + got, (g.adj, s)
                assert all(got <= gains[s | 1 << v] for v in range(m)), (g.adj, s)


def _bounded_oracle_problems():
    """Every registry problem at n <= 7; one n = 8 problem per objective
    kind (the registry's first of that kind, raised to n = 8); and
    2K3-free n = 9 for edges, last."""
    registry = registry_problems()
    firsts = {}
    for p in registry:
        firsts.setdefault(p.objective.kind, replace(p, n=8))
    assert sorted(firsts) == ["copies", "edges", "exbar", "exstar"]
    return ([p for p in registry if p.n <= 7] + list(firsts.values())
            + [SearchProblem(9, (copies(2, K3),), Objective.edges())])


def test_bounded_search_matches_full_search():
    for problem in _bounded_oracle_problems():
        search.clear_cache()
        full = brute_force_ex(problem)
        bounded = brute_force_ex(problem, bounded=True)
        assert (bounded.value, bounded.num_extremal, bounded.witnesses,
                bounded.exhaustive) == (full.value, full.num_extremal,
                                        full.witnesses, full.exhaustive), \
            serialize_problem(problem)
        assert bounded.explored <= full.explored
    # On 2K3-free n = 9 the seed is the maximum and the bounds leave 1 of
    # the 36,121 classes to evaluate.
    assert (bounded.explored, full.explored) == (1, 36121)


def _clique_term_problems(max_n):
    """The registry's problems at n <= max_n whose every term counts
    cliques, one per problem key."""
    out = {}
    for p in registry_problems():
        if p.n <= max_n and search._clique_orders(p.objective) is not None:
            out.setdefault(search._problem_key(p), p)
    return list(out.values())


def _clique_term_value(objective, g):
    """The value of an objective whose every term counts cliques K_r, each
    clique counted once, from its least vertex up."""
    def cliques(r, within):
        if r == 0:
            return 1
        return sum(cliques(r - 1, within & g.adj[v] & -(2 << v))
                   for v in range(g.n) if within >> v & 1)
    return sum(w * cliques(h.n, (1 << g.n) - 1) for w, h in objective.terms())


def test_clique_bound_covers_every_descendant():
    # On the registry's clique-term problems at n <= 8, for every node g of
    # the full walk, every descendant host's value is at most the bound over
    # g's allowed sets, which is at most the bound over all of g; the
    # allowed sets are exactly the subsets holding no blocked set of g; and
    # the seed is at most the maximum.  One walk per host size and family.
    groups = {}
    for p in _clique_term_problems(8):
        groups.setdefault((p.n, search._family_key(p.forbidden)), []).append(p)
    assert len(groups) > 10
    cap = search.DEFAULT_WITNESS_CAP
    for problems in groups.values():
        n, forbidden = problems[0].n, problems[0].forbidden
        objectives = [p.objective for p in problems]
        coefs = [search._clique_coefficients(p) for p in problems]

        def hook(g, chain, blocked):
            if g.n == 0:
                return None, ()
            sets = search._allowed_sets(g.n, blocked())
            for s in range(1 << g.n):
                allowed = all(s & b != b for b in blocked())
                assert allowed == any(s & t == s for t in sets), (g.adj, s)
            bounds = []
            for objective, coef in zip(objectives, coefs):
                value = _clique_term_value(objective, g)
                whole = search._clique_gain(coef[g.n], g.adj, [(1 << g.n) - 1])
                more = search._clique_gain(coef[g.n], g.adj, sets)
                bounds.append((value + whole, None if more is None else value + more))
            return None, chain + ((g.adj, bounds),)

        maxima = [None] * len(problems)
        for host, chain, _ in enumerate_graphs(n, forbidden, _node_hook=hook):
            values = [_clique_term_value(objective, host) for objective in objectives]
            for adj, bounds in chain:
                for p, value, (whole, more) in zip(problems, values, bounds):
                    assert more is not None and value <= more <= whole, \
                        (serialize_problem(p), adj, host.adj)
            maxima = [v if m is None else max(m, v) for m, v in zip(maxima, values)]
        for p, top in zip(problems, maxima):
            seed, _ = search._seed(p, cap, None) or (None, None)
            assert seed is None or seed <= top, serialize_problem(p)


def test_sharded_bounded_search_starts_no_helper_search(monkeypatch):
    # A shard leaves out the seed, so a sharded bounded search is one
    # search, and the shards merge to the full search's maximum.  Its
    # clique-term bound needs no helper search and stays on: each shard
    # builds fewer attachment tables than with the bound switched off.  An
    # unsharded search is seeded, under a deadline or not
    # (`test_deadline_leaves_the_search_unchanged`).
    problem = SearchProblem(7, (copies(2, K3),), Objective.edges())
    calls = []
    tables = []
    real = search.brute_force_ex
    increment = Objective.increment

    def counted(problem, **kwargs):
        calls.append(problem.n)
        return real(problem, **kwargs)

    monkeypatch.setattr(search, "brute_force_ex", counted)
    monkeypatch.setattr(Objective, "increment",
                        lambda self, g: tables.append(g) or increment(self, g))
    search.clear_cache()
    full = real(problem)
    expected = (full.value, full.num_extremal, full.witnesses)
    parts = []
    for kwargs in ({"shard": (0, 2)}, {"shard": (1, 2)}):
        calls.clear()
        tables.clear()
        r = search.brute_force_ex(problem, bounded=True, **kwargs)
        assert calls == [7] and r.exhaustive
        with_bound = len(tables)
        tables.clear()
        with monkeypatch.context() as m:
            m.setattr(search, "_clique_coefficients", lambda problem: None)
            plain = search.brute_force_ex(problem, bounded=True, **kwargs)
        assert with_bound < len(tables), kwargs
        assert (r.value, r.num_extremal, r.witnesses) == \
            (plain.value, plain.num_extremal, plain.witnesses)
        parts.append(r)
    merged = merge(parts)
    assert (merged.value, merged.num_extremal, merged.witnesses) == expected
    assert len(search._cache) == 1


def test_deadline_leaves_the_search_unchanged(monkeypatch):
    # A deadline only decides when a search stops: from a cold cache, a
    # bounded search under a far deadline makes the same nested (n-1 .. 0)
    # seed searches as one without, gives the same result, `explored`
    # included, and caches it, so a repeat under a deadline walks nothing.
    problem = SearchProblem(7, (copies(2, K3),), Objective.edges())
    calls = []
    walks = []
    real = search.brute_force_ex
    walk = search.enumerate_graphs

    def counted(problem, **kwargs):
        calls.append(problem.n)
        return real(problem, **kwargs)

    monkeypatch.setattr(search, "brute_force_ex", counted)
    monkeypatch.setattr(search, "enumerate_graphs",
                        lambda *args, **kwargs: walks.append(args[0]) or walk(*args, **kwargs))
    results = []
    for deadline in (None, time.monotonic() + 600):
        search.clear_cache()
        calls.clear()
        results.append(search.brute_force_ex(problem, deadline=deadline, bounded=True))
        assert calls == [7, 6, 5, 4, 3, 2, 1, 0], deadline
    assert results[0] == results[1] and results[1].exhaustive
    calls.clear()
    walks.clear()
    again = search.brute_force_ex(problem, deadline=time.monotonic() + 600, bounded=True)
    assert again is results[1] and calls == [7] and walks == []


def test_cut_short_search_reports_the_seed(monkeypatch):
    # The (n-1) result is cached, so the clock is read once by the seed and
    # once by the walk's first node; the deadline passes at the second node,
    # before any host reaches the seed.  The walk is not exhaustive, so no
    # VerificationError: the result is the seed's value and host.
    problem = SearchProblem(7, (copies(2, K3),), Objective.edges())
    search.clear_cache()
    brute_force_ex(replace(problem, n=6), bounded=True)
    value, host = search._seed(problem, search.DEFAULT_WITNESS_CAP, None)
    clock = itertools.chain([0.0, 0.0], itertools.repeat(2.0))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    r = brute_force_ex(problem, deadline=1.0, bounded=True)
    assert (r.value, r.witnesses, r.num_extremal) == (value, (host,), 1)
    assert not r.exhaustive and r.explored == 0
    g = decode_graph6(host)
    assert host == encode_graph6(canonical_graph(g))
    assert g.edge_count() == value and is_family_free(g, problem.forbidden)


@pytest.mark.parametrize("forbidden", [copies(2, K3), copies(2, cycle(4))],
                         ids=["2K3", "2C4"])
def test_bounded_shards_merge_to_the_unsharded_result(forbidden):
    # Each shard's clique-term bound runs from its shard level down, so a
    # graph above that level is never dropped and every shard deals the
    # same graphs: the shards still partition the hosts.
    problem = SearchProblem(6, (forbidden,), Objective.copies(K3))
    search.clear_cache()
    full = brute_force_ex(problem)
    for parts in (3, 5):
        merged = merge([brute_force_ex(problem, bounded=True, shard=(i, parts))
                        for i in range(parts)])
        assert (merged.value, merged.num_extremal, merged.witnesses) == \
            (full.value, full.num_extremal, full.witnesses), parts


@pytest.mark.parametrize("n", [9, 10])
def test_2k3_free_edge_maxima_match_erdos_moon(n):
    # ex(n, 2K3) = (n-1) + floor((n-1)^2/4) (Erdos 1962; Moon 1968), with
    # K1 joined to T(n-1, 2) the one extremal graph: 24 at n = 9, 29 at 10.
    search.clear_cache()
    r = brute_force_ex(SearchProblem(n, (copies(2, K3),), Objective.edges()),
                       bounded=True)
    assert r.value == (n - 1) + (n - 1) ** 2 // 4 == {9: 24, 10: 29}[n]
    assert r.num_extremal == 1 and r.exhaustive
    star = join(complete(1), turan(n - 1, 2))
    assert r.witnesses == (encode_graph6(canonical_graph(star)),)


def test_carried_values_match_fresh_counts():
    # Every host the walk yields to a search, in both modes, carries a value
    # (its parent's plus the parent's attachment table at its new vertex)
    # equal to a from-scratch count of that search's own objective, and a
    # certificate equal to a fresh canonical search's.  The helper searches
    # a bounded search starts (its seed and its clique-term bound) are
    # checked the same way, each against its own problem.  Each host is
    # checked as it is yielded, before the search's own witness re-check
    # could stop the run.
    real_walk, real_search = search.enumerate_graphs, search.brute_force_ex
    running = []
    hosts = {}

    def checking_search(problem, **kwargs):
        running.append(problem)
        try:
            return real_search(problem, **kwargs)
        finally:
            running.pop()

    def checking(n, forbidden, **kwargs):
        # A search's walk starts after its helper searches have returned.
        problem = running[-1]
        assert (n, forbidden) == (problem.n, problem.forbidden)
        objective = problem.objective
        for g, token, cert in real_walk(n, forbidden, **kwargs):
            assert search._value(objective, g, token) == objective.evaluate(g), \
                (serialize_problem(problem), g.adj)
            assert cert == canonical_cert(g), \
                (serialize_problem(problem), g.adj)
            key = serialize_problem(problem)
            hosts[key] = hosts.get(key, 0) + 1
            yield g, token, cert

    def check(problems):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "enumerate_graphs", checking)
            mp.setattr(search, "brute_force_ex", checking_search)
            for problem in problems:
                for bounded in (False, True):
                    hosts.clear()
                    search.clear_cache()
                    search.brute_force_ex(problem, bounded=bounded)
                    assert hosts.get(serialize_problem(problem)), \
                        (serialize_problem(problem), bounded)
                    if bounded and problem.n > 1:
                        # The seed's (n-1) search walked and was checked.
                        assert len(hosts) > 1, serialize_problem(problem)
            assert not running

    check([SearchProblem(n, (K3,), Objective.copies(h))
           for h in (_2K2, _P3, cycle(5), _K13) for n in (6, 7)]
          + [SearchProblem(7, (cycle(4),), Objective.copies(h))
             for h in (_2K2, _P3, _K13)])
    check([p for p in registry_problems() if p.n <= 7])


def test_the_walk_labels_the_zero_vertex_host(monkeypatch, capsys):
    # Every host, the 0-vertex one included, is labelled by the certificate
    # the walk hands out, so no search or enumeration canonicalises a host
    # itself.
    def refuse(g):
        raise AssertionError("a host was canonicalised outside the walk")

    monkeypatch.setattr(search, "canonical_graph", refuse)
    monkeypatch.setattr(cli, "canonical_graph", refuse)
    monkeypatch.setattr(search, "_cache", {})
    assert list(enumerate_graphs(0, (), _node_hook=lambda g, token, blocked: (None, None))) \
        == [(Graph(0), None, ())]
    problem = SearchProblem(0, (), Objective.edges())
    for kwargs in ({}, {"bounded": True}, {"shard": (0, 3)}):
        r = brute_force_ex(problem, **kwargs)
        assert (r.value, r.witnesses, r.explored, r.exhaustive) == (0, ("?",), 1, True), kwargs
    assert cli.main(["enumerate", "--n", "0", "--canonical"]) == 0
    assert capsys.readouterr().out == "?\n"


def test_merge_refuses_results_of_different_problems():
    problem = SearchProblem(6, (cycle(4),), Objective.copies(_P3))
    relabelled = SearchProblem(6, (relabel(cycle(4), [0, 2, 1, 3]),),
                               Objective.copies(relabel(_P3, [1, 0, 2])))
    # One shard of each: relabelled graphs make the same problem.
    merged = merge([brute_force_ex(problem, shard=(0, 2)),
                    brute_force_ex(relabelled, shard=(1, 2))])
    search.clear_cache()
    full = brute_force_ex(problem)
    assert (merged.value, merged.num_extremal, merged.witnesses) == \
        (full.value, full.num_extremal, full.witnesses)
    assert merged.problem_key == full.problem_key
    assert "problem_key" not in repr(full)
    other = brute_force_ex(SearchProblem(6, (cycle(4),), Objective.copies(_2K2)))
    edges = brute_force_ex(SearchProblem(6, (cycle(4),), Objective.edges()))
    for pair in ([full, other], [full, edges], [merged, other]):
        with pytest.raises(ValueError, match="different problems"):
            merge(pair)


@pytest.mark.parametrize("bounded", [False, True])
def test_deadline_stops_the_walk_between_parents(monkeypatch, bounded):
    # With no time left the walk ends at the first graph whose node hook
    # runs, before any of its children is looked for.
    real = graph_module._children
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "_children", counted)
    searches = []
    real_search = search.brute_force_ex

    def counted_search(problem, **kwargs):
        searches.append(problem.n)
        return real_search(problem, **kwargs)

    monkeypatch.setattr(search, "brute_force_ex", counted_search)
    problem = SearchProblem(9, (copies(2, K3),), Objective.edges())
    search.clear_cache()
    r = search.brute_force_ex(problem, deadline=time.monotonic() - 1, bounded=bounded)
    assert not r.exhaustive
    assert len(calls) <= problem.n
    # Past its deadline a bounded search starts no (n-1) seed search.
    assert searches == [9]


@pytest.mark.parametrize("call,match", [
    (lambda: enumerate_graphs(65), "outside 0..64"),
    (lambda: enumerate_graphs(-1), "outside 0..64"),
])
def test_enumerate_graphs_checks_arguments_when_called(call, match):
    # No `next`: the error comes from the call itself.
    with pytest.raises(ValueError, match=match):
        call()


def test_add_vertex_rejects_masks_outside_the_graph():
    with pytest.raises(ValueError, match="outside 0..2"):
        add_vertex(K3, 0b1000)
    assert add_vertex(K3, 0b111).adj == complete(4).adj
