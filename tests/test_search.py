"""Exhaustive search: enumeration, oracle values, shards, determinism."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest

from genturan import graphs as graph_module, search
from genturan.constructions import erdos_value, prop61_value
from genturan.counting import count_copies, count_induced_family, is_family_free
from genturan.graph6 import decode_graph6, encode_graph6
from genturan.graphs import (Graph, add_vertex, automorphism_count, canonical_cert,
                             canonical_form, canonical_graph, complete,
                             complete_bipartite, copies, cycle, disjoint_union,
                             enumerate_graphs, is_connected, relabel, turan)
from genturan.packing import FreenessPrune
from genturan.search import (ExtremalResult, Objective, SearchProblem,
                             brute_force_ex, merge, parse_problem, result_line,
                             serialize_problem, shard)

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


def test_shard_roots_give_the_unsharded_classes():
    family = (copies(2, K3),)
    full = [canonical_form(g) for g in enumerate_graphs(8, family)]
    sharded = []
    for piece in shard(SearchProblem(8, family, Objective.edges()), 3):
        roots = [decode_graph6(r) for r in piece.roots]
        sharded += [canonical_form(g) for g in enumerate_graphs(
            8, family, _roots=roots)]
    assert len(full) == 4155
    assert sorted(sharded) == sorted(full)


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


def test_orbit_pruned_walk_matches_oracle_from_shard_roots():
    family = (copies(2, K3),)
    total = 0
    for piece in shard(SearchProblem(8, family, Objective.edges()), 3):
        roots = [decode_graph6(r) for r in piece.roots]
        got = _labelled(enumerate_graphs(8, family, _roots=roots))
        assert got == _labelled(every_subset_walk(8, family, roots))
        total += len(got)
    assert total == 4155


@pytest.mark.parametrize("n", [0, 1, 2])
def test_shards_merge_to_unsharded_at_small_n(n):
    problem = SearchProblem(n, (), Objective.edges())
    search.clear_cache()
    full = brute_force_ex(problem)
    pieces = shard(problem, 3)
    assert merge([brute_force_ex(p) for p in pieces]) == full
    assert full.explored == (2 if n == 2 else 1)
    # Two of the three shards get no root; their descriptors still round-trip.
    assert [parse_problem(serialize_problem(p)) for p in pieces] == pieces


def test_root_level_is_its_vertex_count():
    r = brute_force_ex(parse_problem("n=4 objective=edges roots=A_"))
    assert r.witnesses and all(decode_graph6(w).n == 4 for w in r.witnesses)


def test_root_above_n_rejected():
    problem = SearchProblem(3, (), Objective.edges(), roots=(encode_graph6(complete(4)),))
    with pytest.raises(ValueError, match="more than n=3"):
        brute_force_ex(problem)


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


@pytest.mark.parametrize("budget", [dict(max_explored=-1), dict(budget_seconds=-1),
                                    dict(budget_seconds=float("nan"))])
def test_negative_budget_rejected(budget):
    problem = SearchProblem(5, (K3,), Objective.edges())
    with pytest.raises(ValueError, match="must be >= 0"):
        brute_force_ex(problem, **budget)


def test_budget_marks_non_exhaustive():
    r = brute_force_ex(SearchProblem(6, (), Objective.edges()), max_explored=10)
    assert not r.exhaustive
    assert r.explored == 10
    assert r.value is not None


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
    pieces = shard(problem, 4)
    assert len(pieces) == 4
    results = [brute_force_ex(p) for p in pieces]
    merged = merge(results)
    assert merged == full
    rng = random.Random(9)
    for _ in range(10):
        perm = results[:]
        rng.shuffle(perm)
        assert merge(perm) == full
    # single shard is the identity
    assert shard(problem, 1) == [problem]
    # associativity: fold pairwise in arbitrary grouping
    left = merge([merge(results[:2]), merge(results[2:])])
    assert left == full


def test_shard_counts_partition_explored():
    problem = SearchProblem(6, (), Objective.edges())
    search.clear_cache()
    full = brute_force_ex(problem)
    results = [brute_force_ex(p) for p in shard(problem, 3)]
    assert sum(r.explored for r in results) == full.explored == 156


def test_problem_serialization_roundtrip():
    problem = SearchProblem(7, (K3, cycle(4)), Objective.copies(complete(4)))
    assert parse_problem(serialize_problem(problem)) == problem
    for piece in shard(problem, 2):
        assert parse_problem(serialize_problem(piece)) == piece
    star = SearchProblem(6, (cycle(5),), Objective.exstar(3))
    assert parse_problem(serialize_problem(star)) == star
    line = result_line(problem, brute_force_ex(problem))
    assert line.startswith("n=7 ") and "value=" in line


@pytest.mark.parametrize("key", ["bogus", "root_level"])
def test_parse_problem_rejects_unknown_keys(key):
    with pytest.raises(ValueError, match=repr(key)):
        parse_problem(f"n=5 objective=edges forbid=Bw {key}=1")


@pytest.mark.parametrize("text,key", [
    ("n=5 objective=edges n=6", "n"),
    ("n=5 objective=edges forbid=Bw forbid=Bw", "forbid"),
    ("n=5 objective=exstar k=2 k=3", "k"),
])
def test_parse_problem_rejects_repeated_keys(text, key):
    with pytest.raises(ValueError, match=f"repeated problem key {key!r}"):
        parse_problem(text)


@pytest.mark.parametrize("text,field", [
    ("n=5 objective=edges k=3 pattern=A_", "pattern"),
    ("n=5 objective=edges pattern=A_", "pattern"),
    ("n=5 objective=exstar k=3 pattern=A_", "pattern"),
    ("n=5 objective=edges k=3", "k"),
    ("n=5 objective=copies pattern=A_ k=3", "k"),
    ("n=5 objective=exbar pattern=A_ k=3", "k"),
])
def test_objective_rejects_fields_its_kind_ignores(text, field):
    with pytest.raises(ValueError, match=f"takes no {field}"):
        parse_problem(text)


def test_caches_drop_the_oldest_key_past_their_limit(monkeypatch):
    monkeypatch.setattr(search, "_cache", {})
    monkeypatch.setattr(search, "_CACHE_KEYS", 3)
    # Four searches store four results (n = 1..4): one key past the limit.
    problems = [SearchProblem(n, (), Objective.edges()) for n in range(1, 5)]
    for problem in problems:
        brute_force_ex(problem)
    assert [key[0] for key in search._cache] == [2, 3, 4]
    # A hit on a held key stores nothing, so nothing is dropped.
    key = search._problem_cache_key(problems[1], search.DEFAULT_WITNESS_CAP, False)
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
    # On 2K3-free n = 9 the bound leaves 80 of the 36,121 classes to evaluate.
    assert (bounded.explored, full.explored) == (80, 36121)


def test_carried_values_match_fresh_counts():
    # Every host the walk yields to a search, in both modes, carries a value
    # (its parent's plus the parent's attachment table at its new vertex)
    # equal to a from-scratch count, and a certificate equal to a fresh
    # canonical search's.  Each host is checked as it is yielded, before the
    # search's own witness re-check could stop the run.
    real = search.enumerate_graphs
    current = {}

    def checking(n, forbidden, **kwargs):
        problem, bounded = current["problem"], current["bounded"]
        objective = problem.objective
        for g, token, cert in real(n, forbidden, **kwargs):
            assert search._value(objective, g, token) == objective.evaluate(g), \
                (serialize_problem(problem), bounded, g.adj)
            assert cert == canonical_cert(g), (serialize_problem(problem), g.adj)
            current["hosts"] += 1
            yield g, token, cert

    def check(problems):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "enumerate_graphs", checking)
            for problem in problems:
                for bounded in (False, True):
                    current.update(problem=problem, bounded=bounded, hosts=0)
                    search.clear_cache()
                    brute_force_ex(problem, bounded=bounded)
                    assert current["hosts"], serialize_problem(problem)

    check([SearchProblem(n, (K3,), Objective.copies(h))
           for h in (_2K2, _P3, cycle(5), _K13) for n in (6, 7)]
          + [SearchProblem(7, (cycle(4),), Objective.copies(h))
             for h in (_2K2, _P3, _K13)])
    check([p for p in registry_problems() if p.n <= 7])


def test_merge_refuses_results_of_different_problems():
    problem = SearchProblem(6, (cycle(4),), Objective.copies(_P3))
    relabelled = SearchProblem(6, (relabel(cycle(4), [0, 2, 1, 3]),),
                               Objective.copies(relabel(_P3, [1, 0, 2])))
    # One shard of each: relabelled graphs make the same problem.
    parts = [shard(problem, 2)[0], shard(relabelled, 2)[1]]
    merged = merge([brute_force_ex(p) for p in parts])
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
    problem = SearchProblem(9, (copies(2, K3),), Objective.edges())
    r = brute_force_ex(problem, budget_seconds=0, bounded=bounded)
    assert not r.exhaustive
    assert len(calls) <= problem.n


@pytest.mark.parametrize("call,match", [
    (lambda: enumerate_graphs(65), "outside 0..64"),
    (lambda: enumerate_graphs(-1), "outside 0..64"),
    (lambda: enumerate_graphs(3, _roots=[complete(4)]), "more than n=3"),
])
def test_enumerate_graphs_checks_arguments_when_called(call, match):
    # No `next`: the error comes from the call itself.
    with pytest.raises(ValueError, match=match):
        call()


def test_add_vertex_rejects_masks_outside_the_graph():
    with pytest.raises(ValueError, match="outside 0..2"):
        add_vertex(K3, 0b1000)
    assert add_vertex(K3, 0b111).adj == complete(4).adj
