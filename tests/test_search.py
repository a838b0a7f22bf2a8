"""Exhaustive search: enumeration, oracle values, shards, determinism."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from genturan import search
from genturan.constructions import erdos_value, prop61_value
from genturan.counting import count_copies, is_family_free
from genturan.graph6 import decode_graph6, encode_graph6
from genturan.graphs import (automorphism_count, canonical_form,
                             canonical_graph, complete, complete_bipartite,
                             copies, cycle, disjoint_union, enumerate_graphs,
                             relabel, turan)
from genturan.search import (ExtremalResult, Objective, SearchProblem,
                             brute_force_ex, exbar_brute, exstar_brute, merge,
                             parse_problem, result_line, serialize_problem,
                             shard)

from conftest import (all_labeled_graphs, every_subset_walk,
                      naive_isomorphism_classes, package_env, random_graph,
                      registry_usage)

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
    full = brute_force_ex(problem, use_cache=False)
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
    r = brute_force_ex(SearchProblem(5, (K3,), Objective.copies(complete(1))),
                       witness_cap=4, use_cache=False)
    assert r.value == 5
    assert len(r.witnesses) == 4
    assert r.num_extremal == 14  # all triangle-free 5-vertex classes
    assert r.witnesses == tuple(sorted(r.witnesses))


@pytest.mark.parametrize("cap", [0, -1])
def test_witness_cap_below_one_rejected(cap):
    problem = SearchProblem(5, (K3,), Objective.edges())
    with pytest.raises(ValueError, match="witness_cap must be >= 1"):
        brute_force_ex(problem, witness_cap=cap, use_cache=False)
    with pytest.raises(ValueError, match="witness_cap must be >= 1"):
        merge([brute_force_ex(problem)], witness_cap=cap)


@pytest.mark.parametrize("budget", [dict(max_explored=-1), dict(budget_seconds=-1),
                                    dict(budget_seconds=float("nan"))])
def test_negative_budget_rejected(budget):
    problem = SearchProblem(5, (K3,), Objective.edges())
    with pytest.raises(ValueError, match="must be >= 0"):
        brute_force_ex(problem, use_cache=False, **budget)


def test_budget_marks_non_exhaustive():
    r = brute_force_ex(SearchProblem(6, (), Objective.edges()),
                       max_explored=10, use_cache=False)
    assert not r.exhaustive
    assert r.explored == 10
    assert r.value is not None


def test_infeasible_problem_returns_none():
    r = brute_force_ex(SearchProblem(3, (complete(1),), Objective.edges()),
                       use_cache=False)
    assert r.value is None and r.witnesses == () and r.num_extremal == 0


def test_exstar_and_exbar_examples():
    # Triangle-free hosts: the weighted objective degenerates to edge count.
    for n in range(4, 8):
        r = exstar_brute(n, K3, 2)
        assert r.value == n * n // 4
    # Sandwich: triangle max <= star max <= (k-1)*edge max + triangle max.
    for n in range(4, 8):
        k = 2
        f = cycle(4)
        tri = brute_force_ex(SearchProblem(n, (f,), Objective.copies(K3)))
        edg = brute_force_ex(SearchProblem(n, (f,), Objective.edges()))
        star = exstar_brute(n, f, k)
        assert tri.value <= star.value <= (k - 1) * edg.value + tri.value
    # Induced-family lower bound: any alpha(H)-subset realizes the
    # independent-set member, so the maximum is at least C(n, alpha(H)).
    from math import comb
    r = exbar_brute(6, K3, cycle(4))
    assert r.value >= comb(6, 1)
    r = exbar_brute(6, complete_bipartite(1, 2), K3)   # alpha = 2
    assert r.value >= comb(6, 2)
    # One-vertex pattern: the empty member plus each vertex.
    r = exbar_brute(5, complete(1), K3)
    assert r.value == 6


def test_thm21_lower_direction_small():
    # k >= |V(H)| regime: the k-1 universal vertices recover every induced
    # member as a full pattern copy, up to the lone empty member.
    k, h, f = 2, complete(2), K3
    for n in range(5, 8):
        inner = exbar_brute(n - k + 1, h, f)
        oracle = brute_force_ex(SearchProblem(n, (copies(k, f),), Objective.edges()))
        assert oracle.value >= inner.value - 1


def test_shard_merge_identity_and_permutation_invariance():
    problem = SearchProblem(6, (K3,), Objective.copies(copies(2, complete(2))))
    full = brute_force_ex(problem, use_cache=False)
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
    full = brute_force_ex(problem, use_cache=False)
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
    monkeypatch.setattr(search, "_host_cache", {})
    monkeypatch.setattr(search, "_CACHE_KEYS", 3)
    monkeypatch.setattr(search, "_HOST_CACHE_KEYS", 3)
    # Four searches store four results and four host lists (n = 1..4): one
    # key past each limit.
    problems = [SearchProblem(n, (), Objective.edges()) for n in range(1, 5)]
    for problem in problems:
        brute_force_ex(problem)
    assert list(search._host_cache) == [(2, ()), (3, ()), (4, ())]
    assert [key[0] for key in search._cache] == [2, 3, 4]
    # A hit on a held key stores nothing, so nothing is dropped.
    key = search._problem_cache_key(problems[1], search.DEFAULT_WITNESS_CAP)
    assert brute_force_ex(problems[1]) is search._cache[key]
    assert [key[0] for key in search._cache] == [2, 3, 4]


def test_search_cap_guard():
    with pytest.raises(ValueError):
        brute_force_ex(SearchProblem(11, (K3,), Objective.edges()))


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
        "    search.brute_force_ex(problem, use_cache=False)",
        "except VerificationError as err:",
        "    print('optimize', sys.flags.optimize, err)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize 1 witness")
