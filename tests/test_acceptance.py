"""Acceptance suite: one test per criterion, run at the stated tolerances.

Every test prints a single `ACCEPTANCE <id>: PASS ...` line on success so the
suite doubles as a checklist (`pytest -s tests/test_acceptance.py`).
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import time

import pytest

from genturan.constructions import (erdos_value, prop54_lower, prop61_value,
                                    thm32_lower, thm35_leading, thm35_lower,
                                    thm62_lower, universal_join, x_exponent)
from genturan.counting import (count_copies, count_copies_meeting,
                               is_family_free, is_free)
from genturan.graph6 import decode_graph6, encode_graph6
from genturan.graphs import (canonical_graph, complete, complete_bipartite,
                             copies, cycle, enumerate_graphs, turan)
from genturan.packing import (canonical_partition, is_kF_free,
                              max_packing_size)
from genturan import search
from genturan.search import Objective, SearchProblem, brute_force_ex, merge
from genturan.verify import VerifyConfig, report_csv, run_all, run_check

from conftest import (naive_count_copies, naive_max_packing, package_env,
                      random_graph)

K3 = complete(3)
# sha256 of the `genturan verify all` CSV at the default n ranges.
VERIFY_ALL_SHA256 = "d16ab3e76dfe4743bc711e3fdaf5fd782333eefa5e459bd7d4767baf370d1b4f"


def _report(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_matching_formula_reproduced():
    """Maximum l-matchings in triangle-free hosts equal the product formula."""
    checked = 0
    for n in range(4, 9):
        for l in (1, 2, 3):
            if 2 * l > n:
                continue
            pattern = copies(l, complete(2)) if l > 1 else complete(2)
            res = brute_force_ex(SearchProblem(n, (K3,), Objective.copies(pattern)))
            assert res.exhaustive
            assert res.value == prop61_value(n, l), (n, l, res.value)
            checked += 1
    _report("1 matching-formula", f"({checked} (n,l) pairs, exact)")


def test_criterion_2_clique_count_exactness():
    """Small-n clique-count maxima match the balanced multipartite value."""
    for s, t in ((2, 3), (2, 4), (3, 4)):
        for n in range(5, 9):
            res = brute_force_ex(
                SearchProblem(n, (complete(t),), Objective.copies(complete(s))))
            assert res.exhaustive
            assert res.value == erdos_value(n, s, t), (s, t, n, res.value)
            tg = encode_graph6(canonical_graph(turan(n, t - 1)))
            assert tg in res.witnesses, (s, t, n, "balanced host missing")
    _report("2 clique-count-exactness", "((s,t) in {(2,3),(2,4),(3,4)}, n=5..8)")


def test_criterion_3_star_sandwich():
    """Weighted edge+triangle maximum lower-bounds the 2-disjoint-cycle case."""
    c5 = cycle(5)
    forb = (copies(2, c5),)
    deadline = time.monotonic() + 600
    statuses = []
    for n in (7, 8, 9):
        lhs = brute_force_ex(SearchProblem(n - 1, (c5,), Objective.exstar(2)),
                             deadline=deadline, bounded=True)
        rhs = brute_force_ex(SearchProblem(n, forb, Objective.copies(K3)),
                             deadline=deadline, bounded=True)
        if lhs.exhaustive and rhs.exhaustive:
            assert lhs.value <= rhs.value, (n, lhs.value, rhs.value)
            statuses.append((n, "pass"))
        else:
            statuses.append((n, "inconclusive"))
    resolved = dict(statuses)
    assert resolved == {7: "pass", 8: "pass", 9: "pass"}
    _report("3 star-sandwich", f"(n=7..9: {statuses})")


def test_criterion_4_leading_term_identity():
    """The universal-clique construction attains its leading term exactly."""
    checked = 0
    for k in range(2, 5):
        for t in range(2, 6):
            for s in range(t, min(5, t + k - 2) + 1):
                for n in range(max(k, t - 1 + k - 1), 15):
                    built = thm35_lower(n, t, k)
                    universal = (1 << (k - 1)) - 1
                    meeting = count_copies_meeting(built, complete(s),
                                                   universal, s - t + 1)
                    assert meeting == thm35_leading(n, s, t, k), (n, s, t, k)
                    checked += 1
    assert checked > 100
    _report("4 leading-term-identity", f"({checked} (n,s,t,k) tuples, exact)")


def test_criterion_5_construction_freeness():
    """Every generator output avoids its forbidden configuration."""
    failures = []
    for k in (2, 3):
        for t in (2, 3, 4, 5):
            for s in range(t, 6):
                try:
                    x = x_exponent(k, t, s)
                except ValueError:
                    continue
                if x < 1 or s - x < 0:
                    continue
                for n in range(s, 13):
                    g = thm32_lower(n, s, t, k)
                    if not is_kF_free(g, k, complete(t)):
                        failures.append(("thm32", n, s, t, k))
    for k in range(2, 5):
        for t in range(2, 6):
            for n in range(max(k, t + k - 2), 13):
                g = thm35_lower(n, t, k)
                if not is_kF_free(g, k, complete(t)):
                    failures.append(("thm35", n, t, k))
    for k in range(2, 5):
        for n in range(k + 1, 13):
            if not is_kF_free(thm62_lower(n, k), k, K3):
                failures.append(("thm62", n, k))
    for s in range(2, 5):
        for n in range(s + 1, 13):
            g = prop54_lower(n, s)
            for t in range(s, 6):
                if not is_free(g, complete_bipartite(s, t)):
                    failures.append(("prop54", n, s, t))
    rng = random.Random(2024)
    done = 0
    while done < 100:
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        f = rng.choice([K3, cycle(4), cycle(5), complete(4)])
        if not is_free(g, f):
            continue
        k = rng.choice([2, 3])
        if not is_kF_free(universal_join(k, g), k, f):
            failures.append(("universal_join", n, k))
        done += 1
    assert not failures, failures
    _report("5 construction-freeness", "(all generators + 100 random joins)")


def test_criterion_6_partition_invariants():
    """Packed/remainder split: remainder free, support exact, size optimal."""
    rng = random.Random(77)
    patterns = [K3, cycle(4), cycle(5), complete(4)]
    failures = []
    for trial in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        f = patterns[trial % len(patterns)]
        part = canonical_partition(g, f)
        if not is_free(g.induced(part.R), f):
            failures.append((trial, "remainder"))
        support = sorted(v for c in part.packing.copies for v in c)
        if support != sorted(part.L):
            failures.append((trial, "support"))
        if sorted(part.L + part.R) != list(range(n)):
            failures.append((trial, "split"))
        if n <= 7 and part.packing.size != naive_max_packing(g, f):
            failures.append((trial, "size"))
    assert not failures, failures[:10]
    _report("6 partition-invariants", "(500 random hosts, 4 patterns)")


def test_criterion_7_counting_oracle_equivalence():
    """Backtracking counts equal subset-permutation counts on every host."""
    patterns = [K3, complete(4), cycle(4), cycle(5),
                copies(2, complete(2)), complete_bipartite(2, 2),
                copies(2, K3)]
    hosts = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            hosts += 1
            for pattern in patterns:
                assert count_copies(g, pattern) == naive_count_copies(g, pattern), (
                    g.adj, pattern.adj)
    assert hosts == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    _report("7 counting-oracle", f"({hosts} hosts x {len(patterns)} patterns)")


def test_criterion_8_ratio_reports():
    """Ratio tables generate deterministically; their bounds hold exactly."""
    chk_a1 = run_check("thm3.2", {"s": 3, "t": 3, "k": 2}, (6, 9))
    chk_a2 = run_check("thm3.2", {"s": 3, "t": 3, "k": 2}, (6, 9))
    assert [r for r in chk_a1.rows] == [r for r in chk_a2.rows]
    ratios = [r for r in chk_a1.rows if r.mode == "RatioTrend"]
    assert len(ratios) == 4 and all(r.verdict == "reported" for r in ratios)
    bounds = [r for r in chk_a1.rows if r.mode == "LowerBoundVsOracle"]
    assert bounds and all(r.verdict == "pass" for r in bounds)

    chk_b = run_check("thm6.2", {"l": 1, "k": 2}, (6, 9))
    leading = {r.n: r for r in chk_b.rows if r.mode == "LowerBoundVsOracle"}
    assert all(r.verdict == "pass" for r in chk_b.rows
               if r.mode == "LowerBoundVsOracle")
    for n in range(6, 10):
        assert n in leading
    assert all(r.verdict != "fail" for r in chk_b.rows)
    _report("8 ratio-reports", "(thm3.2 and thm6.2 tables, n=6..9)")


def test_criterion_9_determinism(tmp_path):
    """Identical CSV bytes across runs; shards reproduce the full search."""
    csvs = []
    for i in range(2):
        path = tmp_path / f"out{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "genturan.cli", "verify", "all",
             "--csv", str(path)], env=package_env(),
            capture_output=True, text=True, timeout=3600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    # Every search `verify` runs must reproduce these exact bytes.
    assert hashlib.sha256(csvs[0]).hexdigest() == VERIFY_ALL_SHA256

    problem = SearchProblem(7, (copies(2, K3),), Objective.copies(K3))
    search.clear_cache()
    full = brute_force_ex(problem)
    merged = merge([brute_force_ex(problem, shard=(i, 4)) for i in range(4)])
    assert merged.value == full.value
    assert merged.witnesses == full.witnesses
    assert merged.num_extremal == full.num_extremal
    assert merged.explored == full.explored
    _report("9 determinism", "(byte-identical CSVs; 4-shard merge exact)")


def test_budgeted_verify_all_matches_unbudgeted():
    """A far deadline changes neither the CSV nor the searches behind it."""
    keys = []
    for deadline in (None, time.monotonic() + 600):
        search.clear_cache()
        text = report_csv(run_all(VerifyConfig(deadline=deadline)))
        assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SHA256
        keys.append(set(search._cache))
    # Budgeted searches read and write the cache and take the seed.
    assert keys[0] == keys[1] and len(keys[1]) == 188
