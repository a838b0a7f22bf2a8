"""Theorem-verification registry.

Each registered check binds a claim id to parameters, a default n-range and a
runner.  A runner is a generator `runner(check_id, params, ns, config)`: it
validates the claim's hypotheses (raising HypothesisError), then yields
`(n, mode, expected, actual, verdict)` for each n in the range `ns`.
`run_check` turns every yielded tuple into a CheckRow, adding the check id
and the parameter string and applying str() to expected and actual.  Rows
carry one of five modes:

  ExactEquality         integer equality, asserted
  LowerBoundVsOracle    integer inequality against the exhaustive oracle
  Sandwich              two-sided integer inequality
  ConstructionFreeness  a generated graph verified free of its forbidden family
  RatioTrend            finite-n ratio sequence, reported but never pass/fail

Verdicts account for search budgets: an inequality certified by a partial
(non-exhaustive) search in the safe direction still passes; one that cannot
be certified is inconclusive, never silently weakened.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from math import comb

from . import constructions as cons
from .counting import count_copies, count_copies_meeting, is_free
from .graph6 import decode_graph6, encode_graph6
from .graphs import (Graph, canonical_graph, complete, complete_bipartite,
                     copies, cycle, disjoint_union, is_connected, turan)
from .gspec import parse_spec
from .packing import is_kF_free
from .search import (DEFAULT_WITNESS_CAP, ExtremalResult, Objective,
                     SearchProblem, brute_force_ex)

EXACT = "ExactEquality"
LOWER = "LowerBoundVsOracle"
SANDWICH = "Sandwich"
FREE = "ConstructionFreeness"
RATIO = "RatioTrend"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
REPORTED = "reported"


@dataclass(frozen=True)
class VerifyConfig:
    """Search settings of one run.  `deadline` is a `time.monotonic()`
    instant that bounds the whole run: every search stops at it, and pool
    workers read the same clock."""

    witness_cap: int = DEFAULT_WITNESS_CAP
    deadline: float | None = None
    max_explored: int | None = None


@dataclass(frozen=True)
class CheckRow:
    check_id: str
    n: int
    params: str
    mode: str
    expected: str
    actual: str
    verdict: str


@dataclass
class TheoremCheck:
    check_id: str
    params: dict
    n_range: tuple[int, int]
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.verdict != FAIL for r in self.rows)


class UnknownCheckError(ValueError):
    pass


class HypothesisError(ValueError):
    """Raised when parameters violate a claim's hypotheses."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _params_str(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def _graph_param(params: dict, key: str) -> Graph:
    return parse_spec(str(params[key])).build()


def _brute(n: int, forbidden: tuple[Graph, ...], objective: Objective,
           cfg: VerifyConfig) -> ExtremalResult:
    return brute_force_ex(SearchProblem(n, forbidden, objective), witness_cap=cfg.witness_cap,
                          deadline=cfg.deadline, max_explored=cfg.max_explored, bounded=True)


def _verdict(ok: bool, certified: bool) -> str:
    """PASS when the claim holds; otherwise FAIL if the failure is certified
    (exhaustive searches, or closed forms), else INCONCLUSIVE."""
    if ok:
        return PASS
    return FAIL if certified else INCONCLUSIVE


def _verdict_leq(lhs: int, lhs_exhaustive: bool, rhs: int, rhs_exhaustive: bool) -> str:
    """Certify lhs <= rhs where both sides are search maxima."""
    if lhs_exhaustive and lhs <= rhs:
        return PASS
    if lhs > rhs and rhs_exhaustive:
        return FAIL  # a partial lhs only grows, so the violation is real
    return INCONCLUSIVE


def _free_row(n: int, ok: bool, label: str) -> tuple:
    return n, FREE, f"{label}-free", "free" if ok else "not-free", _verdict(ok, True)


def _floor_row(n: int, count: int, floor: int, certified: bool = True) -> tuple:
    """Row certifying (construction count) >= floor; the floor is certified
    when it is a closed form or an exhaustive search maximum."""
    return n, LOWER, f">={floor}", count, _verdict(count >= floor, certified)


def _oracle_row(n: int, result: ExtremalResult, bound: int) -> tuple:
    """Row certifying (search maximum) >= bound; partial maxima are lower bounds."""
    ok = result.value is not None and result.value >= bound
    return n, LOWER, f">={bound}", result.value, _verdict(ok, result.exhaustive)


def _ratio_row(n: int, label: str, pairs: list[tuple[str, float]]) -> tuple:
    actual = ";".join(f"{name}:{value:.6f}" for name, value in pairs)
    return n, RATIO, label, actual, REPORTED


def _joined(k: int, result: ExtremalResult) -> Graph | None:
    """k-1 universal vertices joined onto the search's least witness; None
    when the search found no host, so that it has no witness."""
    if not result.witnesses:
        return None
    return cons.universal_join(k, decode_graph6(result.witnesses[0]))


# ---------------------------------------------------------------------------
# Check runners
# ---------------------------------------------------------------------------

def _run_erdos(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    s, t = int(p["s"]), int(p["t"])
    if not 2 <= s < t:
        raise HypothesisError(f"needs 2 <= s < t, got s={s}, t={t}")
    for n in ns:
        if n < t:
            continue
        expected = cons.erdos_value(n, s, t)
        res = _brute(n, (complete(t),), Objective.copies(complete(s)), cfg)
        ok = res.exhaustive and res.value == expected
        yield n, EXACT, expected, res.value, _verdict(ok, res.exhaustive)
        tg6 = encode_graph6(canonical_graph(turan(n, t - 1)))
        present = tg6 in res.witnesses
        yield (n, EXACT, f"witness:{tg6}", "present" if present else "absent",
               _verdict(present, res.exhaustive))


def _run_gorgol(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    k = int(p["k"])
    f = _graph_param(p, "f")
    if k < 1 or f.edge_count() == 0:
        raise HypothesisError("needs k >= 1 and a non-empty pattern")
    kf = copies(k, f)
    for n in ns:
        res_k = _brute(n, (kf,), Objective.edges(), cfg)
        res_1 = _brute(n, (f,), Objective.edges(), cfg)
        if res_k.value is None or res_1.value is None:
            continue
        diff = res_k.value - res_1.value
        both = res_k.exhaustive and res_1.exhaustive
        yield n, LOWER, f"0..{2 * n}", diff, _verdict(0 <= diff <= 2 * n and both, both)
        # Sharper upper bound, stated for connected patterns only: delete the
        # other k-1 copies' worth of vertices, close with complete-graph slack.
        d = (k - 1) * f.n
        if is_connected(f) and n - d >= f.n and n >= k * f.n:
            res_small = _brute(n - d, (f,), Objective.edges(), cfg)
            bound = res_small.value + comb(d, 2) + d * (n - d)
            certified = res_k.exhaustive and res_small.exhaustive
            yield (n, SANDWICH, f"<={bound}", res_k.value,
                   _verdict(res_k.value <= bound and certified, certified))


def _run_thm21(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    h = _graph_param(p, "h")
    f = _graph_param(p, "f")
    k = int(p["k"])
    if k < 2:
        raise HypothesisError("needs k >= 2")
    if k < h.n:
        raise HypothesisError("the two-sided claim needs k >= |V(H)|; "
                              f"got k={k}, |V(H)|={h.n}")
    if f.edge_count() == 0:
        raise HypothesisError("forbidden pattern must have an edge")
    kf = copies(k, f)
    for n in ns:
        if n - k + 1 < 1:
            continue
        inner = _brute(n - k + 1, (f,), Objective.exbar(h), cfg)
        built = _joined(k, inner)
        if built is None:
            continue
        yield _free_row(n, is_kF_free(built, k, f), f"{k}F")
        built_count = count_copies(built, h)
        yield _floor_row(n, built_count, inner.value - 1, inner.exhaustive)
        oracle = _brute(n, (kf,), Objective.copies(h), cfg)
        yield _oracle_row(n, oracle, built_count)
        outer = _brute(n, (f,), Objective.exbar(h), cfg)
        if oracle.value is not None and outer.value:
            yield _ratio_row(n, "bounded-multiple",
                             [("oracle/induced_total", oracle.value / outer.value)])


def _run_thm22(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    f1 = _graph_param(p, "f1")
    f2 = _graph_param(p, "f2")
    k3 = complete(3)
    for name, fi in (("f1", f1), ("f2", f2)):
        if fi.n == 2 and fi.edge_count() == 1:
            raise HypothesisError(f"{name} must differ from a single edge")
        if fi.edge_count() == 0:
            raise HypothesisError(f"{name} must be non-empty")
    f = disjoint_union(f1, f2)
    for n in ns:
        oracle = _brute(n, (f,), Objective.copies(k3), cfg)
        if oracle.value is None:
            continue
        best_single = None
        for fi in (f1, f2):
            r = _brute(n, (fi,), Objective.copies(k3), cfg)
            if r.value is not None:
                best_single = r.value if best_single is None else max(best_single, r.value)
        if best_single is not None:
            yield _oracle_row(n, oracle, best_single)
        if n >= 2:
            pair = _brute(n - 1, (f1, f2), Objective.edges(), cfg)
            built = _joined(2, pair)
            if built is not None:
                yield _free_row(n, is_free(built, f), "union")
                built_count = count_copies(built, k3)
                yield _floor_row(n, built_count, pair.value, pair.exhaustive)
                yield _oracle_row(n, oracle, built_count)


def _run_thm24(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    f = _graph_param(p, "f")
    k = int(p["k"])
    if f.n < 4:
        raise HypothesisError(f"needs |V(F)| >= 4, got {f.n}")
    if k < 2:
        raise HypothesisError("needs k >= 2")
    k3 = complete(3)
    kf = copies(k, f)
    for n in ns:
        if n - k + 1 < 1:
            continue
        star = _brute(n - k + 1, (f,), Objective.exstar(k), cfg)
        oracle = _brute(n, (kf,), Objective.copies(k3), cfg)
        if star.value is None or oracle.value is None:
            continue
        yield (n, SANDWICH, f"<={oracle.value}", star.value,
               _verdict_leq(star.value, star.exhaustive,
                            oracle.value, oracle.exhaustive))
        # definitional sandwich: triangle max <= star max <= (k-1)*edge max + triangle max
        tri = _brute(n - k + 1, (f,), Objective.copies(k3), cfg)
        edg = _brute(n - k + 1, (f,), Objective.edges(), cfg)
        if tri.value is not None and edg.value is not None:
            lo_ok = _verdict_leq(tri.value, tri.exhaustive, star.value, star.exhaustive)
            hi = (k - 1) * edg.value + tri.value
            hi_ok = _verdict_leq(star.value, star.exhaustive, hi,
                                 tri.exhaustive and edg.exhaustive)
            verdict = FAIL if FAIL in (lo_ok, hi_ok) else (
                INCONCLUSIVE if INCONCLUSIVE in (lo_ok, hi_ok) else PASS)
            yield n, SANDWICH, f"{tri.value}..{hi}", star.value, verdict


def _run_thm27(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    r = int(p["r"])
    f = _graph_param(p, "f")
    k = int(p["k"])
    if r < 2 or k < 1 or f.edge_count() == 0:
        raise HypothesisError("needs r >= 2, k >= 1 and a non-empty pattern")
    kf = copies(k, f)
    for n in ns:
        # ex(n, K1, F) = n: F has an edge, so the empty graph is F-free.
        values = [n] + [_brute(n, (f,), Objective.copies(complete(m)), cfg).value
                        for m in range(2, r + 1)]
        values = [-1 if v is None else v for v in values]
        best = max(values)
        m0 = values.index(best) + 1
        if k <= r - m0:
            continue  # the construction needs k > r - m0
        inner = _brute(n - (r - m0), (f,), Objective.copies(complete(m0)), cfg)
        built = _joined(r - m0 + 1, inner)
        if built is None:
            continue
        yield _free_row(n, is_kF_free(built, k, f), f"{k}F")
        built_count = count_copies(built, complete(r))
        yield _floor_row(n, built_count, inner.value, inner.exhaustive)
        oracle = _brute(n, (kf,), Objective.copies(complete(r)), cfg)
        yield _oracle_row(n, oracle, built_count)


def _run_thm32(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    s, t, k = int(p["s"]), int(p["t"]), int(p["k"])
    x = cons.x_exponent(k, t, s)
    if x < 1:
        raise HypothesisError(f"construction regime needs exponent >= 1, got {x}")
    kt_pattern = complete(t)
    kf = copies(k, kt_pattern)
    budget = s + (k - 1) * x
    yield ns[0], FREE, f"<={k * t - 1}", budget, _verdict(budget < k * t, True)
    for n in ns:
        if n < s:
            continue
        built = cons.thm32_lower(n, s, t, k)
        yield _free_row(n, is_kF_free(built, k, kt_pattern), f"{k}K{t}")
        built_count = count_copies(built, complete(s))
        yield _floor_row(n, built_count, cons.turan_clique_count(n - s + x, x, x))
        oracle = _brute(n, (kf,), Objective.copies(complete(s)), cfg)
        yield _oracle_row(n, oracle, built_count)
        if oracle.value is not None:
            yield _ratio_row(n, f"Theta(n^{x})",
                             [("oracle", oracle.value / n ** x),
                              ("construction", built_count / n ** x)])


def _run_thm34(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    s, t, k = int(p["s"]), int(p["t"]), int(p["k"])
    if not (t > s >= 1) or k < 1:
        raise HypothesisError(f"needs t > s >= 1 and k >= 1, got s={s}, t={t}, k={k}")
    kf = copies(k, complete(t))
    for n in ns:
        if n < t - 1:
            continue
        built = turan(n, t - 1)
        yield _free_row(n, is_kF_free(built, k, complete(t)), f"{k}K{t}")
        lower = cons.turan_clique_count(n, t - 1, s)
        oracle = _brute(n, (kf,), Objective.copies(complete(s)), cfg)
        yield _oracle_row(n, oracle, lower)
        if oracle.value is not None:
            asym = comb(t - 1, s) * (n / (t - 1)) ** s
            yield _ratio_row(n, f"to-asymptote(n^{s})",
                             [("oracle/asym", oracle.value / asym)])


def _run_thm35(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    s, t, k = int(p["s"]), int(p["t"]), int(p["k"])
    if not (s >= t >= s - k + 2) or t < 2:
        raise HypothesisError(f"needs s >= t >= s-k+2 and t >= 2, got s={s}, t={t}, k={k}")
    kf = copies(k, complete(t))
    for n in ns:
        if n < k or n - k + 1 < t - 1:
            continue
        built = cons.thm35_lower(n, t, k)
        yield _free_row(n, is_kF_free(built, k, complete(t)), f"{k}K{t}")
        leading = cons.thm35_leading(n, s, t, k)
        universal = (1 << (k - 1)) - 1
        meeting = count_copies_meeting(built, complete(s), universal, s - t + 1)
        yield n, EXACT, leading, meeting, _verdict(meeting == leading, True)
        oracle = _brute(n, (kf,), Objective.copies(complete(s)), cfg)
        yield _oracle_row(n, oracle, leading)
        if oracle.value is not None:
            asym = comb(k - 1, s - t + 1) * (n / (t - 1)) ** (t - 1)
            yield _ratio_row(n, f"to-asymptote(n^{t - 1})",
                             [("oracle/asym", oracle.value / asym)])


def _run_cycles(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    """Shared runner for the odd/even forbidden-cycle claims."""
    r, k, l = int(p["r"]), int(p["k"]), int(p["l"])
    odd = p["parity"] == "odd"
    length = 2 * l + 1 if odd else 2 * l
    if l < 2 or r < 2 or k < 1:
        raise HypothesisError("needs l >= 2, r >= 2, k >= 1")
    if cid == "thm4.1a" and r > k:
        raise HypothesisError(f"this regime needs r <= k, got r={r}, k={k}")
    if cid == "thm4.1b" and r <= k + 1:
        raise HypothesisError(f"this regime needs r > k+1, got r={r}, k={k}")
    cyc = cycle(length)
    kf = copies(k, cyc)
    exponent = 2.0 if (odd and r <= k) else 1 + 1 / l
    for n in ns:
        oracle = _brute(n, (kf,), Objective.copies(complete(r)), cfg)
        if oracle.value is None:
            continue
        if odd and r <= k and n - k + 1 >= 1:
            inner = _brute(n - k + 1, (cyc,), Objective.copies(complete(r)), cfg)
            built = _joined(k, inner)
            if built is not None:
                yield _free_row(n, is_kF_free(built, k, cyc), f"{k}C{length}")
                yield _oracle_row(n, oracle, count_copies(built, complete(r)))
        yield _ratio_row(n, f"O(n^{exponent:.2f})",
                         [("oracle", oracle.value / n ** exponent)])


def _run_prop51(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    a, b, s, t = int(p["a"]), int(p["b"]), int(p["s"]), int(p["t"])
    k = int(p.get("k", 1))
    if not (s <= t and a <= b < s):
        raise HypothesisError(f"needs s <= t and a <= b < s, got a={a}, b={b}, s={s}, t={t}")
    forb = copies(k, complete_bipartite(s, t))
    pattern = complete_bipartite(a, b)
    exponent = a + b - a * b / s
    for n in ns:
        oracle = _brute(n, (forb,), Objective.copies(pattern), cfg)
        if oracle.value is None:
            continue
        if k > 1:
            single = _brute(n, (complete_bipartite(s, t),),
                            Objective.copies(pattern), cfg)
            if single.value is not None:
                yield _oracle_row(n, oracle, single.value)
        yield _ratio_row(n, f"O(n^{exponent:.3f})",
                         [("oracle", oracle.value / n ** exponent)])


def _run_prop53(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    a, b, s, t, k = int(p["a"]), int(p["b"]), int(p["s"]), int(p["t"]), int(p["k"])
    if not (a <= b and b >= s and s <= t):
        raise HypothesisError(f"needs a <= b, b >= s, s <= t, got a={a}, b={b}, s={s}, t={t}")
    if k <= a:
        raise HypothesisError(f"the matching lower bound needs k > a, got k={k}, a={a}")
    kst = complete_bipartite(s, t)
    forb = copies(k, kst)
    pattern = complete_bipartite(a, b)
    for n in ns:
        if n - k + 1 < b:
            continue
        built = _joined(k, _brute(n - k + 1, (kst,), Objective.edges(), cfg))
        if built is None:
            continue
        yield _free_row(n, is_kF_free(built, k, kst), f"{k}K{s},{t}")
        built_count = count_copies(built, pattern)
        yield _floor_row(n, built_count, comb(k - 1, a) * comb(n - k + 1, b))
        oracle = _brute(n, (forb,), Objective.copies(pattern), cfg)
        yield _oracle_row(n, oracle, built_count)
        if oracle.value is not None:
            yield _ratio_row(n, f"Theta(n^{b})", [("oracle", oracle.value / n ** b)])


def _run_prop54(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    variant = str(p.get("variant", "b"))
    a, b, s, t = int(p["a"]), int(p["b"]), int(p["s"]), int(p["t"])
    kst = complete_bipartite(s, t)
    pattern = complete_bipartite(a, b)
    if variant == "a":
        if not (s <= a <= b <= t):
            raise HypothesisError(f"variant a needs s <= a <= b <= t, got {p}")
        for n in ns:
            oracle = _brute(n, (kst,), Objective.copies(pattern), cfg)
            if oracle.value is not None:
                yield _ratio_row(n, f"O(n^{s})", [("oracle", oracle.value / n ** s)])
        return
    if not (a < s <= b <= t):
        raise HypothesisError(f"variant b needs a < s <= b <= t, got {p}")
    for n in ns:
        if n <= s:
            continue
        built = cons.prop54_lower(n, s)
        yield _free_row(n, is_free(built, kst), f"K{s},{t}")
        floor_count = comb(s - 1, a) * comb(n - s + 1, b) if s - 1 >= a else 0
        built_count = count_copies(built, pattern)
        yield _floor_row(n, built_count, floor_count)
        oracle = _brute(n, (kst,), Objective.copies(pattern), cfg)
        yield _oracle_row(n, oracle, built_count)
        if oracle.value is not None:
            yield _ratio_row(n, f"Theta(n^{b})", [("oracle", oracle.value / n ** b)])


def _run_prop61(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    l = int(p["l"])
    if l < 1:
        raise HypothesisError("needs l >= 1")
    k3 = complete(3)
    pattern = copies(l, complete(2)) if l > 1 else complete(2)
    for n in ns:
        if n < 2 * l:
            continue
        expected = cons.prop61_value(n, l)
        oracle = _brute(n, (k3,), Objective.copies(pattern), cfg)
        ok = oracle.exhaustive and oracle.value == expected
        yield n, EXACT, expected, oracle.value, _verdict(ok, oracle.exhaustive)


def _run_thm62(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    l, k = int(p["l"]), int(p["k"])
    if not l < k:
        raise HypothesisError(f"needs l < k, got l={l}, k={k}")
    k3 = complete(3)
    kf = copies(k, k3)
    pattern = copies(l, k3) if l > 1 else k3
    for n in ns:
        if n < k + 1:
            continue
        built = cons.thm62_lower(n, k)
        yield _free_row(n, is_kF_free(built, k, k3), f"{k}K3")
        m = n - k + 1
        if m < 2:
            continue
        bip = complete_bipartite(m // 2, (m + 1) // 2)
        match_pattern = copies(l, complete(2)) if l > 1 else complete(2)
        leading = comb(k - 1, l) * count_copies(bip, match_pattern)
        built_count = count_copies(built, pattern)
        yield _floor_row(n, built_count, leading)
        oracle = _brute(n, (kf,), Objective.copies(pattern), cfg)
        yield _oracle_row(n, oracle, built_count)
        if oracle.value is not None:
            yield _ratio_row(n, f"to-asymptote((n^2/4)^{l})",
                             [("oracle/asym",
                               oracle.value / (comb(k - 1, l) * (n * n / 4) ** l))])


def _run_prop63(cid: str, p: dict, ns: range, cfg: VerifyConfig):
    f1 = _graph_param(p, "f1")
    f2 = _graph_param(p, "f2")
    if f1.edge_count() == 0 or f2.edge_count() == 0:
        raise HypothesisError("components must be non-empty")
    f = disjoint_union(f1, f2)
    for n in ns:
        whole = _brute(n, (f,), Objective.edges(), cfg)
        parts = [_brute(n, (fi,), Objective.edges(), cfg) for fi in (f1, f2)]
        if whole.value is None or any(r.value is None for r in parts):
            continue
        best = max(r.value for r in parts)
        yield _oracle_row(n, whole, best)
        certified = whole.exhaustive and all(r.exhaustive for r in parts)
        diff = whole.value - best
        yield n, SANDWICH, f"<={3 * n}", diff, _verdict(diff <= 3 * n and certified, certified)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    check_id: str
    runner: object
    default_params: dict
    default_range: tuple[int, int]
    summary: str


_REGISTRY: dict[str, CheckDef] = {}
_ALIASES = {
    "prop1.2": "erdos",
    "gorgol": "thm1.1-gorgol",
    "thm3.2-lb": "thm3.2",
}


def _register(check_id, runner, params, n_range, summary):
    _REGISTRY[check_id] = CheckDef(check_id, runner, params, n_range, summary)


_register("erdos", _run_erdos, {"s": 2, "t": 3}, (5, 8),
          "clique count maximum over K_t-free hosts matches the balanced multipartite value")
_register("thm1.1-gorgol", _run_gorgol, {"f": "K3", "k": 2}, (6, 9),
          "edge maximum under k disjoint forbidden copies exceeds the single-copy maximum by O(n)")
_register("thm2.1", _run_thm21, {"h": "K2", "f": "K3", "k": 2}, (5, 8),
          "copy maximum under k disjoint copies vs the induced-family total")
_register("thm2.2", _run_thm22, {"f1": "K4", "f2": "C4"}, (5, 8),
          "triangle maximum under a forbidden disjoint union vs single and pairwise bounds")
_register("thm2.4", _run_thm24, {"f": "C5", "k": 2}, (7, 8),
          "weighted edge+triangle maximum sandwiches the triangle maximum under k disjoint copies")
_register("thm2.7", _run_thm27, {"r": 3, "f": "C4", "k": 2}, (5, 8),
          "clique-count maximum under k disjoint copies vs the best smaller-clique maximum")
_register("thm3.2", _run_thm32, {"s": 3, "t": 3, "k": 2}, (6, 9),
          "clique counts under k disjoint forbidden cliques grow as n^x")
_register("thm3.4", _run_thm34, {"s": 2, "t": 3, "k": 2}, (5, 8),
          "for t > s the balanced multipartite host stays extremal under k disjoint copies")
_register("thm3.5", _run_thm35, {"s": 3, "t": 3, "k": 2}, (6, 9),
          "universal-clique construction attains the leading term exactly")
_register("thm4.1a", _run_cycles, {"r": 2, "k": 2, "l": 2, "parity": "odd"}, (5, 8),
          "small cliques under k disjoint odd cycles: quadratic growth")
_register("thm4.1b", _run_cycles, {"r": 4, "k": 2, "l": 2, "parity": "odd"}, (5, 8),
          "large cliques under k disjoint odd cycles: subquadratic ratio report")
_register("prop4.2", _run_cycles, {"r": 3, "k": 2, "l": 2, "parity": "even"}, (5, 8),
          "cliques under k disjoint even cycles: ratio report")
_register("prop5.1", _run_prop51, {"a": 1, "b": 1, "s": 2, "t": 2}, (5, 8),
          "small bicliques in a biclique-free host: ratio report")
_register("prop5.2", _run_prop51, {"a": 1, "b": 1, "s": 2, "t": 2, "k": 2}, (5, 8),
          "same exponent under k disjoint forbidden bicliques")
_register("prop5.3", _run_prop53, {"a": 1, "b": 2, "s": 2, "t": 2, "k": 2}, (6, 8),
          "universal-clique biclique construction attains order n^b")
_register("prop5.4", _run_prop54, {"variant": "b", "a": 1, "b": 2, "s": 2, "t": 2}, (5, 8),
          "lopsided biclique host is extremal for order n^b")
_register("prop6.1", _run_prop61, {"l": 2}, (4, 8),
          "matching count maximum in triangle-free hosts: exact product formula")
_register("thm6.2", _run_thm62, {"l": 1, "k": 2}, (6, 9),
          "disjoint-triangle counts under k disjoint forbidden triangles")
_register("prop6.3", _run_prop63, {"f1": "K3", "f2": "C4"}, (6, 8),
          "edge maximum under a forbidden disjoint union vs componentwise maxima")


def registry_ids() -> list[str]:
    return sorted(_REGISTRY)


def check_summary(check_id: str) -> str:
    return _REGISTRY[_ALIASES.get(check_id, check_id)].summary


def run_check(check_id: str, params: dict | None = None,
              n_range: tuple[int, int] | None = None,
              config: VerifyConfig | None = None) -> TheoremCheck:
    """Run one registered check; unknown ids, unknown parameters and
    hypothesis violations raise."""
    resolved = _ALIASES.get(check_id, check_id)
    if resolved not in _REGISTRY:
        raise UnknownCheckError(f"unknown check id {check_id!r}; "
                                f"known: {', '.join(registry_ids())}")
    cdef = _REGISTRY[resolved]
    # A runner reads the parameters of every check registered with it.
    known = {key for d in _REGISTRY.values() if d.runner is cdef.runner
             for key in d.default_params}
    unknown = sorted(set(params or ()) - known)
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(unknown)} for check "
                         f"{resolved!r}; known: {', '.join(sorted(known))}")
    merged = dict(cdef.default_params)
    if params:
        merged.update(params)
    rng = n_range if n_range is not None else cdef.default_range
    if rng[0] > rng[1] or rng[0] < 1:
        raise ValueError(f"bad n range {rng}")
    ps = _params_str(merged)
    ns = range(rng[0], rng[1] + 1)
    rows = [CheckRow(resolved, n, ps, mode, str(expected), str(actual), verdict)
            for n, mode, expected, actual, verdict
            in cdef.runner(resolved, merged, ns, config or VerifyConfig())]
    return TheoremCheck(resolved, merged, rng, rows)


def run_all(config: VerifyConfig | None = None,
            n_range: tuple[int, int] | None = None,
            workers: int = 1) -> list[TheoremCheck]:
    """Run every registered check with its default parameters, in sorted id
    order, over `n_range` (each check's default range when None).

    With workers > 1 the checks run in a pool of that many processes, each
    one `run_check` call; the pool hands the results back in id order, so
    the report is the same whatever the scheduling."""
    check = functools.partial(run_check, n_range=n_range, config=config)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(check, registry_ids()))
    return [check(cid) for cid in registry_ids()]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_HEADER = ["check_id", "n", "params", "mode", "expected", "actual", "verdict"]


def collect_rows(checks: list[TheoremCheck]) -> list[CheckRow]:
    rows: list[CheckRow] = []
    for check in checks:
        rows.extend(check.rows)
    rows.sort(key=lambda r: (r.check_id, r.n))
    return rows


def report_csv(checks: list[TheoremCheck]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in collect_rows(checks):
        writer.writerow([r.check_id, r.n, r.params, r.mode,
                         r.expected, r.actual, r.verdict])
    return buf.getvalue()


def report_table(checks: list[TheoremCheck]) -> str:
    rows = collect_rows(checks)
    cells = [CSV_HEADER] + [[r.check_id, str(r.n), r.params, r.mode,
                             r.expected, r.actual, r.verdict] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(CSV_HEADER))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def emit_report(checks: list[TheoremCheck], csv_path: str | None = None) -> str:
    """Render the aligned table (returned) and optionally write the CSV."""
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write(report_csv(checks))
    return report_table(checks)
