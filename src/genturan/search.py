"""Exhaustive small-n extremal search.

The searcher walks one representative per isomorphism class of n-vertex
hosts (canonical augmentation with hereditary forbidden-subgraph pruning),
evaluates an objective on every family-free host, and reports the exact
maximum with canonical witnesses.  A search can be split into shards, each
a filter on the same walk: the graphs at a fixed level are dealt round-robin
in walk order, and a shard walks only below its own.  Shard results merge
associatively and order-independently back into the unsharded answer.

Every objective is a weighted sum of copy counts, its (weight, pattern)
terms: edges are copies of K2, exstar is (k-1) edges plus triangles, exbar
the members of a pattern's induced family.  Results are cached and merged
under the problem's host size, forbidden family and terms, so objectives
with equal terms share them.

Each host is counted once, by the walk that reaches it.  Every graph below
the host level gets the attachment table of the objective, built by anchored
embedder passes, one per term, over the graph plus a new vertex joined to
all of it: the weighted copies through the new vertex, tallied by their
neighbourhood there.  A child's value is its parent's plus the sum of the
entries whose neighbourhood lies inside the child's new-vertex neighbour
set; the value travels down the walk with the table, and only the 0-vertex
graph the walk starts from is counted from scratch.  A host's witness label
is the canonical certificate its acceptance test already computed.

In bounded mode the walk drops what cannot reach the incumbent, the best
value known so far: at the last level, every child whose value is below it,
before the child is built; and, when every term counts cliques, every graph
whose clique-term bound, taken from its allowed neighbour sets and from the
binomials C(p, j) that cap the j-cliques of any p-vertex graph, is below it,
at every level.  Every search that is not a shard is cached, and every
such bounded search seeds the incumbent from the (n-1) problem's witnesses,
each joined to a new vertex; a deadline changes only when a search stops.
The maximum, the extremal count and the witnesses are those of the full
walk, but only the hosts that can still reach the incumbent are evaluated.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from math import comb, isnan

from .graphs import (Graph, VerificationError, add_vertex, canonical_cert,
                     canonical_graph, enumerate_graphs)
from .graph6 import decode_graph6, encode_graph6
# count_induced_family is not called here; it stays importable from this
# module, where the benchmark's spans wrap it.
from .counting import (_induced_family_cached, attachment_table, count_copies,
                       count_induced_family, is_family_free)
from .packing import FreenessPrune

DEFAULT_WITNESS_CAP = 16


@dataclass(frozen=True)
class Objective:
    """What to maximize over family-free hosts: a weighted sum of subgraph
    copy counts, its (weight, pattern) `terms`.

    kinds: "copies" (copies of `pattern`), "edges" (copies of K2), "exstar"
    ((k-1)*edges + triangle count), "exbar" (total copies of all induced
    subgraphs of `pattern`, the empty member counted once).  A kind takes
    only the fields it reads: `pattern` for copies and exbar, `k` for
    exstar.  `kind`, `pattern` and `k` are what a problem descriptor
    records; the search reads only the terms."""

    kind: str
    pattern: Graph | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("copies", "edges", "exstar", "exbar"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind in ("copies", "exbar") and (self.pattern is None or self.pattern.n < 1):
            raise ValueError(f"objective {self.kind!r} needs a nonempty pattern")
        if self.kind == "exstar" and (self.k is None or self.k < 2):
            raise ValueError("exstar needs k >= 2")
        if self.kind in ("edges", "exstar") and self.pattern is not None:
            raise ValueError(f"objective {self.kind!r} takes no pattern")
        if self.kind != "exstar" and self.k is not None:
            raise ValueError(f"objective {self.kind!r} takes no k")

    @staticmethod
    def copies(pattern: Graph) -> "Objective":
        return Objective("copies", pattern=pattern)

    @staticmethod
    def edges() -> "Objective":
        return Objective("edges")

    @staticmethod
    def exstar(k: int) -> "Objective":
        return Objective("exstar", k=k)

    @staticmethod
    def exbar(pattern: Graph) -> "Objective":
        return Objective("exbar", pattern=pattern)

    def terms(self) -> tuple[tuple[int, Graph], ...]:
        """The (weight, pattern) pairs whose weighted copy counts sum to the
        value; a pattern with no vertex stands for the constant 1.  Built on
        first use and kept."""
        terms = self.__dict__.get("_terms")
        if terms is None:
            if self.kind == "edges":
                terms = ((1, _K2),)
            elif self.kind == "copies":
                terms = ((1, self.pattern),)
            elif self.kind == "exstar":
                terms = ((self.k - 1, _K2), (1, _K3))
            else:
                terms = tuple((1, h) for h in _induced_family_cached(self.pattern))
            object.__setattr__(self, "_terms", terms)
        return terms

    def evaluate(self, g: Graph) -> int:
        return sum([w * count_copies(g, h) if h.n else w for w, h in self.terms()])

    def increment(self, g: Graph) -> dict[int, int]:
        """The attachment table of g: {att: c} with value(g + a~s) -
        value(g) = `gain(table, s)`, the sum of c over att inside s, where
        the new vertex a = g.n is joined to the vertex set s (a bitmask).

        One anchored embedder pass per term over g plus a joined to all of g
        (`counting.attachment_table`).  Every weight is positive and every
        entry counts copies, so the increment never falls when s grows."""
        return attachment_table(add_vertex(g, (1 << g.n) - 1), self.terms())


def gain(table: dict[int, int], s: int) -> int:
    """The value change an attachment table gives the new vertex joined to s."""
    return sum([c for att, c in table.items() if att & s == att])


_K2 = Graph(2, (0b10, 0b01))
_K3 = Graph(3, (0b110, 0b101, 0b011))


@dataclass(frozen=True)
class SearchProblem:
    """An extremal question: maximize `objective` over n-vertex graphs with
    no subgraph copy of any member of `forbidden`."""

    n: int
    forbidden: tuple[Graph, ...]
    objective: Objective

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative host size")


@dataclass(frozen=True)
class ExtremalResult:
    """Exact maximum, canonical witnesses (capped), and search accounting.

    `value` is None when no family-free host exists.  `witnesses` holds the
    canonically-least extremal classes as canonical graph6, `num_extremal`
    the exact number of extremal classes, `explored` the number of
    family-free hosts evaluated: every class in a full search, only those
    the incumbent bound kept in a bounded one.  `problem_key` identifies the
    problem up to relabelling its graphs, so that `merge` can refuse results
    of different problems; it takes no part in equality and is not
    printed."""

    n: int
    value: int | None
    witnesses: tuple[str, ...]
    num_extremal: int
    explored: int
    exhaustive: bool
    problem_key: tuple = field(compare=False, repr=False)


# The result cache holds at most this many keys and drops the oldest first.
# A serial `verify all` creates 188 keys over the default ranges and 185 with
# `--n-range 5..8`, the seeds' (n-1) searches included.
_CACHE_KEYS = 512

_cache: dict[tuple, ExtremalResult] = {}


def _family_key(forbidden: tuple[Graph, ...]) -> tuple:
    return tuple(sorted(canonical_cert(f) for f in forbidden))


def _problem_key(problem: SearchProblem) -> tuple:
    """The problem's host size, forbidden family and objective terms, graphs
    by canonical certificate.  Objectives with the same terms, such as
    copies of K2 and edges, share it, and so do the results of one problem's
    shards."""
    terms = sorted((canonical_cert(h), w) for w, h in problem.objective.terms())
    return (problem.n, _family_key(problem.forbidden), tuple(terms))


def clear_cache() -> None:
    _cache.clear()


class _Stop(Exception):
    """Ends a search's walk: the deadline has passed."""


def _value(objective: Objective, g: Graph, token) -> int:
    """The objective's value on g, from the token of g's parent (its value
    and attachment table) and g's new vertex, the last one; counted from
    scratch for the 0-vertex graph, whose token is None."""
    if token is None:
        return objective.evaluate(g)
    value, table = token
    return value + gain(table, g.adj[-1])


def _allowed_sets(m: int, blocked: list[int]) -> list[int]:
    """Vertex sets of an m-vertex graph that hold none of its `blocked`
    sets, among them every inclusion-maximal one: the neighbour set of a new
    vertex keeps the graph family-free exactly when it lies inside one.
    Empty when even the empty set is blocked.

    Starts from all m vertices and branches on the first blocked set the
    current set holds: the i-th branch drops that blocked set's i-th vertex
    and keeps the ones before it for good, so no set is produced twice."""
    out: list[int] = []

    def grow(s: int, kept: int) -> None:
        for b in blocked:
            if s & b == b:
                break
        else:
            out.append(s)
            return
        free = b & ~kept
        while free:
            low = free & -free
            free ^= low
            grow(s ^ low, kept)
            kept |= low

    grow((1 << m) - 1, 0)
    return out


def _clique_count(adj: tuple[int, ...], s: int, q: int) -> int:
    """The number of copies of K_q inside the vertex set s (K_0 once)."""
    if q <= 1:
        return s.bit_count() if q else 1
    total = 0
    while s:
        low = s & -s
        s ^= low
        total += _clique_count(adj, adj[low.bit_length() - 1] & s, q - 1)
    return total


def _clique_orders(objective: Objective) -> list[tuple[int, int]] | None:
    """(weight, r) for each term counting copies of a clique K_r, r >= 1;
    None when some term's pattern is not complete.  Constant terms (no
    vertex) are left out: every host of a problem has them alike."""
    out = []
    for w, h in objective.terms():
        if h.edge_count() != h.n * (h.n - 1) // 2:
            return None
        if h.n:
            out.append((w, h.n))
    return out


def _clique_coefficients(problem: SearchProblem) -> dict[int, list[int]] | None:
    """The clique-term bound of every level m = 1..n-1, as coefficients:
    every family-free n-vertex host holding g (m vertices) as its first m
    vertices has value at most

        value(g) + sum over q of coef[m][q] * max over allowed s of K_q(g[s]),

    with coef[m][q] the sum over the terms (w, K_r), r > q, of
    w * C(n-m, r-q).  A copy of K_r meeting the n-m new vertices W in j of
    them is a j-clique of W (at most C(n-m, j) of those) plus a K_(r-j)
    inside those vertices' common neighbourhood in g, which lies inside one
    of their allowed neighbour sets.  None when the objective has a term
    that is not a clique count."""
    orders = _clique_orders(problem.objective)
    if orders is None:
        return None
    top = max([r for _, r in orders], default=0)
    return {m: [sum(w * comb(problem.n - m, r - q) for w, r in orders if r > q)
                for q in range(top)]
            for m in range(1, problem.n)}


def _clique_gain(coef: list[int], adj: tuple[int, ...],
                 sets: list[int]) -> int | None:
    """The most the clique-term bound lets the descendants add to a graph's
    value, its new vertices' neighbour sets lying inside `sets`; None when
    `sets` is empty, so that no descendant exists."""
    if not sets:
        return None
    return sum([c * max([_clique_count(adj, s, q) for s in sets])
                for q, c in enumerate(coef) if c])


def _seed(problem: SearchProblem, witness_cap: int,
          deadline: float | None) -> tuple[int, str] | None:
    """A lower bound on the maximum and a host attaining it (canonical
    graph6), from the witnesses of the (n-1) search, run under `deadline`:
    each witness w plus a new vertex joined to the allowed set s with the
    largest gain is a family-free host of value value(w) + gain(increment(w),
    s), built and re-checked (freeness and a from-scratch value), a mismatch
    raising `VerificationError`.  None when n = 0, the deadline has passed
    or no witness has an allowed set."""
    if problem.n == 0 or (deadline is not None and time.monotonic() > deadline):
        return None
    prev = brute_force_ex(replace(problem, n=problem.n - 1), witness_cap=witness_cap,
                          deadline=deadline, bounded=True)
    objective = problem.objective
    prune = FreenessPrune(problem.forbidden, problem.n)
    seed = None
    for w in prev.witnesses:
        g = decode_graph6(w)
        sets = _allowed_sets(g.n, prune.blocked(g))
        if not sets:
            continue
        table = objective.increment(g)
        s = max(sets, key=lambda s: gain(table, s))
        value = prev.value + gain(table, s)
        host = add_vertex(g, s)
        if (not is_family_free(host, problem.forbidden)
                or objective.evaluate(host) != value):
            raise VerificationError(
                f"seed host {encode_graph6(host)} is not a family-free host "
                f"of value {value}")
        if seed is None or value > seed[0]:
            seed = (value, host)
    return None if seed is None else (seed[0], encode_graph6(canonical_graph(seed[1])))


def brute_force_ex(problem: SearchProblem, *,
                   witness_cap: int = DEFAULT_WITNESS_CAP,
                   deadline: float | None = None,
                   bounded: bool = False,
                   shard: tuple[int, int] | None = None) -> ExtremalResult:
    """Exact maximum of the objective over all family-free n-vertex graphs.

    Values are carried down the walk (`Objective.increment`, `gain`); only
    the 0-vertex graph is counted from scratch, and a host's witness label
    is the certificate its acceptance test computed.

    A `deadline`, a `time.monotonic()` instant, is the one budget: once it
    has passed, `_Stop` ends the walk and the search returns the best value
    seen with exhaustive=False.  It is checked between hosts and once per
    graph below level n, so a walk that yields nothing for a while still
    stops.  The deadline changes nothing else: a search under a deadline is
    cached and seeded like one without, and its exhaustive result is the
    same.

    `shard=(i, parts)` walks shard i of `parts`: the graphs at level
    min(n-1, 5) (the one host when n = 0) are dealt round-robin in walk
    order, and the walk skips each one whose position at that level is not
    i mod parts, with all below it.  The shards partition the hosts, and
    `merge` of their results is the unsharded result.  A shard is neither
    cached nor seeded; every other search reads the result cache and writes
    its exhaustive result there.

    With `bounded`, the walk drops what cannot reach the incumbent, the best
    value known so far:
    - at the last level, a child whose value is below it, before the child
      is built or canonically tested, and a parent none of whose children
      can reach it (every table entry counts copies, so no child beats the
      one whose new vertex is joined to the whole parent);
    - when every term counts cliques, every graph at a level 1..n-1 whose
      clique-term bound (`_clique_coefficients`) is below it, before the
      graph's attachment table is built.  The bound is first taken over all
      of the graph, then over its allowed sets, so a graph dropped by the
      first never has its blocked sets found.  A shard applies it only from
      its shard level down, so that every shard deals the same graphs.
    Unless the search is a shard, the incumbent starts at `_seed`, whose
    (n-1) search ends early only once the deadline has passed, and then
    this walk stops at its first graph.  A walk cut short
    before any host reaches the seed reports the seed's host.  The
    incumbent never exceeds the final maximum, so every extremal class is
    still produced exactly once: `value`, `num_extremal`, `witnesses` and
    `exhaustive` are those of the full search and come from evaluated
    hosts, while `explored` counts only the hosts evaluated.  Full searches
    keep `explored` equal to the class count, which shard merges and the
    `search` result line report."""
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap}")
    if deadline is not None and isnan(deadline):
        raise ValueError(f"deadline must be a number, got {deadline}")
    # The clique-term bound drops graphs from this level down.
    lowest = 1
    if shard is not None:
        index, parts = shard
        if not 0 <= index < parts:
            raise ValueError(f"shard must be (i, parts) with 0 <= i < parts, "
                             f"got {shard}")
        depth = max(0, min(problem.n - 1, 5))
        positions = itertools.count()
        lowest = max(1, depth)
    key = _problem_key(problem)
    cache_key = key + (witness_cap, bounded)
    cacheable = shard is None
    if cacheable:
        hit = _cache.get(cache_key)
        if hit is not None:
            return hit

    forbidden = problem.forbidden
    objective = problem.objective
    # `best` is the incumbent the bounds compare with; `top` the best value
    # of an evaluated host.
    seed = _seed(problem, witness_cap, deadline) if bounded and cacheable else None
    best = None if seed is None else seed[0]
    coefs = _clique_coefficients(problem) if bounded else None
    last = problem.n - 1

    # Called once for every graph the walk reaches, in walk order: whether g
    # sits at the shard level at a position dealt to another shard.
    def elsewhere(g: Graph) -> bool:
        return g.n == depth and next(positions) % parts != index

    def stop_at_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _Stop

    def node_hook(g: Graph, token, blocked):
        stop_at_deadline()
        if shard is not None and elsewhere(g):
            return False, None
        value = _value(objective, g, token)
        if coefs is not None and best is not None and g.n >= lowest:
            coef = coefs[g.n]
            more = _clique_gain(coef, g.adj, [(1 << g.n) - 1])
            if value + more >= best:
                more = _clique_gain(coef, g.adj, _allowed_sets(g.n, blocked()))
            if more is None or value + more < best:
                return False, None
        table = objective.increment(g)
        token = (value, table)
        if not bounded or best is None or g.n != last:
            return None, token
        # Every table entry counts copies, so joining the new vertex to all
        # of g gives the largest child.
        if value + sum(table.values()) < best:
            return False, token
        # `best` is read when each subset is tested, so the bound tightens
        # as the parent's children raise it.
        return (lambda s: value + gain(table, s) >= best), token

    stream = enumerate_graphs(problem.n, forbidden, _node_hook=node_hook)
    witnesses: list[str] = []
    top: int | None = None
    num_extremal = 0
    explored = 0
    exhaustive = True
    try:
        for g, token, cert in stream:
            if shard is not None and elsewhere(g):
                continue
            stop_at_deadline()
            explored += 1
            value = _value(objective, g, token)
            if best is not None and value < best:
                continue
            w = encode_graph6(Graph._make(g.n, cert))
            if top is None or value > top:
                top = best = value
                witnesses = [w]
                num_extremal = 1
            else:
                num_extremal += 1
                if w not in witnesses:
                    witnesses.append(w)
                    witnesses.sort()
                    del witnesses[witness_cap:]
    except _Stop:
        exhaustive = False
    if seed is not None and top is None:
        if exhaustive:
            raise VerificationError(f"no host reaches the seed {seed[0]}")
        top, witnesses, num_extremal = seed[0], [seed[1]], 1
    # Post-search re-verification, independent of the enumerator's
    # incremental prune: every witness must decode to a family-free graph
    # attaining the reported value.
    for w in witnesses:
        wg = decode_graph6(w)
        if not is_family_free(wg, forbidden):
            raise VerificationError(f"witness {w} violates freeness")
        if objective.evaluate(wg) != top:
            raise VerificationError(f"witness {w} misses the maximum {top}")
    result = ExtremalResult(problem.n, top, tuple(sorted(witnesses)),
                            num_extremal, explored, exhaustive, key)
    if cacheable and exhaustive:
        _cache[cache_key] = result
        while len(_cache) > _CACHE_KEYS:
            del _cache[next(iter(_cache))]
    return result


# ---------------------------------------------------------------------------
# Merging shards
# ---------------------------------------------------------------------------

def merge(results: list[ExtremalResult] | tuple[ExtremalResult, ...],
          witness_cap: int = DEFAULT_WITNESS_CAP) -> ExtremalResult:
    """Combine shard results: max of values, witnesses unioned at the max,
    explored counts summed.  Associative and order-independent.  Results
    whose problem keys differ are refused."""
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap}")
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    n, key = results[0].n, results[0].problem_key
    if any(r.problem_key != key for r in results):
        raise ValueError("results belong to different problems")
    values = [r.value for r in results if r.value is not None]
    best = max(values) if values else None
    witnesses: set[str] = set()
    num_extremal = 0
    for r in results:
        if best is not None and r.value == best:
            witnesses.update(r.witnesses)
            num_extremal += r.num_extremal
    return ExtremalResult(
        n=n,
        value=best,
        witnesses=tuple(sorted(witnesses)[:witness_cap]),
        num_extremal=num_extremal,
        explored=sum(r.explored for r in results),
        exhaustive=all(r.exhaustive for r in results),
        problem_key=key,
    )


# ---------------------------------------------------------------------------
# Plain-text descriptors
# ---------------------------------------------------------------------------

def serialize_problem(problem: SearchProblem) -> str:
    """One-line text form; graph6 never contains space, comma or '='."""
    parts = [f"n={problem.n}", f"objective={problem.objective.kind}"]
    if problem.objective.pattern is not None:
        parts.append(f"pattern={encode_graph6(problem.objective.pattern)}")
    if problem.objective.k is not None:
        parts.append(f"k={problem.objective.k}")
    if problem.forbidden:
        parts.append("forbid=" + ",".join(encode_graph6(f) for f in problem.forbidden))
    return " ".join(parts)


def result_line(problem: SearchProblem, result: ExtremalResult) -> str:
    value = "none" if result.value is None else str(result.value)
    wits = ",".join(result.witnesses) if result.witnesses else "-"
    return (f"{serialize_problem(problem)} | value={value} "
            f"num_extremal={result.num_extremal} explored={result.explored} "
            f"exhaustive={str(result.exhaustive).lower()} witnesses={wits}")
