"""Exhaustive small-n extremal search.

The searcher walks one representative per isomorphism class of n-vertex
hosts (canonical augmentation with hereditary forbidden-subgraph pruning),
evaluates an objective on every family-free host, and reports the exact
maximum with canonical witnesses.  Searches can be split into shards that
partition the enumeration tree at a fixed depth; shard results merge
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
set; the value travels down the walk with the table, and only the graphs the
walk starts from are counted from scratch.  A host's witness label is the
canonical certificate its acceptance test already computed.

In bounded mode the walk drops, at the last level, every child whose value
is below the best value found so far, before the child is built; the maximum,
the extremal count and the witnesses are those of the full walk, but only
the hosts that can still reach the running maximum are evaluated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .graphs import (Graph, VerificationError, add_vertex, canonical_cert,
                     canonical_graph, enumerate_graphs)
from .graph6 import decode_graph6, encode_graph6
# count_induced_family is not called here; it stays importable from this
# module, where the benchmark's spans wrap it.
from .counting import (_induced_family_cached, attachment_table, count_copies,
                       count_induced_family, is_family_free)

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
    no subgraph copy of any member of `forbidden`.

    `roots` (graph6) restricts the search to the enumeration subtrees
    hanging below the given graphs; a root's level is its vertex count, at
    most n.  Shards are built this way."""

    n: int
    forbidden: tuple[Graph, ...]
    objective: Objective
    roots: tuple[str, ...] | None = None

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


# The result cache holds at most this many keys and drops the oldest first;
# the default-range `verify all` creates 87 keys, `--n-range 5..8` 92.
_CACHE_KEYS = 128

_cache: dict[tuple, ExtremalResult] = {}


def _family_key(forbidden: tuple[Graph, ...]) -> tuple:
    return tuple(sorted(canonical_cert(f) for f in forbidden))


def _problem_key(problem: SearchProblem) -> tuple:
    """The problem's host size, forbidden family and objective terms, graphs
    by canonical certificate; shards (`roots`) of one problem share it, and
    so do objectives with the same terms, such as copies of K2 and edges."""
    terms = sorted((canonical_cert(h), w) for w, h in problem.objective.terms())
    return (problem.n, _family_key(problem.forbidden), tuple(terms))


def _problem_cache_key(problem: SearchProblem, witness_cap: int,
                       bounded: bool) -> tuple:
    return _problem_key(problem) + (witness_cap, bounded)


def clear_cache() -> None:
    _cache.clear()


class _OutOfTime(Exception):
    """Raised by the walk's node hook once the deadline has passed."""


def _value(objective: Objective, g: Graph, token) -> int:
    """The objective's value on g, from the token of g's parent (its value
    and attachment table) and g's new vertex, the last one; counted from
    scratch for a start graph, whose token is None."""
    if token is None:
        return objective.evaluate(g)
    value, table = token
    return value + gain(table, g.adj[-1])


def brute_force_ex(problem: SearchProblem, *,
                   witness_cap: int = DEFAULT_WITNESS_CAP,
                   budget_seconds: float | None = None,
                   max_explored: int | None = None,
                   bounded: bool = False) -> ExtremalResult:
    """Exact maximum of the objective over all family-free n-vertex graphs.

    Every value is carried down the walk: each graph below level n gets the
    attachment table of its objective (`Objective.increment`), and a child's
    value is its parent's plus the table's gain at the child's new vertex;
    only the start graphs are counted from scratch.  A host's witness label
    is the certificate its acceptance test computed.

    Exceeding `budget_seconds` or `max_explored` stops the search and returns
    the best value seen with exhaustive=False.  The deadline is checked
    between hosts and once per graph below level n, so a walk that yields
    nothing for a while still stops.

    With `bounded`, a child at the last level whose value is below the best
    value found so far is dropped before it is built or canonically tested,
    and a parent none of whose children can reach that value is skipped:
    every table entry counts copies, so no child beats the one whose new
    vertex is joined to the whole parent.  The running best never
    exceeds the final maximum, so every extremal class is still produced
    exactly once: `value`, `num_extremal`, `witnesses` and `exhaustive` are
    those of the full search, while `explored` counts only the hosts
    evaluated.  Full searches keep `explored` equal to the class count,
    which shard merges and the `search` result line report."""
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap}")
    if max_explored is not None and max_explored < 0:
        raise ValueError(f"max_explored must be >= 0, got {max_explored}")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")
    cacheable = (budget_seconds is None and max_explored is None
                 and problem.roots is None)
    if cacheable:
        key = _problem_cache_key(problem, witness_cap, bounded)
        hit = _cache.get(key)
        if hit is not None:
            return hit

    forbidden = problem.forbidden
    objective = problem.objective
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    best: int | None = None
    last = problem.n - 1

    def node_hook(g: Graph, token):
        if deadline is not None and time.monotonic() > deadline:
            raise _OutOfTime
        value = _value(objective, g, token)
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

    roots = None if problem.roots is None else [decode_graph6(r) for r in problem.roots]
    stream = enumerate_graphs(problem.n, forbidden, _roots=roots,
                              _node_hook=node_hook)
    witnesses: list[str] = []
    num_extremal = 0
    explored = 0
    exhaustive = True
    try:
        for g, token, cert in stream:
            if deadline is not None and time.monotonic() > deadline:
                exhaustive = False
                break
            if max_explored is not None and explored >= max_explored:
                exhaustive = False
                break
            explored += 1
            value = _value(objective, g, token)
            if best is not None and value < best:
                continue
            # The acceptance test labelled every graph below the start graphs.
            label = canonical_graph(g) if cert is None else Graph._make(g.n, cert)
            if best is None or value > best:
                best = value
                witnesses = [encode_graph6(label)]
                num_extremal = 1
            else:
                num_extremal += 1
                w = encode_graph6(label)
                if w not in witnesses:
                    witnesses.append(w)
                    witnesses.sort()
                    del witnesses[witness_cap:]
    except _OutOfTime:
        exhaustive = False
    # Post-search re-verification, independent of the enumerator's
    # incremental prune: every witness must decode to a family-free graph
    # attaining the reported value.
    for w in witnesses:
        wg = decode_graph6(w)
        if not is_family_free(wg, forbidden):
            raise VerificationError(f"witness {w} violates freeness")
        if objective.evaluate(wg) != best:
            raise VerificationError(f"witness {w} misses the maximum {best}")
    result = ExtremalResult(problem.n, best, tuple(sorted(witnesses)),
                            num_extremal, explored, exhaustive,
                            _problem_key(problem))
    if cacheable and exhaustive:
        _cache[key] = result
        while len(_cache) > _CACHE_KEYS:
            del _cache[next(iter(_cache))]
    return result


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

def shard(problem: SearchProblem, parts: int) -> list[SearchProblem]:
    """Split the enumeration tree at a fixed depth into `parts` subproblems.

    The classes at depth min(n - 1, 5) (0 for n = 0) are dealt round-robin
    as roots, so the shard list is a deterministic partition of the search
    space; merging the shard results reproduces the unsharded result
    exactly."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if problem.roots is not None:
        raise ValueError("cannot re-shard a shard")
    if parts == 1:
        return [problem]
    depth = max(0, min(problem.n - 1, 5))
    roots = [encode_graph6(g) for g in enumerate_graphs(depth, problem.forbidden)]
    buckets: list[list[str]] = [[] for _ in range(parts)]
    for i, r in enumerate(roots):
        buckets[i % parts].append(r)
    return [replace(problem, roots=tuple(b)) for b in buckets]


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
    if problem.roots is not None:
        parts.append("roots=" + ",".join(problem.roots))
    return " ".join(parts)


def parse_problem(text: str) -> SearchProblem:
    fields: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad problem token {token!r}")
        key, _, value = token.partition("=")
        if key not in ("n", "objective", "pattern", "k", "forbid", "roots"):
            raise ValueError(f"unknown problem key {key!r}")
        if key in fields:
            raise ValueError(f"repeated problem key {key!r}")
        fields[key] = value
    try:
        n = int(fields["n"])
        kind = fields["objective"]
    except KeyError as exc:
        raise ValueError(f"problem descriptor missing {exc}") from exc
    pattern = decode_graph6(fields["pattern"]) if "pattern" in fields else None
    k = int(fields["k"]) if "k" in fields else None
    objective = Objective(kind, pattern=pattern, k=k)
    forbidden = tuple(decode_graph6(t) for t in fields["forbid"].split(",")) \
        if fields.get("forbid") else ()
    roots = fields.get("roots")
    if roots is not None:
        roots = tuple(roots.split(",")) if roots else ()
    return SearchProblem(n, forbidden, objective, roots=roots)


def result_line(problem: SearchProblem, result: ExtremalResult) -> str:
    value = "none" if result.value is None else str(result.value)
    wits = ",".join(result.witnesses) if result.witnesses else "-"
    return (f"{serialize_problem(problem)} | value={value} "
            f"num_extremal={result.num_extremal} explored={result.explored} "
            f"exhaustive={str(result.exhaustive).lower()} witnesses={wits}")
