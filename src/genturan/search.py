"""Exhaustive small-n extremal search.

The searcher walks one representative per isomorphism class of n-vertex
hosts (canonical augmentation with hereditary forbidden-subgraph pruning),
evaluates an objective on every family-free host, and reports the exact
maximum with canonical witnesses.  Searches can be split into shards that
partition the enumeration tree at a fixed depth; shard results merge
associatively and order-independently back into the unsharded answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .graphs import (Graph, VerificationError, canonical_cert, canonical_graph,
                     enumerate_graphs)
from .graph6 import decode_graph6, encode_graph6
from .counting import count_copies, count_induced_family, is_family_free

DEFAULT_N_CAP = 10
DEFAULT_WITNESS_CAP = 16


@dataclass(frozen=True)
class Objective:
    """What to maximize over family-free hosts.

    kinds: "copies" (subgraph copies of `pattern`), "edges",
    "exstar" ((k-1)*edges + triangle count), "exbar" (total copies of all
    induced subgraphs of `pattern`, empty member counted once).  A kind
    takes only the fields it reads: `pattern` for copies and exbar, `k` for
    exstar."""

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

    def evaluate(self, g: Graph) -> int:
        if self.kind == "edges":
            return g.edge_count()
        if self.kind == "copies":
            return count_copies(g, self.pattern)
        if self.kind == "exstar":
            return (self.k - 1) * g.edge_count() + count_copies(g, _K3)
        return count_induced_family(g, self.pattern)

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
    family-free classes evaluated."""

    n: int
    value: int | None
    witnesses: tuple[str, ...]
    num_extremal: int
    explored: int
    exhaustive: bool


# Both caches hold at most this many keys and drop the oldest first; the
# default-range `verify all` creates 87 result keys and 44 host-list keys,
# `--n-range 5..8` 92 and 43.
_CACHE_KEYS = 128
_HOST_CACHE_KEYS = 64
_HOST_CACHE_LIMIT = 150_000  # hosts in one cached list

_cache: dict[tuple, ExtremalResult] = {}
_host_cache: dict[tuple, list[Graph]] = {}


def _remember(cache: dict, key: tuple, value, limit: int) -> None:
    """Store key -> value, dropping the oldest keys beyond `limit`."""
    cache[key] = value
    while len(cache) > limit:
        del cache[next(iter(cache))]


def _family_key(forbidden: tuple[Graph, ...]) -> tuple:
    return tuple(sorted(canonical_cert(f) for f in forbidden))


def _problem_cache_key(problem: SearchProblem, witness_cap: int) -> tuple:
    obj = problem.objective
    return (
        problem.n,
        _family_key(problem.forbidden),
        obj.kind,
        canonical_cert(obj.pattern) if obj.pattern is not None else None,
        obj.k,
        witness_cap,
    )


def clear_cache() -> None:
    _cache.clear()
    _host_cache.clear()


def brute_force_ex(problem: SearchProblem, *,
                   witness_cap: int = DEFAULT_WITNESS_CAP,
                   budget_seconds: float | None = None,
                   max_explored: int | None = None,
                   n_cap: int = DEFAULT_N_CAP,
                   use_cache: bool = True) -> ExtremalResult:
    """Exact maximum of the objective over all family-free n-vertex graphs.

    Exceeding `budget_seconds` or `max_explored` stops the search and returns
    the best value seen with exhaustive=False."""
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap}")
    if max_explored is not None and max_explored < 0:
        raise ValueError(f"max_explored must be >= 0, got {max_explored}")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")
    if problem.n > n_cap:
        raise ValueError(f"host size {problem.n} exceeds the cap {n_cap}; "
                         "raise n_cap explicitly if you mean it")
    cacheable = (use_cache and budget_seconds is None and max_explored is None
                 and problem.roots is None)
    if cacheable:
        key = _problem_cache_key(problem, witness_cap)
        hit = _cache.get(key)
        if hit is not None:
            return hit

    forbidden = problem.forbidden
    host_key = None
    collected: list[Graph] | None = None
    if problem.roots is not None:
        roots = [decode_graph6(r) for r in problem.roots]
        stream = enumerate_graphs(problem.n, forbidden, _roots=roots)
    else:
        host_key = (problem.n, _family_key(problem.forbidden))
        cached_hosts = _host_cache.get(host_key)
        if cached_hosts is not None:
            stream = iter(cached_hosts)
        else:
            collected = [] if cacheable else None
            stream = enumerate_graphs(problem.n, forbidden)

    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    best: int | None = None
    witnesses: list[str] = []
    num_extremal = 0
    explored = 0
    exhaustive = True
    objective = problem.objective
    for g in stream:
        if deadline is not None and time.monotonic() > deadline:
            exhaustive = False
            break
        if max_explored is not None and explored >= max_explored:
            exhaustive = False
            break
        if collected is not None:
            collected.append(g)
        explored += 1
        value = objective.evaluate(g)
        if best is None or value > best:
            best = value
            witnesses = [encode_graph6(canonical_graph(g))]
            num_extremal = 1
        elif value == best:
            num_extremal += 1
            w = encode_graph6(canonical_graph(g))
            if w not in witnesses:
                witnesses.append(w)
                witnesses.sort()
                del witnesses[witness_cap:]
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
                            num_extremal, explored, exhaustive)
    if cacheable and exhaustive:
        _remember(_cache, key, result, _CACHE_KEYS)
        if (collected is not None and host_key is not None
                and len(collected) <= _HOST_CACHE_LIMIT):
            _remember(_host_cache, host_key, collected, _HOST_CACHE_KEYS)
    return result


def exstar_brute(n: int, f: Graph, k: int, **kwargs) -> ExtremalResult:
    """Exact maximum of (k-1)*|E(G)| + #triangles(G) over f-free hosts."""
    return brute_force_ex(SearchProblem(n, (f,), Objective.exstar(k)), **kwargs)


def exbar_brute(n: int, h: Graph, f: Graph, **kwargs) -> ExtremalResult:
    """Exact maximum of the induced-family copy total of h over f-free hosts."""
    return brute_force_ex(SearchProblem(n, (f,), Objective.exbar(h)), **kwargs)


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
    explored counts summed.  Associative and order-independent."""
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap}")
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    n = results[0].n
    if any(r.n != n for r in results):
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
