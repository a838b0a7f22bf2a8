"""Exact subgraph-copy counting.

A copy of a pattern H in a host G is a subgraph of G isomorphic to H (not
necessarily induced).  The copy count is the number of injective
edge-preserving maps V(H) -> V(G) divided by |Aut(H)|; the division is always
exact and is checked.  Induced counting, the family of all induced subgraphs
of a pattern, and freeness tests live here too.

The core is the package's one embedder, `_inject`, a bitmask backtracker
over injective maps of a pattern into a host.  Pattern vertices are mapped
in a connectivity-respecting order chosen to maximize the number of
already-mapped neighbors, so candidate sets shrink to neighborhood
intersections as early as possible.  The same search counts copies and
induced copies, stops at a first hit for freeness tests, counts copies by
how they meet a vertex set, and collects copy vertex sets for packing.  Pinned
to an anchor vertex, it also tallies the maps by their attach set and body:
the enumerator's blocked neighbour sets are built from the keys
(`packing.FreenessPrune`), and the attachment tables that give an extremal
search the value change of every one-vertex extension from the counts
(`attachment_table`).  |Aut(H)| and the pattern's vertex orbits come from the
graphs module's canonical search.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (Graph, VerificationError, _orbit_representatives,
                     _orbit_sizes, automorphism_count, canonical_cert, empty_graph)


_Plan = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=1024)
def _pattern_plan(h: Graph, first: int | None = None, induced: bool = False) -> _Plan:
    """Mapping order of h's vertices and, per depth, the earlier depths
    adjacent to the vertex mapped there (`backs`) and, for an induced plan,
    the earlier depths not adjacent to it (`nons`, an empty tuple otherwise).

    Components are mapped one after another, each next vertex the one with
    the most already-mapped neighbors; `first` forces the first vertex."""
    n = h.n
    placed = 0
    order: list[int] = []
    if first is not None:
        order.append(first)
        placed = 1 << first
    while len(order) < n:
        best = -1
        best_key = (-1, -1, n)
        for v in range(n):
            if placed >> v & 1:
                continue
            back = (h.adj[v] & placed).bit_count()
            key = (back, h.adj[v].bit_count(), -v)
            if key > best_key:
                best_key = key
                best = v
        order.append(best)
        placed |= 1 << best
    pos_of = {v: i for i, v in enumerate(order)}
    backs = tuple(tuple(pos_of[u] for u in range(n) if h.adj[v] >> u & 1 and pos_of[u] < i)
                  for i, v in enumerate(order))
    nons = ()
    if induced:
        nons = tuple(tuple(pos_of[u] for u in range(n)
                           if not h.adj[v] >> u & 1 and pos_of[u] < i)
                     for i, v in enumerate(order))
    return tuple(order), backs, nons


def _anchored_plans(h: Graph) -> list[_Plan]:
    """The plans that find every copy of h through an anchor vertex: one
    plan per orbit representative, mapped first."""
    return [_pattern_plan(h, p) for p in _orbit_representatives(h)]


def count_injections(g: Graph, h: Graph) -> int:
    """Number of injective edge-preserving maps V(h) -> V(g)."""
    if h.n > g.n:
        return 0
    if h.n == 0:
        return 1
    return _inject(g, _pattern_plan(h))


def _inject(g: Graph, plan: _Plan, limit: int | None = None,
            meet_mask: int = 0, meet_target: int = -1,
            anchor: int | None = None, found: set[int] | None = None,
            attach: dict[tuple[int, int], int] | None = None) -> int:
    """Backtracking count of the injective maps of a pattern into g that
    follow its `_pattern_plan`: edge-preserving, and for an induced plan
    non-edge-preserving too.

    With `limit` set the search stops as soon as that many maps are found.
    With `meet_target >= 0` only maps whose image meets `meet_mask` in exactly
    that many vertices are counted.  With `anchor` set the plan's first
    pattern vertex is pinned to that host vertex.  With `found` set, the
    vertex set (a bitmask) of every counted map's image is added to it.
    With `attach` set (and `anchor`), every counted map is tallied in it
    under the pair (attach set, body): the attach set is the image of the
    anchored pattern vertex's neighbours, the body the image without the
    anchor.
    """
    _, backs, nons = plan
    gadj = g.adj
    hn = len(backs)
    full = (1 << g.n) - 1
    images = [0] * hn
    near = () if attach is None else [i for i, back in enumerate(backs) if 0 in back]
    count = 0

    def rec(depth: int, used: int) -> bool:
        nonlocal count
        if depth == hn:
            if meet_target < 0 or (used & meet_mask).bit_count() == meet_target:
                count += 1
                if found is not None:
                    found.add(used)
                if attach is not None:
                    att = 0
                    for i in near:
                        att |= 1 << images[i]
                    key = (att, used ^ 1 << anchor)
                    attach[key] = attach.get(key, 0) + 1
                if limit is not None and count >= limit:
                    return True
            return False
        if meet_target >= 0:
            met = (used & meet_mask).bit_count()
            if met > meet_target or met + (hn - depth) < meet_target:
                return False
        cand = full & ~used
        for b in backs[depth]:
            cand &= gadj[images[b]]
            if not cand:
                return False
        if nons:
            for b in nons[depth]:
                cand &= ~gadj[images[b]]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            images[depth] = w
            if rec(depth + 1, used | (1 << w)):
                return True
        return False

    if anchor is None:
        rec(0, 0)
    else:
        images[0] = anchor
        rec(1, 1 << anchor)
    return count


def _per_copy(maps: int, h: Graph) -> int:
    """Copies from a count of maps of h: each copy is hit |Aut(h)| times."""
    aut = automorphism_count(h)
    copies, rest = divmod(maps, aut)
    if rest:
        raise VerificationError(f"map count {maps} not divisible by |Aut| = {aut}")
    return copies


def count_copies(g: Graph, h: Graph) -> int:
    """Number of subgraphs of g isomorphic to h."""
    if h.n < 1:
        raise ValueError("pattern needs at least one vertex")
    return _per_copy(count_injections(g, h), h)


def attachment_table(host: Graph, h: Graph) -> dict[int, int]:
    """The copies of h through the last vertex a of `host`, tallied by their
    neighbourhood at a: {att: c}, c the number of copies whose edges at a go
    to exactly the vertex set att.

    With host = g plus a joined to all of g, the copies g + a~s has beyond
    g's are those with att inside s, so the count grows by the sum of c over
    att inside s.  Pinned to a, the plan of an orbit representative p finds
    every copy whose a lies in p's orbit O, |Aut(h)|/|O| times and always
    with the same att; weighted by |O|, each copy counts |Aut(h)| times, so
    every entry divides exactly (checked)."""
    a = host.n - 1
    if not 1 <= h.n <= host.n:
        return {}
    sizes = _orbit_sizes(h)
    maps: dict[int, int] = {}
    for plan in _anchored_plans(h):
        tally: dict[tuple[int, int], int] = {}
        _inject(host, plan, anchor=a, attach=tally)
        weight = sizes[plan[0][0]]
        for (att, _), c in tally.items():
            maps[att] = maps.get(att, 0) + weight * c
    aut = automorphism_count(h)
    table = {}
    for att, c in maps.items():
        table[att], rest = divmod(c, aut)
        if rest:
            raise VerificationError(f"map count {c} not divisible by |Aut| = {aut}")
    return table


def count_copies_meeting(g: Graph, h: Graph, meet: int, exactly: int) -> int:
    """Copies of h in g whose vertex set meets the vertex set `meet` in
    exactly the given number of vertices.  `meet` is a bitmask or an iterable
    of vertex indices."""
    if h.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if not isinstance(meet, int):
        meet = sum(1 << v for v in meet)
    if meet & ~((1 << g.n) - 1):
        raise ValueError("meet set has vertices outside the host")
    if not 0 <= exactly <= h.n:
        return 0
    if h.n > g.n:
        return 0
    total = _inject(g, _pattern_plan(h), meet_mask=meet, meet_target=exactly)
    return _per_copy(total, h)


def contains(g: Graph, f: Graph) -> bool:
    """Whether g has at least one copy of f, with early exit."""
    if f.n > g.n or f.edge_count() > g.edge_count():
        return False
    if f.n == 0:
        return True
    return _inject(g, _pattern_plan(f), limit=1) > 0


def is_free(g: Graph, f: Graph) -> bool:
    return not contains(g, f)


def is_family_free(g: Graph, family) -> bool:
    return all(is_free(g, f) for f in family)


def count_induced_copies(g: Graph, h: Graph) -> int:
    """Number of vertex subsets of g inducing a graph isomorphic to h."""
    if h.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if h.n > g.n:
        return 0
    return _per_copy(_inject(g, _pattern_plan(h, induced=True)), h)


def induced_family(h: Graph) -> list[Graph]:
    """All induced subgraphs of h up to isomorphism, the 0-vertex graph included.

    Returned in a deterministic order (vertex count, then certificate)."""
    if h.n > 12:
        raise ValueError("induced family is enumerated over all vertex subsets; "
                         f"{h.n} vertices is past the supported 12")
    seen: dict[tuple[int, tuple[int, ...]], Graph] = {}
    for mask in range(1 << h.n):
        sub = h.induced_mask(mask)
        key = (sub.n, canonical_cert(sub))
        if key not in seen:
            seen[key] = sub
    members = [seen[k] for k in sorted(seen)]
    if not members or members[0].n != 0:
        members.insert(0, empty_graph(0))
    return members


@lru_cache(maxsize=256)
def _induced_family_cached(h: Graph) -> tuple[Graph, ...]:
    return tuple(induced_family(h))


def count_induced_family(g: Graph, h: Graph) -> int:
    """Total copies in g of all members of h's induced-subgraph family.

    Members are deduplicated up to isomorphism; the 0-vertex member
    contributes exactly one copy."""
    total = 0
    for member in _induced_family_cached(h):
        if member.n == 0:
            total += 1
        else:
            total += count_copies(g, member)
    return total
