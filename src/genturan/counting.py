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
how they meet a vertex set, and collects copy vertex sets for packing.

Each of those modes finds a copy from its lowest vertex (`_lowest_maps`,
after Grochow and Kellis's symmetry breaking, RECOMB 2007): the plan of each
Aut(H) orbit representative p pins p to a host vertex u and maps the rest
above u, and its count is weighted by |orbit(p)|, so every copy still adds
exactly |Aut(H)| maps and the division by |Aut(H)| stays a real check, while
the walk reaches each copy |Aut(H)|/|orbit(p)| times instead of |Aut(H)|
(twice for C5 rather than 10 times).  `count_injections`
alone walks every map, so `automorphism_count(g) == count_injections(g, g)`
is an independent check of the group order.

A plain or meeting count of a disconnected pattern does not enumerate its
tail.  The plan maps isolated vertices last and K2 components just before
them, so once only isolated vertices and at most one final K2 remain, their
maps into the host minus the used vertices U have a closed form
(`_tail_maps`): a falling factorial of the free vertices, times 2·e(G−U)
for the edge, split in meeting mode by how many of the tail's vertices land
in the meet set.  A pattern made only of such parts (iK1, K2, K2+iK1) is
one product.  Such a pattern keeps its all-maps head: the closed form
counts the tail's maps into every unused vertex, not only those above a
lowest one.  Every other mode needs each map's image and still enumerates
the whole pattern: the packing's vertex sets (`found`), the first hit of a
freeness test (`limit`), the attach sets of an anchored tally (`attach`),
and induced plans, whose isolated vertices must also avoid the
neighbourhoods of the earlier images.  Pinned
to an anchor vertex, it also tallies the maps by their attach set and body:
the enumerator's blocked neighbour sets are built from the keys
(`packing.FreenessPrune`), and from the counts the attachment table of a
weighted sum of patterns, which gives an extremal search the value change of
every one-vertex extension (`attachment_table`).  The anchor there is the
new vertex, not the copy's lowest, so that tally walks every map through
it.  |Aut(H)| and the pattern's vertex orbits come from the graphs module's
canonical search.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm

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


@lru_cache(maxsize=1024)
def _tail_plan(h: Graph) -> tuple[_Plan, tuple[int, int] | None]:
    """h's plan cut before its closed-form tail, and the tail as (edges,
    isolated): the number of K2 components it holds (0 or 1) and of isolated
    vertices; None when the plan ends in neither.

    `_pattern_plan` maps isolated vertices last and the components of
    largest degree 1, the K2s, just before them, so the tail is read off the
    plan's end: its vertices with no neighbour, then one K2 when the last two
    depths left form one (the later one's only neighbour is the earlier,
    which has no earlier neighbour)."""
    order, backs, _ = _pattern_plan(h)
    d = len(order)
    while d and not h.adj[order[d - 1]]:
        d -= 1
    isolated = len(order) - d
    edges = int(d >= 2 and backs[d - 1] == (d - 2,) and not backs[d - 2])
    d -= 2 * edges
    tail = (edges, isolated) if edges or isolated else None
    return (order[:d], backs[:d], ()), tail


def _placements(i: int, j: int, a: int, b: int) -> int:
    """Injective maps of i labelled vertices into a inside and b outside
    vertices with exactly j images inside (none when a or b is negative)."""
    if not 0 <= j <= i or a < 0 or b < 0:
        return 0
    return comb(i, j) * perm(a, j) * perm(b, i - j)


def _edges_after(gadj, x: int, ex: int, used: int) -> int:
    """e(G[X − U]) from ex = e(G[X]): e(G[X]) − Σ_{u ∈ U∩X} d_X(u) + e(G[U∩X])."""
    ux = left = used & x
    lost = inner = 0
    while left:
        u = (left & -left).bit_length() - 1
        left &= left - 1
        row = gadj[u]
        lost += (row & x).bit_count()
        inner += (row & ux).bit_count()
    return ex - lost + inner // 2


def _tail_maps(g: Graph, tail: tuple[int, int], meet: int, target: int):
    """The maps of a tail of (edges, isolated) K2 components and isolated
    vertices into g minus the used set U, as a function of U (a bitmask).

    With target >= 0 only the maps that bring the image's meet with `meet`
    to exactly `target` count, U's own share included.  Isolated vertices
    are placed by `_placements` into the free vertices of M and of V − M
    (M the meet set, empty for a plain count).  An edge goes onto an edge of
    G − U with k = 0, 1 or 2 ends in M, each in 2 ways, and then takes k
    free vertices of M and 2 − k of V − M away from the isolated ones."""
    edges, isolated = tail
    gadj = g.adj
    full = (1 << g.n) - 1
    if target < 0:
        meet, target = 0, 0
    out = full & ~meet
    m = g.edge_count()
    e_in = _edges_after(gadj, full, m, out)
    e_out = _edges_after(gadj, full, m, meet)

    def maps(used: int) -> int:
        want = target - (used & meet).bit_count()
        a = (meet & ~used).bit_count()
        b = (out & ~used).bit_count()
        if not edges:
            return _placements(isolated, want, a, b)
        rest_out = _edges_after(gadj, out, e_out, used)
        if not meet:
            return 2 * rest_out * _placements(isolated, want, a, b - 2)
        rest_in = _edges_after(gadj, meet, e_in, used)
        rest_cross = _edges_after(gadj, full, m, used) - rest_in - rest_out
        return 2 * (rest_out * _placements(isolated, want, a, b - 2)
                    + rest_cross * _placements(isolated, want - 1, a - 1, b - 1)
                    + rest_in * _placements(isolated, want - 2, a - 2, b))

    return maps


def _anchored_plans(h: Graph, induced: bool = False) -> list[_Plan]:
    """The plans that find every copy of h through an anchor vertex: one
    plan per orbit representative, mapped first."""
    return [_pattern_plan(h, p, induced) for p in _orbit_representatives(h)]


def _lowest_maps(g: Graph, h: Graph, induced: bool = False, limit: int | None = None,
                 meet_mask: int = 0, meet_target: int = -1,
                 found: set[int] | None = None) -> int:
    """The injective maps of h into g, counted from each copy's lowest vertex.

    The anchored plan of every orbit representative p pins p to each host
    vertex u in turn and confines the other images to vertices above u
    (`_inject`'s `lowest` mode).  A copy whose lowest vertex u is the image
    of a vertex in p's orbit O is found |Aut(h)|/|O| times by p's plan and
    never by another, so weighting each plan's count by |O| gives |Aut(h)|
    per copy, the all-maps count.  The other arguments are `_inject`'s; with
    `limit` the walk stops once the weighted count reaches it."""
    sizes = _orbit_sizes(h)
    total = 0
    for plan in _anchored_plans(h, induced):
        total += sizes[plan[0][0]] * _inject(g, plan, limit, meet_mask, meet_target,
                                             found=found, lowest=True)
        if limit is not None and total >= limit:
            break
    return total


def count_injections(g: Graph, h: Graph) -> int:
    """Number of injective edge-preserving maps V(h) -> V(g)."""
    if h.n > g.n:
        return 0
    if h.n == 0:
        return 1
    head, tail = _tail_plan(h)
    return _inject(g, head, tail=tail)


def _inject(g: Graph, plan: _Plan, limit: int | None = None,
            meet_mask: int = 0, meet_target: int = -1,
            anchor: int | None = None, found: set[int] | None = None,
            attach: dict[tuple[int, int], int] | None = None,
            tail: tuple[int, int] | None = None, lowest: bool = False) -> int:
    """Backtracking count of the injective maps of a pattern into g that
    follow its `_pattern_plan`: edge-preserving, and for an induced plan
    non-edge-preserving too.

    With `tail` set (from `_tail_plan`), `plan` is the pattern's head and
    every map of the head adds the closed-form count of the tail's maps into
    the unused vertices (`_tail_maps`) rather than 1; only the plain count
    and the meeting count take it, since the other modes below need every
    image (and an induced plan's isolated vertices are not free to go
    anywhere unused).  With neither `anchor` nor `lowest` the walk visits
    every map, as `count_injections` needs.

    With `limit` set the search stops as soon as that many maps are found.
    With `meet_target >= 0` only maps whose image meets `meet_mask` in exactly
    that many vertices are counted.  With `anchor` set the plan's first
    pattern vertex is pinned to that host vertex.  With `lowest` set it is
    pinned to every host vertex u in turn, and the other pattern vertices go
    only to vertices above u: the maps whose image has its least vertex
    there (`_lowest_maps` weights them by orbit).  With `found` set, the
    vertex set (a bitmask) of every counted map's image is added to it.
    With `attach` set (and `anchor`), every counted map is tallied in it
    under the pair (attach set, body): the attach set is the image of the
    anchored pattern vertex's neighbours, the body the image without the
    anchor.
    """
    _, backs, nons = plan
    gadj = g.adj
    hn = len(backs)
    full = avail = (1 << g.n) - 1
    images = [0] * hn
    near = () if attach is None else [i for i, back in enumerate(backs) if 0 in back]
    size = hn if tail is None else hn + 2 * tail[0] + tail[1]
    leaf = None if tail is None else _tail_maps(g, tail, meet_mask, meet_target)
    count = 0

    def rec(depth: int, used: int) -> bool:
        nonlocal count
        if depth == hn:
            if leaf is not None:
                count += leaf(used)
            elif meet_target < 0 or (used & meet_mask).bit_count() == meet_target:
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
            if met > meet_target or met + (size - depth) < meet_target:
                return False
        cand = avail & ~used
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

    if anchor is not None:
        images[0] = anchor
        rec(1, 1 << anchor)
    elif lowest:
        for u in range(g.n - hn + 1):
            images[0] = u
            avail = full & ~((2 << u) - 1)
            if rec(1, 1 << u):
                break
    else:
        rec(0, 0)
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
    _, tail = _tail_plan(h)
    return _per_copy(_lowest_maps(g, h) if tail is None else count_injections(g, h), h)


def attachment_table(host: Graph, terms) -> dict[int, int]:
    """The weighted copies of the patterns through the last vertex a of
    `host`, tallied by their neighbourhood at a: {att: c}, c the sum over the
    (weight, pattern) `terms` of weight times the number of copies whose
    edges at a go to exactly the vertex set att.

    With host = g plus a joined to all of g, the copies g + a~s has beyond
    g's are those with att inside s, so the weighted count grows by the sum
    of c over att inside s.  Pinned to a, the plan of an orbit
    representative p finds every copy whose a lies in p's orbit O,
    |Aut(h)|/|O| times and always with the same att; weighted by |O|, each
    copy counts |Aut(h)| times, so every entry of a term divides exactly
    (checked) before it is weighted and added.  A pattern with no vertex, or
    more than the host's, adds nothing."""
    a = host.n - 1
    table: dict[int, int] = {}
    for weight, h in terms:
        if not 1 <= h.n <= host.n:
            continue
        sizes = _orbit_sizes(h)
        maps: dict[int, int] = {}
        for plan in _anchored_plans(h):
            tally: dict[tuple[int, int], int] = {}
            _inject(host, plan, anchor=a, attach=tally)
            orbit = sizes[plan[0][0]]
            for (att, _), c in tally.items():
                maps[att] = maps.get(att, 0) + orbit * c
        aut = automorphism_count(h)
        for att, c in maps.items():
            copies, rest = divmod(c, aut)
            if rest:
                raise VerificationError(f"map count {c} not divisible by |Aut| = {aut}")
            table[att] = table.get(att, 0) + weight * copies
    return table


def count_copies_meeting(g: Graph, h: Graph, meet: int, exactly: int) -> int:
    """Copies of h in g whose vertex set meets the vertex set `meet` in
    exactly the given number of vertices.  `meet` is a bitmask or an iterable
    of vertex indices."""
    if h.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if not isinstance(meet, int):
        # A negative index has no bit of its own; -1 has every bit outside
        # the host, so the check below rejects it as it does indices >= n.
        vertices = set(meet)
        meet = -1 if any(v < 0 for v in vertices) else sum(1 << v for v in vertices)
    if meet & ~((1 << g.n) - 1):
        raise ValueError("meet set has vertices outside the host")
    if not 0 <= exactly <= h.n:
        return 0
    if h.n > g.n:
        return 0
    head, tail = _tail_plan(h)
    if tail is None:
        total = _lowest_maps(g, h, meet_mask=meet, meet_target=exactly)
    else:
        total = _inject(g, head, meet_mask=meet, meet_target=exactly, tail=tail)
    return _per_copy(total, h)


def contains(g: Graph, f: Graph) -> bool:
    """Whether g has at least one copy of f, with early exit."""
    if f.n > g.n or f.edge_count() > g.edge_count():
        return False
    if f.n == 0:
        return True
    return _lowest_maps(g, f, limit=1) > 0


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
    return _per_copy(_lowest_maps(g, h, induced=True), h)


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
