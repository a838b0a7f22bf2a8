"""Maximum vertex-disjoint packings and the induced two-part split.

A packing of a pattern F in a host G is a family of pairwise vertex-disjoint
vertex sets, each spanning a copy of F.  The exact maximum is found by branch
and bound over the hypergraph of copy vertex sets, seeded with a greedy lower
bound.  The copy vertex sets come from the counting module's embedder,
which collects the image of every copy, reached only through the orbit that
holds the copy's lowest vertex (`counting._lowest_maps`).  The partition
built from a maximum packing puts the packed vertices on one side (L) and the
rest (R); the R-induced subgraph is always F-free, which is checked.  The
enumerator's freeness test lives here too, since it packs component copies.
It treats every forbidden member as a union of component types, one type for
a connected member.  Per parent it finds the neighbour sets of a new vertex
that would create a forbidden copy (`FreenessPrune.blocked`), and the
enumerator then filters candidates by degree, blocked set, orbit and
canonical test, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, VerificationError, _bits, add_vertex, canonical_cert,
                     component_masks)
from .counting import _anchored_plans, _inject, _lowest_maps, is_free


@dataclass(frozen=True)
class Packing:
    """Vertex sets of pairwise disjoint copies, sorted for determinism."""

    copies: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.copies)

    def support(self) -> int:
        mask = 0
        for c in self.copies:
            for v in c:
                mask |= 1 << v
        return mask


@dataclass(frozen=True)
class CanonicalPartition:
    """Split of the host vertices into packed side L and remainder R."""

    L: tuple[int, ...]
    R: tuple[int, ...]
    packing: Packing


def copy_vertex_sets(g: Graph, f: Graph) -> list[int]:
    """Distinct vertex sets (as bitmasks, ascending) spanning a copy of f in g.

    The embedder reaches each copy only through the orbit that holds its
    lowest vertex: |Aut(f)|/|orbit| times rather than |Aut(f)| times."""
    if f.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if f.n > g.n:
        return []
    found: set[int] = set()
    _lowest_maps(g, f, found=found)
    return sorted(found)


def _max_packing_size(masks: list[int], free_mask: int, copy_size: int,
                      stop_at: int | None = None) -> int:
    """Branch and bound for the maximum number of pairwise disjoint masks.

    Branches on the lowest covered vertex: either some copy through it is
    used, or the vertex stays uncovered.  Seeded with the first-fit greedy
    value; `stop_at` short-circuits once a packing of that size is known."""
    order = sorted(masks)
    best = 0
    avail = free_mask
    for m in order:
        if m & ~avail == 0:
            best += 1
            avail &= ~m
    if stop_at is not None and best >= stop_at:
        return best

    def rec(avail: int, cands: list[int], have: int) -> bool:
        nonlocal best
        if have > best:
            best = have
            if stop_at is not None and best >= stop_at:
                return True
        # Disjoint copies have distinct lowest vertices, so the number of
        # distinct lowest bits among candidates bounds the remaining packing;
        # this collapses universal-vertex hosts immediately.
        lows = 0
        for m in cands:
            lows |= m & -m
        bound = have + min(len(cands), avail.bit_count() // copy_size,
                           lows.bit_count())
        if bound <= best:
            return False
        pivot = lows & -lows
        for m in cands:
            if m & pivot:
                rest = [c for c in cands if c & m == 0]
                if rec(avail & ~m, rest, have + 1):
                    return True
        without = [c for c in cands if not c & pivot]
        if without and rec(avail & ~pivot, without, have):
            return True
        return False

    rec(free_mask, order, 0)
    return best


def max_packing_size(g: Graph, f: Graph) -> int:
    masks = copy_vertex_sets(g, f)
    if not masks:
        return 0
    return _max_packing_size(masks, (1 << g.n) - 1, f.n)


def _packable(masks: list[int], avail: int, copy_size: int, want: int) -> bool:
    """Whether `want` pairwise disjoint masks fit inside avail."""
    if want <= 0:
        return True
    cands = [m for m in masks if m & ~avail == 0]
    if len(cands) < want or avail.bit_count() < want * copy_size:
        return False
    return _max_packing_size(cands, avail, copy_size, stop_at=want) >= want


def max_disjoint_packing(g: Graph, f: Graph) -> Packing:
    """A maximum packing, deterministically the lexicographically least one.

    After the optimum size is established by branch and bound, copies are
    committed greedily in ascending vertex-set order, keeping only choices
    that still extend to the optimum."""
    masks = copy_vertex_sets(g, f)
    if not masks:
        return Packing(())
    size = _max_packing_size(masks, (1 << g.n) - 1, f.n)
    chosen: list[int] = []
    avail = (1 << g.n) - 1
    remaining = masks
    need = size
    for i, m in enumerate(remaining):
        if need == 0:
            break
        if m & ~avail:
            continue
        tail = [c for c in remaining[i + 1:] if c & m == 0 and c & ~avail == 0]
        if _packable(tail, avail & ~m, f.n, need - 1):
            chosen.append(m)
            avail &= ~m
            need -= 1
    if need:
        raise VerificationError("lexicographic reconstruction lost the optimum")
    return Packing(tuple(tuple(_bits(m)) for m in chosen))


def is_kF_free(g: Graph, k: int, f: Graph) -> bool:
    """True when g has no k pairwise vertex-disjoint copies of f."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return f.n * k > g.n or not _packable(copy_vertex_sets(g, f), (1 << g.n) - 1, f.n, k)


def canonical_partition(g: Graph, f: Graph) -> CanonicalPartition:
    """Partition of V(g) into the support L of a maximum f-packing and the
    rest R.  The subgraph induced by R is f-free (checked)."""
    packing = max_disjoint_packing(g, f)
    support = packing.support()
    L = tuple(_bits(support))
    R = tuple(v for v in range(g.n) if not support >> v & 1)
    if not is_free(g.induced(R), f):
        raise VerificationError("remainder side contains the pattern")
    return CanonicalPartition(L, R, packing)


class FreenessPrune:
    """Per-parent freeness test for the enumerator's one-vertex extensions.

    The enumerator extends only family-free graphs, so a child g + a, with
    the new vertex a joined to s, contains a forbidden member F only through
    a.  Every member is a union of components, F = F1 u ... u Fr (r = 1 for
    a connected F): some map of a component Fi sends a pattern vertex v to a
    and the rest into g, the image of v's pattern neighbours, its attach
    set, lies inside s, and the other components (the `rest`, empty when F
    is connected) pack, pairwise disjoint, inside g away from the map's
    body; whether they do depends on the map, not on s.

    So `blocked(g)` is computed once per parent, from the anchored maps into
    g plus a vertex joined to all of g, and a candidate s is rejected when
    it contains a blocked set: a bitmask test, before any child is built.
    The enumerator's filters run in the order degree, blocked set, orbit,
    canonical test.  Members with more vertices than the enumerated n cannot
    occur and are dropped.
    """

    def __init__(self, forbidden, n: int):
        self.members = [f for f in forbidden if f.n <= n]
        # Component types, shared by all members, up to isomorphism.
        self.types: list[Graph] = []
        # Per member: its vertex count and, for each component type that can
        # hold a, the (type, count) copies the parent must also pack.
        self.anchors: list[tuple[int, list[tuple[int, list[tuple[int, int]]]]]] = []
        type_index: dict[tuple[int, ...], int] = {}
        for f in self.members:
            counts: dict[int, int] = {}
            for part in component_masks(f):
                comp = f.induced_mask(part)
                key = canonical_cert(comp)
                if key not in type_index:
                    type_index[key] = len(self.types)
                    self.types.append(comp)
                t = type_index[key]
                counts[t] = counts.get(t, 0) + 1
            anchors = []
            for t in counts:
                rest = [(u, c - (u == t)) for u, c in counts.items() if c - (u == t)]
                anchors.append((t, rest))
            self.anchors.append((f.n, anchors))
        self.type_plans = [_anchored_plans(t) for t in self.types]
        # Only the types some rest must pack are searched for in the parent.
        self.packed = {u for _, anchors in self.anchors
                       for _, rest in anchors for u, _ in rest}

    def blocked(self, g: Graph) -> list[int]:
        """The inclusion-minimal blocked sets of the family-free parent g,
        ascending by size: g + a, with a joined to s, is family-free exactly
        when s contains none of them."""
        m = g.n
        full = (1 << m) - 1
        # Every map through a in a child is a map here whose attach set lies
        # inside that child's s.
        host = add_vertex(g, full)
        hits: set[int] = set()
        masks = {u: copy_vertex_sets(g, self.types[u]) for u in self.packed}
        for size, anchors in self.anchors:
            if size > m + 1:
                continue
            for t, rest in anchors:
                if any(len(masks[u]) < c for u, c in rest):
                    continue
                maps: dict[tuple[int, int], int] = {}
                for plan in self.type_plans[t]:
                    _inject(host, plan, anchor=m, attach=maps)
                if not rest:
                    hits.update(att for att, _ in maps)
                    continue
                bodies: dict[int, list[int]] = {}
                for att, body in maps:
                    bodies.setdefault(body, []).append(att)
                demands = [(masks[u], c, self.types[u].n) for u, c in rest]
                for body, atts in bodies.items():
                    if _packs(demands, full & ~body):
                        hits.update(atts)
        kept: list[int] = []
        for b in sorted(hits, key=lambda b: (b.bit_count(), b)):
            if all(k & ~b for k in kept):
                kept.append(b)
        return kept


def _packs(demands: list[tuple[list[int], int, int]], avail: int) -> bool:
    """Whether pairwise disjoint masks inside `avail` meet every demand
    (masks, count, copy size): `count` masks taken from each demand's list."""
    masks, want, size = demands[0]
    if len(demands) == 1:
        return _packable(masks, avail, size, want)
    rest = demands[1:]

    def pick(start: int, want: int, avail: int) -> bool:
        if want == 0:
            return _packs(rest, avail)
        for i in range(start, len(masks)):
            m = masks[i]
            if m & ~avail == 0 and pick(i + 1, want - 1, avail & ~m):
                return True
        return False

    return pick(0, want, avail)
