"""Compact undirected graphs on at most 64 vertices.

A graph is stored as a tuple of per-vertex neighbor bitmasks, so adjacency
tests, neighborhood intersections and degree computations are single integer
operations.  On top of the representation this module provides the named
constructors (complete, cycle, complete bipartite, Turan, join, disjoint
union, k copies, vertex deletion) and the isomorphism machinery: a canonical
form computed by equitable partition refinement plus backtracking with
automorphism pruning, the vertex-orbit queries needed by the isomorphism-free
enumerator, and automorphism counting, which runs the counting module's
embedder on a graph and itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class VerificationError(RuntimeError):
    """A computed result failed the package's own consistency check.

    Raised, never asserted, so the check also runs under `python -O`; it
    signals a defect in the package, not bad input."""


class Graph:
    """Immutable undirected graph: vertex count plus neighbor bitmasks."""

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: Sequence[int] = ()):
        adj = tuple(adj)
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbor bits >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}->{u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _make(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # Internal fast path: caller guarantees the invariants.
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                yield (v, u)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by the given vertices, indices compacted in order."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for i, v in enumerate(vs):
            row = self.adj[v]
            for u in vs[i + 1:]:
                if row >> u & 1:
                    adj[i] |= 1 << pos[u]
                    adj[pos[u]] |= 1 << i
        return Graph._make(len(vs), tuple(adj))

    def induced_mask(self, mask: int) -> "Graph":
        return self.induced(_bits(mask))


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def component_masks(g: Graph) -> list[int]:
    """Vertex sets (bitmasks) of the connected components, by lowest vertex."""
    out = []
    left = (1 << g.n) - 1
    while left:
        seen = frontier = left & -left
        while frontier:
            grow = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grow |= g.adj[v]
            frontier = grow & ~seen
            seen |= frontier
        out.append(seen)
        left &= ~seen
    return out


def is_connected(g: Graph) -> bool:
    """Whether g has a single connected component (vacuously true below 2)."""
    return len(component_masks(g)) <= 1


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._make(n, tuple(adj))


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    if n < 0 or n > MAX_VERTICES:
        raise ValueError(f"bad vertex count {n}")
    return Graph._make(n, (0,) * n)


def complete(r: int) -> Graph:
    if r < 0 or r > MAX_VERTICES:
        raise ValueError(f"bad clique size {r}")
    full = (1 << r) - 1
    return Graph._make(r, tuple(full ^ (1 << v) for v in range(r)))


def cycle(l: int) -> Graph:
    if l < 3:
        raise ValueError(f"cycle length {l} < 3")
    if l > MAX_VERTICES:
        raise ValueError(f"cycle length {l} > {MAX_VERTICES}")
    return from_edges(l, [(v, (v + 1) % l) for v in range(l)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite needs both sides >= 1, got {a},{b}")
    if a + b > MAX_VERTICES:
        raise ValueError(f"{a}+{b} vertices exceed {MAX_VERTICES}")
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    adj = [right] * a + [left] * b
    return Graph._make(a + b, tuple(adj))


def turan_part_sizes(n: int, r: int) -> list[int]:
    """Part sizes of the Turan graph T_r(n), largest-first, deterministic."""
    if not 1 <= r <= n:
        raise ValueError(f"Turan graph needs 1 <= r <= n, got r={r}, n={n}")
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with balanced part sizes."""
    sizes = turan_part_sizes(n, r)
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed {MAX_VERTICES}")
    part_masks = []
    start = 0
    for s in sizes:
        part_masks.append(((1 << s) - 1) << start)
        start += s
    full = (1 << n) - 1
    adj = []
    start = 0
    for mask in part_masks:
        size = mask.bit_count()
        adj.extend([full ^ mask] * size)
        start += size
    return Graph._make(n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """All of g, all of h, plus every edge between them."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join would have {n} > {MAX_VERTICES} vertices")
    hi = ((1 << h.n) - 1) << g.n
    lo = (1 << g.n) - 1
    adj = [row | hi for row in g.adj]
    adj += [(row << g.n) | lo for row in h.adj]
    return Graph._make(n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._make(n, tuple(adj))


def copies(k: int, g: Graph) -> Graph:
    """Vertex-disjoint union of k copies of g."""
    if k < 1:
        raise ValueError(f"copy count {k} < 1")
    out = g
    for _ in range(k - 1):
        out = disjoint_union(out, g)
    return out


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex v; indices above v shift down by one."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    low = (1 << v) - 1
    adj = []
    for u in range(g.n):
        if u == v:
            continue
        row = g.adj[u]
        adj.append((row & low) | ((row >> (v + 1)) << v))
    return Graph._make(g.n - 1, tuple(adj))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the permutation perm (vertex v goes to perm[v])."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation")
    adj = [0] * g.n
    for v in range(g.n):
        row = g.adj[v]
        new = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            new |= 1 << perm[u]
        adj[perm[v]] = new
    return Graph._make(g.n, tuple(adj))


# ---------------------------------------------------------------------------
# Equitable refinement and canonical labeling
# ---------------------------------------------------------------------------

def _refine(adj: Sequence[int], cells: list[list[int]],
            splitters: list[int] | None = None) -> list[list[int]]:
    """Refine an ordered partition to the coarsest stable one.

    Cells split by neighbor counts against splitter masks; fragments are
    ordered by ascending count, which keeps the cell order a label-independent
    invariant.  Every fragment produced is pushed back as a splitter, so the
    result is equitable with respect to every final cell.
    """
    if splitters is None:
        work = [sum(1 << v for v in c) for c in cells]
    else:
        work = list(splitters)
    while work:
        w = work.pop()
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                k = (adj[v] & w).bit_count()
                b = buckets.get(k)
                if b is None:
                    buckets[k] = [v]
                else:
                    b.append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for k in sorted(buckets):
                    frag = buckets[k]
                    new_cells.append(frag)
                    work.append(sum(1 << v for v in frag))
        if changed:
            cells = new_cells
    return cells


class _CanonResult:
    __slots__ = ("cert", "order", "gens")

    def __init__(self, cert: tuple[int, ...], order: list[int], gens: list[tuple[int, ...]]):
        self.cert = cert
        self.order = order
        self.gens = gens


def _leaf_cert(adj: Sequence[int], order: list[int]) -> tuple[int, ...]:
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    cert = []
    for v in order:
        row = adj[v]
        new = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            new |= 1 << pos[u]
        cert.append(new)
    return tuple(cert)


def _canon_search(adj: Sequence[int], n: int,
                  cells: list[list[int]] | None = None) -> _CanonResult:
    """Minimum-certificate canonical labeling with automorphism pruning.

    `cells` is the equitable ordered partition to start from, as `_refine`
    returns it; by default the unit partition is refined.  Branches on the
    first smallest non-singleton cell; siblings equivalent under an
    already-discovered automorphism fixing the individualized prefix are
    skipped.  Discovered automorphisms are returned (they are genuine
    automorphisms, though not guaranteed to generate the full group).
    """
    if n == 0:
        return _CanonResult((), [], [])
    if cells is None:
        cells = _refine(adj, [list(range(n))])

    best_cert: tuple[int, ...] | None = None
    best_order: list[int] | None = None
    gens: list[tuple[int, ...]] = []

    def search(cells: list[list[int]], fixed: list[int]) -> None:
        nonlocal best_cert, best_order
        target_idx = -1
        target_len = n + 1
        for i, c in enumerate(cells):
            lc = len(c)
            if 1 < lc < target_len:
                target_len = lc
                target_idx = i
                if lc == 2:
                    break
        if target_idx < 0:
            order = [c[0] for c in cells]
            cert = _leaf_cert(adj, order)
            if best_cert is None or cert < best_cert:
                best_cert = cert
                best_order = order
            elif cert == best_cert:
                sigma = [0] * n
                trivial = True
                for i, v in enumerate(best_order):  # type: ignore[arg-type]
                    sigma[v] = order[i]
                    trivial = trivial and v == order[i]
                if not trivial:
                    gens.append(tuple(sigma))
            return
        target = cells[target_idx]
        processed: list[int] = []
        for v in target:
            if processed and _orbit_hits(v, processed, gens, fixed):
                continue
            processed.append(v)
            rest = [u for u in target if u != v]
            child = cells[:target_idx] + [[v], rest] + cells[target_idx + 1:]
            child = _refine(adj, child, splitters=[1 << v])
            fixed.append(v)
            search(child, fixed)
            fixed.pop()

    search(cells, [])
    if best_cert is None or best_order is None:
        raise VerificationError("canonical search reached no leaf")
    return _CanonResult(best_cert, best_order, gens)


def _orbit_hits(v: int, processed: list[int], gens: list[tuple[int, ...]],
                fixed: list[int]) -> bool:
    """True if some discovered automorphism fixing `fixed` maps v into `processed`."""
    usable = [g for g in gens if all(g[f] == f for f in fixed)]
    if not usable:
        return False
    hit = set(processed)
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for g in usable:
            w = g[u]
            if w in hit:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def canonical_cert(g: Graph) -> tuple[int, ...]:
    """Canonical certificate: row masks of the canonically relabeled graph."""
    return _canon_search(g.adj, g.n).cert


def canonical_form(g: Graph) -> bytes:
    """Byte string identifying the isomorphism class of g."""
    cert = canonical_cert(g)
    out = bytearray([g.n])
    for row in cert:
        out += row.to_bytes(8, "little")
    return bytes(out)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    cert = canonical_cert(g)
    return Graph._make(g.n, cert)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_cert(g) == canonical_cert(h)


@lru_cache(maxsize=4096)
def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group: the number of injective
    edge-preserving maps of g into itself.  Each such map is an automorphism,
    since it maps the finite edge set injectively into itself, hence onto it.

    Intended for small pattern graphs (say up to 12 vertices).
    """
    from .counting import count_injections  # counting builds on this module
    return count_injections(g, g)


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration support
# ---------------------------------------------------------------------------

def _rooted_cert(adj: Sequence[int], n: int, root: int) -> tuple[int, ...]:
    """Certificate with `root` forced into a final singleton cell.

    Two vertices lie in the same automorphism orbit exactly when their rooted
    certificates coincide.
    """
    rest = [u for u in range(n) if u != root]
    cells: list[list[int]] = ([rest, [root]] if rest else [[root]])
    return _canon_search(adj, n, _refine(adj, cells)).cert


def _accept_child(adj: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """Canonical-deletion acceptance test for the enumerator.

    The new vertex is n-1 by construction.  Accept when n-1 lies in the
    designated deletion orbit: the orbit of the vertex occupying the last
    canonical position.  Returns the canonical certificate when accepted
    (the caller dedupes siblings with it), else None.  The equitable
    partition refined here is the one the canonical search starts from.
    """
    cells = _refine(adj, [list(range(n))])
    last = cells[-1]
    new = n - 1
    if new not in last:
        return None
    res = _canon_search(adj, n, cells)
    if len(last) == 1:
        return res.cert
    w = res.order[-1]
    if w == new:
        return res.cert
    # Fast path: a discovered automorphism already connects w and the new vertex.
    if res.gens:
        seen = {w}
        stack = [w]
        while stack:
            u = stack.pop()
            for gperm in res.gens:
                x = gperm[u]
                if x == new:
                    return res.cert
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
    if _rooted_cert(adj, n, new) == _rooted_cert(adj, n, w):
        return res.cert
    return None


def enumerate_graphs(n: int, forbidden: Sequence[Graph] = (),
                     _roots: Sequence[Graph] | None = None,
                     _root_level: int = 1) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of n-vertex graphs
    with no subgraph copy of any member of `forbidden`.

    Canonical augmentation: each graph is grown by one vertex at a time and a
    child is kept only when the new vertex sits in the canonical deletion
    orbit, so every class appears exactly once with no global dedupe table.

    Freeness is hereditary, so only family-free graphs are extended, and a
    child is tested before its canonical test, incrementally: it can contain
    a member only through its new vertex (see `packing.FreenessPrune`).

    `_roots`/`_root_level` restart enumeration from mid-tree graphs; shards
    of an extremal search use this to split the tree deterministically.
    """
    if n < 0:
        raise ValueError("negative vertex count")
    from .packing import FreenessPrune  # packing builds on this module
    prune = FreenessPrune(forbidden, n)
    if n == 0:
        g = empty_graph(0)
        if prune.root_masks(g) is not None:
            yield g
        return
    if _roots is None:
        start = [empty_graph(1)]
        level = 1
    else:
        start = list(_roots)
        level = _root_level
    for g in start:
        masks = prune.root_masks(g)
        if masks is None:
            continue
        if level == n:
            yield g
        else:
            yield from _descend(g, level, n, prune, masks)


def _descend(g: Graph, level: int, n: int, prune,
             masks: tuple[list[int], ...]) -> Iterator[Graph]:
    for child in _children(g, prune, masks):
        if level + 1 == n:
            yield child
        else:
            yield from _descend(child, level + 1, n, prune,
                                prune.extend(child, masks))


def _children(g: Graph, prune, masks: tuple[list[int], ...]) -> Iterator[Graph]:
    """Accepted family-free one-vertex extensions of g, one per child
    isomorphism class.

    Candidates run through the cheap filters first: the degree filter, then
    the incremental freeness test of `prune` given the parent's copy `masks`,
    and only then the canonical-deletion test."""
    m = g.n
    adj = g.adj
    degs = [row.bit_count() for row in adj]
    n = m + 1
    free = prune.free if prune.members else None
    seen_certs: set[tuple[int, ...]] = set()
    for s in range(1 << m):
        size = s.bit_count()
        # The deletion orbit lives in the maximum-degree class, so the new
        # vertex must reach the child's maximum degree.
        rest_max = 0
        for v in range(m):
            d = degs[v] + (s >> v & 1)
            if d > rest_max:
                rest_max = d
        if size < rest_max:
            continue
        child_adj = []
        for v in range(m):
            child_adj.append(adj[v] | ((s >> v & 1) << m))
        child_adj.append(s)
        child = Graph._make(n, tuple(child_adj))
        if free is not None and not free(child, masks):
            continue
        cert = _accept_child(child.adj, n)
        if cert is None or cert in seen_certs:
            continue
        seen_certs.add(cert)
        yield child
