"""Compact undirected graphs on at most 64 vertices.

A graph is stored as a tuple of per-vertex neighbor bitmasks, so adjacency
tests, neighborhood intersections and degree computations are single integer
operations.  On top of the representation this module provides the named
constructors (complete, cycle, complete bipartite, Turan, join, disjoint
union, k copies, vertex deletion) and the isomorphism machinery: a canonical
form computed by equitable partition refinement plus backtracking with
automorphism pruning, and the isomorphism-free enumerator.  The canonical
search also returns a complete generating set of the automorphism group;
every vertex-orbit answer (the enumerator's deletion orbit, the counting
module's anchor orbits) and the group order come from those generators.  The
enumerator carries each graph with its generators and extends it by one
neighbour subset per orbit of its automorphism group; a caller's node hook can
carry its own per-graph token down the walk beside them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def __reduce__(self):
        # Pickle through the checking constructor: the default slot-state
        # path would go through the blocked __setattr__.
        return (Graph, (self.n, self.adj))

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
    full = (1 << n) - 1
    adj = []
    start = 0
    for s in sizes:
        adj.extend([full ^ (((1 << s) - 1) << start)] * s)
        start += s
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


def add_vertex(g: Graph, neighbors: int) -> Graph:
    """g plus a new vertex g.n joined to the vertex set `neighbors` (a bitmask)."""
    m = g.n
    if m >= MAX_VERTICES:
        raise ValueError(f"a graph on {m} vertices has no room for another")
    if not 0 <= neighbors < 1 << m:
        raise ValueError(f"neighbor mask has bits outside 0..{m - 1}")
    adj = [row | (neighbors >> v & 1) << m for v, row in enumerate(g.adj)]
    adj.append(neighbors)
    return Graph._make(m + 1, tuple(adj))


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
            if len(cell) > 1:
                # Most cells do not split: check that before bucketing.
                k0 = (adj[cell[0]] & w).bit_count()
                for v in cell:
                    if (adj[v] & w).bit_count() != k0:
                        break
                else:
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
                changed = True
                for k in sorted(buckets):
                    frag = buckets[k]
                    new_cells.append(frag)
                    mask = 0
                    for v in frag:
                        mask |= 1 << v
                    work.append(mask)
            else:
                new_cells.append(cell)
        if changed:
            cells = new_cells
    return cells


class _CanonResult(NamedTuple):
    cert: tuple[int, ...]
    order: list[int]
    gens: list[tuple[int, ...]]
    first_path: list[int]


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
    skipped.

    Every leaf is compared with the first leaf as well as with the best one
    (McKay, "Practical graph isomorphism", 1981), so the returned `gens`
    generate the whole automorphism group of the starting partition.  More:
    along `first_path`, the vertices v1..vd individualized to reach the first
    leaf, the generators fixing v1..vi generate the pointwise stabilizer of
    v1..vi, for every i.
    """
    if n == 0:
        return _CanonResult((), [], [], [])
    if cells is None:
        cells = _refine(adj, [list(range(n))])

    first_cert: tuple[int, ...] | None = None
    first_order: list[int] = []
    first_path: list[int] = []
    best_cert: tuple[int, ...] | None = None
    best_order: list[int] = []
    gens: list[tuple[int, ...]] = []

    def search(cells: list[list[int]], fixed: list[int]) -> None:
        nonlocal first_cert, first_order, first_path, best_cert, best_order
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
            if first_cert is None:
                first_cert = best_cert = cert
                first_order = best_order = order
                first_path = list(fixed)
            elif cert == first_cert or cert == best_cert:
                # Equal certificates: the leaf-to-leaf map is an automorphism.
                ref = first_order if cert == first_cert else best_order
                sigma = [0] * n
                for v, w in zip(ref, order):
                    sigma[v] = w
                gens.append(tuple(sigma))
            elif cert < best_cert:  # type: ignore[operator]
                best_cert = cert
                best_order = order
            return
        target = cells[target_idx]
        processed: list[int] = []
        usable: list[tuple[int, ...]] = []
        scanned = 0
        for v in target:
            if processed:
                # Filter each generator once per node, as it is discovered.
                for gen in gens[scanned:]:
                    if all(gen[f] == f for f in fixed):
                        usable.append(gen)
                scanned = len(gens)
                if usable and not _orbit(v, usable).isdisjoint(processed):
                    continue
            processed.append(v)
            rest = [u for u in target if u != v]
            child = cells[:target_idx] + [[v], rest] + cells[target_idx + 1:]
            child = _refine(adj, child, splitters=[1 << v])
            fixed.append(v)
            search(child, fixed)
            fixed.pop()

    search(cells, [])
    if best_cert is None:
        raise VerificationError("canonical search reached no leaf")
    return _CanonResult(best_cert, best_order, gens, first_path)


def _orbit(v: int, gens: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of v under the group generated by `gens`."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for gen in gens:
            w = gen[u]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


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
    """Order of the automorphism group, by the orbit-stabilizer theorem along
    the canonical search's first path v1..vd: the product over i of the size
    of the orbit of v(i+1) under the generators fixing v1..vi."""
    res = _canon_search(g.adj, g.n)
    count = 1
    stab = res.gens
    for v in res.first_path:
        count *= len(_orbit(v, stab))
        stab = [gen for gen in stab if gen[v] == v]
    return count


@lru_cache(maxsize=1024)
def _orbit_sizes(h: Graph) -> tuple[int, ...]:
    """The size of the Aut(h) orbit of every vertex of h."""
    gens = _canon_search(h.adj, h.n).gens
    return tuple(len(_orbit(v, gens)) for v in range(h.n))


@lru_cache(maxsize=1024)
def _orbit_representatives(h: Graph) -> tuple[int, ...]:
    """The least vertex of each orbit of Aut(h), ascending: the plans that
    pin one of them to an anchor vertex find every copy through that anchor."""
    gens = _canon_search(h.adj, h.n).gens
    return tuple(v for v in range(h.n) if v == min(_orbit(v, gens)))


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration support
# ---------------------------------------------------------------------------

def _accept_child(adj: tuple[int, ...], n: int) -> _CanonResult | None:
    """Canonical-deletion acceptance test for the enumerator.

    The new vertex is n-1 by construction.  Accept when n-1 lies in the
    designated deletion orbit: the orbit of the vertex occupying the last
    canonical position, read from the search's complete generators.  Returns
    the child's canonical search when accepted, else None: its certificate
    checks that siblings are distinct and is the child's `canonical_cert`
    (the same refinement of the unit partition, then the same search), which
    the walk hands out with the child; its generators are the child's
    automorphism group, which the walk hands on to the child's own children.
    The equitable partition refined here is the one the canonical search
    starts from; its last cell holds that orbit.
    """
    cells = _refine(adj, [list(range(n))])
    new = n - 1
    if new not in cells[-1]:
        return None
    res = _canon_search(adj, n, cells)
    w = res.order[-1]
    if w == new or new in _orbit(w, res.gens):
        return res
    return None


def enumerate_graphs(n: int, forbidden: Sequence[Graph] = (),
                     _node_hook=None) -> Iterator:
    """Yield one representative per isomorphism class of n-vertex graphs
    with no subgraph copy of any member of `forbidden`.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    1998): each graph is grown by one vertex at a time, one neighbour subset
    per orbit of the parent's automorphism group, and a child is kept only
    when the new vertex sits in the canonical deletion orbit, so every class
    appears exactly once with no global dedupe table.

    Freeness is hereditary, so only family-free graphs are extended, and a
    child can contain a member only through its new vertex: each parent
    finds once the neighbour sets that would create a member, and candidate
    subsets holding one are dropped before any child is built (see
    `packing.FreenessPrune`).

    The walk starts from the 0-vertex graph, which is checked for freeness
    (a 0-vertex member leaves nothing to walk) and has no automorphism
    generators; below it, every graph carries the generators its acceptance
    test found.

    `_node_hook` is called with every graph below level n, in walk order,
    before its children are looked for, with the token its parent's call
    returned (None for the 0-vertex graph) and with a function of no
    arguments that returns the graph's blocked sets.  Those are found on the
    first call and shared with `_children`, so each graph's are found at
    most once, and never for a graph the hook skips without asking.  The
    hook returns a pair (keep, token).  `keep` is None to keep every child,
    False to skip the graph (no subset tried), or a predicate on the new
    vertex's neighbour mask that a child must pass (see `_children`).  The
    predicate must hold for all of an Aut(parent) orbit of masks or for none
    of it, and may only grow stricter while the parent's children are
    walked.  An exception the hook raises ends the walk.  With no hook,
    every child is kept (`_keep_all`) and the walk yields the graphs alone.
    With a hook it yields triples (graph, token, cert): the token the
    graph's parent's call returned and the graph's canonical certificate,
    which its acceptance test computed.  When n = 0 the one host is the
    0-vertex graph, with token None and certificate (), its
    `canonical_cert`.  Extremal searches use the hook to carry values down
    the walk, for their incumbent bounds, for their deadline and for their
    shards.

    Arguments are checked when this is called, before the first `next`.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    # packing and counting build on this module
    from .packing import FreenessPrune
    leaves = _walk(n, FreenessPrune(forbidden, n), _node_hook or _keep_all)
    if _node_hook is None:
        return (g for g, _, _ in leaves)
    return leaves


def _walk(n: int, prune, hook) -> Iterator[tuple]:
    # A member with no vertex is in every graph, the 0-vertex one included.
    if any(f.n == 0 for f in prune.members):
        return
    g = empty_graph(0)
    if n == 0:
        yield g, None, ()
    else:
        yield from _descend(g, [], n, prune, hook, None)


def _keep_all(g: Graph, token, blocked) -> tuple[None, None]:
    """The node hook that keeps every child and carries no token."""
    return None, None


def _descend(g: Graph, gens: list[tuple[int, ...]], n: int, prune, hook,
             token) -> Iterator[tuple]:
    found: list[list[int]] = []

    def blocked() -> list[int]:
        if not found:
            found.append(prune.blocked(g))
        return found[0]

    keep, token = hook(g, token, blocked)
    if keep is False:
        return
    for child, child_gens, cert in _children(g, gens, blocked(), keep):
        if child.n == n:
            yield child, token, cert
        else:
            yield from _descend(child, child_gens, n, prune, hook, token)


def _children(g: Graph, gens: list[tuple[int, ...]], blocked: list[int],
              keep=None) -> Iterator[tuple[Graph, list, tuple[int, ...]]]:
    """Accepted family-free one-vertex extensions of g, one per child
    isomorphism class, each with generators of its automorphism group and
    its canonical certificate.

    `gens` generate Aut(g).  The neighbour subsets of the new vertex are
    tried one per orbit of Aut(g), the least member of each: the filters and
    the canonical-deletion test are all invariant under Aut(g), and accepted
    children from different orbits are non-isomorphic (McKay 1998), so this
    keeps exactly the children the every-subset loop would keep first.

    Candidates run through the cheap filters first, in this order:
    - the degree filter;
    - the predicate `keep`, when given (a node hook's bound; see
      `enumerate_graphs`);
    - the blocked-set test: a subset holding one of g's `blocked` sets
      (`packing.FreenessPrune.blocked`, found once per parent for all of its
      children) makes a child with a forbidden copy;
    - the orbit test.
    Only then is the child built and given the canonical-deletion test.  The
    predicate and the blocked-set test are invariant under Aut(g) too, so a
    subset they reject takes its whole orbit with it."""
    m = g.n
    adj = g.adj
    n = m + 1
    # The deletion orbit lives in the maximum-degree class, so the new vertex
    # must reach the child's maximum degree: the parent's maximum `top`, plus
    # one when the new vertex joins a vertex of degree `top`.
    degs = [row.bit_count() for row in adj]
    top = max(degs, default=0)
    top_mask = sum(1 << v for v, d in enumerate(degs) if d == top)
    # Each generator as the image bit of every vertex; `done` holds every
    # subset in the orbit of a subset already tried.
    images = [[1 << w for w in gen] for gen in gens]
    done: set[int] = set()
    seen_certs: set[tuple[int, ...]] = set()
    for s in range(1 << m):
        if s.bit_count() < top + (s & top_mask != 0):
            continue
        if keep is not None and not keep(s):
            continue
        if blocked and any(s & b == b for b in blocked):
            continue
        if images:
            if s in done:
                continue
            stack = [s]
            while stack:
                t = stack.pop()
                for image in images:
                    u = 0
                    r = t
                    while r:
                        low = r & -r
                        u |= image[low.bit_length() - 1]
                        r ^= low
                    if u not in done:
                        done.add(u)
                        stack.append(u)
        child = add_vertex(g, s)
        res = _accept_child(child.adj, n)
        if res is None:
            continue
        if res.cert in seen_certs:
            raise VerificationError("orbit-distinct siblings are isomorphic")
        seen_certs.add(res.cert)
        yield child, res.gens, res.cert
