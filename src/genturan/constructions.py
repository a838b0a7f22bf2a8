"""Generators for the extremal lower-bound constructions and their
closed-form copy counts.

Most constructions follow one template: a small clique joined to a large
well-structured graph, so that every forbidden configuration must pass
through the clique and disjoint copies run out of room.  The closed forms
here (balanced multipartite clique counts, the triangle-free matching count)
are computed by elementary arithmetic, independent of the generic counting
backtracker, so the two can cross-check each other.
"""

from __future__ import annotations

from math import comb, factorial

from . import graphs
from .graphs import Graph, MAX_VERTICES, VerificationError


def universal_join(k: int, g: Graph) -> Graph:
    """k-1 universal vertices joined onto g; with g F-free the result has no
    k disjoint copies of F, since each copy must use a universal vertex."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return g
    return graphs.join(graphs.complete(k - 1), g)


def x_exponent(k: int, t: int, s: int) -> int:
    """The packing exponent ceil((k*t - s)/(k - 1)) - 1."""
    if k < 2:
        raise ValueError("k must be >= 2 (k = 1 divides by zero)")
    if not s >= t >= 2:
        raise ValueError(f"need s >= t >= 2, got s={s}, t={t}")
    x = -((s - k * t) // (k - 1)) - 1
    if x < 0:
        raise ValueError(f"exponent is negative for k={k}, t={t}, s={s} "
                         "(s >= k*t: the count is identically zero)")
    return x


def thm32_lower(n: int, s: int, t: int, k: int) -> Graph:
    """K_{s-x} joined to the balanced x-partite graph on n-s+x vertices."""
    x = x_exponent(k, t, s)
    if x < 1:
        raise ValueError(f"construction needs exponent >= 1, got {x}")
    if s - x < 0:
        raise ValueError(f"s - x = {s - x} < 0")
    if n < s:
        raise ValueError(f"need n >= s, got n={n}, s={s}")
    core = graphs.complete(s - x)
    rest = graphs.turan(n - s + x, x)
    return graphs.join(core, rest)


def thm35_lower(n: int, t: int, k: int) -> Graph:
    """K_{k-1} joined to the balanced (t-1)-partite graph on n-k+1 vertices."""
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if n - k + 1 < t - 1:
        raise ValueError(f"too few vertices: n-k+1={n - k + 1} < t-1={t - 1}")
    return universal_join(k, graphs.turan(n - k + 1, t - 1))


def thm35_leading(n: int, s: int, t: int, k: int) -> int:
    """Copies of K_s in the thm35 construction that take exactly s-t+1
    vertices from the universal clique: C(k-1, s-t+1) per K_{t-1} of the
    multipartite part."""
    if not (s >= t >= s - k + 2):
        raise ValueError(f"need s >= t >= s-k+2, got s={s}, t={t}, k={k}")
    if t < 2 or n < k or n - k + 1 < t - 1:
        raise ValueError(f"invalid n={n}, t={t}, k={k}")
    return comb(k - 1, s - t + 1) * turan_clique_count(n - k + 1, t - 1, t - 1)


def thm62_lower(n: int, k: int) -> Graph:
    """K_{k-1} joined to the balanced complete bipartite graph."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < k + 1:
        raise ValueError(f"need n >= k+1 for a nonempty bipartite part, got n={n}")
    m = n - k + 1
    return universal_join(k, graphs.complete_bipartite(m // 2, (m + 1) // 2))


def prop54_lower(n: int, s: int) -> Graph:
    """K_{s-1, n-s+1}: one side too small to host either side of K_{s,t}."""
    if not (n > s >= 1):
        raise ValueError(f"need n > s >= 1, got n={n}, s={s}")
    if s == 1:
        return graphs.empty_graph(n)
    return graphs.complete_bipartite(s - 1, n - s + 1)


def f_star(f: Graph, u: int, k: int) -> Graph:
    """Gadget of (k-1)|V(F)|+1 copies of F identified at the vertex u.

    Concretely: that many disjoint copies of F-with-u-deleted, plus one
    center adjacent to the image of u's neighborhood in every copy."""
    if f.n < 2:
        raise ValueError("pattern needs at least two vertices")
    if not 0 <= u < f.n:
        raise ValueError(f"vertex {u} out of range")
    if k < 1:
        raise ValueError("k must be >= 1")
    m = (k - 1) * f.n + 1
    fu = graphs.delete_vertex(f, u)
    total = m * fu.n + 1
    if total > MAX_VERTICES:
        raise ValueError(f"{total} vertices exceed {MAX_VERTICES}")
    # neighborhood of u, reindexed after deleting u
    nbrs = [w if w < u else w - 1 for w in f.neighbors(u)]
    edges: list[tuple[int, int]] = []
    center = total - 1
    for c in range(m):
        off = c * fu.n
        edges.extend((off + a, off + b) for a, b in fu.edges())
        edges.extend((center, off + w) for w in nbrs)
    return graphs.from_edges(total, edges)


def default_center_vertex(f: Graph) -> int:
    """Deterministic default anchor for f_star: lowest-index maximum-degree vertex."""
    degs = f.degrees()
    top = max(degs)
    return degs.index(top)


def prop61_host(n: int) -> Graph:
    """The balanced complete bipartite graph: triangle-free and attaining the
    matching-count maximum prop61_value for every l."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return graphs.complete_bipartite(n // 2, (n + 1) // 2)


def prop61_value(n: int, l: int) -> int:
    """Maximum number of l-edge matchings in a triangle-free n-vertex graph:
    (1/l!) * prod_{i<l} floor((n-2i)^2/4), the division being exact."""
    if l < 1 or n < 2 * l:
        raise ValueError(f"need n >= 2l >= 2, got n={n}, l={l}")
    prod = 1
    for i in range(l):
        prod *= (n - 2 * i) ** 2 // 4
    q, r = divmod(prod, factorial(l))
    if r:
        raise VerificationError(f"matching-count product {prod} not divisible by {l}!")
    return q


def turan_clique_count(n: int, r: int, s: int) -> int:
    """Copies of K_s in the balanced complete r-partite graph on n vertices:
    the elementary symmetric polynomial e_s of the part sizes."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if s < 0:
        raise ValueError("negative clique size")
    if s > r:
        return 0
    sizes = graphs.turan_part_sizes(n, r)
    # e_s by the usual triangular recurrence
    e = [1] + [0] * s
    for size in sizes:
        for j in range(min(s, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * size
    return e[s]


def erdos_value(n: int, s: int, t: int) -> int:
    """Exact maximum of K_s copies over K_t-free n-vertex hosts (s < t),
    attained by the balanced (t-1)-partite graph."""
    if not 2 <= s < t <= n:
        raise ValueError(f"need 2 <= s < t <= n, got s={s}, t={t}, n={n}")
    return turan_clique_count(n, t - 1, s)
