"""Deterministic builders for the extremal graphs.

Every builder is a closed rule: it places vertices and edges by formula and
runs no saturation check, so this module reads only `graphs` and
`formulas`.  That each output is saturated (or free) is certified where the
claims are checked, by the `verify` campaigns and by the tests.

All trees are labelled layer-major: layer-1 vertices first (0, then 1 when
the middle has two vertices), then each deeper layer in parent order, so a
construction reproduces the identical graph6 string on every run.
"""

from __future__ import annotations

from itertools import combinations

from .formulas import order_constant
from .graphs import Graph, build_graph, complete_graph, disjoint_union, empty_graph, join


def _grow_layers(first_layer: int, plan) -> Graph:
    """A layered tree, numbered layer-major.

    plan(layer, position) -> child count of the vertex at that 0-based
    position of that 1-based layer; growth stops when a layer comes out
    empty.
    """
    edges: list[tuple[int, int]] = [(0, 1)] if first_layer == 2 else []
    layer = range(first_layer)
    i = 1
    while layer:
        nxt = layer.stop
        for p, v in enumerate(layer):
            kids = plan(i, p)
            edges.extend((v, c) for c in range(nxt, nxt + kids))
            nxt += kids
        layer = range(layer.stop, nxt)
        i += 1
    return build_graph(layer.stop, edges)


def make_tk(k: int) -> Graph:
    """Fully branching layered tree: every vertex outside the deepest layer
    has degree 3; order A(k), diameter k-2."""
    if k < 6:
        raise ValueError("make_tk needs k >= 6")
    t = k // 2
    first = k + 1 - 2 * t

    def plan(i: int, p: int) -> int:
        if i >= t:
            return 0
        if i == 1:
            return 3 - (first - 1)
        return 2

    g = _grow_layers(first, plan)
    assert g.n == order_constant("A", k)
    return g


def make_t0k(k: int) -> Graph:
    """Short variant: degree 3 until the penultimate layer drops to degree 2;
    order A0(k), diameter k-3."""
    if k < 6:
        raise ValueError("make_t0k needs k >= 6")
    m = (k - 1) // 2  # number of layers, ceil((k-2)/2)
    first = 2 if k % 2 == 0 else 1

    def plan(i: int, p: int) -> int:
        up = first - 1 if i == 1 else 1
        if i <= m - 2:
            return 3 - up
        if i == m - 1:
            return 2 - up
        return 0

    g = _grow_layers(first, plan)
    assert g.n == order_constant("A0", k)
    return g


def make_t1k(k: int) -> Graph:
    """Sparse variant: two layers of the branching tree thin out to degree 2
    and degree 1, except along a few deep branches; order A1(k), diameter k-2.

    The deep branches hang under distinct children of the middle so their
    paths to the middle are internally disjoint; for odd k the first middle
    vertex carries two of the three branches and the second carries one.
    Every vertex of layers 2..t-3 has two children, so each layer-2 vertex
    heads a run of 2^(t-4) vertices in layer t-2.  A branch is marked at the
    first vertex of each of the first theta runs, at positions j*2^(t-4).
    Layer t-1 gives each marked vertex two children and every other vertex
    one, so the first child of the j-th marked vertex, the one that goes
    deeper, sits at j*(2^(t-4) + 1).
    """
    if k < 8:
        raise ValueError("make_t1k needs k >= 8")
    t = k // 2
    first = k + 1 - 2 * t
    theta = 3 if k % 2 else 2
    block = 1 << (t - 4)

    def plan(i: int, p: int) -> int:
        if i < t - 2:
            return 3 - (first - 1) if i == 1 else 2
        if i == t - 2:
            return 2 if p % block == 0 and p < theta * block else 1
        if i == t - 1:
            return 1 if p % (block + 1) == 0 and p < theta * (block + 1) else 0
        return 0

    g = _grow_layers(first, plan)
    assert g.n == order_constant("A1", k)
    return g


def t1k_attachment_vertex(k: int) -> int:
    """Deep-branch tip used when hanging this tree off a clique.

    A deepest-layer leaf keeps the whole diameter path available from the
    clique corner, which is what the saturation checker demands (hanging at
    the middle vertex fails it: paths from the corner are then too short to
    reach the far side of another copy).  Even k gets the first deep leaf,
    odd k the deep leaf under the second middle vertex.
    """
    if k < 8:
        raise ValueError("needs k >= 8")
    a1 = order_constant("A1", k)
    return a1 - 2 if k % 2 == 0 else a1 - 1


def make_small_tree(tree_id: str) -> Graph:
    """The three small minimum saturated trees (orders 5, 6, 6)."""
    key = tree_id.upper()
    if key == "T1":
        # degree-3 centre with two leaves and one length-2 leg
        return build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    if key == "T2":
        # double star, two adjacent degree-3 centres
        return build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    if key == "T3":
        # five-vertex path with a pendant on its middle vertex
        return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    raise ValueError(f"unknown small tree {tree_id!r} (want T1, T2 or T3)")


def make_star(n: int) -> Graph:
    if n < 1:
        raise ValueError("make_star needs n >= 1")
    return build_graph(n, [(0, v) for v in range(1, n)])


def make_erdos_kp(n: int, p: int) -> Graph:
    """Join of a (p-2)-clique with an independent set: the unique minimum
    clique-saturated graph."""
    if p < 3:
        raise ValueError("make_erdos_kp needs p >= 3")
    if n < p:
        raise ValueError("make_erdos_kp needs n >= p")
    return join(complete_graph(p - 2), empty_graph(n - p + 2))


def saturated_tree_of_order(n: int, k: int) -> Graph:
    """A non-star {triangle, path}-saturated tree of order exactly n: T1_k
    with n - A1(k) leaves hung on vertex 0, numbered A1(k)..n-1.

    Why this is saturated, with T = T1_k (itself saturated) and l a new leaf:
    - It holds no Pk: ecc(0) <= k-3 in T, so a path ending at l has at most
      k-1 vertices, and a path through two new leaves has three.
    - A non-edge of T closes a triangle or a Pk already in T.
    - l closes a triangle through 0 with another new leaf or with a
      neighbour of 0.
    - For any other x, a path through the chord 0x of T, with l put between
      0 and x, is a path through lx with one vertex more.  At distance 3 or
      more the chord lies on a Pk, since T is saturated.  At distance 2 (x
      under w) it lies on a path of k-1 vertices: the branch under a sibling
      of x, then w and x, then 0 and its deepest branch that avoids w.  From
      k = 9 on every such w has the sibling.
    """
    if k < 9:
        raise ValueError("saturated_tree_of_order needs k >= 9")
    a1 = order_constant("A1", k)
    if n < a1:
        raise ValueError(f"no non-star saturated tree below order {a1} for k={k}")
    rows = list(make_t1k(k).rows)
    rows[0] |= (1 << n) - (1 << a1)
    rows.extend([1] * (n - a1))
    return Graph(n, tuple(rows))


def make_g0(n: int, k: int) -> Graph:
    """Disconnected minimum {triangle, path}-saturated witness: one saturated
    tree soaking up the remainder plus copies of the sparse layered tree."""
    if k < 10:
        raise ValueError("make_g0 needs k >= 10")
    a1 = order_constant("A1", k)
    if n < a1:
        raise ValueError(f"make_g0 needs n >= {a1} for k={k}")
    copies = [make_t1k(k)] * (n // a1 - 1)
    return disjoint_union(saturated_tree_of_order(a1 + n % a1, k), *copies)


def make_h0(n: int, k: int) -> Graph:
    """Disconnected clique-union-path saturated witness.

    One component carries a 4-clique whose corners are the attachment
    vertices (t1k_attachment_vertex) of four private sparse-tree copies;
    one component is a saturated tree absorbing the remainder; the rest are
    plain copies.
    """
    if k < 10:
        raise ValueError("make_h0 needs k >= 10")
    a1 = order_constant("A1", k)
    if n < 6 * a1:
        raise ValueError(f"make_h0 needs n >= {6 * a1} for k={k}")
    copy = make_t1k(k)
    h = disjoint_union(
        *[copy] * 4, saturated_tree_of_order(a1 + n % a1, k), *[copy] * (n // a1 - 5)
    )
    att = t1k_attachment_vertex(k)
    for u, v in combinations(range(att, 4 * a1, a1), 2):
        h = h.add_edge(u, v)
    return h
