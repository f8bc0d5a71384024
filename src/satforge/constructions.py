"""Deterministic builders for the extremal graphs.

All trees are labelled layer-major: layer-1 vertices first (0, then 1 when
the middle has two vertices), then each deeper layer in parent order, so a
construction reproduces the identical graph6 string on every run.
"""

from __future__ import annotations

from .formulas import order_constant
from .graphs import Graph, build_graph, complete_graph, disjoint_union, empty_graph, join
from .saturation import check_saturated, parse_family


def _grow_layers(first_layer: int, child_plan) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Edges and layer lists for a layered tree.

    child_plan(layer_index, vertex) -> child count; layer_index is 1-based;
    growth stops when a layer comes out empty.
    """
    layers: list[list[int]] = [list(range(first_layer))]
    edges: list[tuple[int, int]] = []
    if first_layer == 2:
        edges.append((0, 1))
    nxt = first_layer
    i = 1
    while True:
        new_layer: list[int] = []
        for v in layers[-1]:
            kids = child_plan(i, v)
            for _ in range(kids):
                edges.append((v, nxt))
                new_layer.append(nxt)
                nxt += 1
        if not new_layer:
            return edges, layers
        layers.append(new_layer)
        i += 1


def make_tk(k: int) -> Graph:
    """Fully branching layered tree: every vertex outside the deepest layer
    has degree 3; order A(k), diameter k-2."""
    if k < 6:
        raise ValueError("make_tk needs k >= 6")
    t = k // 2
    first = k + 1 - 2 * t

    def plan(i: int, v: int) -> int:
        if i >= t:
            return 0
        if i == 1:
            return 3 - (first - 1)
        return 2

    edges, layers = _grow_layers(first, plan)
    order = sum(len(layer) for layer in layers)
    assert order == order_constant("A", k)
    return build_graph(order, edges)


def make_t0k(k: int) -> Graph:
    """Short variant: degree 3 until the penultimate layer drops to degree 2;
    order A0(k), diameter k-3."""
    if k < 6:
        raise ValueError("make_t0k needs k >= 6")
    m = (k - 1) // 2  # number of layers, ceil((k-2)/2)
    first = 2 if k % 2 == 0 else 1

    def plan(i: int, v: int) -> int:
        up = first - 1 if i == 1 else 1
        if i <= m - 2:
            return 3 - up
        if i == m - 1:
            return 2 - up
        return 0

    edges, layers = _grow_layers(first, plan)
    order = sum(len(layer) for layer in layers)
    assert order == order_constant("A0", k)
    return build_graph(order, edges)


def make_t1k(k: int) -> Graph:
    """Sparse variant: two layers of the branching tree thin out to degree 2
    and degree 1, except along a few deep branches; order A1(k), diameter k-2.

    The deep branches hang under distinct children of the middle so their
    paths to the middle are internally disjoint; for odd k the first middle
    vertex carries two of the three branches and the second carries one.
    """
    if k < 8:
        raise ValueError("make_t1k needs k >= 8")
    t = k // 2
    first = k + 1 - 2 * t
    theta = 3 if k % 2 else 2

    layers: list[list[int]] = [list(range(first))]
    edges: list[tuple[int, int]] = []
    parent: dict[int, int] = {}
    first_child: dict[int, int] = {}
    if first == 2:
        edges.append((0, 1))
    nxt = first

    def add_child(v: int) -> int:
        nonlocal nxt
        edges.append((v, nxt))
        parent[nxt] = v
        if v not in first_child:
            first_child[v] = nxt
        child = nxt
        nxt += 1
        return child

    # layers 2 .. t-2: full branching (degree 3 everywhere above the marks)
    for i in range(2, t - 1):
        new_layer = []
        for v in layers[-1]:
            kids = (3 - (first - 1)) if i == 2 else 2
            new_layer.extend(add_child(v) for _ in range(kids))
        layers.append(new_layer)

    # deep-branch marks: leftmost (t-2)-layer descendants of distinct
    # children of the middle vertices
    if first == 1:
        anchors = [layers[1][0], layers[1][1]]
    else:
        anchors = [layers[1][0], layers[1][1], layers[1][2]]
        # layers[1] lists vertex 0's children first, then vertex 1's
    marked = []
    for a in anchors[:theta]:
        v = a
        while v not in layers[t - 2 - 1]:
            v = first_child[v]
        marked.append(v)
    marked_set = set(marked)

    # layer t-1: marked vertices keep degree 3, the rest drop to degree 2
    new_layer = []
    for v in layers[t - 2 - 1]:
        kids = 2 if v in marked_set else 1
        new_layer.extend(add_child(v) for _ in range(kids))
    layers.append(new_layer)

    # layer t: only the continuation child of each marked vertex goes deeper
    deep = {first_child[v] for v in marked}
    new_layer = [add_child(v) for v in layers[-1] if v in deep]
    layers.append(new_layer)

    assert nxt == order_constant("A1", k)
    return build_graph(nxt, edges)


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
    """A non-star {triangle, path}-saturated tree of order exactly n.

    Starts from the sparse layered tree and attaches one pendant leaf at a
    time, at the first vertex whose augmented tree the saturation checker
    certifies; every accepted step is checker-verified, so the result is
    certified rather than assumed.
    """
    if k < 9:
        raise ValueError("saturated_tree_of_order needs k >= 9")
    a1 = order_constant("A1", k)
    if n < a1:
        raise ValueError(f"no non-star saturated tree below order {a1} for k={k}")
    fam = parse_family(f"K3,P{k}")
    tree = make_t1k(k)
    while tree.n < n:
        grown = None
        for v in range(tree.n):
            rows = list(tree.rows) + [1 << v]
            rows[v] |= 1 << tree.n
            candidate = Graph(tree.n + 1, tuple(rows))
            if check_saturated(candidate, fam).is_saturated:
                grown = candidate
                break
        if grown is None:
            raise RuntimeError(
                f"no saturated pendant extension found at order {tree.n + 1} (k={k})"
            )
        tree = grown
    return tree


def make_g0(n: int, k: int) -> Graph:
    """Disconnected minimum {triangle, path}-saturated witness: one saturated
    tree soaking up the remainder plus copies of the sparse layered tree."""
    if k < 10:
        raise ValueError("make_g0 needs k >= 10")
    a1 = order_constant("A1", k)
    if n < a1:
        raise ValueError(f"make_g0 needs n >= {a1} for k={k}")
    n0 = n % a1
    g = saturated_tree_of_order(n0 + a1, k)
    copy = make_t1k(k)
    for _ in range(n // a1 - 1):
        g = disjoint_union(g, copy)
    return g


_h0_attachment_cache: dict[int, int] = {}


def _h0_assemble(n: int, k: int, att: int) -> Graph:
    a1 = order_constant("A1", k)
    copy = make_t1k(k)
    edges: list[tuple[int, int]] = []
    for i in range(4):
        off = i * a1
        edges.extend((off + u, off + v) for u, v in copy.edges())
    corners = [i * a1 + att for i in range(4)]
    edges.extend((corners[i], corners[j]) for i in range(4) for j in range(i + 1, 4))
    q1 = build_graph(4 * a1, edges)

    h = disjoint_union(q1, saturated_tree_of_order(a1 + n % a1, k))
    for _ in range(n // a1 - 5):
        h = disjoint_union(h, copy)
    return h


def _h0_attachment(k: int) -> int:
    """Checker-certified attachment vertex for the 4-clique component.

    The designated deep leaf is tried first; if the checker rejects it on
    the smallest instance, every other vertex is tried (deepest first).
    The certified choice is cached per k.
    """
    if k in _h0_attachment_cache:
        return _h0_attachment_cache[k]
    a1 = order_constant("A1", k)
    fam = parse_family(f"K3+P{k}")
    candidates = [t1k_attachment_vertex(k)] + list(range(a1 - 1, -1, -1))
    for att in dict.fromkeys(candidates):
        if check_saturated(_h0_assemble(6 * a1, k, att), fam).is_saturated:
            _h0_attachment_cache[k] = att
            return att
    raise RuntimeError(f"no attachment vertex yields a saturated witness for k={k}")


def make_h0(n: int, k: int) -> Graph:
    """Disconnected clique-union-path saturated witness.

    One component carries a 4-clique whose corners are deep-leaf attachment
    vertices of four private sparse-tree copies; one component is a
    saturated tree absorbing the remainder; the rest are plain copies.
    """
    if k < 10:
        raise ValueError("make_h0 needs k >= 10")
    a1 = order_constant("A1", k)
    if n < 6 * a1:
        raise ValueError(f"make_h0 needs n >= {6 * a1} for k={k}")
    return _h0_assemble(n, k, _h0_attachment(k))
