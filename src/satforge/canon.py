"""Exact canonical forms for small graphs.

The canonical code of a graph is the graph6 encoding of a canonically
relabelled copy, so equal codes mean isomorphic (and the code itself decodes
back to a member of the class).  Trees go through a linear-time rooted-code
relabelling; everything else goes through equitable refinement plus
individualization/backtracking, which is exact and fast enough for the
orders this library canonicalizes (components up to a few dozen vertices).
Components are listed by (order, code).  The same pass meets a generating
set of the automorphism group: the maps between search leaves with equal
codes, twin swaps, swaps of isomorphic components and, in trees, swaps of
sibling subtrees with equal codes.  Their orbits are exact, and canonical
augmentation can collect them as permutations to prune at the parent: the
pass always runs whole, and a `sink` receives them on every call.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, bfs_layers, component_masks, graph6_of, iter_bits, longest_path_layers

CanonicalCode = bytes


def _find(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = v = orbit[orbit[v]]
    return v


def _meet(orbit: list[int], sink: list | None, src: Sequence[int], dst: Sequence[int]) -> None:
    """Record the automorphism that maps src[i] to dst[i] and fixes every
    other vertex: union its pairs into the orbit forest and, when a sink is
    given, append it to the sink as a permutation, one byte per vertex
    holding its image (so a sink needs at most 256 vertices)."""
    for u, v in zip(src, dst):
        orbit[_find(orbit, u)] = _find(orbit, v)
    if sink is not None:
        perm = bytearray(range(len(orbit)))
        for u, v in zip(src, dst):
            perm[u] = v
        sink.append(bytes(perm))


# ---------------------------------------------------------------------------
# trees: centre-rooted subtree codes
# ---------------------------------------------------------------------------


def _centre_rooted(rows: Sequence[int], alive: int) -> tuple[Sequence[int], int]:
    """Rows of the tree on `alive` rooted at its centre, and the root.

    The centre is the middle of a longest path a..b, found by a double
    sweep: the vertices at distance i from a and d-i from b.  Two centres
    get their edge subdivided by a virtual vertex len(rows), which becomes
    the unique centre of an odd-diameter tree.
    """
    from_a = longest_path_layers(rows, alive)
    far = from_a[-1]
    from_b = bfs_layers(rows, far & -far, alive)
    d = len(from_a) - 1
    mid = from_a[d // 2] & from_b[d - d // 2]
    if d % 2 == 0:
        return rows, mid.bit_length() - 1
    a = mid.bit_length() - 1
    b = (from_a[d // 2 + 1] & from_b[d // 2]).bit_length() - 1
    virtual = len(rows)
    work = list(rows)
    work[a] = (work[a] | 1 << virtual) & ~(1 << b)
    work[b] = (work[b] | 1 << virtual) & ~(1 << a)
    work.append((1 << a) | (1 << b))
    return work, virtual


def _subtree_codes(rows: Sequence[int], root: int) -> tuple[dict[int, str], dict[int, list[int]]]:
    """Per vertex, its AHU subtree code and its children sorted by (code,
    id), computed children first from an explicit breadth-first order."""
    kids: dict[int, list[int]] = {}
    seen = 1 << root
    todo = [root]
    for v in todo:  # in a tree the unseen neighbours are the children
        kids[v] = list(iter_bits(rows[v] & ~seen))
        seen |= rows[v]
        todo.extend(kids[v])
    code: dict[int, str] = {}
    for v in reversed(todo):
        kids[v].sort(key=code.__getitem__)  # stable: ties stay ascending by id
        code[v] = "(" + "".join(code[u] for u in kids[v]) + ")"
    return code, kids


def _tree_order(rows: tuple[int, ...], alive: int, orbit: list[int], sink: list | None) -> list[int]:
    """Vertices of a tree in a canonical DFS order (old ids, new order)."""
    work, root = _centre_rooted(rows, alive)
    order = _rooted_order(work, root, orbit, sink)
    return order if root < len(rows) else order[1:]


def _rooted_order(rows, root: int, orbit: list[int], sink: list | None) -> list[int]:
    """Preorder with children sorted by subtree code.  Swapping two
    adjacent siblings with equal codes, block for block in preorder, is an
    automorphism, and these swaps generate the group of the rooted tree
    (the centre, or the virtual middle of the central edge, is fixed)."""
    code, kids = _subtree_codes(rows, root)
    order: list[int] = []
    todo = [root]
    while todo:
        v = todo.pop()
        order.append(v)
        todo.extend(reversed(kids[v]))
    at = {v: i for i, v in enumerate(order)}
    for v in order:
        for a, b in zip(kids[v], kids[v][1:]):
            if code[a] == code[b]:
                size = len(code[a]) // 2  # one bracket pair per vertex
                one, two = order[at[a] : at[a] + size], order[at[b] : at[b] + size]
                _meet(orbit, sink, one + two, two + one)
    return order


# ---------------------------------------------------------------------------
# general connected graphs: refinement + individualization
# ---------------------------------------------------------------------------


def _refine(rows: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement of an ordered partition (stable, deterministic).
    A cell splits in place, so cells keep their relative order."""
    while True:
        masks = [_cell_mask(c) for c in cells]
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = rows[v]
                key = tuple([(row & m).bit_count() for m in masks])
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            changed = True
            for key in sorted(groups):
                new_cells.append(tuple(groups[key]))
        cells = new_cells
        if not changed:
            return cells


def _cell_mask(cell: tuple[int, ...]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _are_twins(rows: tuple[int, ...], u: int, v: int) -> bool:
    """True when swapping u and v is an automorphism."""
    return rows[u] & ~(1 << v) == rows[v] & ~(1 << u)


def _degree_cells(rows: tuple[int, ...], verts: list[int], degs: list[int]) -> list[tuple[int, ...]]:
    """The refined degree partition of a connected component, cells
    ascending by degree.  The canonical last vertex lies in its last cell."""
    degrees: dict[int, list[int]] = {}
    for v, d in zip(verts, degs):
        degrees.setdefault(d, []).append(v)
    return _refine(rows, [tuple(degrees[d]) for d in sorted(degrees)])


def _search_order(
    rows: tuple[int, ...], cells: list[tuple[int, ...]], orbit: list[int], sink: list | None
) -> list[int]:
    """Order of the least graph6 code over all discrete refinements of the
    refined degree partition of a connected graph.  At one order the codes
    have one length and pack the same bits six to a byte, padded at the
    end, so they sort as the upper-triangle bit strings do.

    Twin candidates inside a branching cell are skipped (a twin swap is
    always an automorphism), which keeps graphs with many interchangeable
    vertices from exploding factorially.  Refinement and individualization
    split cells in place, so the last cell of the partition holds the last
    vertex of every leaf.

    Each leaf whose code equals the best one found so far, mapped from the
    best leaf, and each skipped twin swap are automorphisms; together they
    generate the group of the component.
    """
    best: list = [None, None]  # code, order

    def walk(cells: list[tuple[int, ...]]) -> None:
        split = next((i for i, c in enumerate(cells) if len(c) > 1), -1)
        if split < 0:
            order = [c[0] for c in cells]
            code = graph6_of(rows, order)
            if best[0] is None or code < best[0]:
                best[0], best[1] = code, order
            elif code == best[0]:
                _meet(orbit, sink, best[1], order)
            return
        cell = cells[split]
        tried: list[int] = []
        for v in cell:
            twin = next((u for u in tried if _are_twins(rows, u, v)), -1)
            if twin >= 0:
                _meet(orbit, sink, (v, twin), (twin, v))
                continue
            tried.append(v)
            rest = tuple(u for u in cell if u != v)
            walk(_refine(rows, cells[:split] + [(v,), rest] + cells[split + 1 :]))

    walk(cells)
    return best[1]


# ---------------------------------------------------------------------------
# the one canonical pass, and what it answers
# ---------------------------------------------------------------------------


def _labelling(g: Graph, sink: list | None = None) -> tuple[list[int], list[int]]:
    """Canonical order of g's vertices (old ids, new order) and a union-find
    forest whose trees are the automorphism orbits.

    A `sink` list receives the automorphisms the pass meets, as bytes
    permutations (see _meet); they generate the automorphism group of g.
    """
    rows = g.rows
    orbit = list(range(g.n))
    comps = component_masks(g)
    parts = []
    for comp in comps:
        verts = list(iter_bits(comp)) if len(comps) > 1 else list(range(g.n))
        degs = [rows[v].bit_count() for v in verts]
        if sum(degs) == 2 * len(verts) - 2:
            order = _tree_order(rows, comp, orbit, sink)
        else:
            order = _search_order(rows, _degree_cells(rows, verts, degs), orbit, sink)
        parts.append((len(order), graph6_of(rows, order) if len(comps) > 1 else b"", order))
    parts.sort(key=lambda p: p[:2])  # stable: equal components keep their order
    for (na, ka, a), (nb, kb, b) in zip(parts, parts[1:]):
        if (na, ka) == (nb, kb):  # isomorphic components swap
            _meet(orbit, sink, a + b, b + a)
    return [v for p in parts for v in p[2]], orbit


def canonical_form(g: Graph) -> CanonicalCode:
    """Byte string equal for two graphs iff they are isomorphic."""
    return graph6_of(g.rows, _labelling(g)[0])


def augmentation_code(g: Graph, v: int, sink: list | None = None) -> CanonicalCode | None:
    """The canonical code of g when v shares the orbit of the canonical last
    vertex (g is then the canonical augmentation of g - v), else None.

    A `sink` list receives, on every call, the automorphisms of g that the
    pass meets, as bytes permutations; they generate the group.
    """
    order, orbit = _labelling(g, sink)
    if _find(orbit, v) != _find(orbit, order[-1]):
        return None
    return graph6_of(g.rows, order)


def accepts(g: Graph, v: int) -> bool:
    """Whether v shares the orbit of the canonical last vertex, that is
    augmentation_code(g, v) is not None, with no code and no generators
    wherever a shortcut decides.

    When v's component is the unique largest one and not a tree, the
    canonical last vertex is that component's, and no automorphism moves
    the component, so the other components are never looked at.  Then v
    is rejected when it lacks the component's largest degree; accepted when
    it alone has it; rejected outside the last cell of the refined degree
    partition; accepted when that cell is (v,), since every leaf of the
    search ends with it; and otherwise decided by the search over those
    cells.  A tree component, or one that ties for the largest order, takes
    the whole canonical pass.
    """
    rows = g.rows
    comps = component_masks(g)
    mine = next(c for c in comps if c >> v & 1)
    size = mine.bit_count()
    sizes = [c.bit_count() for c in comps]
    if size < max(sizes):
        return False
    verts = list(iter_bits(mine))
    degs = [rows[u].bit_count() for u in verts]
    if sum(degs) == 2 * size - 2 or sizes.count(size) > 1:
        return augmentation_code(g, v) is not None
    top = max(degs)
    if rows[v].bit_count() != top:
        return False
    if degs.count(top) == 1:
        return True
    cells = _degree_cells(rows, verts, degs)
    if v not in cells[-1]:
        return False
    if cells[-1] == (v,):
        return True
    orbit = list(range(g.n))
    last = _search_order(rows, cells, orbit, None)[-1]
    return _find(orbit, v) == _find(orbit, last)


def same_orbit(g: Graph, u: int, v: int) -> bool:
    orbit = _labelling(g)[1]
    return _find(orbit, u) == _find(orbit, v)


def canonical_last_vertex(g: Graph) -> int:
    """The original id of the vertex placed last by canonical relabelling."""
    return _labelling(g)[0][-1]
