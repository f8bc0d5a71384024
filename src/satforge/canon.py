"""Exact canonical forms for small graphs.

The canonical code of a graph is the graph6 encoding of a canonically
relabelled copy, so equal codes mean isomorphic (and the code itself decodes
back to a member of the class).  Trees go through a linear-time rooted-code
relabelling; everything else goes through equitable refinement plus
individualization/backtracking, which is exact and fast enough for the
orders this library canonicalizes (components up to a few dozen vertices).
Cells are vertex masks, and the search compares its leaves by one int that
sorts as their codes, so only the code of the best leaf is ever packed.  It
skips every branch that an automorphism already met, fixing the vertices
individualised on the way, maps from a branch already walked (McKay,
"Practical graph isomorphism", 1981), so vertex-transitive graphs such as
the cocktail party graph of order 20 take milliseconds.
Components are listed by (order, code).  The same pass meets a generating
set of the automorphism group: the maps between search leaves with equal
codes, twin swaps, swaps of isomorphic components and, in trees, swaps of
sibling subtrees with equal codes.  Their orbits are exact, and canonical
augmentation collects them as permutations to prune at the parent: the
pass always runs whole, and augmentation_automorphisms returns them with
its acceptance, packing no code.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, bfs_layers, component_masks, graph6_of, iter_bits, longest_path_layers

CanonicalCode = bytes


def _find(orbit: list[int] | dict[int, int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = v = orbit[orbit[v]]
    return v


def _meet(orbit: list[int], sink: list | None, src: Iterable[int], dst: Iterable[int]) -> None:
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


def _refine(rows: tuple[int, ...], cells: list[int], splitters: list[int] | None = None) -> list[int]:
    """Equitable refinement of an ordered partition (stable, deterministic).
    Each cell is a vertex mask.  A cell splits in place, so cells keep
    their relative order, and the last cell only shrinks from pass to pass.

    The first pass keys each vertex by its neighbours in every cell, or in
    the given splitter masks when only those can tell the vertices of a
    cell apart.  After a pass, the vertices of each cell have equal counts
    in every cell of the partition before it, so the next pass counts only
    in the pieces of the cells that just split, less the last piece of
    each, whose count follows from the cell's total.  The entries dropped
    are equal across a cell, and never the first place where two keys of
    the full count differ, so both the grouping and the sorted order of
    the groups stay as the full count gives them.
    """
    masks = cells if splitters is None else splitters
    while masks:
        cells, masks = _refine_pass(rows, cells, masks)
    return cells


def _refine_pass(rows: tuple[int, ...], cells: list[int], masks: list[int]) -> tuple[list[int], list[int]]:
    """One pass of _refine: each cell split by its vertices' neighbour
    counts in the masks, pieces ascending by those counts, and the new
    pieces, less the last piece of each split cell.  Against one vertex u
    the count is adjacency to u, so the pieces are the cell less u's row
    and the cell within it.  Against one other mask a vertex's key is its
    count, and against several its counts packed into one int, the first
    mask's count highest, in fields wide enough for any count, so the keys
    sort as the tuples of counts do."""
    new_cells: list[int] = []
    split: list[int] = []
    one = masks[0] if len(masks) == 1 else 0
    if one and one & (one - 1) == 0:
        row = rows[one.bit_length() - 1]
        for cell in cells:
            near = cell & row
            if near and near != cell:
                new_cells += (cell ^ near, near)
                split.append(cell ^ near)
            else:
                new_cells.append(cell)
        return new_cells, split
    width = len(rows).bit_length()
    for cell in cells:
        if cell & (cell - 1) == 0:
            new_cells.append(cell)
            continue
        groups: dict[int, int] = {}
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows[low.bit_length() - 1]
            if one:
                key = (row & one).bit_count()
            else:
                key = 0
                for m in masks:
                    key = key << width | (row & m).bit_count()
            groups[key] = groups.get(key, 0) | low
        if len(groups) == 1:
            new_cells.append(cell)
            continue
        pieces = [groups[key] for key in sorted(groups)]
        new_cells += pieces
        split += pieces[:-1]
    return new_cells, split


def _are_twins(rows: tuple[int, ...], u: int, v: int) -> bool:
    """True when swapping u and v is an automorphism."""
    return rows[u] & ~(1 << v) == rows[v] & ~(1 << u)


def _by_degree(verts: list[int], degs: list[int]) -> list[int]:
    """The degree partition of a component, cells ascending by degree."""
    degrees: dict[int, int] = {}
    for v, d in zip(verts, degs):
        degrees[d] = degrees.get(d, 0) | 1 << v
    return [degrees[d] for d in sorted(degrees)]


def _degree_cells(rows: tuple[int, ...], verts: list[int], degs: list[int]) -> list[int]:
    """The refined degree partition of a connected component, cells
    ascending by degree.  The canonical last vertex lies in its last cell.
    A vertex's count in the last cell is its degree less its counts in the
    others, so the first pass counts in the others alone."""
    cells = _by_degree(verts, degs)
    return _refine(rows, cells, cells[:-1])


def _leaf_key(rows: tuple[int, ...], order: list[int]) -> int:
    """The upper triangle of the graph relabelled by order, read column by
    column from the top row down, as one int.  At one order, keys sort as
    the graph6_of bytes of the same orders do, and are equal exactly when
    those are."""
    key = 0
    for j, v in enumerate(order):
        row, col = rows[v], 0
        for u in order[:j]:
            col = col << 1 | (row >> u & 1)
        key = key << j | col
    return key


def _individualised(rows: tuple[int, ...], cells: list[int], i: int, v: int) -> list[int]:
    """The equitable partition cells refined after v, from the cell at
    index i, is put in a cell of its own just before the rest of that cell.
    Since cells is equitable, only the new cell {v} can split one."""
    return _refine(rows, cells[:i] + [1 << v, cells[i] ^ 1 << v] + cells[i + 1 :], [1 << v])


def _search_order(rows: tuple[int, ...], cells: list[int], orbit: list[int], sink: list | None) -> list[int]:
    """Order of the least graph6 code over all discrete refinements of the
    refined degree partition of a connected graph, the first such leaf of
    the search.  Leaves are compared by _leaf_key, which sorts as the codes
    do, so no code is packed here.  Refinement and individualisation split
    cells in place, so the last cell of the partition holds the last
    vertex of every leaf.

    Each leaf whose code equals the best one found so far, mapped from the
    best leaf, and each skipped twin swap are automorphisms.  A node of the
    search skips each vertex of its branching cell that shares the orbit of
    a vertex already tried there, under the automorphisms met so far that
    fix every vertex individualised on the way to the node (McKay,
    "Practical graph isomorphism", 1981), and before that every twin of a
    vertex already tried (a twin swap is always such an automorphism).
    Such an automorphism maps the tried subtree onto the skipped one, leaf
    for leaf with equal codes, so every leaf skipped has an equal one
    earlier in the search: the first least leaf is never skipped, and the
    automorphisms met still generate the group of the component.
    """
    best: list = [None, None]  # key, order
    met: list[dict[int, int]] = []  # each automorphism met, by its moved vertices

    def meet(src: Sequence[int], dst: Sequence[int]) -> None:
        moved = {u: v for u, v in zip(src, dst) if u != v}
        _meet(orbit, sink, moved.keys(), moved.values())
        met.append(moved)

    def walk(cells: list[int], fixed: set[int]) -> None:
        split = next((i for i, c in enumerate(cells) if c & (c - 1)), -1)
        if split < 0:
            order = [c.bit_length() - 1 for c in cells]
            key = _leaf_key(rows, order)
            if best[0] is None or key < best[0]:
                best[0], best[1] = key, order
            elif key == best[0]:
                meet(best[1], order)
            return
        cell = list(iter_bits(cells[split]))
        # the orbits on the cell of the automorphisms met that fix `fixed`
        # (each maps the cell onto itself), read up to `seen`; None while
        # no such automorphism has been met
        local: dict[int, int] | None = None
        seen = 0
        tried: list[int] = []
        for v in cell:
            if seen < len(met):
                for moved in met[seen:]:
                    if moved.keys().isdisjoint(fixed):
                        local = local or {u: u for u in cell}
                        for a, b in moved.items():
                            if a in local:
                                local[_find(local, a)] = _find(local, b)
                seen = len(met)
            if local is not None:
                mine = _find(local, v)
                if any(_find(local, u) == mine for u in tried):
                    continue
            twin = next((u for u in tried if _are_twins(rows, u, v)), -1)
            if twin >= 0:
                meet((v, twin), (twin, v))
                continue
            tried.append(v)
            walk(_individualised(rows, cells, split, v), fixed | {v})

    walk(cells, set())
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


def _accepting_order(g: Graph, v: int, sink: list | None = None) -> list[int] | None:
    """The canonical order of g when v shares the orbit of its last vertex,
    else None; a `sink` receives the pass's automorphisms (see _labelling)."""
    order, orbit = _labelling(g, sink)
    return order if _find(orbit, v) == _find(orbit, order[-1]) else None


def augmentation_code(g: Graph, v: int) -> CanonicalCode | None:
    """The canonical code of g when v shares the orbit of the canonical last
    vertex (g is then the canonical augmentation of g - v), else None."""
    order = _accepting_order(g, v)
    return None if order is None else graph6_of(g.rows, order)


def augmentation_automorphisms(g: Graph, v: int) -> list[bytes] | None:
    """When v shares the orbit of the canonical last vertex, the
    automorphisms of g that the canonical pass meets, as bytes permutations
    (see _meet) that generate the group, else None.  No code is packed."""
    sink: list[bytes] = []
    return sink if _accepting_order(g, v, sink) is not None else None


def accepts(g: Graph, v: int) -> bool:
    """Whether v shares the orbit of the canonical last vertex, that is
    augmentation_code(g, v) is not None, with no code and no generators
    wherever a shortcut decides.

    When v's component is the unique largest one and not a tree, the
    canonical last vertex is that component's, and no automorphism moves
    the component, so the other components are never looked at.  Then,
    in order:

    - v is rejected when it lacks the component's largest degree, and
      accepted when it alone has it;
    - the degree partition is refined pass by pass, and since its last
      cell only shrinks, v is rejected as soon as it leaves that cell and
      accepted as soon as it is alone there;
    - once the partition is equitable, v is accepted when the last cell,
      which holds the canonical last vertex, is shown to be one orbit:
      when every other vertex of it is v's twin, or else when each other
      vertex u that is not reaches the same leaf as v.  A vertex's leaf
      comes from individualising it in the last cell, then the least
      vertex of the first cell not yet alone, until every cell is.  Two
      leaves with one relabelled graph map onto each other by an
      automorphism, which takes v to u, since cells split in place and so
      {v} and {u} hold the same place in their leaves;
    - otherwise the search over the equitable cells decides.

    A tree component, or one that ties for the largest order, takes the
    whole canonical pass.
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
        return _accepting_order(g, v) is not None
    top = max(degs)
    if rows[v].bit_count() != top:
        return False
    if degs.count(top) == 1:
        return True
    cells = _by_degree(verts, degs)
    masks = cells[:-1]  # as in _degree_cells
    while masks and cells[-1] >> v & 1 and cells[-1] != 1 << v:
        cells, masks = _refine_pass(rows, cells, masks)
    last = cells[-1]
    if not last >> v & 1:
        return False
    if last == 1 << v:
        return True
    others = [u for u in iter_bits(last) if u != v and not _are_twins(rows, u, v)]
    if not others:
        return True
    i = len(cells) - 1

    def leaf(u: int) -> int:
        """The key of the leaf reached by individualising u, then the least
        vertex of the first cell not yet alone, until the cells are."""
        parted = _individualised(rows, cells, i, u)
        while len(parted) < size:
            j = next(j for j, c in enumerate(parted) if c & (c - 1))
            parted = _individualised(rows, parted, j, (parted[j] & -parted[j]).bit_length() - 1)
        return _leaf_key(rows, [c.bit_length() - 1 for c in parted])

    key = leaf(v)
    if all(leaf(u) == key for u in others):
        return True
    orbit = list(range(g.n))
    last_vertex = _search_order(rows, cells, orbit, None)[-1]
    return _find(orbit, v) == _find(orbit, last_vertex)


def same_orbit(g: Graph, u: int, v: int) -> bool:
    orbit = _labelling(g)[1]
    return _find(orbit, u) == _find(orbit, v)


def canonical_last_vertex(g: Graph) -> int:
    """The original id of the vertex placed last by canonical relabelling."""
    return _labelling(g)[0][-1]
