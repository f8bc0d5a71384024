"""Exact detectors for the forbidden patterns and tree-structure tools.

All detectors explore vertices in ascending id order, so returned witnesses
are deterministic and usable as golden test fixtures.  Path existence is
decided exactly: a tree component by its diameter, and any other component
block by block over its block-cut tree (Hopcroft & Tarjan, CACM 16, 1973),
since a simple path crosses each block at most once.  Inside a block the one
path search, `_walk`, runs weighted: each vertex weighs the longest path it
starts into the blocks below it, and a step is taken back when neither the
path so far nor anything still reachable can reach the target.  A weighted
walk that passes MAX_WALK_STEPS steps raises PathSearchBudgetError.

The same walk, unweighted and unpruned, is `_iter_paths_exact`, the
enumerator of the linear-forest searches.  Those stay unpruned because the
prune costs them more than it saves (2-core VM, Python 3.11): it made the
generic scan for K1*F members, which still decides a K1*F family on a graph
with no universal vertex, 4 times slower, and the K3+P10 detector on
make_h0(1210, 10) and sat_bruteforce(7, K1*[2,2]) no faster.

Which claimed minimum trees a saturated tree holds, as the tree claims ask,
comes from the one subtree matcher, `TreePattern`.  It
roots and checks a pattern tree once and then tests host trees given as
adjacency lists, with the host's diameter when the caller knows it;
`subtree_contains` is that matcher for one pair of Graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import (
    Graph,
    bfs_layers,
    component_masks,
    full_mask,
    is_tree,
    iter_bits,
    longest_path_layers,
)

MAX_WALK_STEPS = 100_000


class PathSearchBudgetError(RuntimeError):
    """A weighted walk of the path search took more than MAX_WALK_STEPS steps."""


@dataclass(frozen=True)
class Witness:
    """Concrete vertex embedding certifying a pattern occurrence."""

    kind: str
    parts: tuple[tuple[int, ...], ...]

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for part in self.parts for v in part)


def _is_path_in(g: Graph, seq: Sequence[int]) -> bool:
    return all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def witness_ok(g: Graph, w: Witness) -> bool:
    """Structural validity: distinct vertices, all claimed edges present."""
    verts = w.vertices()
    if len(set(verts)) != len(verts):
        return False
    if any(not 0 <= v < g.n for v in verts):
        return False
    if w.kind == "clique":
        (cl,) = w.parts
        return all(g.has_edge(u, v) for i, u in enumerate(cl) for v in cl[i + 1 :])
    if w.kind == "path":
        (seq,) = w.parts
        return _is_path_in(g, seq)
    if w.kind == "linear_forest":
        return all(_is_path_in(g, seq) for seq in w.parts)
    if w.kind == "join_k1":
        (hub,) = w.parts[0]
        return all(
            _is_path_in(g, seq) and all(g.has_edge(hub, v) for v in seq)
            for seq in w.parts[1:]
        )
    if w.kind in ("subtree", "disjoint_union"):
        # per-part edge checks need the pattern shapes; the callers that
        # know them (subtree_contains, member_witness_ok) do the rest
        return True
    return False


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def iter_cliques(g: Graph, p: int, mask: int | None = None) -> Iterator[tuple[int, ...]]:
    """All p-cliques within mask, in ascending lexicographic order."""
    if p < 1:
        raise ValueError("clique order must be >= 1")
    m = full_mask(g.n) if mask is None else mask
    rows = g.rows
    # stack[i] holds the candidates not yet tried after chosen[:i]; a level
    # is entered only when it has enough candidates to finish a clique
    chosen: list[int] = []
    stack = [m] if m.bit_count() >= p else []
    while stack:
        cand = stack[-1]
        if not cand:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = cand & -cand
        stack[-1] = cand ^ low
        v = low.bit_length() - 1
        if len(chosen) + 1 == p:
            yield (*chosen, v)
            continue
        nxt = stack[-1] & rows[v]
        if len(chosen) + 1 + nxt.bit_count() >= p:
            chosen.append(v)
            stack.append(nxt)


def has_clique(g: Graph, p: int) -> Witness | None:
    """Lexicographically least p-clique, or None."""
    for cl in iter_cliques(g, p):
        return Witness("clique", (cl,))
    return None


# ---------------------------------------------------------------------------
# exact path existence
# ---------------------------------------------------------------------------


def _walk(
    rows: Sequence[int], mask: int, starts: int, need: int, weight: dict | None = None, heavy: int = 0
) -> Iterator[tuple[int, ...]]:
    """Simple paths within mask from each vertex of starts in turn, depth
    first in ascending vertex order: the one path search of this module.

    Without weights it yields the paths of exactly `need` vertices that end
    above their start.  With weights, a path's value is its order plus
    weight[x] - 1 at each end x, and it yields each path whose value reaches
    need, raising need past it: the first path yielded meets the target and
    the last one is the best.  A step to u is then taken back when neither
    the path to u nor any longer one can reach need, bounding the longer
    ones by every vertex still reachable from u and the heaviest weight
    among them.  heavy masks the vertices of weight above 1, the only ones
    weighed.  A weighted walk raises PathSearchBudgetError after
    MAX_WALK_STEPS steps.
    """
    steps = 0
    for s in iter_bits(starts):
        # stack[i] holds the next vertices not yet tried after seq[:i+1]
        seq, used = [s], 1 << s
        # the value of the path seq + [u] is base + len(seq) + weight[u]
        base = 0 if weight is None else weight[s] - 1
        stack = [rows[s] & mask & ~used]
        while stack:
            cand = stack[-1]
            if not cand:
                stack.pop()
                used ^= 1 << seq.pop()
                continue
            low = cand & -cand
            stack[-1] = cand ^ low
            u = low.bit_length() - 1
            if weight is None:
                if len(seq) + 1 == need:
                    if s < u:
                        yield (*seq, u)
                    continue
                nxt = rows[u] & mask & ~used & ~low
            else:
                steps += 1
                if steps > MAX_WALK_STEPS:
                    raise PathSearchBudgetError(
                        f"path search budget exceeded: {MAX_WALK_STEPS} steps in one walk"
                    )
                value = base + len(seq) + weight[u]
                if value >= need:
                    yield (*seq, u)
                    need = value + 1
                free = mask & ~used & ~low
                nxt = rows[u] & free
                # the layers are disjoint, so their sum is their union
                seen = sum(bfs_layers(rows, nxt, free))
                top = max((weight[x] for x in iter_bits(seen & heavy)), default=1)
                if not nxt or base + len(seq) + seen.bit_count() + top < need:
                    continue
            seq.append(u)
            used |= low
            stack.append(nxt)


def _blocks(rows: Sequence[int], comp: int) -> Iterator[tuple[int, int]]:
    """The blocks of the connected component comp, as (r, block mask): an
    iterative Hopcroft-Tarjan DFS over the bit rows from the least vertex.
    r is the block's vertex nearest that root, the one it hangs from, and a
    block comes after every block that hangs below it."""
    root = (comp & -comp).bit_length() - 1
    disc, low = {root: 0}, {root: 0}
    path, todo = [root], [rows[root] & comp]
    pending = [root]  # visited vertices whose block has not been emitted
    while todo:
        v, cand = path[-1], todo[-1]
        if cand:
            bit = cand & -cand
            todo[-1] = cand ^ bit
            u = bit.bit_length() - 1
            if u not in disc:
                disc[u] = low[u] = len(disc)
                path.append(u)
                todo.append(rows[u] & comp)
                pending.append(u)
            elif disc[u] < low[v]:
                low[v] = disc[u]
            continue
        path.pop()
        todo.pop()
        if path:
            r = path[-1]
            if low[v] < low[r]:
                low[r] = low[v]
            if low[v] >= disc[r]:
                block = 1 << r
                x = -1
                while x != v:
                    x = pending.pop()
                    block |= 1 << x
                yield r, block


def _lp_component(rows: Sequence[int], comp: int, k: int) -> list[int] | None:
    """A path on >= k vertices in the connected component comp, or None,
    read from its smaller end; rows may reach outside comp (every read is
    masked).

    A tree is decided by its diameter.  Otherwise a simple path crosses each
    block at most once, so the blocks are taken bottom up, with down[v] the
    longest path from v into the blocks below v.  A bridge ry gives r the
    way down [r] + down[y].  In a larger block hanging from r, with each
    other vertex x weighted len(down[x]) and r weighted 1, a walk from every
    vertex looks for a path through the block with both ends in it, and a
    walk from r finds r's longest way down through it.  Joined to r's best
    earlier way down, that covers the paths whose highest vertex is r.
    """
    size = comp.bit_count()
    if size < k:
        return None
    m = sum((rows[v] & comp).bit_count() for v in iter_bits(comp)) // 2
    if m == size - 1:
        # the longest path a..b: its i-th vertex from a is the one at
        # distance i from a and d-i from b
        from_a = longest_path_layers(rows, comp)
        if len(from_a) < k:
            return None
        far = from_a[-1]
        from_b = bfs_layers(rows, far & -far, comp)
        d = len(from_a) - 1
        path = [(from_a[i] & from_b[d - i]).bit_length() - 1 for i in range(d + 1)]
        return _from_smaller_end(path)
    down: dict[int, list[int]] = {}
    for r, block in _blocks(rows, comp):
        if block.bit_count() == 2:
            y = (block ^ 1 << r).bit_length() - 1
            new = [r, *down.get(y, (y,))]
        else:
            arms = {x: down.get(x, [x]) for x in iter_bits(block)}
            arms[r] = [r]
            weight = {x: len(arm) for x, arm in arms.items()}
            heavy = sum(1 << x for x, w in weight.items() if w > 1)
            path = next(_walk(rows, block, block, k, weight, heavy), None)
            if path is not None:
                return _from_smaller_end(arms[path[0]][::-1] + list(path[1:-1]) + arms[path[-1]])
            *_, way = _walk(rows, block, 1 << r, 2, weight, heavy)
            new = list(way[:-1]) + arms[way[-1]]
        old = down.get(r, [r])
        if len(old) + len(new) > k:
            return _from_smaller_end(old[::-1] + new[1:])
        if len(new) > len(old):
            down[r] = new
    return None


def _from_smaller_end(path: list[int]) -> list[int]:
    return path if path[0] < path[-1] else path[::-1]


def find_path_of_order(g: Graph, k: int, mask: int | None = None) -> list[int] | None:
    """A simple path on >= k vertices (full path returned), or None.  Exact."""
    if k < 1:
        raise ValueError("path order must be >= 1")
    m = full_mask(g.n) if mask is None else mask
    if k == 1:
        return [(m & -m).bit_length() - 1] if m else None
    for comp in component_masks(g, m):
        res = _lp_component(g.rows, comp, k)
        if res is not None:
            return res
    return None


def has_path_of_order(g: Graph, k: int) -> Witness | None:
    path = find_path_of_order(g, k)
    if path is None:
        return None
    return Witness("path", (tuple(path[:k]),))


# ---------------------------------------------------------------------------
# composite patterns
# ---------------------------------------------------------------------------


def _iter_paths_exact(rows: Sequence[int], order: int, mask: int) -> Iterator[tuple[int, ...]]:
    """Paths with exactly `order` vertices within mask, each once (from its
    smaller end), depth first in ascending vertex order."""
    if order == 1:
        for v in iter_bits(mask):
            yield (v,)
        return
    yield from _walk(rows, mask, mask, order)


def contains_linear_forest(g: Graph, orders: Sequence[int], mask: int | None = None) -> Witness | None:
    """Vertex-disjoint paths with the given orders, or None.  Exact."""
    if not orders or any(o < 1 for o in orders):
        raise ValueError("path orders must all be >= 1")
    m = full_mask(g.n) if mask is None else mask
    # search longest parts first, then restore the requested part order
    idx = sorted(range(len(orders)), key=lambda i: (-orders[i], i))
    placed: dict[int, tuple[int, ...]] = {}

    def place(i: int, free: int) -> bool:
        if i == len(idx):
            return True
        want = orders[idx[i]]
        for seq in _iter_paths_exact(g.rows, want, free):
            used = 0
            for v in seq:
                used |= 1 << v
            placed[idx[i]] = seq
            if place(i + 1, free & ~used):
                return True
        placed.pop(idx[i], None)
        return False

    if not place(0, m):
        return None
    return Witness("linear_forest", tuple(placed[i] for i in range(len(orders))))


def contains_join_k1(g: Graph, orders: Sequence[int]) -> Witness | None:
    """A hub vertex whose neighbourhood hosts the given linear forest."""
    for v in range(g.n):
        if g.rows[v].bit_count() < sum(orders):
            continue
        w = contains_linear_forest(g, orders, mask=g.rows[v])
        if w is not None:
            return Witness("join_k1", ((v,),) + w.parts)
    return None


# ---------------------------------------------------------------------------
# subtree containment (tree-in-tree subgraph isomorphism)
# ---------------------------------------------------------------------------


class TreePattern:
    """A pattern tree prepared once for containment tests in host trees.

    The pattern is rooted at vertex 0, with each vertex's children listed
    ascending; its order and diameter are read once.  Pattern vertex p maps
    onto host vertex h, its parent onto hp, iff the children of p can be
    matched into distinct neighbours of h other than hp, each match feasible
    in turn.  One search memoises that answer on (p, h, hp), as the images
    of p's children or None, so a host that holds the pattern gives its
    embedding from the same memo.
    """

    __slots__ = ("n", "diameter", "children", "need")

    def __init__(self, pattern: Graph) -> None:
        if not is_tree(pattern):
            raise ValueError("pattern is not a tree")
        n = self.n = pattern.n
        self.diameter = len(longest_path_layers(pattern.rows, full_mask(n))) - 1
        parent = [-1] * n
        children: list[tuple[int, ...]] = [()] * n
        order = [0]
        for v in order:
            kids = tuple(u for u in pattern.neighbors(v) if u != parent[v])
            for u in kids:
                parent[u] = v
            children[v] = kids
            order.extend(kids)
        self.children = children
        # the degree a host vertex needs to take p below the root: p's
        # children and its parent
        self.need = [len(kids) + 1 for kids in children]

    def embedding(
        self, adj: Sequence[Sequence[int]], diameter: int | None = None
    ) -> list[int] | None:
        """The image of each pattern vertex under an embedding into the host
        tree with adjacency lists adj, or None.  The least host vertex that
        can take the root is tried first.  diameter, when the caller knows
        it, is the host's: a pattern wider, or larger, than the host is
        rejected before any search."""
        if self.n > len(adj) or diameter is not None and self.diameter > diameter:
            return None
        memo: dict[tuple[int, int, int], tuple[int, ...] | None] = {}
        least = len(self.children[0])
        for h, nbrs in enumerate(adj):
            if len(nbrs) >= least and self._fits(0, h, -1, adj, memo) is not None:
                mapping = [-1] * self.n
                mapping[0] = h
                stack = [(0, h, -1)]
                while stack:
                    p, h, hp = stack.pop()
                    for q, c in zip(self.children[p], memo[p, h, hp]):
                        mapping[q] = c
                        stack.append((q, c, h))
                return mapping
        return None

    def _fits(
        self, p: int, h: int, hp: int, adj: Sequence[Sequence[int]], memo: dict
    ) -> tuple[int, ...] | None:
        """The images of p's children when p maps onto h and its parent onto
        hp, or None: a bipartite matching by augmenting paths, the host
        neighbours tried in ascending order."""
        key = (p, h, hp)
        if key in memo:
            return memo[key]
        kids = self.children[p]
        spare = [c for c in adj[h] if c != hp]
        taken: dict[int, int] = {}  # host neighbour -> index of its pattern child
        images = None
        if all(self._augment(i, kids, h, spare, taken, set(), adj, memo) for i in range(len(kids))):
            images = [0] * len(kids)
            for c, i in taken.items():
                images[i] = c
            images = tuple(images)
        memo[key] = images
        return images

    def _augment(
        self,
        i: int,
        kids: tuple[int, ...],
        h: int,
        spare: list[int],
        taken: dict[int, int],
        visited: set[int],
        adj: Sequence[Sequence[int]],
        memo: dict,
    ) -> bool:
        """Place pattern child kids[i] on a free neighbour of h, or free one
        by moving the child already there."""
        q = kids[i]
        need = self.need[q]
        for c in spare:
            if c in visited or len(adj[c]) < need or self._fits(q, c, h, adj, memo) is None:
                continue
            visited.add(c)
            if c not in taken or self._augment(taken[c], kids, h, spare, taken, visited, adj, memo):
                taken[c] = i
                return True
        return False


def subtree_contains(host: Graph, pattern: Graph) -> Witness | None:
    """Embedding of the pattern tree into the host tree as a subgraph: the
    full mapping, pattern vertex i onto host vertex parts[0][i].

    The host's adjacency lists are read once and searched by TreePattern;
    a caller that tests many hosts against one pattern, as the tree claims
    do, prepares the TreePattern itself.
    """
    if not is_tree(host):
        raise ValueError("host is not a tree")
    mapping = TreePattern(pattern).embedding([list(host.neighbors(v)) for v in range(host.n)])
    return None if mapping is None else Witness("subtree", (tuple(mapping),))
