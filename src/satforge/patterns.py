"""Exact detectors for the forbidden patterns and tree-structure tools.

All detectors explore vertices in ascending id order, so returned witnesses
are deterministic and usable as golden test fixtures.  Path existence is
decided exactly: tree components by diameter, components with few independent
cycles by branching over cycle-edge deletions (every simple path misses at
least one edge of any fixed cycle), and dense leftovers by the one path
enumerator, `_iter_paths_exact`, with its reachability prune.

The prune is a keyword because each caller pays for the wrong choice (2-core
VM, Python 3.11): leaving it off took 450 path queries on 150 components of
order 11..16 and cycle rank above 12 from 0.32 to 0.83 s.  Turning it on made
the generic scan for K1*F members, which still decides a K1*F family on a
graph with no universal vertex, 4 times slower: that scan over a relabelled
K1 joined to T_11 against K1*[11] went from 0.06-0.08 to 0.29 s.  The
linear-forest searches of the K3+P10 detector on make_h0(1210, 10) and of
sat_bruteforce(7, K1*[2,2]) cost the same either way.

Containment flags, the tree scan's record of which claimed minimum trees a
saturated tree holds, come from the one subtree matcher, `TreePattern`.  It
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

MAX_DFS_COMPONENT = 256
MAX_CYCLE_RANK_FOR_DELETION = 12


class PathSearchBudgetError(RuntimeError):
    """A path search met a dense component over MAX_DFS_COMPONENT vertices."""


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


def _find_cycle_edges(rows: Sequence[int], comp: int) -> list[tuple[int, int]]:
    """Edges of one cycle in the component (deterministic DFS)."""
    start = (comp & -comp).bit_length() - 1
    parent = {start: -1}
    stack = [start]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for u in iter_bits(rows[v] & comp):
            if u == parent[v]:
                continue
            if u in parent:
                # back edge v-u closes a cycle through the parent chain
                chain_v = []
                x = v
                while x != -1:
                    chain_v.append(x)
                    x = parent[x]
                anc = set(chain_v)
                chain_u = []
                x = u
                while x not in anc:
                    chain_u.append(x)
                    x = parent[x]
                meet = x
                cyc = chain_v[: chain_v.index(meet) + 1] + chain_u[::-1]
                return [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
            parent[u] = v
            stack.append(u)
    raise AssertionError("no cycle in a component with cycle rank > 0")


def _lp_component(
    rows: Sequence[int] | dict[int, int], comp: int, k: int, seen_removed: set, removed: frozenset
) -> list[int] | None:
    """A path on >= k vertices in the component comp, or None.  rows may
    reach outside comp (every read is masked) and, once cycle edges are
    deleted, holds only the rows of comp."""
    size = comp.bit_count()
    if size < k:
        return None
    m = sum((rows[v] & comp).bit_count() for v in iter_bits(comp)) // 2
    rank = m - size + 1
    if rank == 0:
        # the longest path a..b, read from its smaller end: its i-th vertex
        # from a is the one at distance i from a and d-i from b
        from_a = longest_path_layers(rows, comp)
        if len(from_a) < k:
            return None
        far = from_a[-1]
        from_b = bfs_layers(rows, far & -far, comp)
        d = len(from_a) - 1
        path = [(from_a[i] & from_b[d - i]).bit_length() - 1 for i in range(d + 1)]
        return path if path[0] < path[-1] else path[::-1]
    if rank <= MAX_CYCLE_RANK_FOR_DELETION:
        for u, v in _find_cycle_edges(rows, comp):
            key = removed | {(min(u, v), max(u, v))}
            if key in seen_removed:
                continue
            seen_removed.add(key)
            rows2 = {w: rows[w] for w in iter_bits(comp)}
            rows2[u] &= ~(1 << v)
            rows2[v] &= ~(1 << u)
            # removing a cycle edge keeps the component connected
            res = _lp_component(rows2, comp, k, seen_removed, key)
            if res is not None:
                return res
        return None
    if size > MAX_DFS_COMPONENT:
        raise PathSearchBudgetError(
            f"path search budget exceeded: dense component of order {size}"
        )
    path = next(_iter_paths_exact(rows, k, comp, prune=True), None)
    return None if path is None else list(path)


def find_path_of_order(g: Graph, k: int, mask: int | None = None) -> list[int] | None:
    """A simple path on >= k vertices (full path returned), or None.  Exact."""
    if k < 1:
        raise ValueError("path order must be >= 1")
    m = full_mask(g.n) if mask is None else mask
    if k == 1:
        return [(m & -m).bit_length() - 1] if m else None
    for comp in component_masks(g, m):
        res = _lp_component(g.rows, comp, k, set(), frozenset())
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


def _iter_paths_exact(
    rows: Sequence[int] | dict[int, int], order: int, mask: int, prune: bool = False
) -> Iterator[tuple[int, ...]]:
    """Paths with exactly `order` vertices within mask, each once (from its
    smaller end), depth first in ascending vertex order.

    With `prune`, a step to u is taken back when fewer vertices than are
    still missing can be reached from u's free neighbours.  That cuts only
    branches that cannot finish a path, so the paths and their order stay
    the same.
    """
    if order == 1:
        for v in iter_bits(mask):
            yield (v,)
        return

    for s in iter_bits(mask):
        # stack[i] holds the next vertices not yet tried after seq[:i+1]
        seq, used = [s], 1 << s
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
            if len(seq) + 1 == order:
                if s < u:
                    yield (*seq, u)
                continue
            seq.append(u)
            used |= low
            nxt = rows[u] & mask & ~used
            if prune:
                reach = sum(map(int.bit_count, bfs_layers(rows, nxt, mask & ~used)))
                if len(seq) + reach < order:
                    seq.pop()
                    used ^= low
                    continue
            stack.append(nxt)


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
    a caller that tests many hosts against one pattern, as the tree scan
    does, prepares the TreePattern itself.
    """
    if not is_tree(host):
        raise ValueError("host is not a tree")
    mapping = TreePattern(pattern).embedding([list(host.neighbors(v)) for v in range(host.n)])
    return None if mapping is None else Witness("subtree", (tuple(mapping),))
