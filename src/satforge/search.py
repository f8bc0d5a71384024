"""Isomorph-free enumeration of small graphs and trees, brute-force
saturation numbers, and exhaustive tree scans.

Free trees come from the Wright-Richmond-Odlyzko-McKay generator, which
visits only canonical level sequences rooted at a centre, in constant
amortised time per tree, and yields each tree's diameter with it.  Graphs
come from canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): a child of a canonical parent is
accepted when its new vertex sits in the orbit of its canonical last
vertex.  The parent prunes before any child is built: from its components
and degrees it skips the neighbourhoods whose new vertex cannot share the
orbit of the canonical last one (_viable's rule), and with the
automorphisms its own canonical pass met it tries one neighbourhood per
orbit, the least.  Two children left are never both accepted and
isomorphic, so every class is produced exactly once across all parents
with no code compared.  A level that becomes parents carries each child's
automorphisms, packed as bytes permutations; the last level asks
canon.accepts, which builds neither, and settles most children from
degrees alone.  Both streams are deterministic.

The saturated-tree scan checks only diameters k-3 and k-2, the only ones a
saturated non-star tree can have (the lemma in _window_heights).  It walks
only the centre-rooted heights that hold them, and counts every other free
tree exactly from the numbers of free trees by order and diameter (Riordan,
"The enumeration of trees by height and diameter", IBM J. Res. Dev. 4,
1960), so its trees_scanned, the trees walked plus the trees counted, is
every free tree of its orders.  It splits the walk into shards, exactly
one per worker process: the generator deals the groups of trees that share
a first subtree round-robin, and passes the other shards' groups by the
jump it already takes past the rootings off the centre, so no worker walks
another's trees; the scan owns the package's one process pool.  Each tree's
parent array, the last vertex one level up in preorder, goes with the
generator's diameter to saturation.tree_is_saturated, the one verdict,
which decides the tree from its chords at distance 3 alone, since one of
them fails whenever any chord does.  A saturated tree's
containment flags come from its adjacency lists and diameter, against the
claimed patterns prepared once per shard, so a Graph is built from the
parent array only for the graph6 of the saturated trees it reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .canon import accepts, augmentation_code
from .constructions import make_small_tree, make_t0k, make_t1k
from .graphs import (
    Graph,
    build_graph,
    component_masks,
    graph6_encode,
    iter_bits,
    tree_adjacency,
)
from .patterns import TreePattern
from .saturation import ForbiddenFamily, check_saturated, tree_is_saturated

DEFAULT_TREE_BUDGET = 22
DEFAULT_GRAPH_BUDGET = 8


class BudgetExceededError(ValueError):
    """Requested order is over the enumeration cap."""


class NoSaturatedGraphError(RuntimeError):
    """No saturated graph of the requested order exists."""


def _env_budget(key: str) -> int:
    """The `trees` or `graphs` cap, overridable via SATFORGE_BUDGET.

    The value is a comma list of entries, each a bare integer (applied to
    both caps) or `trees=N` / `graphs=N`; later entries win.  The whole
    value is checked whichever cap is asked for, so any other entry raises
    ValueError naming the variable and the entry.
    """
    caps = {"trees": DEFAULT_TREE_BUDGET, "graphs": DEFAULT_GRAPH_BUDGET}
    raw = os.environ.get("SATFORGE_BUDGET", "").strip()
    for item in raw.split(",") if raw else ():
        name, eq, value = (t.strip() for t in item.partition("="))
        if not eq and name.isdecimal():
            caps = dict.fromkeys(caps, int(name))
        elif eq and name in caps and value.isdecimal():
            caps[name] = int(value)
        else:
            raise ValueError(
                f"bad SATFORGE_BUDGET entry {item!r}: expected N, trees=N or graphs=N"
            )
    return caps[key]


def _check_budget(key: str, what: str, lo: int, hi: int) -> None:
    """Raise BudgetExceededError unless lo..hi sits inside the `key` cap, or
    ValueError for an order below 1, which no budget admits."""
    if lo < 1:
        raise ValueError(f"{what}: orders start at 1")
    cap = _env_budget(key)
    if not lo <= hi <= cap:
        raise BudgetExceededError(
            f"{what} outside the {key} budget 1..{cap}; "
            f"set SATFORGE_BUDGET={key}=N to raise it"
        )


# ---------------------------------------------------------------------------
# free trees via the Wright-Richmond-Odlyzko-McKay generator
# ---------------------------------------------------------------------------


def _next_rooted(levels: list[int], p: int) -> list[int]:
    """Beyer-Hedetniemi successor of a canonical rooted level sequence
    (root level 1, children non-increasing) at position p: level p drops by
    one and the tail repeats the subtree block that now ends before p."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    block = levels[q:p]
    tail = len(levels) - p
    return levels[:p] + (block * (tail // len(block) + 1))[:tail]


def _iter_free_trees(
    n: int, heights: range | None = None, shards: int = 1, shard: int = 0
) -> Iterator[tuple[list[int], int]]:
    """(level sequence, diameter) per free tree on n vertices, or, given
    heights, per free tree whose centre-rooted height (its largest level) is
    in that range; of those, only the trees of shard `shard` of `shards`.

    Wright, Richmond, Odlyzko and McKay, "Constant time generation of free
    trees" (SIAM J. Comput. 15, 1986).  It walks the canonical rooted level
    sequences in decreasing lex order.  Each is split at the root's second
    child into the first subtree, which is the tallest, and the rest.  The
    root is a centre when the rest is at most one level shallower than the
    first subtree; when it is exactly one shallower the tree is bicentral,
    and the walk keeps the rooting whose first subtree has no more vertices
    than the rest, and is no greater in lex order when they tie.  From any
    other sequence the walk jumps past every sequence that shares its first
    subtree.

    The sequences that share a first subtree are consecutive, so the walk
    meets its groups of centre rootings one after another.  It counts them,
    and takes the same jump past every group whose count is not `shard`
    modulo `shards`; every shard counts the same groups, so the shards split
    the trees between them, each tree to one.  The last group is the star's,
    whose first subtree is one vertex: no jump leaves it, and the walk ends.
    The one tree of order 1 is shard 0's.

    The height never rises along the walk.  So a bounded walk starts at the
    lex-largest rooted sequence of the top height, [1..h] and then h
    repeated, from which the same jump step skips the rootings that are not
    at a centre, and stops once the height falls below the range.  A tree of
    height h has diameter 2h - 2 when central and 2h - 3 when bicentral.

    A bicentral tree is yielded rooted at the end of its central edge whose
    own half is no less, in lex order, than the other half, which may be
    the other end.  That rooting fixes the vertex labels, and so the graph6
    strings, of scan witnesses.
    """
    low, top = (1, n) if heights is None else (heights.start, heights.stop - 1)
    peak = n // 2 + 1  # the height of the path, the tallest tree
    top = min(top, peak)
    if n < 1 or top < low:
        return
    if n == 1:
        if shard == 0:
            yield [1], 0
        return
    if top == peak:
        # the path rooted at its centre
        levels = list(range(1, peak + 1)) + list(range(2, (n + 1) // 2 + 1))
    else:
        levels = list(range(1, top + 1)) + [top] * (n - top)
    group = -1  # the count of the groups met, less one
    fresh = True  # whether levels's first subtree starts a group not yet met
    while True:
        try:
            m = levels.index(2, 2)
        except ValueError:
            m = n
        h = max(levels)
        if h < low:
            return
        rest = max(levels[m:], default=1)
        bicentral = rest == h - 1
        if bicentral:
            first, other = _halves(levels, m)
        off_centre = rest < h - 1 or bicentral and (
            len(first) > len(other) or len(first) == len(other) and first > other
        )
        if fresh and not off_centre:
            group += 1
            fresh = False
        if off_centre or group % shards != shard:
            # not rooted at the generator's centre, or another shard's
            # group: jump past every sequence that shares this first
            # subtree; when it stays tall, the next candidate's rest ends in
            # a branch as deep as that subtree
            p = m - 1
            if levels[p] <= 2:
                return
            jumped = _next_rooted(levels, p)
            if levels[p] > 3:
                try:
                    m = jumped.index(2, 2)
                except ValueError:
                    m = n
                depth = max(jumped[1:m]) - 1
                jumped[n - depth :] = range(2, depth + 2)
            levels = jumped
            fresh = True
            continue
        if not bicentral:
            yield levels, 2 * (h - 1)
        elif other >= first:
            yield levels, 2 * h - 3
        else:
            yield [1] + [x + 1 for x in other] + first[1:], 2 * h - 3
        p = n - 1
        while levels[p] <= 2:
            p -= 1
            if p == 0:
                return
        fresh = p < m
        levels = _next_rooted(levels, p)


def _halves(levels: list[int], m: int) -> tuple[list[int], list[int]]:
    """The two halves of a tree rooted at one end of its central edge, each
    as a level sequence rooted at its own end: the first subtree, and the
    root with the other subtrees."""
    return [x - 1 for x in levels[1:m]], [1] + levels[m:]


def _height_of(diameter: int) -> int:
    """The centre-rooted height, as the largest level, of a tree of the
    given diameter."""
    return (diameter + 3) // 2


def _series_product(a: list[int], b: list[int]) -> list[int]:
    """Product of two power series given as coefficient lists of one
    length, truncated to that length."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def _euler(f: list[int]) -> list[int]:
    """The Euler transform prod_i (1 - x^i)^(-f_i) of a power series with
    no constant term: the multisets of what f counts."""
    size = len(f)
    c = [0] * size  # c_j = sum over d dividing j of d f_d
    for d in range(1, size):
        for j in range(d, size, d):
            c[j] += d * f[d]
    b = [1] + [0] * (size - 1)
    for i in range(1, size):
        b[i] = sum(c[j] * b[i - j] for j in range(1, i + 1)) // i
    return b


def _trees_by_diameter(top: int) -> list[list[int]]:
    """counts[n][d]: the free trees of order n <= top and diameter d.

    Riordan, "The enumeration of trees by height and diameter" (IBM J. Res.
    Dev. 4, 1960).  As power series in the order, the rooted trees of height
    at most r are R_r = x Euler(R_{r-1}), with R_{-1} = 0, and E_r = R_r -
    R_{r-1} counts those of height exactly r.  A tree of diameter 2r is
    rooted at its centre, with height r and at least two children of height
    r - 1: E_r - E_{r-1} R_{r-1}.  One of diameter 2r + 1 is an unordered
    pair of trees of height exactly r joined at their roots: (E_r^2 +
    E_r(x^2)) / 2.
    """
    size = top + 1
    counts = [[0] * n for n in range(size)]
    rooted = exact = [0] * size  # R_{r-1} and E_{r-1}
    for r in range((top + 1) // 2):
        nxt = [0] + _euler(rooted)[:top]
        e = [a - b for a, b in zip(nxt, rooted)]
        below = _series_product(exact, rooted)
        pairs = _series_product(e, e)
        for n in range(2 * r + 1, size):
            counts[n][2 * r] = e[n] - below[n]
            if 2 * r + 1 < n:
                counts[n][2 * r + 1] = (pairs[n] + (0 if n % 2 else e[n // 2])) // 2
        rooted, exact = nxt, e
    return counts


def _parents(levels: Sequence[int]) -> list[int]:
    """Per vertex of a preorder level sequence, its parent (-1 at the root):
    the last vertex seen one level up.  Vertex ids follow preorder."""
    n = len(levels)
    parent = [-1] * n
    chain = [0] * (n + 1)  # chain[l]: the last vertex seen at level l
    for i in range(1, n):
        lvl = levels[i]
        parent[i] = chain[lvl - 1]
        chain[lvl] = i
    return parent


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices,
    in a deterministic order; vertex ids follow preorder."""
    _check_budget("trees", f"tree order {n}", n, n)
    for levels, _ in _iter_free_trees(n):
        yield build_graph(n, enumerate(_parents(levels)[1:], 1))


# ---------------------------------------------------------------------------
# graphs via canonical augmentation
# ---------------------------------------------------------------------------


def _augmented(parent: Graph, neighborhood: int) -> Graph:
    m = parent.n
    rows = [r | (neighborhood >> v & 1) << m for v, r in enumerate(parent.rows)]
    return Graph(m + 1, (*rows, neighborhood))


def _viable(parent: Graph) -> Iterator[int]:
    """The neighbourhoods S of a new vertex, ascending, whose new vertex can
    share the orbit of the child's canonical last vertex.  That vertex lies
    in a component of the largest order, and is a leaf if that component is
    a tree with an edge, else of the component's largest degree.  So S is
    skipped when the new vertex's component is smaller than another one;
    when that component is a tree and |S| > 1; and when it is not a tree
    and some vertex u outdoes |S|, where u counts as deg(u) + 1 if it lies
    in S.  The canonical pass itself has no early exit: this rule is the
    only one applied before a child is built."""
    deg = [r.bit_count() for r in parent.rows]
    comps = []  # (mask, order, is a tree, largest degree)
    for c in component_masks(parent):
        ds = [deg[v] for v in iter_bits(c)]
        comps.append((c, len(ds), sum(ds) == 2 * len(ds) - 2, max(ds)))
    big = max(size for _, size, _, _ in comps)
    # outdo[k]: the vertices that outdo a new vertex of degree k if joined to it
    outdo = [sum(1 << v for v in range(parent.n) if deg[v] >= k) for k in range(parent.n + 1)]
    for s in range(1 << parent.n):
        k = s.bit_count()
        order, tree, top = 1, True, 0
        for c, size, is_tree, most in comps:
            hit = s & c
            if hit:
                order += size
                tree = tree and is_tree and hit & (hit - 1) == 0
                top = max(top, most)
        if order < big:
            continue
        if tree:
            if k > 1:
                continue
        elif k < top or s & outdo[k]:
            continue
        yield s


def _orbit(s: int, moves: list[list[int]]) -> set[int]:
    """The images of the vertex set s under the group that moves span; each
    move lists, per vertex, the bit of its image."""
    orbit = {s}
    todo = [s]
    for s in todo:
        for move in moves:
            t, rest = 0, s
            while rest:
                low = rest & -rest
                t |= move[low.bit_length() - 1]
                rest ^= low
            if t not in orbit:
                orbit.add(t)
                todo.append(t)
    return orbit


def _candidates(parent: Graph, gens: list[bytes]) -> Iterator[Graph]:
    """The children of a canonical parent that can be canonical, at most
    one per child class.  `gens` are permutations that span Aut(parent).

    The neighbourhoods are walked in ascending order.  Those that _viable
    rules out are skipped unbuilt, and so is every one that an automorphism
    of the parent maps from a smaller one: its child is isomorphic to that
    one's, with the same new vertex, so it is
    accepted or rejected alike and adds no class.  Two children left are
    never isomorphic with both accepted (McKay, 1998): the accepted ones
    need no per-parent deduplication.
    """
    moves = [[1 << v for v in perm] for perm in gens]
    covered: set[int] = set()
    for subset in _viable(parent):
        if subset in covered:
            continue
        if moves:
            covered |= _orbit(subset, moves)
        yield _augmented(parent, subset)


def _children(parent: Graph, gens: list[bytes]) -> list[tuple[Graph, list[bytes]]]:
    """Canonical children of a canonical parent, one per child class, each
    with the automorphisms its canonical pass met, as bytes permutations.
    `gens` are the parent's."""
    out = []
    for child in _candidates(parent, gens):
        child_gens: list[bytes] = []
        if augmentation_code(child, parent.n, child_gens) is not None:
            out.append((child, child_gens))
    return out


def _graph_level(n: int) -> list[tuple[Graph, list[bytes]]]:
    level = [(build_graph(1, []), [])]
    for _ in range(n - 1):
        level = [child for parent in level for child in _children(*parent)]
    return level


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of graphs on n vertices, in
    a deterministic order.  The last level yields its children straight
    from canon.accepts, which needs no code and no generators and settles
    most of them from degrees alone."""
    _check_budget("graphs", f"graph order {n}", n, n)
    if n == 1:
        yield build_graph(1, [])
        return
    for parent, gens in _graph_level(n - 1):
        for child in _candidates(parent, gens):
            if accepts(child, parent.n):
                yield child


# ---------------------------------------------------------------------------
# brute-force saturation numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceResult:
    value: int
    witnesses: tuple[bytes, ...]  # graph6 of every minimum saturated class
    classes_examined: int


def sat_bruteforce(n: int, fam: ForbiddenFamily) -> BruteForceResult:
    """Minimum edge count over all fam-saturated graphs of order n, with all
    minimum witnesses, by exhausting the canonical catalogue."""
    best: int | None = None
    witnesses: list[bytes] = []
    examined = 0
    for g in enumerate_graphs(n):
        examined += 1
        if best is not None and g.edge_count > best:
            continue
        if check_saturated(g, fam).is_saturated:
            if best is None or g.edge_count < best:
                best = g.edge_count
                witnesses = [graph6_encode(g)]
            elif g.edge_count == best:
                witnesses.append(graph6_encode(g))
    if best is None:
        raise NoSaturatedGraphError(f"no {fam}-saturated graph of order {n}")
    return BruteForceResult(best, tuple(sorted(witnesses)), examined)


# ---------------------------------------------------------------------------
# saturated-tree scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TreeWitness:
    graph6: bytes
    order: int
    contains: tuple[tuple[str, bool], ...]  # per claimed pattern

    def contains_any(self) -> bool:
        return any(flag for _, flag in self.contains)


@dataclass(frozen=True)
class ScanReport:
    orders: tuple[int, ...]
    k: int
    trees_scanned: int
    trees_checked: int
    saturated_count: int  # len(witnesses)
    witnesses: tuple[TreeWitness, ...]


def claimed_patterns(k: int) -> list[tuple[str, Graph]]:
    """Containment targets recorded for saturated non-star trees.

    Every saturated non-star tree contains one of these.  They are not all
    minimum trees: at k=8 the unique least-order saturated tree is T0_8
    (order 10), while T1_8 (order 11) is saturated and holds no T0_8.  For
    k >= 8 the diameter decides the target: diameter k-3 trees contain
    T0_k, diameter k-2 trees contain T1_k.
    """
    if k == 5:
        return [("T1", make_small_tree("T1"))]
    if k == 6:
        return [("T2", make_small_tree("T2")), ("T3", make_small_tree("T3"))]
    if k == 7:
        return [("T0_7", make_t0k(7))]
    patterns = [(f"T0_{k}", make_t0k(k))]
    if k >= 8:
        patterns.append((f"T1_{k}", make_t1k(k)))
    return patterns


def _window_heights(k: int) -> range:
    """The centre-rooted heights of the non-star trees of diameter k-3 or
    k-2: one when k is even, two when it is odd, except that at k = 5 the
    stars leave only diameter 3.

    For k >= 5 no other non-star tree T is {K3, Pk}-saturated.  A diameter
    of k-1 or more holds Pk.  Take 3 <= d <= k-4 and a longest path p0..pd;
    by maximality a branch off p_i has depth at most min(i, d-i).  The
    chord p0p3 closes a C4 and no triangle, and p0 is a leaf, so a path
    through the chord either ends at p0 or runs p1 p0 p3.  In the second
    case p1's side holds at most 4 vertices (p1, p2 and two below p2) and
    p3's side at most d-2; if p3's side takes p2 instead, the two sides hold
    at most 6 together, 5 when d = 3.  In the first, the rest is a path of T
    from p3 with at most max(d-2, 4) vertices.  Either way the path has at
    most d+3 < k vertices, so T + p0p3 holds no member and T is not
    saturated.
    """
    return range(_height_of(max(k - 3, 3)), _height_of(k - 2) + 1)


def _scan_shard(job: tuple) -> tuple[int, int, list[TreeWitness]]:
    """(walked, checked, witnesses) over the trees of the window's heights
    that the generator deals to shard `shard` of `shards` at each order:
    every `shards`-th group of trees with one first subtree.  A walked tree
    is checked when its diameter is k-3 or k-2.

    Each checked tree goes to tree_is_saturated, the one verdict, as its
    parent array with the generator's diameter.  A saturated tree's
    containment flags come from its adjacency lists and diameter, against
    the claimed patterns prepared once per shard; only its graph6 needs it
    built as a Graph, from the parent array."""
    orders, k, shards, shard = job
    heights = _window_heights(k)
    patterns = [(name, TreePattern(pat)) for name, pat in claimed_patterns(k)]
    walked = checked = 0
    witnesses: list[TreeWitness] = []
    flag_sets: dict = {}
    for n in orders:
        for levels, diam in _iter_free_trees(n, heights, shards, shard):
            walked += 1
            if diam not in (k - 3, k - 2):
                continue
            checked += 1
            parent = _parents(levels)
            if not tree_is_saturated(parent, diam, k):
                continue
            adj = tree_adjacency(parent)
            flags = tuple(
                (name, pat.embedding(adj, diam) is not None) for name, pat in patterns
            )
            # witnesses share one tuple per distinct flag set, in memory
            # and through pickling
            flags = flag_sets.setdefault(flags, flags)
            tree = build_graph(n, enumerate(parent[1:], 1))
            witnesses.append(TreeWitness(graph6_encode(tree), n, flags))
    return walked, checked, witnesses


def scan_saturated_trees(orders: Sequence[int], k: int, *, threads: int = 1) -> ScanReport:
    """Saturation-scan every non-star free tree of the given orders against
    {triangle, k-path}; saturated trees are reported with containment flags
    against the claimed minimum trees, ordered by (order, graph6).

    Only diameters k-3 and k-2 are checked, since no other non-star tree is
    saturated (_window_heights), and only the centre-rooted heights that
    hold them are walked; the trees of the other heights are counted
    exactly from their numbers by order and diameter, so trees_scanned, the
    trees walked plus the trees counted, is every free tree of the orders.
    Each checked tree gets one verdict, tree_is_saturated, from its parent
    array: its chords at distance 3 decide it.  The walk is dealt into
    min(threads, os.cpu_count()) shards, one per worker process of a fresh
    pool: at each order the generator deals its groups of trees that share
    a first subtree round-robin and jumps past the other shards' groups, so
    no worker walks the trees of another and a larger thread count starts
    no more processes.  One shard runs inline.  The report is the same for
    every thread count.
    """
    if k < 5:
        raise ValueError("scan needs k >= 5")
    orders = tuple(sorted(set(orders)))
    if not orders:
        raise ValueError("scan needs at least one order")
    lo, hi = orders[0], orders[-1]
    _check_budget("trees", f"tree orders {lo}..{hi}", lo, hi)
    window = _window_heights(k)
    counts = _trees_by_diameter(hi)
    counted = sum(
        c for n in orders for d, c in enumerate(counts[n]) if _height_of(d) not in window
    )
    shards = min(max(1, threads), os.cpu_count() or 1)
    jobs = [(orders, k, shards, s) for s in range(shards)]
    if shards == 1:
        parts = [_scan_shard(jobs[0])]
    else:
        # imported here, not at the top: the import is a large part of a
        # fresh interpreter's start-up, and one shard needs no pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shards) as pool:
            parts = list(pool.map(_scan_shard, jobs))
    witnesses = tuple(
        sorted((w for p in parts for w in p[2]), key=lambda w: (w.order, w.graph6))
    )
    return ScanReport(
        orders=orders,
        k=k,
        trees_scanned=counted + sum(p[0] for p in parts),
        trees_checked=sum(p[1] for p in parts),
        saturated_count=len(witnesses),
        witnesses=witnesses,
    )
