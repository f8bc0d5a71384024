"""Forbidden-family algebra and the saturation decision procedure.

A family member is a clique, a path, a disjoint union of cliques and paths,
or a hub joined to a linear forest.  A graph is family-saturated when it is
member-free and every added non-edge creates a member.  Non-edges are always
decided in ascending order, so the reported failure is the smallest one
whatever the execution strategy, and each verdict names its strategy.
Every strategy gives its failing non-edges as one lazy ascending stream:
check_saturated reads its first item and saturation_gap all of it, so a
check stops testing pairs at the first failure.

Two structure-aware scans decide whole components at once instead of one
non-edge at a time:

* "forest": a forest against {Pk} or {K3, Pk} is member-free exactly when
  every component has diameter below k-1.  One BFS per tree gives every
  vertex's longest arms (_arms), and from them its eccentricity and the
  tree's diameter.  A tree none of whose chords fails is found from its
  chords at distance 3, and at distance 2 against {Pk}, each in O(1) from
  the arms, by a lemma proved in tree_is_saturated's docstring; so its
  chords are never tested one by one.  In any other tree one pass from a
  vertex u, chord_reach, gives the longest path through every chord from
  u, computed on first use, so such a tree of order m costs O(m^2).  The
  tree scan's one verdict, tree_is_saturated, takes a free tree as its
  preorder parent array with its diameter and runs the same distance-3
  test straight off the parents, so the verdict runs no BFS and costs O(n)
  plus one step per path on 4 vertices.
  A pair in two trees fails exactly when ecc(u) + ecc(v) + 2 < k, so one
  mask of the vertices of eccentricity at most t, per threshold t, gives
  all of u's failing partners at once.
* "triangle_table": against the single member K3 u Pk, the same
  arithmetic decides every pair between trees that hold no Pk, and clears
  such a tree by the same arm test.  Only pairs that touch another
  component go through per-triangle tables built over those components
  alone.  A chord whose ends have a common neighbour w searches for a Pk
  avoiding u, v and w only when no Pk copy found so far in the scan
  avoids them.  The K3 u Pk detector itself looks for Pk only in the
  components, left by each triangle, that have order at least k and, for
  a tree, diameter at least k-1.

Everything else goes through the "generic" scan, one lazy loop that asks,
per non-edge in turn, whether a member uses it: a clique through the new
edge is a smaller clique in the common neighbourhood of its ends, and the
other members run their detectors on the graph with the edge added.

A family whose members are all hubs joined to linear forests, K1*F, is
first peeled at a universal vertex h of g, the least one, when g has two
vertices or more: g holds K1*F exactly when g - h holds F, and no non-edge
touches h, so g is decided as g - h against the family of the Fs (K1*[a]
becomes Pa, K1*[a,b,...] becomes Pa+Pb+...) by the dispatch above, and its
failures are mapped back past h.  The verdict's strategy is "hub+" and the
strategy that decided g - h, so K1 joined to a tree is "hub+forest" at
O(m^2).  When g - h holds a member, the whole-graph detector gives the
witness, the same as without the peel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .graphs import (
    Graph,
    component_masks,
    delete_vertex,
    full_mask,
    iter_bits,
    longest_path_layers,
)
from .patterns import (
    Witness,
    contains_join_k1,
    contains_linear_forest,
    find_path_of_order,
    has_clique,
    has_path_of_order,
    iter_cliques,
    witness_ok,
)


# ---------------------------------------------------------------------------
# family members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clique:
    p: int

    def __str__(self) -> str:
        return f"K{self.p}"

    @property
    def order(self) -> int:
        return self.p


@dataclass(frozen=True)
class Path:
    k: int

    def __str__(self) -> str:
        return f"P{self.k}"

    @property
    def order(self) -> int:
        return self.k


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple["Clique | Path", ...]

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)

    @cached_property
    def order(self) -> int:
        return sum(p.order for p in self.parts)


@dataclass(frozen=True)
class JoinK1:
    orders: tuple[int, ...]

    def __str__(self) -> str:
        return "K1*[" + ",".join(str(o) for o in self.orders) + "]"

    @cached_property
    def order(self) -> int:
        return 1 + sum(self.orders)


Member = Clique | Path | DisjointUnion | JoinK1


def _validate_member(m: Member) -> None:
    if isinstance(m, Clique):
        if m.p < 2:
            raise ValueError(f"clique member needs p >= 2, got {m.p}")
    elif isinstance(m, Path):
        if m.k < 2:
            raise ValueError(f"path member needs k >= 2, got {m.k}")
    elif isinstance(m, DisjointUnion):
        if len(m.parts) < 2:
            raise ValueError("disjoint union needs at least two parts")
        for part in m.parts:
            if not isinstance(part, (Clique, Path)):
                raise ValueError("union parts must be cliques or paths")
            _validate_member(part)
    elif isinstance(m, JoinK1):
        if not m.orders or any(o < 2 for o in m.orders):
            raise ValueError("joined linear forest orders must all be >= 2")
    else:
        raise ValueError(f"unknown member {m!r}")


@dataclass(frozen=True)
class ForbiddenFamily:
    members: tuple[Member, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("family needs at least one member")
        for m in self.members:
            _validate_member(m)

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.members)


_ATOM_RE = re.compile(r"^([KP])(\d+)$")


def _parse_atom(tok: str) -> Clique | Path:
    m = _ATOM_RE.match(tok)
    if not m:
        raise ValueError(f"cannot parse pattern atom {tok!r}")
    kind, num = m.group(1), int(m.group(2))
    return Clique(num) if kind == "K" else Path(num)


def _parse_member(tok: str) -> Member:
    tok = tok.strip()
    if tok.startswith("K1*"):
        body = tok[3:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"join member needs K1*[a,b,...], got {tok!r}")
        try:
            orders = tuple(int(x) for x in body[1:-1].split(",") if x.strip())
        except ValueError:
            raise ValueError(f"join member {tok!r} has an order that is not an integer") from None
        return JoinK1(orders)
    if "+" in tok:
        return DisjointUnion(tuple(_parse_atom(t.strip()) for t in tok.split("+")))
    return _parse_atom(tok)


def parse_family(text: str) -> ForbiddenFamily:
    """Family syntax: "K3", "P10", "K3+P10", "K1*[2,3]"; commas separate members."""
    parts = [t for t in _split_members(text) if t.strip()]
    if not parts:
        raise ValueError("empty family string")
    return ForbiddenFamily(tuple(_parse_member(t) for t in parts))


def _split_members(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


# ---------------------------------------------------------------------------
# member detection
# ---------------------------------------------------------------------------


def _find_union(g: Graph, parts: Sequence[Clique | Path]) -> Witness | None:
    """Disjoint embeddings for every union part, searched cliques-first."""
    clique_idx = [i for i, m in enumerate(parts) if isinstance(m, Clique)]
    path_idx = [i for i, m in enumerate(parts) if isinstance(m, Path)]
    orders = [parts[i].k for i in path_idx]
    placed: dict[int, tuple[int, ...]] = {}
    # the paths look only in components that can hold the shortest one; a
    # component of g - cliques lies in a component of g, so narrow g first
    hosts = full_mask(g.n)
    if clique_idx and orders:
        hosts = _path_hosts(g, hosts, min(orders))

    def place_clique(j: int, free: int) -> bool:
        if j == len(clique_idx):
            if not orders:
                return True
            lf = contains_linear_forest(g, orders, mask=_path_hosts(g, free & hosts, min(orders)))
            if lf is None:
                return False
            for i, seq in zip(path_idx, lf.parts):
                placed[i] = seq
            return True
        idx = clique_idx[j]
        for cl in iter_cliques(g, parts[idx].p, mask=free):
            used = 0
            for v in cl:
                used |= 1 << v
            placed[idx] = cl
            if place_clique(j + 1, free & ~used):
                return True
        placed.pop(idx, None)
        return False

    if not place_clique(0, full_mask(g.n)):
        return None
    return Witness("disjoint_union", tuple(placed[i] for i in range(len(parts))))


def _path_hosts(g: Graph, free: int, k: int) -> int:
    """The components of g[free] that can hold a path of order k: order at
    least k and, for a tree, diameter at least k-1.  Every path of order
    >= k within free lies in one of them."""
    hosts = 0
    for m in component_masks(g, free):
        if m.bit_count() < k:
            continue
        if _is_tree(g, m) and len(longest_path_layers(g.rows, m)) < k:
            continue
        hosts |= m
    return hosts


def find_member(g: Graph, member: Member) -> Witness | None:
    """A copy of the member in g, or None; a member with more vertices than
    g has none, and is not searched for."""
    if member.order > g.n:
        return None
    if isinstance(member, Clique):
        return has_clique(g, member.p)
    if isinstance(member, Path):
        return has_path_of_order(g, member.k)
    if isinstance(member, DisjointUnion):
        return _find_union(g, member.parts)
    return contains_join_k1(g, member.orders)


def contains_member(g: Graph, fam: ForbiddenFamily) -> Witness | None:
    """Witness for the first member (in family order) present in g."""
    for member in fam.members:
        w = find_member(g, member)
        if w is not None:
            return w
    return None


def member_witness_ok(g: Graph, member: Member, w: Witness) -> bool:
    """Full validation of a witness against its member shape."""
    if not witness_ok(g, w):
        return False
    if isinstance(member, Clique):
        return w.kind == "clique" and len(w.parts[0]) == member.p
    if isinstance(member, Path):
        return w.kind == "path" and len(w.parts[0]) == member.k
    if isinstance(member, JoinK1):
        return (
            w.kind == "join_k1"
            and len(w.parts) == len(member.orders) + 1
            and all(len(seq) == o for seq, o in zip(w.parts[1:], member.orders))
        )
    # witness_ok has checked that the parts share no vertex
    return (
        w.kind == "disjoint_union"
        and len(w.parts) == len(member.parts)
        and all(
            member_witness_ok(
                g, shape, Witness("clique" if isinstance(shape, Clique) else "path", (part,))
            )
            for part, shape in zip(w.parts, member.parts)
        )
    )


# ---------------------------------------------------------------------------
# saturation verdicts
# ---------------------------------------------------------------------------

SATURATED = "saturated"
CONTAINS_MEMBER = "contains_member"
MISSING_EDGE = "missing_edge"


@dataclass(frozen=True)
class SaturationVerdict:
    """A verdict, its witness or smallest failing non-edge, and the strategy
    that reached it: "detector" (g holds a member), "forest",
    "triangle_table" or "generic" (the non-edge scan that decided), or
    "hub+" and one of those scans when a K1*F family was decided on g less
    a universal vertex.  The strategy takes no part in equality."""

    status: str
    witness: Witness | None = None
    missing_edge: tuple[int, int] | None = None
    strategy: str | None = field(default=None, compare=False)

    @property
    def is_saturated(self) -> bool:
        return self.status == SATURATED

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = {
                "kind": self.witness.kind,
                "parts": [list(p) for p in self.witness.parts],
            }
        if self.missing_edge is not None:
            out["missing_edge"] = list(self.missing_edge)
        if self.strategy is not None:
            out["strategy"] = self.strategy
        return out


def check_saturated(g: Graph, fam: ForbiddenFamily) -> SaturationVerdict:
    """Saturated iff g is member-free and every non-edge creates a member.

    The reported failure is always the ascending-smallest one.
    """
    strategy, w, failures = _decide(g, fam)
    if w is not None:
        return SaturationVerdict(CONTAINS_MEMBER, witness=w, strategy=strategy)
    first = next(failures, None)
    if first is not None:
        return SaturationVerdict(MISSING_EDGE, missing_edge=first, strategy=strategy)
    return SaturationVerdict(SATURATED, strategy=strategy)


def saturation_gap(g: Graph, fam: ForbiddenFamily) -> list[tuple[int, int]]:
    """All non-edges whose addition creates no member (empty iff saturated)."""
    _, w, failures = _decide(g, fam)
    if w is not None:
        raise ValueError("graph already contains a family member")
    return list(failures)


def tree_is_saturated(parent: list[int], diameter: int, k: int) -> bool:
    """Whether a tree is {K3, Pk}-saturated, as check_saturated decides it
    for the tree's graph, from its preorder parent array (parent[0] == -1,
    parent[i] < i) and its diameter.

    A tree of diameter k-1 or more holds Pk.  Any other is member-free, a
    chord at distance 2 closes a triangle and one farther away closes none,
    so the tree fails exactly at a chord at distance more than 2 whose
    longest path has fewer than k vertices.  By this lemma its chords at
    distance 3 alone decide it (_fails_at_distance_3), from arms read off
    the parents: preorder puts each parent before its children, so the
    verdict needs no BFS.

    Lemma.  Let T have diameter D <= k-2.  If a chord uv at distance
    d >= 4 fails, so does some chord at distance 3.

    Proof.  Let p0..pd be the path from u to v and h_j the depth of what
    hangs at p_j off it (at p0 and pd, the rest of u's and v's sides).  A
    path through uv runs from u along to some p_s and h_s down, and from v
    back to some p_t, t > s, and h_t down, so uv fails iff
    L(s, t) = s + h_s + d - t + h_t <= k-3 for all s < t.  The tree path
    between the two bottoms has h_s + t - s + h_t <= D edges.  A chord
    c_i = p_i p_{i+3} succeeds iff L' = |s-i| + h_s + |t-i-3| + h_t >= k-2
    for a pair of ends p_s on p_i's side (s <= i+2) and p_t on p_{i+3}'s
    (t >= i+1), s < t.  As uv fails, L' must exceed L(s, t), and:
    - s and t in i..i+3: L' = L(s, t) - (d-3);
    - s < i and t > i+3: L' = h_s + t - s + h_t - 3 <= D - 3;
    - s in i..i+2, t > i+3: L' - L(s, t) = 2t - 2i - 3 - d;
    - s < i, t in i+1..i+3: L' - L(s, t) = 2i - 2s + 3 - d.
    So c_i succeeds only through a pair with 2t >= 2i + d + 4 or
    2s <= 2i + 2 - d.  For odd d, c_i with i = (d-3)/2 has neither, since
    0 <= s < t <= d, and fails.  For d = 2m, c_{m-2} has only t = d, and
    c_{m-1} only s = 0; the other end is then p_m, as p_{m-1}, p_{m+1} and
    the chord's own ends give L' <= D - 1.  If both succeed, then
    L(m, d) = L(0, m) = k-3, so h_0 = h_d = a with a + m + h_m = k-3.
    L(m-1, m) <= k-3 gives a >= m-1 + h_{m-1} >= 1, and L(1, m) <= k-3
    gives h_1 <= a-1.  Let x be u's neighbour off the path on a branch of
    depth a.  The chord x p2 at distance 3 has sides of depths a-1 (x),
    at most a (u), h_1 <= a-1 (p1) and t-2 + h_t for some t >= 2 (p2), and
    a + t + h_t <= D.  Its three pairs of adjacent sides each sum to at
    most max(2a-1, D-3) < k-4, as 2a + d <= D.  So x p2 fails.

    A chord xy at distance 3, on the path x q1 q2 y, has four sides: H_x,
    x's depth away from q1; h1 and h2, what hangs at q1 and q2; and H_y.
    By L with d = 3, it succeeds iff
    max(H_x + h1, h1 + h2, h2 + H_y) >= k-4: the other three pairs of
    sides end a tree path of at most D edges, so their L is at most D - 1.

    The lemma reads only path lengths and D <= k-2, not what a chord at
    distance 2 closes, so it holds against {Pk} as well, where a chord at
    distance 2 can fail too; _fails_at_distance_3 then tests those.
    """
    if diameter >= k - 1:
        return False
    return not _fails_at_distance_3(parent, _arms(parent, range(len(parent))), k, True)


def _arms(parent: list[int], order: Sequence[int]):
    """Per vertex of a tree, its three longest arms through its children
    (a1 >= a2 >= a3, 0 when there are fewer), its arm through its parent
    (up, 0 at the root) and its children, from each vertex's parent (-1 at
    the root) and the vertices in an order that starts at the root and puts
    each parent before its children, as chord_reach takes them.

    An arm of v is the longest path that leaves v through one neighbour,
    counted in edges.  A reverse sweep gives the arms through children and
    a forward sweep the arm through the parent.
    """
    n = len(parent)
    a1 = [0] * n
    a2 = [0] * n
    a3 = [0] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    below = order[1:]  # every vertex but the root
    for v in reversed(below):
        p = parent[v]
        kids[p].append(v)
        h = a1[v] + 1
        if h > a2[p]:
            a3[p] = a2[p]
            if h > a1[p]:
                a2[p] = a1[p]
                a1[p] = h
            else:
                a2[p] = h
        elif h > a3[p]:
            a3[p] = h
    up = [0] * n
    for v in below:
        p = parent[v]
        side = a2[p] if a1[v] + 1 == a1[p] else a1[p]
        u = up[p]
        up[v] = (u if u > side else side) + 1
    return a1, a2, a3, up, kids


def _fails_at_distance_3(parent: list[int], arms, k: int, closes_two: bool) -> bool:
    """Whether some chord at distance 3 of a tree of diameter at most k-2
    fails, by tree_is_saturated's test on every path x q1 q2 y, from the
    parents and _arms of the tree rooted at vertex 0; and, unless a chord at
    distance 2 closes a member (closes_two), whether one at distance 2
    fails.  By tree_is_saturated's lemma, the tree has a failing chord
    exactly when this is true.

    Each path x q1 q2 y is taken once, by its middle edge q1 = parent[q2]
    and q2, so y is a child of q2 and x another neighbour of q1; all four
    sides are read off the arms, so each path costs O(1).

    A chord xy at distance 2 through q, where q's arms through x and y have
    lengths A_x and A_y and its longest other arm h (0 for none), fails iff
    max(A_x + h, A_y + h, A_x + A_y - 2) <= k-3: a path through xy ends at
    x's and y's far ends, or turns at q into its other arm.  With q's arms
    sorted as A, two pairs give the least of this: a pair that leaves out
    A[-1] has h = A[-1] and costs at least A[1] + A[-1], which (A[0], A[1])
    costs; a pair that holds A[-1] but not A[-2] has h >= A[-2] and costs
    at least A[-2] + A[-1], which (A[-2], A[-1]), with h = A[-3], does not
    exceed.  So (A[0], A[-1]) is never needed.
    """
    a1, a2, a3, up, kids = arms
    if not closes_two:
        top = k - 3
        for q, ys in enumerate(kids):
            at_q = sorted([a1[y] + 1 for y in ys] + ([up[q]] if q else []))
            m = len(at_q)
            if m > 1 and (
                max(at_q[-1] + (at_q[-3] if m > 2 else 0), at_q[-2] + at_q[-1] - 2) <= top
                or m > 2 and at_q[1] + at_q[-1] <= top
            ):
                return True
    top = k - 4
    for q2 in range(1, len(kids)):
        ys = kids[q2]
        if not ys:
            continue
        q1 = parent[q2]
        # q1's two longest arms but the one through q2, so h1 is r1, or r2
        # when x's arm is r1; an arm's value names it, as equal arms are
        # interchangeable
        hq = a1[q2] + 1
        if hq == a1[q1]:
            c1, c2 = a2[q1], a3[q1]
        elif hq == a2[q1]:
            c1, c2 = a1[q1], a3[q1]
        else:
            c1, c2 = a1[q1], a2[q1]
        u = up[q1]
        if u > c1:
            r1, r2 = u, c1
        else:
            r1, r2 = c1, (u if u > c2 else c2)
        xs = [a1[x] + 1 for x in kids[q1] if x != q2]  # q1's arm through x
        if q1:
            xs.append(u)
        b1, b2 = a1[q2], a2[q2]
        for hx in xs:  # H_x = hx - 1
            h1 = r2 if hx == r1 else r1
            if hx + h1 > top:
                continue
            for y in ys:  # H_y = a1[y]
                hy = a1[y] + 1
                h2 = b2 if hy == b1 else b1
                if h1 + h2 < top and h2 + hy <= top:
                    return True
    return False


def _decide(g: Graph, fam: ForbiddenFamily) -> tuple[str, Witness | None, Iterator[tuple[int, int]]]:
    """The strategy, and the first member witness of g or else a lazy
    ascending iterator over its failing non-edges.

    A forest holds no triangle, and it holds Pk exactly when some component
    has diameter at least k-1, so a member-free forest against {Pk} or
    {K3, Pk} goes to its scan without running the detectors.

    The hub peel is exact: a K1*F copy whose hub is not h gives an F in
    g - h, its hub taking h's place when h lies in the F, and an F in g - h
    gives K1*F with h.  No non-edge touches h, and the map back past h is
    monotone, so failures stay ascending.
    """
    hub = _hub(g, fam)
    if hub is not None:
        h, base = hub
        strategy, w, failures = _decide(delete_vertex(g, h), base)
        if w is None:
            return "hub+" + strategy, None, ((u + (u >= h), v + (v >= h)) for u, v in failures)
    shape = _forest_shape(fam)
    if shape is not None:
        forest = _Forest.of(g)
        if forest is not None and forest.diameter < shape[0] - 1:
            return "forest", None, _scan_forest(forest, *shape)
    w = contains_member(g, fam)
    if w is not None:
        return "detector", w, iter(())
    k = _k3_cup_pk_shape(fam)
    if k is not None:
        return "triangle_table", None, _scan_k3_cup_pk(g, k)
    return "generic", None, _scan_generic(g, fam)


def _hub(g: Graph, fam: ForbiddenFamily) -> tuple[int, ForbiddenFamily] | None:
    """The least vertex adjacent to every other and the family with each
    K1*[a,b,...] as Pa+Pb+..., when every member is a K1*F and g has at
    least two vertices and such a hub; else None."""
    base = []
    for m in fam.members:
        if not isinstance(m, JoinK1):
            return None
        paths = tuple(map(Path, m.orders))
        base.append(paths[0] if len(paths) == 1 else DisjointUnion(paths))
    h = next((v for v, r in enumerate(g.rows) if r.bit_count() == g.n - 1), None)
    if g.n < 2 or h is None:
        return None
    return h, ForbiddenFamily(tuple(base))


def _forest_shape(fam: ForbiddenFamily) -> tuple[int, bool] | None:
    """(k, whether a chord at distance 2 creates a member) when the family
    is exactly {Pk} or {K3, Pk}, else None."""
    paths = [m for m in fam.members if isinstance(m, Path)]
    rest = [m for m in fam.members if not isinstance(m, Path)]
    if len(paths) != 1 or rest not in ([], [Clique(3)]):
        return None
    return paths[0].k, bool(rest)


def _k3_cup_pk_shape(fam: ForbiddenFamily) -> int | None:
    """k when the family is the single member K3 u Pk, else None."""
    if len(fam.members) != 1 or not isinstance(fam.members[0], DisjointUnion):
        return None
    parts = fam.members[0].parts
    if len(parts) != 2:
        return None
    cliques = [p for p in parts if isinstance(p, Clique)]
    paths = [p for p in parts if isinstance(p, Path)]
    if len(cliques) == 1 and len(paths) == 1 and cliques[0].p == 3:
        return paths[0].k
    return None


# ---------------------------------------------------------------------------
# forest arithmetic
# ---------------------------------------------------------------------------


def _is_tree(g: Graph, mask: int) -> bool:
    edges2 = sum((g.rows[v] & mask).bit_count() for v in iter_bits(mask))
    return edges2 == 2 * (mask.bit_count() - 1)


def _mask(vertices, n: int) -> int:
    """Bitmask of the given vertices of an order-n graph, in linear time."""
    buf = bytearray(n // 8 + 1)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _at_most(values: list[int], vertices: list[int], top: int, n: int) -> list[int]:
    """For t = 0..top, the mask of the given vertices whose value is <= t."""
    return [_mask((v for v in vertices if values[v] <= t), n) for t in range(top + 1)]


def _bfs(adj: list[list[int]], s: int) -> tuple[list[int], list[int], list[int]]:
    """Distances and parents (-1 at s) from s over adjacency lists, and the
    vertices in visiting order.  A breadth-first search of its own, not
    graphs.bfs_layers: the chord arithmetic reads distances by vertex, which
    layer masks do not give."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[s] = 0
    order = [s]
    for x in order:
        dx = dist[x] + 1
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dx
                parent[y] = x
                order.append(y)
    return dist, parent, order


def chord_reach(dist: list[int], parent: list[int], order: Sequence[int]) -> list[int]:
    """Per vertex v of a tree rooted at u, the order of the longest path
    through a new chord uv (entries for u and its children are not chords
    and mean nothing), from each vertex's distance from u and parent (-1 at
    u), and the vertices in an order that starts at u and puts each parent
    before its children.

    Take the tree path u = p0..pd = v, let h_j be the height of what hangs
    at p_j off the path and H(v) the height of v's subtree.  A path through
    uv leaves u along the tree path to some p_j and ends h_j below it; it
    leaves v either down v's subtree or back along the path to a later p_j',
    ending h_j' below that.  So with P = max_{j<d}(j + h_j) and
    W = max_{1<=j<d}(max_{i<j}(i + h_i) + h_j - j) the longest one has order
    2 + max(d + W, P + H(v)).  A reverse pass gives the heights with the top
    two child heights per vertex, and a forward pass carries P and W down
    the tree.
    """
    m = len(dist)
    below = order[1:]  # every vertex but u
    top = [0] * m      # height of x's subtree: its highest child plus one
    second = [0] * m   # the same over the children but one that gives top
    for x in reversed(below):
        p = parent[x]
        h = top[x] + 1
        if h > top[p]:
            second[p] = top[p]
            top[p] = h
        elif h > second[p]:
            second[p] = h
    pre = [0] * m      # P for the path from u to x
    wide = [0] * m     # W for that path, -m while it is empty
    reach = [0] * m
    for x in below:
        p = parent[x]
        t = top[x]
        # what hangs at p off the path to x: a highest child other than x
        hang = second[p] if t + 1 == top[p] else top[p]
        dp = dist[p]
        if dp:
            a, b = pre[p], dp + hang
            pre[x] = a if a > b else b
            a, b = wide[p], pre[p] + hang - dp
            wide[x] = a if a > b else b
        else:
            pre[x] = hang
            wide[x] = -m
        a, b = dist[x] + wide[x], pre[x] + t
        reach[x] = (a if a > b else b) + 2
    return reach


class _Forest:
    """Vertex-disjoint parts of a graph g, each inducing a tree.

    Each part is kept as its ascending vertex list and, per position, the
    ascending positions of its neighbours, read from g's bit rows.  One BFS
    from the part's least vertex gives its parents and, by _arms, every
    vertex's longest arms: a vertex's eccentricity is its longest arm, and
    the part's diameter the largest eccentricity.

    A reach row, from one pass over the part, holds the order of the
    longest path through each chord from one vertex, indexed by position in
    the part's ascending vertex list.  It is computed on first use, so
    memory and time follow the part sizes and the vertices a scan reaches,
    never the order of the whole graph squared.  later() first decides
    whether any chord of the part fails, by the rule chord_fails set, from
    the arms alone; a part where none fails lists no partners and never
    builds a reach row.
    """

    def __init__(self, g: Graph, parts: list[int]):
        n = g.n
        self.n = n
        self.rows = rows = g.rows
        self.parts = parts
        self.verts = verts = [list(iter_bits(m)) for m in parts]
        self.comp_of = comp_of = [-1] * n
        self.index = index = [0] * n
        for ci, vs in enumerate(verts):
            for i, v in enumerate(vs):
                comp_of[v] = ci
                index[v] = i
        self.adj = adj = []  # the bit loop is inline for speed
        for m, vs in zip(parts, verts):
            part = []
            for v in vs:
                nbrs = []
                x = rows[v] & m
                while x:
                    low = x & -x
                    nbrs.append(index[low.bit_length() - 1])
                    x ^= low
                part.append(nbrs)
            adj.append(part)
        self.ecc = ecc = [-1] * n  # per vertex, its eccentricity in its part
        self.trees = []  # per part, its parents by position and their arms
        self.diameters = []
        for vs, nbrs in zip(verts, adj):
            _, parent, order = _bfs(nbrs, 0)
            arms = _arms(parent, order)
            self.trees.append((parent, arms))
            part_ecc = list(map(max, arms[0], arms[3]))  # a1 and up
            for v, e in zip(vs, part_ecc):
                ecc[v] = e
            self.diameters.append(max(part_ecc))
        self.diameter = max(self.diameters, default=0)
        self._reach: list[list[int] | None] = [None] * n
        self.clean: list[bool | None] = [None] * len(parts)
        self.rule: tuple[int, bool, bool] | None = None

    @classmethod
    def of(cls, g: Graph) -> "_Forest | None":
        """The components of g, when g is a forest."""
        if g.edge_count >= g.n:
            return None
        comps = component_masks(g)
        if g.edge_count != g.n - len(comps):
            return None
        return cls(g, comps)

    def _bfs(self, v: int) -> tuple[list[int], list[int], list[int]]:
        """_bfs from v over its part, by position in the part."""
        return _bfs(self.adj[self.comp_of[v]], self.index[v])

    def later(self, u: int) -> list[int]:
        """The non-neighbours of u in its part above u, ascending; none in
        a part where no chord fails by the rule chord_fails set, decided on
        the part's first call."""
        c = self.comp_of[u]
        clean = self.clean[c]
        if clean is None:
            clean = self.clean[c] = self._clean(c)
        if clean:
            return []
        vs = self.verts[c]
        s = self.index[u]
        near = set(self.adj[c][s])
        return [vs[j] for j in range(s + 1, len(vs)) if j not in near]

    def _clean(self, c: int) -> bool:
        """Whether no chord of part c fails by the rule.  By path length,
        for a part of diameter at most k-2, that is _fails_at_distance_3's
        test; otherwise every chord fails but, when closes_two, those at
        distance 2, so the part is clean iff it has no other chord."""
        k, closes_two, by_path = self.rule
        if not by_path:
            return self.diameters[c] <= (2 if closes_two else 1)
        parent, arms = self.trees[c]
        return not _fails_at_distance_3(parent, arms, k, closes_two)

    def reach_row(self, u: int) -> list[int]:
        """Per position in u's part, the order of the longest path through a
        new chord from u to that vertex, from one chord_reach pass computed
        on first use (entries for u and its neighbours are not chords and
        mean nothing)."""
        r = self._reach[u]
        if r is None:
            r = self._reach[u] = chord_reach(*self._bfs(u))
        return r

    def reach(self, u: int, v: int) -> int:
        """Order of the longest path through a new chord uv of one part."""
        return self.reach_row(u)[self.index[v]]

    def chord_fails(self, k: int, closes_two: bool, by_path: bool):
        """fails(u, v) for a chord inside one part: it succeeds at distance
        2 (a common neighbour in the part) when closes_two, and else, when
        by_path, when the longest path through it has order >= k.  The rule
        is kept for later()."""
        self.rule = k, closes_two, by_path
        rows, parts, comp_of = self.rows, self.parts, self.comp_of

        def fails(u: int, v: int) -> bool:
            if closes_two and rows[u] & rows[v] & parts[comp_of[u]]:
                return False
            return not by_path or self.reach(u, v) < k

        return fails


def _ascending_failures(n: int, partners) -> Iterator[tuple[int, int]]:
    """Failing non-edges in ascending order, lazily.

    partners(u) describes the non-neighbours of u above it as (tested,
    fails, failing): tested lists, ascending, those that fails(u, v) decides
    one at a time, and the mask failing holds the others that are known to
    fail (its bits at or below u are ignored).  The known failures below v
    are yielded before (u, v) is tested, so a reader that stops at the
    first failure tests no pair above it.
    """
    for u in range(n):
        tested, fails, failing = partners(u)
        known = iter_bits(failing >> (u + 1) << (u + 1))
        w = next(known, n)
        for v in tested:
            while w < v:
                yield u, w
                w = next(known, n)
            if fails(u, v):
                yield u, v
        while w < n:
            yield u, w
            w = next(known, n)


def _scan_forest(f: _Forest, k: int, closes_two: bool) -> Iterator[tuple[int, int]]:
    """Failing non-edges of a member-free forest against {Pk}, or {K3, Pk}
    when closes_two.

    A chord inside a tree creates Pk exactly when the longest path through
    it has order >= k.  An edge between two trees joins a longest path from
    each end, so it fails exactly when ecc(u) + ecc(v) + 2 < k: u's failing
    partners in other trees are the vertices of eccentricity at most
    k-3-ecc(u), one mask per threshold.
    """
    fails = f.chord_fails(k, closes_two, True)
    ecc = f.ecc
    cross = _at_most(ecc, range(f.n), k - 3, f.n) if len(f.parts) > 1 else []

    def partners(u: int):
        failing = 0
        if cross:
            t = k - 3 - ecc[u]
            if t >= 0:
                failing = cross[t] & ~f.parts[f.comp_of[u]]
        return f.later(u), fails, failing

    return _ascending_failures(f.n, partners)


def _scan_k3_cup_pk(g: Graph, k: int) -> Iterator[tuple[int, int]]:
    """Non-edge scan for the single member K3 u Pk, on a member-free g.

    A chord uv creates a member in one of two ways.  Around an old triangle
    T: no old Pk avoids T (g is member-free), so a path of order >= k
    through uv avoids T, which is tree arithmetic where the parts of g - T
    holding u and v are trees.  Or with a new triangle uvw, and then an old
    Pk avoiding u, v and w.

    A plain component is a tree that holds no Pk, and so no triangle.  For
    a chord between plain vertices every triangle leaves the same parts,
    the trees holding u and v, so the forest rule decides it once when some
    triangle exists; a chord at distance 2 also succeeds when some
    component holds a Pk.  Only chords that touch another component go
    through per-triangle tables, built over those components alone.  A
    chord from such a vertex u to a plain v depends on v only through
    ecc(v), and more is better, so one probe per eccentricity gives u's
    threshold; chords between components become mask lookups as in the
    forest scan.

    A new triangle uvw needs an old Pk avoiding u, v and w.  The scan keeps
    the vertex set of each Pk its searches find, and searches only when
    none of them avoids u, v and w; a kept copy is a Pk of g, so the answer
    is the search's.
    """
    n, rows = g.n, g.rows
    comps = component_masks(g)
    trees = [m for m in comps if _is_tree(g, m)]
    forest = _Forest(g, trees)
    ecc = forest.ecc
    plain_vs = [v for vs, d in zip(forest.verts, forest.diameters) if d < k - 1 for v in vs]
    rest = full_mask(n) & ~_mask(plain_vs, n)
    home = {v: m for m in comps if m & rest for v in iter_bits(m)}
    pk = [m for m, d in zip(trees, forest.diameters) if d >= k - 1]
    pk += [m for m in comps if m & rest and not _is_tree(g, m)
           and find_path_of_order(g, k, mask=m) is not None]

    tables = []
    for cl in iter_cliques(g, 3):
        tmask = (1 << cl[0]) | (1 << cl[1]) | (1 << cl[2])
        parts = component_masks(g, rest & ~tmask)
        is_tree = [_is_tree(g, m) for m in parts]
        tf = _Forest(g, [m for m, t in zip(parts, is_tree) if t])
        others = [m for m, t in zip(parts, is_tree) if not t]
        tables.append((tmask, tf, tf.ecc, others))

    def part(tf: _Forest, others: list[int], x: int) -> int:
        c = tf.comp_of[x]
        return tf.parts[c] if c >= 0 else next(m for m in others if m >> x & 1)

    copies: list[int] = []  # the Pk copies that creates' searches found

    def creates(u: int, v: int) -> bool:
        """u not plain; v plain or not."""
        pv = forest.comp_of[v]
        v_plain = pv >= 0 and forest.diameters[pv] < k - 1
        for tmask, tf, tecc, others in tables:
            if (tmask >> u | tmask >> v) & 1:
                continue
            cu, cv = tf.comp_of[u], tf.comp_of[v]
            if cu >= 0 and (v_plain or cv >= 0):
                if cu == cv and not v_plain:
                    if tf.reach(u, v) >= k:
                        return True
                elif tecc[u] + (ecc[v] if v_plain else tecc[v]) + 2 >= k:
                    return True
            else:
                mask = part(tf, others, u) | (forest.parts[pv] if v_plain else part(tf, others, v))
                if find_path_of_order(g.add_edge(u, v), k, mask=mask) is not None:
                    return True
        common = rows[u] & rows[v]
        if common:
            if any(not m >> u & 1 for m in pk):
                return True
            for w in iter_bits(common):
                if _holds_pk(g, k, home[u] & ~((1 << u) | (1 << v) | (1 << w)), copies):
                    return True
        return False

    # the largest plain eccentricity that a chord from each non-plain
    # vertex fails against (-1 for none)
    reps: dict[int, int] = {}
    for v in plain_vs:
        reps.setdefault(ecc[v], v)
    probes = sorted(reps.items())
    th = {}
    for u in home:
        th[u] = -1
        for e, v in probes:
            if creates(u, v):
                break
            th[u] = e
    le = _at_most(ecc, plain_vs, k - 2, n)
    np_ge = [_mask((u for u in th if th[u] >= e), n) for e in range(k - 1)]
    plain_fails = forest.chord_fails(k, bool(pk), bool(tables))

    def non_plain_fails(u: int, v: int) -> bool:
        return not creates(u, v)

    def partners(u: int):
        c = forest.comp_of[u]
        if c >= 0 and forest.diameters[c] < k - 1:
            t = k - 3 - ecc[u] if tables else k - 2
            failing = np_ge[ecc[u]]
            if t >= 0:
                failing |= le[t] & ~forest.parts[c]
            return forest.later(u), plain_fails, failing
        tested = iter_bits(rest & (~rows[u] >> (u + 1) << (u + 1)))
        return tested, non_plain_fails, le[th[u]] if th[u] >= 0 else 0

    return _ascending_failures(n, partners)


def _holds_pk(g: Graph, k: int, mask: int, copies: list[int]) -> bool:
    """Whether g restricted to mask holds a Pk.  copies holds the vertex
    masks of Pk copies of g found so far: one inside mask answers without
    a search, and a search that finds a path adds its first k vertices."""
    if any(not c & ~mask for c in copies):
        return True
    path = find_path_of_order(g, k, mask=mask)
    if path is None:
        return False
    copies.append(_mask(path[:k], g.n))
    return True


# ---------------------------------------------------------------------------
# generic scan
# ---------------------------------------------------------------------------


def _scan_generic(g: Graph, fam: ForbiddenFamily) -> Iterator[tuple[int, int]]:
    """The non-edges through which no member is created, ascending and
    lazily."""
    for u, v in g.non_edges():
        if not any(_creates(g, member, u, v) for member in fam.members):
            yield u, v


def _creates(g: Graph, member: Member, u: int, v: int) -> bool:
    """Whether g + uv holds the member, for a member-free g, so that any
    copy uses the edge uv.  A Kp through uv is a K(p-2) in N(u) & N(v);
    other members are searched in the whole of g + uv."""
    if isinstance(member, Clique):
        common = g.rows[u] & g.rows[v]
        return member.p == 2 or next(iter_cliques(g, member.p - 2, mask=common), None) is not None
    return find_member(g.add_edge(u, v), member) is not None
