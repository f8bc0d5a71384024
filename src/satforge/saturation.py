"""Forbidden-family algebra and the saturation decision procedure.

A family member is a clique, a path, a disjoint union of cliques and paths,
or a hub joined to a linear forest.  A graph is family-saturated when it is
member-free and every added non-edge creates a member.  Non-edges are always
tested in ascending order, so the reported failure is the smallest one
whatever the execution strategy.

Two structure-aware scans keep the common checks fast: a forest against
{triangle, Pk} is member-free exactly when every component has diameter
below k-1, and each of its non-edges reduces to tree distance arithmetic on
BFS rows computed as the scan first needs them; sparse graphs against one
{triangle union path} member reuse per-triangle masked distance tables
instead of re-running detectors from scratch.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .graphs import (
    Graph,
    component_masks,
    distance_matrix,
    distances_from,
    full_mask,
    iter_bits,
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

_TRIANGLE_TABLE_CAP = 24


# ---------------------------------------------------------------------------
# family members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clique:
    p: int

    def __str__(self) -> str:
        return f"K{self.p}"


@dataclass(frozen=True)
class Path:
    k: int

    def __str__(self) -> str:
        return f"P{self.k}"


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple["Clique | Path", ...]

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class JoinK1:
    orders: tuple[int, ...]

    def __str__(self) -> str:
        return "K1*[" + ",".join(str(o) for o in self.orders) + "]"


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

    @classmethod
    def parse(cls, text: str) -> "ForbiddenFamily":
        return parse_family(text)


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
        orders = tuple(int(x) for x in body[1:-1].split(",") if x.strip())
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
    placed: dict[int, tuple[int, ...]] = {}

    def place_clique(j: int, free: int) -> bool:
        if j == len(clique_idx):
            if not path_idx:
                return True
            orders = [parts[i].k for i in path_idx]
            lf = contains_linear_forest(g, orders, mask=free)
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


def find_member(g: Graph, member: Member) -> Witness | None:
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
    if w.kind != "disjoint_union" or len(w.parts) != len(member.parts):
        return False
    for part, shape in zip(w.parts, member.parts):
        if isinstance(shape, Clique):
            if len(part) != shape.p or not all(
                g.has_edge(a, b) for i, a in enumerate(part) for b in part[i + 1 :]
            ):
                return False
        else:
            if len(part) != shape.k or not all(
                g.has_edge(part[i], part[i + 1]) for i in range(len(part) - 1)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# saturation verdicts
# ---------------------------------------------------------------------------

SATURATED = "saturated"
CONTAINS_MEMBER = "contains_member"
MISSING_EDGE = "missing_edge"


@dataclass(frozen=True)
class SaturationVerdict:
    status: str
    witness: Witness | None = None
    missing_edge: tuple[int, int] | None = None

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
        return out


def check_saturated(g: Graph, fam: ForbiddenFamily, threads: int = 1) -> SaturationVerdict:
    """Saturated iff g is member-free and every non-edge creates a member.

    The reported failure is always the ascending-smallest one; thread count
    never changes the verdict.
    """
    w, failures = _member_or_failures(g, fam, collect_all=False, threads=threads)
    if w is not None:
        return SaturationVerdict(CONTAINS_MEMBER, witness=w)
    if failures:
        return SaturationVerdict(MISSING_EDGE, missing_edge=failures[0])
    return SaturationVerdict(SATURATED)


def saturation_gap(g: Graph, fam: ForbiddenFamily, threads: int = 1) -> list[tuple[int, int]]:
    """All non-edges whose addition creates no member (empty iff saturated)."""
    w, failures = _member_or_failures(g, fam, collect_all=True, threads=threads)
    if w is not None:
        raise ValueError("graph already contains a family member")
    return failures


def _member_or_failures(
    g: Graph, fam: ForbiddenFamily, collect_all: bool, threads: int
) -> tuple[Witness | None, list[tuple[int, int]]]:
    """The first member witness of g, or else its failing non-edges.

    A forest holds no triangle, and it holds Pk exactly when some component
    has diameter at least k-1, so a member-free {K3, Pk} forest goes to its
    scan without running the detectors.
    """
    k = _k3_pk_shape(fam)
    if k is not None:
        forest = _Forest.of(g)
        if forest is not None and forest.diameter < k - 1:
            return None, _scan_k3_pk_forest(forest, k, collect_all)
    w = contains_member(g, fam)
    if w is not None:
        return w, []
    return None, _failing_non_edges(g, fam, collect_all, threads)


# ---------------------------------------------------------------------------
# non-edge scans
# ---------------------------------------------------------------------------


def _failing_non_edges(
    g: Graph, fam: ForbiddenFamily, collect_all: bool, threads: int = 1
) -> list[tuple[int, int]]:
    k = _k3_cup_pk_shape(fam)
    if k is not None:
        tris = []
        for cl in iter_cliques(g, 3):
            tris.append(cl)
            if len(tris) > _TRIANGLE_TABLE_CAP:
                break
        if len(tris) <= _TRIANGLE_TABLE_CAP:
            return _scan_k3_cup_pk(g, k, tris, collect_all)
    return _scan_generic(g, fam, collect_all, threads)


def _k3_pk_shape(fam: ForbiddenFamily) -> int | None:
    """k when the family is exactly {K3, Pk}, else None."""
    if len(fam.members) != 2:
        return None
    kinds = {type(m) for m in fam.members}
    if kinds != {Clique, Path}:
        return None
    cl = next(m for m in fam.members if isinstance(m, Clique))
    pa = next(m for m in fam.members if isinstance(m, Path))
    return pa.k if cl.p == 3 else None


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


class _Forest:
    """A forest with its BFS distance rows, each computed on first use.

    Indexing gives a row, so a _Forest stands in for a distance matrix.
    """

    def __init__(self, g: Graph, comps: list[int]):
        self.g = g
        self.verts = [list(iter_bits(m)) for m in comps]
        self.comp_of = [0] * g.n
        for ci, vs in enumerate(self.verts[1:], 1):
            for v in vs:
                self.comp_of[v] = ci
        self._rows: list[list[int] | None] = [None] * g.n
        # the ends of a longest path per component: in a tree, the vertex
        # farthest from any vertex ends one
        self.ends = []
        for vs in self.verts:
            r = self[vs[0]]
            a = r.index(max(r))
            r = self[a]
            self.ends.append((a, r.index(max(r))))
        self.diameter = max((self[a][b] for a, b in self.ends), default=0)

    @classmethod
    def of(cls, g: Graph) -> "_Forest | None":
        comps = component_masks(g)
        if g.edge_count != g.n - len(comps):
            return None
        return cls(g, comps)

    def __getitem__(self, v: int) -> list[int]:
        """Distances from v (-1 outside v's component)."""
        r = self._rows[v]
        if r is None:
            r = self._rows[v] = distances_from(self.g, v)
        return r

    def eccentricities(self) -> list[int]:
        """In a tree every vertex is farthest from one end of a longest path."""
        ecc = [0] * self.g.n
        for vs, (a, b) in zip(self.verts, self.ends):
            ra, rb = self[a], self[b]
            for w in vs:
                ecc[w] = max(ra[w], rb[w])
        return ecc


def _through_edge_reach(dist, verts: list[int], u: int, v: int) -> int:
    """Order of the longest path through a new chord uv of a tree component
    whose vertices are verts.

    Every path through uv splits at some edge of the tree u..v path, so the
    optimum is a prefix/suffix maximum over the split position of
    (far side of u) + (far side of v) + 2.
    """
    du, dv = dist[u], dist[v]
    d = du[v]
    pref = [-1] * d          # farthest-from-u among vertices hanging at <= i
    suf = [-1] * d           # farthest-from-v among vertices hanging at >= i+1
    for w in verts:
        a, b = du[w], dv[w]
        i = (a + d - b) // 2
        if i < d and a > pref[i]:
            pref[i] = a
        if i > 0 and b > suf[i - 1]:
            suf[i - 1] = b
    best = 0
    run = -1
    for i in range(d):
        run = max(run, pref[i])
        pref[i] = run
    run = -1
    for i in range(d - 1, -1, -1):
        run = max(run, suf[i])
        suf[i] = run
    for i in range(d):
        best = max(best, pref[i] + suf[i] + 2)
    return best


def _scan_k3_pk_forest(dist: _Forest, k: int, collect_all: bool) -> list[tuple[int, int]]:
    """Failing non-edges of a member-free forest, ascending.  Distance rows
    are computed only as pairs need them, so a scan that stops at an early
    failure computes few."""
    comp_of = dist.comp_of
    ecc = None
    failures: list[tuple[int, int]] = []
    for u, v in dist.g.non_edges():
        if comp_of[u] == comp_of[v]:
            if dist[u][v] == 2:
                continue  # closes a triangle
            if _through_edge_reach(dist, dist.verts[comp_of[u]], u, v) >= k:
                continue
        else:
            if ecc is None:
                ecc = dist.eccentricities()
            if ecc[u] + ecc[v] + 2 >= k:
                continue
        failures.append((u, v))
        if not collect_all:
            break
    return failures


def _scan_k3_cup_pk(
    g: Graph, k: int, tris: list[tuple[int, ...]], collect_all: bool
) -> list[tuple[int, int]]:
    """Non-edge scan for the single member K3 u Pk.

    For a triangle already in g, no old path of order >= k can avoid it
    (that pair would be a member of g), so only paths through the new edge
    matter; those reduce to masked tree arithmetic when the masked component
    is a tree.  A freshly created triangle needs an old path avoiding its
    three vertices.
    """
    n = g.n
    comps = component_masks(g)
    comp_of = [0] * n
    for ci, m in enumerate(comps):
        for v in iter_bits(m):
            comp_of[v] = ci
    comp_has_pk = [find_path_of_order(g, k, mask=m) is not None for m in comps]

    tables = []
    for cl in tris:
        tmask = full_mask(n)
        for v in cl:
            tmask &= ~(1 << v)
        dist = distance_matrix(g, tmask)
        parts = component_masks(g, tmask)
        part_of = [-1] * n
        part_tree = []
        part_verts = [list(iter_bits(m)) for m in parts]
        for ci, (m, vs) in enumerate(zip(parts, part_verts)):
            edges = sum((g.rows[v] & m).bit_count() for v in vs) // 2
            part_tree.append(edges == len(vs) - 1)
            for v in vs:
                part_of[v] = ci
        ecc = [max(dist[v]) if part_of[v] >= 0 else -1 for v in range(n)]
        tables.append((set(cl), dist, parts, part_verts, part_of, part_tree, ecc))

    failures: list[tuple[int, int]] = []
    for u, v in g.non_edges():
        if _creates_k3_cup_pk(g, k, u, v, tables, comps, comp_of, comp_has_pk):
            continue
        failures.append((u, v))
        if not collect_all:
            break
    return failures


def _creates_k3_cup_pk(g, k, u, v, tables, comps, comp_of, comp_has_pk) -> bool:
    for tset, dist, parts, part_verts, part_of, part_tree, ecc in tables:
        if u in tset or v in tset:
            continue
        pu, pv = part_of[u], part_of[v]
        if pu != pv and part_tree[pu] and part_tree[pv]:
            # in a tree part the longest path ending at u is ecc(u)+1
            if ecc[u] + ecc[v] + 2 >= k:
                return True
        elif pu == pv and part_tree[pu]:
            if _through_edge_reach(dist, part_verts[pu], u, v) >= k:
                return True
        else:
            mask = parts[pu] | parts[pv]
            if find_path_of_order(g.add_edge(u, v), k, mask=mask) is not None:
                return True
    # new triangles through uv: need an old path avoiding u, v and the apex
    common = g.rows[u] & g.rows[v]
    if common:
        cu = comp_of[u]
        for ci in range(len(comps)):
            if ci != cu and comp_has_pk[ci]:
                return True
        for w in iter_bits(common):
            mask = comps[cu] & ~(1 << u) & ~(1 << v) & ~(1 << w)
            if find_path_of_order(g, k, mask=mask) is not None:
                return True
    return False


def _creates_any_member(g: Graph, fam: ForbiddenFamily, u: int, v: int) -> bool:
    return contains_member(g.add_edge(u, v), fam) is not None


def _failing_chunk(job: tuple) -> list[tuple[int, int]]:
    """The failing non-edges of one chunk, or only its first."""
    g, fam, chunk, collect_all = job
    failures = []
    for u, v in chunk:
        if not _creates_any_member(g, fam, u, v):
            failures.append((u, v))
            if not collect_all:
                break
    return failures


def _scan_generic(
    g: Graph, fam: ForbiddenFamily, collect_all: bool, threads: int
) -> list[tuple[int, int]]:
    """Detectors on every non-edge.  With threads the non-edges split into
    contiguous ascending chunks, so the chunks' failures, concatenated, are
    in ascending order."""
    pairs = list(g.non_edges())
    workers = threads if len(pairs) >= 64 else 1
    chunks = 4 * workers if workers > 1 else 1
    size = -(-len(pairs) // chunks) or 1
    jobs = [(g, fam, pairs[i : i + size], collect_all) for i in range(0, len(pairs), size)]
    failures = [f for part in map_jobs(_failing_chunk, jobs, workers) for f in part]
    return failures if collect_all else failures[:1]


def map_jobs(fn, jobs: list, workers: int) -> list:
    """fn over jobs, results in job order: inline when workers <= 1, else on
    a fresh pool of that many processes (fn and jobs must pickle)."""
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def creates_member(g: Graph, fam: ForbiddenFamily, u: int, v: int) -> bool:
    """Does adding the non-edge uv create some family member?"""
    if g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is already an edge")
    return _creates_any_member(g, fam, u, v)
