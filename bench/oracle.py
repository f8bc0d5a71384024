"""Computations the benchmark checks satforge against, written apart from it.

Nothing here imports satforge.  Graphs are adjacency lists of sets on
vertices 0..n-1.  Every detector is plain brute force (backtracking over
simple paths, combinations for cliques), which is slow but obviously right
at the sizes the benchmark feeds it.

Sources of the reference values:
- A000055 (free trees) and A000088 (graphs) are terms copied from OEIS.
- sat(n, K_p) = (p-2)(n-p+2) + C(p-2, 2): Erdős, Hajnal and Moon (1964).
- sat(n, P3) = floor(n/2), sat(n, P4) = n/2 or (n+3)/2 by parity, and
  sat(n, tK2) = 3t-3: Kászonyi and Tuza (1986).
- sat(n, {K3, Pk}) = n - floor(n / A1(k)) and the orders A(k), A1(k) of the
  layered trees: the source paper.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

# OEIS A000055, number of free trees on n vertices, n = 0..20.
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
           19320, 48629, 123867, 317955, 823065)
# OEIS A000088, number of graphs on n unlabelled vertices, n = 0..9.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def sat_closed_form(n: int, family: str) -> int:
    """sat(n, F) for the single-member families the catalogue sweeps use."""
    if family in ("K3", "K4", "K5"):
        p = int(family[1])
        return (p - 2) * (n - p + 2) + comb(p - 2, 2)
    if family == "P3":
        return n // 2
    if family == "P4":
        return n // 2 if n % 2 == 0 else (n + 3) // 2
    if family == "P2+P2":
        return 3
    raise ValueError(f"no closed form recorded for {family!r}")


def order_a(k: int) -> int:
    """Order of the fully branching layered tree T_k (k >= 6)."""
    t = k // 2
    return 3 * 2 ** (t - 1) - 2 if k % 2 == 0 else 4 * 2 ** (t - 1) - 2


def order_a1(k: int) -> int:
    """Order of the sparse layered tree T1_k (k >= 8)."""
    t = k // 2
    return 9 * 2 ** (t - 4) + 2 if k % 2 == 0 else 3 * 2 ** (t - 2) + 4


def sat_k3_pk(n: int, k: int) -> int:
    """The paper's value of sat(n, {K3, Pk}) for k >= 10 and n >= A1(k)."""
    return n - n // order_a1(k)


# ---------------------------------------------------------------------------
# graph plumbing
# ---------------------------------------------------------------------------


def decode_graph6(data: bytes) -> list[set[int]]:
    """Adjacency sets from a graph6 string (orders below 63 or 4-byte headers)."""
    vals = [b - 63 for b in data.strip()]
    if vals[0] == 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    adj: list[set[int]] = [set() for _ in range(n)]
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                adj[u].add(v)
                adj[v].add(u)
            idx += 1
    return adj


def from_rows(n: int, rows) -> list[set[int]]:
    """Adjacency sets from per-vertex neighbour bitmasks."""
    return [{u for u in range(n) if row >> u & 1} for row in rows]


def from_edges(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_count(adj) -> int:
    return sum(len(s) for s in adj) // 2


def with_edge(adj, u: int, v: int) -> list[set[int]]:
    out = [set(s) for s in adj]
    out[u].add(v)
    out[v].add(u)
    return out


def without_edge(adj, u: int, v: int) -> list[set[int]]:
    out = [set(s) for s in adj]
    out[u].discard(v)
    out[v].discard(u)
    return out


def distances(adj, src: int) -> list[int]:
    """BFS distances from src; -1 for unreachable vertices."""
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def components(adj) -> list[list[int]]:
    seen = [False] * len(adj)
    out = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        comp = [v for v, d in enumerate(distances(adj, s)) if d >= 0]
        for v in comp:
            seen[v] = True
        out.append(comp)
    return out


def is_tree(adj) -> bool:
    return len(adj) >= 1 and edge_count(adj) == len(adj) - 1 and len(components(adj)) == 1


def tree_diameter(adj) -> int:
    """Diameter of a tree by the double sweep."""
    d0 = distances(adj, 0)
    far = d0.index(max(d0))
    return max(distances(adj, far))


# ---------------------------------------------------------------------------
# brute-force detectors
# ---------------------------------------------------------------------------


def has_clique(adj, p: int) -> bool:
    def grow(chosen: list[int], cand: list[int]) -> bool:
        if len(chosen) == p:
            return True
        for i, v in enumerate(cand):
            if grow(chosen + [v], [w for w in cand[i + 1:] if w in adj[v]]):
                return True
        return False

    return grow([], list(range(len(adj))))


def triangles(adj) -> list[tuple[int, int, int]]:
    out = []
    for a in range(len(adj)):
        for b in adj[a]:
            if b > a:
                out.extend((a, b, c) for c in adj[a] & adj[b] if c > b)
    return out


def has_path(adj, k: int, allowed=None) -> bool:
    """Is there a simple path on k vertices inside `allowed` (default all)?"""
    ok = set(range(len(adj))) if allowed is None else set(allowed)

    def extend(v: int, used: set[int], length: int) -> bool:
        if length == k:
            return True
        for w in adj[v]:
            if w in ok and w not in used:
                used.add(w)
                if extend(w, used, length + 1):
                    return True
                used.discard(w)
        return False

    return any(extend(s, {s}, 1) for s in ok)


def has_member(adj, family: tuple) -> bool:
    """Does the graph contain a member of the family?

    A family is a tuple of members; a member is ("K", p), ("P", k),
    ("K3+P", k) for a triangle plus a disjoint k-path, ("P2+P2",) for two
    disjoint edges, or ("K1*P", k) for a vertex adjacent to all of a k-path.
    """
    for member in family:
        kind = member[0]
        if kind == "K" and has_clique(adj, member[1]):
            return True
        if kind == "P" and has_path(adj, member[1]):
            return True
        if kind == "K3+P":
            everyone = set(range(len(adj)))
            if any(has_path(adj, member[1], everyone - set(t)) for t in triangles(adj)):
                return True
        if kind == "P2+P2":
            edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
            if any(not {a, b} & {c, d} for (a, b), (c, d) in combinations(edges, 2)):
                return True
        if kind == "K1*P":
            if any(has_path(adj, member[1], adj[h]) for h in range(len(adj))):
                return True
    return False


def non_edges(adj):
    n = len(adj)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]


def is_saturated(adj, family: tuple) -> bool:
    """Member-free, and every added non-edge creates a member."""
    if has_member(adj, family):
        return False
    return all(has_member(with_edge(adj, u, v), family) for u, v in non_edges(adj))


def parse_family(text: str) -> tuple:
    """The benchmark's own reading of the family strings it hands satforge."""
    out = []
    for tok in text.split(","):
        if tok == "P2+P2":
            out.append(("P2+P2",))
        elif tok.startswith("K3+P"):
            out.append(("K3+P", int(tok[4:])))
        elif tok.startswith("K1*["):
            out.append(("K1*P", int(tok[4:-1])))
        else:
            out.append((tok[0], int(tok[1:])))
    return tuple(out)


# ---------------------------------------------------------------------------
# trees: canonical strings and random generation
# ---------------------------------------------------------------------------


def tree_code(adj) -> str:
    """Isomorphism code of a free tree: the least AHU string over its centres."""
    n = len(adj)
    if n == 1:
        return "()"
    degree = [len(s) for s in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def ahu(v: int, parent: int) -> str:
        return "(" + "".join(sorted(ahu(w, v) for w in adj[v] if w != parent)) + ")"

    return min(ahu(c, -1) for c in layer)


def random_tree(rng: random.Random, n: int) -> list[set[int]]:
    """Uniform labelled tree on n >= 2 vertices from a random Prüfer sequence."""
    if n == 2:
        return from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return from_edges(n, edges)


def random_tree_of_diameter(rng: random.Random, n: int, d: int) -> list[set[int]]:
    """Random tree on n vertices with diameter exactly d (2 <= d < n).

    A spine path of d+1 vertices gets the other vertices one at a time, each
    hung at a random vertex whose depth below the spine keeps the diameter.
    Labels are shuffled at the end.
    """
    edges = [(i, i + 1) for i in range(d)]
    # room[v]: how many more levels may hang below v without passing d
    room = [min(i, d - i) for i in range(d + 1)]
    for v in range(d + 1, n):
        hosts = [u for u in range(v) if room[u] > 0]
        u = rng.choice(hosts)
        edges.append((u, v))
        room.append(room[u] - 1)
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[a], perm[b]) for a, b in edges])
