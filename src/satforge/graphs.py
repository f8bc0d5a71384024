"""Immutable simple graphs on dense integer vertex ids, with bitset adjacency.

Every graph lives on vertices 0..n-1.  Adjacency is kept as one Python int
per vertex (bit u of rows[v] set iff uv is an edge), which keeps the hot
algorithms (BFS layers, neighbourhood intersections) down to a few big-int
operations.

This module owns the bit-row primitives the other modules share, one copy
each: breadth-first layering (`bfs_layers`), the double sweep that finds a
tree's longest path (`longest_path_layers`, behind tree diameters, the
canonical centre and the path detector's tree branch) and graph6 packing
(`graph6_of`, behind `graph6_encode` and every canonical code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

INFINITE = math.inf


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable and safe to share across workers."""

    n: int
    rows: tuple[int, ...]

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Non-adjacent unordered pairs, ascending."""
        full = (1 << self.n) - 1
        for u in range(self.n):
            missing = full & ~self.rows[u] & ~((1 << (u + 1)) - 1)
            for v in iter_bits(missing):
                yield (u, v)

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on 0..order-1 with the given edges (duplicates collapsed)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = [0] * order
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{order - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(*parts: Graph) -> Graph:
    """Vertex-disjoint union; each part's vertices are shifted up by the
    total order of the parts before it, each row once."""
    rows: list[int] = []
    for g in parts:
        shift = len(rows)
        rows.extend(r << shift for r in g.rows)
    return Graph(len(rows), tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    shift = g1.n
    left_mask = (1 << shift) - 1
    right_mask = ((1 << g2.n) - 1) << shift
    rows = [r | right_mask for r in g1.rows]
    rows += [(r << shift) | left_mask for r in g2.rows]
    return Graph(g1.n + g2.n, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled in ascending order."""
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [
        (pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos
    ]
    return build_graph(len(keep), edges)


def delete_vertex(g: Graph, v: int) -> Graph:
    """g less the vertex v, the vertices above v relabelled one lower, as
    induced_subgraph gives it: each other row keeps its bits below v and
    shifts those above v down by one."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    low = (1 << v) - 1
    return Graph(g.n - 1, tuple(r & low | r >> 1 & ~low for r in g.rows[:v] + g.rows[v + 1 :]))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def component_masks(g: Graph, mask: int | None = None) -> list[int]:
    """Connected components (as bitmasks) within mask, ascending by least vertex.

    Its own closure loop, not bfs_layers: it is the hot loop of graph
    enumeration and of every saturation check, and needs no layer list.
    """
    todo = full_mask(g.n) if mask is None else mask
    rows = g.rows
    out = []
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & todo & ~comp
            comp |= frontier
        out.append(comp)
        todo &= ~comp
    return out


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex partition into components, ascending by minimum vertex."""
    return [list(iter_bits(m)) for m in component_masks(g)]


def bfs_layers(rows: Sequence[int], src: int, alive: int) -> list[int]:
    """Breadth-first layers, as masks, from the vertex set src within alive:
    layer i holds the vertices of alive at distance i from src, and layer 0
    is src itself ([] when src is empty)."""
    layers = []
    seen = layer = src
    while layer:
        layers.append(layer)
        nxt = 0
        for v in iter_bits(layer):
            nxt |= rows[v]
        layer = nxt & alive & ~seen
        seen |= layer
    return layers


def longest_path_layers(rows: Sequence[int], alive: int) -> list[int]:
    """The double sweep on the tree induced on alive: with a the least
    vertex of the last layer from the least vertex of alive, the layers
    from a.  a ends a longest path, so there are diameter + 1 layers, and
    the other end b may be taken as the least vertex of the last one."""
    far = bfs_layers(rows, alive & -alive, alive)[-1]
    return bfs_layers(rows, far & -far, alive)


def distances_from(g: Graph, src: int, mask: int | None = None) -> list[int]:
    """Distance from src to every vertex (-1 if unreachable or outside mask)."""
    m = full_mask(g.n) if mask is None else mask
    dist = [-1] * g.n
    for d, layer in enumerate(bfs_layers(g.rows, 1 << src, m)):
        for v in iter_bits(layer):
            dist[v] = d
    return dist


def distance_matrix(g: Graph, mask: int | None = None) -> list[list[int]]:
    m = full_mask(g.n) if mask is None else mask
    return [
        distances_from(g, v, m) if (m >> v) & 1 else [-1] * g.n
        for v in range(g.n)
    ]


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; INFINITE when disconnected, 0 for order <= 1.

    A tree takes the double sweep; any other graph one sweep per vertex."""
    if g.n <= 1:
        return 0
    full = full_mask(g.n)
    if len(component_masks(g)) > 1:
        return INFINITE
    if g.edge_count == g.n - 1:
        return len(longest_path_layers(g.rows, full)) - 1
    return max(len(bfs_layers(g.rows, 1 << v, full)) for v in range(g.n)) - 1


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_masks(g)) == 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


# ---------------------------------------------------------------------------
# graph6 (bit-exact standard encoding) and plain edge-list text
# ---------------------------------------------------------------------------


# The largest order a 4-byte graph6 header holds, and the largest order any
# reader here accepts: the standard writes a larger one with an 8-byte
# header, which neither graph6_decode nor parse_edgelist takes.
MAX_ORDER = 258047


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= MAX_ORDER:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError(f"graph6 supports at most {MAX_ORDER} vertices here")


def graph6_of(rows: Sequence[int], order: Sequence[int]) -> bytes:
    """Standard graph6 bytes of the graph relabelled by order (order[i]
    becomes vertex i): the upper triangle read column by column, each bit
    gathered from its row and every six written out as one byte."""
    out = bytearray(_g6_size_bytes(len(order)))
    bits = held = 0
    for j, v in enumerate(order):
        row = rows[v]
        for u in order[:j]:
            bits = bits << 1 | (row >> u & 1)
            held += 1
            if held == 6:
                out.append(bits + 63)
                bits = held = 0
    if held:
        out.append((bits << 6 - held) + 63)
    return bytes(out)


def graph6_encode(g: Graph) -> bytes:
    """Standard graph6 bytes for g (upper triangle in column order)."""
    return graph6_of(g.rows, range(g.n))


def graph6_decode(data: bytes | str) -> Graph:
    """Inverse of graph6_encode; raises ValueError on malformed input."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise ValueError("empty graph6 string")
    vals = [b - 63 for b in data]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("graph6 byte out of range")
    if vals[:2] == [63, 63]:
        # the 8-byte header, which the standard keeps for orders above MAX_ORDER
        raise ValueError(f"graph6 supports at most {MAX_ORDER} vertices here")
    if vals[0] == 63:
        if len(vals) < 4:
            raise ValueError("truncated graph6 header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                edges.append((u, v))
            idx += 1
    if body and idx % 6 and body[-1] & ((1 << (6 - idx % 6)) - 1):
        raise ValueError("graph6 padding bits are not zero")
    return build_graph(n, edges)


def write_edgelist(g: Graph) -> str:
    """Plain text: 'n m' header then one 'u v' line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    """Inverse of write_edgelist; blank lines are skipped.  Raises
    ValueError, naming the line, on a line that is not two integers, on an
    edge that is a self-loop or leaves 0..n-1, and on a negative order or
    one above MAX_ORDER before anything is allocated."""
    lines = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("edge list must start with an 'n m' header line")
    n, m = _int_pair(*lines[0], "an 'n m' header")
    if n < 0:
        raise ValueError(f"line {lines[0][0]}: expected an order of at least 0, found {n}")
    if n > MAX_ORDER:
        raise ValueError(f"line {lines[0][0]}: expected an order of at most {MAX_ORDER}, found {n}")
    edges = []
    for i, fields in lines[1:]:
        u, v = _int_pair(i, fields, "an edge 'u v'")
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {i}: expected an edge 'u v' of two distinct vertices of 0..{n - 1}, "
                             f"found '{u} {v}'")
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def _int_pair(lineno: int, fields: list[str], expected: str) -> tuple[int, int]:
    """The two integers of an edge-list line, or ValueError naming it."""
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    raise ValueError(f"line {lineno}: expected {expected} of two integers, found {' '.join(fields)!r}")
