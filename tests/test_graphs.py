import random
import time

import pytest

from satforge.constructions import make_tk
from satforge.graphs import (
    INFINITE,
    MAX_ORDER,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    delete_vertex,
    diameter,
    disjoint_union,
    distances_from,
    empty_graph,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    join,
    parse_edgelist,
    path_graph,
    write_edgelist,
)
from satforge.search import enumerate_graphs


def random_graph(rng, n, p=0.4):
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_build_graph_examples():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.edge_count == 3
    p5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert diameter(p5) == 4
    with pytest.raises(ValueError):
        build_graph(4, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 5)])


def test_build_graph_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_degree_and_edges():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3 and g.degree(2) == 1
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3)]
    assert (1, 2) in list(g.non_edges())
    assert g.degree_sequence() == (3, 1, 1, 1)


def test_disjoint_union():
    two = disjoint_union(complete_graph(2), complete_graph(2))
    assert two.n == 4 and two.edge_count == 2
    assert len(connected_components(two)) == 2
    pattern = disjoint_union(complete_graph(3), path_graph(10))
    assert pattern.n == 13 and pattern.edge_count == 12
    g = path_graph(4)
    assert disjoint_union(g, empty_graph(0)) == g
    assert disjoint_union(empty_graph(0), g) == g


def test_disjoint_union_of_many_parts():
    parts = [path_graph(3), complete_graph(4), empty_graph(0), cycle_graph(5), path_graph(1)]
    g = disjoint_union(*parts)
    nested = parts[0]
    for part in parts[1:]:
        nested = disjoint_union(nested, part)
    assert g == nested
    assert g.n == 13 and g.edge_count == 2 + 6 + 5
    assert connected_components(g) == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10, 11], [12]]
    assert disjoint_union(g) == g
    assert disjoint_union() == empty_graph(0)


def test_join_edge_counts():
    wheel = join(empty_graph(1), cycle_graph(5))
    assert wheel.n == 6 and wheel.edge_count == 10
    k2_e4 = join(complete_graph(2), empty_graph(4))
    assert k2_e4.edge_count == 9
    g = path_graph(4)
    assert join(empty_graph(0), g) == g


def test_join_edge_formula_random():
    rng = random.Random(7)
    for _ in range(25):
        g1 = random_graph(rng, rng.randrange(0, 7))
        g2 = random_graph(rng, rng.randrange(0, 7))
        j = join(g1, g2)
        assert j.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


def test_connected_components_order():
    comps = connected_components(disjoint_union(path_graph(3), complete_graph(2)))
    assert comps == [[0, 1, 2], [3, 4]]
    assert connected_components(complete_graph(3)) == [[0, 1, 2]]


def test_diameter():
    assert diameter(path_graph(5)) == 4
    assert diameter(disjoint_union(complete_graph(2), complete_graph(2))) == INFINITE
    assert diameter(empty_graph(1)) == 0
    assert diameter(empty_graph(0)) == 0
    assert diameter(complete_graph(4)) == 1


def assert_distances_match_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    for v in range(g.n):
        want = nx.single_source_shortest_path_length(h, v)
        assert distances_from(g, v) == [want.get(u, -1) for u in range(g.n)]
    assert diameter(g) == (nx.diameter(h) if nx.is_connected(h) else INFINITE)


def test_distances_and_diameter_match_networkx_on_small_graphs():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert_distances_match_networkx(nx, g)


def test_distances_and_diameter_match_networkx_on_random_trees():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for n in list(range(1, 40)) + [100, 199, 300]:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)]
        assert_distances_match_networkx(nx, build_graph(n, edges))


def test_distances_within_a_mask():
    g = path_graph(6)
    assert distances_from(g, 1, 0b011111) == [1, 0, 1, 2, 3, -1]
    assert distances_from(g, 2, 0b110111) == [2, 1, 0, -1, -1, -1]


def test_diameter_of_a_large_layered_tree():
    g = make_tk(24)
    start = time.perf_counter()
    assert diameter(g) == 22
    # one sweep per vertex took about 22 s here
    assert time.perf_counter() - start < 5


def test_diameter_two_implies_common_neighbor():
    # checked per enumerated class elsewhere; random sanity here
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, 7, 0.5)
        if diameter(g) != 2:
            continue
        for u, v in g.non_edges():
            assert g.rows[u] & g.rows[v], (u, v)


def test_graph6_known_values():
    # hand-encoded: K3 has n-byte chr(3+63)='B' and bits 111000 -> 'w'
    assert graph6_encode(complete_graph(3)) == b"Bw"
    assert graph6_encode(empty_graph(1)) == b"@"
    assert graph6_decode(b"Bw") == complete_graph(3)
    assert graph6_decode(">>graph6<<Bw") == complete_graph(3)


def test_graph6_round_trip_random():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(0, 21))
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form():
    g = path_graph(70)
    data = graph6_encode(g)
    assert data[0] == 126
    assert graph6_decode(data) == g


def per_bit_graph6(g):
    """graph6 bytes of g built bit by bit from the standard's definition."""
    n = g.n
    header = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    bits = [int(g.has_edge(u, v)) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes(x + 63 for x in header + body)


def test_graph6_matches_per_bit_reference():
    rng = random.Random(71)
    for n in range(71):  # across the switch to the 4-byte header at 63
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            assert graph6_encode(g) == per_bit_graph6(g)


def test_graph6_malformed():
    with pytest.raises(ValueError):
        graph6_decode(b"")
    with pytest.raises(ValueError):
        graph6_decode(b"Bwx")  # trailing junk
    with pytest.raises(ValueError):
        graph6_decode(bytes([3 + 63, 200]))


def test_graph6_eight_byte_header_refused():
    # the standard writes order 258048 and up as ~~ and six bytes; the
    # decoder refuses it with the encoder's error, not as a 4-byte header
    with pytest.raises(ValueError) as encoded:
        graph6_encode(empty_graph(258048))
    for data in (b"~~" + b"?" * 6, b"~~"):
        with pytest.raises(ValueError) as decoded:
            graph6_decode(data)
        assert str(decoded.value) == str(encoded.value) == (
            "graph6 supports at most 258047 vertices here"
        )


def test_edgelist_round_trip():
    g = build_graph(5, [(0, 1), (1, 4), (2, 3)])
    text = write_edgelist(g)
    assert text.splitlines()[0] == "5 3"
    assert parse_edgelist(text) == g
    with pytest.raises(ValueError):
        parse_edgelist("3 2\n0 1\n")


def test_edgelist_errors_name_the_line():
    # the order cap is graph6's, checked before any row is allocated, and a
    # negative order is refused at its header; a self-loop or an endpoint
    # outside 0..n-1 is named by its line too
    for text, message in (
        (f"{MAX_ORDER + 1} 0\n", f"line 1: expected an order of at most {MAX_ORDER}, found {MAX_ORDER + 1}"),
        ("\n-1 1\n-1 2\n", "line 2: expected an order of at least 0, found -1"),
        ("3 2\n0 1 2\n1 2\n", "line 2: expected an edge 'u v' of two integers, found '0 1 2'"),
        ("3 1\n\n0 x\n", "line 3: expected an edge 'u v' of two integers, found '0 x'"),
        ("3 two\n", "line 1: expected an 'n m' header of two integers, found '3 two'"),
        ("3 1\n0 0\n", "line 2: expected an edge 'u v' of two distinct vertices of 0..2, found '0 0'"),
        ("3 1\n\n0 5\n", "line 3: expected an edge 'u v' of two distinct vertices of 0..2, found '0 5'"),
        ("3 1\n0 -1\n", "line 2: expected an edge 'u v' of two distinct vertices of 0..2, found '0 -1'"),
    ):
        with pytest.raises(ValueError) as err:
            parse_edgelist(text)
        assert str(err.value) == message
    assert parse_edgelist(f"{MAX_ORDER} 0\n").n == MAX_ORDER


def test_induced_subgraph():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.n == 3 and sub.edge_count == 2


def test_delete_vertex_matches_induced_subgraph():
    # the row shift against the relabelling it replaces, at every vertex
    rng = random.Random(29)
    for n in range(1, 31):
        for p in (0.2, 0.5, 0.9):
            g = random_graph(rng, n, p)
            for v in range(n):
                assert delete_vertex(g, v) == induced_subgraph(g, (u for u in range(n) if u != v))
    for v in (-1, 4):
        with pytest.raises(ValueError):
            delete_vertex(cycle_graph(4), v)


def test_add_edge_immutable():
    g = path_graph(3)
    g2 = g.add_edge(0, 2)
    assert g.edge_count == 2 and g2.edge_count == 3
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
