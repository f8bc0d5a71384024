import hashlib

import pytest

from satforge.canon import canonical_form
from satforge.constructions import (
    make_erdos_kp,
    make_g0,
    make_h0,
    make_small_tree,
    make_star,
    make_t0k,
    make_t1k,
    make_tk,
    saturated_tree_of_order,
    t1k_attachment_vertex,
)
from satforge.claims import G0_PAIRS, H0_PAIRS
from satforge.formulas import order_constant, sat_k3_pk
from satforge.graphs import (
    complete_graph,
    connected_components,
    diameter,
    disjoint_union,
    distances_from,
    empty_graph,
    graph6_encode,
    induced_subgraph,
    is_tree,
    join,
)
from satforge.patterns import has_clique
from satforge.saturation import check_saturated, contains_member, parse_family

# sha256 of the graph6 bytes of each builder output, recorded from the
# builders that chose vertices by running the checker; the closed rules
# keep every byte
T1K_SHA256 = {
    8: "f7af538c9b1263d7c815e0f281153f00acc37a5127340af932447ba022300946",
    9: "6551a86fcb64e2ce5dc7b7b27ad2f2228ec7071ba5278e5d7db8551d128fea71",
    10: "cf614e8098be7407ffce134a7ca3959ffc10ff5ebd1ed5ebbf009451caecda8c",
    11: "353a2fdac3c4e6fc1383c1b0d2e4ac5311cd7c64c03db55e4971cef8495d01b2",
    12: "0c6e610f7ed468e0ea381ccce29b85161cb87c894fc7ac02eae83fb5ca4d25a5",
    13: "19171901e5a11db0c51ac402e2524859423ccb2033beb0d7dbfa63d60a8f6e98",
    14: "7f7803f5fdf7eb330bc509cc65a25942dbc73571f867b6b3ef4394db72a78d27",
    15: "324b5fa5a9d25bcafd537f9aab7e223a81f06ce33f0109a77fd3e44d13b0d5c5",
    16: "786cb13bdd58fe8b666640cf5b461d1b4de9f7c7807af06d7a41f2d7e5535748",
}
G0_SHA256 = {
    (20, 10): "cf614e8098be7407ffce134a7ca3959ffc10ff5ebd1ed5ebbf009451caecda8c",
    (23, 10): "2f894b871cadebbafdcc8094e32969e402aec7a59368d67e7af631162226c7a4",
    (40, 10): "9156aae3e307f2781a4feaa070b2f3536b3de67922e785ecb1ad4c5035164083",
    (100, 10): "e8fe512e2008daf71ea7221d0e689cde52b0d9be226112a31990197fd29ce7d0",
    (137, 11): "402587ebccae074ce55622a8abbf9de85641fd957efeab7c2a6d82a2a3815697",
    (76, 12): "2a70ec86042a6979985c20830633f684f0bcc8f5c809d7061f51e63979e82cc3",
}
H0_SHA256 = {
    (120, 10): "4945de48faf497b01bd64b4ca9ef0ad4410bc30d5f89e98d4fe50e046e776878",
    (200, 10): "badca89d1bb48d6e94c9b5cd83c5914cdd11d98cc0997f12bb9e647967eccb68",
    (168, 11): "e6ad84a9daa8c0bccf855eb9e047d509a2a7553f2fa2d0abbd32e3b3c43829cb",
}
# k -> sha256 of the graph6 lines of saturated_tree_of_order(n, k) for
# every n in [A1(k), 2*A1(k)), joined by newlines
SATTREE_SHA256 = {
    9: "0c5849e162ad23b6de7ace720c786a495ff26e92e6a70362de71097522b2e872",
    10: "c334987ca7158267a44e4ffc18e067b5cc6924ead524cf08dcb9574bd6c4699a",
    11: "9228d1f6ab017e16e3e524db9ce3ff5e8dc9a7e6fc391ebbdd5815bf34c52fc6",
    12: "873cca866aa86cad4f37a2bee47544c18c026b1d4a459ef3d191511f818fbc20",
}


def _sha(g) -> str:
    return hashlib.sha256(graph6_encode(g)).hexdigest()


class TestLayeredTrees:
    def test_orders_match_constants(self):
        for k in range(6, 17):
            assert make_tk(k).n == order_constant("A", k)
            assert make_t0k(k).n == order_constant("A0", k)
        for k in range(8, 17):
            assert make_t1k(k).n == order_constant("A1", k)

    def test_anchor_orders(self):
        assert make_tk(10).n == 46
        assert make_tk(9).n == 30
        assert make_tk(6).n == 10
        assert make_t0k(10).n == 22
        assert make_t0k(9).n == 16
        assert make_t0k(7).n == 7
        assert make_t1k(10).n == 20
        assert make_t1k(9).n == 16
        assert make_t1k(12).n == 38

    def test_diameters(self):
        for k in range(6, 17):
            assert diameter(make_tk(k)) == k - 2
            assert diameter(make_t0k(k)) == k - 3
        for k in range(8, 17):
            assert diameter(make_t1k(k)) == k - 2

    def test_all_are_trees(self):
        for k in (6, 9, 12):
            assert is_tree(make_tk(k)) and is_tree(make_t0k(k))
        for k in (8, 11, 14):
            assert is_tree(make_t1k(k))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            make_tk(5)
        with pytest.raises(ValueError):
            make_t0k(5)
        with pytest.raises(ValueError):
            make_t1k(7)

    def test_short_variant_has_more_edges(self):
        for k in range(10, 31):
            assert make_t0k(k).n - 1 > make_t1k(k).n - 1

    def test_degree_structure_tk(self):
        g = make_tk(10)
        degs = sorted(g.degree(v) for v in range(g.n))
        assert set(degs) == {1, 3}

    def test_golden_graph6(self):
        assert graph6_encode(make_t1k(10)) == b"SsP@@?OC?O@?@??_?O?A??G??O??O??A?"
        assert graph6_encode(make_t0k(10)) == b"UsP@@?OC?O@?@?@??O?A??G??O??O??G??A???O?"
        assert graph6_encode(make_t1k(9)) == b"OsP@@?OC?O@?@??_?C??O"


class TestSmallTrees:
    def test_t1(self):
        t1 = make_small_tree("T1")
        assert t1.n == 5 and t1.edge_count == 4
        assert t1.degree_sequence() == (3, 2, 1, 1, 1)
        assert check_saturated(t1, parse_family("K3,P5")).is_saturated

    def test_t2(self):
        t2 = make_small_tree("T2")
        assert t2.n == 6 and t2.degree_sequence() == (3, 3, 1, 1, 1, 1)
        assert diameter(t2) == 3
        assert check_saturated(t2, parse_family("K3,P6")).is_saturated

    def test_t3(self):
        t3 = make_small_tree("T3")
        assert t3.n == 6 and diameter(t3) == 4
        assert check_saturated(t3, parse_family("K3,P6")).is_saturated

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_small_tree("T9")


class TestStarAndErdos:
    def test_star(self):
        assert make_star(5).edge_count == 4
        assert make_star(1).n == 1
        assert check_saturated(make_star(10), parse_family("K3")).is_saturated

    def test_erdos_edges(self):
        assert make_erdos_kp(6, 4).edge_count == 9
        assert make_erdos_kp(5, 3).edge_count == 4
        assert canonical_form(make_erdos_kp(5, 3)) == canonical_form(make_star(5))

    def test_erdos_saturated(self):
        assert check_saturated(make_erdos_kp(7, 4), parse_family("K4")).is_saturated

    def test_erdos_range(self):
        with pytest.raises(ValueError):
            make_erdos_kp(3, 4)


class TestSaturatedTreeOfOrder:
    def test_base_is_the_layered_tree(self):
        assert saturated_tree_of_order(20, 10) == make_t1k(10)

    def test_below_minimum(self):
        with pytest.raises(ValueError):
            saturated_tree_of_order(19, 10)

    @pytest.mark.parametrize("k", sorted(SATTREE_SHA256))
    def test_every_order_up_to_twice_a1(self, k):
        # the rule hangs leaves on vertex 0; the checker certifies each order
        a1 = order_constant("A1", k)
        fam = parse_family(f"K3,P{k}")
        trees = [saturated_tree_of_order(n, k) for n in range(a1, 2 * a1)]
        for n, g in enumerate(trees, a1):
            assert g.n == n and is_tree(g)
            assert max(g.degree(v) for v in range(n)) < n - 1  # not a star
            assert check_saturated(g, fam).is_saturated, n
        joined = b"\n".join(graph6_encode(g) for g in trees)
        assert hashlib.sha256(joined).hexdigest() == SATTREE_SHA256[k]


class TestG0:
    def test_component_and_edge_counts(self):
        g = make_g0(100, 10)
        assert len(connected_components(g)) == 5
        assert g.edge_count == 95
        g = make_g0(23, 10)
        assert len(connected_components(g)) == 1 and g.edge_count == 22

    def test_edge_formula_matches_closed_form(self):
        for n, k in [(20, 10), (40, 10), (137, 11), (76, 12)]:
            assert make_g0(n, k).edge_count == sat_k3_pk(n, k)

    def test_saturated(self):
        assert check_saturated(make_g0(40, 10), parse_family("K3,P10")).is_saturated

    def test_below_minimum(self):
        with pytest.raises(ValueError):
            make_g0(19, 10)


class TestH0:
    def test_shape(self):
        h = make_h0(200, 10)
        assert h.n == 200
        assert len(connected_components(h)) == 7
        assert h.edge_count == 196

    def test_clique_block(self):
        q1 = induced_subgraph(make_h0(200, 10), range(80))
        w = has_clique(q1, 4)
        a1 = order_constant("A1", 10)
        att = t1k_attachment_vertex(10)
        assert w.parts[0] == tuple(att + i * a1 for i in range(4))

    def test_attachment_reach(self):
        k = 10
        att = t1k_attachment_vertex(k)
        assert max(distances_from(make_t1k(k), att)) + 1 == k - 1

    def test_free(self):
        assert contains_member(make_h0(120, 10), parse_family("K3+P10")) is None

    def test_below_minimum(self):
        with pytest.raises(ValueError):
            make_h0(100, 10)

    @pytest.mark.parametrize("k", range(10, 14))
    def test_smallest_is_saturated(self, k):
        a1 = order_constant("A1", k)
        assert check_saturated(make_h0(6 * a1, k), parse_family(f"K3+P{k}")).is_saturated


class TestJoinExtremal:
    def test_hub_is_vertex_zero(self):
        h = make_t1k(10)
        g = join(empty_graph(1), h)
        assert g.n == 21 and g.edge_count == 19 + 20
        assert g.degree(0) == g.n - 1

    def test_wheel_like(self):
        g = join(empty_graph(1), complete_graph(3))
        assert g.n == 4 and g.edge_count == 6

    def test_triangle_plus_isolates_saturated_under_join(self):
        base = disjoint_union(complete_graph(3), empty_graph(2))
        # the base is saturated for two disjoint edges, so its hub join is
        # saturated for the joined family
        assert check_saturated(base, parse_family("P2+P2")).is_saturated
        g = join(empty_graph(1), base)
        assert check_saturated(g, parse_family("K1*[2,2]")).is_saturated

    def test_reproducible_graph6(self):
        assert graph6_encode(make_h0(120, 10)) == graph6_encode(make_h0(120, 10))
        assert graph6_encode(make_g0(40, 10)) == graph6_encode(make_g0(40, 10))


class TestPinnedBytes:
    def test_t1k(self):
        assert {k: _sha(make_t1k(k)) for k in T1K_SHA256} == T1K_SHA256

    def test_g0(self):
        assert {pair: _sha(make_g0(*pair)) for pair in G0_PAIRS} == G0_SHA256

    def test_h0(self):
        assert {pair: _sha(make_h0(*pair)) for pair in H0_PAIRS} == H0_SHA256
