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

    def test_padded(self):
        g = saturated_tree_of_order(23, 10)
        assert g.n == 23 and is_tree(g)
        assert check_saturated(g, parse_family("K3,P10")).is_saturated
        assert max(g.degree(v) for v in range(g.n)) < g.n - 1  # not a star

    def test_below_minimum(self):
        with pytest.raises(ValueError):
            saturated_tree_of_order(19, 10)

    def test_odd_k(self):
        g = saturated_tree_of_order(17, 9)
        assert g.n == 17
        assert check_saturated(g, parse_family("K3,P9")).is_saturated


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
