from math import comb

import pytest

from satforge.constructions import make_h0, make_star, make_t0k, make_t1k, make_tk
from satforge.formulas import (
    SatBounds,
    linear_forest_sat_bounds,
    order_constant,
    sat_join_k1,
    sat_k3_cup_pk_bounds,
    sat_k3_pk,
    sat_kp,
    sat_pk,
)


class TestOrderConstant:
    def test_anchors(self):
        assert order_constant("A1", 10) == 20
        assert order_constant("A1", 9) == 16
        assert order_constant("A0", 9) == 16
        assert order_constant("A0", 10) == 22
        assert order_constant("A", 10) == 46
        assert order_constant("A", 9) == 30

    def test_refused_above_max_k(self):
        # each constant has about k/2 bits, so a huge k is refused before
        # the power of 2 is built
        assert order_constant("A1", 10_000).bit_length() == 5000
        for kind in ("A", "A0", "A1"):
            with pytest.raises(ValueError, match=f"{kind} is computed for k <= 10000, got 10001"):
                order_constant(kind, 10_001)

    def test_matches_constructions(self):
        for k in range(6, 17):
            assert order_constant("A", k) == make_tk(k).n
            assert order_constant("A0", k) == make_t0k(k).n
        for k in range(8, 17):
            assert order_constant("A1", k) == make_t1k(k).n

    def test_ranges(self):
        with pytest.raises(ValueError):
            order_constant("A", 5)
        with pytest.raises(ValueError):
            order_constant("A1", 7)
        with pytest.raises(ValueError):
            order_constant("B", 10)


class TestSatPk:
    def test_values(self):
        assert sat_pk(46, 10) == 45
        assert sat_pk(92, 10) == 90

    def test_range(self):
        with pytest.raises(ValueError):
            sat_pk(10, 5)
        with pytest.raises(ValueError):
            sat_pk(45, 10)


class TestSatK3Pk:
    def test_values(self):
        assert sat_k3_pk(40, 10) == 38
        assert sat_k3_pk(20, 10) == 19
        assert sat_k3_pk(100, 11) == 97

    def test_dominated_by_path_only_value(self):
        for k in range(10, 15):
            for n in range(order_constant("A", k), 4 * order_constant("A", k), 17):
                assert sat_k3_pk(n, k) <= sat_pk(n, k)

    def test_range(self):
        with pytest.raises(ValueError):
            sat_k3_pk(100, 9)
        with pytest.raises(ValueError):
            sat_k3_pk(19, 10)


class TestSatKp:
    def test_values(self):
        assert sat_kp(5, 3) == 4
        assert sat_kp(6, 4) == 9
        assert sat_kp(5, 4) == 7

    def test_star_case(self):
        for n in range(3, 12):
            assert sat_kp(n, 3) == n - 1 == make_star(n).edge_count

    def test_range(self):
        with pytest.raises(ValueError):
            sat_kp(2, 3)
        with pytest.raises(ValueError):
            sat_kp(5, 2)


class TestUnionBounds:
    def test_values(self):
        assert sat_k3_cup_pk_bounds(200, 10) == SatBounds(192, 196)
        assert sat_k3_cup_pk_bounds(120, 10) == SatBounds(116, 120)

    def test_width_always_four(self):
        for n, k in [(120, 10), (200, 10), (168, 11), (300, 12)]:
            b = sat_k3_cup_pk_bounds(n, k)
            assert b.upper - b.lower == 4

    def test_witness_sits_on_upper_bound(self):
        for n, k in [(120, 10), (168, 11)]:
            assert make_h0(n, k).edge_count == sat_k3_cup_pk_bounds(n, k).upper

    def test_range(self):
        with pytest.raises(ValueError):
            sat_k3_cup_pk_bounds(119, 10)


class TestJoinValue:
    def test_values(self):
        assert sat_join_k1(7, 3) == 9
        assert sat_join_k1(5, 0) == 4
        assert sat_join_k1(21, sat_k3_pk(20, 10)) == 39

    def test_range(self):
        with pytest.raises(ValueError):
            sat_join_k1(1, 0)


class TestLinearForestBounds:
    def test_single_path(self):
        b = linear_forest_sat_bounds(46, [10])
        assert b.lower == 45
        assert b.upper == 45 + comb(9, 2) - 9 + 1

    def test_lower_is_base_value(self):
        assert linear_forest_sat_bounds(92, [10]).lower == sat_pk(92, 10)

    def test_smallest_order_four_uses_halving(self):
        b = linear_forest_sat_bounds(20, [6, 4])
        assert b.lower == 20 - 10

    def test_declined_orders(self):
        for orders in ([3, 2], [5], [10, 5], [2]):
            with pytest.raises(ValueError):
                linear_forest_sat_bounds(100, orders)

    def test_must_be_descending(self):
        with pytest.raises(ValueError):
            linear_forest_sat_bounds(100, [6, 10])

    def test_bounds_validate(self):
        with pytest.raises(ValueError):
            SatBounds(5, 4)
