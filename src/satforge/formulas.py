"""Closed-form saturation numbers, tree-order constants, and bounds.

Every formula validates its stated validity range strictly and refuses
out-of-range arguments instead of extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb


@dataclass(frozen=True)
class SatBounds:
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper {self.upper}")


# the largest k whose order constants are computed: each has about k/2
# bits, so the bound keeps them small enough to build and to print
MAX_K = 10_000


def order_constant(kind: str, k: int) -> int:
    """Order of the layered tree family member: A for the fully branching
    tree, A0 for the short variant, A1 for the sparse variant.  Refused for
    k above MAX_K, before the power of 2 is built."""
    kind = kind.upper()
    if k > MAX_K:
        raise ValueError(f"{kind} is computed for k <= {MAX_K}, got {k}")
    t = k // 2
    if kind == "A":
        if k < 6:
            raise ValueError("A is defined for k >= 6")
        return 3 * 2 ** (t - 1) - 2 if k % 2 == 0 else 4 * 2 ** (t - 1) - 2
    if kind == "A0":
        if k < 6:
            raise ValueError("A0 is defined for k >= 6")
        return 3 * 2 ** (t - 2) - 2 if k % 2 == 0 else 9 * 2 ** (t - 3) - 2
    if kind == "A1":
        if k < 8:
            raise ValueError("A1 is defined for k >= 8")
        return 9 * 2 ** (t - 4) + 2 if k % 2 == 0 else 3 * 2 ** (t - 2) + 4
    raise ValueError(f"unknown order constant kind {kind!r}")


def sat_pk(n: int, k: int) -> int:
    """Minimum edges of a path-saturated graph: n - floor(n / A(k))."""
    if k < 6:
        raise ValueError("sat_pk needs k >= 6")
    a = order_constant("A", k)
    if n < a:
        raise ValueError(f"sat_pk needs n >= {a} for k={k}")
    return n - n // a


def sat_k3_pk(n: int, k: int) -> int:
    """Minimum edges of a {triangle, path}-saturated graph: n - floor(n / A1(k))."""
    if k < 10:
        raise ValueError("sat_k3_pk needs k >= 10")
    a1 = order_constant("A1", k)
    if n < a1:
        raise ValueError(f"sat_k3_pk needs n >= {a1} for k={k}")
    return n - n // a1


def sat_kp(n: int, p: int) -> int:
    """Minimum edges of a clique-saturated graph."""
    if p < 3:
        raise ValueError("sat_kp needs p >= 3")
    if n < p:
        raise ValueError("sat_kp needs n >= p")
    return (p - 2) * (n - p + 2) + comb(p - 2, 2)


def sat_k3_cup_pk_bounds(n: int, k: int) -> SatBounds:
    """Bracket for the clique-union-path saturation number:
    base+2 .. base+6 around the {triangle, path} value."""
    if k < 10:
        raise ValueError("bounds need k >= 10")
    threshold = 6 * order_constant("A1", k)
    if n < threshold:
        raise ValueError(f"bounds need n >= {threshold} for k={k}")
    s = sat_k3_pk(n, k)
    return SatBounds(2 + s, 6 + s)


def sat_join_k1(n: int, sat_f_at_n_minus_1: int) -> int:
    """Hub-join saturation number: (n-1) plus the base family's value at n-1."""
    if n < 2:
        raise ValueError("sat_join_k1 needs n >= 2")
    return (n - 1) + sat_f_at_n_minus_1


def linear_forest_sat_bounds(n: int, orders: list[int] | tuple[int, ...]) -> SatBounds:
    """Bracket for a linear forest: the base term is driven by the smallest
    path order; the slack cap depends on the total forest order.

    The smallest order must be 4 (divisor 2) or >= 6 (divisor A(k_t));
    orders 2, 3 and 5 are declined because no divisor constant is defined
    for them here.
    """
    if not orders or any(o < 2 for o in orders):
        raise ValueError("forest orders must all be >= 2")
    if list(orders) != sorted(orders, reverse=True):
        raise ValueError("orders must be sorted descending")
    kt = orders[-1]
    if kt == 4:
        divisor = 2
    elif kt >= 6:
        divisor = order_constant("A", kt)
    else:
        raise ValueError(f"smallest order {kt} unsupported (need 4 or >= 6)")
    if n < max(divisor, sum(orders)):
        raise ValueError(f"n={n} too small for orders {list(orders)}")
    q = sum(orders) - 1
    base = n - n // divisor
    cap = comb(q, 2) - q + ceil(q / divisor)
    return SatBounds(base, base + cap)
