import itertools
import random
import time

from satforge.canon import (
    _labelling,
    canonical_form,
    canonical_last_vertex,
    same_orbit,
)
from satforge.graphs import (
    build_graph,
    complete_graph,
    disjoint_union,
    graph6_decode,
    graph6_of,
    is_tree,
    path_graph,
)
from satforge.search import enumerate_graphs


def permuted(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_equal_codes_for_relabelings():
    p4a = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    p4b = build_graph(4, [(2, 0), (0, 3), (3, 1)])
    assert canonical_form(p4a) == canonical_form(p4b)


def test_distinct_codes_for_distinct_classes():
    p4 = path_graph(4)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_form(p4) != canonical_form(star)


def test_order4_class_count():
    codes = {canonical_form(g) for g in all_labeled_graphs(4)}
    assert len(codes) == 11


def test_order5_class_count():
    codes = {canonical_form(g) for g in all_labeled_graphs(5)}
    assert len(codes) == 34


def test_code_decodes_to_member_of_class():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    back = graph6_decode(canonical_form(g))
    assert canonical_form(back) == canonical_form(g)


def test_permutation_invariance_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = build_graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4],
        )
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_permutation_invariance_trees():
    # exercises the rooted-code path for trees, including bicentral ones
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(2, 16)
        edges = [(rng.randrange(0, v), v) for v in range(1, n)]
        g = build_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_disconnected_canonical_sorting():
    a = disjoint_union(path_graph(3), complete_graph(3))
    b = disjoint_union(complete_graph(3), path_graph(3))
    assert canonical_form(a) == canonical_form(b)


def brute_orbits(g):
    """Vertex orbit ids via explicit automorphism enumeration (oracle)."""
    n = g.n
    edges = {frozenset(e) for e in g.edges()}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        if {frozenset((perm[u], perm[v])) for u, v in edges} == edges:
            for v in range(n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[a] = b
    return [find(v) for v in range(n)]


def test_same_orbit_against_bruteforce():
    rng = random.Random(17)
    graphs = [
        build_graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
        )
        for n, p in [(4, 0.3), (5, 0.4), (5, 0.7), (6, 0.3), (6, 0.5), (6, 0.9)]
    ]
    graphs.append(complete_graph(5))
    graphs.append(path_graph(6))
    for g in graphs:
        orb = brute_orbits(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert same_orbit(g, u, v) == (orb[u] == orb[v]), (g, u, v)


def test_orbits_against_bruteforce_on_catalogue():
    # every graph of order <= 6: trees, twins, disconnected graphs with
    # isomorphic components, and graphs whose orbits only pruned twin
    # swaps reveal
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            orb = brute_orbits(g)
            for u in range(n):
                for v in range(u + 1, n):
                    assert same_orbit(g, u, v) == (orb[u] == orb[v]), (g, u, v)


def test_last_vertex_orbit_is_invariant():
    # relabelling moves the canonical last vertex only within its orbit
    rng = random.Random(23)
    for n in range(2, 8):
        for g in list(enumerate_graphs(n))[:: 7]:
            perm = list(range(n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            inverse = perm.index(canonical_last_vertex(h))
            assert same_orbit(g, canonical_last_vertex(g), inverse), g


def caterpillar(spine, legs):
    """A path of `spine` vertices with legs(i) leaves hung on vertex i."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(legs(i)):
            edges.append((i, n))
            n += 1
    return build_graph(n, edges)


def test_tree_forms_of_deep_trees():
    # radius above the recursion limit; relabelled copies share a form
    rng = random.Random(29)
    for g, other in (
        (path_graph(2100), caterpillar(2099, lambda i: i == 1)),
        (caterpillar(2100, lambda i: i % 7 == 0), caterpillar(2100, lambda i: i % 7 == 1)),
    ):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))
        assert other.n == g.n and canonical_form(other) != canonical_form(g)


def test_orbits_of_a_deep_path():
    g = path_graph(3000)
    assert same_orbit(g, 0, 2999) and same_orbit(g, 1499, 1500)
    assert not same_orbit(g, 0, 1)
    assert canonical_last_vertex(g) in (0, 2999)


def test_tree_forms_separate_every_class():
    # equal forms exactly for isomorphic trees, over every tree of order <= 10
    from satforge.search import enumerate_trees

    rng = random.Random(31)
    for n in range(1, 11):
        trees = list(enumerate_trees(n))
        forms = [canonical_form(t) for t in trees]
        assert len(set(forms)) == len(trees)
        for t, form in zip(trees, forms):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(permuted(t, perm)) == form


def per_bit_int(rows, order):
    """The relabelled upper triangle as the package once built it: one
    shift of one growing int per matrix bit."""
    code = 0
    for j, v in enumerate(order):
        for i in range(j):
            code = code << 1 | (rows[v] >> order[i] & 1)
    return code


def per_bit_code(rows, order):
    """graph6 bytes of the relabelled graph (order <= 62), cut from
    per_bit_int as the package once cut them."""
    n = len(order)
    pad = -(n * (n - 1) // 2) % 6
    code = per_bit_int(rows, order) << pad
    return bytes([n + 63]) + bytes(
        (code >> s & 63) + 63 for s in range(n * (n - 1) // 2 + pad - 6, -1, -6)
    )


def test_codes_match_per_bit_routine():
    rng = random.Random(37)
    for n in range(1, 61):
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        order = list(range(n))
        rng.shuffle(order)
        assert graph6_of(g.rows, order) == per_bit_code(g.rows, order)
        p = path_graph(n)
        assert canonical_form(p) == per_bit_code(p.rows, _labelling(p)[0])


def test_graph6_bytes_sort_as_the_bits():
    # the canonical search compares graph6_of bytes where it once compared
    # the per_bit_int of the same order
    rng = random.Random(43)
    for n in range(1, 13):
        for _ in range(20):
            p = rng.random()
            g = build_graph(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            )
            a, b = list(range(n)), list(range(n))
            rng.shuffle(a)
            rng.shuffle(b)
            ka, kb = per_bit_int(g.rows, a), per_bit_int(g.rows, b)
            ga, gb = graph6_of(g.rows, a), graph6_of(g.rows, b)
            assert (ga < gb) == (ka < kb) and (ga == gb) == (ka == kb)


def test_long_path_canonical_form():
    # the per-bit routine took about 40 s here
    rng = random.Random(41)
    perm = list(range(1500))
    rng.shuffle(perm)
    start = time.perf_counter()
    code = canonical_form(permuted(path_graph(1500), perm))
    assert time.perf_counter() - start < 10
    g = graph6_decode(code)
    assert is_tree(g) and max(g.degree_sequence()) == 2
