import itertools
import random
import time

from satforge import canon
from satforge.canon import (
    _find,
    _labelling,
    _meet,
    _refine,
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
    iter_bits,
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


def full_refine(rows, cells):
    """Equitable refinement that keys every vertex by its neighbours in
    every cell on every pass, the count _refine trims."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells = []
        for cell in cells:
            groups = {}
            for v in cell:
                groups.setdefault(tuple((rows[v] & m).bit_count() for m in masks), []).append(v)
            new_cells += [tuple(groups[key]) for key in sorted(groups)]
        if new_cells == cells:
            return cells
        cells = new_cells


def test_refine_matches_the_full_count():
    # counting only in the pieces that just split keeps every cell and its
    # place: on the degree partition of every graph of order <= 7, on each
    # partition that individualises one vertex of a refined cell (with that
    # vertex as the one splitter, as the search refines), and on random
    # partitions of random graphs
    def degree_cells(rows):
        degrees = {}
        for v, r in enumerate(rows):
            degrees.setdefault(r.bit_count(), []).append(v)
        return [tuple(degrees[d]) for d in sorted(degrees)]

    cases = [(g.rows, degree_cells(g.rows)) for n in range(1, 8) for g in enumerate_graphs(n)]
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 16)
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        labels = [rng.randrange(3) for _ in range(n)]
        cells = [tuple(v for v in range(n) if labels[v] == c) for c in range(3)]
        cases.append((g.rows, [c for c in cells if c]))
    def masks(cells):  # _refine takes and gives each cell as a vertex mask
        return [sum(1 << v for v in c) for c in cells]

    for rows, cells in cases:
        refined = full_refine(rows, cells)
        assert _refine(rows, masks(cells)) == masks(refined), (rows, cells)
        for i, cell in enumerate(refined):
            for v in cell if len(cell) > 1 else ():
                parted = refined[:i] + [(v,), tuple(u for u in cell if u != v)] + refined[i + 1 :]
                assert _refine(rows, masks(parted), [1 << v]) == masks(full_refine(rows, parted)), (rows, v)


def unpruned_search_order(rows, cells, orbit, sink):
    """The canonical search before automorphism pruning, as the reference:
    every discrete refinement is walked but twins of a vertex already
    tried, and leaves are compared by their graph6_of bytes.  Takes and
    refines cells as tuples."""
    best = [None, None]  # code, order

    def walk(cells):
        split = next((i for i, c in enumerate(cells) if len(c) > 1), -1)
        if split < 0:
            order = [c[0] for c in cells]
            code = graph6_of(rows, order)
            if best[0] is None or code < best[0]:
                best[0], best[1] = code, order
            elif code == best[0]:
                _meet(orbit, sink, best[1], order)
            return
        cell = cells[split]
        tried = []
        for v in cell:
            twin = next((u for u in tried if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)), -1)
            if twin >= 0:
                _meet(orbit, sink, (v, twin), (twin, v))
                continue
            tried.append(v)
            rest = tuple(u for u in cell if u != v)
            walk(full_refine(rows, cells[:split] + [(v,), rest] + cells[split + 1 :]))

    walk(cells)
    return best[1]


def orbit_partition(orbit):
    blocks = {}
    for v in range(len(orbit)):
        blocks.setdefault(_find(orbit, v), []).append(v)
    return sorted(blocks.values())


def unpruned_labelling(g, monkeypatch):
    def reference(rows, cells, orbit, sink):
        return unpruned_search_order(rows, [tuple(iter_bits(c)) for c in cells], orbit, sink)

    with monkeypatch.context() as m:
        m.setattr(canon, "_search_order", reference)
        return _labelling(g)


def random_graphs(seed, count, top):
    """Seeded random graphs of order <= top: dense and sparse ones, trees,
    and disjoint unions of those, some with isomorphic parts."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, top)
        kind = i % 4
        if kind == 0:
            p = rng.random()
            g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        elif kind == 1:
            g = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        else:
            a = rng.randint(1, max(1, n // 2))
            part = build_graph(a, [e for e in itertools.combinations(range(a), 2) if rng.random() < 0.5])
            other = part if kind == 2 else build_graph(n - a, [(rng.randrange(v), v) for v in range(1, n - a)])
            g = disjoint_union(part, other) if other.n else part
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(permuted(g, perm))
    return out


def test_pruned_search_matches_unpruned_reference(monkeypatch):
    # automorphism pruning keeps the order, so the canonical code, and the
    # orbits: on every graph of order <= 7, on seeded random graphs of
    # order <= 12, and on relabelled Shrikhande graphs, where the
    # stabiliser of a vertex splits the cell of its non-neighbours that
    # refinement leaves whole, so pruning by an automorphism that moves an
    # individualised vertex would lose leaves
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += random_graphs(47, 200, 12)
    rng = random.Random(59)
    for _ in range(12):
        perm = list(range(16))
        rng.shuffle(perm)
        graphs.append(permuted(shrikhande(), perm))
    for g in graphs:
        order, orbit = _labelling(g)
        want_order, want_orbit = unpruned_labelling(g, monkeypatch)
        assert order == want_order, g
        assert orbit_partition(orbit) == orbit_partition(want_orbit), g


def cocktail_party(n):
    """K(2, ..., 2) on n vertices: K_n less a perfect matching."""
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if v != u ^ 1])


def circulant(n, s):
    """C_n(1..s): i ~ j when their distance around the n-cycle is at most s."""
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if min(v - u, n - v + u) <= s])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + inner + [(i, 5 + i) for i in range(5)])


def shrikhande():
    """The Cayley graph of Z4 x Z4 on the steps (0, 1), (1, 0) and (1, 1):
    strongly regular like the 4 x 4 rook's graph, with a smaller group."""
    steps = ((0, 1), (1, 0), (1, 1))
    return build_graph(
        16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4) for a in range(4) for b in range(4) for x, y in steps]
    )


def complete_bipartite(m):
    return build_graph(2 * m, [(u, m + v) for u in range(m) for v in range(m)])


SYMMETRIC = (
    [cocktail_party(n) for n in range(8, 21, 2)]
    + [circulant(n, s) for n in range(3, 21) for s in range(1, n // 2 + 1)]
    + [petersen(), shrikhande()]
    + [complete_bipartite(m) for m in range(1, 11)]
)


def test_symmetric_graphs():
    # vertex-transitive and near-transitive graphs, whose groups twin swaps
    # alone do not generate: relabelled copies share a form, and at order
    # <= 8 the orbits are those of explicit enumeration
    rng = random.Random(53)
    for g in SYMMETRIC:
        form = canonical_form(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(permuted(g, perm)) == form, g
        if g.n <= 8:
            orb = brute_orbits(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert same_orbit(g, u, v) == (orb[u] == orb[v]), (g, u, v)


def test_cocktail_party_leaves(monkeypatch):
    # the leaves the search compares on K(2, ..., 2) of order 20, counted
    # by their keys; unpruned, the search walked too many to finish
    leaves = []
    key = canon._leaf_key

    def counted(rows, order):
        leaves.append(order)
        return key(rows, order)

    monkeypatch.setattr(canon, "_leaf_key", counted)
    canonical_form(cocktail_party(20))
    assert len(leaves) == 46
