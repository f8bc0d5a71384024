import hashlib
import itertools
import random
import time

import pytest

from satforge.constructions import make_h0, make_star, make_t0k, make_t1k, make_tk
from satforge.graphs import (
    build_graph,
    complete_graph,
    component_masks,
    cycle_graph,
    diameter,
    disjoint_union,
    induced_subgraph,
    join,
    empty_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
)
from satforge.patterns import (
    TreePattern,
    Witness,
    _iter_paths_exact,
    _walk,
    contains_join_k1,
    contains_linear_forest,
    find_path_of_order,
    has_clique,
    has_path_of_order,
    iter_cliques,
    subtree_contains,
    witness_ok,
)
from satforge.saturation import contains_member, member_witness_ok, parse_family
from satforge.search import claimed_patterns, enumerate_trees, scan_saturated_trees


def random_graph(rng, n, p=0.4):
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_tree(rng, n):
    return build_graph(n, [(rng.randrange(0, v), v) for v in range(1, n)])


def longest_path_dp(g):
    """Subset-DP longest path oracle: exact for n <= ~16."""
    n = g.n
    if n == 0:
        return 0
    reach = [1 << v for v in range(n)]
    frontier = {(1 << v, v) for v in range(n)}
    best = 1
    while frontier:
        nxt = set()
        for mask, v in frontier:
            for u in range(n):
                if g.has_edge(u, v) and not mask >> u & 1:
                    nxt.add((mask | 1 << u, u))
        if nxt:
            best += 1
        frontier = nxt
    return best


def reference_tree_path(t):
    """A longest path of the tree t as the detector once found it: the
    least farthest vertex a from vertex 0, the least farthest b from a,
    then the shortest path from min(a, b) to max(a, b)."""

    def bfs(src):
        dist, todo = {src: 0}, [src]
        for v in todo:
            for u in t.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    todo.append(u)
        return dist

    def farthest(src):
        dist = bfs(src)
        return min(v for v in dist if dist[v] == max(dist.values()))

    a = farthest(0)
    b = farthest(a)
    a, b = min(a, b), max(a, b)
    dist = bfs(a)
    path = [b]
    while path[-1] != a:
        path.append(min(u for u in t.neighbors(path[-1]) if dist[u] == dist[path[-1]] - 1))
    return path[::-1]


def glued_blocks(rng, shapes, first=None, limit=16):
    """A connected graph of order <= limit, relabelled at random, built by
    hanging blocks at random vertices: `first` (kind, least, most) and then
    blocks drawn from `shapes`, each an edge, a cycle or a clique."""
    edges, n = [], 0

    def hang(kind, size, at):
        nonlocal n
        vs = ([] if at is None else [at]) + list(range(n, n + size - (at is not None)))
        n += len(vs) - (at is not None)
        if kind == "clique":
            edges.extend(itertools.combinations(vs, 2))
        else:
            edges.extend(zip(vs, vs[1:]))
            if kind == "cycle":
                edges.append((vs[-1], vs[0]))

    kind, lo, hi = first or rng.choice(shapes)
    hang(kind, rng.randint(lo, hi), None)
    while True:
        kind, lo, hi = rng.choice(shapes)
        size = rng.randint(lo, hi)
        if n + size - 1 > limit:
            break
        hang(kind, size, rng.randrange(n))
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def tree_with_chords(rng, limit=16):
    """A random tree of order 8..limit plus one to four chords."""
    n = rng.randint(8, limit)
    t = random_tree(rng, n)
    chords = [e for e in itertools.combinations(range(n), 2) if not t.has_edge(*e)]
    return build_graph(n, list(t.edges()) + rng.sample(chords, rng.randint(1, 4)))


class TestHasClique:
    def test_examples(self):
        assert has_clique(complete_graph(4), 3).parts == ((0, 1, 2),)
        assert has_clique(make_star(10), 3) is None
        assert has_clique(complete_graph(3), 1).parts == ((0,),)

    def test_h0_block(self):
        q1 = induced_subgraph(make_h0(200, 10), range(80))
        w = has_clique(q1, 4)
        assert w is not None and len(w.parts[0]) == 4
        cl = w.parts[0]
        assert all(q1.has_edge(a, b) for i, a in enumerate(cl) for b in cl[i + 1 :])

    def test_lex_least(self):
        g = build_graph(5, [(1, 2), (2, 3), (1, 3), (0, 4)])
        assert has_clique(g, 3).parts == ((1, 2, 3),)

    def test_yield_order_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.random())
            mask = rng.getrandbits(n)
            for p in range(1, 5):
                want = [
                    c for c in itertools.combinations(range(n), p)
                    if all(mask >> v & 1 for v in c)
                    and all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
                ]
                assert list(iter_cliques(g, p, mask)) == want

    def test_clique_deeper_than_the_recursion_limit(self):
        w = has_clique(complete_graph(1200), 1100)
        assert w.parts == (tuple(range(1100)),)


class TestHasPath:
    def test_layered_tree(self):
        t = make_t1k(10)
        assert has_path_of_order(t, 10) is None
        w = has_path_of_order(t, 9)
        assert w is not None and len(w.parts[0]) == 9 and witness_ok(t, w)

    def test_tiny(self):
        assert has_path_of_order(complete_graph(2), 2) is not None
        assert has_path_of_order(empty_graph(3), 2) is None
        with pytest.raises(ValueError):
            has_path_of_order(complete_graph(2), 0)

    def test_against_dp_oracle_exhaustive(self):
        from satforge.search import enumerate_graphs

        for n in range(1, 8):
            for g in enumerate_graphs(n):
                lp = longest_path_dp(g)
                for k in range(1, n + 1):
                    assert (has_path_of_order(g, k) is not None) == (k <= lp), (g, k)

    def test_against_dp_oracle_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(8, 11)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.6]))
            lp = longest_path_dp(g)
            for k in (lp - 1, lp, lp + 1):
                if 1 <= k <= n:
                    assert (has_path_of_order(g, k) is not None) == (k <= lp)

    def test_path_order_vs_diameter_on_trees(self):
        rng = random.Random(12)
        for _ in range(30):
            t = random_tree(rng, rng.randrange(2, 14))
            d = diameter(t)
            for k in (d, d + 1, d + 2):
                assert (has_path_of_order(t, k) is not None) == (k <= d + 1)

    def test_tree_paths_match_reference_double_sweep(self):
        rng = random.Random(61)
        for n in range(2, 13):
            for t in enumerate_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for g in (t, build_graph(n, [(perm[u], perm[v]) for u, v in t.edges()])):
                    ref = reference_tree_path(g)
                    for k in range(2, n + 1):
                        want = ref if k <= len(ref) else None
                        assert find_path_of_order(g, k) == want, (graph6_encode(g), k)

    def test_paths_match_recorded(self):
        # sha256 of the paths found in 200 seeded graphs of order 6..11, with
        # and without a random mask, recorded when components with a cycle
        # were first searched block by block; the sample reaches trees,
        # bridges and the weighted walks of larger blocks
        rng = random.Random(53)
        out = []
        for _ in range(200):
            n = rng.randrange(6, 12)
            p = rng.choice([0.12, 0.2, 0.3, 0.5])
            g = random_graph(rng, n, p)
            mask = rng.getrandbits(n) | rng.getrandbits(n)
            for k in range(2, n + 1):
                out.append(repr(find_path_of_order(g, k, mask)))
                out.append(repr(find_path_of_order(g, k)))
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        assert digest == "38cf4a05c726f8e0f0af444484ffd938aa4005f5792733ce72eefa13270891c1"

    def test_one_block_components_take_the_first_path(self):
        # a 2-connected component is one block whose vertices all weigh 1,
        # so the search returns the first path the pruned walk meets: the
        # first path of order k that the unpruned enumerator yields
        rng = random.Random(15)
        one_block = 0
        for _ in range(400):
            n = rng.randint(3, 14)
            g = random_graph(rng, n, rng.uniform(0.2, 1.0))
            mask = rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n)
            for comp in component_masks(g, mask):
                size = comp.bit_count()
                if size < 3 or any(
                    len(component_masks(g, comp & ~(1 << v))) > 1 for v in range(n) if comp >> v & 1
                ):
                    continue
                one_block += 1
                for k in range(2, size + 1):
                    first = next(_iter_paths_exact(g.rows, k, comp), None)
                    want = None if first is None else list(first)
                    assert find_path_of_order(g, k, comp) == want, (graph6_encode(g), k)
        assert one_block > 100

    def test_glued_blocks_against_dp_oracle(self):
        # cactus chains, cliques with pendant trees, cycles with legs and
        # sparse graphs with chords, relabelled at random: every query
        # agrees with the subset DP and every path found is a path
        rng = random.Random(97)
        shapes = {
            "cactus": lambda: glued_blocks(rng, [("cycle", 3, 5)] * 3 + [("edge", 2, 2)]),
            "clique": lambda: glued_blocks(rng, [("edge", 2, 2)], first=("clique", 3, 6)),
            "legs": lambda: glued_blocks(rng, [("edge", 2, 2)], first=("cycle", 4, 10)),
            "chords": lambda: tree_with_chords(rng),
        }
        for name, make in shapes.items():
            for _ in range(50):
                g = make()
                lp = longest_path_dp(g)
                for k in range(2, g.n + 1):
                    path = find_path_of_order(g, k)
                    assert (path is not None) == (k <= lp), (name, graph6_encode(g), k)
                    if path is not None:
                        assert len(path) >= k and path[0] < path[-1]
                        assert witness_ok(g, Witness("path", (tuple(path),))), (name, path)

    def test_block_chains_answer_at_once(self):
        # a chain of 130 triangles, each sharing a vertex with the next, and
        # C300 with three chords: the search follows the blocks, not the
        # number of independent cycles
        chain = build_graph(
            261, [e for i in range(0, 260, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
        )
        c300 = build_graph(
            300, [(i, (i + 1) % 300) for i in range(300)] + [(66, 189), (242, 297), (6, 33)]
        )
        for g, k in ((chain, 10), (chain, 261), (c300, 300)):
            start = time.perf_counter()
            path = find_path_of_order(g, k)
            assert time.perf_counter() - start < 1.0, (g.n, k)
            assert len(path) >= k and witness_ok(g, Witness("path", (tuple(path),)))
        assert find_path_of_order(chain, 262) is None

    def test_witness_is_a_path(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_graph(rng, 9, 0.35)
            w = has_path_of_order(g, 5)
            if w is not None:
                assert witness_ok(g, w) and len(w.parts[0]) == 5


class TestCliquePlusPath:
    K3_P10 = parse_family("K3+P10")

    def test_pattern_itself(self):
        g = disjoint_union(complete_graph(3), path_graph(10))
        w = contains_member(g, self.K3_P10)
        assert w is not None and member_witness_ok(g, self.K3_P10.members[0], w)

    def test_h0_is_free(self):
        assert contains_member(make_h0(200, 10), self.K3_P10) is None

    def test_q1_alone_is_free(self):
        q1 = induced_subgraph(make_h0(200, 10), range(80))
        assert contains_member(q1, self.K3_P10) is None
        # but it does have long paths and triangles separately
        assert has_path_of_order(q1, 10) is not None
        assert has_clique(q1, 3) is not None


class TestLinearForest:
    def test_examples(self):
        p5 = path_graph(5)
        assert contains_linear_forest(p5, [2, 3]) is not None
        assert contains_linear_forest(p5, [3, 3]) is None
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        assert contains_linear_forest(two_k2, [2, 2]) is not None

    def test_part_order_matches_request(self):
        w = contains_linear_forest(path_graph(5), [2, 3])
        assert len(w.parts[0]) == 2 and len(w.parts[1]) == 3

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            contains_linear_forest(path_graph(3), [])

    def test_exact_paths_against_brute_force(self):
        # each path once, from its smaller end, in lexicographic order
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.random())
            mask = rng.getrandbits(n)
            for order in range(1, 6):
                want = [
                    seq for seq in itertools.permutations(range(n), order)
                    if all(mask >> v & 1 for v in seq)
                    and (order == 1 or seq[0] < seq[-1])
                    and all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))
                ]
                assert list(_iter_paths_exact(g.rows, order, mask)) == want

    def test_unit_weight_walk_meets_the_unweighted_paths(self):
        # from the least vertex of the mask, where every path ends above its
        # start, the pruned walk with unit weights yields the first path of
        # each order from `order` up, as the unweighted walk finds them
        rng = random.Random(14)
        for n in range(2, 12):
            for _ in range(12):
                g = random_graph(rng, n, rng.random())
                mask = rng.getrandbits(n) | rng.getrandbits(n)
                if not mask:
                    continue
                s = (mask & -mask).bit_length() - 1
                unit = {v: 1 for v in range(n)}
                for order in range(2, 7):
                    firsts = []
                    for o in range(order, n + 1):
                        first = next(_walk(g.rows, mask, 1 << s, o), None)
                        if first is None:
                            break
                        firsts.append(first)
                    assert list(_walk(g.rows, mask, 1 << s, order, unit)) == firsts, (
                        graph6_encode(g), mask, order
                    )

    def test_weighted_walk_yields_each_record(self):
        # a path's value is its order plus weight - 1 at each end; the walk
        # yields, in depth-first order, each path whose value reaches the
        # target, raising it past that value, however it prunes
        rng = random.Random(18)
        for _ in range(150):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            mask = rng.getrandbits(n) | rng.getrandbits(n)
            weight = {v: rng.choice((1, 1, 2, 4)) for v in range(n)}
            heavy = sum(1 << v for v in range(n) if weight[v] > 1)
            for s in range(n):
                if not mask >> s & 1:
                    continue
                paths = []

                def grow(seq):
                    for u in range(n):
                        if mask >> u & 1 and u not in seq and g.has_edge(seq[-1], u):
                            paths.append((*seq, u))
                            grow([*seq, u])

                grow([s])
                for need in range(2, n + 8):
                    want, target = [], need
                    for p in paths:
                        value = weight[p[0]] + weight[p[-1]] + len(p) - 2
                        if value >= target:
                            want.append(p)
                            target = value + 1
                    got = list(_walk(g.rows, mask, 1 << s, need, weight, heavy))
                    assert got == want, (graph6_encode(g), mask, s, need)

    def test_path_deeper_than_the_recursion_limit(self):
        g = disjoint_union(path_graph(1600), complete_graph(3))
        w = contains_linear_forest(g, [1500])
        assert w.parts == (tuple(range(1500)),)


class TestJoinK1:
    def test_bowtie_hub(self):
        bowtie = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        w = contains_join_k1(bowtie, [2, 2])
        assert w is not None and w.parts[0] == (2,)

    def test_star_has_no_triangle(self):
        assert contains_join_k1(make_star(7), [2]) is None

    def test_wheel(self):
        wheel = join(empty_graph(1), cycle_graph(5))
        w = contains_join_k1(wheel, [5])
        assert w is not None and witness_ok(wheel, w)

    def test_cross_check_with_linear_forest(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(4, 9), 0.5)
            orders = rng.choice([[2], [2, 2], [3], [2, 3]])
            direct = contains_join_k1(g, orders)
            by_hand = any(
                contains_linear_forest(g, orders, mask=g.rows[v]) is not None
                for v in range(g.n)
            )
            assert (direct is not None) == by_hand


def adjacency_lists(g):
    return [list(g.neighbors(v)) for v in range(g.n)]


def subgraph_iso_oracle(host, pattern):
    """Generic backtracking subgraph isomorphism (not induced)."""
    hp = [set(host.neighbors(v)) for v in range(host.n)]
    pp = [set(pattern.neighbors(v)) for v in range(pattern.n)]

    def extend(mapping, used):
        if len(mapping) == pattern.n:
            return True
        p = len(mapping)
        for h in range(host.n):
            if h in used:
                continue
            if len(pp[p]) > len(hp[h]):
                continue
            if all(mapping[q] in hp[h] for q in pp[p] if q < p):
                mapping.append(h)
                used.add(h)
                if extend(mapping, used):
                    return True
                mapping.pop()
                used.remove(h)
        return False

    return extend([], set())


class TestSubtreeContains:
    def test_identity(self):
        t = make_t0k(9)
        w = subtree_contains(t, t)
        assert w is not None and len(set(w.parts[0])) == t.n

    def test_star_cannot_host_path(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert subtree_contains(star, path_graph(4)) is None

    def test_diameter_obstruction(self):
        assert subtree_contains(make_t0k(10), make_t1k(10)) is None

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            subtree_contains(cycle_graph(4), path_graph(2))
        with pytest.raises(ValueError, match="pattern"):
            subtree_contains(path_graph(4), cycle_graph(3))
        with pytest.raises(ValueError, match="pattern"):
            TreePattern(cycle_graph(4))

    def test_embedding_preserves_edges(self):
        host, pat = make_tk(8), make_t0k(8)
        w = subtree_contains(host, pat)
        assert w is not None
        mapping = w.parts[0]
        for u, v in pat.edges():
            assert host.has_edge(mapping[u], mapping[v])

    def test_against_generic_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            host = random_tree(rng, rng.randrange(2, 13))
            pattern = random_tree(rng, rng.randrange(2, min(host.n + 2, 10)))
            got = subtree_contains(host, pattern)
            want = subgraph_iso_oracle(host, pattern)
            assert (got is not None) == want, (host, pattern)
            if got is not None:
                mapping = got.parts[0]
                assert len(set(mapping)) == pattern.n
                for u, v in pattern.edges():
                    assert host.has_edge(mapping[u], mapping[v])

    def test_every_small_pair_against_generic_oracle(self):
        # every free tree of order <= 9 hosts every one of order <= 6, or
        # not, as the brute force says; with the host's diameter given, the
        # prepared pattern answers the same
        hosts = [t for n in range(1, 10) for t in enumerate_trees(n)]
        patterns = [t for n in range(1, 7) for t in enumerate_trees(n)]
        found = 0
        for pattern in patterns:
            prepared = TreePattern(pattern)
            for host in hosts:
                got = subtree_contains(host, pattern)
                assert (got is not None) == subgraph_iso_oracle(host, pattern), (host, pattern)
                mapping = prepared.embedding(adjacency_lists(host), diameter(host))
                assert mapping == (None if got is None else list(got.parts[0]))
                if got is not None:
                    found += 1
                    mapping = got.parts[0]
                    assert len(mapping) == pattern.n
                    assert len(set(mapping)) == pattern.n
                    for u, v in pattern.edges():
                        assert host.has_edge(mapping[u], mapping[v])
        assert 0 < found < len(hosts) * len(patterns)

    def test_scan_flags_match_networkx(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        seen = set()
        for k in range(5, 10):
            targets = {name: to_nx(pat) for name, pat in claimed_patterns(k)}
            for w in scan_saturated_trees(range(4, 13), k).witnesses:
                host = to_nx(graph6_decode(w.graph6))
                for name, flag in w.contains:
                    assert flag == GraphMatcher(host, targets[name]).subgraph_is_monomorphic(), (k, w)
                    seen.add(flag)
        assert seen == {False, True}

    def test_early_rejections_come_before_any_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(TreePattern, "_fits", no_search)
        # wider: T1_10 (order 20, diameter 8) in T0_10 (order 22, diameter 7)
        host = adjacency_lists(make_t0k(10))
        wide = TreePattern(make_t1k(10))
        assert wide.embedding(host, 7) is None
        with pytest.raises(AssertionError, match="searched"):
            wide.embedding(host)
        # larger: a path one vertex longer than the host's order
        small = make_t0k(8)
        assert subtree_contains(small, path_graph(small.n + 1)) is None
        with pytest.raises(AssertionError, match="searched"):
            subtree_contains(small, path_graph(small.n))
