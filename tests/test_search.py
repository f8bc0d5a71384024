import concurrent.futures
import hashlib
import itertools
import os
import random

import pytest

from satforge import canon, saturation
from satforge.canon import (
    _labelling,
    accepts,
    augmentation_code,
    canonical_form,
    canonical_last_vertex,
    same_orbit,
)
from satforge.constructions import make_t0k, make_t1k
from satforge.graphs import (
    build_graph,
    diameter,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_tree,
    longest_path_layers,
    tree_adjacency,
)
from satforge.saturation import (
    _Forest,
    check_saturated,
    chord_reach,
    contains_member,
    parse_family,
    tree_is_saturated,
)
from satforge.search import (
    BudgetExceededError,
    enumerate_graphs,
    enumerate_trees,
    sat_bruteforce,
    scan_saturated_trees,
)
from satforge.search import (
    _augmented,
    _candidates,
    _children,
    _graph_level,
    _height_of,
    _iter_free_trees,
    _parents,
    _scan_shard,
    _trees_by_diameter,
    _viable,
    _window_heights,
)

# OEIS A000055, free trees on n vertices
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235,
    12: 551, 13: 1301, 14: 3159,
}
SLOW_TREE_COUNTS = {15: 7741, 16: 19320, 17: 48629, 18: 123867}
# (orders, (trees_scanned, trees_checked, saturated_count)) of
# scan_saturated_trees(orders, k), keyed k, recorded when every checked tree
# still went through check_saturated
SCAN_COUNTS = {
    5: (range(4, 10), (92, 12, 11)),
    6: (range(4, 10), (92, 42, 27)),
    8: (range(6, 12), (428, 232, 3)),
}
# witnesses of scan_saturated_trees(range(6, 14), k), recorded with the
# free-tree generator that WROM replaced: count, and sha256 of the graph6
# strings joined by spaces
SCAN_GOLDEN = {
    7: (179, "25de5196b6348073c99b2d0b5daa4164a0f4c43085db9f929d49a1c5506ee5b3"),
    8: (36, "859fc6de3052fc578ab1a18590feb55984191b73fc85954cdfb8699105a22334"),
    9: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
# OEIS A000088, graphs on n vertices
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# sha256 of the graph6 strings of enumerate_graphs(n) joined by newlines,
# recorded while each augmented child still ran three canonical searches:
# the labelled representatives, and so every brute-force witness, are fixed
GRAPH_STREAM_GOLDEN = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "964a9bccff2882955bf2a5d8e13359dac830812ec049f0f312501df87890e906",
    4: "a9d25df6b3fb30c1d80567d868d9fc883f4b43ce43be23bcc1f73fafd2ef817c",
    5: "6d0f21eb001a663444f72a1a636e7ba92c6514d66ac570406f398eefa986e29a",
    6: "b59a06620b82e6c75ef1cd62b8ec75ef87da2108d5a308e9895286643d9fdc1f",
    7: "9e0997e6f04eeabbfa7a2618bf4ac40afb0828236d3924534ec8815178de8553",
    8: "997ce540e841023ad102cb70b47fa4941678418d3170f27c374b0f18e2da8059",
}
# order-8 classes the catalogue lost while it deduplicated a parent's
# children before testing their acceptance
RECOVERED_ORDER_8 = (b"GhoGbg", b"GhMgck", b"GPzsB[")


def marked(g, v):
    """g with a clique on g.n + 1 new vertices, each joined to v: two marked
    copies are isomorphic iff an automorphism of g maps one mark to the
    other, since only the clique and the mark reach degree g.n + 1."""
    k = g.n + 1
    clique = range(g.n, g.n + k)
    edges = list(g.edges()) + [(v, c) for c in clique]
    edges += list(itertools.combinations(clique, 2))
    return build_graph(g.n + k, edges)


def tree_of(levels):
    """The tree of a preorder level sequence, built from its parent array
    as enumerate_trees and the scan's witnesses build it."""
    return build_graph(len(levels), enumerate(_parents(levels)[1:], 1))


def prufer_tree(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


class TestEnumerateTrees:
    def test_known_counts(self):
        for n, want in TREE_COUNTS.items():
            assert sum(1 for _ in enumerate_trees(n)) == want

    def test_yields_trees_once_each(self):
        for n in (6, 8):
            codes = [canonical_form(t) for t in enumerate_trees(n)]
            assert all(is_tree(t) and t.n == n for t in enumerate_trees(n))
            assert len(codes) == len(set(codes)) == TREE_COUNTS[n]

    def test_prufer_dedupe_oracle(self):
        # independent oracle: all labeled trees via sequences, deduped
        for n in range(3, 8):
            labeled = {
                canonical_form(prufer_tree(seq, n))
                for seq in itertools.product(range(n), repeat=n - 2)
            }
            enumerated = {canonical_form(t) for t in enumerate_trees(n)}
            assert labeled == enumerated

    def test_random_labeled_trees_are_covered(self):
        rng = random.Random(61)
        enumerated = {canonical_form(t) for t in enumerate_trees(10)}
        for _ in range(50):
            seq = [rng.randrange(10) for _ in range(8)]
            assert canonical_form(prufer_tree(seq, 10)) in enumerated

    @pytest.mark.slow
    def test_known_counts_to_18(self):
        for n, want in SLOW_TREE_COUNTS.items():
            assert sum(1 for _ in enumerate_trees(n)) == want

    def test_counts_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in range(1, 15):
            assert sum(1 for _ in _iter_free_trees(n)) == nx.number_of_nonisomorphic_trees(n)

    def test_yielded_diameter(self):
        for n in range(1, 15):
            for levels, diam in _iter_free_trees(n):
                assert diam == diameter(tree_of(levels)), levels

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_trees(23))

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("SATFORGE_BUDGET", "trees=5,graphs=5")
        with pytest.raises(BudgetExceededError):
            list(enumerate_trees(6))
        monkeypatch.setenv("SATFORGE_BUDGET", "4")
        with pytest.raises(BudgetExceededError):
            list(enumerate_graphs(5))


class TestEnumerateGraphs:
    def test_known_counts(self):
        for n, want in GRAPH_COUNTS.items():
            assert sum(1 for _ in enumerate_graphs(n)) == want

    def test_labeled_dedupe_oracle(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            labeled = set()
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                labeled.add(canonical_form(g))
            enumerated = [canonical_form(g) for g in enumerate_graphs(n)]
            assert len(enumerated) == len(set(enumerated))
            assert set(enumerated) == labeled

    def test_graph6_round_trip_on_catalogue(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert graph6_decode(graph6_encode(g)) == g

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_graphs(9))

    @pytest.mark.slow
    def test_order_8_count(self):
        # a list, not a set: no child goes through a per-parent code set, so
        # a class yielded twice must show here
        listed = [canonical_form(g) for g in enumerate_graphs(8)]
        codes = set(listed)
        assert len(listed) == len(codes) == 12346
        for w in RECOVERED_ORDER_8:
            assert canonical_form(graph6_decode(w)) in codes, w

    @pytest.mark.parametrize("n", sorted(GRAPH_STREAM_GOLDEN))
    def test_labelled_stream_matches_recorded(self, n):
        stream = b"\n".join(graph6_encode(g) for g in enumerate_graphs(n))
        assert hashlib.sha256(stream).hexdigest() == GRAPH_STREAM_GOLDEN[n]

    def test_classes_match_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set] = {}
        for h in nx.graph_atlas_g():
            pos = {v: i for i, v in enumerate(h)}
            g = build_graph(len(pos), [(pos[u], pos[v]) for u, v in h.edges()])
            atlas.setdefault(g.n, set()).add(canonical_form(g))
        for n in range(1, 8):
            assert {canonical_form(g) for g in enumerate_graphs(n)} == atlas[n]


class TestAugmentation:
    """The one canonical pass behind each augmented child against the full
    pass and against orbits found by marking."""

    def test_early_rejection_matches_full_pass(self):
        # every child of every parent of order <= 6: the code and the orbit
        # test of augmentation_code against the answers of separate passes
        for k in range(1, 7):
            for parent in enumerate_graphs(k):
                for subset in range(1 << k):
                    child = _augmented(parent, subset)
                    last = canonical_last_vertex(child)
                    want = canonical_form(child) if same_orbit(child, k, last) else None
                    assert augmentation_code(child, k) == want, (parent, subset)

    def test_acceptance_against_marked_oracle(self):
        # every child of every parent of order <= 5
        for k in range(1, 6):
            for parent in enumerate_graphs(k):
                for subset in range(1 << k):
                    child = _augmented(parent, subset)
                    last = canonical_last_vertex(child)
                    same = last == k or canonical_form(
                        marked(child, k)
                    ) == canonical_form(marked(child, last))
                    assert (augmentation_code(child, k) is not None) == same

    def test_accepts_matches_augmentation_code(self):
        # every child of every parent of order <= 5
        for k in range(1, 6):
            for parent in enumerate_graphs(k):
                for subset in range(1 << k):
                    child = _augmented(parent, subset)
                    assert accepts(child, k) == (augmentation_code(child, k) is not None)
        # every child the order-7 walk asks about
        asked = 0
        for parent, gens in _graph_level(6):
            for child in _candidates(parent, gens):
                asked += 1
                assert accepts(child, 6) == (augmentation_code(child, 6) is not None)
        assert asked == 1405
        # two components tie for the largest order, isomorphic or not, trees
        # or not, with the new vertex in either one
        quads = [g for g in enumerate_graphs(4) if is_connected(g)]
        for a, b in itertools.combinations_with_replacement(quads, 2):
            g = disjoint_union(a, b)
            for v in range(8):
                assert accepts(g, v) == (augmentation_code(g, v) is not None), (a, b, v)

    def test_accepts_against_marked_oracle_at_order_7(self):
        # every child the order-7 walk asks about, against canonical forms of
        # marked copies, which read no orbit forest
        asked = 0
        for parent, gens in _graph_level(6):
            for child in _candidates(parent, gens):
                asked += 1
                last = canonical_last_vertex(child)
                same = last == 6 or canonical_form(marked(child, 6)) == canonical_form(
                    marked(child, last)
                )
                assert accepts(child, 6) == same, child
        assert asked == 1405


def reference_children(parent):
    """Canonical children as found without pruning: every neighbourhood,
    each child through the full pass, deduplicated per parent by code."""
    seen, out = set(), []
    for subset in range(1 << parent.n):
        child = _augmented(parent, subset)
        code = augmentation_code(child, parent.n)
        if code is not None and code not in seen:
            seen.add(code)
            out.append(child)
    return out


def as_permutation(n, gen):
    """The image list of a recorded generator, a bytes permutation of
    range(n)."""
    assert isinstance(gen, bytes) and len(gen) == n
    return list(gen)


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        g.has_edge(perm[u], perm[v]) for u, v in g.edges()
    )


def group_order(n, gens):
    """Order of the permutation group that gens span, by closure."""
    perms = [as_permutation(n, gen) for gen in gens]
    group = {tuple(range(n))}
    todo = list(group)
    for p in todo:
        for q in perms:
            r = tuple(q[p[v]] for v in range(n))
            if r not in group:
                group.add(r)
                todo.append(r)
    return len(group)


def recorded_generators(g):
    sink = []
    _labelling(g, sink=sink)
    return sink


class TestPruning:
    """The walk of _children skips, unbuilt, the neighbourhoods that _viable
    rules out and those an automorphism of the parent maps from a smaller
    one, and yields what the full walk yields."""

    def test_pruned_children_match_reference(self):
        for k in range(1, 7):
            for parent, gens in _graph_level(k):
                got = [child for child, _ in _children(parent, gens)]
                assert got == reference_children(parent), parent

    def test_skipped_neighbourhoods_are_rejected(self):
        skipped = 0
        for k in range(1, 7):
            for parent in enumerate_graphs(k):
                viable = set(_viable(parent))
                for subset in range(1 << k):
                    if subset not in viable:
                        skipped += 1
                        assert augmentation_code(_augmented(parent, subset), k) is None
        assert skipped > 0

    def test_recorded_generators_are_automorphisms(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                gens = recorded_generators(g)
                assert all(is_automorphism(g, as_permutation(n, p)) for p in gens), g
        for g, gens in _graph_level(7):  # as carried from the accepting pass
            assert all(is_automorphism(g, as_permutation(7, p)) for p in gens), g

    def test_last_level_mostly_skips_the_search(self, monkeypatch):
        # accepts settles most order-7 children from degrees and the refined
        # degree partition, without the search over its cells
        level = _graph_level(6)
        searched = set()
        for name in ("_labelling", "_search_order"):
            full = getattr(canon, name)

            def counted(*args, full=full):
                searched.add(asked)  # the index of the child being asked about
                return full(*args)

            monkeypatch.setattr(canon, name, counted)
        asked = 0
        for parent, gens in level:
            for child in _candidates(parent, gens):
                asked += 1
                accepts(child, 6)
        assert asked == 1405
        assert 0 < len(searched) < asked / 3

    def test_generators_span_the_group(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        for n in range(1, 7):
            for g, carried in _graph_level(n):
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(g.edges())
                want = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
                assert group_order(n, recorded_generators(g)) == want, g
                assert group_order(n, carried) == want, g


class TestSatBruteforce:
    def test_triangle(self):
        r = sat_bruteforce(5, parse_family("K3"))
        assert r.value == 4 and r.classes_examined == 34
        (w,) = r.witnesses
        g = graph6_decode(w)
        assert g.degree_sequence() == (4, 1, 1, 1, 1)  # the star

    def test_p4(self):
        r = sat_bruteforce(4, parse_family("P4"))
        assert r.value == 2
        (w,) = r.witnesses
        assert graph6_decode(w).degree_sequence() == (1, 1, 1, 1)  # two edges

    def test_k4(self):
        r = sat_bruteforce(6, parse_family("K4"))
        assert r.value == 9
        from satforge.constructions import make_erdos_kp

        assert canonical_form(graph6_decode(r.witnesses[0])) == canonical_form(
            make_erdos_kp(6, 4)
        )

    @pytest.mark.slow
    def test_triangle_order_8(self):
        r = sat_bruteforce(8, parse_family("K3"))
        assert r.value == 7 and r.classes_examined == 12346

    def test_edgeless_base_case(self):
        # greedy maximality means a saturated graph always exists; the
        # smallest family member pins the value at zero here
        r = sat_bruteforce(2, parse_family("P2"))
        assert r.value == 0 and r.classes_examined == 2


class TestScans:
    def test_k5_scan(self):
        rep = scan_saturated_trees(range(4, 11), 5)
        assert rep.saturated_count > 0
        assert min(w.order for w in rep.witnesses) == 5  # the order-5 chair
        assert all(dict(w.contains)["T1"] for w in rep.witnesses)

    def test_k6_scan(self):
        rep = scan_saturated_trees(range(4, 13), 6)
        assert rep.saturated_count > 0
        assert all(w.contains_any() for w in rep.witnesses)

    def test_stars_excluded_by_default(self):
        # every star is saturated (leaf pairs close triangles), and none is
        # reported
        rep = scan_saturated_trees(range(1, 9), 5)
        assert rep.witnesses
        assert all(diameter(graph6_decode(w.graph6)) > 2 for w in rep.witnesses)

    def test_counts_match_recorded(self):
        for k, (orders, counts) in SCAN_COUNTS.items():
            rep = scan_saturated_trees(orders, k)
            assert (rep.trees_scanned, rep.trees_checked, rep.saturated_count) == counts
            assert rep.saturated_count == len(rep.witnesses)

    def test_no_saturated_tree_outside_the_window(self):
        # the lemma of _window_heights: a non-star tree of diameter 3..k-4
        # gains no member from the chord p0p3 of a longest path p0..pd, and
        # one of diameter k-1 or more holds Pk
        short = long = 0
        for k in range(5, 11):
            fam = parse_family(f"K3,P{k}")
            for n in range(1, 14):
                for levels, d in _iter_free_trees(n):
                    if d >= k - 1:
                        long += 1
                    elif 3 <= d <= k - 4:
                        short += 1
                        t = tree_of(levels)
                        layers = longest_path_layers(t.rows, (1 << n) - 1)
                        assert len(layers) == d + 1
                        p = layers[d] & -layers[d]
                        for layer in reversed(layers[3:d]):  # back from pd to p3
                            p = t.rows[p.bit_length() - 1] & layer
                        p0, p3 = layers[0].bit_length() - 1, p.bit_length() - 1
                        assert contains_member(t.add_edge(p0, p3), fam) is None, (levels, k)
                    else:
                        continue
                    assert not tree_is_saturated(_parents(levels), d, k), (levels, k)
        assert (short, long) == (2173, 7552)

    def test_graphs_built_only_for_witnesses(self, monkeypatch):
        # each checked tree is decided from its level sequence: a Graph is
        # built, from its parent array, only for the saturated ones, and
        # check_saturated never runs
        from satforge import saturation, search

        calls = {"graph": 0, "check": 0}
        build, check = search.build_graph, saturation.check_saturated

        def counted_build(order, edges):
            calls["graph"] += 1
            return build(order, edges)

        def counted_check(g, fam):
            calls["check"] += 1
            return check(g, fam)

        monkeypatch.setattr(search, "build_graph", counted_build)
        monkeypatch.setattr(search, "check_saturated", counted_check)
        monkeypatch.setattr(saturation, "check_saturated", counted_check)
        # 6304 trees checked and none saturated at k = 9; 3 witnesses at k = 8
        for orders, k, saturated in [(range(6, 16), 9, 0), (range(6, 12), 8, 3)]:
            calls.update(graph=0, check=0)
            rep = scan_saturated_trees(orders, k)
            assert rep.saturated_count == saturated
            assert calls == {"graph": saturated, "check": 0}

    def test_shards_merge_to_single_run(self):
        single = scan_saturated_trees(range(4, 11), 5)
        merged = scan_saturated_trees(range(4, 11), 5, threads=3)
        assert merged.witnesses == single.witnesses
        assert merged == single

    def test_repeated_order_scanned_once(self):
        rep = scan_saturated_trees([5, 5, 6], 5)
        assert rep == scan_saturated_trees([5, 6], 5)
        assert rep.trees_scanned == TREE_COUNTS[5] + TREE_COUNTS[6]

    def test_no_saturated_tree_below_order_13_at_k10(self):
        # T1_10, of order 20, is the least; prop-5.2 covers k = 5..9
        assert scan_saturated_trees(range(6, 13), 10).witnesses == ()

    @pytest.mark.parametrize("k", sorted(SCAN_GOLDEN))
    def test_witnesses_match_recorded(self, k):
        rep = scan_saturated_trees(range(6, 14), k)
        count, digest = SCAN_GOLDEN[k]
        joined = b" ".join(w.graph6 for w in rep.witnesses)
        assert (len(rep.witnesses), hashlib.sha256(joined).hexdigest()) == (count, digest)

    def test_witnesses_decode_and_certify(self):
        rep = scan_saturated_trees(range(4, 11), 5)
        fam = parse_family("K3,P5")
        for w in rep.witnesses[:5]:
            g = graph6_decode(w.graph6)
            assert check_saturated(g, fam).is_saturated


def window_trees(n, k, walk=None):
    """The (levels, diameter) of the trees a scan checks, the non-stars of
    diameter k-3 or k-2, from the given walk or else the full walk of order n."""
    if walk is None:
        walk = _iter_free_trees(n)
    return [(lv, d) for lv, d in walk if d > 2 and d in (k - 3, k - 2)]


class TestWindowedWalk:
    def test_window_heights(self):
        for k in range(5, 23):
            heights = _window_heights(k)
            # one height when k is even, two when it is odd, but at k = 5
            # diameter 2 holds only stars
            assert len(heights) == (2 if k % 2 and k > 5 else 1)
            # every diameter the scan checks, and no height without one
            checked = {d for d in (k - 3, k - 2) if d > 2}
            assert {_height_of(d) for d in checked} == set(heights)
        for d in range(1, 30):
            assert _height_of(d) == d // 2 + 1 + d % 2  # 2h - 2 or 2h - 3

    def test_windowed_walk_matches_filtered_full_walk(self):
        # the same stream, in the same order: after the scan's diameter
        # filter, and before it restricted to the window's heights
        for n in range(1, 17):
            full = list(_iter_free_trees(n))
            for k in range(5, 14):
                heights = _window_heights(k)
                walked = list(_iter_free_trees(n, heights))
                assert walked == [(lv, d) for lv, d in full if _height_of(d) in heights], (n, k)
                assert window_trees(n, k, walked) == window_trees(n, k, full), (n, k)

    def test_walk_bounds(self):
        # an empty range, one above the path, and ranges that hold every tree
        assert list(_iter_free_trees(6, range(3, 3))) == []
        assert list(_iter_free_trees(6, range(5, 9))) == []
        assert list(_iter_free_trees(1, range(1, 2))) == [([1], 0)]
        assert list(_iter_free_trees(7, range(1, 30))) == list(_iter_free_trees(7))

    def test_counts_match_walk(self):
        counts = _trees_by_diameter(16)
        for n in range(1, 17):
            walked = [0] * n
            for _, d in _iter_free_trees(n):
                walked[d] += 1
            assert counts[n] == walked, n

    def test_counts_sum_to_known_totals(self):
        counts = _trees_by_diameter(20)
        for n, want in {**TREE_COUNTS, **SLOW_TREE_COUNTS}.items():
            assert sum(counts[n]) == want, n
        assert sum(counts[20]) == 823065
        # the window of the order-20 scan at k = 10, as the walk counts it
        assert counts[20][7] + counts[20][8] == 264143

    def test_walked_trees_are_the_window_heights(self, monkeypatch):
        from satforge import search

        walked = {}
        walk = search._iter_free_trees

        def counted(n, heights=None, shards=1, shard=0):
            for tree in walk(n, heights, shards, shard):
                walked[heights] = walked.get(heights, 0) + 1
                yield tree

        monkeypatch.setattr(search, "_iter_free_trees", counted)
        counts = _trees_by_diameter(15)
        total = sum(sum(counts[n]) for n in range(6, 16))
        rep = scan_saturated_trees(range(6, 16), 9)
        assert rep.trees_scanned == total
        heights = _window_heights(9)
        want = sum(
            c for n in range(6, 16) for d, c in enumerate(counts[n]) if _height_of(d) in heights
        )
        assert walked == {heights: want}
        # the full walk, as enumerate_trees takes it, yields the Riordan total
        walked.clear()
        assert sum(1 for n in range(6, 16) for _ in enumerate_trees(n)) == total
        assert walked == {None: total}

    def test_small_orders_and_a_window_above_every_tree(self):
        # orders 1..3 hold one star each; at k = 12 the window (diameters 9
        # and 10) is taller than every tree of orders 4..8, so all are counted
        for orders, k, total in [(range(1, 4), 5, 3), (range(4, 9), 12, 45)]:
            assert total == sum(TREE_COUNTS[n] for n in orders)
            rep = scan_saturated_trees(orders, k)
            assert rep.trees_scanned == total
            assert rep.witnesses == () and rep.trees_checked == 0

    def test_reports_equal_at_one_two_and_three_threads(self):
        for orders, k in [(range(4, 13), 7), (range(6, 14), 8)]:
            reports = [scan_saturated_trees(orders, k, threads=t) for t in (1, 2, 3)]
            assert reports[0].witnesses
            assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_pool_capped_at_the_cpu_count(self, monkeypatch):
        # the scan deals min(threads, os.cpu_count()) shards, one job per
        # worker, and runs one shard inline with no pool; the stub pool
        # records (max_workers, jobs), runs them inline and starts no process
        from satforge import search

        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                self.workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                asked.append((self.workers, len(jobs)))
                return map(fn, jobs)

        # the scan imports the pool class when it needs one, so the stub
        # goes where that import finds it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        single = scan_saturated_trees(range(4, 11), 5)
        assert single.witnesses and asked == []
        for cores, threads, want in [
            (2, 64, [(2, 2)]), (8, 64, [(8, 8)]), (8, 3, [(3, 3)]),
            (None, 64, []), (1, 64, []), (8, 1, []),
        ]:
            asked.clear()
            monkeypatch.setattr(search.os, "cpu_count", lambda cores=cores: cores)
            assert scan_saturated_trees(range(4, 11), 5, threads=threads) == single
            assert asked == want, (cores, threads)

    def test_shards_run_directly_merge_to_one(self):
        # _scan_shard with no pool, so 3-shard dealing is covered on any
        # number of cores: the shards split the walked stream and their
        # counts and witnesses add up to the one-shard run's
        orders, k = tuple(range(4, 12)), 6
        one = _scan_shard((orders, k, 1, 0))
        assert one[2]
        for shards in (1, 2, 3):
            parts = [_scan_shard((orders, k, shards, s)) for s in range(shards)]
            assert all(p[0] for p in parts)
            assert [sum(p[i] for p in parts) for i in range(2)] == list(one[:2])
            merged = [w for p in parts for w in p[2]]
            assert sorted(merged, key=_witness_key) == sorted(one[2], key=_witness_key)


def _witness_key(w):
    return w.order, w.graph6


class TestDealtWalk:
    # _iter_free_trees deals its groups of trees with one first subtree
    # round-robin over the shards, and a scan shard walks only its own

    def test_shards_partition_the_walk(self):
        # the shards split the unsharded walk, tree for tree with diameters,
        # each in the walk's own order, whole and in every scan window
        for n in range(1, 17):
            for heights in [None] + [_window_heights(k) for k in range(5, 12)]:
                full = list(_iter_free_trees(n, heights))
                for shards in (1, 2, 3):
                    parts = [list(_iter_free_trees(n, heights, shards, s)) for s in range(shards)]
                    assert sum(map(len, parts)) == len(full), (n, heights, shards)
                    assert sorted(t for p in parts for t in p) == sorted(full), (n, heights, shards)
                    for part in parts:
                        walk = iter(full)
                        assert all(t in walk for t in part), (n, heights, shards)

    def test_every_shard_walks_a_tree_from_order_8(self):
        for n in range(8, 17):
            for shards in (2, 3):
                for s in range(shards):
                    assert next(_iter_free_trees(n, None, shards, s), None), (n, shards, s)
        # the one tree of order 1 is shard 0's
        assert list(_iter_free_trees(1, None, 2, 0)) == [([1], 0)]
        assert list(_iter_free_trees(1, None, 2, 1)) == []

    def test_order_20_at_k10_from_shards_run_directly(self):
        # lem-2.3-k10's scan with each of two shards run by _scan_shard and
        # no pool: every free tree is walked or counted, every window tree
        # is checked once, and the one witness is T1_10
        counts = _trees_by_diameter(20)
        heights = _window_heights(10)
        parts = [_scan_shard(((20,), 10, 2, s)) for s in range(2)]
        assert all(p[0] for p in parts)
        counted = sum(c for d, c in enumerate(counts[20]) if _height_of(d) not in heights)
        assert counted + sum(p[0] for p in parts) == 823065
        assert sum(p[1] for p in parts) == 264143
        (w,) = [w for p in parts for w in p[2]]
        assert w.graph6 == b"ShCa?E??G?_@?C?G??K????C??G??_??C"
        assert w.contains == (("T0_10", False), ("T1_10", True))
        assert canonical_form(graph6_decode(w.graph6)) == canonical_form(make_t1k(10))

    @pytest.mark.parametrize("k", sorted(SCAN_GOLDEN))
    def test_shards_run_directly_keep_the_recorded_witnesses(self, k):
        count, digest = SCAN_GOLDEN[k]
        for shards in (2, 3):
            parts = [_scan_shard((tuple(range(6, 14)), k, shards, s)) for s in range(shards)]
            merged = sorted((w for p in parts for w in p[2]), key=_witness_key)
            joined = b" ".join(w.graph6 for w in merged)
            assert (len(merged), hashlib.sha256(joined).hexdigest()) == (count, digest)


ROOT_PASS_CASES = [(n, k) for n in range(4, 13) for k in (5, 6, 7)] + [(14, 8), (16, 9)]


class TestRootPass:
    def test_reach_row_matches_the_forest_bfs(self):
        # the root's reach row from the depths equals the one the forest
        # scan computes from the bit rows and a BFS, whose distances are the
        # depths
        for n, k in [(9, 6), (12, 7), (14, 8)]:
            for levels, _ in window_trees(n, k):
                forest = _Forest(tree_of(levels), [(1 << n) - 1])
                dist = [x - 1 for x in levels]
                assert chord_reach(dist, _parents(levels), range(n)) == forest.reach_row(0)
                assert forest._bfs(0)[0] == dist

    def test_verdict_matches_check_saturated(self):
        saturated = total = 0
        for n, k in ROOT_PASS_CASES:
            fam = parse_family(f"K3,P{k}")
            for levels, d in window_trees(n, k):
                total += 1
                verdict = check_saturated(tree_of(levels), fam).is_saturated
                assert tree_is_saturated(_parents(levels), d, k) == verdict, (levels, k)
                saturated += verdict
        assert 0 < saturated < total

    def test_rejects_every_tree_with_a_failing_root_chord(self):
        # a tree with a chord from the root that the member detector finds
        # failing is never saturated, though the verdict reads no root chord
        rejected = 0
        for k in (6, 7):
            fam = parse_family(f"K3,P{k}")
            for n in range(5, 12):
                for levels, d in window_trees(n, k):
                    g = tree_of(levels)
                    failing = any(
                        not g.has_edge(0, v) and contains_member(g.add_edge(0, v), fam) is None
                        for v in range(1, n)
                    )
                    if failing:
                        rejected += 1
                        assert not tree_is_saturated(_parents(levels), d, k), levels
        assert rejected

    def test_each_checked_tree_makes_one_distance_3_call(self, monkeypatch):
        # the verdict is the distance-3 test alone: one call per checked
        # tree, on the whole tree, and no chord_reach pass
        calls = _spy(monkeypatch, "chord_reach", lambda dist, parent, order: order[0])
        stage = _spy(monkeypatch, "_fails_at_distance_3", lambda parent, *rest: len(parent))
        rep = scan_saturated_trees(range(6, 16), 9)
        assert rep.saturated_count == 0
        assert calls == []
        assert len(stage) == rep.trees_checked == 6304


def _spy(monkeypatch, name, key) -> list:
    """Patch saturation.<name> to record key(*args) for each call."""
    calls: list = []
    real = getattr(saturation, name)

    def spied(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(saturation, name, spied)
    return calls


def _fails(parent, k, distance):
    """Whether a chord at the given distance (None: any distance above 2)
    has no path of order k, from a BFS and a chord_reach pass per vertex."""
    adj = tree_adjacency(parent)
    for u in range(len(parent)):
        dist, up, order = saturation._bfs(adj, u)
        for d, r in zip(dist, chord_reach(dist, up, order)):
            if r < k and (d > 2 if distance is None else d == distance):
                return True
    return False


class TestDistanceThreeLemma:
    # tree_is_saturated's lemma: a tree of diameter at most k-2 is saturated
    # iff no chord at distance 3 fails, with the per-vertex oracle on both
    # sides; _fails_at_distance_3 must agree with the oracle's right side

    def _saturated(self, parent, k) -> bool:
        near = _fails(parent, k, 3)
        assert _fails(parent, k, None) == near, (parent, k)
        arms = saturation._arms(parent, range(len(parent)))
        assert saturation._fails_at_distance_3(parent, arms, k, True) == near, (parent, k)
        return not near

    def test_every_tree_to_order_13(self):
        verdicts = [
            self._saturated(_parents(levels), k)
            for n in range(1, 14)
            for levels, diam in _iter_free_trees(n)
            for k in range(max(5, diam + 2), 11)
        ]
        assert any(verdicts) and not all(verdicts)

    def test_window_trees_of_orders_14_to_16(self):
        verdicts = [
            self._saturated(_parents(levels), k)
            for n in (14, 15, 16)
            for levels, diam in _iter_free_trees(n)
            for k in (diam + 2, diam + 3)
            if diam > 2 and 5 <= k <= 11
        ]
        assert any(verdicts) and not all(verdicts)


class TestK8Counterexample:
    def test_sparse_tree_networkx_oracle(self):
        # T1_8 is {K3,P8}-saturated yet holds no T0_8, by an independent
        # subgraph-monomorphism oracle (checked for T1_8 alone: a sweep over
        # every k=8 scan witness is far slower)
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        def has(host, pattern):
            return GraphMatcher(host, pattern).subgraph_is_monomorphic()

        def has_member(host):
            return has(host, nx.complete_graph(3)) or has(host, nx.path_graph(8))

        sparse = to_nx(make_t1k(8))
        assert not has(sparse, to_nx(make_t0k(8)))
        assert not has_member(sparse)
        for u, v in nx.non_edges(sparse):
            grown = sparse.copy()
            grown.add_edge(u, v)
            assert has_member(grown), (u, v)

