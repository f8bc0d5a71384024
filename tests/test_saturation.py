import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from satforge import saturation
from satforge.constructions import make_erdos_kp, make_g0, make_h0, make_star, make_t1k, make_tk
from satforge.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph6_decode,
    graph6_encode,
    join,
    path_graph,
)
from satforge.patterns import Witness, contains_join_k1, iter_cliques
from satforge.saturation import (
    CONTAINS_MEMBER,
    MISSING_EDGE,
    SATURATED,
    Clique,
    DisjointUnion,
    ForbiddenFamily,
    JoinK1,
    Path,
    SaturationVerdict,
    check_saturated,
    contains_member,
    member_witness_ok,
    parse_family,
    saturation_gap,
    tree_is_saturated,
)


# sha256 of "<graph6> <family> <repr((kind, parts)) or None>" lines for the
# contains_member witness of every graph of order <= 7 (enumerate_graphs
# order) against each UNION_WITNESS_FAMILIES member, recorded while the
# union detector still searched paths in every component
UNION_WITNESS_FAMILIES = ("K3+P2", "K3+P3", "K3+P4", "P2+P2", "P2+P3")
UNION_WITNESS_GOLDEN = "a31f5c9096ac90b6fe252792bfec1a79baf36e010323ea1bd06e2e56186a56da"


def random_graph(rng, n, p=0.4):
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestFamilyParsing:
    def test_round_trip(self):
        for text in ("K3", "P10", "K3,P10", "K3+P10", "K1*[2,3]", "K1*[2,2],P4"):
            fam = parse_family(text)
            assert str(fam) == text
            assert parse_family(str(fam)) == fam

    def test_structure(self):
        fam = parse_family("K3+P10")
        assert fam.members == (DisjointUnion((Clique(3), Path(10))),)
        fam = parse_family("K1*[2,3]")
        assert fam.members == (JoinK1((2, 3)),)

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_family("K1")
        with pytest.raises(ValueError):
            parse_family("P1")
        with pytest.raises(ValueError):
            parse_family("K1*[1]")
        with pytest.raises(ValueError):
            parse_family("")
        with pytest.raises(ValueError):
            parse_family("Q7")


class TestContainsMember:
    def test_layered_tree_is_free(self):
        assert contains_member(make_t1k(10), parse_family("K3,P10")) is None

    def test_k4_has_triangle(self):
        w = contains_member(complete_graph(4), parse_family("K3"))
        assert w.parts == ((0, 1, 2),)

    def test_g0_is_union_free(self):
        assert contains_member(make_g0(100, 10), parse_family("K3+P10")) is None

    def test_first_member_wins(self):
        g = complete_graph(4)
        w = contains_member(g, parse_family("P3,K3"))
        assert w.kind == "path"
        w = contains_member(g, parse_family("K3,P3"))
        assert w.kind == "clique"

    def test_member_larger_than_the_graph_is_not_searched(self, monkeypatch):
        # find_member answers None for a member with more vertices than the
        # graph before any detector runs; the order is kept on the member
        def refuse(*args, **kwargs):
            raise AssertionError("searched for a member larger than the graph")

        for name in ("has_clique", "has_path_of_order", "_find_union", "contains_join_k1"):
            monkeypatch.setattr(saturation, name, refuse)
        for text, order in {"K5": 5, "P6": 6, "K3+P3": 6, "K1*[2,3]": 6}.items():
            (member,) = parse_family(text).members
            assert member.order == order, text
            assert saturation.find_member(complete_graph(order - 1), member) is None, text
        union = DisjointUnion((Clique(3), Path(4)))
        assert union.order == 7 and vars(union)["order"] == 7

    def test_union_witnesses_match_recorded(self):
        from satforge.search import enumerate_graphs

        lines = []
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                for text in UNION_WITNESS_FAMILIES:
                    w = contains_member(g, parse_family(text))
                    found = None if w is None else (w.kind, w.parts)
                    lines.append(b"%s %s %r" % (graph6_encode(g), text.encode(), found))
        assert hashlib.sha256(b"\n".join(lines)).hexdigest() == UNION_WITNESS_GOLDEN

    def test_witness_validates(self):
        rng = random.Random(19)
        fams = [parse_family(t) for t in ("K3", "P4", "P2+P2", "K3+P3", "K1*[2,2]")]
        for _ in range(60):
            g = random_graph(rng, rng.randrange(3, 9), 0.5)
            for fam in fams:
                w = contains_member(g, fam)
                if w is None:
                    continue
                member = next(
                    m for m in fam.members if contains_member(g, ForbiddenFamily((m,)))
                )
                assert member_witness_ok(g, member, w)


class TestCheckSaturated:
    def test_layered_tree(self):
        assert check_saturated(make_t1k(10), parse_family("K3,P10")).is_saturated

    def test_c6_missing_long_chord(self):
        v = check_saturated(cycle_graph(6), parse_family("K3"))
        assert v.status == "missing_edge" and v.missing_edge == (0, 3)

    def test_star_saturated(self):
        assert check_saturated(make_star(10), parse_family("K3,P10")).is_saturated

    def test_contains_member_verdict(self):
        v = check_saturated(complete_graph(4), parse_family("K3"))
        assert v.status == "contains_member"
        assert member_witness_ok(complete_graph(4), Clique(3), v.witness)

    def test_complete_graph_vacuous(self):
        assert check_saturated(complete_graph(3), parse_family("K4")).is_saturated

    def test_family_order_invariance(self):
        rng = random.Random(29)
        members = (Clique(3), Path(5))
        for _ in range(30):
            g = random_graph(rng, 7, 0.35)
            verdicts = {
                check_saturated(g, ForbiddenFamily(perm)).status
                for perm in itertools.permutations(members)
            }
            assert len(verdicts) == 1

    def test_saturated_graphs_recreate_on_random_nonedges(self):
        fam = parse_family("K3,P10")
        g = make_t1k(10)
        rng = random.Random(37)
        pairs = list(g.non_edges())
        for u, v in rng.sample(pairs, min(100, len(pairs))):
            assert contains_member(g.add_edge(u, v), fam) is not None

    def test_g0_at_order_20010(self):
        # 1000 components: rows stay per component, never n x n
        from satforge.claims import run_claim

        cases = run_claim("lem-3.1", ns=[20010])
        assert len(cases) == 3 and all(c["pass"] for c in cases)
        v = check_saturated(make_g0(20010, 10), parse_family("K3,P10"))
        assert v.is_saturated and v.strategy == "forest"

    def test_copies_cost_no_more_chord_arithmetic(self, monkeypatch):
        # a saturated forest is cleared part by part from its arms, so it
        # builds no reach row at all; h0's plain copies of T1_10 likewise,
        # and ten times the copies make no more rows
        calls = []
        chord_reach = saturation.chord_reach
        monkeypatch.setattr(saturation, "chord_reach", lambda *a: calls.append(None) or chord_reach(*a))

        def count(g, text):
            calls.clear()
            assert check_saturated(g, parse_family(text)).is_saturated
            return len(calls)

        assert count(make_g0(2010, 10), "K3,P10") == count(make_g0(20010, 10), "K3,P10") == 0
        assert count(make_tk(12), "P12") == count(join(empty_graph(1), make_tk(11)), "K1*[11]") == 0
        assert count(make_h0(1210, 10), "K3+P10") == count(make_h0(12010, 10), "K3+P10")

    def test_new_triangle_chords_search_only_past_the_kept_copies(self, monkeypatch):
        # h0's new-triangle chords (ends with a common neighbour) each ask
        # for a Pk avoiding three vertices; a Pk copy found by an earlier
        # search answers all but the first few, so ten times the copies and
        # a larger k make the same few path searches
        calls = []
        find = saturation.find_path_of_order
        monkeypatch.setattr(
            saturation, "find_path_of_order", lambda *a, **kw: calls.append(None) or find(*a, **kw)
        )

        def count(g, text):
            calls.clear()
            v = check_saturated(g, parse_family(text))
            assert v.is_saturated and v.strategy == "triangle_table"
            return len(calls)

        assert count(make_h0(1210, 10), "K3+P10") == 4
        assert count(make_h0(12010, 10), "K3+P10") == 4
        assert count(make_h0(444, 14), "K3+P14") == 4

    def test_generic_scan_stops_at_first_failure(self):
        # the scan tests non-edges lazily: C2000 has about two million, and
        # the first, (0, 2), already fails against K4
        g = cycle_graph(2000)
        tracemalloc.start()
        try:
            v = check_saturated(g, parse_family("K4"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.missing_edge == (0, 2) and v.strategy == "generic"
        assert peak < 16 * 2**20


    def test_check_tests_no_pair_above_its_first_failure(self, monkeypatch):
        # a check reads the ascending failure stream only to its first item.
        # Pair tests are counted through _creates, chord_reach (one reach
        # row gives all of a vertex's chords) and the forest chord test; the
        # check's counts are those recorded when the scans still took a
        # collect_all flag, and fewer than the gap's.  Against {K3, P7} the
        # gap builds no reach row for a vertex whose later chords all close
        # a triangle, and the triangle table's gap tests no chord of the
        # plain copies of T1_10, which their arms clear.  Of the tests made
        # while reading the stream, none is above the first failure.  The
        # hubs are labelled last, so g - h keeps g's labels
        tests = []
        creates, reach = saturation._creates, saturation.chord_reach
        monkeypatch.setattr(
            saturation, "_creates", lambda g, m, u, v: tests.append((u, v)) or creates(g, m, u, v)
        )
        monkeypatch.setattr(saturation, "chord_reach", lambda *a: tests.append(None) or reach(*a))
        chord_fails = saturation._Forest.chord_fails

        def counted_fails(forest, *args):
            fails = chord_fails(forest, *args)
            return lambda u, v: tests.append((u, v)) or fails(u, v)

        monkeypatch.setattr(saturation._Forest, "chord_fails", counted_fails)
        tree = build_graph(
            11, [(0, 10), (1, 5), (2, 5), (3, 5), (4, 5), (5, 10), (6, 9), (7, 8), (8, 9), (9, 10)]
        )
        # the same tree beside a vertex labelled 1: (0, 1) is known to fail
        # from the eccentricities, below every chord from 0
        beside = build_graph(12, [(u + (u >= 1), v + (v >= 1)) for u, v in tree.edges()])
        h0 = make_h0(120, 10)
        edges = list(h0.edges())
        edges.remove(random.Random(3).choice(edges))
        h0 = build_graph(h0.n, edges)
        # K2 joined to 18 vertices less the edge (17, 19): every pair of the
        # 18 but those with 17 has a common edge
        kp = build_graph(20, [(u, 18) for u in range(18)] + [(u, 19) for u in range(17)] + [(18, 19)])
        # a star centred at 5 and two isolated vertices, then the hub
        star = join(empty_graph(5), empty_graph(1))
        star_hub = join(disjoint_union(star, empty_graph(2)), empty_graph(1))
        cases = [
            (tree, "K3,P7", "forest", (5, 8), 44, 53),
            (beside, "K3,P7", "forest", (0, 1), 0, 53),
            (h0, "K3+P10", "triangle_table", (0, 29), 4, 193),
            (kp, "K4", "generic", (0, 17), 17, 154),
            (join(tree, empty_graph(1)), "K1*[7]", "hub+forest", (5, 8), 44, 54),
            (star_hub, "K1*[2,2]", "hub+generic", (5, 6), 21, 23),
        ]
        for g, text, strategy, missing, check_tests, gap_tests in cases:
            fam = parse_family(text)
            tests.clear()
            v = check_saturated(g, fam)
            assert (v.strategy, v.missing_edge, len(tests)) == (strategy, missing, check_tests), text
            tests.clear()
            failures = saturation._decide(g, fam)[2]
            setup = len(tests)
            assert next(failures) == missing and len(tests) == check_tests, text
            assert all(pair <= missing for pair in tests[setup:] if pair is not None), text
            tests.clear()
            gap = saturation_gap(g, fam)
            assert gap[0] == missing and len(tests) == gap_tests > check_tests, text


class TestSaturationGap:
    def test_saturated_tree_has_empty_gap(self):
        assert saturation_gap(make_t1k(10), parse_family("K3,P10")) == []

    def test_p5_gap_nonempty(self):
        gap = saturation_gap(path_graph(5), parse_family("K3,P10"))
        assert gap and gap[0] == (0, 3)

    def test_star_plus_tree_composite(self):
        g = disjoint_union(make_star(5), make_t1k(10))
        gap = saturation_gap(g, parse_family("K3,P10"))
        assert gap  # cross edges from star leaves reach too little

    def test_rejects_member_containing_graph(self):
        with pytest.raises(ValueError):
            saturation_gap(complete_graph(4), parse_family("K3"))


class TestScanEquivalence:
    """The structure-aware scans must agree with the generic detector scan."""

    def _generic_failures(self, g, fam):
        out = []
        for u, v in g.non_edges():
            if contains_member(g.add_edge(u, v), fam) is None:
                out.append((u, v))
        return out

    def test_forest_fast_path_matches_generic(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randrange(4, 12)
            comps = []
            left = n
            while left > 2:
                size = rng.randrange(2, left + 1)
                comps.append(size)
                left -= size
            g = empty_graph(left)
            for size in comps:
                g = disjoint_union(
                    g, build_graph(size, [(rng.randrange(0, v), v) for v in range(1, size)])
                )
            k = rng.choice([4, 5, 6])
            fam = parse_family(f"K3,P{k}")
            if contains_member(g, fam) is not None:
                continue
            assert saturation_gap(g, fam) == self._generic_failures(g, fam)

    def _assert_agrees(self, g, fam, strategy=None):
        """Gap and verdict against the detectors run first and then the
        generic scan; witness and missing edge must match too.  Returns the
        verdict."""
        w = contains_member(g, fam)
        if w is not None:
            v = check_saturated(g, fam)
            assert v == SaturationVerdict(CONTAINS_MEMBER, witness=w)
            assert v.strategy == "detector"
            with pytest.raises(ValueError):
                saturation_gap(g, fam)
            return v
        failures = self._generic_failures(g, fam)
        assert saturation_gap(g, fam) == failures
        want = (
            SaturationVerdict(MISSING_EDGE, missing_edge=failures[0])
            if failures
            else SaturationVerdict(SATURATED)
        )
        v = check_saturated(g, fam)
        assert v == want
        if strategy is not None:
            assert v.strategy == strategy
        return v

    def test_forest_fast_path_exhaustive_on_trees(self):
        # every tree of order <= 11 against {K3, Pk} and {Pk}, k in 2..12;
        # the scan's verdict, given the generator's parent array and
        # diameter, agrees with the {K3, Pk} verdict, stars and trees that
        # hold Pk included
        from satforge.search import _iter_free_trees, _parents

        for n in range(1, 12):
            for levels, diam in _iter_free_trees(n):
                parent = _parents(levels)
                tree = build_graph(n, enumerate(parent[1:], 1))
                for k in range(2, 13):
                    verdict = self._assert_agrees(tree, parse_family(f"K3,P{k}"), "forest")
                    assert tree_is_saturated(parent, diam, k) == verdict.is_saturated, (levels, k)
                    self._assert_agrees(tree, parse_family(f"P{k}"), "forest")

    def test_forest_fast_path_exhaustive_on_two_trees(self):
        # every forest of two trees of total order <= 9, plus an isolated
        # vertex, where cross-component pairs use the eccentricities
        from satforge.search import enumerate_trees

        trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
        for i, a in enumerate(trees):
            for b in trees[i:]:
                if a.n + b.n > 9:
                    continue
                g = disjoint_union(disjoint_union(a, b), empty_graph(1))
                for k in range(2, 9):
                    for text in (f"K3,P{k}", f"P{k}"):
                        self._assert_agrees(g, parse_family(text), "forest")

    def test_union_fast_path_matches_generic(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(80):
            g = random_graph(rng, rng.randrange(5, 10), rng.choice([0.15, 0.3]))
            k = rng.choice([3, 4, 5])
            fam = parse_family(f"K3+P{k}")
            if contains_member(g, fam) is not None:
                continue
            checked += 1
            assert saturation_gap(g, fam) == self._generic_failures(g, fam), g
        assert checked >= 10

    # exhaustive catalogues: the verdict, its witness or missing edge, and
    # the whole gap of every structure-aware scan against the generic one

    def test_every_graph_of_order_7_against_k3_pk(self):
        from satforge.search import enumerate_graphs

        for n in range(1, 8):
            for g in enumerate_graphs(n):
                for k in range(3, 8):
                    self._assert_agrees(g, parse_family(f"K3,P{k}"))

    def test_every_graph_of_order_7_against_k3_cup_pk(self):
        from satforge.search import enumerate_graphs

        for n in range(1, 8):
            for g in enumerate_graphs(n):
                for k in range(2, 7):
                    self._assert_agrees(g, parse_family(f"K3+P{k}"))

    def test_relabelled_layered_copies_less_one_edge(self):
        # isomorphic components, and the two halves of a cut copy, hit the
        # cross-component thresholds from every side
        rng = random.Random(61)
        g = empty_graph(0)
        for _ in range(4):
            g = disjoint_union(g, make_t1k(10))
        edges = list(g.edges())
        edges.remove(rng.choice(edges))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = build_graph(g.n, [(perm[u], perm[v]) for u, v in edges])
        for text in ("K3,P10", "P10"):
            self._assert_agrees(g, parse_family(text), "forest")
        assert check_saturated(g, parse_family("K3,P10")).status == MISSING_EDGE

    # hub graphs against K1*F families: decided as g less its least
    # universal vertex against the Fs, the oracle still contains_member on
    # the whole of g + uv

    HUB_FAMILIES = ("K1*[2]", "K1*[3]", "K1*[4]", "K1*[5]", "K1*[2,2]", "K1*[2,3]", "K1*[2],K1*[4]")

    def test_every_hub_graph_of_order_7_against_joins(self):
        from satforge.search import enumerate_graphs

        rng = random.Random(79)
        rows = 0
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                if all(r.bit_count() < n - 1 for r in g.rows):
                    continue
                relabelled = self._copies([g], rng)[0]
                for text in self.HUB_FAMILIES:
                    rows += 1
                    for h in (g, relabelled):
                        v = self._assert_agrees(h, parse_family(text))
                        if n > 1 and v.status != CONTAINS_MEMBER:
                            assert v.strategy.startswith("hub+"), (graph6_encode(h), text)
        assert rows == 1463

    def test_hub_holding_a_member_keeps_whole_graph_witness(self):
        # P5 joined to a hub labelled 5: the whole-graph detector finds its
        # K1*[3] at vertex 1, not at the hub
        g = join(path_graph(5), empty_graph(1))
        v = check_saturated(g, parse_family("K1*[3]"))
        assert v.status == CONTAINS_MEMBER and v.strategy == "detector"
        assert v.witness == contains_join_k1(g, (3,)) == Witness("join_k1", ((1,), (0, 5, 2)))

    def test_mixed_or_clique_families_are_not_peeled(self):
        # a member that is no K1*F keeps the whole-graph scan, and so does
        # a single vertex; make_erdos_kp(400, 4) against K4, a clique
        # family on a graph with two hubs, is TestGenericScan's
        fam = parse_family("K1*[2,2],P4")
        for h in (path_graph(2), path_graph(3), make_star(4), join(empty_graph(1), path_graph(3))):
            v = self._assert_agrees(h, fam)
            assert not v.strategy.startswith("hub+")
        v = check_saturated(empty_graph(1), parse_family("K1*[2]"))
        assert v.is_saturated and v.strategy == "generic"

    def test_two_hubs_match_whole_graph(self):
        for g in (
            complete_graph(5),
            join(complete_graph(2), path_graph(4)),
            join(complete_graph(2), empty_graph(4)),
            join(path_graph(4), complete_graph(2)),
        ):
            for text in self.HUB_FAMILIES:
                self._assert_agrees(g, parse_family(text))

    def test_hub_gap_ascending_in_graph_labels(self):
        # T_6 plus a hub labelled in the middle, less one tree edge: failures
        # on both sides of the hub label come back ascending
        rng = random.Random(83)
        g = make_tk(6)
        edges = list(g.edges())
        edges.remove(rng.choice(edges))
        h = g.n // 2
        edges = [(u + (u >= h), v + (v >= h)) for u, v in edges]
        g = build_graph(g.n + 1, edges + [(h, x) for x in range(g.n + 1) if x != h])
        fam = parse_family("K1*[6]")
        gap = saturation_gap(g, fam)
        assert gap == sorted(gap) == self._generic_failures(g, fam)
        assert min(u for u, _ in gap) < h < max(v for _, v in gap)
        assert all(h not in pair for pair in gap)
        assert check_saturated(g, fam).strategy == "hub+forest"

    def test_hub_over_t16_takes_no_path_search(self, monkeypatch):
        # K1 joined to T_16 (n = 383): the tree goes to the forest scan, so
        # not one exhaustive path search runs
        from satforge import patterns

        calls = []
        iter_paths = patterns._iter_paths_exact

        def spy(*args, **kwargs):
            calls.append(args[1])
            return iter_paths(*args, **kwargs)

        monkeypatch.setattr(patterns, "_iter_paths_exact", spy)
        g = join(empty_graph(1), make_tk(16))
        assert g.n == 383
        v = check_saturated(g, parse_family("K1*[16]"))
        assert v.is_saturated and v.strategy == "hub+forest"
        assert calls == []

    # copies of a few tree classes, relabelled at random: the forest and
    # triangle-table scans clear each part whose chords all create a member
    # from its arms, part by part, when the stream first reaches it

    def _copies(self, parts, rng):
        """The disjoint union of the given graphs, relabelled at random, and
        the label set of each part."""
        n = sum(h.n for h in parts)
        perm = list(range(n))
        rng.shuffle(perm)
        edges, labels, off = [], [], 0
        for h in parts:
            edges += [(perm[off + u], perm[off + v]) for u, v in h.edges()]
            labels.append({perm[off + v] for v in range(h.n)})
            off += h.n
        return build_graph(n, edges), labels

    def _forests(self, monkeypatch):
        """The _Forest of each scan, in order, as its chord_fails call sets
        the rule; a part's clean entry stays None until the scan reaches
        it, and then says whether the part's arms cleared it."""
        forests = []
        chord_fails = saturation._Forest.chord_fails

        def spy(forest, *rule):
            forests.append(forest)
            return chord_fails(forest, *rule)

        monkeypatch.setattr(saturation._Forest, "chord_fails", spy)
        return forests

    @staticmethod
    def _cleared(forest) -> int:
        return sum(c is True for c in forest.clean)

    def test_clean_parts_match_generic_on_every_tree(self):
        # _Forest._clean under each (closes_two, by_path) rule against the
        # generic scan on every tree of order <= 12, for the family the rule
        # stands for: {K3, Pk} and {Pk} for k >= diameter + 2, {K3} (a chord
        # fails unless it closes a triangle) and {K4} (every chord fails).
        # Order 12 holds the least tree whose one failing chord is a
        # distance-2 pair of short arms beside three longest ones (two
        # leaves and three cherries on one vertex, against P6)
        from satforge.search import _iter_free_trees, _parents

        cleared = total = 0
        for n in range(1, 13):
            for levels, diam in _iter_free_trees(n):
                tree = build_graph(n, enumerate(_parents(levels)[1:], 1))
                rules = [(0, True, False, "K3"), (0, False, False, "K4")]
                rules += [
                    (k, closes_two, True, f"K3,P{k}" if closes_two else f"P{k}")
                    for k in range(max(2, diam + 2), 13)
                    for closes_two in (True, False)
                ]
                for k, closes_two, by_path, text in rules:
                    forest = saturation._Forest(tree, [(1 << n) - 1])
                    forest.chord_fails(k, closes_two, by_path)
                    want = next(saturation._scan_generic(tree, parse_family(text)), None) is None
                    assert forest._clean(0) == want, (levels, text)
                    cleared += want
                    total += 1
        assert 0 < cleared < total

    def test_clean_copy_classes_match_generic(self, monkeypatch):
        # classes whose chords all create a member, cleared copy by copy;
        # two of each family's classes share order and diameter
        clean = {
            "K3,P5": ("Eia?", "Eka?", "Dk_"),  # orders 6, 6, 5; diameter 3
            "P5": ("Eia?", "GiQCC?", "GiaCC?"),  # orders 6, 8, 8; diameter 3
        }
        forests = self._forests(monkeypatch)
        rng = random.Random(67)
        for text, codes in clean.items():
            trees = [graph6_decode(c) for c in codes]
            for _ in range(3):
                g, _ = self._copies([t for t, m in zip(trees, (3, 2, 2)) for _ in range(m)], rng)
                forests.clear()
                self._assert_agrees(g, parse_family(text), "forest")
                assert forests and self._cleared(forests[-1]) == 7, text

    def test_failing_copy_class_matches_generic(self, monkeypatch):
        # one chord of each failing class fails: P4's long chord against
        # {K3,P5}, and against {P5} the triangle-closing chord of the double
        # star Eka?, which shares order and diameter with the clean Eia?.
        # The gap, _assert_agrees's first scan, clears the two clean copies
        # alone.  The smallest failure comes at times from a copy other than
        # the least-labelled one of its class
        forests = self._forests(monkeypatch)
        clean = graph6_decode("Eia?")
        rng = random.Random(71)
        for text, failing in (("K3,P5", path_graph(4)), ("P5", graph6_decode("Eka?"))):
            fam = parse_family(text)
            hits = 0
            for _ in range(12):
                g, labels = self._copies([failing] * 3 + [clean] * 2, rng)
                forests.clear()
                self._assert_agrees(g, fam, "forest")
                assert self._cleared(forests[0]) == 2
                assert forests[0].clean.count(False) == 3
                u, v = check_saturated(g, fam).missing_edge
                home = next(i for i, vs in enumerate(labels) if u in vs)
                assert v in labels[home] and home < 3
                least = min(range(3), key=lambda i: min(labels[i]))
                hits += home != least
            assert hits, text

    def test_many_triangles_take_the_table(self):
        # the triangle table takes every K3+Pk check the detector passes,
        # whatever the number of triangles: K12 beside 6 isolated vertices
        # (220 triangles) and K7 beside two T1_10 (35) against the generic
        # scan, and K9 beside two T1_10 (84) checked in under a second
        t1 = make_t1k(10)
        cases = (
            (disjoint_union(complete_graph(12), empty_graph(6)), "K3+P10"),
            (disjoint_union(complete_graph(7), t1, t1), "K3+P12"),
        )
        for g, text in cases:
            fam = parse_family(text)
            assert len(list(iter_cliques(g, 3))) > 24
            assert check_saturated(g, fam).strategy == "triangle_table"
            assert saturation_gap(g, fam) == list(saturation._scan_generic(g, fam)), text
        g = disjoint_union(complete_graph(9), t1, t1)
        start = time.perf_counter()
        v = check_saturated(g, parse_family("K3+P12"))
        assert time.perf_counter() - start < 1.0
        assert v.strategy == "triangle_table" and v.missing_edge == (0, 9)

    def test_kept_pk_copies_answer_only_queries_they_avoid(self, monkeypatch):
        # a K4 or a chain of triangles with trees hung on its vertices,
        # relabelled, against K3+Pk for k = 4..7: the gap matches the
        # generic scan.  Of the Pk queries of new-triangle chords, some are
        # answered by a copy kept from an earlier search, with no search;
        # in others no kept copy lies inside the query's mask (the graph is
        # connected, so each meets u, v or w), and they search, some finding
        # no Pk, which a kept copy reused regardless would have answered
        # wrongly
        queries, searches = [], []
        find, holds_pk = saturation.find_path_of_order, saturation._holds_pk
        monkeypatch.setattr(
            saturation, "find_path_of_order", lambda *a, **kw: searches.append(None) or find(*a, **kw)
        )

        def spy(g, k, mask, copies):
            kept, before = tuple(copies), len(searches)
            found = holds_pk(g, k, mask, copies)
            queries.append((kept, mask, found, len(searches) > before))
            return found

        monkeypatch.setattr(saturation, "_holds_pk", spy)
        rng = random.Random(83)
        checked = 0
        for _ in range(40):
            if rng.random() < 0.5:
                core, edges = 4, list(complete_graph(4).edges())
            else:
                t = rng.randrange(1, 4)
                core = 2 * t + 1
                edges = [(2 * i + a, 2 * i + b) for i in range(t) for a, b in ((0, 1), (0, 2), (1, 2))]
            n = rng.randrange(core + 1, 15)
            edges += [(rng.randrange(v), v) for v in range(core, n)]
            perm = list(range(n))
            rng.shuffle(perm)
            g = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
            for k in range(4, 8):
                fam = parse_family(f"K3+P{k}")
                if contains_member(g, fam) is not None:
                    continue
                checked += 1
                assert check_saturated(g, fam).strategy == "triangle_table"
                assert saturation_gap(g, fam) == list(saturation._scan_generic(g, fam)), (g, k)
        assert checked >= 50
        reused, past = [], []
        for kept, mask, found, searched in queries:
            if any(not c & ~mask for c in kept):
                reused.append(found and not searched)
            elif kept:
                past.append((found, searched))
        assert reused and all(reused)
        assert past and all(searched for _, searched in past)
        assert any(not found for found, _ in past)

    def test_copy_classes_beside_a_k4_part_match_generic(self, monkeypatch):
        # plain copies beside a K4 with a pendant edge, which holds a Pk, go
        # through the triangle table's clean test: chords of the star K1,3
        # and of P3 close a triangle beside that Pk, while P4's long chord
        # fails at k = 5.  The gap decides every plain copy; the check, its
        # stream read to the first failure, decides the copies whose least
        # vertex is at or below that failure's smaller end, and no other
        forests = self._forests(monkeypatch)
        k4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        star, p3, p4 = make_star(4), path_graph(3), path_graph(4)
        rng = random.Random(73)
        mixes = ((4, [star] * 3 + [p3] * 2, 5), (5, [star] * 2 + [p3] * 2 + [p4] * 3, 4))
        reached = []
        for k, trees, clean in mixes:
            for _ in range(3):
                g, labels = self._copies([k4] + trees, rng)
                forests.clear()
                v = self._assert_agrees(g, parse_family(f"K3+P{k}"), "triangle_table")
                gap, check = forests
                assert self._cleared(gap) == clean and None not in gap.clean
                top = g.n if v.missing_edge is None else v.missing_edge[0]
                decided = [c is not None for c in check.clean]
                assert decided == [min(vs) <= top for vs in check.verts]
                reached.append(sum(decided))
                if k == 5:
                    assert check_saturated(g, parse_family("K3+P5")).status == MISSING_EDGE
        assert 0 in reached and max(reached) > 0


class TestChordReach:
    """_Forest.reach_row, one pass per vertex, against the longest path
    through each chord found another way."""

    @staticmethod
    def _per_chord_reach(du, dv, d):
        """The per-chord formula that reach rows replaced: every path through
        uv splits at some edge of the tree u..v path, so the optimum is a
        prefix/suffix maximum over the split of the far sides of u and v."""
        pref = [-1] * (d + 1)
        suf = [-1] * (d + 1)
        for a, b in zip(du, dv):
            i = (a + d - b) >> 1
            pref[i] = max(pref[i], a)
            suf[i] = max(suf[i], b)
        for i in range(1, d):
            pref[i] = max(pref[i], pref[i - 1])
        best = run = -1
        for i in range(d, 0, -1):
            run = max(run, suf[i])
            best = max(best, pref[i - 1] + run)
        return best + 2

    def _assert_rows_match_per_chord(self, tree, sources):
        from satforge.graphs import distances_from

        forest = saturation._Forest.of(tree)
        dist = [distances_from(tree, v) for v in range(tree.n)]
        for u in sources:
            row = forest.reach_row(u)
            for v in range(tree.n):
                if dist[u][v] >= 2:
                    want = self._per_chord_reach(dist[u], dist[v], dist[u][v])
                    assert row[forest.index[v]] == want, (graph6_encode(tree), u, v)

    def test_every_tree_to_order_11_matches_per_chord_formula(self):
        from satforge.search import enumerate_trees

        for n in range(3, 12):
            for tree in enumerate_trees(n):
                self._assert_rows_match_per_chord(tree, range(n))

    def test_random_trees_to_order_300_match_per_chord_formula(self):
        # random recursive trees (bushy) and trees grown near the last
        # vertices (long); every u up to order 100, eight u above it
        rng = random.Random(79)
        for n in (12, 25, 40, 60, 100, 170, 300):
            for spread in (None, 3):
                edges = [
                    (rng.randrange(v) if spread is None else rng.randrange(max(0, v - spread), v), v)
                    for v in range(1, n)
                ]
                perm = list(range(n))
                rng.shuffle(perm)
                tree = build_graph(n, [(perm[a], perm[b]) for a, b in edges])
                sources = range(n) if n <= 100 else rng.sample(range(n), 8)
                self._assert_rows_match_per_chord(tree, sources)

    def test_every_tree_to_order_9_matches_networkx_longest_path(self):
        # a path through uv is a tree path from u and a disjoint one from v
        nx = pytest.importorskip("networkx")
        from satforge.search import enumerate_trees

        for n in range(3, 10):
            for tree in enumerate_trees(n):
                t = nx.Graph(list(tree.edges()))
                paths = dict(nx.all_pairs_shortest_path(t))
                forest = saturation._Forest.of(tree)
                for u in range(n):
                    row = forest.reach_row(u)
                    for v in range(n):
                        if len(paths[u][v]) < 3:
                            continue
                        best = max(
                            len(paths[u][a]) + len(paths[v][b])
                            for a in range(n)
                            for b in range(n)
                            if not set(paths[u][a]) & set(paths[v][b])
                        )
                        assert row[forest.index[v]] == best, (graph6_encode(tree), u, v)

    def test_one_reach_row_per_vertex(self):
        # T_16, of order 382, is {P16}-saturated and fails against {P17}:
        # that gap decides its 72390 chords from at most one reach row per
        # vertex, each keyed by the root of its pass: a count, so no timing
        # is needed
        calls = []
        chord_reach = saturation.chord_reach
        g = make_tk(16)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saturation, "chord_reach", lambda *a: calls.append(a[2][0]) or chord_reach(*a))
            gap = saturation_gap(g, parse_family("P17"))
        assert gap and check_saturated(g, parse_family("P17")).strategy == "forest"
        assert 0 < len(calls) == len(set(calls)) <= g.n

    def test_layered_trees_at_k_16_and_18(self):
        from satforge.claims import run_claim

        cases = run_claim("lem-2.4", ks=[16, 18])
        assert len(cases) == 4 and all(c["pass"] for c in cases)


class TestGenericScan:
    def test_rooted_clique_matches_whole_graph_detector(self):
        # on every Kp-free graph of order <= 7, a Kp through the non-edge uv
        # is a K(p-2) in N(u) & N(v)
        from satforge.patterns import has_clique
        from satforge.search import enumerate_graphs

        for n in range(2, 8):
            for g in enumerate_graphs(n):
                for p in range(2, 6):
                    if has_clique(g, p) is not None:
                        continue
                    for u, v in g.non_edges():
                        want = has_clique(g.add_edge(u, v), p) is not None
                        assert saturation._creates(g, Clique(p), u, v) == want, (
                            graph6_encode(g), p, u, v,
                        )

    def test_erdos_kp_order_400(self):
        v = check_saturated(make_erdos_kp(400, 4), parse_family("K4"))
        assert v.is_saturated and v.strategy == "generic"


class TestJoinDuality:
    def test_hub_join_saturation_matches_base(self):
        # over every class of order <= 6
        from satforge.search import enumerate_graphs

        fam_join = parse_family("K1*[2,2]")
        fam_base = parse_family("P2+P2")
        for n in range(1, 7):
            for h in enumerate_graphs(n):
                lhs = check_saturated(join(empty_graph(1), h), fam_join).is_saturated
                rhs = check_saturated(h, fam_base).is_saturated
                assert lhs == rhs, h
