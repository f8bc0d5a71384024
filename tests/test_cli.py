import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from satforge import claims, cli, search
from satforge.cli import main
from satforge.constructions import make_tk
from satforge.graphs import (
    build_graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    graph6_decode,
    graph6_encode,
    join,
    path_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(*argv):
    """The CLI on argv in a child process limited to 1 GiB of address space
    (resource.setrlimit in that child alone), as a CompletedProcess."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-c", "import sys; from satforge.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


class TestConstruct:
    def test_t1k_summary_and_file(self, tmp_path, capsys):
        out = tmp_path / "t.g6"
        code, stdout, _ = run(capsys, "construct", "t1k", "--k", "10", "-o", str(out))
        assert code == 0
        assert "order=20" in stdout and "edges=19" in stdout and "diam=8" in stdout
        g = graph6_decode(out.read_bytes().strip())
        assert g.n == 20

    def test_missing_option_named_in_order(self, capsys):
        for argv, missing in (
            (("erdos", "--p", "4"), "--n"),
            (("erdos", "--n", "9"), "--p"),
            (("sattree",), "--n"),
            (("g0", "--n", "40"), "--k"),
            (("tk",), "--k"),
        ):
            code, stdout, err = run(capsys, "construct", *argv)
            assert code == 2 and stdout == ""
            assert f"construct {argv[0]} needs {missing}" in err

    def test_g0_summary(self, tmp_path, capsys):
        out = tmp_path / "g0.g6"
        code, stdout, _ = run(
            capsys, "construct", "g0", "--n", "100", "--k", "10", "-o", str(out)
        )
        assert code == 0
        assert "components=5" in stdout and "edges=95" in stdout

    @pytest.mark.parametrize("argv", [
        ("erdos", "--n", "999999999", "--p", "3"),
        ("star", "--n", "999999999"),
        ("sattree", "--n", "999999999", "--k", "10"),
        ("g0", "--n", "999999999", "--k", "10"),
        ("tk", "--k", "40"),
    ])
    def test_huge_order_exit_two(self, argv):
        # refused before the builder allocates, so even a child process
        # limited to 1 GiB of address space exits 2 with no traceback (tk at
        # k = 40 has order A(40) = 1572862)
        proc = run_limited("construct", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        found = 1572862 if argv[0] == "tk" else 999999999
        assert proc.stderr == (
            f"error: construct {argv[0]}: expected an order of at most 258047, found {found}\n"
        )

    @pytest.mark.parametrize("argv", [
        ("tk", "--k", "99999999999"),
        ("g0", "--n", "100", "--k", "99999999999"),
        ("sattree", "--n", "100", "--k", "99999999999"),
        ("tk", "--k", "44"),
    ])
    def test_huge_k_exit_two(self, argv):
        # every order constant of k is at least 2^(k//2 - 4), so k is
        # refused from that exponent before a constant of k/2 bits is built,
        # even in a child process limited to 1 GiB of address space
        proc = run_limited("construct", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        bits = int(argv[-1]) // 2 - 4
        assert proc.stderr == (
            f"error: construct {argv[0]}: expected an order of at most 258047, "
            f"found one of at least 2^{bits}\n"
        )

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "construct", "t1k", "--k", "7")
        assert code == 2 and "k >= 8" in err

    def test_missing_param_exits_2(self, capsys):
        code, _, err = run(capsys, "construct", "g0", "--n", "100")
        assert code == 2

    def test_edgelist_format(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, _, _ = run(
            capsys, "construct", "star", "--n", "5", "-o", str(out),
            "--format", "edgelist",
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "5 4"

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "t.g6"
        code, stdout, _ = run(
            capsys, "construct", "t1k", "--k", "10", "-o", str(out), "--json"
        )
        assert code == 0
        assert json.loads(stdout) == {
            "order": 20, "edges": 19, "components": 1, "diam": 8,
        }


class TestCheck:
    def test_saturated_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "t.g6"
        run(capsys, "construct", "t1k", "--k", "10", "-o", str(out))
        code, stdout, _ = run(capsys, "check", "--family", "K3,P10", str(out))
        assert code == 0
        assert json.loads(stdout)["status"] == "saturated"

    def test_missing_edge_exit_four(self, tmp_path, capsys):
        out = tmp_path / "c6.g6"
        out.write_bytes(b"EhEG\n")  # the 6-cycle
        code, stdout, _ = run(capsys, "check", "--family", "K3", str(out))
        assert code == 4
        assert json.loads(stdout)["missing_edge"] == [0, 3]

    def test_contains_member_exit_three(self, tmp_path, capsys):
        out = tmp_path / "k4.g6"
        out.write_bytes(b"C~\n")  # complete graph on 4
        code, stdout, _ = run(capsys, "check", "--family", "K3", str(out))
        assert code == 3
        assert json.loads(stdout)["witness"]["kind"] == "clique"

    def test_edgelist_input_sniffed(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        out.write_text("3 2\n0 1\n1 2\n")
        code, stdout, _ = run(capsys, "check", "--family", "P3", str(out))
        assert code == 3

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code, stdout, err = run(
            capsys, "check", "--family", "K3", str(tmp_path / "absent.g6")
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and "absent.g6" in err

    def test_eight_byte_graph6_header_exit_two(self, tmp_path, capsys):
        # an order of 258048 or more is refused as input, with no traceback
        out = tmp_path / "huge.g6"
        out.write_bytes(b"~~" + b"?" * 6 + b"\n")
        code, stdout, err = run(capsys, "check", "--family", "K3", str(out))
        assert code == 2 and stdout == ""
        assert "at most 258047 vertices" in err

    def test_huge_edgelist_order_exit_two(self, tmp_path):
        # the header is refused before any row is allocated, so even a child
        # process limited to 1 GiB of address space exits 2 with no traceback
        out = tmp_path / "huge.txt"
        out.write_text("999999999 0\n")
        proc = run_limited("check", "--family", "K3", str(out))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: line 1: expected an order of at most 258047, found 999999999\n"

    def test_non_ascii_edgelist_exit_two(self, tmp_path, capsys):
        out = tmp_path / "binary.txt"
        out.write_bytes(b"3 1\n0 \xff\n")
        code, stdout, err = run(capsys, "check", "--family", "K3", "--format", "edgelist", str(out))
        assert code == 2 and stdout == ""
        assert err == f"error: {out}: not ASCII text\n"

    def test_two_graph6_lines_exit_two(self, tmp_path, capsys):
        # the second graph (K4) would give exit 3 if it were read
        out = tmp_path / "two.g6"
        out.write_bytes(b"Bw\n\nC~\n")
        for extra in ((), ("--format", "graph6")):
            code, stdout, err = run(capsys, "check", "--family", "K3", *extra, str(out))
            assert code == 2 and stdout == ""
            assert "expected one graph6 line, found 2" in err

    def test_path_search_budget_exit_five(self, tmp_path, capsys):
        # K150,150 is one 300-vertex block whose walk meets a P200 at once;
        # K5,40 has no P12 (its longest path has 11 vertices), and its walk
        # explodes past the step budget
        k150 = build_graph(300, [(u, v) for u in range(150) for v in range(150, 300)])
        k5 = build_graph(45, [(u, v) for u in range(5) for v in range(5, 45)])
        cases = (("k150", k150, "P200", cli.EXIT_CONTAINS), ("k5", k5, "P12", cli.EXIT_BUDGET))
        for name, g, family, want in cases:
            out = tmp_path / f"{name}.g6"
            out.write_bytes(graph6_encode(g) + b"\n")
            code, stdout, err = run(capsys, "check", "--family", family, str(out))
            assert code == want, name
            if want == cli.EXIT_CONTAINS:
                assert json.loads(stdout)["status"] == "contains_member"
            else:
                assert want == 5 and stdout == ""
                assert "path search budget exceeded" in err

    def test_strategy_reported(self, tmp_path, capsys):
        out = tmp_path / "t12.g6"
        run(capsys, "construct", "tk", "--k", "12", "-o", str(out))
        code, stdout, _ = run(capsys, "check", "--family", "P12", str(out))
        assert code == 0
        assert json.loads(stdout)["strategy"] == "forest"
        code, stdout, _ = run(capsys, "check", "--family", "P11", str(out))
        assert code == 3
        assert json.loads(stdout)["strategy"] == "detector"

    def test_hub_strategy_reported(self, tmp_path, capsys):
        # K1 joined to T_11, as graph6: decided as T_11 against P11
        out = tmp_path / "hub.g6"
        out.write_bytes(graph6_encode(join(empty_graph(1), make_tk(11))) + b"\n")
        code, stdout, _ = run(capsys, "check", "--family", "K1*[11]", str(out))
        assert code == 0
        data = json.loads(stdout)
        assert data["status"] == "saturated" and data["strategy"] == "hub+forest"

    def test_deep_union_member_exit_three(self, tmp_path, capsys):
        # a P1500 search deeper than Python's recursion limit
        g = disjoint_union(path_graph(1600), complete_graph(3))
        out = tmp_path / "p1600k3.g6"
        out.write_bytes(graph6_encode(g) + b"\n")
        code, stdout, err = run(capsys, "check", "--family", "K3+P1500", str(out))
        assert code == 3 and err == ""
        data = json.loads(stdout)
        assert data["strategy"] == "detector"
        assert data["witness"]["parts"] == [[1600, 1601, 1602], list(range(1500))]

    def test_bad_family_exit_two(self, tmp_path, capsys):
        out = tmp_path / "t.g6"
        out.write_bytes(b"Bw\n")
        code, _, _ = run(capsys, "check", "--family", "Z9", str(out))
        assert code == 2


class TestBruteforce:
    def test_value(self, capsys):
        code, stdout, _ = run(capsys, "bruteforce", "--n", "5", "--family", "K3")
        assert code == 0
        data = json.loads(stdout)
        assert data["value"] == 4 and data["classes_examined"] == 34

    def test_join_family(self, capsys):
        code, stdout, _ = run(capsys, "bruteforce", "--n", "6", "--family", "K1*[2,2]")
        assert code == 0
        assert json.loads(stdout)["value"] == 8

    def test_member_larger_than_the_graphs_is_not_searched(self, capsys, monkeypatch):
        # K3+P3+P4 has 10 vertices, so no graph of order 8 holds it or gains
        # it from an edge: K8, with no non-edge, is the one saturated class,
        # and find_member answers every question without a search
        from satforge import saturation

        def refuse(*args):
            raise AssertionError("searched for a member larger than the graph")

        monkeypatch.setattr(saturation, "_find_union", refuse)
        code, stdout, _ = run(capsys, "bruteforce", "--n", "8", "--family", "K3+P3+P4")
        assert code == 0
        assert stdout == (
            '{"classes_examined": 12346, "family": "K3+P3+P4", "n": 8, "value": 28, '
            '"witnesses": ["G~~~~{"]}\n'
        )

    def test_budget_exit_two(self, capsys):
        code, _, err = run(capsys, "bruteforce", "--n", "9", "--family", "K3")
        assert code == 2 and "budget" in err

    def test_budget_flag_overrides_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SATFORGE_BUDGET", "graphs=4")
        code, _, err = run(capsys, "bruteforce", "--n", "5", "--family", "K3")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize("value", ["graphs=9,junk", "trees=22,graphs", "graph=9", "graphs=x"])
    def test_bad_budget_entry_exit_two(self, capsys, monkeypatch, value):
        # the whole value is checked, whatever the order of its entries
        monkeypatch.setenv("SATFORGE_BUDGET", value)
        code, stdout, err = run(capsys, "bruteforce", "--n", "5", "--family", "K3")
        bad = value.split(",")[-1]
        assert code == 2 and stdout == ""
        assert "SATFORGE_BUDGET" in err and repr(bad) in err

    def test_verify_over_budget_names_the_budget(self, capsys):
        code, stdout, err = run(capsys, "verify", "thm-1.4", "--n", "9")
        assert code == 2 and stdout == ""
        assert "graphs budget 1..8" in err and "SATFORGE_BUDGET" in err

    @pytest.mark.parametrize(
        "argv",
        [("bruteforce", "--n", "0", "--family", "K3"), ("verify", "thm-1.4", "--n", "1")],
    )
    def test_order_below_one_names_no_budget(self, capsys, argv):
        # no budget admits order 0, so raising SATFORGE_BUDGET cannot help
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert {
            "bruteforce": "graph order 0: orders start at 1",
            "verify": "thm-1.4 needs --n of at least 2, not 1",
        }[argv[0]] in err
        assert "budget" not in err and "SATFORGE_BUDGET" not in err

    @pytest.mark.parametrize("n", ["0", "1", "6,1"])
    def test_hub_join_refuses_orders_below_two_before_any_search(self, capsys, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("sat_bruteforce called")

        monkeypatch.setattr(claims, "sat_bruteforce", refuse)
        code, stdout, err = run(capsys, "verify", "thm-1.4", "--n", n)
        assert code == 2 and stdout == ""
        assert "--n of at least 2" in err


class TestFormula:
    def test_order_constant(self, capsys):
        code, stdout, _ = run(capsys, "formula", "a1", "--k", "10")
        assert code == 0
        assert json.loads(stdout)["value"] == 20

    def test_sat_k3_pk(self, capsys):
        code, stdout, _ = run(capsys, "formula", "sat-k3-pk", "--n", "40", "--k", "10")
        assert json.loads(stdout)["value"] == 38

    def test_bounds(self, capsys):
        code, stdout, _ = run(
            capsys, "formula", "sat-k3-cup-pk", "--n", "200", "--k", "10"
        )
        data = json.loads(stdout)
        assert (data["lower"], data["upper"]) == (192, 196)

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("a", "--k", "10"), {"k": 10, "validity": "k >= 6", "value": 46}),
            (("a0", "--k", "11"), {"k": 11, "validity": "k >= 6", "value": 34}),
            (("a1", "--k", "10"), {"k": 10, "validity": "k >= 8", "value": 20}),
            (
                ("sat-pk", "--n", "30", "--k", "7"),
                {"k": 7, "n": 30, "validity": "k >= 6 and n >= A(k)", "value": 28},
            ),
            (
                ("sat-k3-pk", "--n", "40", "--k", "10"),
                {"k": 10, "n": 40, "validity": "k >= 10 and n >= A1(k)", "value": 38},
            ),
            (
                ("sat-kp", "--n", "9", "--p", "4"),
                {"n": 9, "p": 4, "validity": "n >= p >= 3", "value": 15},
            ),
            (
                ("sat-k3-cup-pk", "--n", "200", "--k", "10"),
                {
                    "k": 10, "lower": 192, "n": 200, "upper": 196,
                    "validity": "k >= 10 and n >= 6*A1(k)",
                },
            ),
            (
                ("sat-join-k1", "--n", "9", "--sat-f", "5"),
                {"n": 9, "sat_f": 5, "validity": "n >= 2", "value": 13},
            ),
            (
                ("linear-forest", "--n", "20", "--orders", "6,4"),
                {
                    "lower": 10, "n": 20, "orders": [6, 4], "upper": 42,
                    "validity": "orders descending, smallest in {4} or >= 6",
                },
            ),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else "",
    )
    def test_every_formula_pinned(self, capsys, argv, want):
        code, stdout, _ = run(capsys, "formula", *argv)
        assert code == 0
        assert stdout == json.dumps({"formula": argv[0], **want}, sort_keys=True) + "\n"

    def test_missing_option_exit_two(self, capsys):
        code, stdout, err = run(capsys, "formula", "a", "--n", "5")
        assert code == 2 and stdout == "" and "formula a needs --k" in err
        code, stdout, err = run(capsys, "formula", "sat-join-k1", "--n", "9")
        assert code == 2 and stdout == "" and "formula sat-join-k1 needs --sat-f" in err

    def test_out_of_range_exit_two(self, capsys):
        code, _, _ = run(capsys, "formula", "sat-pk", "--n", "10", "--k", "5")
        assert code == 2

    @pytest.mark.parametrize("name", ["a", "a0", "a1"])
    def test_huge_k_exit_two(self, name):
        # refused with its bound before 2^(k/2) is built, even in a child
        # process limited to 1 GiB of address space
        proc = run_limited("formula", name, "--k", "99999999999")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {name.upper()} is computed for k <= 10000, got 99999999999\n"


class TestVerify:
    def test_lem_2_4(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "lem-2.4", "--k", "9..10", "--no-timestamp",
            "--threads", "1",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"] is True
        assert all(c["pass"] for c in report["cases"])
        assert report["campaign"] == "lem-2.4"

    def test_unknown_campaign_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "lem-9.9")
        assert code == 2 and "unknown campaign" in err

    def test_failing_campaign_exit_one(self, capsys, monkeypatch):
        # the registry's table drives the CLI: a wrong k=5 minimum row fails
        orders, _ = claims.PROP_5_2[5]
        monkeypatch.setitem(claims.PROP_5_2, 5, (orders, ("T2",)))
        code, stdout, _ = run(
            capsys, "verify", "prop-5.2", "--k", "5", "--no-timestamp", "--threads", "1"
        )
        report = json.loads(stdout)
        assert code == 1 and report["passed"] is False
        assert [c["case"] for c in report["cases"] if not c["pass"]] == ["k=5/minimum"]

    def test_prop_5_2_minimum_and_containment(self, capsys):
        args = ["verify", "prop-5.2", "--k", "5,6,8", "--no-timestamp"]
        code1, out1, _ = run(capsys, *args, "--threads", "1")
        code2, out2, _ = run(capsys, *args, "--threads", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        cases = {c["case"]: c for c in json.loads(out1)["cases"]}
        assert sorted(cases) == [
            "k=5/containment", "k=5/minimum", "k=6/containment", "k=6/minimum",
            "k=8/by-diameter", "k=8/containment", "k=8/minimum", "k=8/refutation",
        ]
        assert cases["k=6/minimum"]["actual"] == ["T2", "T3"]
        assert all(c["pass"] for c in cases.values())

    def test_k_outside_table_exit_two(self, capsys):
        code, stdout, err = run(capsys, "verify", "prop-5.2", "--k", "10")
        assert code == 2 and stdout == ""
        assert "no k=10" in err and "5, 6, 7, 8, 9" in err

    def test_ignored_option_exit_two(self, capsys):
        for argv in (("lem-2.3-k10", "--k", "3"), ("prop-5.2", "--n", "20"),
                     ("thm-1.4", "--k", "10"), ("lem-2.4", "--n", "20")):
            code, stdout, err = run(capsys, "verify", *argv)
            assert code == 2 and stdout == "", argv
            assert f"{argv[0]} takes no {argv[1]}" in err

    def test_threads_below_one_exit_two(self, capsys):
        for threads in ("0", "-3"):
            code, stdout, err = run(
                capsys, "verify", "lem-2.4", "--k", "9", "--threads", threads
            )
            assert code == 2 and stdout == "", threads
            assert "--threads" in err

    def test_empty_list_exit_two(self, capsys):
        # a list with no value is refused, not read as "the default table"
        for argv in (("lem-2.4", "--k", "14..9"), ("lem-2.4", "--k", ","),
                     ("lem-2.4", "--k", ""), ("thm-1.1", "--n", ",")):
            code, stdout, err = run(capsys, "verify", *argv)
            assert code == 2 and stdout == "", argv
            assert "holds no value" in err, argv

    def test_non_integer_list_value_exit_two(self, capsys):
        # named by the tool, not by int()'s own message
        for argv in (("lem-2.4", "--k", "3,x"), ("thm-1.1", "--n", "x..9")):
            code, stdout, err = run(capsys, "verify", *argv)
            assert code == 2 and stdout == "", argv
            assert err == f"error: the list {argv[2]!r} holds a value that is not an integer\n", argv

    def test_no_prefilter_refused(self, capsys):
        # verify has no audit option: argparse refuses it before any
        # campaign runs
        code, stdout, err = run(capsys, "verify", "prop-5.2", "--k", "5", "--no-prefilter")
        assert code == 2 and stdout == ""
        assert "--no-prefilter" in err

    def test_dead_scan_child_exit_six(self, capsys, monkeypatch):
        # a scan child that ends before sending its result, as one the
        # kernel kills for memory, exits 6 with no traceback, naming the
        # shard and its exit code; the fork carries the patch into shard 1
        real = search._scan_shard

        def shard(job):
            if job[3] == 1:
                os._exit(9)
            return real(job)

        monkeypatch.setattr(search, "_scan_shard", shard)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        code, stdout, err = run(capsys, "verify", "prop-5.2", "--threads", "2")
        assert code == cli.EXIT_WORKER == 6 and stdout == ""
        assert "shard 1 ended with exit code 9" in err
        assert "Traceback" not in err

    def test_thread_count_invariance(self, capsys):
        args = ["verify", "thm-1.1", "--k", "10", "--n", "20,23", "--no-timestamp"]
        code1, out1, _ = run(capsys, *args, "--threads", "1")
        code2, out2, _ = run(capsys, *args, "--threads", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "lem-2.4", "--k", "9", "--no-timestamp",
            "--threads", "1", "-o", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True


# sha256 of `satforge verify <argv> --no-timestamp` stdout, recorded when
# the report's schema_version became 2 and inputs.no_prefilter left it; the
# cases are the bytes recorded before the tree scan took over its own
# sharding, and every report keeps its bytes at any --threads value
REPORT_SHA256 = {
    ("lem-2.4",): "2c5daef72af4389c3fa6933e60361150459dcb9831d9047b75a6dc018c7dabb3",
    ("thm-1.1",): "afe63a67cd5723cd7ab106b38865ba9cae39b918b41b6e60fd66aa8fec5e55f7",
    ("lem-3.1",): "058dfdf53f5deec83afc0c872df2eedf84fbfc86e03e30e12ac24339b7d4b40e",
    ("lem-3.2",): "8c68efb2789c7e5bb768f996ef138e48102ea897aac415011b80a6a5f797307b",
    ("thm-1.2-upper",): "aa116abe0eb076d8dfea7b72420581ddc7f362913c339db6d1c860117ba46936",
    ("thm-1.4",): "93a2712170fac4f7c4b0a46cc23ad36ce162805b1bd37861445adab359d7b00c",
    ("prop-5.2", "--k", "5,6"): "2a55fb7cff0f878d1bf25859fd4a106d32457acbbf3c91b2277fc607d6d29431",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", sorted(REPORT_SHA256), ids="".join)
def test_report_bytes_pinned(capsys, argv, threads):
    code, stdout, _ = run(
        capsys, "verify", *argv, "--no-timestamp", "--threads", threads
    )
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == REPORT_SHA256[argv]


def test_seeded_fuzz_exits_with_a_documented_code(tmp_path):
    # malformed families, edge lists and graph6 lines and out-of-range
    # numbers over every subcommand, each in a child limited to 1 GiB of
    # address space: a documented exit code, no traceback, and nothing on
    # standard output when the input is refused
    rng = random.Random(30)
    ints = ("-1", "0", "1", "2", "3", "7", "99999999999", str(-(2**40)))
    lists = ("-1", "0", "x", ",", "3,x", "9..3", "99999999999")
    atoms = ("K3", "P4", "P1", "K0", "K99999999999", "K1*[2,3]", "K1*[]", "K1*[1", "+", ",", "*", "x")
    graph = tmp_path / "p4.g6"
    graph.write_bytes(graph6_encode(path_graph(4)) + b"\n")
    runs = []
    for i in range(5):
        family = "".join(rng.choice(atoms) + rng.choice(("", "+", ",")) for _ in range(rng.randrange(1, 4)))
        runs.append(("check", str(graph), "--family", family))
        if i % 2:
            runs.append(("bruteforce", "--n", rng.choice(("-1", "0", "4", "9")), "--family", family))
    for i in range(5):
        header = f"{rng.choice(('-1', '0', '3', '999999999', 'x'))} {rng.choice(('0', '1', '2'))}"
        lines = rng.choices(("0 1", "1 2", "0 0", "1 5", "a b", "0 1 2", "", "-1 2"), k=rng.randrange(3))
        path = tmp_path / f"edges{i}.txt"
        path.write_text("\n".join([header, *lines]) + "\n")
        runs.append(("check", str(path), "--family", "K3+P4", "--format", "edgelist"))
    for i in range(5):
        path = tmp_path / f"bytes{i}.g6"
        n = rng.randrange(13)
        size = max(0, -(-n * (n - 1) // 12) + rng.choice((-1, 0, 0, 1)))
        path.write_bytes(bytes([63 + n] + [rng.randrange(63, 127) for _ in range(size)]))
        runs.append(("check", str(path), "--family", "P3", *(("--format", "graph6") if i % 2 else ())))
    for kind in rng.sample(sorted(cli._CONSTRUCT), 5):
        n, k, p = rng.choices(ints, k=3)
        runs.append(("construct", kind, "--n", n, "--k", k, "--p", p))
    for name in rng.sample(sorted(cli._FORMULAS), 4):
        n, k, p, sat_f = rng.choices(ints, k=4)
        runs.append(("formula", name, "--n", n, "--k", k, "--p", p, "--sat-f", sat_f, "--orders", rng.choice(lists)))
    for campaign in rng.sample(sorted(claims.CLAIMS), 3):
        runs.append(("verify", campaign, rng.choice(("--k", "--n")), rng.choice(lists),
                     "--threads", rng.choice(("0", "1", "2"))))
    for argv in runs:
        proc = run_limited(*argv)
        assert proc.returncode in range(7), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert proc.returncode != 2 or proc.stdout == "", argv
