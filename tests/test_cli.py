"""End-to-end CLI behaviour: exit codes, text output, JSON payloads.

Every command runs in-process through main(argv).  Exit code contract:
0 = predicate true / success, 1 = predicate false / not found,
2 = input error, 3 = audit found discrepancies.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kconnseq
from kconnseq import cli, is_k_connected, parse_edge_list, read_edge_list
from kconnseq.cli import main
from test_edgelist import fuzz_text, loose_labels
from test_realization import time_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*argv, timeout=30):
    """Run a fresh interpreter that imports this checkout's kconnseq."""
    src = str(Path(kconnseq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*argv, timeout=30):
    """``python -m kconnseq.cli`` in a fresh interpreter."""
    return fresh_python("-m", "kconnseq.cli", *argv, timeout=timeout)


def test_import_stays_lean():
    """Importing the CLI loads no heavy stdlib module a bare start skips.

    dataclasses pulls in inspect, and fractions pulls in decimal; every
    CLI process would pay for them at start-up.
    """
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    report = f"import sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    bare = fresh_python("-c", report)
    cli_import = fresh_python("-c", "import kconnseq.cli; " + report)
    assert bare.returncode == cli_import.returncode == 0, cli_import.stderr
    assert cli_import.stdout == bare.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--seq", "2,2,2,2,2", "--k", "2"],
        ["check", "--seq", "3,3,1,1", "--k", "1", "--format", "json"],
        ["realize", "--seq", "3,3,3,3,3,3,3,3,3,3,3,3", "--k", "3"],
        ["check", "--seq", "2,x", "--k", "1"],
    ],
)
def test_module_entry_point_matches_main(capsys, argv):
    code, out, err = run(capsys, *argv)
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check", "--seq", "2,2,2", "--k", "0"], "--k must be >= 1, got 0"),
        (["realize", "--seq", "2,2,2", "--k", "0"], "--k must be >= 1, got 0"),
        (["witness", "--n", "6", "--k", "0"], "--k must be >= 1, got 0"),
        (
            ["audit", "--theorem", "corollary", "--n", "4", "--k", "0"],
            "--k must be >= 1, got 0",
        ),
        (
            ["audit", "--theorem", "1", "--n", "4", "--kmax", "0"],
            "--kmax must be >= 1, got 0",
        ),
        (
            ["audit", "--theorem", "2", "--n", "4", "--kmax", "0"],
            "--kmax must be >= 1, got 0",
        ),
        (
            ["audit", "--theorem", "1", "--n", "4", "--jobs", "0"],
            "--jobs must be >= 1, got 0",
        ),
        (
            ["check", "--seq", "2,2,2", "--k", "1", "--oracle-limit", "0"],
            "--oracle-limit must be within 1..10, got 0",
        ),
        (
            ["check", "--seq", "2,2,2", "--k", "1", "--oracle-limit", "11"],
            "--oracle-limit must be within 1..10, got 11",
        ),
        (["audit", "--theorem", "1", "--n", "-1"], "n must be >= 1, got -1"),
        (["audit", "--theorem", "1", "--n", "0"], "n must be >= 1, got 0"),
    ],
)
def test_flag_range_errors(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {line}\n"


class TestCheck:
    def test_true_predicate_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "2,2,2,2,2", "--k", "2")
        assert code == 0
        assert "agreement: theorem1=AGREE" in out

    def test_witness_bound_line(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "6,4,4,4,4,2,2", "--k", "2")
        assert code == 0  # existence holds; necessity does not
        assert "epsilon = 13 <= C(phi-2,2) + 2k - 1 = 13" in out

    def test_false_predicate_exits_one(self, capsys):
        code, _, _ = run(capsys, "check", "--seq", "2,2,2", "--k", "3")
        assert code == 1

    def test_ground_truth_flips_the_exit(self, capsys):
        # {3,3,1,1} passes the counting conditions but is not graphic
        code, _, _ = run(capsys, "check", "--seq", "3,3,1,1", "--k", "1")
        assert code == 0
        code, out, _ = run(
            capsys, "check", "--seq", "3,3,1,1", "--k", "1", "--ground-truth"
        )
        assert code == 1
        assert "DISAGREE" in out
        assert "warning" in out

    def test_oracle_skipped_beyond_limit(self, capsys):
        seq = ",".join(["2"] * 9)
        code, out, _ = run(capsys, "check", "--seq", seq, "--k", "2")
        assert code == 0
        assert "oracle: skipped" in out

    def test_raised_limit_revives_the_oracle(self, capsys):
        seq = ",".join(["2"] * 9)
        code, out, _ = run(
            capsys, "check", "--seq", seq, "--k", "2", "--oracle-limit", "9"
        )
        assert code == 0
        assert "oracle: skipped" not in out

    def test_ground_truth_needs_the_oracle(self, capsys):
        seq = ",".join(["2"] * 9)
        code, _, err = run(capsys, "check", "--seq", seq, "--k", "2", "--ground-truth")
        assert code == 2
        assert "error:" in err

    def test_limit_hard_cap(self, capsys):
        code, _, err = run(
            capsys, "check", "--seq", "2,2,2", "--k", "1", "--oracle-limit", "11"
        )
        assert code == 2
        assert "hard cap" in err or "10" in err

    @pytest.mark.parametrize(
        "seq", ["", "2,x", "2,0,2", "2,-1", pytest.param("9" * 5000, id="too-long")]
    )
    def test_malformed_sequence(self, capsys, seq):
        code, _, err = run(capsys, "check", "--seq", seq, "--k", "1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("seq", ["1_0,٣", "1_0", "٣,2"])
    def test_sequence_digits_are_ascii(self, capsys, seq):
        code, out, err = run(capsys, "check", "--seq", seq, "--k", "1")
        assert (code, out) == (2, "")
        assert err == f"error: sequence must be comma-separated integers, got {seq!r}\n"

    def test_sequence_length_cap(self, capsys):
        code, _, err = run(capsys, "check", "--seq", ",".join(["1"] * 10_001), "--k", "1")
        assert code == 2
        assert err == "error: --seq has 10001 terms, over the cap of 10000\n"

    def test_k_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "check", "--seq", "2,2,2", "--k", "0")
        assert code == 2

    def test_json_payload_validates(self, capsys, load_schema):
        code, out, _ = run(
            capsys, "check", "--seq", "2,2,2,2,2", "--k", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload["theorem1"], load_schema("condition_report"))
        jsonschema.validate(payload["theorem2"], load_schema("condition_report"))
        jsonschema.validate(payload["oracle"], load_schema("sequence_verdict"))
        assert payload["agreement"] == {
            "theorem1_vs_exists": True,
            "theorem2_vs_all": False,
        }


class TestRealize:
    def test_exact_sequence_realization(self, capsys, tmp_path):
        out_file = tmp_path / "c5.edges"
        code, out, _ = run(
            capsys,
            "realize", "--seq", "2,2,2,2,2", "--k", "2", "--output", str(out_file),
        )
        assert code == 0
        assert "method=exact" in out
        g = read_edge_list(out_file)
        assert is_k_connected(g, 2)
        assert sorted(g.degree(v) for v in range(g.n)) == [2] * 5

    def test_exact_negative(self, capsys):
        code, out, _ = run(capsys, "realize", "--seq", "3,3,1,1", "--k", "1")
        assert code == 1
        assert "no realization exists (exact)" in out

    @pytest.mark.parametrize(
        "seq", ["1,1,1,1,1,1,1,1,1,1", "2,2,2,2,2,2,2,2,2,1,1,1,1"]
    )
    def test_too_few_edges_to_connect(self, seq):
        # phi above the oracle limit and fewer than phi - 1 edges: an
        # exact negative, where the component join used to spin forever.
        proc = run_module("realize", "--seq", seq, "--k", "1", timeout=20)
        assert proc.returncode == 1
        assert proc.stdout == "no realization exists (exact)\n"

    def test_not_found_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "realize", "--seq", "1,1,1,1", "--k", "1", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["found"] is False
        assert payload["method"] == "exact"

    def test_chain_mode(self, capsys):
        code, out, _ = run(
            capsys, "realize", "--n", "5", "--k", "2", "--epsilon", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "chain"
        assert payload["epsilon"] == 7
        assert [row["epsilon"] for row in payload["chain"]] == [5, 6, 7]
        g = parse_edge_list(
            "\n".join(f"{a} {b}" for a, b in payload["graph"]["edges"])
        )
        assert is_k_connected(g, 2)

    def test_chain_stuck_is_not_found(self, capsys):
        # 1-regular base on 6 vertices is disconnected: chain cannot start
        code, out, _ = run(capsys, "realize", "--n", "6", "--k", "1", "--epsilon", "10")
        assert code == 1
        assert "chain construction failed" in out

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, err = run(
            capsys, "realize", "--seq", "2,2,2", "--n", "5", "--k", "1",
            "--epsilon", "5",
        )
        assert code == 2
        code, _, err = run(capsys, "realize", "--k", "1")
        assert code == 2
        code, _, err = run(capsys, "realize", "--n", "5", "--k", "1")
        assert code == 2

    def test_chain_n_over_the_vertex_cap(self, capsys):
        # main() turns time_limit's TimeoutError into an error: line too;
        # the exact message tells the cap from a timeout.
        with time_limit(10):
            code, out, err = run(
                capsys, "realize", "--n", "10001", "--k", "3", "--epsilon", "30001"
            )
        assert (code, out) == (2, "")
        assert err == "error: --n must be within 1..10000, got 10001\n"

    def test_chain_at_size(self, capsys):
        # No connectivity is computed: the base cycle is 2-connected by
        # Harary's theorem, and the 40 graphs above it contain it.
        with time_limit(10):
            code, out, err = run(
                capsys, "realize", "--n", "400", "--k", "2", "--epsilon", "440",
                "--format", "json",
            )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["chain"]) == 41

    def test_chain_at_the_vertex_cap(self, capsys):
        with time_limit(10):
            code, out, err = run(
                capsys, "realize", "--n", "10000", "--k", "2", "--epsilon", "10000",
                "--format", "json",
            )
        assert (code, err) == (0, "")
        assert json.loads(out)["chain"] == [{"sequence": [2] * 10000, "epsilon": 10000}]

    def test_chain_over_the_terms_cap(self, capsys):
        # 19,701 rows of 200 terms: refused before any step is built
        with time_limit(2):
            code, out, err = run(
                capsys, "realize", "--n", "200", "--k", "2", "--epsilon", "19900"
            )
        assert (code, out) == (2, "")
        assert err == (
            "error: chain of 19701 rows of 200 terms exceeds the cap of"
            " 1000000 terms\n"
        )

    def test_chain_base_over_the_output_cap(self, capsys):
        # The base alone has 49,995,000 edges: refused before it is built,
        # but only once base_k_regular would have accepted k.
        argv = ("realize", "--n", "10000", "--epsilon", "5", "--k")
        with time_limit(10):
            assert run(capsys, *argv, "9999") == (
                2, "", "error: chain needs 49995000 edges, over the cap of 10000000\n"
            )
            assert run(capsys, *argv, "10000") == (
                2, "", "error: need 1 <= k <= n-1 = 9999, got k = 10000\n"
            )

    def test_seq_over_the_output_cap(self, capsys):
        with time_limit(10):
            code, out, err = run(
                capsys, "realize", "--seq", ",".join(["9999"] * 10000), "--k", "2"
            )
        assert (code, out) == (2, "")
        assert err == "error: --seq needs 49995000 edges, over the cap of 10000000\n"

    def test_chain_target_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "realize", "--n", "5", "--k", "2", "--epsilon", "99"
        )
        assert code == 2
        assert "outside feasible range" in err


class TestWitness:
    def test_files_and_summary(self, capsys, tmp_path, load_schema):
        code, out, _ = run(
            capsys,
            "witness", "--n", "7", "--k", "2", "--out-dir", str(tmp_path),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("witness_summary"))
        assert payload["epsilon"]["numerator"] == 13
        assert payload["g1"]["vertex_connectivity"] == 1
        assert payload["g2"]["vertex_connectivity"] == 2
        assert payload["g1_maximally_non_k_connected"] is True
        g1 = read_edge_list(payload["g1"]["path"])
        g2 = read_edge_list(payload["g2"]["path"])
        assert g1.edge_count == g2.edge_count == 13

    def test_disconnected_instance(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "witness", "--n", "6", "--k", "1", "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert "connectivity=0" in out

    def test_explicit_paths(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.edges", tmp_path / "b.edges"
        code, _, _ = run(
            capsys,
            "witness", "--n", "6", "--k", "2", "--g1", str(p1), "--g2", str(p2),
        )
        assert code == 0
        assert p1.exists() and p2.exists()

    def test_large_pair_is_quick(self, capsys, tmp_path):
        # Maximality is decided by structure, not by one flow per missing
        # edge, so the flows for the two kappas dominate.
        with time_limit(10):
            code, out, err = run(
                capsys, "witness", "--n", "300", "--k", "2",
                "--out-dir", str(tmp_path),
            )
        assert (code, err) == (0, "")
        assert out.endswith("g1 maximally non-2-connected: true\n")

    def test_dense_pair_at_size(self, capsys, tmp_path):
        # Most flows in the two kappas are routed through common
        # neighbours without a search, and the files are written one row
        # per vertex: about a million edges per graph here.
        with time_limit(10):
            code, out, err = run(
                capsys, "witness", "--n", "1500", "--k", "2",
                "--out-dir", str(tmp_path),
            )
        assert (code, err) == (0, "")
        assert "connectivity=1" in out and "connectivity=2" in out

    def test_n_over_the_vertex_cap(self, capsys, tmp_path):
        with time_limit(10):
            code, out, err = run(
                capsys, "witness", "--n", "10001", "--k", "2",
                "--out-dir", str(tmp_path),
            )
        assert (code, out) == (2, "")
        assert err == "error: --n must be within 1..10000, got 10001\n"
        assert list(tmp_path.iterdir()) == []

    def test_pair_over_the_output_cap(self, capsys, tmp_path):
        with time_limit(10):
            code, out, err = run(
                capsys, "witness", "--n", "10000", "--k", "2",
                "--out-dir", str(tmp_path),
            )
        assert (code, out) == (2, "")
        assert err == (
            "error: witness pair needs 99950012 edges, over the cap of 10000000\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_n_too_small(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "witness", "--n", "5", "--k", "3", "--out-dir", str(tmp_path)
        )
        assert code == 2
        assert "error:" in err


class TestAudit:
    def test_discrepancies_exit_three(self, capsys):
        code, out, _ = run(capsys, "audit", "--theorem", "1", "--n", "4", "--kmax", "2")
        assert code == 3
        assert "discrepancies: 3" in out

    def test_clean_audit_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--theorem", "corollary", "--n", "6", "--k", "2"
        )
        assert code == 0
        assert "violations: 0" in out

    def test_output_matches_the_golden_bytes(self, capsys, tmp_path, golden_dir):
        report_file = tmp_path / "t1.json"
        code, _, _ = run(
            capsys,
            "audit", "--theorem", "1", "--n", "4", "--kmax", "3",
            "--output", str(report_file),
        )
        assert code == 3
        assert report_file.read_bytes() == (
            golden_dir / "theorem1_n4_kmax3.json"
        ).read_bytes()

    def test_parallel_run_matches_the_golden_bytes(self, capsys, tmp_path, golden_dir):
        report_file = tmp_path / "t2.json"
        code, _, _ = run(
            capsys,
            "audit", "--theorem", "2", "--n", "5", "--kmax", "3",
            "--jobs", "2", "--output", str(report_file),
        )
        assert code == 3
        assert report_file.read_bytes() == (
            golden_dir / "theorem2_n5_kmax3.json"
        ).read_bytes()

    def test_no_min_degree_flag(self, capsys, tmp_path, golden_dir):
        report_file = tmp_path / "c.json"
        code, _, _ = run(
            capsys,
            "audit", "--theorem", "corollary", "--n", "5", "--k", "1",
            "--no-min-degree", "--output", str(report_file),
        )
        golden = (golden_dir / "corollary_n5_k1_all.json").read_bytes()
        assert report_file.read_bytes() == golden
        expected = 3 if json.loads(golden)["summary"]["violations"] else 0
        assert code == expected

    def test_text_mode_elides_long_entry_lists(self, capsys):
        code, out, _ = run(capsys, "audit", "--theorem", "1", "--n", "6")
        assert code == 3
        assert "more entries" in out

    def test_text_mode_without_output_skips_the_json(self, capsys, monkeypatch):
        argv = (
            "audit", "--theorem", "corollary", "--n", "5", "--k", "1",
            "--no-min-degree",
        )
        code, out, _ = run(capsys, *argv)

        def refuse(payload):
            raise AssertionError("text mode encoded the report")

        monkeypatch.setattr(cli, "canonical_json", refuse)
        assert run(capsys, *argv)[:2] == (code, out)

    def test_json_payload_validates(self, capsys, load_schema):
        code, out, _ = run(
            capsys,
            "audit", "--theorem", "2", "--n", "4", "--format", "json",
        )
        jsonschema.validate(json.loads(out), load_schema("discrepancy_report"))

    def test_kmax_past_n_is_counted_not_evaluated(self, capsys):
        # Every comparison with k >= n agrees (see oracle._theorem_rows).
        argv = ("audit", "--theorem", "2", "--n", "8", "--format", "json")
        with time_limit(10):
            code, out, err = run(capsys, *argv, "--kmax", "1000000000")
        assert (code, err) == (3, "")
        huge = json.loads(out)
        small = json.loads(run(capsys, *argv, "--kmax", "7")[1])
        assert huge["entries"] == small["entries"]
        assert huge["boundary"] == small["boundary"]
        assert huge["summary"]["comparisons"] == 871 * 10**9
        assert small["summary"] == {
            "comparisons": 6097, "discrepancies": 764, "boundary_cases": 233
        }

    def test_oversized_n_rejected(self, capsys):
        code, _, err = run(capsys, "audit", "--theorem", "1", "--n", "11")
        assert code == 2
        assert "error:" in err

    def test_bad_flags(self, capsys):
        assert run(capsys, "audit", "--theorem", "1", "--n", "4", "--jobs", "0")[0] == 2
        assert run(capsys, "audit", "--theorem", "1", "--n", "4", "--kmax", "0")[0] == 2
        assert (

            run(capsys, "audit", "--theorem", "corollary", "--n", "4", "--k", "0")[0]
            == 2
        )


class TestConnectivity:
    def write(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        return str(path)

    def test_complete_graph(self, capsys, tmp_path):
        path = self.write(
            tmp_path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        )
        code, out, _ = run(capsys, "connectivity", path)
        assert code == 0
        assert "vertex connectivity: 3" in out

    def test_pair_query(self, capsys, tmp_path):
        path = self.write(tmp_path, "0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(capsys, "connectivity", path, "--pair", "0", "2")
        assert code == 0
        assert "internally disjoint paths 0-2: 2" in out

    def test_json_shape(self, capsys, tmp_path):
        path = self.write(tmp_path, "0 1\n1 2\n")
        code, out, _ = run(capsys, "connectivity", path, "--format", "json")
        payload = json.loads(out)
        assert payload["degree_sequence"] == [2, 1, 1]
        assert payload["vertex_connectivity"] == 1
        assert payload["pair"] is None

    def test_loop_reports_line_number(self, capsys, tmp_path):
        path = self.write(tmp_path, "0 1\n3 3\n")
        code, _, err = run(capsys, "connectivity", path)
        assert code == 2
        assert "self-loop" in err and "line 2" in err

    def test_labels_are_ascii_digits(self, capsys, tmp_path):
        code, out, err = run(capsys, "connectivity", self.write(tmp_path, "٣ ٤\n"))
        assert (code, out) == (2, "")
        assert err == (
            "error: expected 'a b' with two decimal labels, got '٣ ٤' at line 1\n"
        )

    def test_isolated_vertex_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "# n=3\n0 1\n")
        code, _, err = run(capsys, "connectivity", path)
        assert code == 2

    @pytest.mark.parametrize(
        "text, n", [("0 99999999\n", 100_000_000), ("# n=99999999\n", 99_999_999)]
    )
    def test_vertex_cap(self, capsys, tmp_path, text, n):
        code, _, err = run(capsys, "connectivity", self.write(tmp_path, text))
        assert code == 2
        assert err == f"error: vertex count {n} exceeds the cap of 10000\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "connectivity", str(tmp_path / "absent.edges"))
        assert code == 2
        assert "error:" in err


class TestParserSurface:
    @pytest.mark.parametrize(
        "cmd", ["check", "realize", "witness", "audit", "connectivity"]
    )
    def test_help_available(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def call_main(argv):
    """(exit code, stdout, stderr) of main; argparse usage errors leave
    through SystemExit(2), as TestParserSurface expects."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    """Exit code within the contract; exit 2 iff one error line."""
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1
    else:
        assert err == ""


def run_guarded(capsys, *argv):
    """run(), failing the test (not the session) if Ctrl-C escapes main."""
    try:
        return run(capsys, *argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


class TestAbnormalEnds:
    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError, "error: out of memory\n"),
            (KeyboardInterrupt, "error: interrupted\n"),
        ],
    )
    def test_one_line_and_exit_two(self, capsys, monkeypatch, exc, line):
        def boom(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", boom)
        code, out, err = run_guarded(capsys, "check", "--seq", "2,2,2", "--k", "2")
        assert (code, out, err) == (2, "", line)
        assert "Traceback" not in err

    def test_interrupted_parallel_audit(self, capsys, monkeypatch):
        import concurrent.futures

        shutdowns = []

        class Pool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, tasks, chunksize=1):
                raise KeyboardInterrupt

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append((wait, cancel_futures))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        code, out, err = run_guarded(
            capsys, "audit", "--theorem", "1", "--n", "4", "--jobs", "2"
        )
        assert (code, out, err) == (2, "", "error: interrupted\n")
        assert shutdowns == [(False, True)]

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        # Never more workers than CPUs, however many jobs are asked for.
        import concurrent.futures

        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        serial = run(capsys, "audit", "--theorem", "1", "--n", "4")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("audit", "--theorem", "1", "--n", "4", "--jobs", "100000")
        assert run_guarded(capsys, *argv) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_guarded(capsys, *argv) == serial
        assert sizes == [2, 1]

    def test_usage_error_is_one_line(self, capsys):
        code, out, err = call_main(["check", "--seq", "-1,2", "--k", "2"])
        assert (code, out) == (2, "")
        assert err == (
            "error: argument --seq: expected one argument"
            " (see kconnseq check --help)\n"
        )


class TestFuzz:
    """Untrusted input never gets past the one-line error contract."""

    @given(
        st.one_of(
            st.text(max_size=40),
            st.lists(st.integers(-1, 9).map(str), max_size=8).map(",".join),
            st.lists(loose_labels, max_size=8).map(",".join),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_check_sequence(self, text):
        code, _, err = call_main(["check", "--seq", text, "--k", "2"])
        assert_clean_exit(code, err)
        if code != 2:
            assert "_" not in text
            assert all(c in "0123456789" for c in text if c.isdecimal())

    @given(st.one_of(fuzz_text.map(str.encode), st.binary(max_size=200)))
    @settings(max_examples=100, deadline=None)
    def test_connectivity_file(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.edges"
        path.write_bytes(data)
        code, _, err = call_main(["connectivity", str(path)])
        assert_clean_exit(code, err)
