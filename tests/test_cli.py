"""Command-line behaviour: subcommands, exit codes, and report round trips."""

from __future__ import annotations

import io

import pytest

from cutlattice import cli
from cutlattice.baselines import brute_force_downsets
from cutlattice.cli import (
    PredicateSpec,
    main,
    parse_predicate,
    parse_rank_spec,
    read_reports_csv,
)
from cutlattice.model import UsageError
from cutlattice.traceio import GenSpec, generate_random, serialize_trace
from cutlattice.uniflow import build_uniflow_partition

SIX_EVENT = "n=2\n1 1\n2 1\n3 1\n4 2\n5 2 2\n6 2\n"
CROSSING = "n=2\n1 1\n2 2\n3 2 1\n4 1 2\n"


@pytest.fixture
def six_event_path(tmp_path):
    path = tmp_path / "figsix.trace"
    path.write_text(SIX_EVENT)
    return str(path)


@pytest.fixture
def t28_path(tmp_path):
    """A 28-event trace, above the brute-force oracle's 25-event limit."""
    path = tmp_path / "t28.trace"
    comp = generate_random(GenSpec(n=3, total_events=28, message_probability=0.3, seed=7))
    path.write_text(serialize_trace(comp, name="t28"))
    return str(path)


@pytest.fixture
def crossing_path(tmp_path):
    path = tmp_path / "figcross.trace"
    path.write_text(CROSSING)
    return str(path)


class TestParseHelpers:
    def test_rank_specs(self):
        assert parse_rank_spec("all", 10) == (0, 10)
        assert parse_rank_spec("4", 10) == (4, 4)
        assert parse_rank_spec("2..5", 10) == (2, 5)

    @pytest.mark.parametrize("bad", ["", "x", "5..2", "3..99", "-1"])
    def test_bad_rank_specs(self, bad):
        with pytest.raises(UsageError):
            parse_rank_spec(bad, 10)

    def test_predicate_terms(self):
        spec = parse_predicate("p2>=2 & p1<=1 & rank>=3")
        assert spec.terms == ((2, ">=", 2), (1, "<=", 1))
        assert spec.rank_min == 3
        assert spec.matches((1, 2), 3)
        assert not spec.matches((2, 2), 4)

    def test_predicate_unicode_ops(self):
        spec = parse_predicate("p1≥1 & p2≤2")
        assert spec.terms == ((1, ">=", 1), (2, "<=", 2))

    def test_bad_predicate(self):
        with pytest.raises(UsageError):
            parse_predicate("q1>=2")

    @pytest.mark.parametrize("text", ["p0>=1", "p1>=2 & p00<=1"])
    def test_predicate_process_zero(self, text):
        """Processes are numbered from 1.  ``matches`` reads ``cut[p - 1]``,
        so a ``p0`` term would read the last process: it is rejected when
        parsed, before any computation is known."""
        with pytest.raises(UsageError, match="at least p1"):
            parse_predicate(text)


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        argv = ["gen", "-n", "10", "-e", "100", "-p", "0.3", "--seed", "1", "--name", "d100"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"# seed: 1" in a.read_bytes()

    def test_empty_trace(self, tmp_path, capsys):
        out = tmp_path / "empty.trace"
        assert main(["gen", "-n", "2", "-e", "0", "-o", str(out)]) == 0
        assert out.read_text().endswith("n=2\n")


class TestPartition:
    def test_cross_trace_three_chains(self, crossing_path, capsys):
        assert main(["partition", crossing_path]) == 0
        out = capsys.readouterr().out
        assert "n_u=3" in out
        assert "uniflow=ok" in out

    def test_single_chain(self, tmp_path, capsys):
        path = tmp_path / "one.trace"
        path.write_text("n=1\n1 1\n2 1\n3 1\n")
        assert main(["partition", str(path)]) == 0
        assert "n_u=1" in capsys.readouterr().out

    def test_dump_clocks(self, crossing_path, capsys):
        assert main(["partition", crossing_path, "--dump-clocks"]) == 0
        out = capsys.readouterr().out
        assert "chain 3 pos 1 event 4 uvc=[1,1,1]" in out


class TestTraverse:
    def test_count_all(self, six_event_path, capsys):
        assert main(["traverse", six_event_path]) == 0
        assert "cuts=12" in capsys.readouterr().out

    def test_count_identical_across_algorithms(self, six_event_path, capsys):
        counts = []
        for algo in ("uniflow", "traditional", "brute"):
            assert main(["traverse", six_event_path, "--algo", algo]) == 0
            out = capsys.readouterr().out
            counts.append([l for l in out.splitlines() if l.startswith("cuts=")])
        assert counts[0] == counts[1] == counts[2] == ["cuts=12"]

    def test_list_rank_three(self, six_event_path, capsys):
        assert main(["traverse", six_event_path, "--ranks", "3", "--mode", "list"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("rank=")]
        assert lines == ["rank=3 cut=[0,3]", "rank=3 cut=[1,2]"]

    def test_first_match(self, six_event_path, capsys):
        assert main([
            "traverse", six_event_path, "--predicate", "p2>=2 & p1>=2",
            "--mode", "first-match",
        ]) == 0
        assert "match rank=4 cut=[2,2]" in capsys.readouterr().out

    def test_first_match_absent(self, six_event_path, capsys):
        assert main([
            "traverse", six_event_path, "--predicate", "p1>=3 & rank<=2",
            "--mode", "first-match",
        ]) == 0
        assert "no-match" in capsys.readouterr().out

    def test_first_match_is_rank_minimal(self, tmp_path, capsys):
        comp = generate_random(GenSpec(n=3, total_events=15, message_probability=0.3, seed=17))
        path = tmp_path / "r.trace"
        path.write_text(serialize_trace(comp))
        predicate = parse_predicate("p1>=3 & p2>=2")
        matches = {
            r
            for r, cuts in brute_force_downsets(comp).items()
            for c in cuts
            if predicate.matches(c, r)
        }
        assert main([
            "traverse", str(path), "--predicate", "p1>=3 & p2>=2",
            "--mode", "first-match",
        ]) == 0
        out = capsys.readouterr().out
        assert f"match rank={min(matches)} " in out

    def test_predicate_out_of_range_process(self, six_event_path, capsys):
        assert main(["traverse", six_event_path, "--predicate", "p9>=1"]) == 2
        assert "predicate process p9 outside 1..2" in capsys.readouterr().err

    def test_predicate_out_of_range_process_at_most(self, six_event_path, capsys):
        """A ``<=`` term may exceed the event count, not the process count."""
        assert main(["traverse", six_event_path, "--predicate", "p9<=1"]) == 2
        assert "predicate process p9 outside 1..2" in capsys.readouterr().err

    def test_predicate_at_most_above_event_count_holds_everywhere(self, six_event_path, capsys):
        """Process 1 has 3 events, so ``p1<=5`` holds on every cut: all 12."""
        assert main(["traverse", six_event_path, "--predicate", "p1<=5"]) == 0
        assert "cuts=12" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("op", ["=", ">="])
    def test_predicate_count_above_event_count_is_usage_error(self, six_event_path, capsys, op):
        assert main(["traverse", six_event_path, "--predicate", f"p1{op}5"]) == 2
        assert "predicate count 5 exceeds the 3 events of process 1" in capsys.readouterr().err

    def test_predicate_process_zero_is_usage_error(self, six_event_path, capsys):
        assert main(["traverse", six_event_path, "--predicate", "p0>=1"]) == 2
        assert "p0 must be at least p1" in capsys.readouterr().err

    def test_bad_rank_spec_is_usage_error(self, six_event_path, capsys):
        assert main(["traverse", six_event_path, "--ranks", "9..2"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["traverse", str(tmp_path / "nope.trace")]) == 2

    def test_unknown_trace_format_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "v2.trace"
        path.write_text("# trace-format: 2\nn=2\n1 1\n2 2 1\n")
        assert main(["traverse", str(path)]) == 2
        captured = capsys.readouterr()
        assert "cuts=" not in captured.out
        assert "trace-format 2" in captured.err

    def test_negative_memory_cap_is_usage_error(self, six_event_path, capsys):
        assert main([
            "traverse", six_event_path, "--algo", "traditional", "--max-stored", "-1",
        ]) == 2
        captured = capsys.readouterr()
        assert "--max-stored" in captured.err
        assert "cuts=" not in captured.out

    def test_memory_cap_is_resource_error(self, tmp_path, capsys):
        comp = generate_random(GenSpec(n=6, total_events=24, message_probability=0.0, seed=3))
        path = tmp_path / "wide.trace"
        path.write_text(serialize_trace(comp))
        assert main([
            "traverse", str(path), "--algo", "traditional", "--max-stored", "5",
        ]) == 3


class TestVerify:
    def test_pass(self, six_event_path, capsys):
        assert main(["verify", six_event_path]) == 0
        out = capsys.readouterr().out
        assert "rank 6: cuts=1 ok" in out
        assert "verified" in out

    def test_generated_trace_passes(self, tmp_path, capsys):
        path = tmp_path / "g.trace"
        assert main(["gen", "-n", "3", "-e", "12", "-p", "0.3", "--seed", "7",
                     "-o", str(path)]) == 0
        assert main(["verify", str(path)]) == 0

    def test_corruption_detected_at_rank(self, six_event_path, capsys, monkeypatch):
        uniflow = cli.ENUMERATORS["uniflow"]

        def corrupted(comp, window, visitor, max_stored):
            record = uniflow(comp, window, visitor, max_stored)
            visitor((-1,) * comp.n, 2)
            return record

        monkeypatch.setitem(cli.ENUMERATORS, "uniflow", corrupted)
        assert main(["verify", six_event_path]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH at rank 2" in out
        assert "rank 1: " in out  # earlier ranks compared clean

    def test_partition_built_once(self, six_event_path, capsys, monkeypatch):
        calls = []

        def counting(comp):
            calls.append(comp)
            return build_uniflow_partition(comp)

        monkeypatch.setattr(cli, "build_uniflow_partition", counting)
        assert main(["verify", six_event_path]) == 0
        assert len(calls) == 1

    def test_brute_only_within_its_event_limit(self, t28_path, capsys):
        assert main(["verify", t28_path]) == 0
        assert "enumerators=traditional,uniflow " in capsys.readouterr().out

    def test_max_rank_window(self, six_event_path, capsys):
        assert main(["verify", six_event_path, "--max-rank", "3"]) == 0
        out = capsys.readouterr().out
        assert "rank 3: cuts=2 ok" in out
        assert "rank 4" not in out


class TestBench:
    def test_table_and_csv_round_trip(self, six_event_path, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        assert main([
            "bench", six_event_path, "--algos", "uniflow,traditional,brute",
            "--ranks", "all", "3", "--reps", "2", "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "uniflow" in out
        with open(csv_path, encoding="utf-8") as fh:
            reports = read_reports_csv(fh)
        assert len(reports) == 3 * 2 * 2
        with io.StringIO() as buf:
            from cutlattice.cli import write_reports_csv

            write_reports_csv(reports, buf)
            buf.seek(0)
            assert read_reports_csv(buf) == reports
        full = [r for r in reports if r.ranks == "all" and r.algorithm == "uniflow"]
        assert all(r.cuts == 12 for r in full)

    def test_resource_failure_recorded_not_fatal(self, tmp_path, capsys):
        comp = generate_random(GenSpec(n=6, total_events=24, message_probability=0.0, seed=3))
        path = tmp_path / "wide.trace"
        path.write_text(serialize_trace(comp))
        csv_path = tmp_path / "report.csv"
        assert main([
            "bench", str(path), "--algos", "traditional,uniflow",
            "--max-stored", "5", "--csv", str(csv_path),
        ]) == 0
        with open(csv_path, encoding="utf-8") as fh:
            reports = read_reports_csv(fh)
        statuses = {r.algorithm: r.status for r in reports}
        assert statuses["traditional"] == "resource-error"
        assert statuses["uniflow"] == "ok"

    def test_usage_failure_recorded_not_fatal(self, t28_path, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        assert main([
            "bench", t28_path, "--algos", "uniflow,brute,traditional",
            "--csv", str(csv_path),
        ]) == 0
        with open(csv_path, encoding="utf-8") as fh:
            reports = {r.algorithm: r for r in read_reports_csv(fh)}
        assert reports["brute"].status == "error"
        assert reports["brute"].error == (
            "brute-force enumeration guarded to 25 events; got 28"
        )
        assert reports["uniflow"].status == reports["traditional"].status == "ok"
        assert reports["uniflow"].cuts == reports["traditional"].cuts

    def test_unknown_algorithm_is_usage_error(self, six_event_path, capsys):
        assert main(["bench", six_event_path, "--algos", "uniflow,dfs"]) == 2

    @pytest.mark.parametrize("argv,option", [
        (["--reps", "0"], "--reps"),
        (["--reps", "-2"], "--reps"),
        (["--algos", ","], "--algos"),
        (["--ranks"], "--ranks"),
        (["--algos", "traditional", "--max-stored", "-1"], "--max-stored"),
    ])
    def test_run_nothing_options_are_usage_errors(self, six_event_path, capsys, argv, option):
        """An option that leaves nothing to run, or a negative cap, exits 2
        before any run, naming the option."""
        assert main(["bench", six_event_path, *argv]) == 2
        captured = capsys.readouterr()
        assert option in captured.err
        assert "algorithm" not in captured.out  # no report table

    def test_window_too_high_for_a_later_trace_fails_before_any_run(
        self, tmp_path, capsys
    ):
        """``--ranks 6`` fits the 8-event trace but not the 4-event one: exit
        2 before any run, naming the trace, with no table and no CSV."""
        eight = tmp_path / "a.trace"
        eight.write_text(serialize_trace(
            generate_random(GenSpec(n=2, total_events=8, message_probability=0.3, seed=5))))
        four = tmp_path / "b.trace"
        four.write_text(serialize_trace(
            generate_random(GenSpec(n=2, total_events=4, message_probability=0.3, seed=5))))
        csv_path = tmp_path / "out.csv"
        assert main([
            "bench", str(eight), str(four), "--ranks", "6", "--csv", str(csv_path),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {four}: rank window 6..6 invalid for 4 events\n"
        assert captured.out == ""
        assert not csv_path.exists()

    def test_empty_trace_row(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("n=2\n")
        assert main(["bench", str(path)]) == 0
        with_reports = capsys.readouterr().out
        assert "uniflow" in with_reports


def test_unknown_algo_rejected_by_argparse(six_event_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["traverse", six_event_path, "--algo", "dfs"])
    assert exc_info.value.code == 2


def test_predicate_spec_rank_bounds():
    spec = PredicateSpec(terms=(), rank_min=2, rank_max=4)
    assert not spec.matches((0,), 1)
    assert spec.matches((0,), 3)
    assert not spec.matches((0,), 5)
