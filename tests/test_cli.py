"""Command-line behaviour: subcommands, exit codes, and report round trips."""

from __future__ import annotations

import csv
import io

import pytest

from cutlattice import cli
from cutlattice.baselines import brute_force_downsets
from cutlattice.cli import (
    REPORT_FIELDS,
    PredicateSpec,
    RunReport,
    main,
    parse_predicate,
    parse_rank_spec,
    write_reports_csv,
)
from cutlattice.model import UsageError, format_cut
from cutlattice.traceio import GenSpec, generate_random, serialize_trace
from cutlattice.uniflow import build_uniflow_partition

from reference import cut_from_display, parse_trace, partition_from_chains

SIX_EVENT = "n=2\n1 1\n2 1\n3 1\n4 2\n5 2 2\n6 2\n"
CROSSING = "n=2\n1 1\n2 2\n3 2 1\n4 1 2\n"
# Events 1 and 2 are concurrent; event 3 follows both.
FORK_JOIN = "n=2\n1 1\n2 2\n3 1 2\n"


def read_csv(path) -> list[dict[str, str]]:
    """The rows of a ``bench --csv`` file, after checking its header."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == REPORT_FIELDS
    return rows


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

    @pytest.mark.parametrize("bad", ["", "x", "5..2", "3..99", "-1", "1..x"])
    def test_bad_rank_specs(self, bad):
        with pytest.raises(UsageError):
            parse_rank_spec(bad, 10)

    def test_predicate_terms(self):
        spec = parse_predicate("p2>=2 & p1<=1 & rank>=3")
        assert spec.terms == ((2, ">=", 2), (1, "<=", 1), (None, ">=", 3))
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

    @pytest.mark.parametrize("op", ["=", ">="])
    def test_predicate_rank_above_event_count_is_usage_error(self, six_event_path, capsys, op):
        """A rank term follows the process rule: ``=`` or ``>=`` above the
        trace's 6 events matches no cut, so it exits 2 before any run."""
        assert main(["traverse", six_event_path, "--predicate", f"rank{op}7"]) == 2
        captured = capsys.readouterr()
        assert "predicate rank 7 exceeds the 6 events of the trace" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text,cuts", [("rank<=7", 12), ("rank>=6", 1), ("rank=6", 1)])
    def test_predicate_rank_within_event_count_is_accepted(
        self, six_event_path, capsys, text, cuts
    ):
        """``rank<=7`` holds on all 12 cuts; ``>=`` and ``=`` at the event
        count meet the full cut only."""
        assert main(["traverse", six_event_path, "--predicate", text]) == 0
        assert f"cuts={cuts}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("text,message", [
        ("rank>=7 & p9>=1", "predicate rank 7 exceeds the 6 events of the trace"),
        ("p9>=1 & rank>=7", "predicate process p9 outside 1..2"),
        ("p1=5 & rank=8 & rank=7", "predicate count 5 exceeds the 3 events of process 1"),
        ("rank>=7 & rank>=8", "predicate rank 7 exceeds the 6 events of the trace"),
    ])
    def test_first_bad_term_is_reported(self, six_event_path, capsys, text, message):
        """Terms are validated in order, a rank term like any other: the
        first bad one names the error."""
        assert main(["traverse", six_event_path, "--predicate", text]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

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

    @pytest.mark.parametrize("trace", [FORK_JOIN, "n=2\n"], ids=["fork-join", "empty"])
    def test_cap_below_the_start_level_is_resource_error(self, tmp_path, capsys, trace):
        """The start level's one cut is over a cap of 0: exit 3, before any
        cut is visited."""
        path = tmp_path / "t.trace"
        path.write_text(trace)
        assert main([
            "traverse", str(path), "--algo", "traditional", "--max-stored", "0", "--ranks", "0",
        ]) == 3
        captured = capsys.readouterr()
        assert "stored-cut cap 0 exceeded at rank 0" in captured.err
        assert "partial: cuts=0 peak_stored_cuts=1" in captured.out.splitlines()

    def test_stopped_run_counts_matched_cuts(self, tmp_path, capsys):
        """With a predicate, a stopped run's partial count is of the cuts
        that matched, as a finished run's count is: 5 of the 49 cuts of
        ranks 0..4 have ``p1 >= 3``."""
        path = tmp_path / "s3.trace"
        path.write_text(serialize_trace(
            generate_random(GenSpec(n=4, total_events=18, message_probability=0.4, seed=3))))
        argv = ["traverse", str(path), "--algo", "traditional", "--max-stored", "40"]
        assert main(argv) == 3
        assert "partial: cuts=49 peak_stored_cuts=41" in capsys.readouterr().out.splitlines()
        assert main([*argv, "--predicate", "p1>=3"]) == 3
        assert "partial: cuts=5 peak_stored_cuts=41" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("trace,message", [
        ("n=1\n1 1\n2 1 3\n3 1\n",
         "usage error: record 2: dependency 3 does not refer to an earlier event"),
        ("n=1\n1 1\n# a comment\n\n1 1\n", "usage error: record 2: duplicate event id 1"),
        ("n=2\n1 1\n2 3\n", "usage error: record 2: process 3 outside 1..2"),
        ("n=1\n-1 1\n", "usage error: record 1: event id -1 is negative"),
        ("# a comment\nn=1\n1 1\n2 one\n", "trace error: line 4: non-integer field in '2 one'"),
        ("n=x\n1 1\n", "trace error: line 1: bad process count 'x'"),
        ("n=2\n1 1\n2 2 1 3\n", "trace error: line 3: expected 'id process [deps]', got '2 2 1 3'"),
        ("# name: headless\n", "trace error: missing 'n=<int>' header"),
        ("# trace-format: x\nn=1\n1 1\n", "trace error: bad trace-format tag 'x'"),
        ("# seed: x\nn=1\n1 1\n", "trace error: bad seed tag 'x'"),
        ("n=-1\n", "usage error: process count must be non-negative"),
    ], ids=[
        "forward-dependency", "duplicate-id", "process-out-of-range", "negative-id", "syntax",
        "bad-process-count", "four-fields", "no-header", "bad-format-tag", "bad-seed-tag",
        "negative-process-count",
    ])
    def test_bad_record_is_usage_error(self, tmp_path, capsys, trace, message):
        """A record that breaks a rule is named by its number among the
        event lines, comments and blank lines not counted; a syntax error
        is named by its line in the file."""
        path = tmp_path / "bad.trace"
        path.write_text(trace)
        assert main(["traverse", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


ALGOS = ("uniflow", "traditional", "brute")


def traverse_lines(capsys, path, algo, *argv) -> list[str]:
    """``traverse``'s output lines, less the timing line, with exit 0."""
    assert main(["traverse", path, "--algo", algo, *argv]) == 0
    return [l for l in capsys.readouterr().out.splitlines() if "_s=" not in l]


@pytest.mark.parametrize("trace", [SIX_EVENT, CROSSING], ids=["six-event", "crossing"])
class TestVisitorPathAcrossAlgorithms:
    """Each enumerator hands every cut to the CLI's visitor as
    ``visitor(cut, rank, remap)``; all three must give the same answers."""

    @pytest.fixture
    def path(self, tmp_path, trace):
        path = tmp_path / "t.trace"
        path.write_text(trace)
        return str(path)

    def test_list_gives_the_same_cut_set_per_rank(self, capsys, path, trace):
        expected = {
            f"rank={r}": {f"cut={format_cut(cut)}" for cut in cuts}
            for r, cuts in brute_force_downsets(parse_trace(trace)).items()
        }
        for algo in ALGOS:
            by_rank: dict[str, set[str]] = {}
            for line in traverse_lines(capsys, path, algo, "--mode", "list"):
                if line.startswith("rank="):
                    rank, cut = line.split()
                    by_rank.setdefault(rank, set()).add(cut)
            assert by_rank == expected, algo

    def test_first_match_gives_the_same_rank(self, capsys, path, trace):
        least = min(
            r for r, cuts in brute_force_downsets(parse_trace(trace)).items()
            for cut in cuts if cut[1] >= 2 and cut[0] >= 1
        )
        for algo in ALGOS:
            lines = traverse_lines(
                capsys, path, algo, "--mode", "first-match", "--predicate", "p2>=2 & p1>=1"
            )
            assert [l.split()[1] for l in lines if l.startswith("match ")] == [f"rank={least}"]


@pytest.mark.parametrize("trace", [SIX_EVENT, CROSSING], ids=["six-event", "crossing"])
@pytest.mark.parametrize("text,holds", [
    ("rank>=2 & rank<=4 & rank>=3", lambda cut, r: 3 <= r <= 4),
    ("rank=4 & p1>=1", lambda cut, r: r == 4 and cut[0] >= 1),
    ("rank<=3 & p1>=1", lambda cut, r: r <= 3 and cut[0] >= 1),
], ids=["three-rank-terms", "rank-and-process", "rank-at-most"])
@pytest.mark.parametrize("algo", ALGOS)
def test_rank_terms_are_terms(tmp_path, capsys, trace, text, holds, algo):
    """Rank terms combine with each other and with process terms as plain
    conjuncts: with each algorithm, through the visitor, the count is the
    brute-force cuts that satisfy all of them."""
    path = tmp_path / "t.trace"
    path.write_text(trace)
    expected = sum(
        holds(cut, r) for r, cuts in brute_force_downsets(parse_trace(trace)).items() for cut in cuts
    )
    assert expected > 0
    assert f"cuts={expected}" in traverse_lines(capsys, str(path), algo, "--predicate", text)


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
            visitor((-1,) * comp.n, 2, lambda: (-1,) * comp.n)
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

    def test_max_rank_above_event_count_is_usage_error(self, six_event_path, capsys):
        assert main(["verify", six_event_path, "--max-rank", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: max rank 7 outside 0..6\n"
        assert captured.out == ""

    def test_missing_cut_named(self, six_event_path, capsys, monkeypatch):
        """An enumerator that drops a cut fails verification, and the diff
        names the cut it lacks."""
        uniflow = cli.ENUMERATORS["uniflow"]

        def dropping(comp, window, visitor, max_stored):
            def skip_one(cut, r, remap):
                if r == 3 and remap() == cut_from_display([0, 3]):
                    return True
                return visitor(cut, r, remap)
            return uniflow(comp, window, skip_one, max_stored)

        monkeypatch.setitem(cli.ENUMERATORS, "uniflow", dropping)
        assert main(["verify", six_event_path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "MISMATCH at rank 3: brute=2 traditional=2 uniflow=1" in out
        assert "  uniflow missing: ['[0,3]']" in out
        assert "rank 2: cuts=2 ok" in out


class TestBench:
    def test_table_and_csv_round_trip(self, six_event_path, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        assert main([
            "bench", six_event_path, "--algos", "uniflow,traditional,brute",
            "--ranks", "all", "3", "--reps", "2", "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "uniflow" in out
        rows = read_csv(csv_path)
        assert len(rows) == 3 * 2 * 2
        for row in rows:
            for name in ("partition_s", "traverse_s"):
                assert repr(float(row[name])) == row[name]
        full = [r for r in rows if r["ranks"] == "all" and r["algorithm"] == "uniflow"]
        assert [r["cuts"] for r in full] == ["12", "12"]
        assert {r["n_u"] for r in rows if r["algorithm"] != "uniflow"} == {""}

    def test_csv_cells(self):
        """``None`` is an empty cell and a float is written as its ``repr``."""
        report = RunReport(
            algorithm="traditional", trace="t", n=2, events=6, n_u=None, ranks="1..3",
            cuts=7, first_match_rank=None, first_match_cut=None, partition_s=0.0,
            traverse_s=1 / 3, peak_stored_cuts=4, aux_int_peak=None, status="ok", error=None,
        )
        with io.StringIO() as buf:
            write_reports_csv([report], buf)
            buf.seek(0)
            reader = csv.DictReader(buf)
            rows = list(reader)
        assert reader.fieldnames == REPORT_FIELDS
        assert rows == [{
            "algorithm": "traditional", "trace": "t", "n": "2", "events": "6", "n_u": "",
            "ranks": "1..3", "cuts": "7", "first_match_rank": "", "first_match_cut": "",
            "partition_s": "0.0", "traverse_s": repr(1 / 3), "peak_stored_cuts": "4",
            "aux_int_peak": "", "status": "ok", "error": "",
        }]

    def test_resource_failure_recorded_not_fatal(self, tmp_path, capsys):
        comp = generate_random(GenSpec(n=6, total_events=24, message_probability=0.0, seed=3))
        path = tmp_path / "wide.trace"
        path.write_text(serialize_trace(comp))
        csv_path = tmp_path / "report.csv"
        assert main([
            "bench", str(path), "--algos", "traditional,uniflow",
            "--max-stored", "5", "--csv", str(csv_path),
        ]) == 0
        statuses = {r["algorithm"]: r["status"] for r in read_csv(csv_path)}
        assert statuses["traditional"] == "resource-error"
        assert statuses["uniflow"] == "ok"

    def test_usage_failure_recorded_not_fatal(self, t28_path, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        assert main([
            "bench", t28_path, "--algos", "uniflow,brute,traditional",
            "--csv", str(csv_path),
        ]) == 0
        reports = {r["algorithm"]: r for r in read_csv(csv_path)}
        assert reports["brute"]["status"] == "error"
        assert reports["brute"]["error"] == (
            "brute-force enumeration guarded to 25 events; got 28"
        )
        assert reports["uniflow"]["status"] == reports["traditional"]["status"] == "ok"
        assert reports["uniflow"]["cuts"] == reports["traditional"]["cuts"]

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

    @pytest.mark.parametrize("text,error", [
        ("n=1\n1 1\n1 1\n", "usage error: {path}: record 2: duplicate event id 1"),
        ("n=1\n1 1\nx 1\n", "trace error: {path}: line 3: non-integer field in 'x 1'"),
    ], ids=["record-rule", "syntax"])
    def test_a_later_trace_that_fails_to_load_is_named(
        self, six_event_path, tmp_path, capsys, text, error
    ):
        """A trace that breaks a record rule or does not parse exits 2
        before any run, and the error names its file."""
        bad = tmp_path / "bad.trace"
        bad.write_text(text)
        assert main(["bench", six_event_path, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == error.format(path=bad) + "\n"
        assert captured.out == ""

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
    spec = PredicateSpec(terms=((None, ">=", 2), (None, "<=", 4)))
    assert not spec.matches((0,), 1)
    assert spec.matches((0,), 3)
    assert not spec.matches((0,), 5)


def online_chains_less_top_last(comp):
    """The online partitioner's chains with the top chain's last event dropped."""
    chains = build_uniflow_partition(comp).chains
    return chains[:-1] + (chains[-1][:-1],)


class TestNotUniflow:
    """A partitioner fault is a usage error, exit 2, in every subcommand that
    partitions, whether a chain holds two concurrent events, an event
    depends on a higher chain or the chains lose an event."""

    @pytest.mark.parametrize("trace,chains,named", [
        (FORK_JOIN, lambda comp: [comp.topo_order],
         "event 2 on chain 1 does not happen after event 1 below it"),
        (CROSSING, lambda comp: comp.chains,
         "event 4 on chain 1 depends on event 2 on chain 2, a higher chain"),
        (CROSSING, lambda comp: online_chains_less_top_last(comp),
         "the chains do not hold each event exactly once"),
    ], ids=["concurrent-on-one-chain", "higher-chain-dependency", "dropped-event"])
    @pytest.mark.parametrize("command", ["traverse", "partition", "verify"])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, trace, chains, named, command):
        path = tmp_path / "t.trace"
        path.write_text(trace)
        monkeypatch.setattr(
            cli, "build_uniflow_partition", lambda comp: partition_from_chains(comp, chains(comp))
        )
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "not uniflow" in captured.err
        assert "uniflow=ok" not in captured.out
