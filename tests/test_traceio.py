"""Trace format round trips, parse-time rejection, and generator determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlattice.baselines import brute_force_downsets, traditional_bfs
from cutlattice.model import UsageError
from cutlattice.traceio import (
    GenSpec,
    TraceError,
    generate_random,
    parse_document,
    serialize_trace,
    splitmix64,
)
from cutlattice.traversal import traverse_bfs
from cutlattice.uniflow import build_uniflow_partition

from reference import cut_from_display, parse_trace

SIX_EVENT_TRACE = """\
# trace-format: 1
n=2
1 1
2 1
3 1
4 2
5 2 2,4
6 2 5
"""


class TestSplitmix64:
    def test_reference_vectors(self):
        # published outputs of the splitmix64 reference implementation; any
        # alternate implementation of the format must reproduce these
        g = splitmix64(1234567)
        assert [next(g) for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_seed_masked_to_64_bits(self):
        a = splitmix64(1)
        b = splitmix64(1 + (1 << 64))
        assert [next(a) for _ in range(4)] == [next(b) for _ in range(4)]


class TestParseTrace:
    def test_six_event_trace(self):
        comp = parse_trace(SIX_EVENT_TRACE)
        assert comp.n == 2
        assert comp.event_count == 6
        assert comp.events[5].vc == cut_from_display([2, 2])

    def test_empty_trace_is_valid(self):
        comp = parse_trace("n=2\n")
        assert comp.n == 2
        assert comp.event_count == 0

    # The records' rules are make_computation's, which names the record by
    # its number among the event lines; parse_document checks syntax only.
    def test_forward_reference_rejected(self):
        with pytest.raises(UsageError, match="record 2: dependency 3 .*earlier") as exc_info:
            parse_trace("n=1\n1 1\n2 1 3\n3 1\n")
        assert not isinstance(exc_info.value, TraceError)

    def test_self_reference_rejected(self):
        with pytest.raises(UsageError, match="record 1: dependency 1 .*earlier") as exc_info:
            parse_trace("n=1\n1 1 1\n")
        assert not isinstance(exc_info.value, TraceError)

    def test_duplicate_id_rejected(self):
        with pytest.raises(UsageError, match="record 2: duplicate event id 1") as exc_info:
            parse_trace("n=1\n1 1\n1 1\n")
        assert not isinstance(exc_info.value, TraceError)

    def test_out_of_range_process_rejected(self):
        with pytest.raises(UsageError, match=r"record 1: process 3 outside 1\.\.2") as exc_info:
            parse_trace("n=2\n1 3\n")
        assert not isinstance(exc_info.value, TraceError)

    def test_record_rules_left_to_make_computation(self):
        doc = parse_document("n=1\n-1 1\n-1 2 5\n")
        assert doc.records == ((-1, 1, ()), (-1, 2, (5,)))

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace("1 1\n")

    def test_bad_integer_rejected(self):
        with pytest.raises(TraceError, match="line 2"):
            parse_trace("n=1\n1 one\n")

    def test_bytes_accepted(self):
        comp = parse_trace(SIX_EVENT_TRACE.encode("utf-8"))
        assert comp.event_count == 6

    def test_comments_and_blank_lines_ignored(self):
        comp = parse_trace("# hello\n\nn=1\n# mid\n1 1\n")
        assert comp.event_count == 1

    def test_metadata_captured(self):
        doc = parse_document("# name: d100\n# seed: 7\nn=1\n")
        assert doc.name == "d100"
        assert doc.seed == 7

    def test_unknown_format_version_rejected(self):
        with pytest.raises(TraceError, match="unsupported trace-format 2"):
            parse_document("# trace-format: 2\nn=2\n1 1\n2 2 1\n")

    @pytest.mark.parametrize("text,name,seed", [
        ("n=1\n1 1\n# seed: x\n", None, None),
        ("n=1\n1 1\n# name: late\n", None, None),
        ("n=1\n# trace-format: 2\n1 1\n", None, None),
        ("# name: early\n# seed: 3\nn=1\n# name: late\n1 1\n# seed: 4\n", "early", 3),
    ], ids=["seed-after-header", "name-after-header", "format-after-header", "preamble-wins"])
    def test_tags_after_header_are_comments(self, text, name, seed):
        """Metadata is read from the preamble only: after the ``n=`` header
        a ``# key: value`` line is an ordinary comment."""
        doc = parse_document(text)
        assert (doc.n, doc.records) == (1, ((1, 1, ()),))
        assert (doc.name, doc.seed) == (name, seed)


class TestSerializeTrace:
    def test_round_trip_six_event(self):
        comp = parse_trace(SIX_EVENT_TRACE)
        assert parse_trace(serialize_trace(comp)) == comp

    def test_byte_stable(self):
        comp = parse_trace(SIX_EVENT_TRACE)
        once = serialize_trace(comp)
        assert serialize_trace(parse_trace(once)) == once

    def test_round_trip_generated(self):
        comp = generate_random(GenSpec(n=10, total_events=100, message_probability=0.3, seed=1))
        assert parse_trace(serialize_trace(comp)) == comp

    def test_empty_computation(self):
        comp = parse_trace("n=3\n")
        text = serialize_trace(comp)
        assert text == "# trace-format: 1\nn=3\n"

    def test_metadata_round_trip(self):
        comp = parse_trace("n=1\n1 1\n")
        text = serialize_trace(comp, name="tiny", seed=9)
        doc = parse_document(text)
        assert (doc.name, doc.seed) == ("tiny", 9)
        assert serialize_trace(comp, name=doc.name, seed=doc.seed) == text


class TestGenerateRandom:
    def test_deterministic(self):
        spec = GenSpec(n=10, total_events=100, message_probability=0.3, seed=5)
        assert serialize_trace(generate_random(spec)) == serialize_trace(generate_random(spec))

    def test_distinct_seeds_differ(self):
        a = GenSpec(n=5, total_events=40, message_probability=0.3, seed=1)
        b = GenSpec(n=5, total_events=40, message_probability=0.3, seed=2)
        assert serialize_trace(generate_random(a)) != serialize_trace(generate_random(b))

    def test_zero_probability_gives_independent_chains(self):
        comp = generate_random(GenSpec(n=4, total_events=12, message_probability=0.0, seed=3))
        for ev in comp.events.values():
            assert all(comp.events[d].process == ev.process for d in ev.deps)
        expected = 1
        for m in comp.chain_lengths:
            expected *= m + 1
        total = sum(len(s) for s in brute_force_downsets(comp).values())
        assert total == expected == 4 ** 4

    def test_generated_traces_parse_clean(self):
        for seed in range(5):
            spec = GenSpec(n=3 + seed, total_events=20, message_probability=0.5, seed=seed)
            comp = generate_random(spec)
            assert parse_trace(serialize_trace(comp)) == comp

    def test_cut_count_equal_across_enumerators(self):
        comp = generate_random(GenSpec(n=3, total_events=12, message_probability=0.3, seed=7))
        brute = sum(len(s) for s in brute_force_downsets(comp).values())
        traditional = traditional_bfs(comp).cuts_visited
        part = build_uniflow_partition(comp)
        uniflow = traverse_bfs(part).cuts_visited
        assert brute == traditional == uniflow

    def test_single_process_never_draws_messages(self):
        comp = generate_random(GenSpec(n=1, total_events=8, message_probability=1.0, seed=4))
        assert comp.chain_lengths == (8,)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            GenSpec(n=0, total_events=1, message_probability=0.3, seed=1)
        with pytest.raises(UsageError):
            GenSpec(n=1, total_events=-1, message_probability=0.3, seed=1)
        with pytest.raises(UsageError):
            GenSpec(n=1, total_events=1, message_probability=1.5, seed=1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 6),
    events=st.integers(0, 30),
    p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_generator_round_trip_property(seed, n, events, p):
    comp = generate_random(GenSpec(n=n, total_events=events, message_probability=p, seed=seed))
    text = serialize_trace(comp)
    again = parse_trace(text)
    assert again == comp
    assert serialize_trace(again) == text


# Comment lines that the record phase must skip, tags and leading spaces included.
AFTER_HEADER_COMMENTS = st.sampled_from([
    "# seed: x", "# name: y", "# trace-format: 9", "#", "# plain", "  # seed: 5", "\t# name: z",
])


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 6),
    events=st.integers(0, 30),
    p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    tagged=st.booleans(),
)
def test_comments_after_header_property(data, seed, n, events, p, tagged):
    """Comment lines inserted anywhere after the header, ``# key: value``
    ones included, leave the parsed document unchanged."""
    comp = generate_random(GenSpec(n=n, total_events=events, message_probability=p, seed=seed))
    meta = {"name": "g", "seed": seed} if tagged else {}
    lines = serialize_trace(comp, **meta).splitlines()
    header = lines.index(f"n={n}")
    inserts = data.draw(st.lists(
        st.tuples(st.integers(header + 1, len(lines)), AFTER_HEADER_COMMENTS), min_size=1,
        max_size=8,
    ))
    noisy = list(lines)
    for at, comment in sorted(inserts, reverse=True):
        noisy.insert(at, comment)
    assert parse_document("\n".join(noisy) + "\n") == parse_document("\n".join(lines) + "\n")
