"""Rank traversal: golden algorithm steps, successor equivalence against an
exhaustive oracle, and the space-accounting claims."""

from __future__ import annotations

import gc
import itertools
import sys
import tracemalloc
from collections import Counter

import pytest

from cutlattice.baselines import traditional_bfs
from cutlattice.cli import parse_predicate
from cutlattice.model import UsageError, is_consistent, make_computation
from cutlattice.traceio import GenSpec, generate_random
from cutlattice.traversal import (
    get_min_cut,
    get_successor,
    remap,
    traverse_bfs,
    traverse_rank_range,
)
from cutlattice.uniflow import build_uniflow_partition

from conftest import (
    closure_predecessors,
    downset_event_sets,
    event_set_to_cut,
    identity_partition,
    oracle_rank_sets,
    random_computation,
)
from reference import (
    compute_projections,
    cut_from_display,
    partition_from_chains,
    plain_successor_walk,
    trivial_partition,
)


def dv(*values):
    return cut_from_display(values)


def lexkey(cut):
    return cut[::-1]


def collect(part, r1=None, r2=None):
    """Visit and return [(rank, uniflow cut, original cut), ...] in order."""
    seen = []
    visitor = lambda cut, r, remap_fn: seen.append((r, cut, remap_fn())) or True
    if r1 is None:
        stats = traverse_bfs(part, visitor)
    else:
        stats = traverse_rank_range(part, r1, r2, visitor)
    return seen, stats


def plain_walk(part, r1=0, r2=None):
    """[(rank, cut), ...] over ranks ``r1..r2`` (default: every rank) by a
    plain ``get_min_cut``/``get_successor`` loop."""
    return plain_successor_walk(part, r1, part.event_count if r2 is None else r2).cuts


def assert_walk_matches_plain(part, r1, r2, visits=None):
    """The walk over ranks ``r1..r2`` takes the plain loop's steps and
    reports its counters: the cut sequence, ``per_rank``,
    ``min_cut_calls``, ``successor_calls`` and ``component_ops``.

    Checked with a visitor that never calls ``remap()`` (so no remap ops are
    charged) and stops the walk on visit ``visits``, if given, and without a
    visitor when it does not stop.  Returns the plain loop's record.
    """
    plain = plain_successor_walk(part, r1, r2, visits)
    per_rank = dict(Counter(r for r, _ in plain.cuts))
    steps = dict(per_rank)
    if visits is not None:
        last = plain.cuts[-1][0]
        steps[last] -= 1
        if not steps[last]:
            del steps[last]
    seen = []

    def visitor(cut, r, remap_fn):
        seen.append((r, cut))
        return len(seen) != visits

    runs = [traverse_rank_range(part, r1, r2, visitor)]
    assert seen == plain.cuts
    assert runs[0].early_stopped == (visits is not None)
    if visits is None:
        runs.append(traverse_rank_range(part, r1, r2))
    for stats in runs:
        assert stats.cuts_visited == len(plain.cuts)
        assert stats.per_rank == stats.min_cut_calls == per_rank
        assert stats.successor_calls == steps
        assert stats.component_ops == plain.ops
    return plain


def remap_every(part, r1, r2, every):
    """Walk ranks ``r1..r2``, calling ``remap()`` on every ``every``-th
    visit, and check each result against the checked one-shot remap of
    the same cut.  Returns the cuts ``remap()`` was called on, in order."""
    called = []
    visits = itertools.count(1)

    def visitor(cut, r, remap_fn):
        if next(visits) % every == 0:
            called.append((cut, remap_fn()))

    traverse_rank_range(part, r1, r2, visitor)
    assert all(original == remap(cut, part) for cut, original in called)
    return [cut for cut, _ in called]


def traced_walk_peak(part, r1, r2, visitor=None):
    """(tracemalloc peak in bytes, stats) of one walk over ranks r1..r2."""
    gc.collect()
    tracemalloc.start()
    try:
        stats = traverse_rank_range(part, r1, r2, visitor)
        return tracemalloc.get_traced_memory()[1], stats
    finally:
        tracemalloc.stop()


def proj_ints(part):
    """Integers in the walk's triangular projection rows."""
    return part.n_u * (part.n_u - 1) // 2


class TestGetMinCut:
    def test_from_empty_rank_four(self, three_chain):
        part = identity_partition(three_chain)
        assert get_min_cut(dv(0, 0, 0), 4, part) == dv(0, 1, 3)

    def test_spills_into_second_chain(self, three_chain):
        part = identity_partition(three_chain)
        assert get_min_cut(dv(0, 0, 2), 5, part) == dv(0, 2, 3)

    def test_rank_already_reached(self, three_chain):
        part = identity_partition(three_chain)
        g = dv(1, 2, 1)
        assert get_min_cut(g, 4, part) == g

    def test_rank_bounds(self, three_chain):
        part = identity_partition(three_chain)
        with pytest.raises(UsageError):
            get_min_cut(dv(0, 1, 3), 3, part)
        with pytest.raises(UsageError):
            get_min_cut(dv(0, 0, 0), 10, part)

    def test_matches_oracle_minimum(self, three_chain):
        part = identity_partition(three_chain)
        by_rank = oracle_rank_sets(three_chain, part)
        empty = (0,) * part.n_u
        for r, cuts in by_rank.items():
            assert get_min_cut(empty, r, part) == min(cuts, key=lexkey)


class TestGetSuccessor:
    def test_wraps_to_next_chain(self, three_chain):
        part = identity_partition(three_chain)
        assert get_successor(dv(0, 0, 3), 3, part) == dv(0, 1, 2)

    def test_intermediate_closure_then_refill(self, three_chain):
        part = identity_partition(three_chain)
        assert get_successor(dv(1, 2, 3), 6, part) == dv(1, 3, 2)

    def test_full_cut_has_no_successor(self, three_chain):
        part = identity_partition(three_chain)
        assert get_successor(part.chain_lengths, 9, part) is None

    def test_matches_oracle_chain(self, three_chain):
        part = identity_partition(three_chain)
        by_rank = oracle_rank_sets(three_chain, part)
        for r, cuts in by_rank.items():
            ordered = sorted(cuts, key=lexkey)
            for g, expected in itertools.zip_longest(ordered, ordered[1:]):
                assert get_successor(g, r, part) == expected


class TestComputeProjections:
    def test_worked_projection_rows(self, three_chain_mid):
        part = identity_partition(three_chain_mid)
        proj = compute_projections(dv(1, 3, 2), part)
        assert proj[2] == dv(1, 0, 0)
        assert proj[1] == dv(1, 3, 1)
        assert proj[0] == dv(1, 3, 2)

    def test_zero_cut(self, three_chain_mid):
        part = identity_partition(three_chain_mid)
        assert compute_projections((0, 0, 0), part) == [(0, 0, 0)] * 3

    def test_bottom_row_reproduces_cut_and_rows_nest(self):
        comp = random_computation(seed=71, n=3, events=14, p=0.4)
        part = build_uniflow_partition(comp)
        for members in downset_event_sets(comp):
            g = event_set_to_cut(members, part)
            proj = compute_projections(g, part)
            assert proj[0] == g
            for lower, upper in zip(proj, proj[1:]):
                assert all(a >= b for a, b in zip(lower, upper))


class TestTraverseBfs:
    def test_six_event_lattice(self, six_event):
        part = build_uniflow_partition(six_event)
        seen, stats = collect(part)
        assert stats.cuts_visited == 12
        assert [stats.per_rank[r] for r in range(7)] == [1, 2, 2, 2, 2, 2, 1]
        by_rank: dict[int, set] = {}
        for r, _, original in seen:
            by_rank.setdefault(r, set()).add(original)
        assert by_rank == oracle_rank_sets(six_event)

    def test_empty_computation(self):
        part = build_uniflow_partition(make_computation(3, []))
        seen, stats = collect(part)
        assert stats.cuts_visited == 1
        assert seen == [(0, (), (0, 0, 0))]

    def test_rank_major_lexical_minor_order(self, crossing):
        part = build_uniflow_partition(crossing)
        seen, _ = collect(part)
        expected = [
            dv(0, 0, 0), dv(0, 0, 1), dv(0, 1, 0), dv(0, 1, 1),
            dv(0, 2, 1), dv(1, 1, 1), dv(1, 2, 1),
        ]
        assert [cut for _, cut, _ in seen] == expected

    def test_matches_oracle_on_random_trace(self):
        comp = random_computation(seed=91, n=3, events=12, p=0.3)
        part = build_uniflow_partition(comp)
        seen, _ = collect(part)
        by_rank: dict[int, set] = {}
        for r, _, original in seen:
            by_rank.setdefault(r, set()).add(original)
        assert by_rank == oracle_rank_sets(comp)

    def test_visit_once(self):
        comp = random_computation(seed=92, n=4, events=16, p=0.3)
        part = build_uniflow_partition(comp)
        seen, _ = collect(part)
        cuts = [cut for _, cut, _ in seen]
        assert len(cuts) == len(set(cuts))

    def test_visitor_early_stop(self, six_event):
        part = build_uniflow_partition(six_event)
        seen = []

        def visitor(cut, r, remap_fn):
            seen.append(cut)
            return len(seen) < 5

        stats = traverse_bfs(part, visitor)
        assert stats.early_stopped
        assert stats.cuts_visited == len(seen) == 5
        # The counters the benchmark reads.  The walk stops at rank 2's
        # second visit, so rank 2 takes one successor step fewer than it
        # has visits.
        assert stats.per_rank == stats.min_cut_calls == {0: 1, 1: 2, 2: 2}
        assert stats.successor_calls == {0: 1, 1: 2, 2: 1}
        assert stats.component_ops == 7

    @pytest.mark.parametrize("seed,n,events,p", [
        (81, 2, 14, 0.3),
        (82, 3, 16, 0.3),
        (83, 4, 18, 0.0),
        (84, 4, 16, 0.7),
        (91, 3, 12, 0.3),
        (92, 4, 16, 0.3),
        (93, 4, 18, 0.3),
        (94, 4, 20, 0.3),
        (97, 4, 20, 0.3),
        (98, 6, 20, 0.7),
    ])
    def test_walk_matches_plain_successor_loop(self, seed, n, events, p):
        """The walk's per-rank cut sequence, and each visit's remap, equal a
        plain min-cut/successor loop and the checked one-shot remap."""
        comp = random_computation(seed, n, events, p)
        part = build_uniflow_partition(comp)
        seen, stats = collect(part)
        assert [(r, cut) for r, cut, _ in seen] == plain_walk(part)
        assert all(original == remap(cut, part) for _, cut, original in seen)
        assert stats.cuts_visited == len(seen)

    @pytest.mark.parametrize("spec,r1,r2", [
        (GenSpec(10, 1000, 0.3, 1), 997, 1000),  # the benchmark's top-e1000 window
        (GenSpec(10, 100, 0.3, 6), 95, 100),  # the top ranks of the desk trace
    ], ids=["top-e1000", "desk-top"])
    def test_walk_matches_plain_successor_loop_at_high_ranks(self, spec, r1, r2):
        """Near the top of the lattice most chains are full: a top-up starts
        above a run of full chains, and the next step's scan starts above
        chain 2.  The walk must still take exactly the plain loop's steps."""
        part = build_uniflow_partition(generate_random(spec))
        seen, stats = collect(part, r1, r2)
        assert [(r, cut) for r, cut, _ in seen] == plain_walk(part, r1, r2)
        assert all(original == remap(cut, part) for _, cut, original in seen)
        assert stats.cuts_visited == len(seen)

    def test_walk_matches_plain_successor_loop_on_three_chain(self, three_chain):
        part = identity_partition(three_chain)
        seen, _ = collect(part)
        assert [(r, cut) for r, cut, _ in seen] == plain_walk(part)

    @staticmethod
    def check_projection_rows(part, r1, r2):
        """At every visit of ranks ``r1..r2``, the row the walk reads at
        index ``i``, ``proj[max(i, top)]``, is a packed clock with clear
        guard bits and at most ``n_u - 1`` fields, and its first ``i``
        components are each at most those of the row built from scratch.
        Returns the number of visits at which some row below ``top`` is
        left stale, holding other than ``proj[top]``.

        The refresh points only the rows from ``j - 1`` up at the row
        above, so a row below ``top`` may be stale: the walk reads
        ``proj[top]`` there, once a later refresh has pointed it there.  A
        row can alias a higher one, so it can hold more than ``i`` fields;
        the step reads only its first ``i``.  The walk's refresh never
        folds, so a row can hold less than the full projection: it misses
        the frontiers that only a top-up put in place, which no step reads.
        It must never hold more, since the step takes every component it
        reads as covered by a retained frontier event.  The visitor reads
        ``proj`` and ``top`` from the walk's frame, which calls it directly,
        and decodes the rows with the partition's packing.
        """
        packing = part.packing
        fields = (1 << packing.width * (part.n_u - 1)) - 1  # every bit of n_u - 1 fields
        values = fields ^ packing.guards[-1]  # those a component may set
        checked = []
        stale_visits = 0

        def visitor(cut, r, remap_fn):
            nonlocal stale_visits
            frame = sys._getframe(1).f_locals
            proj, top = frame["proj"], frame["top"]
            expected = compute_projections(cut, part)
            for i, full in enumerate(expected):
                row = proj[max(i, top)]
                assert row & ~values == 0, (cut, i, row)
                lower = packing.unpack(row & (1 << packing.width * i) - 1, i)
                assert all(a <= b for a, b in zip(lower, full)), (cut, i, tuple(lower), full)
            stale_visits += any(proj[i] != proj[top] for i in range(1, top))
            checked.append(cut)

        stats = traverse_rank_range(part, r1, r2, visitor)
        assert len(checked) == stats.cuts_visited
        return stale_visits

    @pytest.mark.parametrize("seed,n,events,p", [
        (97, 4, 20, 0.3),
        (98, 6, 20, 0.7),
    ])
    def test_projection_rows_match_compute_projections(self, seed, n, events, p):
        part = build_uniflow_partition(random_computation(seed, n, events, p))
        assert part.n_u >= 3
        self.check_projection_rows(part, 0, part.event_count)

    def test_projection_rows_match_in_a_wide_rank_window(self):
        """Near the top of the desk trace a top-up leaves most chains full,
        so the next scan starts high and the refresh leaves rows below it
        stale; the rows the walk reads must still hold."""
        part = build_uniflow_partition(generate_random(GenSpec(10, 100, 0.3, 6)))
        assert self.check_projection_rows(part, 95, 100) > 0

    def test_space_accounting(self):
        comp = random_computation(seed=94, n=4, events=20, p=0.3)
        part = build_uniflow_partition(comp)
        n_u = part.n_u
        stats = traverse_bfs(part, lambda c, r, m: m() is not None)
        assert stats.peak_live_cuts <= 3
        assert stats.aux_int_peak <= n_u * n_u + 4 * n_u
        # Structural sizes: the triangular rows, plus the event counts and
        # the cut they describe once remap() has been called.
        assert stats.aux_int_peak == proj_ints(part) + comp.n + n_u
        assert traverse_bfs(part).aux_int_peak == proj_ints(part)
        assert traverse_bfs(part, lambda c, r, m: True).aux_int_peak == proj_ints(part)

    def test_late_remap_returns_own_cut(self):
        """A remap kept past its visit, called later in the walk or after it,
        still returns the image of its own cut: the original cut of the same
        downset."""
        comp = random_computation(seed=99, n=4, events=16, p=0.4)
        part = build_uniflow_partition(comp)
        original_of = {
            event_set_to_cut(members, part): event_set_to_cut(members, comp)
            for members in downset_event_sets(comp)
        }
        kept = []
        during = []

        def visitor(cut, r, remap_fn):
            if kept:
                during.append(kept[-1][1]())  # the previous visit's remap
            kept.append((cut, remap_fn))

        traverse_bfs(part, visitor)
        assert len(kept) > 100
        expected = [original_of[cut] for cut, _ in kept]
        assert during == expected[:-1]
        assert [remap_fn() for _, remap_fn in kept] == expected
        assert [remap_fn() for _, remap_fn in reversed(kept)] == expected[::-1]

    def test_alloc_peak_flat_in_cut_count(self):
        """The space claim measured with tracemalloc: on the d30 trace, a
        remapping walk of rank 14 (37,185 cuts) peaks no higher than one of
        rank 3 (207 cuts), up to a fixed slack.

        Measured on Python 3.11 after a warm-up walk, in a plain script:
        about 3,050 B at rank 3 and 3,255 B at rank 14 (n_u = 10).  A
        count-only walk shows the same 200 B difference, so it is projection
        rows: at rank 14 more of them hold an int of their own instead of
        aliasing the row above.  Calling ``remap()`` adds about 640 B at
        both ranks; its event counts and the cut they describe are 20 ints.
        With projection rows held as lists of components the same script
        read 3,780 B and 4,170 B, a 400 B difference, and an earlier script
        4,496 B and 4,896 B.  The original-clock table those replaced
        measured 4,848 B and 6,224 B; the extra 976 B at rank 14 were table
        rows holding a 10-int tuple of their own.  The slack
        allows ten times today's difference; retaining one small tuple per
        cut would exceed it by three orders of magnitude.
        """
        slack = 2048
        comp = generate_random(GenSpec(10, 30, 0.3, 1))
        part = build_uniflow_partition(comp)
        visitor = lambda c, r, m: m() and None

        def traced_peak(r, cuts):
            peak, stats = traced_walk_peak(part, r, r, visitor)
            assert stats.cuts_visited == cuts
            assert stats.aux_int_peak == proj_ints(part) + comp.n + part.n_u
            return peak

        traced_peak(3, 207)  # warm-up: first-call allocations of the interpreter
        small = traced_peak(3, 207)
        large = traced_peak(14, 37_185)
        assert large <= small + slack, (small, large)


BENCHMARK_WINDOWS = {
    # name: (spec, r1, r2, cuts, n_u, component ops)
    "slice-d100": (GenSpec(10, 100, 0.3, 1), 11, 11, 55_365, 16, 169_467),
    "top-e1000": (GenSpec(10, 1000, 0.3, 1), 997, 1000, 200, 144, 61_296),
}


# predicate-d30's window, which remaps every cut and tests the predicate on
# it: (spec, r1, r2, predicate, cuts, n_u, matches, walk ops, remap events).
PREDICATE_WINDOW = (
    GenSpec(10, 30, 0.3, 1), 0, 11, "p1>=2 & p10<=1", 90_850, 10, 16_497, 311_706, 284_275,
)


def test_benchmark_predicate_window_work_counts():
    """Exact work of the benchmark's remapping window, with the workload's
    own visitor: its cuts and matches, the walk's component ops plus one op
    per event that ``remap()`` moves, and the integer bound of the rows,
    the event counts and the cut they describe.  No timing."""
    spec, r1, r2, text, cuts, n_u, hits, walk_ops, moved = PREDICATE_WINDOW
    comp = generate_random(spec)
    part = build_uniflow_partition(comp)
    pred = parse_predicate(text)
    matches = 0

    def visitor(cut, r, remap_fn):
        nonlocal matches
        if pred.matches(remap_fn(), r):
            matches += 1

    stats = traverse_rank_range(part, r1, r2, visitor)
    assert (stats.cuts_visited, part.n_u, matches) == (cuts, n_u, hits)
    assert traverse_rank_range(part, r1, r2).component_ops == walk_ops
    assert stats.component_ops == walk_ops + moved == 595_981
    assert stats.aux_int_peak == proj_ints(part) + comp.n + n_u == 65


@pytest.mark.parametrize("window", sorted(BENCHMARK_WINDOWS))
def test_benchmark_window_work_counts(window):
    """Exact work of one of the benchmark's count-only windows: its chain
    count, the walk's own component-op count and the projection rows'
    integer bound, with no timing.

    Before the partitioner started events in net-outflow order and the row
    refresh stopped folding, ``slice-d100`` had n_u = 25 and took 290,463
    component ops, and ``top-e1000`` had n_u = 145 and took 144,291.  A
    change that loses either gain turns this test red; one that only copies
    less must leave these counts as they are.
    """
    spec, r1, r2, cuts, n_u, ops = BENCHMARK_WINDOWS[window]
    part = build_uniflow_partition(generate_random(spec))
    stats = traverse_rank_range(part, r1, r2)
    assert stats.cuts_visited == cuts
    assert part.n_u == n_u
    assert stats.component_ops == ops
    assert stats.aux_int_peak == proj_ints(part)


def test_top_e1000_alloc_peak():
    """The ``top-e1000`` window's walk, measured with tracemalloc after a
    warm-up walk: the refresh allocates no per-row copies.

    Measured on Python 3.11 in a plain script, three runs each: 99.9 KB
    when every stale row was its own slice of the row above, 21.2 KB with
    stale rows aliasing the row above (n_u = 144), and, in a later script,
    20.0 KB with those rows as lists of components and 9.2 KB with each
    row packed into one int.  Refreshing only the rows the next scan reads
    and finding the top-up's start by a packed compare read 9.6 KB: the
    compare's intermediates are ints about as wide as a row.  The bound
    lies between the first two.
    """
    bound = 45_000
    spec, r1, r2, cuts, _, _ = BENCHMARK_WINDOWS["top-e1000"]
    part = build_uniflow_partition(generate_random(spec))

    traced_walk_peak(part, r1, r2)  # warm-up: first-call allocations of the interpreter
    peak, stats = traced_walk_peak(part, r1, r2)
    assert stats.cuts_visited == cuts
    assert peak <= bound, peak


@pytest.mark.slow
def test_desk_alloc_peak_flat_at_scale():
    """The space claim measured with tracemalloc where the level BFS fails:
    on the desk trace of criterion 7, whose level BFS exceeds a
    100,000-stored-cut cap at rank 13, a count-only walk of ranks 20..21
    (467,378 cuts) peaks no higher than one of rank 3 (132 cuts), up to a
    fixed slack, and under an absolute bound.

    Measured on Python 3.11 after a warm-up walk, in a plain script: about
    2,730 B at rank 3 and 3,240 B at ranks 20..21 (n_u = 21).  Under
    tracemalloc the window takes about a minute, against under a second
    untraced.  The slack allows four times the difference.  Retaining 40 of
    the window's cuts, tuples of 21 ints at 216 B each, would exceed the
    bound.
    """
    slack, bound = 2048, 8192
    part = build_uniflow_partition(generate_random(GenSpec(10, 100, 0.3, 6)))
    traced_walk_peak(part, 3, 3)  # warm-up: first-call allocations of the interpreter
    small, stats = traced_walk_peak(part, 3, 3)
    assert stats.cuts_visited == 132
    large, stats = traced_walk_peak(part, 20, 21)
    assert stats.cuts_visited == 467_378
    assert stats.aux_int_peak == proj_ints(part) == 210
    assert large <= small + slack, (small, large)
    assert large <= bound, large


# Of each window's successor steps, how many bump chain 2, the ones the walk
# takes inline: (chain-2 steps, all steps).
CHAIN_2_STEPS = {
    "predicate-d30": (47_869, 90_838),
    "slice-d100": (33_785, 55_364),
    "top-e1000": (0, 196),
}

# How many bump chain 3, the ones the walk takes inline after the chain-2
# step, and how many start where the last top-up (or the seed) reached
# chain 3 and left chains 1 and 2 full, so the chain-3 step goes first:
# (chain-3 steps, entries at chain 3).
CHAIN_3_STEPS = {
    "predicate-d30": (24_392, 447),
    "slice-d100": (14_531, 0),
    "top-e1000": (0, 0),
}


@pytest.mark.parametrize("window", sorted(CHAIN_2_STEPS))
def test_benchmark_window_chain_2_traffic(window):
    """The traffic of the walk's inline chain-2 and chain-3 steps on the
    benchmark's windows, counted on the plain loop, and the walk's cuts and
    counters checked against that loop; ``predicate-d30`` is walked with no
    remap.

    The counts depend on the partition and the chain order, so a change to
    either shows here how it moves these steps' share of the walk.
    """
    if window == "predicate-d30":
        spec, r1, r2, _, cuts, _, _, ops, _ = PREDICATE_WINDOW
    else:
        spec, r1, r2, cuts, _, ops = BENCHMARK_WINDOWS[window]
    part = build_uniflow_partition(generate_random(spec))
    plain = assert_walk_matches_plain(part, r1, r2)
    assert len(plain.cuts) == cuts
    assert plain.ops == ops
    assert (plain.bumped[2], sum(plain.bumped.values())) == CHAIN_2_STEPS[window]
    entries = sum(1 for fill in plain.fills if fill and fill[1] == 3)
    assert (plain.bumped[3], entries) == CHAIN_3_STEPS[window]


class TestChainTwoStep:
    """The walk steps chain 2 inline, with one compare and no projection-row
    write.  These windows make that step carry most of the walk, and the
    edge cases reach its guards: no chain 2, a full chain 2, an early stop
    in a run of chain-2 steps."""

    @pytest.mark.parametrize("spec,r", [
        (GenSpec(10, 100, 0.3, 1), 8),  # slice-d100's trace, 13,133 cuts
        (GenSpec(10, 30, 0.3, 1), 8),  # predicate-d30's trace, 10,735 cuts
    ], ids=["d100-rank8", "d30-rank8"])
    def test_windows_led_by_chain_2(self, spec, r):
        """The walk takes the plain loop's steps, and ``remap()`` equals the
        one-shot remap whether it is called on every visit or on every
        third: both runs move some chain by exactly one event, the inline
        step's move, and some by more."""
        part = build_uniflow_partition(generate_random(spec))
        plain = assert_walk_matches_plain(part, r, r)
        assert 2 * plain.bumped[2] > sum(plain.bumped.values())
        for every in (1, 3):
            cuts = remap_every(part, r, r, every)
            moves = {abs(a - b) for g, h in zip(cuts, cuts[1:]) for a, b in zip(g, h)}
            assert 1 in moves and max(moves) > 1

    @pytest.mark.parametrize("case,n_u", [
        ("empty", 0), ("n1", 1), ("two-chains", 2), ("three-chains", 3),
    ])
    def test_few_chains(self, case, n_u):
        """With no chain 2 a rank holds one cut; with two chains every step
        is the inline chain-2 one, and a full chain 2 ends the rank; with
        three every step is one of the two inline steps, and a chain 2 and
        3 that cannot be bumped end the rank."""
        part = build_uniflow_partition(EDGE_CASES[case]())
        assert part.n_u == n_u
        plain = assert_walk_matches_plain(part, 0, part.event_count)
        assert set(plain.bumped) == set(range(2, n_u + 1))

    @pytest.mark.parametrize("spec,r", [
        (GenSpec(10, 30, 0.3, 1), 5),
        (GenSpec(10, 100, 0.3, 1), 6),
    ], ids=["d30-rank5", "d100-rank6"])
    def test_early_stop_in_a_run_of_chain_2_steps(self, spec, r):
        """Stop on a visit inside a run of chain-2 steps, two before it and
        one after it: the cuts and counters stop with the plain loop."""
        part = build_uniflow_partition(generate_random(spec))
        steps = plain_successor_walk(part, r, r).steps
        k = next(k for k in range(1, len(steps) - 1)
                 if steps[k - 1] == steps[k] == steps[k + 1] == 2)
        assert_walk_matches_plain(part, r, r, visits=k + 1)


class TestChainThreeStep:
    """The walk steps chain 3 inline after the chain-2 step, with two
    max-compares and one compare of sums, and tops up chains 1 and 2 inline.
    These small traces (online n_u = 5) take runs of chain-3 steps and reach
    every branch of that top-up."""

    @pytest.mark.parametrize("seed", [31, 36])
    def test_top_ups_and_entries(self, seed):
        """The chain-3 steps take no top-up, one that stays in chain 1, one
        that fills chain 1 and spills into chain 2, and one that starts at
        chain 2 because the new lower part leaves chain 1 full; some steps
        start at chain 3 because the last top-up reached it.  The walk
        takes the plain loop's steps, and ``remap()`` equals the one-shot
        remap whether it is called on every visit or on every third."""
        part = build_uniflow_partition(random_computation(seed, 4, 18, 0.3))
        plain = assert_walk_matches_plain(part, 0, part.event_count)
        fills = Counter(fill for step, fill in zip(plain.steps, plain.fills) if step == 3)
        assert set(fills) == {None, (1, 1), (1, 2), (2, 2)}
        assert any(fill and fill[1] == 3 for fill in plain.fills)
        for every in (1, 3):
            remap_every(part, 0, part.event_count, every)

    @pytest.mark.parametrize("seed", [31, 36])
    def test_early_stop_in_a_run_of_chain_3_steps(self, seed):
        """Stop on a visit inside a run of chain-3 steps, two before it and
        one after it: the cuts and counters stop with the plain loop."""
        part = build_uniflow_partition(random_computation(seed, 4, 18, 0.3))
        steps = plain_successor_walk(part, 0, part.event_count).steps
        k = next(k for k in range(1, len(steps) - 1)
                 if steps[k - 1] == steps[k] == steps[k + 1] == 3)
        assert_walk_matches_plain(part, 0, part.event_count, visits=k + 1)


def sparse_ids(comp):
    """The same computation with sparse, descending event ids."""
    ids = {eid: 10**9 - 7919 * k for k, eid in enumerate(comp.topo_order)}
    return make_computation(comp.n, [
        (ids[eid], comp.events[eid].process, [ids[d] for d in comp.events[eid].deps])
        for eid in comp.topo_order
    ])


EDGE_CASES = {
    "n1": lambda: random_computation(seed=121, n=1, events=7, p=0.0),
    "empty": lambda: make_computation(3, []),
    "p1": lambda: random_computation(seed=122, n=4, events=14, p=1.0),
    # Processes 3 and 5 have no events and messages only flow upward, so
    # the online partition has fewer chains than there are processes.
    "idle-processes": lambda: make_computation(5, [
        (1, 1, []), (2, 2, [1]), (3, 4, [2]), (4, 1, []),
        (5, 2, [4]), (6, 4, []), (7, 4, [5]), (8, 1, []),
    ]),
    "sparse-ids": lambda: sparse_ids(random_computation(seed=123, n=3, events=12, p=0.5)),
    # Messages only flow from process 1 to process 2: two online chains.
    "two-chains": lambda: make_computation(2, [
        (1, 1, []), (2, 2, [1]), (3, 1, []), (4, 1, []),
        (5, 2, []), (6, 2, [4]), (7, 1, []), (8, 2, []),
    ]),
    # Messages only flow from process 1 to 2 and from 2 to 3: three online
    # chains.
    "three-chains": lambda: make_computation(3, [
        (1, 1, []), (2, 2, [1]), (3, 1, []), (4, 3, [2]), (5, 1, []),
        (6, 2, [5]), (7, 3, []), (8, 2, []), (9, 3, [8]), (10, 1, []),
    ]),
}


class TestWalkEdgeCases:
    @pytest.mark.parametrize("partition", ["online", "trivial"])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_matches_plain_loop_and_oracle(self, case, partition):
        comp = EDGE_CASES[case]()
        part = build_uniflow_partition(comp) if partition == "online" else trivial_partition(comp)
        if case == "idle-processes" and partition == "online":
            assert part.n_u < comp.n
        seen, stats = collect(part)
        assert [(r, cut) for r, cut, _ in seen] == plain_walk(part)
        assert_walk_matches_plain(part, 0, part.event_count)
        uniflow_sets: dict[int, set] = {}
        original_sets: dict[int, set] = {}
        for r, cut, original in seen:
            assert original == remap(cut, part)
            uniflow_sets.setdefault(r, set()).add(cut)
            original_sets.setdefault(r, set()).add(original)
        assert uniflow_sets == oracle_rank_sets(comp, part)
        assert original_sets == oracle_rank_sets(comp)
        assert stats.peak_live_cuts <= 3
        assert stats.aux_int_peak == proj_ints(part) + comp.n + part.n_u


class TestWideFields:
    """A trace whose longest uniflow chain, 129 events, does not fit the
    guard of an 8-bit field, so the lower clocks pack into 16-bit fields
    and the general scan unpacks them through an ``array``."""

    SPEC = GenSpec(2, 300, 0.02, 4)

    def test_walk_matches_plain_loop_and_level_bfs(self):
        """The walk's per-rank cuts and ``component_ops`` equal the plain
        min-cut/successor loop's, which reads the decoded tuples, and its
        remapped originals equal the level BFS's cuts, rank by rank."""
        comp = generate_random(self.SPEC)
        part = build_uniflow_partition(comp)
        assert part.chain_lengths == (11, 21, 89, 129, 50)
        assert part.packing.size == 2
        plain = assert_walk_matches_plain(part, 0, part.event_count)
        assert len(plain.cuts) == 7_350
        assert plain.bumped[4] and plain.bumped[5]  # steps the general scan takes
        seen, _ = collect(part)
        walked: dict[int, list] = {}
        for r, _, original in seen:
            walked.setdefault(r, []).append(original)
        levels: dict[int, list] = {}
        traditional_bfs(comp, lambda cut, r, remap_fn: levels.setdefault(r, []).append(cut))
        assert {r: sorted(c) for r, c in walked.items()} == {
            r: sorted(c) for r, c in levels.items()}

    def test_clock_rows_count_the_causal_past(self):
        """Each decoded lower clock counts the event's causal past, the
        event included, on each chain below its own."""
        comp = generate_random(self.SPEC)
        part = build_uniflow_partition(comp)
        past = closure_predecessors(comp)
        for c, (chain, row) in enumerate(zip(part.chains, part.clock_rows), start=1):
            for eid, clock in zip(chain, row):
                counts = [0] * (c - 1)
                for m in past[eid]:
                    t = part.chain_of[m]
                    if t < c:
                        counts[t - 1] += 1
                assert clock == tuple(counts), eid


class TestTraverseRankRange:
    def test_single_rank_slice(self, six_event):
        part = build_uniflow_partition(six_event)
        seen, _ = collect(part, 3, 3)
        assert {original for _, _, original in seen} == {dv(0, 3), dv(1, 2)}

    def test_rank_zero(self, six_event):
        part = build_uniflow_partition(six_event)
        seen, _ = collect(part, 0, 0)
        assert [original for _, _, original in seen] == [dv(0, 0)]

    def test_matches_oracle_slice(self):
        comp = random_computation(seed=95, n=3, events=14, p=0.3)
        part = build_uniflow_partition(comp)
        r = comp.event_count // 2
        seen, _ = collect(part, r, r)
        assert {original for _, _, original in seen} == oracle_rank_sets(comp)[r]

    def test_bad_range_rejected(self, six_event, downward_msg):
        """A bad rank range is refused, and so is a partition that is not
        uniflow, by the uniflow check's own error, before any visit."""
        part = build_uniflow_partition(six_event)
        with pytest.raises(UsageError):
            traverse_rank_range(part, 4, 2)
        with pytest.raises(UsageError):
            traverse_rank_range(part, 0, 7)
        visits = []
        for chains, match in (
            (downward_msg.chains, "a higher chain; the partition is not uniflow"),
            ([(1, 2), (3, 5, 4, 6)], "does not happen after event 5 below it"),
        ):
            with pytest.raises(UsageError, match=match):
                traverse_rank_range(
                    partition_from_chains(downward_msg, chains), 0, 6,
                    lambda *visit: visits.append(visit),
                )
        assert visits == []

    def test_rank_slice_isolation(self):
        comp = random_computation(seed=96, n=3, events=16, p=0.3)
        part = build_uniflow_partition(comp)
        r = 8
        stats = traverse_rank_range(part, r, r)
        assert set(stats.min_cut_calls) == {r}
        assert set(stats.successor_calls) == {r}

    def test_range_covers_union_of_slices(self):
        comp = random_computation(seed=97, n=3, events=12, p=0.3)
        part = build_uniflow_partition(comp)
        whole, _ = collect(part, 3, 6)
        pieces = []
        for r in range(3, 7):
            piece, _ = collect(part, r, r)
            pieces.extend(piece)
        assert whole == pieces


class TestRemap:
    def test_full_cross_cut(self, crossing):
        part = build_uniflow_partition(crossing)
        assert remap(dv(1, 2, 1), part) == dv(2, 2)

    def test_zero_cut(self, crossing):
        part = build_uniflow_partition(crossing)
        assert remap((0, 0, 0), part) == (0, 0)

    def test_inconsistent_rejected(self, crossing):
        part = build_uniflow_partition(crossing)
        with pytest.raises(UsageError, match="not consistent"):
            remap(dv(1, 0, 0), part)

    @pytest.mark.parametrize("seed", [101, 102])
    def test_event_set_preserved(self, seed):
        comp = random_computation(seed, n=3, events=14, p=0.4)
        part = build_uniflow_partition(comp)
        for members in downset_event_sets(comp):
            g_u = event_set_to_cut(members, part)
            g = remap(g_u, part)
            assert g == event_set_to_cut(members, comp)
            assert sum(g) == sum(g_u)
            assert is_consistent(g, comp)


class TestLexicalChainPerRank:
    @pytest.mark.parametrize("seed,n,events,p", [
        (111, 2, 14, 0.3),
        (112, 3, 16, 0.5),
        (113, 4, 18, 0.0),
    ])
    def test_each_rank_enumerates_in_strict_lexical_order(self, seed, n, events, p):
        comp = random_computation(seed, n, events, p)
        part = build_uniflow_partition(comp)
        by_rank = oracle_rank_sets(comp, part)
        seen, _ = collect(part)
        walked: dict[int, list] = {}
        for r, cut, _ in seen:
            walked.setdefault(r, []).append(cut)
        assert walked == {r: sorted(cuts, key=lexkey) for r, cuts in by_rank.items()}
