"""Property-based differential checks over arbitrary small computations.

The round-robin generator only makes traces in which every process runs in
turn.  The ``computations()`` strategy also makes idle and receive-only
processes, events on any process in any order, dependencies on any subset of
earlier events and sparse, unordered ids.  Each example is checked against
the downset oracle in ``conftest``, which shares no code with the walk.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlattice.baselines import traditional_bfs
from cutlattice.model import Computation, UsageError, happened_before, make_computation
from cutlattice.traceio import parse_document, serialize_trace
from cutlattice.traversal import traverse_bfs, traverse_rank_range
from cutlattice.uniflow import (
    UniflowPartition,
    build_uniflow_partition,
    regenerate_vector_clocks,
)

from conftest import closure_predecessors, downset_event_sets, event_set_to_cut, oracle_rank_sets
from reference import (
    min_uniflow_chains,
    partition_from_chains,
    trivial_partition,
    verify_uniflow_pairwise,
)

MAX_EVENTS = 14  # keeps the downset oracle cheap: at most 2**14 event sets


@st.composite
def computations(draw) -> Computation:
    n = draw(st.integers(1, 5))
    count = draw(st.integers(0, MAX_EVENTS))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=count, max_size=count, unique=True))
    records = []
    for k, eid in enumerate(ids):
        process = draw(st.integers(1, n))
        deps = draw(st.sets(st.sampled_from(ids[:k]))) if k else set()
        records.append((eid, process, sorted(deps)))
    return make_computation(n, records)


def assert_clocks_count_the_past(part, past) -> None:
    """Each decoded lower clock of ``part`` counts the event's causal past,
    the event included, on the chains below its own; on its own chain the
    past holds the event's position, and on every higher chain nothing.
    ``past`` is ``closure_predecessors`` of the source computation."""
    for c, chain in enumerate(part.chains, start=1):
        for k, eid in enumerate(chain, start=1):
            counts = chain_counts(past[eid] | {eid}, part.chain_of.__getitem__, part.n_u)
            assert list(part.clock_rows[c - 1][k - 1]) == counts[: c - 1]
            assert counts[c - 1:] == [k] + [0] * (part.n_u - c)


def uniflow_clocks(part: UniflowPartition) -> UniflowPartition:
    """``part`` with regenerated clocks, after the cheap facts every walk
    rests on: regeneration accepts the partition, and its lower clocks
    count the causal past.  Each walking property calls this before it
    walks, so every example that shows a partitioner or regeneration fault
    fails here, before any walk."""
    regenerated = regenerate_vector_clocks(part)
    assert_clocks_count_the_past(regenerated, closure_predecessors(part.source))
    return regenerated


def check_walk(part, comp):
    """The walk's remapped cuts are, rank by rank, exactly the consistent
    cuts of the source computation, and a count-only walk counts as many per
    rank.  ``part`` has regenerated clocks, so it is uniflow."""
    walked: dict[int, set] = {}
    stats = traverse_bfs(part, lambda cut, r, remap_fn: walked.setdefault(r, set()).add(remap_fn()))
    expected = oracle_rank_sets(comp)
    assert walked == expected
    counts = {r: len(cuts) for r, cuts in expected.items()}
    assert stats.per_rank == counts
    assert traverse_bfs(part).per_rank == counts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_online_partition_walk_matches_oracle(comp):
    check_walk(uniflow_clocks(build_uniflow_partition(comp)), comp)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_trivial_partition_walk_matches_oracle(comp):
    """One event per chain: n_u is the event count, so a seed or a bump of a
    high chain leaves the longest runs of stale rows aliasing one row."""
    part = uniflow_clocks(trivial_partition(comp))
    assert part.n_u == comp.event_count
    check_walk(part, comp)


def check_level_bfs(comp, expected, r1, r2):
    """Over ranks ``r1..r2``, the level BFS visits the oracle's cuts in
    (rank, highest chain most significant) order, and every counter is the
    one the oracle's level sizes give: it expands each rank below ``r2``
    whole and stores two adjacent levels at a time."""
    seen = []
    stats = traditional_bfs(
        comp, lambda cut, r, remap_fn: seen.append((r, cut)), rank_filter=(r1, r2)
    )
    assert seen == [
        (r, cut) for r in range(r1, r2 + 1) for cut in sorted(expected[r], key=lambda c: c[::-1])
    ]
    width = {r: len(expected[r]) for r in range(r2 + 1)}
    assert stats.per_rank == {r: width[r] for r in range(r1, r2 + 1)}
    assert stats.cuts_visited == len(seen)
    assert stats.expanded_per_rank == {r: width[r] for r in range(r2)}
    assert stats.max_level_width == max(width.values())
    assert stats.peak_stored_cuts == max([1] + [width[r] + width[r + 1] for r in range(r2)])
    assert not stats.early_stopped


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations(), st.data())
def test_level_bfs_matches_oracle(comp, data):
    expected = oracle_rank_sets(comp)
    top = comp.event_count
    assert set(expected) == set(range(top + 1))
    check_level_bfs(comp, expected, 0, top)
    r1 = data.draw(st.integers(0, top), label="r1")
    r2 = data.draw(st.integers(r1, top), label="r2")
    check_level_bfs(comp, expected, r1, r2)


def chain_counts(members, chain_of, width) -> list[int]:
    """How many of ``members`` sit on each chain; ``chain_of`` gives an
    event's 1-based chain."""
    counts = [0] * width
    for m in members:
        counts[chain_of(m) - 1] += 1
    return counts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_clocks_count_the_causal_past(comp):
    """Every clock component counts the event's causal past, the event
    included, on that chain: for the original processes and for both
    partitions' uniflow chains.  The past is a transitive closure over
    ``deps``, so the check shares no code with the clock fold.

    A uniflow clock stores only the components below the event's own chain;
    the past's count on that chain is the event's position, and on every
    higher chain it is 0."""
    past = closure_predecessors(comp)
    events = comp.events
    for eid in comp.topo_order:
        members = past[eid] | {eid}
        assert list(events[eid].vc) == chain_counts(members, lambda m: events[m].process, comp.n)
    for part in (regenerate_vector_clocks(build_uniflow_partition(comp)), trivial_partition(comp)):
        assert_clocks_count_the_past(part, past)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_lower_clocks_nondecreasing_along_each_chain(comp):
    """Each chain's stored lower clocks grow componentwise along the chain.
    The walk's inline chain-2 step relies on it: it never folds a bumped
    event's clock into ``proj[1]``, because the next event's clock on the
    chain already covers it.  On the trivial partition every chain holds
    one event, so only the clock lengths are checked there."""
    for part in (regenerate_vector_clocks(build_uniflow_partition(comp)), trivial_partition(comp)):
        for i, row in enumerate(part.clock_rows):
            assert all(len(vc) == i for vc in row)
            for a, b in zip(row, row[1:]):
                assert all(x <= y for x, y in zip(a, b)), (i, a, b)


def least_chains_by_extensions(comp: Computation) -> int:
    """The least n_u over every linear extension of the events: one more
    than its fewest neighbours that are concurrent."""
    events = comp.events

    def extends(order) -> bool:
        at = {eid: k for k, eid in enumerate(order)}
        return all(at[d] < at[eid] for eid in order for d in events[eid].deps)

    def jumps(order) -> int:
        return sum(not happened_before(events[a].vc, events[b].vc)
                   for a, b in zip(order, order[1:]))

    if not comp.event_count:
        return 0
    return 1 + min(jumps(o) for o in itertools.permutations(comp.topo_order) if extends(o))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_online_partition_never_below_exact_minimum(comp):
    """The online partitioner's n_u is never below the exact least n_u of a
    uniflow partition, the test-only DP of ``min_uniflow_chains``.  On
    computations of at most 7 events the DP is itself checked against every
    linear extension."""
    least = min_uniflow_chains(comp)
    assert least <= build_uniflow_partition(comp).n_u
    if comp.event_count <= 7:
        assert least == least_chains_by_extensions(comp)


def walk(part) -> list[tuple[int, tuple, tuple]]:
    """[(rank, uniflow cut, remapped cut), ...] in the walk's visit order."""
    seen: list[tuple[int, tuple, tuple]] = []
    traverse_bfs(part, lambda cut, r, remap_fn: seen.append((r, cut, remap_fn())))
    return seen


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_remap_is_the_downsets_original_cut(comp):
    """``remap()`` called during its visit, and again after the walk has
    ended, returns the original-process cut of the visited downset.  The
    expected cut projects the downset's event set onto the processes, so it
    shares no code with the remap table or the one-shot remap."""
    for part in (
        uniflow_clocks(build_uniflow_partition(comp)), uniflow_clocks(trivial_partition(comp))
    ):
        original = {
            event_set_to_cut(members, part): event_set_to_cut(members, comp)
            for members in downset_event_sets(comp)
        }
        kept = []

        def visitor(cut, r, remap_fn):
            assert remap_fn() == original[cut], (cut, r)
            kept.append((cut, remap_fn))

        traverse_bfs(part, visitor)
        assert len(kept) == len(original)
        for cut, remap_fn in kept:
            assert remap_fn() == original[cut], cut


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_lazy_remap_delta_matches_oracle(data):
    """The walk's ``remap()`` moves its event counts from the cut of the last
    call, however many visits, steps and rank seeds lie between two calls.
    Over a drawn rank window it is called on no visit, on the first visit of
    each rank, on every k-th visit or on a drawn subset of visits; each
    returned cut must be the original-process cut of the visited downset.
    The counts exist, and add ``n + n_u`` aux ints, only once it is called."""
    comp = data.draw(computations())
    trivial = data.draw(st.booleans())
    part = uniflow_clocks(trivial_partition(comp) if trivial else build_uniflow_partition(comp))
    r1 = data.draw(st.integers(0, comp.event_count))
    r2 = data.draw(st.integers(r1, comp.event_count))
    policy = data.draw(st.sampled_from(["none", "first-of-rank", "every-k", "subset"]))
    k = data.draw(st.integers(1, 7))
    flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=40))
    original = {
        event_set_to_cut(members, part): event_set_to_cut(members, comp)
        for members in downset_event_sets(comp)
        if r1 <= len(members) <= r2
    }
    visits = []
    calls = []
    last_rank = -1

    def visitor(cut, r, remap_fn):
        nonlocal last_rank
        v = len(visits)
        visits.append(cut)
        if policy == "first-of-rank":
            call = r != last_rank
        elif policy == "every-k":
            call = v % k == 0
        elif policy == "subset":
            call = flags[v % len(flags)]
        else:
            call = False
        last_rank = r
        if call:
            calls.append((cut, remap_fn()))

    stats = traverse_rank_range(part, r1, r2, visitor)
    assert sorted(visits) == sorted(original)
    for cut, remapped in calls:
        assert remapped == original[cut], cut
    proj_ints = part.n_u * (part.n_u - 1) // 2
    extra = comp.n + part.n_u if calls else 0
    assert stats.aux_int_peak == proj_ints + extra


def _assert_gate_matches_oracle(part) -> None:
    """Clock regeneration succeeds exactly when the quadratic oracle finds
    ``part`` uniflow, and otherwise raises ``UsageError``."""
    if verify_uniflow_pairwise(part):
        assert regenerate_vector_clocks(part).lower_rows is not None
    else:
        with pytest.raises(UsageError, match="not uniflow"):
            regenerate_vector_clocks(part)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_verify_uniflow_agrees_with_pairwise_check(comp):
    """Regeneration's uniflow check and the quadratic oracle give the same
    verdict on the online and the trivial partitions, which are uniflow, and
    on every event on one chain in ``topo_order``, which is ordered only if
    the events are."""
    parts = [build_uniflow_partition(comp), trivial_partition(comp)]
    if comp.event_count:
        parts.append(partition_from_chains(comp, [comp.topo_order]))
    for part in parts:
        _assert_gate_matches_oracle(part)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_regeneration_requires_uniflow(data):
    """On partitions into causally ordered chains, clock regeneration
    succeeds exactly when the partition is uniflow, and otherwise raises
    ``UsageError``: the process chains, and the online partition's chains in
    a drawn order."""
    comp = data.draw(computations())
    online = build_uniflow_partition(comp)
    order = data.draw(st.permutations(range(online.n_u)))
    for part in (
        partition_from_chains(comp, [c for c in comp.chains if c]),
        partition_from_chains(comp, [online.chains[i] for i in order]),
    ):
        _assert_gate_matches_oracle(part)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_trace_round_trip_gives_the_same_walk(comp):
    """A computation written with ``serialize_trace`` and read back with
    ``parse_document`` walks the same cuts, in the same order, with the same
    remapped cuts, as the computation it was written from."""
    doc = parse_document(serialize_trace(comp))
    back = make_computation(doc.n, doc.records)
    assert walk(uniflow_clocks(build_uniflow_partition(back))) == walk(
        uniflow_clocks(build_uniflow_partition(comp))
    )
