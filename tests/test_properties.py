"""Property-based differential checks over arbitrary small computations.

The round-robin generator only makes traces in which every process runs in
turn.  The ``computations()`` strategy also makes idle and receive-only
processes, events on any process in any order, dependencies on any subset of
earlier events and sparse, unordered ids.  Each example is checked against
the downset oracle in ``conftest``, which shares no code with the walk.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cutlattice.baselines import traditional_bfs
from cutlattice.model import Computation, make_computation
from cutlattice.traceio import parse_document, serialize_trace
from cutlattice.traversal import traverse_bfs
from cutlattice.uniflow import (
    build_uniflow_partition,
    regenerate_vector_clocks,
    verify_uniflow,
)

from conftest import closure_predecessors, downset_event_sets, event_set_to_cut, oracle_rank_sets
from reference import trivial_partition

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


def check_walk(part, comp):
    """The partition is uniflow, the walk's remapped cuts are, rank by rank,
    exactly the consistent cuts of the source computation, and a count-only
    walk counts as many per rank."""
    assert verify_uniflow(part)
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
    check_walk(regenerate_vector_clocks(build_uniflow_partition(comp)), comp)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_trivial_partition_walk_matches_oracle(comp):
    """One event per chain: n_u is the event count, so a seed or a bump of a
    high chain leaves the longest runs of stale rows aliasing one row."""
    part = trivial_partition(comp)
    assert part.n_u == comp.event_count
    check_walk(part, comp)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(computations())
def test_level_bfs_matches_oracle(comp):
    level: dict[int, set] = {}
    traditional_bfs(comp, lambda cut, r, remap_fn: level.setdefault(r, set()).add(cut))
    assert level == oracle_rank_sets(comp)


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
    ``deps``, so the check shares no code with the clock fold."""
    past = closure_predecessors(comp)
    events = comp.events
    for eid in comp.topo_order:
        members = past[eid] | {eid}
        assert list(events[eid].vc) == chain_counts(members, lambda m: events[m].process, comp.n)
    for part in (regenerate_vector_clocks(build_uniflow_partition(comp)), trivial_partition(comp)):
        for eid in comp.topo_order:
            members = past[eid] | {eid}
            assert list(part.uvc[eid]) == chain_counts(members, part.chain_of.__getitem__, part.n_u)


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
    for part in (regenerate_vector_clocks(build_uniflow_partition(comp)), trivial_partition(comp)):
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
@given(computations())
def test_trace_round_trip_gives_the_same_walk(comp):
    """A computation written with ``serialize_trace`` and read back with
    ``parse_document`` walks the same cuts, in the same order, with the same
    remapped cuts, as the computation it was written from."""
    doc = parse_document(serialize_trace(comp))
    back = make_computation(doc.n, doc.records)
    assert walk(regenerate_vector_clocks(build_uniflow_partition(back))) == walk(
        regenerate_vector_clocks(build_uniflow_partition(comp))
    )
