"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 7 checks the space claim on the whole
lattice of a generated n=10/|E|=100/p=0.3 trace (seed 6): 50,490,732 cuts,
with level widths of 379,594 at rank 25 and 1,483,601 at rank 44, the widest.
The uniflow walk visits every cut while retaining at most three cut vectors
and O(n_u^2) auxiliary integers (n_u = 21: 210 integers of projection rows,
under the bound n_u^2 + 4 n_u = 525), whereas the level BFS exceeds a
100,000-stored-cut cap by rank 13.  No wall-clock value decides its verdict;
it prints the walk's elapsed time and cuts/s, and is the long test of the
suite (about 2 minutes in one process on a 2-core VM, more when the VM is
slow).
``test_space_contrast_demonstration`` shows the same space claim on a smaller
trace whose level BFS can also finish.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import pytest

from cutlattice.baselines import brute_force_downsets, traditional_bfs
from cutlattice.model import (
    Computation,
    ResourceLimitError,
    cut_from_display,
    is_consistent,
    make_computation,
)
from cutlattice.traceio import GenSpec, generate_random
from cutlattice.traversal import (
    get_min_cut,
    get_successor,
    remap,
    traverse_bfs,
    traverse_rank_range,
)
from cutlattice.uniflow import (
    UniflowPartition,
    build_uniflow_partition,
    regenerate_vector_clocks,
)

from conftest import closure_predecessors, identity_partition
from reference import compute_projections, trivial_partition, uniflow_fill


def dv(*values):
    return cut_from_display(values)


def prepared(comp: Computation) -> UniflowPartition:
    return regenerate_vector_clocks(build_uniflow_partition(comp))


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS — {detail}")


# --- shared corpora -------------------------------------------------------

_EVENTS_PATTERN = [20, 18, 16, 14, 12, 19, 17, 15, 20, 13, 18, 16, 14, 20]


@dataclass
class CorpusRecord:
    spec: GenSpec
    comp: Computation
    part: UniflowPartition
    brute: dict[int, set]
    traditional: dict[int, set]
    visited: list[tuple[int, tuple, tuple]]  # (rank, uniflow cut, original cut)


@pytest.fixture(scope="session")
def corpus() -> tuple[list[CorpusRecord], float]:
    """210 random traces (n 2..6, |E| <= 20, p in {0, 0.3, 0.7}) with all
    three enumerations precomputed; returns (records, build seconds)."""
    specs = []
    i = 0
    for _rep in range(14):
        for n in (2, 3, 4, 5, 6):
            for p in (0.0, 0.3, 0.7):
                specs.append(
                    GenSpec(
                        n=n,
                        total_events=_EVENTS_PATTERN[i % len(_EVENTS_PATTERN)],
                        message_probability=p,
                        seed=1000 + i,
                    )
                )
                i += 1
    t0 = time.perf_counter()
    records = []
    for spec in specs:
        comp = generate_random(spec)
        part = prepared(comp)
        brute = brute_force_downsets(comp)
        trad: dict[int, set] = {}
        traditional_bfs(comp, lambda c, r, m: trad.setdefault(r, set()).add(c) or True)
        visited: list[tuple[int, tuple, tuple]] = []
        traverse_bfs(part, lambda c, r, m: visited.append((r, c, m())) or True)
        records.append(CorpusRecord(spec, comp, part, brute, trad, visited))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_trace() -> tuple[Computation, UniflowPartition, float]:
    """The criterion-7/8 workload: n=10, |E|=100, p=0.3."""
    comp = generate_random(GenSpec(n=10, total_events=100, message_probability=0.3, seed=6))
    t0 = time.perf_counter()
    part = prepared(comp)
    return comp, part, time.perf_counter() - t0


# --- criteria -------------------------------------------------------------


def test_criterion_1_six_event_goldens(six_event):
    expected = {
        0: {dv(0, 0)},
        1: {dv(0, 1), dv(1, 0)},
        2: {dv(0, 2), dv(1, 1)},
        3: {dv(0, 3), dv(1, 2)},
        4: {dv(1, 3), dv(2, 2)},
        5: {dv(2, 3), dv(3, 2)},
        6: {dv(3, 3)},
    }
    t0 = time.perf_counter()
    brute = brute_force_downsets(six_event)
    trad: dict[int, set] = {}
    traditional_bfs(six_event, lambda c, r, m: trad.setdefault(r, set()).add(c) or True)
    part = prepared(six_event)
    uni: dict[int, set] = {}
    stats = traverse_bfs(part, lambda c, r, m: uni.setdefault(r, set()).add(m()) or True)
    elapsed = time.perf_counter() - t0
    assert brute == expected
    assert trad == expected
    assert uni == expected
    assert stats.cuts_visited == 12
    assert [stats.per_rank[r] for r in range(7)] == [1, 2, 2, 2, 2, 2, 1]
    assert elapsed < 1.0
    _report(1, f"all three enumerators produce the 12 golden cuts in {elapsed:.3f}s")


def test_criterion_2_golden_lexical_sequences(crossing):
    original_sequence = [
        dv(0, 0), dv(0, 1), dv(1, 0), dv(1, 1), dv(1, 2), dv(2, 1), dv(2, 2),
    ]
    seen_original: list[tuple] = []
    traditional_bfs(crossing, lambda c, r, m: seen_original.append(c) or True)
    assert seen_original == original_sequence

    part = prepared(crossing)
    assert part.n_u == 3
    uniflow_sequence = [
        dv(0, 0, 0), dv(0, 0, 1), dv(0, 1, 0), dv(0, 1, 1),
        dv(0, 2, 1), dv(1, 1, 1), dv(1, 2, 1),
    ]
    seen_uniflow: list[tuple] = []
    mapping: dict[tuple, tuple] = {}
    traverse_bfs(
        part,
        lambda c, r, m: (seen_uniflow.append(c), mapping.__setitem__(c, m())) and True,
    )
    assert seen_uniflow == uniflow_sequence
    expected_mapping = {
        dv(0, 0, 0): dv(0, 0),
        dv(0, 0, 1): dv(0, 1),
        dv(0, 1, 0): dv(1, 0),
        dv(0, 1, 1): dv(1, 1),
        dv(0, 2, 1): dv(2, 1),
        dv(1, 1, 1): dv(1, 2),
        dv(1, 2, 1): dv(2, 2),
    }
    assert mapping == expected_mapping
    assert sorted(mapping.values()) == sorted(original_sequence)  # bijection
    _report(2, "both 7-cut lexical sequences and the remap bijection are exact")


def test_criterion_3_golden_algorithm_steps(three_chain, three_chain_mid):
    part = identity_partition(three_chain)
    assert get_min_cut(dv(0, 0, 0), 4, part) == dv(0, 1, 3)
    assert get_min_cut(dv(0, 0, 2), 5, part) == dv(0, 2, 3)
    assert get_successor(dv(0, 0, 3), 3, part) == dv(0, 1, 2)
    assert get_successor(dv(1, 2, 3), 6, part) == dv(1, 3, 2)
    mid = identity_partition(three_chain_mid)
    proj = compute_projections(dv(1, 3, 2), mid)
    assert proj[2] == dv(1, 0, 0)
    assert proj[1] == dv(1, 3, 1)
    assert proj[0] == dv(1, 3, 2)
    _report(3, "min-cut, successor, and projection walkthroughs match exactly")


def test_criterion_4_oracle_equivalence(corpus):
    records, build_s = corpus
    t0 = time.perf_counter()
    assert len(records) >= 200
    assert {r.spec.n for r in records} == {2, 3, 4, 5, 6}
    assert {r.spec.message_probability for r in records} == {0.0, 0.3, 0.7}
    assert max(r.spec.total_events for r in records) <= 20
    for rec in records:
        uni_sets: dict[int, set] = {}
        for rank_, _, original in rec.visited:
            uni_sets.setdefault(rank_, set()).add(original)
        assert rec.brute == rec.traditional == uni_sets, rec.spec
    elapsed = build_s + (time.perf_counter() - t0)
    assert elapsed < 120.0
    _report(
        4,
        f"{len(records)} traces, {sum(len(r.visited) for r in records)} cuts, "
        f"per-rank sets identical across all three enumerators in {elapsed:.1f}s",
    )


def test_criterion_5_successor_equivalence(corpus):
    """The walk's next cut at the same rank, or ``None`` after a rank's last
    cut, is the plain ``get_successor`` of every visited cut."""
    records, _ = corpus
    pairs = 0
    for rec in records:
        visits = rec.visited
        for (rank_, ucut, _), after in itertools.zip_longest(visits, visits[1:]):
            walked = after[1] if after is not None and after[0] == rank_ else None
            assert get_successor(ucut, rank_, rec.part) == walked, (rec.spec, ucut, rank_)
            pairs += 1
    _report(5, f"the walk's next cut is the plain successor at all {pairs} (cut, rank) pairs")


def test_criterion_6_uniflow_soundness(corpus):
    records, _ = corpus

    def eq1_by_closure(part: UniflowPartition) -> bool:
        preds = closure_predecessors(part.source)
        placed = [(part.chain_of[eid], eid) for eid in part.source.topo_order]
        return not any(
            cx < cy and y in preds[x] for cx, x in placed for cy, y in placed
        )

    lemma_checks = 0
    for rec in records:
        assert eq1_by_closure(rec.part), rec.spec
        assert eq1_by_closure(trivial_partition(rec.comp)), rec.spec
        if rec.comp.event_count <= 15:
            for _, ucut, _ in rec.visited:
                for k in range(rec.part.n_u + 1):
                    assert is_consistent(uniflow_fill(ucut, k, rec.part), rec.part)
                    lemma_checks += 1
    _report(
        6,
        f"all {2 * len(records)} partitions satisfy the closure check; "
        f"fill lemma verified for {lemma_checks} (cut, k) pairs",
    )


# Exact size of the desk lattice (n=10, |E|=100, p=0.3, seed 6) and of its
# widest level.  Both come from the uniflow walk and agree with an
# independent full run of ``traditional_bfs``, whose per-rank counts are
# identical (widest level: rank 44, 1,483,601 cuts; up to 2,963,810 cuts
# stored at once).
DESK_LATTICE_CUTS = 50_490_732
DESK_WIDEST_RANK, DESK_WIDEST_WIDTH = 44, 1_483_601
# Stored-cut cap for the level BFS: the analogue of the paper's exhausted
# heap.  The desk trace exceeds it at rank 13.
LEVEL_BFS_CAP = 100_000


@pytest.mark.slow
def test_criterion_7_space_claim_at_desk_scale(desk_trace):
    comp, part, _ = desk_trace
    stats = traverse_bfs(part)
    assert not stats.early_stopped
    assert stats.cuts_visited == DESK_LATTICE_CUTS
    assert set(stats.per_rank) == set(range(comp.event_count + 1))
    assert stats.per_rank[DESK_WIDEST_RANK] == DESK_WIDEST_WIDTH
    assert stats.peak_live_cuts <= 3
    assert stats.aux_int_peak <= part.n_u**2 + 4 * part.n_u
    with pytest.raises(ResourceLimitError) as exc_info:
        traditional_bfs(comp, max_stored_cuts=LEVEL_BFS_CAP)
    tstats = exc_info.value.stats
    assert tstats.max_level_width >= 1_000
    assert tstats.peak_stored_cuts >= tstats.max_level_width
    _report(
        7,
        f"full traversal of all {stats.cuts_visited:,} cuts (ranks 0..{comp.event_count}) "
        f"in {stats.elapsed_s:.0f}s ({stats.cuts_visited / stats.elapsed_s:,.0f} cuts/s), "
        f"retaining {stats.peak_live_cuts} cuts and {stats.aux_int_peak} aux ints "
        f"(n_u={part.n_u}); level BFS exceeded its {LEVEL_BFS_CAP:,}-cut cap "
        f"(max level width {tstats.max_level_width:,})",
    )


def test_criterion_8_rank_slice_claim(desk_trace):
    comp, part, _ = desk_trace
    r = comp.event_count // 4
    stats = traverse_rank_range(part, r, r)
    assert set(stats.min_cut_calls) == {r}
    assert set(stats.successor_calls) == {r}
    tstats = traditional_bfs(comp, rank_filter=(r, r))
    assert set(tstats.expanded_per_rank) == set(range(r))
    assert all(count >= 1 for count in tstats.expanded_per_rank.values())
    assert tstats.cuts_visited == stats.cuts_visited
    _report(
        8,
        f"rank-{r} slice: uniflow touched only rank {r} "
        f"({stats.cuts_visited} cuts); traditional expanded all {r} lower ranks",
    )


def test_criterion_9_complexity_smoke():
    per_cut: dict[int, float] = {}
    for m in (5, 10, 20):
        comp = make_computation(
            2,
            [(i, 1, []) for i in range(1, m + 1)]
            + [(m + i, 2, []) for i in range(1, m + 1)],
        )
        part = trivial_partition(comp)
        n_u = part.n_u
        assert n_u == 2 * m
        stats = traverse_bfs(part)
        assert stats.cuts_visited == (m + 1) ** 2
        per_cut[n_u] = stats.component_ops / stats.cuts_visited
    base = per_cut[10] / 10**2
    for n_u in (20, 40):
        assert per_cut[n_u] / n_u**2 <= 2.0 * base, per_cut
    _report(
        9,
        "the walk's per-cut work stays within 2x of the quadratic fit: "
        + ", ".join(f"n_u={k}: {v:.1f} ops/cut" for k, v in sorted(per_cut.items())),
    )


def test_space_contrast_demonstration():
    """Supplementary (not a numbered criterion): the criterion-7 measurables
    on an n=10, |E|=30, p=0.3 trace small enough that the uncapped level BFS
    also finishes, so both enumerators can be compared cut count for cut count."""
    comp = generate_random(GenSpec(n=10, total_events=30, message_probability=0.3, seed=6))
    part = prepared(comp)
    stats = traverse_bfs(part, lambda c, r, m: True)
    assert stats.cuts_visited >= 100_000
    assert stats.peak_live_cuts <= 3
    assert stats.aux_int_peak <= part.n_u**2 + 4 * part.n_u
    tstats = traditional_bfs(comp)
    assert tstats.cuts_visited == stats.cuts_visited
    assert tstats.max_level_width >= 1_000
    assert tstats.peak_stored_cuts >= tstats.max_level_width
    print(
        "space contrast at |E|=30: "
        f"{stats.cuts_visited} cuts; uniflow retained {stats.peak_live_cuts} cuts "
        f"and {stats.aux_int_peak} aux ints (n_u={part.n_u}); traditional stored "
        f"{tstats.peak_stored_cuts} cuts (max level width {tstats.max_level_width})"
    )
