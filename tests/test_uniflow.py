"""Uniflow partitions: the online partitioner and its net-outflow order,
clock regeneration, and the fill lemma, cross-checked against explicit
transitive closures."""

from __future__ import annotations

import itertools
import random

import pytest

from cutlattice.model import (
    Computation,
    UsageError,
    is_consistent,
    make_computation,
)
from cutlattice.traceio import GenSpec, generate_random
from cutlattice.traversal import get_successor, remap, traverse_rank_range
from cutlattice.uniflow import (
    ClockPacking,
    PartitionerState,
    UniflowPartition,
    build_uniflow_partition,
    find_uniflow_chain,
    net_outflow_order,
    regenerate_vector_clocks,
)

from conftest import (
    closure_predecessors,
    downset_event_sets,
    event_set_to_cut,
    identity_partition,
    random_computation,
)
from reference import (
    cut_from_display,
    min_uniflow_chains,
    partition_from_chains,
    trivial_partition,
    uniflow_fill,
    verify_uniflow_pairwise,
)


def dv(*values):
    return cut_from_display(values)


def eq1_holds_by_closure(part) -> bool:
    """Independent uniflow check: no higher-chain event precedes a lower one."""
    preds = closure_predecessors(part.source)
    placed = [(part.chain_of[eid], eid) for eid in part.source.topo_order]
    for cx, x in placed:
        for cy, y in placed:
            if cx < cy and y in preds[x]:
                return False
    return True


class TestFindUniflowChain:
    def test_worked_delivery(self, crossing):
        state = PartitionerState(events=crossing.events)
        placements = [
            find_uniflow_chain(crossing.events[eid], state) for eid in (1, 2, 3, 4)
        ]
        assert placements == [1, 2, 2, 3]

    def test_single_process(self):
        comp = make_computation(1, [(i, 1, []) for i in range(1, 6)])
        state = PartitionerState(events=comp.events)
        assert all(
            find_uniflow_chain(comp.events[eid], state) == 1 for eid in comp.topo_order
        )

    def test_unplaced_dependency_rejected(self, crossing):
        state = PartitionerState(events=crossing.events)
        with pytest.raises(UsageError, match="not yet placed"):
            find_uniflow_chain(crossing.events[3], state)

    def test_random_delivery_orders_stay_uniflow(self):
        comp = random_computation(seed=11, n=3, events=12, p=0.3)
        rng = random.Random(0)
        for _ in range(5):
            # random topological shuffle via seeded Kahn's algorithm
            remaining = {eid: set(comp.events[eid].deps) for eid in comp.topo_order}
            order = []
            ready = sorted(e for e, d in remaining.items() if not d)
            while ready:
                eid = ready.pop(rng.randrange(len(ready)))
                order.append(eid)
                del remaining[eid]
                ready = sorted(
                    e for e, d in remaining.items() if d <= set(order)
                )
            shuffled = make_computation(
                comp.n,
                [(eid, comp.events[eid].process, comp.events[eid].deps) for eid in order],
            )
            part = build_uniflow_partition(shuffled)
            assert checked_uniflow(part)
            assert eq1_holds_by_closure(part)


def receive_only_low() -> Computation:
    """Process 2 sends three messages to process 1, which only receives."""
    return make_computation(2, [
        (1, 2, []), (2, 1, [1]),
        (3, 2, []), (4, 1, [3]),
        (5, 2, []), (6, 1, [5]),
    ])


class TestNetOutflowOrder:
    def test_sender_placed_below_receiver(self):
        comp = receive_only_low()
        assert net_outflow_order(comp.events) == (2, 1)
        part = build_uniflow_partition(comp)
        assert part.chains == ((1, 3, 5), (2, 4, 6))
        assert checked_uniflow(part)

    def test_fewer_chains_than_identity_labelling(self):
        # Started at the process id, the first receive joins the sender's
        # chain above its send; each later send is concurrent with the
        # receive on top of the chain it starts at, so it opens a fresh one.
        comp = receive_only_low()
        state = PartitionerState(events=comp.events)
        state.start = {1: 1, 2: 2}
        for eid in comp.topo_order:
            find_uniflow_chain(comp.events[eid], state)
        assert sorted(state.chains.values()) == [[1, 2], [3, 4], [5, 6]]
        assert build_uniflow_partition(comp).n_u == 2

    def test_ties_fall_back_to_process_id(self, crossing):
        # one message each way: both processes have net outflow 0
        assert net_outflow_order(crossing.events) == (1, 2)
        # processes 3 and 2 each send one message to process 1
        comp = make_computation(3, [(1, 3, []), (2, 2, []), (3, 1, [1, 2])])
        assert net_outflow_order(comp.events) == (2, 3, 1)

    def test_idle_process_has_no_position(self):
        comp = make_computation(3, [(1, 3, []), (2, 1, [1])])
        assert net_outflow_order(comp.events) == (3, 1)
        assert PartitionerState(events=comp.events).start == {3: 1, 1: 2}

    @pytest.mark.parametrize("spec,n_u", [
        (GenSpec(10, 30, 0.3, 1), 10),
        (GenSpec(10, 100, 0.3, 1), 16),
        (GenSpec(10, 100, 0.3, 6), 21),  # the desk trace of criterion 7
    ])
    def test_generated_chain_counts(self, spec, n_u):
        # With each event started at its process id these were 13, 25 and 28.
        part = build_uniflow_partition(generate_random(spec))
        assert part.n_u == n_u
        assert checked_uniflow(part)

    @pytest.mark.parametrize("spec,n_u,least", [
        (GenSpec(4, 40, 0.5, 6), 11, 7),
        (GenSpec(8, 28, 0.6, 7), 10, 8),
    ])
    def test_dense_traces_above_exact_minimum(self, spec, n_u, least):
        """On dense traces the online partitioner is not optimal: the exact
        least chain count of a uniflow partition is below its n_u."""
        comp = generate_random(spec)
        assert build_uniflow_partition(comp).n_u == n_u
        assert min_uniflow_chains(comp) == least


class TestBuildUniflowPartition:
    def test_cross_computation_three_chains(self, crossing):
        part = build_uniflow_partition(crossing)
        assert part.n_u == 3
        assert part.chains == ((1,), (2, 3), (4,))

    def test_antichain_gets_one_chain_each(self):
        k = 5
        comp = make_computation(k, [(i, i, []) for i in range(1, k + 1)])
        part = build_uniflow_partition(comp)
        assert part.n_u == k
        assert checked_uniflow(part)

    def test_six_event_partition_preserves_cut_count(self, six_event):
        part = build_uniflow_partition(six_event)
        assert checked_uniflow(part)
        ranges = [range(m + 1) for m in part.chain_lengths]
        count = sum(1 for cut in itertools.product(*ranges) if is_consistent(cut, part))
        assert count == len(downset_event_sets(six_event)) == 12

    def test_sparse_chain_ids_compacted(self):
        # the first event of a low process arrives after higher chains exist,
        # so the partitioner creates a chain below maxid; ids get compacted
        comp = make_computation(4, [(1, 4, []), (2, 3, [])])
        part = build_uniflow_partition(comp)
        assert part.n_u == 2
        assert part.chains == ((2,), (1,))
        assert checked_uniflow(part)

    def test_nu_never_exceeds_event_count(self):
        for seed in range(8):
            comp = random_computation(seed, n=4, events=14, p=0.5)
            part = build_uniflow_partition(comp)
            assert part.n_u <= comp.event_count


def lower_clock(part, eid):
    """The event's stored lower clock, read from its chain's clock row."""
    c = part.chain_of[eid]
    return part.clock_rows[c - 1][part.chains[c - 1].index(eid)]


class TestRegenerateVectorClocks:
    """``clock_rows`` holds each event's lower clock, the components below
    its own chain; ``full_clock`` adds its position and the zeros above."""

    def test_cross_partition_labels(self, crossing):
        part = build_uniflow_partition(crossing)
        assert part.full_clock(4) == dv(1, 1, 1)  # P1#2 alone on the top chain
        assert lower_clock(part, 4) == (1, 1)
        assert part.full_clock(3) == dv(0, 2, 1)  # P2#2
        assert lower_clock(part, 3) == (1,)

    def test_three_chain_labels(self, three_chain):
        part = identity_partition(three_chain)
        assert part.full_clock(6) == dv(0, 3, 1)  # third event of the middle chain
        assert lower_clock(part, 6) == (1,)
        assert part.full_clock(7) == dv(1, 2, 0)
        assert lower_clock(part, 7) == (0, 2)
        assert part.full_clock(9) == dv(3, 2, 2)
        assert lower_clock(part, 9) == (2, 2)

    def test_first_event_on_lowest_chain(self, three_chain):
        part = identity_partition(three_chain)
        assert part.full_clock(1) == dv(0, 0, 1)
        assert lower_clock(part, 1) == ()

    def test_clock_rows_are_the_stored_rows(self, three_chain, downward_msg):
        """Regeneration writes the packed rows, component ``t`` of a lower
        clock in bits ``[8t, 8t + 8)``; ``clock_rows`` decodes them once,
        and, like every reader of the clocks, refuses a partition that is
        not uniflow with the uniflow check's own error."""
        part = identity_partition(three_chain)
        assert part.packing.width == 8
        assert part.lower_rows == ((0,) * 3, (0, 0, 1), (2 << 8, 2 << 8, 2 | 2 << 8))
        assert part.clock_rows is part.clock_rows
        assert part.clock_rows == (((),) * 3, ((0,), (0,), (1,)), ((0, 2), (0, 2), (2, 2)))
        downward = partition_from_chains(downward_msg, downward_msg.chains)
        out_of_order = partition_from_chains(downward_msg, [(1, 2), (3, 5, 4, 6)])
        for bad, match in (
            (downward, "a higher chain; the partition is not uniflow"),
            (out_of_order, "does not happen after event 5 below it"),
        ):
            for read in (
                lambda: bad.clock_rows,
                lambda: is_consistent((1, 1), bad),
                lambda: get_successor((1, 1), 2, bad),
                lambda: remap((1, 1), bad),
            ):
                with pytest.raises(UsageError, match=match):
                    read()

    def test_position_invariant(self):
        comp = random_computation(seed=21, n=4, events=16, p=0.4)
        part = build_uniflow_partition(comp)
        for ci, chain in enumerate(part.chains, start=1):
            for k, eid in enumerate(chain, start=1):
                assert len(part.clock_rows[ci - 1][k - 1]) == ci - 1
                assert part.full_clock(eid)[ci - 1] == k

    def test_chain_shares_its_lower_clock(self):
        """An event with no dependency on a lower chain holds the very int
        of the event below it; any other event holds a new one.  CPython
        keeps one object for each int up to 256, so an event whose new
        clock equals a small one below it holds that object."""
        comp = random_computation(seed=6, n=10, events=100, p=0.3)
        part = build_uniflow_partition(comp)
        shared = fresh = 0
        for ci, (chain, row) in enumerate(zip(part.chains, part.lower_rows), start=1):
            for k, eid in enumerate(chain[1:], start=1):
                lower_deps = any(part.chain_of[d] < ci for d in comp.events[eid].deps)
                if lower_deps:
                    assert row[k] is not row[k - 1] or row[k] <= 256, eid
                    fresh += row[k] > 256
                else:
                    assert row[k] is row[k - 1], eid
                    shared += 1
        assert shared > 0 and fresh > 0

    def test_top_e1000_clock_table(self):
        """At the benchmark's ``top-e1000`` trace the lower clocks are 396
        distinct values over their rows, one byte per component, held in
        387 int objects (CPython keeps one object for each small int, so
        the zero clocks of ten rows are one) with 28,284 bytes of fields up
        to their highest nonzero byte.  Stored as tuples they took 396 tuples of
        29,104 ints, and the full clocks 1000 tuples of 144."""
        part = build_uniflow_partition(random_computation(seed=1, n=10, events=1000, p=0.3))
        assert part.n_u == 144
        assert part.packing.width == 8
        assert sum(len(set(row)) for row in part.lower_rows) == 396
        distinct = {id(x): x for row in part.lower_rows for x in row}
        assert len(distinct) == 387
        assert sum((x.bit_length() + 7) // 8 for x in distinct.values()) == 28_284

    def test_regeneration_returns_the_partition(self):
        """Regeneration checks and fills the partition it is given and
        returns it, so a walk reuses the tables regeneration built, here on
        the benchmark's ``top-e1000`` trace, where they are largest."""
        part = build_uniflow_partition(random_computation(seed=1, n=10, events=1000, p=0.3))
        reg = regenerate_vector_clocks(part)
        assert reg is part
        packing, rows, lengths = part.packing, part.lower_rows, part.chain_lengths
        guards = packing.guards
        assert sum(traverse_rank_range(part, 997, 1000).per_rank.values()) == 200
        assert part.packing is packing and part.packing.guards is guards
        assert part.lower_rows is rows and part.chain_lengths is lengths

    def test_crossing_process_chains_rejected(self, crossing):
        # event 4 (P1#2) receives from event 2 (P2#1), one chain higher
        with pytest.raises(UsageError, match=r"event 4 on chain 1 depends on event 2 on chain 2, a higher chain"):
            regenerate_vector_clocks(partition_from_chains(crossing, crossing.chains))

    def test_downward_message_rejected(self, downward_msg):
        # event 6 (P1#3) receives from event 5 (P2#3), one chain higher
        with pytest.raises(UsageError, match=r"event 6 on chain 1 depends on event 5 on chain 2, a higher chain"):
            regenerate_vector_clocks(partition_from_chains(downward_msg, downward_msg.chains))

    def test_later_event_on_own_chain_rejected(self, downward_msg):
        # event 5 sits below event 4 on its chain, but event 4 is its
        # predecessor, so the chain is out of causal order
        part = partition_from_chains(downward_msg, [(1, 2), (3, 5, 4, 6)])
        with pytest.raises(UsageError, match=r"event 4 on chain 2 does not happen after event 5 below it"):
            regenerate_vector_clocks(part)

    @pytest.mark.parametrize("edit", [
        lambda chains: chains[:-1] + (chains[-1][:-1],),
        lambda chains: chains[:-1] + (chains[-1] + (99,),),
        lambda chains: chains[:-1] + (chains[-1] + (chains[0][-1],),),
    ], ids=["missing-event", "foreign-id", "event-on-two-chains"])
    @pytest.mark.parametrize("read", [
        lambda part, visits: regenerate_vector_clocks(part),
        lambda part, visits: traverse_rank_range(
            part, 0, part.event_count, lambda *visit: visits.append(visit)),
        lambda part, visits: get_successor((0,) * part.n_u, 0, part),
        lambda part, visits: is_consistent((0,) * part.n_u, part),
        lambda part, visits: remap((0,) * part.n_u, part),
    ], ids=["regenerate", "walk", "get_successor", "is_consistent", "remap"])
    def test_chains_must_hold_each_event_once(self, three_chain, edit, read):
        """The online chains with one event dropped, one id that is not an
        event, or one event on two chains: every reader of the clocks
        raises the gate's error before any visit."""
        part = UniflowPartition(three_chain, edit(build_uniflow_partition(three_chain).chains))
        visits = []
        with pytest.raises(UsageError, match=(
            r"^the chains do not hold each event exactly once; the partition is not uniflow$"
        )):
            read(part, visits)
        assert visits == []

    def test_chain_of_is_derived_not_given(self, three_chain):
        part = build_uniflow_partition(three_chain)
        assert part.chain_of == {
            eid: c for c, chain in enumerate(part.chains, start=1) for eid in chain}
        with pytest.raises(TypeError, match="chain_of"):
            UniflowPartition(source=three_chain, chains=part.chains, chain_of=part.chain_of)



def pack(values, width: int) -> int:
    """``values`` packed by shifts, component ``t`` at bit ``width * t``:
    the layout :class:`ClockPacking` states, written out directly."""
    return sum(v << width * t for t, v in enumerate(values))


class TestClockPacking:
    @pytest.mark.parametrize("longest,size", [
        (127, 1), (128, 2), (32_767, 2), (32_768, 4), (2**31 - 1, 4), (2**31, 8),
    ])
    def test_width_boundaries(self, longest, size):
        """The fields are the narrowest whose guard bit stays clear for
        values up to the longest chain.  At each boundary, ``unpack`` inverts
        the layout, and ``max`` is the componentwise max, the largest value
        included, also with an operand of fewer fields, and, on fewer
        guards, of the fields those guards cover."""
        packing = ClockPacking.for_longest(longest, 4)
        assert packing.size == size
        w = packing.width
        a = (longest, 0, longest - 1, 1)
        b = (longest - 1, longest, longest, 0)
        for v in (a, b):
            assert tuple(packing.unpack(pack(v, w), 4)) == v
        top = packing.max(pack(a, w), pack(b, w), packing.guards[4])
        assert tuple(packing.unpack(top, 4)) == (longest, longest, longest, 1)
        top = packing.max(pack(a, w), pack(b[:2], w), packing.guards[4])
        assert tuple(packing.unpack(top, 4)) == (longest, longest, longest - 1, 1)
        top = packing.max(pack(a, w), pack(b[:2], w), packing.guards[2])
        assert top == pack((longest, longest), w)


def checked_uniflow(part) -> bool:
    """Whether clock regeneration accepts the partition, asserted equal to
    the pairwise oracle's verdict."""
    try:
        regenerate_vector_clocks(part)
    except UsageError as exc:
        assert "not uniflow" in str(exc)
        verdict = False
    else:
        verdict = True
    assert verdict == verify_uniflow_pairwise(part), part.chains
    return verdict


class TestVerifyUniflow:
    """The uniflow check that clock regeneration makes, against the
    pairwise oracle and the closure check."""

    def test_upward_two_chain_partition(self, six_event):
        assert checked_uniflow(identity_partition(six_event)) is True

    def test_upward_three_chain_partition(self, three_chain):
        assert checked_uniflow(identity_partition(three_chain)) is True

    def test_crossing_partition_rejected(self, crossing):
        assert checked_uniflow(partition_from_chains(crossing, crossing.chains)) is False

    def test_downward_message_rejected(self, downward_msg):
        assert checked_uniflow(partition_from_chains(downward_msg, downward_msg.chains)) is False

    def test_downward_message_repartitioned(self, downward_msg):
        # moving the late receiver onto the upper chain restores the property
        part = partition_from_chains(downward_msg, [(1, 2), (3, 4, 5, 6)])
        assert checked_uniflow(part) is True

    def test_unordered_chains_rejected(self, six_event):
        # a chain out of causal order, one holding two concurrent events, and
        # one repeating an event, which does not happen after itself
        assert checked_uniflow(partition_from_chains(six_event, [(2, 1, 3), (4, 5, 6)])) is False
        assert checked_uniflow(partition_from_chains(six_event, [(1, 2, 3, 4), (5, 6)])) is False
        repeated = UniflowPartition(source=six_event, chains=((1, 1, 2, 3), (4, 5, 6)))
        assert checked_uniflow(repeated) is False

    def test_swapped_chains_rejected(self, three_chain):
        # the lowest chain sends upward, so moving it to the top breaks the property
        chains = three_chain.chains
        assert checked_uniflow(partition_from_chains(three_chain, chains[1:] + chains[:1])) is False

    def test_agrees_with_closure_check(self):
        for seed in range(6):
            comp = random_computation(seed, n=3, events=12, p=0.4)
            part = build_uniflow_partition(comp)
            assert checked_uniflow(part) == eq1_holds_by_closure(part)
            ident = partition_from_chains(comp, comp.chains)
            assert checked_uniflow(ident) == eq1_holds_by_closure(ident)

    def test_fifty_event_partitions_pass_closure_check(self):
        for seed in (201, 202):
            comp = random_computation(seed, n=6, events=50, p=0.3)
            for part in (build_uniflow_partition(comp), trivial_partition(comp)):
                assert checked_uniflow(part)
                assert eq1_holds_by_closure(part)


class TestTrivialPartition:
    def test_one_chain_per_event(self, six_event):
        part = trivial_partition(six_event)
        assert part.n_u == 6
        assert all(len(c) == 1 for c in part.chains)
        assert checked_uniflow(part)

    def test_empty_computation(self):
        comp = make_computation(2, [])
        assert trivial_partition(comp).n_u == 0

    def test_random_traces_stay_uniflow(self):
        for seed in (31, 32, 33):
            comp = random_computation(seed, n=4, events=20, p=0.3)
            part = trivial_partition(comp)
            assert checked_uniflow(part)
            assert eq1_holds_by_closure(part)


class TestUniflowFill:
    def test_fill_lowest_chain(self, three_chain):
        part = identity_partition(three_chain)
        filled = uniflow_fill(dv(1, 2, 1), 1, part)
        assert filled == dv(1, 2, 3)
        assert is_consistent(filled, part)

    def test_fill_two_chains(self, three_chain):
        part = identity_partition(three_chain)
        filled = uniflow_fill(dv(1, 2, 1), 2, part)
        assert filled == dv(1, 3, 3)
        assert is_consistent(filled, part)

    def test_zero_is_noop(self, three_chain):
        part = identity_partition(three_chain)
        assert uniflow_fill(dv(1, 2, 1), 0, part) == dv(1, 2, 1)

    def test_inconsistent_cut_rejected(self, three_chain):
        part = identity_partition(three_chain)
        with pytest.raises(UsageError, match="not consistent"):
            uniflow_fill(dv(1, 0, 0), 1, part)

    def test_lemma_holds_exhaustively(self):
        for seed in (41, 42):
            comp = random_computation(seed, n=3, events=14, p=0.3)
            part = build_uniflow_partition(comp)
            cuts = {
                event_set_to_cut(members, part)
                for members in downset_event_sets(comp)
            }
            for g in cuts:
                for k in range(part.n_u + 1):
                    assert is_consistent(uniflow_fill(g, k, part), part)

    def test_lemma_fails_without_uniflow(self, downward_msg):
        # the known counterexample: filling the lower chain of [2,2] in the
        # downward-message partition includes an event without its dependency.
        # That partition is the process chains, so the computation's own
        # clocks judge consistency in the same coordinates.
        g = dv(2, 2)
        assert is_consistent(g, downward_msg)
        lengths = downward_msg.chain_lengths
        filled = tuple(lengths[i] if i < 1 else g[i] for i in range(2))
        assert filled == dv(2, 3)
        assert not is_consistent(filled, downward_msg)


class TestCutCountInvariance:
    @pytest.mark.parametrize("seed,n,events,p", [
        (51, 2, 16, 0.3),
        (52, 3, 18, 0.3),
        (53, 4, 20, 0.0),
        (54, 4, 20, 0.7),
    ])
    def test_per_rank_counts_match_original(self, seed, n, events, p):
        comp = random_computation(seed, n, events, p)
        part = build_uniflow_partition(comp)
        assert checked_uniflow(part)
        original: dict[int, set] = {}
        repartitioned: dict[int, set] = {}
        for members in downset_event_sets(comp):
            original.setdefault(len(members), set()).add(event_set_to_cut(members, comp))
            repartitioned.setdefault(len(members), set()).add(event_set_to_cut(members, part))
        assert {r: len(s) for r, s in original.items()} == {
            r: len(s) for r, s in repartitioned.items()
        }


class TestOriginalEvents:
    def test_each_original_event_once(self):
        comp = random_computation(seed=61, n=3, events=15, p=0.3)
        assert partition_from_chains(comp, comp.chains).process_rows == tuple(
            (p_,) * len(chain) for p_, chain in enumerate(comp.chains)
        )
        part = build_uniflow_partition(comp)
        positions = [
            (comp.events[eid].process, comp.events[eid].vc[comp.events[eid].process - 1])
            for chain in part.chains
            for eid in chain
        ]
        expected = {
            (p_, k)
            for p_, chain in enumerate(comp.chains, start=1)
            for k in range(1, len(chain) + 1)
        }
        assert len(positions) == len(expected)
        assert set(positions) == expected
        assert [p_ - 1 for p_, _ in positions] == [p_ for row in part.process_rows for p_ in row]

    def test_full_cut_round_trip(self):
        for seed in (62, 63):
            comp = random_computation(seed, n=4, events=16, p=0.4)
            part = build_uniflow_partition(comp)
            assert remap(part.chain_lengths, part) == comp.chain_lengths
