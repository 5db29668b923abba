"""Core model: clocks, causality predicates, cuts, and their invariants."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutlattice.model import (
    UsageError,
    concurrent,
    format_cut,
    happened_before,
    is_consistent,
    make_computation,
)
from cutlattice.uniflow import build_uniflow_partition

from conftest import (
    closure_predecessors,
    oracle_vector_clock,
    random_computation,
)
from reference import cut_from_display, fold_clocks_per_component


def dv(*values):
    """Figure notation -> internal chain order."""
    return cut_from_display(values)


class TestHappenedBefore:
    def test_message_edge(self):
        assert happened_before(dv(0, 2), dv(2, 2)) is True

    def test_concurrent_pair(self):
        assert happened_before(dv(1, 0), dv(0, 1)) is False

    def test_irreflexive(self):
        assert happened_before(dv(0, 2), dv(0, 2)) is False

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            happened_before((1, 2), (1, 2, 3))


class TestConcurrent:
    def test_concurrent_pair(self):
        assert concurrent(dv(1, 0), dv(0, 1)) is True

    def test_ordered_pair(self):
        assert concurrent(dv(0, 2), dv(2, 2)) is False

    def test_identical_clocks_definitional_edge(self):
        # identical vectors are concurrent under the definition; real event
        # clocks are never identical, so this input pattern is forbidden
        assert concurrent((0, 0), (0, 0)) is True


class TestIsConsistent:
    def test_three_included_events_consistent(self, six_event):
        assert is_consistent(dv(1, 2), six_event) is True

    def test_receive_without_send_inconsistent(self, six_event):
        assert is_consistent(dv(2, 1), six_event) is False

    def test_empty_cut(self, six_event):
        assert is_consistent((0, 0), six_event) is True

    def test_out_of_range(self, six_event):
        with pytest.raises(UsageError):
            is_consistent((4, 0), six_event)
        with pytest.raises(UsageError):
            is_consistent((0, 0, 0), six_event)


class TestComputeVectorClocks:
    def test_message_updates_clocks(self, six_event):
        assert six_event.events[5].vc == dv(2, 2)  # f
        assert six_event.events[6].vc == dv(3, 2)  # g

    def test_single_event(self):
        comp = make_computation(2, [(1, 1, [])])
        assert comp.events[1].vc == dv(0, 1)

    def test_matches_transitive_closure_oracle(self):
        comp = random_computation(seed=20260808, n=4, events=18, p=0.4)
        preds = closure_predecessors(comp)
        for eid in comp.topo_order:
            assert comp.events[eid].vc == oracle_vector_clock(comp, eid, preds)

    @pytest.mark.parametrize("seed,events", [(1, 1000), (6, 100)], ids=["top-e1000", "desk"])
    def test_fold_matches_per_component_reference(self, seed, events):
        """``make_computation``'s clocks and regeneration's lower clocks are
        exactly the slow fold's tuples.  Regeneration stores only the
        components of each uniflow clock below the event's own chain: the
        slow fold's own component is the event's position there, and every
        higher one is 0."""
        comp = random_computation(seed, n=10, events=events, p=0.3)
        part = build_uniflow_partition(comp)
        evs = comp.events
        position = {eid: k for chain in comp.chains for k, eid in enumerate(chain, start=1)}
        original = [
            (eid, evs[eid].deps, evs[eid].process - 1, position[eid])
            for eid in comp.topo_order
        ]
        uniflow = []
        for ci, chain in enumerate(part.chains):
            for k, eid in enumerate(chain):
                preds = evs[eid].deps | {chain[k - 1]} if k else evs[eid].deps
                uniflow.append((eid, preds, ci, k + 1))
        arrival = {eid: i for i, eid in enumerate(comp.topo_order)}
        uniflow.sort(key=lambda step: arrival[step[0]])
        expected = fold_clocks_per_component(original, comp.n)
        assert all(type(evs[eid].vc) is tuple for eid in comp.topo_order)
        assert {eid: evs[eid].vc for eid in comp.topo_order} == expected
        expected = fold_clocks_per_component(uniflow, part.n_u)
        for eid, _, ci, k in uniflow:
            assert type(part.clock_rows[ci][k - 1]) is tuple
            assert part.clock_rows[ci][k - 1] == expected[eid][:ci]
            assert expected[eid][ci:] == (k,) + (0,) * (part.n_u - ci - 1)


class TestMakeComputationValidation:
    def test_duplicate_id(self):
        with pytest.raises(UsageError, match="duplicate"):
            make_computation(1, [(1, 1, []), (1, 1, [])])

    def test_forward_dependency(self):
        with pytest.raises(UsageError, match="earlier"):
            make_computation(1, [(1, 1, [2]), (2, 1, [])])

    def test_bad_process(self):
        with pytest.raises(UsageError, match="process"):
            make_computation(2, [(1, 3, [])])

    def test_negative_process_count(self):
        with pytest.raises(UsageError, match="^process count must be non-negative$"):
            make_computation(-1, [])

    def test_implicit_same_chain_predecessor(self):
        comp = make_computation(1, [(1, 1, []), (2, 1, [])])
        assert 1 in comp.events[2].deps


class TestOrderInvariants:
    @pytest.mark.parametrize("seed,n,events,p", [
        (1, 2, 12, 0.3),
        (2, 3, 15, 0.5),
        (3, 4, 20, 0.3),
        (4, 5, 20, 0.0),
    ])
    def test_trichotomy_exhaustive(self, seed, n, events, p):
        comp = random_computation(seed, n, events, p)
        clocks = [comp.events[eid].vc for eid in comp.topo_order]
        for a, b in itertools.combinations(clocks, 2):
            outcomes = [happened_before(a, b), happened_before(b, a), concurrent(a, b)]
            assert outcomes.count(True) == 1

    def test_happened_before_transitive(self):
        comp = random_computation(seed=5, n=3, events=18, p=0.5)
        clocks = [comp.events[eid].vc for eid in comp.topo_order]
        for a, b, c in itertools.permutations(clocks, 3):
            if happened_before(a, b) and happened_before(b, c):
                assert happened_before(a, c)

    @pytest.mark.parametrize("seed,n,events,p", [(6, 2, 10, 0.4), (7, 3, 12, 0.3)])
    def test_is_consistent_matches_literal_downset_definition(self, seed, n, events, p):
        comp = random_computation(seed, n, events, p)
        preds = closure_predecessors(comp)
        ranges = [range(m + 1) for m in comp.chain_lengths]
        for cut in itertools.product(*ranges):
            members = {
                eid
                for i, chain in enumerate(comp.chains)
                for eid in chain[: cut[i]]
            }
            literal = all(preds[e] <= members for e in members)
            assert is_consistent(cut, comp) == literal


clock_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.tuples(*[st.integers(0, 8)] * k),
        st.tuples(*[st.integers(0, 8)] * k),
    )
)


@given(clock_pairs)
def test_happened_before_asymmetric(pair):
    a, b = pair
    assert not (happened_before(a, b) and happened_before(b, a))


@given(st.lists(st.integers(0, 9), max_size=6))
def test_display_round_trip(values):
    cut = cut_from_display(values)
    assert format_cut(cut) == "[" + ",".join(map(str, values)) + "]"


def test_format_cut_reads_highest_chain_first():
    assert format_cut(dv(1, 2)) == "[1,2]"
    assert format_cut(()) == "[]"
