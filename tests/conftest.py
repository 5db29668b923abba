"""Shared fixtures: small reference computations and independent oracles.

The oracle helpers here deliberately do not reuse the library's vector-clock
or enumeration machinery: causality is materialized as explicit transitive
closures and downsets are enumerated over event *sets*, so the product code
is checked against an implementation it shares nothing with.
"""

from __future__ import annotations

import pytest

from cutlattice.model import Computation, make_computation
from cutlattice.traceio import GenSpec, generate_random
from cutlattice.uniflow import UniflowPartition

from reference import partition_from_chains


@pytest.fixture
def six_event() -> Computation:
    """Two processes, three events each, one message from P1#2 to P2#2.

    The canonical twelve-cut example: per-rank counts 1,2,2,2,2,2,1.
    """
    return make_computation(
        2,
        [
            (1, 1, []),  # a
            (2, 1, []),  # b
            (3, 1, []),  # c
            (4, 2, []),  # e
            (5, 2, [2]),  # f, receives from b
            (6, 2, []),  # g
        ],
    )


@pytest.fixture
def crossing() -> Computation:
    """Two processes, two events each, messages crossing both ways.

    Original partition is not uniflow; the online partitioner spreads it
    over three chains.  Seven consistent cuts.
    """
    return make_computation(
        2,
        [
            (1, 1, []),  # a
            (2, 2, []),  # e
            (3, 2, [1]),  # f, receives from a
            (4, 1, [2]),  # b, receives from e
        ],
    )


@pytest.fixture
def three_chain() -> Computation:
    """Three chains of three with upward messages only; uniflow as drawn.

    Cross edges: P2#2 -> P3#1, P1#1 -> P2#3, P1#2 -> P3#3.
    """
    return make_computation(
        3,
        [
            (1, 1, []),
            (2, 1, []),
            (3, 1, []),
            (4, 2, []),
            (5, 2, []),
            (6, 2, [1]),
            (7, 3, [5]),
            (8, 3, []),
            (9, 3, [2]),
        ],
    )


@pytest.fixture
def three_chain_mid() -> Computation:
    """Like three_chain but the P2 message lands on P3#2, not P3#1."""
    return make_computation(
        3,
        [
            (1, 1, []),
            (2, 1, []),
            (3, 1, []),
            (4, 2, []),
            (5, 2, []),
            (6, 2, [1]),
            (7, 3, []),
            (8, 3, [5]),
            (9, 3, [2]),
        ],
    )


@pytest.fixture
def downward_msg() -> Computation:
    """Two chains of three with one downward message; not uniflow as given.

    Cross edges: P1#2 -> P2#2 (upward) and P2#3 -> P1#3 (downward).
    """
    return make_computation(
        2,
        [
            (1, 1, []),  # e
            (2, 1, []),  # f
            (3, 2, []),  # a
            (4, 2, [2]),  # b, receives from f
            (5, 2, []),  # c
            (6, 1, [5]),  # g, receives from c
        ],
    )


def identity_partition(comp: Computation) -> UniflowPartition:
    """The original process chains wrapped as a partition."""
    return partition_from_chains(comp, comp.chains)


def random_computation(seed: int, n: int, events: int, p: float) -> Computation:
    return generate_random(GenSpec(n=n, total_events=events, message_probability=p, seed=seed))


# --- independent oracles -------------------------------------------------


def closure_predecessors(comp: Computation) -> dict[int, frozenset[int]]:
    """Transitive closure of the dependency relation, event by event."""
    preds: dict[int, frozenset[int]] = {}
    for eid in comp.topo_order:
        acc: set[int] = set()
        for d in comp.events[eid].deps:
            acc.add(d)
            acc |= preds[d]
        preds[eid] = frozenset(acc)
    return preds


def oracle_vector_clock(comp: Computation, eid: int, preds=None) -> tuple[int, ...]:
    """Clock of one event by counting closed predecessors per process."""
    if preds is None:
        preds = closure_predecessors(comp)
    members = preds[eid] | {eid}
    counts = [0] * comp.n
    for m in members:
        counts[comp.events[m].process - 1] += 1
    return tuple(counts)


def downset_event_sets(comp: Computation) -> list[frozenset[int]]:
    """All downsets of the event poset, as explicit event sets."""
    order = comp.topo_order
    events = comp.events
    out: list[frozenset[int]] = []
    included: set[int] = set()

    def extend(idx: int) -> None:
        if idx == len(order):
            out.append(frozenset(included))
            return
        ev = events[order[idx]]
        extend(idx + 1)
        if ev.deps <= included:
            included.add(ev.id)
            extend(idx + 1)
            included.discard(ev.id)

    extend(0)
    return out


def event_set_to_cut(members: frozenset[int], source) -> tuple[int, ...]:
    """Project an event set onto a partition's per-chain counts."""
    counts = [0] * len(source.chains)
    if isinstance(source, UniflowPartition):
        chain_of = source.chain_of
        for eid in members:
            counts[chain_of[eid] - 1] += 1
    else:
        for eid in members:
            counts[source.events[eid].process - 1] += 1
    return tuple(counts)


def oracle_rank_sets(comp: Computation, source=None) -> dict[int, set[tuple[int, ...]]]:
    """Per-rank consistent cut vectors over ``source`` (default: original)."""
    source = comp if source is None else source
    by_rank: dict[int, set[tuple[int, ...]]] = {}
    for members in downset_event_sets(comp):
        cut = event_set_to_cut(members, source)
        by_rank.setdefault(len(members), set()).add(cut)
    return by_rank
