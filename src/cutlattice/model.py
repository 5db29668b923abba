"""Core data model: events, computations, vector clocks, and cuts.

A computation is a finite set of events partially ordered by causality
(program order within a process plus message edges, transitively closed).
Events are grouped into chains; chain ``i`` of a partition occupies index
``i - 1`` of every vector in this package, so index 0 is always the lowest
chain.  Rendering is the one place where that order flips: ``format_cut``
prints the highest chain leftmost (``[c_n, ..., c_1]``), which is the
notation used throughout the docs and the golden tests.

A cut is a per-chain count vector; the cut is consistent when the counted
prefix of every chain already contains all causal predecessors of its
events.  Cuts and clocks are plain tuples of ints: they are tiny, hashable,
and cheap to compare, which the traversal code leans on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence


class UsageError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (stored-cut budget) was exceeded."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


Clock = tuple[int, ...]
Cut = tuple[int, ...]
# visitor(cut, rank, remap), where remap() gives the cut over the original
# process chains; returning False stops the enumeration.
Visitor = Callable[[Cut, int, Callable[[], Cut]], object]


@dataclass(frozen=True)
class Event:
    """One executed operation of a computation.

    ``deps`` holds direct causal predecessors only (never the transitive
    closure) and always includes the same-process predecessor when one
    exists.  ``vc`` is the vector clock over the original process chains;
    ``vc[process - 1]`` is the event's position on its process, from 1.
    """

    id: int
    process: int
    deps: frozenset[int]
    vc: Clock


@dataclass(frozen=True)
class Computation:
    """A complete computation: ``n`` process chains plus a topological order.

    Instances are immutable and safe to share between threads.  Build them
    with :func:`make_computation`; the constructor itself performs no
    validation.
    """

    n: int
    chains: tuple[tuple[int, ...], ...]
    events: Mapping[int, Event]
    topo_order: tuple[int, ...]

    @cached_property
    def event_count(self) -> int:
        return len(self.topo_order)

    @cached_property
    def chain_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)

    @cached_property
    def clock_rows(self) -> tuple[tuple[Clock, ...], ...]:
        """Per-chain vector clocks: ``clock_rows[i][k]`` is the clock of the
        (k+1)-th event on chain i+1."""
        return tuple(
            tuple(self.events[eid].vc for eid in chain) for chain in self.chains
        )


def make_computation(n: int, records: Iterable[tuple[int, int, Iterable[int]]]) -> Computation:
    """Build a validated :class:`Computation` from ``(id, process, deps)`` records.

    Records must arrive in an order consistent with causality: every
    dependency refers to an earlier record.  The same-process predecessor is
    added to ``deps`` implicitly.

    Each event's vector clock is computed as its record arrives: a copy of
    its first predecessor's clock (zeros if it has none), merged with each
    further predecessor's by one ``zip`` comprehension, with its own
    process's component set to its position there.  Most events have a
    single predecessor, the one before them on their process, so most clocks
    cost one list copy instead of a compare per component.

    This is the one check of the records' rules.  It raises
    :class:`UsageError` on a negative ``n`` and, naming the 1-based record,
    on a negative or duplicate id, a process outside ``1..n``, or a
    dependency on a record not seen before.
    """
    if n < 0:
        raise UsageError("process count must be non-negative")
    chains: list[list[int]] = [[] for _ in range(n)]
    events: dict[int, Event] = {}  # in arrival order
    for rec_no, (eid, process, deps) in enumerate(records, start=1):
        if eid < 0:
            raise UsageError(f"record {rec_no}: event id {eid} is negative")
        if eid in events:
            raise UsageError(f"record {rec_no}: duplicate event id {eid}")
        if not 1 <= process <= n:
            raise UsageError(f"record {rec_no}: process {process} outside 1..{n}")
        dep_set = set(deps)
        for d in dep_set:
            if d not in events:
                raise UsageError(
                    f"record {rec_no}: dependency {d} does not refer to an earlier event"
                )
        chain = chains[process - 1]
        if chain:
            dep_set.add(chain[-1])  # implicit same-process predecessor
        chain.append(eid)
        it = iter(dep_set)
        first = next(it, None)
        if first is None:
            acc = [0] * n
        else:
            acc = list(events[first].vc)
            for d in it:
                acc = [a if a > b else b for a, b in zip(acc, events[d].vc)]
        acc[process - 1] = len(chain)
        events[eid] = Event(eid, process, frozenset(dep_set), tuple(acc))

    return Computation(
        n=n,
        chains=tuple(tuple(c) for c in chains),
        events=events,
        topo_order=tuple(events),
    )


def happened_before(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff clock ``a`` causally precedes clock ``b``.

    Componentwise ``a <= b`` with at least one strictly smaller component.
    """
    if len(a) != len(b):
        raise UsageError(f"clock lengths differ: {len(a)} vs {len(b)}")
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def concurrent(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff neither clock precedes the other.

    Identical vectors compare as concurrent under this definition; two
    distinct events can never carry identical clocks, so callers must not
    feed the same event's clock on both sides and expect a meaningful answer.
    """
    return not happened_before(a, b) and not happened_before(b, a)


def is_consistent(cut: Sequence[int], source) -> bool:
    """True iff ``cut`` is a consistent cut of ``source``.

    ``source`` is anything exposing ``chain_lengths`` and ``clock_rows``
    (a :class:`Computation` or a uniflow partition).  The check uses the
    frontier events' clocks: chain ``i``'s ``k``-th event must have a clock
    componentwise ``<=`` the cut.  Only the components a clock row holds
    are compared.  A computation's rows hold every component.  A uniflow
    partition's rows hold the lower clocks, and the rest of each clock
    always fits: its own component is ``k`` and the ones above are 0.
    """
    lengths = source.chain_lengths
    if len(cut) != len(lengths):
        raise UsageError(f"cut has {len(cut)} entries for {len(lengths)} chains")
    for i, k in enumerate(cut):
        if k < 0 or k > lengths[i]:
            raise UsageError(f"cut entry {k} outside 0..{lengths[i]} on chain {i + 1}")
    rows = source.clock_rows
    for i, k in enumerate(cut):
        if k:
            for v, c in zip(rows[i][k - 1], cut):
                if v > c:
                    return False
    return True


def format_cut(cut: Sequence[int]) -> str:
    """Render a cut with the highest chain leftmost, per the display convention."""
    return "[" + ",".join(str(c) for c in reversed(tuple(cut))) + "]"
