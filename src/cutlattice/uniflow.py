"""Uniflow chain partitions.

A chain partition is *uniflow* when causality only ever flows upward:
whenever chain(x) < chain(y), y never happened-before x.  Equivalently,
every causal dependency of an event sits on the same chain below it or on a
strictly lower chain.  Partitions with this shape admit the constant-space
rank traversal in :mod:`cutlattice.traversal`, because topping up any prefix
of low chains can never violate consistency.

The partition is built online, one arriving event at a time
(``find_uniflow_chain`` / ``build_uniflow_partition``).  The partitioner
starts each event at its process's position in the *net-outflow order*
(:func:`net_outflow_order`): processes that send more messages than they
receive come first, so senders tend to sit on low chains and receivers above
them, where their messages flow upward without opening fresh chains.  It is
a measured heuristic that usually lowers the chain count.  It does not aim
for the minimum chain count; that optimization problem is out of scope.

A partition is its source computation and its chains; every other table is
derived from them on first read, ``chain_of`` too.  A consistent cut holds a
prefix of each process's events, so counting its events per process along
``process_rows``, each event's process chain by chain, gives the original.

``UniflowPartition.lower_rows`` gives each event its vector clock over the
uniflow chains, of which it stores only the *lower clock*: the components on
the chains below the event's own.  That is all the walk reads, and on a
uniflow partition the rest is fixed (the event's position, then zeros).
Building the table, once, on first read, is also the one check of the
property, in time linear in the events and their direct dependencies: the
chains must hold each event once, each after the one below it, and no direct
dependency may sit on a higher chain.  Causality is the transitive closure
of the direct dependencies, so every causal path then only goes upward.
:func:`regenerate_vector_clocks` builds it ahead of a walk.

Each lower clock is stored packed into one int (:class:`ClockPacking`).
Component ``t`` (0-based) sits in bits ``[W*t, W*t + W)``.  A component
counts events on one chain, so it is at most the longest chain, and ``W =
8 * size`` for the smallest ``size`` in 1, 2, 4 or 8 bytes with ``longest <
2**(W - 1)``: the top bit of every field, its guard, stays 0.  With ``G``
the guards of the fields in use, three lines give the componentwise max of
two packed clocks ``a`` and ``b``::

    d = ((a | G) - b) & G       # a field's guard survives iff a >= b there
    m = d - (d >> (W - 1))      # ... and spreads to the field's value bits
    max = b ^ ((a ^ b) & m)     # a where m is set, b elsewhere

Regeneration merges each lower dependency with one such max, and the
walk's general scan takes one per tested candidate; its top-up takes the
first line alone against the packed chain lengths.  ``clock_rows`` decodes
the table into tuples for every other reader.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Sequence

from .model import (
    Clock,
    Computation,
    Event,
    UsageError,
)


@dataclass(frozen=True)
class ClockPacking:
    """How a lower clock over ``count`` or fewer chains packs into one int.

    Component ``t`` (0-based) sits in bits ``[W*t, W*t + W)``, where the
    field width ``W = 8 * size`` comes from :meth:`for_longest`.  The top
    bit of each field is a guard that stored values leave at 0, which is
    what lets :meth:`max` take a componentwise max in a few big-int
    operations.
    """

    size: int  # bytes per field: 1, 2, 4 or 8
    count: int  # the most fields a packed clock holds

    @classmethod
    def for_longest(cls, longest: int, count: int) -> ClockPacking:
        """The narrowest fields whose values, at most ``longest``, leave
        the guard bit clear: ``longest < 2**(W - 1)``.  No chain that fits
        in memory is too long for 64-bit fields."""
        for size in (1, 2, 4):
            if longest < 1 << (8 * size - 1):
                return cls(size, count)
        return cls(8, count)

    @property
    def width(self) -> int:
        return 8 * self.size

    @cached_property
    def guards(self) -> tuple[int, ...]:
        """``guards[i]`` has the guard bit of each of the first ``i`` fields
        set."""
        w = self.width
        ones = ((1 << w * self.count) - 1) // ((1 << w) - 1)  # bit 0 of each field
        return tuple((ones & ((1 << w * i) - 1)) << (w - 1) for i in range(self.count + 1))

    def max(self, a: int, b: int, guard: int) -> int:
        """The componentwise max of two packed clocks with clear guard bits,
        on the fields of ``guard``, one of :attr:`guards`.  ``b`` must hold
        no other field; fields of ``a`` beyond them are left out of the
        result.

        The first line is a compare: setting the guards of ``a`` and
        subtracting ``b`` leaves a field's guard set iff its ``a``
        component is at least its ``b`` component, and no field borrows
        from the next.  A borrow only moves up, so for the compare alone
        ``b`` may hold fields beyond the guards: the walk compares a
        candidate with the packed chain lengths that way, to find its
        lowest field below its chain's length.  In the max the guards spread
        to a mask of those fields, which picks ``a`` there and ``b``
        elsewhere (Lamport, "Multiple byte processing with full-word
        instructions", CACM 1975)."""
        d = ((a | guard) - b) & guard
        return b ^ ((a ^ b) & (d - (d >> self.width - 1)))

    def unpack(self, x: int, count: int) -> Sequence[int]:
        """The first ``count`` components of ``x``, as a sequence of ints."""
        raw = x.to_bytes(count * self.size, "little")
        if self.size == 1:
            return raw  # a bytes object iterates as its ints
        fields = array(_TYPECODES[self.size], raw)
        if sys.byteorder == "big":
            fields.byteswap()
        return fields


# The array typecode of each field size, read from this platform.
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


@dataclass(frozen=True)
class UniflowPartition:
    """A repartition of a computation's events into ``n_u`` chains.

    It is its ``source`` and ``chains``, where ``chains[i]`` lists event ids
    in chain order for chain ``i + 1``; :attr:`chain_of` is derived.
    ``lower_rows[i][k]`` is the *lower clock* of the (k+1)-th event on chain
    ``i + 1``: the ``i`` components of its vector clock over the uniflow
    chains that lie below its own chain, packed into one int by
    :attr:`packing`.  The walk reads no other component.  Events along a
    chain share one int until an event with a dependency on a lower chain
    starts a new one.  ``clock_rows`` is the same table decoded into tuples,
    for readers that are not the walk, and :meth:`full_clock` gives the
    whole ``n_u``-wide clock for display.  ``process_rows`` holds each
    event's 0-based source process, laid out like ``clock_rows``; it is what
    :func:`cutlattice.traversal.remap` and the walk's ``remap()`` count.

    Instances are immutable and safe to share between threads: each table
    is computed once, on first read, and two threads racing on one compute
    equal values.  A failed uniflow check is not kept: each read raises.
    """

    source: Computation
    chains: tuple[tuple[int, ...], ...]

    @property
    def n_u(self) -> int:
        return len(self.chains)

    @cached_property
    def chain_of(self) -> Mapping[int, int]:
        """Each event id's 1-based chain (the higher, for an id on two)."""
        return {eid: c for c, chain in enumerate(self.chains, start=1) for eid in chain}

    @cached_property
    def event_count(self) -> int:
        return self.source.event_count

    @cached_property
    def chain_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)

    @cached_property
    def full_below(self) -> tuple[int, ...]:
        """``full_below[k]`` is the number of events on chains ``1..k``: the
        rank of the first ``k`` components of a cut whose chains ``1..k``
        are full."""
        return tuple(accumulate(self.chain_lengths, initial=0))

    @cached_property
    def packing(self) -> ClockPacking:
        """The packing of the lower clocks: no component exceeds the
        longest chain, and none has more than ``n_u - 1`` fields."""
        return ClockPacking.for_longest(max(self.chain_lengths, default=0), max(self.n_u - 1, 0))

    @cached_property
    def packed_lengths(self) -> int:
        """The lengths of chains ``1..n_u - 1``, packed like a lower clock,
        for the packed compare of :meth:`ClockPacking.max`."""
        w = self.packing.width
        return sum(n << w * t for t, n in enumerate(self.chain_lengths[:-1]))

    @cached_property
    def process_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per-chain source processes: ``process_rows[i][k]`` is the 0-based
        process of the (k+1)-th event on chain i+1, ``|E|`` ints in all."""
        events = self.source.events
        return tuple(tuple(events[eid].process - 1 for eid in chain) for chain in self.chains)

    @cached_property
    def lower_rows(self) -> tuple[tuple[int, ...], ...]:
        """The packed lower clock of every event, chain by chain.

        An event's uniflow vector clock counts its causal past on each
        uniflow chain, the event included, with the event below it on its
        chain taken as one more predecessor.  Beyond its lower clock it is
        fixed on a uniflow partition: component ``c``, for an event on chain
        ``c``, is its position there, and every higher one is 0, since no
        dependency sits on a higher chain.

        This is where the partition is checked to be uniflow, or raises
        :class:`UsageError`.  The chains must hold each event once
        (``chain_of`` has one id per entry, and the events' ids), each after
        the event below it by the O(1) Fidge-Mattern test of
        :func:`find_uniflow_chain`, ``below.vc[q] <= ev.vc[q]`` with ``q =
        below.process - 1``; no direct dependency may sit on a higher chain.
        A dependency later on the event's own chain needs no test of its
        own: it leaves some pair on that chain out of order.

        The clocks are built chain by chain, bottom to top, which lists
        every predecessor first, and each is appended to its chain's row as
        it is made, packed into one int by :attr:`packing`.  An event with
        no dependency on a lower chain has the lower clock of the event
        below it, and shares that int.  Any other event starts from it (0 at
        the bottom of a chain) and merges in each lower dependency ``d`` on
        chain ``t`` by one packed max: ``d``'s lower clock,
        ``rows[t - 1][position[d] - 1]``, on components ``1..t - 1`` and
        ``d``'s position on component ``t``.
        """
        events = self.source.events
        chain_of = self.chain_of
        if len(chain_of) != self.full_below[-1] or chain_of.keys() != events.keys():
            raise UsageError(
                "the chains do not hold each event exactly once; the partition is not uniflow"
            )
        packing = self.packing
        guards = packing.guards
        w = packing.width
        pmax = packing.max
        rows: list[tuple[int, ...]] = []
        position: dict[int, int] = {}  # filled as the chains are walked
        for c, chain in enumerate(self.chains, start=1):
            guard = guards[c - 1]
            row: list[int] = []
            low = 0  # the lower clock of the event below
            below: Event | None = None
            for k, eid in enumerate(chain, start=1):
                ev = events[eid]
                if below is not None:
                    q = below.process - 1
                    if below.vc[q] > ev.vc[q]:
                        raise UsageError(
                            f"event {eid} on chain {c} does not happen after event {below.id} "
                            "below it; the partition is not uniflow"
                        )
                for d in ev.deps:
                    t = chain_of[d]
                    if t < c:
                        p = position[d]
                        b = rows[t - 1][p - 1] | p << w * (t - 1)
                        low = pmax(low, b, guard)
                    elif t > c:
                        raise UsageError(
                            f"event {eid} on chain {c} depends on event {d} on chain {t}, "
                            "a higher chain; the partition is not uniflow"
                        )
                row.append(low)
                position[eid] = k
                below = ev
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def clock_rows(self) -> tuple[tuple[Clock, ...], ...]:
        """``lower_rows`` decoded: ``clock_rows[i][k]`` is the lower clock
        of the (k+1)-th event on chain i+1 as an ``i``-tuple.  Equal clocks
        on one chain share one tuple."""
        unpack = self.packing.unpack
        rows = []
        for i, row in enumerate(self.lower_rows):
            decoded = {x: tuple(unpack(x, i)) for x in set(row)}
            rows.append(tuple(map(decoded.__getitem__, row)))
        return tuple(rows)

    def full_clock(self, eid: int) -> Clock:
        """The event's whole vector clock over the ``n_u`` uniflow chains:
        its lower clock, then its position on its own chain, then zeros."""
        c = self.chain_of[eid]
        k = self.chains[c - 1].index(eid) + 1
        return self.clock_rows[c - 1][k - 1] + (k,) + (0,) * (self.n_u - c)


def net_outflow_order(events: Mapping[int, Event]) -> tuple[int, ...]:
    """The processes that own events, by net outflow, highest first.

    A dependency ``d`` of event ``e`` on another process counts +1 for
    ``d``'s process and -1 for ``e``'s.  Ties keep the lower process id first.
    """
    net: dict[int, int] = {}
    for ev in events.values():
        p = ev.process
        net.setdefault(p, 0)
        for d in ev.deps:
            sender = events[d].process
            if sender != p:
                net[sender] = net.get(sender, 0) + 1
                net[p] -= 1
    return tuple(sorted(net, key=lambda proc: (-net[proc], proc)))


@dataclass
class PartitionerState:
    """Mutable working state of the online partitioner.

    Single-owner: feed events sequentially through
    :func:`find_uniflow_chain`.  ``start`` maps each process to its 1-based
    position in :func:`net_outflow_order` of ``events``, the chain its events
    are first tried on.  Chain ids may be sparse while building;
    :func:`build_uniflow_partition` compacts them at the end.
    """

    events: Mapping[int, Event]
    start: dict[int, int] = field(init=False)
    chains: dict[int, list[int]] = field(default_factory=dict)
    chain_of: dict[int, int] = field(default_factory=dict)
    maxid: int = 0

    def __post_init__(self) -> None:
        order = net_outflow_order(self.events)
        self.start = {p: pos for pos, p in enumerate(order, start=1)}


def find_uniflow_chain(event: Event, state: PartitionerState) -> int:
    """Place one event on a uniflow chain and return the chain id.

    Events must arrive in an order consistent with causality (all
    dependencies already placed), otherwise the concurrency test against only
    the last chain event would be unsound.  The candidate chain is the max of
    the event's start chain (its process's position in the net-outflow order,
    ``state.start``) and its dependencies' uniflow chains; if that chain's
    last event is concurrent with the new one, a fresh chain is opened above
    all existing ones.  Any start keeps the partition uniflow; the order only
    aims to open fewer fresh chains, with no guarantee of the fewest.

    The concurrency test is O(1).  Causal delivery means the new event cannot
    precede ``last``, an earlier arrival, so the two are concurrent exactly
    when ``last`` does not precede the event.  By the Fidge-Mattern property
    of vector clocks, ``last`` precedes a distinct event iff the event's
    clock counts ``last`` on ``last``'s own process:
    ``last.vc[q] <= event.vc[q]`` with ``q = last.process - 1``.
    """
    uid = state.start[event.process]
    for d in event.deps:
        placed = state.chain_of.get(d)
        if placed is None:
            raise UsageError(
                f"event {event.id}: dependency {d} not yet placed; "
                "deliver events in a causality-consistent order"
            )
        if placed > uid:
            uid = placed
    chain = state.chains.get(uid)
    if chain is None:
        cid = uid
        state.chains[uid] = [event.id]
        if uid > state.maxid:
            state.maxid = uid
    else:
        last = state.events[chain[-1]]
        q = last.process - 1
        if last.vc[q] > event.vc[q]:
            state.maxid += 1
            cid = state.maxid
            state.chains[cid] = [event.id]
        else:
            cid = uid
            chain.append(event.id)
    state.chain_of[event.id] = cid
    return cid


def build_uniflow_partition(comp: Computation) -> UniflowPartition:
    """Run the online partitioner over the whole computation.

    Events are delivered in ``topo_order``, and the chains are then listed
    in id order, which compacts their sparse ids to ``1..n_u``.  The lower
    clocks are built, and the partition checked, on the first read of
    ``lower_rows``.
    """
    state = PartitionerState(events=comp.events)
    for eid in comp.topo_order:
        find_uniflow_chain(comp.events[eid], state)
    chains = tuple(tuple(state.chains[cid]) for cid in sorted(state.chains))
    return UniflowPartition(source=comp, chains=chains)


def regenerate_vector_clocks(part: UniflowPartition) -> UniflowPartition:
    """Check that the chains hold each event once and are uniflow, build
    their lower clocks and return the same partition, by reading
    ``part.lower_rows``: a failure raises its :class:`UsageError` here, and
    a walk finds the table built.
    """
    part.lower_rows
    return part
