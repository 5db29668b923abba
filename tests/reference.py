"""Test-only references: code the tests use and the program does not.

``compute_projections`` rebuilds the full projection rows of one cut
directly from the uniflow clocks, each padded to its full width.  The walk in
:func:`cutlattice.traversal.traverse_rank_range` keeps these rows
incrementally: a row a step wrote holds only the components the next step
reads, and a stale row aliases the row above, so the walk's rows are checked
against these only up to the prefix the walk reads.

``fold_clocks_per_component`` is the plain vector-clock fold, one compare
per component of every predecessor, that
:func:`cutlattice.model.fold_clocks` must match exactly.

``verify_uniflow_pairwise`` is the quadratic uniflow check, every pair of
events compared by their original clocks, that the linear
:func:`cutlattice.uniflow.verify_uniflow` must agree with.

``min_uniflow_chains`` is the exact least chain count of any uniflow
partition, by a dynamic program over order ideals, that the online
partitioner's ``n_u`` is checked against.

``plain_successor_walk`` runs the plain min-cut/successor loop over a rank
window and records the chain each step bumps, the chains each seed or
top-up fills and the component ops the walk's charging rule gives those
steps, so the walk's counters are checked
against a loop that shares none of its shortcuts.

The other helpers build inputs that the online partitioner never makes
(explicit chains, the one-event-per-chain partition), state the fill lemma
the walk's top-up relies on, and parse a trace straight into a computation.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from cutlattice.model import (
    Clock,
    Computation,
    Cut,
    UsageError,
    happened_before,
    is_consistent,
    make_computation,
)
from cutlattice.traceio import parse_document
from cutlattice.traversal import get_min_cut, get_successor
from cutlattice.uniflow import UniflowPartition, regenerate_vector_clocks


def compute_projections(g: Sequence[int], part: UniflowPartition) -> list[Clock]:
    """Accumulated causal projections of a cut's frontier, one row per chain.

    Row ``i`` (index ``i - 1``) combines the full clocks
    (:meth:`~cutlattice.uniflow.UniflowPartition.full_clock`) of the frontier
    events on chains ``i..n_u``; only components ``1..i - 1`` of a row are
    ever consumed.  The bottom row always reproduces the cut itself.  Empty
    chains contribute nothing (their row aliases the row above).
    """
    n_u = part.n_u
    proj: list[Clock] = [()] * n_u
    above: Clock = (0,) * n_u
    for i in range(n_u - 1, -1, -1):
        k = g[i]
        if k:
            vc = part.full_clock(part.chains[i][k - 1])
            above = tuple(a if a > b else b for a, b in zip(vc, above))
        proj[i] = above
    return proj


class PlainWalk(NamedTuple):
    cuts: list[tuple[int, Cut]]  # (rank, cut) in visit order
    steps: list[int | None]  # the 1-based chain each cut's step bumped; None for a seed
    # The lowest and highest 1-based chains that each cut's seed or top-up
    # added events to; None where it added none.
    fills: list[tuple[int, int] | None]
    ops: int  # component ops under the walk's charging rule

    @property
    def bumped(self) -> Counter[int]:
        """Steps per bumped chain."""
        return Counter(c for c in self.steps if c is not None)


def plain_successor_walk(
    part: UniflowPartition, r1: int, r2: int, visits: int | None = None
) -> PlainWalk:
    """The plain min-cut/successor loop over ranks ``r1..r2``, with the
    chain each of its steps bumps, the chains each seed or top-up fills and
    the component ops.

    ``visits`` stops the loop after that many cuts, as a visitor returning
    ``False`` on that visit stops the walk: no step is taken after it.

    The ops follow the rule :class:`~cutlattice.traversal.TraversalStats`
    states, derived here from each step's input and output only.  A seed or
    a top-up costs one op per chain from chain 1 to the highest one it adds
    an event to.  A step tests every chain from chain 2 up that is not full,
    until one fits; testing chain ``i + 1`` costs ``i`` ops, the length of
    its lower part.  A rank's last cut tests every chain that is not full
    and finds none.
    """
    rows = part.clock_rows
    lengths = part.chain_lengths
    n_u = part.n_u
    cuts: list[tuple[int, Cut]] = []
    steps: list[int | None] = []
    fills: list[tuple[int, int] | None] = []
    ops = 0

    def filled(before: Sequence[int], after: Sequence[int]) -> tuple[int, int] | None:
        """The lowest and highest 1-based chains where the two cuts differ."""
        moved = [t + 1 for t in range(n_u) if after[t] != before[t]]
        return (moved[0], moved[-1]) if moved else None

    def reached(fill: tuple[int, int] | None) -> int:
        return fill[1] if fill else 0

    for r in range(r1, r2 + 1):
        g: Cut | None = get_min_cut((0,) * n_u, r, part)
        fill = filled((0,) * n_u, g)
        ops += reached(fill)
        chain = None
        while g is not None:
            cuts.append((r, g))
            steps.append(chain)
            fills.append(fill)
            if len(cuts) == visits:
                return PlainWalk(cuts, steps, fills, ops)
            nxt = get_successor(g, r, part)
            b = n_u if nxt is None else reached(filled(nxt, g)) - 1  # the bumped index
            ops += sum(i for i in range(1, min(b + 1, n_u)) if g[i] < lengths[i])
            if nxt is not None:
                chain = b + 1
                # The candidate before its top-up: the bumped chain and those
                # above it as in the successor, the lower ones pulled up to
                # the closure of the frontier events on them.
                frontier = [rows[c][nxt[c] - 1] for c in range(b, n_u) if nxt[c]]
                cand = [max((vc[t] for vc in frontier), default=0) for t in range(b)]
                fill = filled(cand + list(nxt[b:]), nxt)
                ops += reached(fill)
            g = nxt
    return PlainWalk(cuts, steps, fills, ops)


def min_uniflow_chains(comp: Computation) -> int:
    """The least ``n_u`` of any uniflow partition of ``comp``, by a DP over
    (order ideal, last event).

    Listing a uniflow partition's chains one after another gives a linear
    extension of the events in which each chain is a run of events, each
    happening after the one before it.  Conversely, cutting any linear
    extension between every two neighbours that are concurrent gives a
    uniflow partition.  So the least ``n_u`` is one more than the fewest
    such cuts over all linear extensions: the poset's jump number plus one.
    The DP goes one rank at a time.  A state is an order ideal, held as a
    consistent cut of the source computation, and the process of the event
    placed last, which is that process's frontier event; its value is the
    fewest cuts of an extension of the ideal that ends with that event.
    The states are the lattice's cuts times ``n``, so this suits only small
    computations.
    """
    if not comp.event_count:
        return 0
    chains = comp.chains
    vcs = [[comp.events[eid].vc for eid in chain] for chain in chains]
    n = comp.n

    def placements(cut: Cut):
        """(ideal with one more event, its process, its clock) for every
        event that can be placed next."""
        for q in range(n):
            k = cut[q]
            if k < len(chains[q]):
                grown = cut[:q] + (k + 1,) + cut[q + 1:]
                vc = vcs[q][k]
                if all(v <= c for v, c in zip(vc, grown)):
                    yield grown, q, vc

    level: dict[tuple[Cut, int], int] = {
        (grown, q): 0 for grown, q, _ in placements((0,) * n)
    }
    for _ in range(comp.event_count - 1):
        nxt: dict[tuple[Cut, int], int] = {}
        for (cut, p), jumps in level.items():
            last = vcs[p][cut[p] - 1]
            for grown, q, vc in placements(cut):
                value = jumps if happened_before(last, vc) else jumps + 1
                key = (grown, q)
                if value < nxt.get(key, value + 1):
                    nxt[key] = value
        level = nxt
    return 1 + min(level.values())


def fold_clocks_per_component(
    steps: Iterable[tuple[int, Iterable[int], int, int]], width: int
) -> dict[int, Clock]:
    """Vector clocks over ``(id, preds, chain, position)`` steps, the slow way.

    Every event starts from zeros and takes the max of each component of
    each predecessor in turn; component ``chain`` is then set to
    ``position``.  Same contract as :func:`cutlattice.model.fold_clocks`.
    """
    clocks: dict[int, list[int]] = {}
    for eid, preds, chain, position in steps:
        acc = [0] * width
        for d in preds:
            dvc = clocks[d]
            for i in range(width):
                if dvc[i] > acc[i]:
                    acc[i] = dvc[i]
        acc[chain] = position
        clocks[eid] = acc
    return {eid: tuple(acc) for eid, acc in clocks.items()}


def verify_uniflow_pairwise(part: UniflowPartition) -> bool:
    """The uniflow property checked pair by pair against the original clocks.

    True iff every chain is totally ordered by causality and no event on a
    higher chain happened-before an event on a lower chain.  Quadratic in the
    event count.
    """
    events = part.source.events
    for chain in part.chains:
        for a, b in zip(chain, chain[1:]):
            if not happened_before(events[a].vc, events[b].vc):
                return False
    flat = [
        (ci, events[eid].vc)
        for ci, chain in enumerate(part.chains, start=1)
        for eid in chain
    ]
    for ci, vci in flat:
        for cj, vcj in flat:
            if ci < cj and happened_before(vcj, vci):
                return False
    return True


def partition_from_chains(
    comp: Computation, chains: Sequence[Sequence[int]]
) -> UniflowPartition:
    """Wrap explicitly given chains as a partition (clocks not yet filled).

    The chains must partition the event set exactly; no uniflow property is
    assumed or checked here (that is ``verify_uniflow``'s job).
    """
    flat = [eid for chain in chains for eid in chain]
    if len(flat) != comp.event_count or set(flat) != set(comp.events):
        raise UsageError("chains do not partition the computation's events")
    chain_of = {
        eid: ci for ci, chain in enumerate(chains, start=1) for eid in chain
    }
    return UniflowPartition(
        source=comp,
        chains=tuple(tuple(chain) for chain in chains),
        chain_of=chain_of,
    )


def trivial_partition(comp: Computation) -> UniflowPartition:
    """Every event on its own chain, ordered by a causality-respecting sort.

    Events are sorted lexically by their original clocks (highest chain most
    significant); any lexical order extends causal dominance, so the result
    is always uniflow.  Clocks over the new chains are filled in.  With
    ``n_u`` equal to the event count, it gives the walk its longest runs of
    aliased projection rows.
    """
    order = sorted(
        comp.topo_order,
        key=lambda eid: (tuple(reversed(comp.events[eid].vc)), comp.events[eid].process),
    )
    chains = tuple((eid,) for eid in order)
    chain_of = {eid: i for i, eid in enumerate(order, start=1)}
    part = UniflowPartition(source=comp, chains=chains, chain_of=chain_of)
    return regenerate_vector_clocks(part)


def uniflow_fill(g: Sequence[int], k: int, part: UniflowPartition) -> Cut:
    """Top up the ``k`` lowest chains of a consistent cut.

    Returns the cut that keeps ``g``'s entries above chain ``k`` and takes
    every event from chains ``1..k``.  On a uniflow partition this is always
    consistent: the retained upper entries have all their dependencies on
    lower chains, which are now complete.  ``k = 0`` is a no-op.
    """
    if not is_consistent(g, part):
        raise UsageError(f"cut {tuple(g)} is not consistent in this partition")
    if not 0 <= k <= part.n_u:
        raise UsageError(f"chain index {k} outside 0..{part.n_u}")
    lengths = part.chain_lengths
    return tuple(lengths[i] if i < k else g[i] for i in range(part.n_u))


def parse_trace(data: bytes | str) -> Computation:
    """Parse and validate a trace file into a ready :class:`Computation`.

    Vector clocks are computed; all format-level rejects carry positions via
    ``TraceError``.
    """
    doc = parse_document(data)
    return make_computation(doc.n, doc.records)
