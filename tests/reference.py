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

The other helpers build inputs that the online partitioner never makes
(explicit chains, the one-event-per-chain partition), state the fill lemma
the walk's top-up relies on, and parse a trace straight into a computation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
