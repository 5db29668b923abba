"""Rank-by-rank traversal of the consistent-cut lattice in constant cut storage.

Works over a uniflow partition with regenerated vector clocks.  For each rank
the walk starts at the lexically smallest consistent cut of that rank and
repeatedly steps to the lexical successor at the same rank, so the whole
lattice (or any rank slice) is enumerated without ever storing a level.

:func:`traverse_rank_range` holds a fixed set of buffers, whatever the size
of the lattice:

- the current cut, one mutable list of ``n_u`` counts that each successor
  step rewrites in place, and the lower part of the candidate the step is
  testing, with the slice of the bumped event's clock it is built from;
- with a visitor, the tuple snapshot of the current cut handed to it;
- the projection rows: a step that bumps chain ``i + 1`` reads only the
  first ``i`` components of ``proj[i]``, and those are at most the
  componentwise max of the uniflow clocks of the frontier events on chains
  ``i + 1..n_u``: the row folds the clocks of events that successor steps put
  in place, never of frontiers that only a top-up did.  A row a step wrote
  holds exactly ``i`` components; a stale row is the row above itself, one
  shared object, and is cut short where it is read.  So the rows hold at
  most ``n_u * (n_u - 1) / 2`` integers of their own, since ``proj[0]`` is
  never read, and fewer when rows alias;
- once a visitor has called ``remap()``, the original-clock table: row ``i``
  is the componentwise max of the *original* vector clocks of the frontier
  events on chains ``i + 1..n_u``, ``n * n_u`` integers.

A step that bumps chain ``i`` changes the cut on chains ``1..i`` only, so
every row above ``i`` stays valid in both tables.  The step rewrites the
projection row it read, and the rows below that are refreshed at one site,
the top of the next visit; after a rank's seed that site refreshes every
row.  The refresh never folds and never copies: one slice assignment points
every stale projection row at the row above, so neither a chain nor a
component costs anything there.  Aliasing is sound because no row object is
mutated after it is stored; a step replaces its row with a new list.  The
original-clock rows are refreshed only when ``remap()`` is called, from the
highest chain any step has bumped since the last call.  A chain whose count
does not exceed component ``i`` of the projection row above adds nothing to
its original-clock row, which then copies the row above: its frontier event
precedes a higher frontier event, whose clock covers its own.  A projection
row that holds less only makes that test fold more often.  The stats report
both the cut and the integer counts, so tests can assert the space claim
instead of trusting it.

A visitor is any callable ``visitor(cut, rank, remap)``.  ``cut`` is a tuple
over the uniflow chains, and ``remap()`` translates it to the original
process chains.  During the visit ``remap()`` returns row 0 of the
original-clock table: a uniflow chain is totally ordered by causality, so the
clock of its frontier event already covers every earlier event on the chain.
Both the table and the one-shot :func:`remap` read the partition's
``origin_rows``, the original clock of every event laid out chain by chain.
A ``remap`` kept and called after its visit has ended falls back to the
one-shot :func:`remap` of its own cut, so it still returns that cut's image.
Returning ``False`` from the visitor stops the traversal early; any other
return value continues it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .model import Clock, Cut, UsageError, is_consistent
from .uniflow import UniflowPartition

Visitor = Callable[[Cut, int, Callable[[], Cut]], object]


@dataclass
class TraversalStats:
    """Counters and space accounting for one traversal.

    Only :func:`traverse_rank_range` writes the counters, once per rank.
    ``per_rank``, ``min_cut_calls`` and ``successor_calls`` are keyed by
    rank, which is how rank-slice isolation is asserted; a rank takes one
    successor step per visit, one fewer when the visitor stopped the walk
    there.  ``component_ops`` counts the walk's inner-loop vector-component
    operations (candidate tests, top-ups and remap folds) and backs the
    per-cut cost measurements.  ``peak_live_cuts`` /
    ``aux_int_peak`` are the cut vectors and auxiliary integers the walk
    retains at once.  ``aux_int_peak`` is the size of the triangular
    projection rows, ``n_u * (n_u - 1) / 2``, plus ``n * n_u`` once the
    original-clock table exists: an upper bound on the integers the rows
    hold, which aliased rows can only lower.
    """

    cuts_visited: int = 0
    per_rank: dict[int, int] = field(default_factory=dict)
    min_cut_calls: dict[int, int] = field(default_factory=dict)
    successor_calls: dict[int, int] = field(default_factory=dict)
    component_ops: int = 0
    peak_live_cuts: int = 0
    aux_int_peak: int = 0
    early_stopped: bool = False
    elapsed_s: float = 0.0


def _fill_to_rank(buf: list[int], d: int, lengths: Sequence[int]) -> int:
    """Add ``d`` events bottom-up, taking as much of each low chain as fits.

    The chains must have room for ``d`` more events.  Returns the number of
    chains visited, which is what the component-op counters charge.
    """
    j = 0
    while d:
        cap = lengths[j] - buf[j]
        take = d if d < cap else cap
        buf[j] += take
        d -= take
        j += 1
    return j


def get_min_cut(g: Sequence[int], r: int, part: UniflowPartition) -> Cut:
    """Lexically smallest consistent cut of rank ``r`` at or above ``g``.

    ``g`` must be consistent.  The missing ``r - rank(g)`` events are taken
    from the lowest chains first; on a uniflow partition that preserves
    consistency (the retained upper entries never depend on higher chains).
    """
    rk = sum(g)
    if r < rk:
        raise UsageError(f"target rank {r} below the cut's rank {rk}")
    if r > part.event_count:
        raise UsageError(f"target rank {r} exceeds the event count {part.event_count}")
    buf = list(g)
    _fill_to_rank(buf, r - rk, part.chain_lengths)
    return tuple(buf)


def get_successor(g: Sequence[int], r: int, part: UniflowPartition) -> Cut | None:
    """Least consistent cut of rank ``r`` lexically above ``g``, or ``None``.

    ``g`` must be a consistent cut of rank ``r``.  Candidate chains are tried
    from the second-lowest upward: bump the chain by one event, drop all
    lower chains, then pull the lower components back up to the causal
    closure of every retained frontier event.  The first candidate whose rank
    still fits is topped up to rank ``r`` and returned.

    This is the plain reference that the walk in
    :func:`traverse_rank_range` is checked against.
    """
    rows = part.clock_rows
    lengths = part.chain_lengths
    n_u = len(lengths)
    K: list[int] | None = None
    for i in range(1, n_u):
        if g[i] >= lengths[i]:
            continue
        if K is None:
            K = list(g)
        else:
            K[:] = g
        K[i] += 1
        for t in range(i):
            K[t] = 0
        for j in range(i, n_u):
            kj = K[j]
            if kj:
                vc = rows[j][kj - 1]
                for t in range(i):
                    v = vc[t]
                    if v > K[t]:
                        K[t] = v
        rk = sum(K)
        if rk <= r:
            _fill_to_rank(K, r - rk, lengths)
            return tuple(K)
    return None


def remap(g_u: Sequence[int], part: UniflowPartition) -> Cut:
    """Translate a consistent uniflow cut to the original process chains.

    The result is the unique consistent cut of the source computation with
    the same event set: the componentwise max of the original clocks of the
    frontier events (``part.origin_rows``), which covers every non-frontier
    event through causal closure.
    """
    if not is_consistent(g_u, part):
        raise UsageError(f"cut {tuple(g_u)} is not consistent in this partition")
    return _remap_unchecked(g_u, part)


def _remap_unchecked(g_u: Sequence[int], part: UniflowPartition) -> Cut:
    out: Clock = (0,) * part.source.n
    for row, k in zip(part.origin_rows, g_u):
        if k:
            out = tuple([a if a > b else b for a, b in zip(row[k - 1], out)])
    return out


def traverse_bfs(part: UniflowPartition, visitor: Visitor | None = None) -> TraversalStats:
    """Visit every consistent cut once, in rank-major lexical-minor order.

    Starts at the empty cut and walks each rank's lexical chain from its
    minimum.
    """
    return traverse_rank_range(part, 0, part.event_count, visitor)


def traverse_rank_range(
    part: UniflowPartition, r1: int, r2: int, visitor: Visitor | None = None
) -> TraversalStats:
    """Visit exactly the consistent cuts with ``r1 <= rank <= r2``, each once.

    Every rank is seeded independently from the empty cut, so no work
    happens at ranks outside the requested range.
    """
    if not 0 <= r1 <= r2 <= part.event_count:
        raise UsageError(
            f"rank range {r1}..{r2} invalid for a computation of {part.event_count} events"
        )
    if part.uvc is None:
        raise UsageError("partition has no uniflow vector clocks; regenerate them first")
    stats = TraversalStats()
    start = time.perf_counter()
    rows = part.clock_rows
    lengths = part.chain_lengths
    n_u = part.n_u
    n = part.source.n
    # The projection rows; as in the table, the last row stands for no chains.
    proj: list[Sequence[int]] = [[]] * n_u + [[0] * n_u]
    proj_ints = n_u * (n_u - 1) // 2
    zero = (0,) * n
    table: list[Clock] | None = None  # the original-clock table, built on first remap()
    origin: Sequence[Sequence[Clock]] = ()  # original clocks along each uniflow chain
    stale = n_u  # rows 0..stale - 1 of the table may be out of date
    current: Cut | None = None  # the snapshot of the visit in progress
    remap_ops = 0

    def remap_visit(snap: Cut) -> Cut:
        nonlocal table, origin, stale, remap_ops
        if snap is not current:
            return _remap_unchecked(snap, part)
        if table is None:
            table = [zero] * (n_u + 1)  # the last row stands for no chains
            origin = part.origin_rows
            stale = n_u
        above = table[stale]
        for i in range(stale - 1, -1, -1):
            k = snap[i]
            # proj[i + 1][i]: how far up chain i the higher frontiers reach
            if k > proj[i + 1][i]:
                above = tuple([a if a > b else b for a, b in zip(origin[i][k - 1], above)])
                remap_ops += n
            table[i] = above
        stale = 0
        return above

    cuts = 0
    live = 2 if visitor is None else 3  # cut, candidate lower part, snapshot
    for r in range(r1, r2 + 1):
        g = [0] * n_u
        ops = _fill_to_rank(g, r, lengths)
        top = n_u  # rows 1..top - 1 are stale; a fresh seed stales them all
        stale = n_u
        visits = 0
        while True:
            # Refresh the stale projection rows; row 0 is never read.  A
            # stale row is the row above, with no fold: the only frontiers a
            # fold would add are on chains a top-up reached, and no step
            # reads them (see the step below).  The rows alias that one row
            # object, which is safe because no row is mutated once stored;
            # a step reads only the first i components of proj[i].
            if top > 1:
                proj[1:top] = [proj[top]] * (top - 1)
            visits += 1
            if visitor is not None:
                current = snap = tuple(g)
                stop = visitor(snap, r, partial(remap_visit, snap)) is False
                current = None
                if stop:
                    stats.early_stopped = True
                    break
            # Step to the lexical successor in place, trying chains from the
            # second-lowest upward.  Bumping chain i + 1 makes the new lower
            # part the componentwise max of the bumped event's clock and
            # proj[i]: the causal closure of every retained frontier event.
            # proj[i] misses only frontiers that a top-up (or the seed) put
            # on chains up to the highest one it reached, and no step needs
            # them: the chains below that one are full and cannot be bumped,
            # bumping that one adds an event that covers its old frontier, and
            # bumping a higher chain rewrites them all.
            # The bump adds one event, so the candidate's rank fits iff its
            # lower part holds fewer events than g[:i], a running prefix sum.
            pre = 0
            for i in range(1, n_u):
                pre += g[i - 1]
                ki = g[i]
                if ki < lengths[i]:
                    # proj[i] may alias a longer row; zip stops at the i
                    # components of the clock's lower part.
                    lower = [a if a > b else b for a, b in zip(proj[i], rows[i][ki][:i])]
                    ops += i
                    low = sum(lower)
                    if low < pre:
                        g[:i] = lower
                        g[i] = ki + 1
                        # The bumped event's clock covers the old frontier's
                        # on its chain, so the lower part before the top-up
                        # is the new proj[i].
                        proj[i] = lower
                        if low + 1 < pre:
                            ops += _fill_to_rank(g, pre - 1 - low, lengths)
                        break
            else:
                break  # g is the lexical maximum of its rank
            top = i  # chains 1..i + 1 changed, so rows 1..i - 1 are stale
            if i >= stale:
                stale = i + 1
        cuts += visits
        stats.per_rank[r] = visits
        stats.min_cut_calls[r] = visits
        steps = visits - 1 if stats.early_stopped else visits
        if steps:
            stats.successor_calls[r] = steps
        stats.component_ops += ops + remap_ops
        remap_ops = 0
        stats.peak_live_cuts = live
        stats.aux_int_peak = proj_ints + (n * n_u if table is not None else 0)
        if stats.early_stopped:
            break
    stats.cuts_visited = cuts
    stats.elapsed_s = time.perf_counter() - start
    return stats
