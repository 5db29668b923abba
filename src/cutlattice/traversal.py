"""Rank-by-rank traversal of the consistent-cut lattice in constant cut storage.

Works over a uniflow partition with regenerated vector clocks.  The walk
reads only what the partition stores of them, the lower clocks: for an event
on chain ``i + 1``, the ``i`` components on the chains below it.  For each
rank the walk starts at the lexically smallest consistent cut of that rank
and repeatedly steps to the lexical successor at the same rank, so the whole
lattice (or any rank slice) is enumerated without ever storing a level.

:func:`traverse_rank_range` holds a fixed set of buffers, whatever the size
of the lattice:

- the current cut, one mutable list of ``n_u`` counts that each successor
  step rewrites in place, and the lower part of the candidate the step is
  testing, built from the bumped event's lower clock;
- with a visitor, the tuple snapshot of the current cut handed to it;
- the projection rows: a step that bumps chain ``i + 1`` reads only the
  first ``i`` components of ``proj[i]``, and those are at most the
  componentwise max of the uniflow clocks of the frontier events on chains
  ``i + 1..n_u``: the row folds the clocks of events that successor steps put
  in place, never of frontiers that only a top-up did, nor of the chain-2
  events that the inline chain-2 step put in place (see below).  A row a
  step wrote holds exactly ``i`` components; a stale row is the row above
  itself, one shared object, and is cut short where it is read.  So the rows hold at
  most ``n_u * (n_u - 1) / 2`` integers of their own, since ``proj[0]`` is
  never read, and fewer when rows alias;
- once a visitor has called ``remap()``, the event counts: the number of
  events of each source process in one uniflow cut, ``n`` integers, and
  that cut, ``n_u`` integers.

A step that bumps chain ``i`` changes the cut on chains ``1..i`` only, so
every projection row above ``i`` stays valid.  The step rewrites the
projection row it read, and the rows below that are refreshed at one site,
the top of the next visit; after a rank's seed that site refreshes every
row.  The refresh never folds and never copies: one slice assignment points
every stale projection row at the row above, so neither a chain nor a
component costs anything there.  Aliasing is sound because no row object is
mutated after it is stored; a step replaces its row with a new list.  The
event counts are moved only when ``remap()`` is called, on the chains up to
the highest one any step has bumped since the last call, or on every chain
after a rank's seed: each event between the counted cut's count of a chain
and the current one adds or removes one on its process.  A chain whose
count moved by exactly one event, as chains 1 and 2 do on every inline
chain-2 step, changes one count by indexing ``process_rows`` directly; a
larger move walks a slice of it.  The stats report both the cut and the
integer counts, so tests can assert the space claim instead of trusting it.

A step skips only chains that are full, so it takes exactly the plain
successor's steps.  A top-up, and a rank's seed, fills chains from the
bottom and leaves every chain below the highest one it reached full.  A full
chain cannot be bumped, so the next step's candidate scan starts at that
highest chain, or at chain 2 if it is lower; after a step with no top-up it
starts at chain 2.  The top-up itself starts at the lowest chain of the new
lower part that has room, since the full chains below it would take
nothing; nearly always that is chain 1.  The component-op counter still
charges a top-up for every chain from chain 1 to the highest one it
reached, as the plain top-up visits them, so the counts match the
reference.

On low-``n_u`` windows most steps bump chain 2 (33,785 of the 55,364 on
the ``slice-d100`` benchmark window), so the walk steps chain 2 inline,
before the general scan, whenever chain 2 can have room.  Its lower part
is one integer, so the candidate is one compare,
``max(proj[1][0], c) < g[0]`` for the bumped event's lower clock ``(c,)``,
and on success chain 1 loses one event and chain 2 gains one: the top-up,
when there is one, refills chain 1 to ``g[0] - 1``.  Only this step reads
``proj[1]``, and it never writes it.  The lower clocks along a chain are
nondecreasing, so the clock of the event it bumps next covers the clock of
the one it bumped, and ``max(P, c_k, c_k+1) = max(P, c_k+1)``: folding
``c_k`` in would change no candidate.  A step above chain 2 rewrites ``proj[1]`` through the refresh.
The inline step charges the ops the general scan would (one for the
candidate, one for a top-up), so every counter is the plain successor's.

A visitor is any callable ``visitor(cut, rank, remap)``.  ``cut`` is a tuple
over the uniflow chains, and ``remap()`` translates it to the original
process chains.  A consistent cut is a downset, so the events of each process
it holds are a prefix of that process's chain, and component ``p`` of the
original cut is just the number of events of process ``p`` in the cut.
The ``remap`` handed to a visit is the walk's one remap function bound, as
a method, to that visit's snapshot.
During the visit ``remap()`` returns the event counts, moved from the cut of
the last call to this one; the one-shot :func:`remap` counts each chain's
prefix from the empty cut.  Both read the partition's ``process_rows``, the
process of every event laid out chain by chain.  A ``remap`` kept and called
after its visit has ended falls back to the one-shot :func:`remap` of its own
cut, so it still returns that cut's image.  Returning ``False`` from the
visitor stops the traversal early; any other return value continues it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress, count
from operator import lt
from typing import Callable, Sequence

from .model import Cut, UsageError, is_consistent
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
    operations (candidate tests, top-ups and remap events) and backs the
    per-cut cost measurements.  A top-up is charged one op per chain up to
    the highest one it fills, the full chains below its start included, so
    the count does not depend on where the step starts its loops, and a
    tested candidate one op per component of its lower part, so the inline
    chain-2 step charges one op for its candidate, one for its top-up and
    none when chain 2 is full, as the general scan would; a remap is
    charged one op per event it adds or removes.
    ``peak_live_cuts`` / ``aux_int_peak`` are the cut vectors and auxiliary
    integers the walk retains at once.  ``aux_int_peak`` is the size of the
    triangular projection rows, ``n_u * (n_u - 1) / 2``, plus ``n + n_u``
    once the event counts exist: an upper bound on the integers the rows
    hold, which aliased rows can only lower, and exactly the counts and the
    cut they describe.
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


def _fill_to_rank(buf: list[int], d: int, lengths: Sequence[int], j: int = 0) -> int:
    """Add ``d`` events bottom-up from ``buf[j]``, taking as much of each
    chain as fits.

    The chains from index ``j`` up must have room for ``d`` more events.  A
    caller that starts above index 0 must know ``buf[:j]`` to be full, so
    the result is the one a top-up from index 0 gives.  Returns one past the
    index of the last chain visited; the component-op counters charge that
    many chains, as if the top-up had started at index 0.  Every chain below
    the last one visited is full afterwards.
    """
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
    the same event set.  A consistent cut is a downset, so the events of
    each process it holds are a prefix of that process's chain: component
    ``p`` of the result is the number of events of process ``p`` in the cut,
    counted along the uniflow chains (``part.process_rows``).
    """
    if not is_consistent(g_u, part):
        raise UsageError(f"cut {tuple(g_u)} is not consistent in this partition")
    return _remap_unchecked(g_u, part)


def _remap_unchecked(g_u: Sequence[int], part: UniflowPartition) -> Cut:
    counts = [0] * part.source.n
    for procs, k in zip(part.process_rows, g_u):
        for p in procs[:k]:
            counts[p] += 1
    return tuple(counts)


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
    # The projection rows; the last row stands for no chains.
    proj: list[Sequence[int]] = [[]] * n_u + [[0] * n_u]
    proj_ints = n_u * (n_u - 1) // 2
    # Built on the first remap(): the events per process of the cut `seen`.
    counts: list[int] | None = None
    seen: list[int] = []
    # part.process_rows, read on the first remap(): reading it builds it.
    procs: Sequence[Sequence[int]] = ()
    stale = n_u  # chains 1..stale of the cut may differ from seen
    current: Cut | None = None  # the snapshot of the visit in progress
    remap_ops = 0

    def remap_visit(snap: Cut) -> Cut:
        # Bound to the visit's snapshot as a method, so `snap` is its self.
        nonlocal counts, seen, procs, stale, remap_ops
        if snap is not current:
            return _remap_unchecked(snap, part)
        if counts is None:
            counts = [0] * n
            seen = [0] * n_u
            procs = part.process_rows
        # Move counts and seen from seen to snap on chains 1..stale.  Each
        # event between the two counts of a chain adds or removes one on
        # its process; a one-event move, as every chain-2 step makes on
        # chains 1 and 2, indexes the chain's processes directly.
        moved = 0
        for t in range(stale):
            k = snap[t]
            s = seen[t]
            if k == s:
                continue
            seen[t] = k
            if k == s + 1:
                counts[procs[t][s]] += 1
                moved += 1
            elif k == s - 1:
                counts[procs[t][k]] -= 1
                moved += 1
            elif k > s:
                for p in procs[t][s:k]:
                    counts[p] += 1
                moved += k - s
            else:
                for p in procs[t][k:s]:
                    counts[p] -= 1
                moved += s - k
        remap_ops += moved
        stale = 0
        return tuple(counts)

    bind = remap_visit.__get__  # bind(snap) is remap_visit bound to snap

    if n_u > 1:
        rows1 = rows[1]  # chain 2's lower clocks, one component each
        len1 = lengths[1]
    upper = range(2, n_u)  # the general scan's chains, 3..n_u
    cuts = 0
    live = 2 if visitor is None else 3  # cut, candidate lower part, snapshot
    for r in range(r1, r2 + 1):
        g = [0] * n_u
        j = ops = _fill_to_rank(g, r, lengths)  # chains 1..j - 1 are full
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
                stop = visitor(snap, r, bind(snap)) is False
                current = None
                if stop:
                    stats.early_stopped = True
                    break
            # Step to the lexical successor in place, trying chains upward
            # from the lowest one not known to be full.  Bumping chain i + 1
            # makes the new lower part the componentwise max of the bumped
            # event's clock and proj[i]: the causal closure of every retained
            # frontier event.
            # proj[i] misses only frontiers that a top-up (or the seed) put
            # on chains up to the highest one it reached, and no step needs
            # them: the chains below that one are full and cannot be bumped,
            # bumping that one adds an event that covers its old frontier, and
            # bumping a higher chain rewrites them all.
            # The bump adds one event, so the candidate's rank fits iff its
            # lower part holds fewer events than g[:i], a running prefix sum.
            # The last top-up (or the seed) reached chain j and left chains
            # 1..j - 1 full.  A full chain cannot be bumped, so the scan
            # starts at chain j (index j - 1), with the prefix sum of the
            # chains below it.  If j < 3, chain 2 may have room, so the
            # inline chain-2 step goes first and the scan, if it fails,
            # starts at chain 3.  After a step with no top-up, j is 0.
            if j < 3:
                if n_u < 2:
                    break  # one chain or none: the rank holds one cut
                # The inline chain-2 step (see the module docstring): one
                # compare, and on success chain 1 loses one event whether
                # or not the top-up refills it.  It charges what the general
                # scan would: 1 op for the candidate, 1 for a top-up, none
                # if chain 2 is full.  Only this step reads proj[1], and it
                # never writes it: lower clocks grow along a chain, so
                # max(P, c_k, c_k+1) = max(P, c_k+1).
                g0 = g[0]
                k = g[1]
                if k < len1:
                    ops += 1
                    low = proj[1][0]
                    c = rows1[k][0]
                    if c > low:
                        low = c
                    if low < g0:
                        g[0] = g0 - 1
                        g[1] = k + 1
                        if low + 1 < g0:
                            ops += 1  # the top-up reached chain 1
                            j = 1
                        else:
                            j = 0
                        top = 1  # chains 1..2 changed; no row is stale
                        if stale < 2:
                            stale = 2
                        continue
                pre = g0
                scan = upper
            else:
                pre = sum(g[: j - 2])
                scan = range(j - 1, n_u)
            for i in scan:
                pre += g[i - 1]
                ki = g[i]
                if ki < lengths[i]:
                    # The bumped event's lower clock holds exactly i
                    # components, so zip stops there even where proj[i]
                    # aliases a longer row.
                    lower = [a if a > b else b for a, b in zip(proj[i], rows[i][ki])]
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
                            # Top up from the lowest chain of the lower part
                            # with room; the full chains below it would take
                            # nothing.  Chains 1..i held pre events before the
                            # step, so the top-up fits in them and that chain
                            # exists.  Nearly always it is chain 1.
                            t = 0 if lower[0] < lengths[0] else next(
                                compress(count(), map(lt, lower, lengths)))
                            j = _fill_to_rank(g, pre - 1 - low, lengths, t)
                            ops += j
                        else:
                            j = 0
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
        stats.aux_int_peak = proj_ints + (n + n_u if counts is not None else 0)
        if stats.early_stopped:
            break
    stats.cuts_visited = cuts
    stats.elapsed_s = time.perf_counter() - start
    return stats
