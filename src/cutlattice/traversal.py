"""Rank-by-rank traversal of the consistent-cut lattice in constant cut storage.

The walk runs over a uniflow partition with regenerated lower clocks.  Each
rank starts at its lexically smallest consistent cut and steps to the
lexical successor at the same rank until there is none, so the lattice, or
any rank slice, is enumerated without storing a level.

The invariants :func:`traverse_rank_range` relies on, stated once here:

- **Projection rows.**  Each row is a lower clock packed like the stored
  ones (:class:`~cutlattice.uniflow.ClockPacking`): component ``t`` in
  field ``t``, guard bits clear.  A step that bumps chain ``i + 1`` takes
  as the new lower part the packed max of the bumped event's lower clock
  and the first ``i`` fields of ``proj[i]``, and, but for the chain-2 step
  (below), stores it as the new ``proj[i]``.  The general scan unpacks it
  once, for its sum, the cut and the top-up.  Those components cover the
  lower clocks of the frontiers that steps put on chains ``i + 1..n_u``.
  They may miss a frontier that a top-up, or a rank's seed, put on a chain
  up to the highest one it reached, and no step needs it: the chains below
  that one are full, bumping that one adds an event that covers the old
  frontier, and bumping a higher chain replaces it.
- **Rows may alias.**  A step that bumps chain ``i + 1`` changes chains
  ``1..i + 1`` only, so the rows above ``i`` stay valid.  The refresh at the
  top of the next visit points each stale row below at the row above, one
  shared int, with no fold and no copy.  A step reads only the first ``i``
  fields of ``proj[i]``, so sharing is sound, and the rows hold at most
  ``n_u * (n_u - 1) / 2`` components of their own (``proj[0]`` is never
  read).  An aliased row holds more fields: the inline steps mask them
  off, and in the general scan the packed max's guards, on ``i`` fields,
  leave them out of its result.
- **``proj[1]`` is never written by a step.**  Only the inline chain-2 step
  reads it.  Lower clocks are nondecreasing along a chain, so the event
  chain 2 bumps next covers the one it bumped: ``max(P, c_k, c_k+1) =
  max(P, c_k+1)``.  The refresh rewrites it after a step above chain 2.
- **A step skips only full chains,** so it takes the steps of the plain
  :func:`get_successor`.  A top-up, like a rank's seed, fills chains from
  the bottom and leaves every chain below the highest one it reached, chain
  ``j``, full.  The next candidate scan starts at chain ``j``, or at chain 2
  if that is lower.  A top-up starts at the lowest chain with room.
- **Inline steps.**  The scan tests chain 2 in scalar code (one compare; a
  success moves one event from chain 1 to chain 2), then chain 3 (two
  max-compares and a compare of sums; a success stores ``proj[2]`` as two
  fields and tops up chain 1, then chain 2), then hands over to the
  general scan at chain 4.  They read fields with a shift and a mask;
  chain 2's lower clock, one field, is its int.
- **``remap()`` moves counts.**  The walk keeps the event counts of
  :func:`remap` for the cut of the last call, and moves them on the chains
  up to the highest one bumped since then (every chain after a rank's
  seed), by the events between the two cuts on each chain: a one-event move
  by one index into ``part.process_rows``, a larger one by a slice.

A visitor is any callable ``visitor(cut, rank, remap)``.  ``cut`` is a tuple
over the uniflow chains.  ``remap`` is the walk's one remap function bound,
as a method, to the visit's snapshot, and returns its original cut; called
after its visit, it hands its own cut to :func:`remap`.
Returning ``False`` stops the walk; any other value continues it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from operator import lt
from typing import Sequence

from .model import Cut, UsageError, Visitor, is_consistent
from .uniflow import UniflowPartition


@dataclass
class TraversalStats:
    """Counters and space accounting for one traversal.

    Only :func:`traverse_rank_range` writes the counters, once per rank.
    ``per_rank``, ``min_cut_calls`` and ``successor_calls`` are keyed by
    rank, which is how rank-slice isolation is asserted; a rank takes one
    successor step per visit, one fewer when the visitor stopped the walk
    there.

    ``component_ops`` counts the vector components the walk's inner loop
    handles, however it handles them.  Every step path, inline or not,
    charges by one rule, so the count is the plain successor loop's: a
    tested candidate costs one op per component of its lower part (a full
    chain is not tested), though the walk builds that part with a packed
    max of a few big-int operations; a top-up costs one per chain from
    chain 1 to the highest one it fills, the full chains below its start
    included, and a remap one per event it adds or removes.

    ``peak_live_cuts`` / ``aux_int_peak`` are the cut vectors and auxiliary
    integers the walk retains at once: the cut, the candidate's lower part
    and, with a visitor, its snapshot; the components of the triangular
    projection rows, ``n_u * (n_u - 1) / 2``, an upper bound that aliased
    rows only lower, each packed into a field of one int per row;
    and ``n + n_u`` once ``remap()`` has built the event counts and the cut
    they count.
    """

    cuts_visited: int = 0
    per_rank: dict[int, int] = field(default_factory=dict)
    min_cut_calls: dict[int, int] = field(default_factory=dict)
    successor_calls: dict[int, int] = field(default_factory=dict)
    component_ops: int = 0
    peak_live_cuts: int = 0
    aux_int_peak: int = 0
    early_stopped: bool = False


def _fill_to_rank(buf: list[int], d: int, lengths: Sequence[int], j: int = 0) -> int:
    """Add ``d`` events bottom-up from ``buf[j]``, taking as much of each
    chain as fits; return one past the index of the last chain visited.

    The chains from index ``j`` up must have room for ``d`` more events, and
    ``buf[:j]`` must be full, so the result is a top-up's from index 0.
    Every chain below the last one visited is full afterwards.
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
    counts = [0] * part.source.n
    for procs, k in zip(part.process_rows, g_u):
        for p in procs[:k]:
            counts[p] += 1
    return tuple(counts)


def traverse_bfs(part: UniflowPartition, visitor: Visitor | None = None) -> TraversalStats:
    """Visit every consistent cut once, in rank-major lexical-minor order."""
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
    stats = TraversalStats()
    rows = part.packed_rows  # raises UsageError if the clocks are not regenerated
    lengths = part.chain_lengths
    n_u = part.n_u
    n = part.source.n
    packing = part.packing
    guards = packing.guards
    w = packing.width
    w1 = w - 1
    field_mask = (1 << w) - 1
    bytewise = packing.size == 1
    unpack = packing.unpack
    # The packed projection rows; the last row stands for no chains.
    proj = [0] * (n_u + 1)
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
            return remap(snap, part)
        if counts is None:
            counts = [0] * n
            seen = [0] * n_u
            procs = part.process_rows
        # Move counts and seen to snap on chains 1..stale (module docstring).
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
        rows1 = rows[1]  # chain 2's lower clocks, one field each: the int is the component
        len1 = lengths[1]
    if n_u > 2:
        rows2 = rows[2]  # chain 3's lower clocks, two fields each
        len0 = lengths[0]
        len2 = lengths[2]
    upper = range(3, n_u)  # the general scan's chains after chain 3, 4..n_u
    cuts = 0
    live = 2 if visitor is None else 3  # cut, candidate lower part, snapshot
    for r in range(r1, r2 + 1):
        g = [0] * n_u
        j = ops = _fill_to_rank(g, r, lengths)  # chains 1..j - 1 are full
        top = n_u  # rows 1..top - 1 are stale; a fresh seed stales them all
        stale = n_u
        visits = 0
        while True:
            # Point the stale rows at the row above (module docstring).
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
            # Step to the lexical successor in place, from chain j, or from
            # chain 2 if j is lower (module docstring).  The bump adds one
            # event, so a candidate's rank fits iff its lower part holds
            # fewer events than g[:i], the running prefix sum `pre`.
            if j < 3:
                if n_u < 2:
                    break  # one chain or none: the rank holds one cut
                # The inline chain-2 step; it never writes proj[1].  Chain 1
                # ends at g0 - 1, topped up from low when low is below that.
                g0 = g[0]
                k = g[1]
                if k < len1:
                    ops += 1
                    low = proj[1] & field_mask  # proj[1] may alias a longer row
                    c = rows1[k]
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
            if j < 4:
                if n_u < 3:
                    break  # no chain above a full or unbumpable chain 2
                # The inline chain-3 step.  Its top-up fits in chains 1..2,
                # which held pre events.
                pre = g[0] + g[1]
                k = g[2]
                if k < len2:
                    ops += 2
                    p = proj[2]  # may alias a longer row
                    c = rows2[k]
                    l0 = p & field_mask
                    c0 = c & field_mask
                    if c0 > l0:
                        l0 = c0
                    l1 = p >> w & field_mask
                    c1 = c >> w
                    if c1 > l1:
                        l1 = c1
                    low = l0 + l1
                    if low < pre:
                        proj[2] = l0 | l1 << w
                        g[2] = k + 1
                        d = pre - 1 - low
                        if not d:
                            g[0] = l0
                            g[1] = l1
                            j = 0
                        elif d <= len0 - l0:
                            g[0] = l0 + d
                            g[1] = l1
                            j = 1
                        else:  # chain 1 fills up; the rest goes to chain 2
                            g[0] = len0
                            g[1] = l1 + d - (len0 - l0)
                            j = 2
                        ops += j
                        top = 2  # chains 1..3 changed, so row 1 is stale
                        if stale < 3:
                            stale = 3
                        continue
                scan = upper
            else:
                pre = sum(g[: j - 2])
                scan = range(j - 1, n_u)
            for i in scan:
                pre += g[i - 1]
                ki = g[i]
                if ki < lengths[i]:
                    # ClockPacking.max of proj[i] and the bumped event's
                    # lower clock, inlined.  The guards of i fields keep the
                    # max to those fields where proj[i] aliases a longer row.
                    a = proj[i]
                    b = rows[i][ki]
                    guard = guards[i]
                    m = ((a | guard) - b) & guard
                    lower = b ^ ((a ^ b) & (m - (m >> w1)))
                    ops += i
                    vals = lower.to_bytes(i, "little") if bytewise else unpack(lower, i)
                    low = sum(vals)
                    if low < pre:
                        g[:i] = vals
                        g[i] = ki + 1
                        proj[i] = lower
                        if low + 1 < pre:
                            # Chains 1..i held pre events before the step, so
                            # the top-up fits in them and a chain with room
                            # exists.
                            t = 0 if vals[0] < lengths[0] else next(
                                compress(count(), map(lt, vals, lengths)))
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
    return stats
