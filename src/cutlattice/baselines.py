"""Reference enumerators used to cross-validate the rank traversal.

``traditional_bfs`` is the classic level-by-level walk: keep the full set of
cuts at the current rank, extend each by one enabled event, and deduplicate.
Its storage grows with the widest level, which is exactly the behaviour the
uniflow traversal exists to avoid; the stats expose the peak so tests can
compare.  ``brute_force_downsets`` enumerates downsets of the dependency
order directly by recursive extension and is the ground truth everything
else is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Computation, Cut, ResourceLimitError, UsageError, Visitor

# The most events the brute-force oracle accepts: its recursion visits up to
# 2**|E| leaves.
BRUTE_FORCE_MAX_EVENTS = 25


@dataclass
class LevelBfsStats:
    """Counters for one level-by-level run.

    ``expanded_per_rank`` counts the cuts whose successors were generated at
    each rank; with a rank filter, expansion still has to climb through every
    rank below the requested window, and this counter proves it.
    """

    cuts_visited: int = 0
    per_rank: dict[int, int] = field(default_factory=dict)
    expanded_per_rank: dict[int, int] = field(default_factory=dict)
    peak_stored_cuts: int = 0
    max_level_width: int = 0
    early_stopped: bool = False


def traditional_bfs(
    comp: Computation,
    visitor: Visitor | None = None,
    rank_filter: tuple[int, int] | None = None,
    max_stored_cuts: int | None = None,
) -> LevelBfsStats:
    """Level-by-level enumeration with set-based duplicate suppression.

    Each level is visited in lexical order (highest chain most significant).
    ``rank_filter`` restricts which ranks are *visited*; levels below the
    window are still expanded to reach it.  ``max_stored_cuts`` caps the
    number of simultaneously stored cuts, the start level's one cut
    included, and raises :class:`ResourceLimitError` (carrying the partial
    stats) when exceeded, the stored-cut analogue of running out of heap.

    The visitor signature matches the uniflow traversal's; the remap callback
    is the identity here since cuts are already over the original chains.
    """
    total = comp.event_count
    r1, r2 = rank_filter if rank_filter is not None else (0, total)
    if not 0 <= r1 <= r2 <= total:
        raise UsageError(f"rank range {r1}..{r2} invalid for {total} events")
    stats = LevelBfsStats()
    lengths = comp.chain_lengths
    rows = comp.clock_rows
    n = comp.n
    level: set[Cut] = {(0,) * n}
    stats.peak_stored_cuts = 1
    if max_stored_cuts is not None and stats.peak_stored_cuts > max_stored_cuts:  # start level
        raise ResourceLimitError(
            f"stored-cut cap {max_stored_cuts} exceeded at rank 0", stats=stats
        )
    rank = 0
    while True:
        if len(level) > stats.max_level_width:
            stats.max_level_width = len(level)
        if rank >= r1:
            # Counted once per level, or up to the cut the visitor stopped at.
            # The sorted copy is not named: kept alive while the level is
            # expanded, it raised peak RSS by about 3 MiB at 28,879 cuts.
            if visitor is not None:
                for visited, cut in enumerate(sorted(level, key=lambda c: c[::-1]), start=1):
                    if visitor(cut, rank, lambda _c=cut: _c) is False:
                        stats.cuts_visited += visited
                        stats.per_rank[rank] = visited
                        stats.early_stopped = True
                        return stats
            stats.cuts_visited += len(level)
            stats.per_rank[rank] = len(level)
        if rank >= r2 or not level:
            break
        nxt: set[Cut] = set()
        for expanded, cut in enumerate(level, start=1):
            for i in range(n):
                k = cut[i]
                if k < lengths[i]:
                    vc = rows[i][k]
                    ok = True
                    for j in range(n):
                        if j != i and vc[j] > cut[j]:
                            ok = False
                            break
                    if ok:
                        nxt.add(cut[:i] + (k + 1,) + cut[i + 1 :])
            stored = len(level) + len(nxt)
            if stored > stats.peak_stored_cuts:
                stats.peak_stored_cuts = stored
            if max_stored_cuts is not None and stored > max_stored_cuts:
                stats.expanded_per_rank[rank] = expanded
                raise ResourceLimitError(
                    f"stored-cut cap {max_stored_cuts} exceeded at rank {rank}",
                    stats=stats,
                )
        stats.expanded_per_rank[rank] = len(level)
        level = nxt
        rank += 1
    return stats


def brute_force_downsets(comp: Computation) -> dict[int, set[Cut]]:
    """All consistent cuts, grouped by rank, by literal downset enumeration.

    Recursive extension over the events in topological order: each event may
    be included only once its direct dependencies are in, so every leaf of
    the recursion is a distinct downset and nothing else is ever generated.
    Guarded to ``BRUTE_FORCE_MAX_EVENTS`` events; this is an oracle, not a
    workhorse.
    """
    if comp.event_count > BRUTE_FORCE_MAX_EVENTS:
        raise UsageError(
            f"brute-force enumeration guarded to {BRUTE_FORCE_MAX_EVENTS} events; "
            f"got {comp.event_count}"
        )
    by_rank: dict[int, set[Cut]] = {}
    order = comp.topo_order
    events = comp.events
    counts = [0] * comp.n
    included: set[int] = set()

    def extend(idx: int) -> None:
        if idx == len(order):
            r = sum(counts)
            by_rank.setdefault(r, set()).add(tuple(counts))
            return
        ev = events[order[idx]]
        extend(idx + 1)  # leave it out
        if ev.deps <= included:
            included.add(ev.id)
            counts[ev.process - 1] += 1
            extend(idx + 1)
            counts[ev.process - 1] -= 1
            included.discard(ev.id)

    extend(0)
    return by_rank
