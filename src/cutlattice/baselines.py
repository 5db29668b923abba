"""Reference enumerators used to cross-validate the rank traversal.

``traditional_bfs`` is the classic level-by-level walk (Cooper and Marzullo):
keep the full set of cuts at the current rank, extend each by one enabled
event, and deduplicate.  An event is enabled when the cut holds its direct
dependencies on other processes, and a cut is keyed by an int code, so a
duplicate successor is caught before its tuple is built.  Its storage grows
with the widest level, which is exactly the behaviour the uniflow traversal
exists to avoid; the stats expose the peak so tests can compare.
``brute_force_downsets`` enumerates downsets of the dependency order directly
by recursive extension and is the ground truth everything else is checked
against.
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
    """Level-by-level enumeration with duplicate suppression by cut code.

    A level maps each cut's code to the cut.  The code is mixed radix, radix
    ``length + 1`` per process with process ``n`` most significant, so the
    successor that adds an event at process index ``i`` has code ``code +
    strides[i]``.  At a consistent cut holding ``k`` events of a process,
    its event ``k + 1`` is enabled iff the cut holds each of that event's
    direct dependencies on other processes: the cut is a downset, so it
    then holds their pasts too.

    Each level is visited in ascending code order, which is lexical order
    with the highest chain most significant.  It is expanded in the order
    its cuts were generated, so where a capped run stops within a rank
    depends only on the computation, not on tuple hashing.

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
    n = comp.n
    lengths = comp.chain_lengths
    events = comp.events
    # needs[i][k]: (process index, position) of each direct dependency of
    # event k+1 at process index i that sits on another process.
    needs = [
        [
            tuple(
                (p, events[d].vc[p])
                for d in events[eid].deps
                if (p := events[d].process - 1) != i
            )
            for eid in chain
        ]
        for i, chain in enumerate(comp.chains)
    ]
    strides = []
    stride = 1
    for length in lengths:
        strides.append(stride)
        stride *= length + 1
    level: dict[int, Cut] = {0: (0,) * n}
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
            # The sorted list is not named: a named sorted copy of the level,
            # kept alive while the level is expanded, raised peak RSS by about
            # 3 MiB at 28,879 cuts.
            if visitor is not None:
                for visited, code in enumerate(sorted(level), start=1):
                    cut = level[code]
                    if visitor(cut, rank, lambda _c=cut: _c) is False:
                        stats.cuts_visited += visited
                        stats.per_rank[rank] = visited
                        stats.early_stopped = True
                        return stats
            stats.cuts_visited += len(level)
            stats.per_rank[rank] = len(level)
        if rank >= r2 or not level:
            break
        nxt: dict[int, Cut] = {}
        for expanded, (code, cut) in enumerate(level.items(), start=1):
            for i in range(n):
                k = cut[i]
                if k < lengths[i]:
                    for j, pos in needs[i][k]:
                        if cut[j] < pos:
                            break
                    else:
                        succ = code + strides[i]
                        if succ not in nxt:
                            nxt[succ] = cut[:i] + (k + 1,) + cut[i + 1 :]
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
