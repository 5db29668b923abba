"""Rank-restricted traversal and minimal counterexample search.

Level BFS must climb through every rank below the one of interest; the rank
traversal seeds each rank independently, so a slice costs only that slice.
The same rank-major order makes the first predicate match the one with the
fewest events executed.
"""

from cutlattice import (
    GenSpec,
    build_uniflow_partition,
    format_cut,
    generate_random,
    traditional_bfs,
    traverse_bfs,
    traverse_rank_range,
)

spec = GenSpec(n=6, total_events=24, message_probability=0.3, seed=12)
comp = generate_random(spec)
part = build_uniflow_partition(comp)
total = comp.event_count
r = total // 2

stats = traverse_rank_range(part, r, r)
print(f"rank-{r} slice: {stats.cuts_visited} cuts")
print(f"  min-cut calls by rank:   {dict(stats.min_cut_calls)}")
print(f"  successor calls by rank: {sorted(stats.successor_calls)} "
      "(never leaves the requested rank)")

tstats = traditional_bfs(comp, rank_filter=(r, r))
print(f"  level BFS visited the same {tstats.cuts_visited} cuts but expanded "
      f"ranks {min(tstats.expanded_per_rank)}..{max(tstats.expanded_per_rank)} to get there")

# find the earliest state where half the processes have passed their second event
def predicate(cut) -> bool:
    return sum(1 for c in cut if c >= 2) >= 3

hit = []

def visit(cut, rank_, remap_fn):
    original = remap_fn()
    if predicate(original):
        hit.append((rank_, original))
        return False
    return True

traverse_bfs(part, visit)
if hit:
    rank_, cut = hit[0]
    print(f"\nfirst state with three processes past event 2: {format_cut(cut)} "
          f"at rank {rank_} (guaranteed minimal-rank by traversal order)")
else:
    print("\nno state matches the predicate")
