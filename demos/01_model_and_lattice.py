"""Walk through the core model on a six-event computation.

Two processes, three events each, one message.  We look at the vector
clocks, test a few causality questions, and then enumerate the full lattice
of consistent cuts level by level.
"""

from cutlattice import (
    concurrent,
    format_cut,
    happened_before,
    is_consistent,
    make_computation,
    traditional_bfs,
)

# P1 runs a, b, c; P2 runs e, f, g; f receives a message sent at b.
comp = make_computation(
    2,
    [
        (1, 1, []),   # a
        (2, 1, []),   # b
        (3, 1, []),   # c
        (4, 2, []),   # e
        (5, 2, [2]),  # f <- message from b
        (6, 2, []),   # g
    ],
)

print("event clocks (highest chain printed leftmost):")
for eid in comp.topo_order:
    ev = comp.events[eid]
    print(f"  event {eid} = P{ev.process}#{ev.vc[ev.process - 1]}  clock {format_cut(ev.vc)}")

b, f, e, a = comp.events[2], comp.events[5], comp.events[4], comp.events[1]
print(f"\nb -> f (message):        {happened_before(b.vc, f.vc)}")
print(f"e || a (different sides): {concurrent(e.vc, a.vc)}")

print(f"\ncut [1,2] (a, b, e executed) consistent: {is_consistent((2, 1), comp)}")
print(f"cut [2,1] (f without b) consistent:      {is_consistent((1, 2), comp)}")

print("\nthe full lattice, level by level:")
by_rank: dict[int, list] = {}
traditional_bfs(comp, lambda cut, r, _: by_rank.setdefault(r, []).append(cut) or True)
for r in sorted(by_rank):
    print(f"  rank {r}: " + "  ".join(format_cut(c) for c in by_rank[r]))
total = sum(len(v) for v in by_rank.values())
print(f"\n{total} consistent cuts in all.")
