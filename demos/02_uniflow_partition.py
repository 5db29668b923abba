"""Build a uniflow chain partition online and remap cuts back.

The example computation has two processes whose messages cross, so its own
chain partition is not uniflow.  Feeding the events through the online
partitioner spreads them over three chains where every causal edge points
upward; cuts enumerated there translate back to the original chains
one-for-one.  Each event is first tried on its process's place in the
net-outflow order; here each process sends one message and receives one, so
the tie keeps process id order.
"""

from cutlattice import (
    PartitionerState,
    build_uniflow_partition,
    find_uniflow_chain,
    format_cut,
    make_computation,
    regenerate_vector_clocks,
    remap,
    traverse_bfs,
)

# P1 runs a, b; P2 runs e, f; a sends to f, e sends to b.
comp = make_computation(
    2,
    [
        (1, 1, []),   # a
        (2, 2, []),   # e
        (3, 2, [1]),  # f <- a
        (4, 1, [2]),  # b <- e
    ],
)

print("placing events one at a time:")
state = PartitionerState(events=comp.events)
for eid in comp.topo_order:
    chain = find_uniflow_chain(comp.events[eid], state)
    print(f"  event {eid} -> uniflow chain {chain}")

part = regenerate_vector_clocks(build_uniflow_partition(comp))
print(f"\nn_u = {part.n_u} chains; clock regeneration accepted them as uniflow")
print("regenerated clocks:")
for ci, chain in enumerate(part.chains, start=1):
    for eid in chain:
        print(f"  chain {ci}: event {eid} uvc {format_cut(part.full_clock(eid))}")

print("\nevery consistent cut, with its original-partition equivalent:")
traverse_bfs(
    part,
    lambda cut, r, remap_fn: print(
        f"  rank {r}: {format_cut(cut)}  ->  {format_cut(remap_fn())}"
    )
    or True,
)

full = part.chain_lengths
print(f"\nremap of the full cut {format_cut(full)} -> {format_cut(remap(full, part))}")
