"""From-scratch reference for the rank walk's projection rows.

The walk in :func:`cutlattice.traversal.traverse_rank_range` keeps these
rows incrementally and in triangular form; this module rebuilds the full
rows of one cut directly from the uniflow clocks, for the worked examples.
"""

from __future__ import annotations

from typing import Sequence

from cutlattice.model import Clock
from cutlattice.uniflow import UniflowPartition


def compute_projections(g: Sequence[int], part: UniflowPartition) -> list[Clock]:
    """Accumulated causal projections of a cut's frontier, one row per chain.

    Row ``i`` (index ``i - 1``) combines the clocks of the frontier events on
    chains ``i..n_u``; only components ``1..i - 1`` of a row are ever
    consumed.  The bottom row always reproduces the cut itself.  Empty chains
    contribute nothing (their row aliases the row above).
    """
    rows = part.clock_rows
    n_u = part.n_u
    proj: list[Clock] = [()] * n_u
    above: Clock = (0,) * n_u
    for i in range(n_u - 1, -1, -1):
        k = g[i]
        if k:
            vc = rows[i][k - 1]
            above = tuple(a if a > b else b for a, b in zip(vc, above))
        proj[i] = above
    return proj
