"""Workload table, trace generation and the answer pipeline of the benchmark.

Each workload fixes one generated computation (its ``GenSpec``), a rank
window, an optional predicate and the enumerator that walks it.  The
benchmark seed does not change the computation: it relabels the event ids of
the generated trace with distinct sparse ids drawn from a splitmix64 stream,
so every seed gives different trace bytes for the same lattice.  Cut counts,
``n_u`` and every counter therefore repeat exactly across seeds, and timings
of different seeds are comparable (generator seeds 1..10 of the d30 spec give
lattices of 175k..453k cuts at 72k..120k cuts/s, far too wide for a bound).
The windows are cut down from full walks so that one answer takes about a
second or less and a run holds many answers.

``answer`` runs one workload from trace bytes to its final answer through
the library's public functions.  Given a :class:`Tracer` it records spans
around every public call; without one it takes no per-cut timings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from cutlattice import (
    GenSpec,
    build_uniflow_partition,
    generate_random,
    get_min_cut,
    get_successor,
    make_computation,
    parse_document,
    regenerate_vector_clocks,
    serialize_trace,
    traditional_bfs,
    traverse_rank_range,
)
from cutlattice.cli import parse_predicate
from cutlattice.traceio import splitmix64

PREDICATE = "p1>=2 & p10<=1"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: GenSpec
    window: tuple[int, int]
    predicate: str | None
    algorithm: str  # "uniflow" or "levelbfs"
    reference: str  # "levelbfs", "uniflow" or "plain-successor": what checks the answer


# Why each workload was chosen, and the module it loads: BENCHMARK.json, README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="predicate-d30",
            spec=GenSpec(10, 30, 0.3, 1),
            window=(0, 11),
            predicate=PREDICATE,
            algorithm="uniflow",
            reference="levelbfs",
        ),
        Workload(
            name="predicate-d30-levelbfs",
            spec=GenSpec(10, 30, 0.3, 1),
            window=(0, 11),
            predicate=PREDICATE,
            algorithm="levelbfs",
            reference="uniflow",
        ),
        Workload(
            name="slice-d100",
            spec=GenSpec(10, 100, 0.3, 1),
            window=(11, 11),
            predicate=None,
            algorithm="uniflow",
            reference="levelbfs",
        ),
        Workload(
            name="top-e1000",
            spec=GenSpec(10, 1000, 0.3, 1),
            window=(997, 1000),
            predicate=None,
            algorithm="uniflow",
            reference="plain-successor",
        ),
    )
}


def trace_bytes(w: Workload, seed: int) -> bytes:
    """The workload's trace, with event ids relabelled from ``seed``.

    Record order, processes and dependencies are kept, so the computation,
    its uniflow partition and its lattice are the same for every seed.
    """
    comp = generate_random(w.spec)
    draws = splitmix64(seed)
    ids: dict[int, int] = {}
    used: set[int] = set()
    for eid in comp.topo_order:
        new = next(draws) % (1 << 31)
        while new in used:
            new = next(draws) % (1 << 31)
        used.add(new)
        ids[eid] = new
    records = [
        (ids[eid], comp.events[eid].process, [ids[d] for d in comp.events[eid].deps])
        for eid in comp.topo_order
    ]
    relabelled = make_computation(comp.n, records)
    return serialize_trace(relabelled, name=w.name, seed=w.spec.seed).encode()


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` for one traced answer.

    Calls made once per cut (visitor, remap, predicate) are summed into one
    record each, ``{name, parent, calls, total_s}``: one span per cut would
    hold hundreds of thousands of records and distort the memory the run is
    meant to show.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.summed: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add_summed(self, name: str, parent: str, calls: int, total_s: float) -> None:
        self.summed.append({"name": name, "parent": parent, "calls": calls, "total_s": total_s})

    def self_times(self) -> dict[str, float]:
        """Self time per name: duration minus the time its children cover."""
        own = {name: end - start for name, start, end, _ in self.spans}
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        for rec in self.summed:
            own[rec["name"]] = rec["total_s"]
            own[rec["parent"]] -= rec["total_s"]
        return own

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "summed": self.summed,
        }


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass
class Result:
    """One answer (cuts per rank, predicate matches) and the counters behind it.

    ``counts`` holds the library's own counters, which must repeat exactly.
    """

    per_rank: list[list[int]]
    matches: int | None
    counts: dict
    setup_s: float = 0.0
    walk_s: float = 0.0


def setup(w: Workload, data: bytes, tracer: Tracer | None = None):
    """Trace bytes to the structure the workload's enumerator walks."""
    with _span(tracer, "traceio.parse_document"):
        doc = parse_document(data)
    with _span(tracer, "model.make_computation"):
        comp = make_computation(doc.n, doc.records)
    if w.algorithm == "levelbfs":
        return comp
    with _span(tracer, "uniflow.build_uniflow_partition"):
        part = build_uniflow_partition(comp)
    with _span(tracer, "uniflow.regenerate_vector_clocks"):
        return regenerate_vector_clocks(part)


def answer(w: Workload, data: bytes, tracer: Tracer | None = None) -> Result:
    """Run the workload from trace bytes to its final answer."""
    t0 = time.perf_counter()
    with _span(tracer, "answer"):
        built = setup(w, data, tracer)
        t1 = time.perf_counter()
        result = walk(w, built, tracer)
    result.setup_s = t1 - t0
    result.walk_s = time.perf_counter() - t1
    return result


def walk(w: Workload, built, tracer: Tracer | None = None) -> Result:
    """Enumerate the workload's window over the set-up structure."""
    uniflow = w.algorithm == "uniflow"
    pred = parse_predicate(w.predicate) if w.predicate is not None else None
    matches = calls = 0
    remap_s = pred_s = visit_s = 0.0
    if pred is None:
        visitor = None
    elif tracer is None:

        def visitor(cut, r, remap_fn):
            nonlocal matches
            if pred.matches(remap_fn() if uniflow else cut, r):
                matches += 1

    else:

        def visitor(cut, r, remap_fn):
            nonlocal matches, calls, remap_s, pred_s, visit_s
            a = time.perf_counter()
            original = remap_fn() if uniflow else cut
            b = time.perf_counter()
            hit = pred.matches(original, r)
            c = time.perf_counter()
            if hit:
                matches += 1
            calls += 1
            remap_s += b - a
            pred_s += c - b
            visit_s += c - a

    r1, r2 = w.window
    if uniflow:
        walk_span = "traversal.traverse_rank_range"
        with _span(tracer, walk_span):
            stats = traverse_rank_range(built, r1, r2, visitor)
        counts = {
            "uniflow.n_u": built.n_u,
            "traversal.successor_calls": sorted([r, c] for r, c in stats.successor_calls.items()),
            "traversal.min_cut_calls": sum(stats.min_cut_calls.values()),
            "traversal.component_ops": stats.component_ops,
            "traversal.peak_live_cuts": stats.peak_live_cuts,
            "traversal.aux_int_peak": stats.aux_int_peak,
        }
    else:
        walk_span = "baselines.traditional_bfs"
        with _span(tracer, walk_span):
            stats = traditional_bfs(built, visitor, rank_filter=(r1, r2))
        counts = {
            "baselines.peak_stored_cuts": stats.peak_stored_cuts,
            "baselines.max_level_width": stats.max_level_width,
            "baselines.expanded_cuts": sum(stats.expanded_per_rank.values()),
        }
    if tracer is not None and pred is not None:
        tracer.add_summed("visitor", walk_span, calls, visit_s)
        if uniflow:
            tracer.add_summed("traversal.remap", "visitor", calls, remap_s)
        tracer.add_summed("cli.PredicateSpec.matches", "visitor", calls, pred_s)
    return Result(
        per_rank=sorted([r, c] for r, c in stats.per_rank.items()),
        matches=matches if pred is not None else None,
        counts=counts,
    )


def reference(w: Workload, data: bytes) -> tuple[list[list[int]], int | None]:
    """The answer by an independent route: ``(cuts per rank, matches)``.

    The predicate workloads are checked against each other's enumerator,
    ``slice-d100`` against the level BFS and ``top-e1000`` against a plain
    ``get_min_cut``/``get_successor`` loop.
    """
    doc = parse_document(data)
    comp = make_computation(doc.n, doc.records)
    pred = parse_predicate(w.predicate) if w.predicate is not None else None
    r1, r2 = w.window
    matches = 0
    if w.reference == "levelbfs":

        def visitor(cut, r, _remap_fn):
            nonlocal matches
            if pred.matches(cut, r):
                matches += 1

        per_rank = traditional_bfs(comp, visitor if pred else None, rank_filter=(r1, r2)).per_rank
    else:
        part = regenerate_vector_clocks(build_uniflow_partition(comp))
        if w.reference == "uniflow":

            def visitor(cut, r, remap_fn):
                nonlocal matches
                if pred.matches(remap_fn(), r):
                    matches += 1

            per_rank = traverse_rank_range(part, r1, r2, visitor).per_rank
        else:
            per_rank = {}
            for r in range(r1, r2 + 1):
                g = get_min_cut((0,) * part.n_u, r, part)
                while g is not None:
                    per_rank[r] = per_rank.get(r, 0) + 1
                    g = get_successor(g, r, part)
    return sorted([r, c] for r, c in per_rank.items()), matches if pred else None
