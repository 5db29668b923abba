"""Command-line front end.

Subcommands: ``gen`` (random trace files), ``partition`` (build and describe
the uniflow partition), ``traverse`` (enumerate cuts with any of the three
algorithms), ``verify`` (cross-check the enumerators against each other), and
``bench`` (batch runs with a CSV report).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
error (stored-cut cap exceeded).

Cuts are always printed highest chain leftmost, and uniflow results are
remapped to the original process chains before display, so output lines are
comparable across algorithms.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .baselines import BRUTE_FORCE_MAX_EVENTS, brute_force_downsets, traditional_bfs
from .model import Computation, Cut, ResourceLimitError, UsageError, format_cut, make_computation
from .traceio import GenSpec, TraceError, generate_random, parse_document, serialize_trace
from .traversal import traverse_rank_range
from .uniflow import (
    UniflowPartition,
    build_uniflow_partition,
    regenerate_vector_clocks,
    verify_uniflow,
)

_TERM_RE = re.compile(r"^(p(\d+)|rank)\s*(>=|<=|=|≥|≤)\s*(\d+)$")
_OP_NORM = {"≥": ">=", "≤": "<="}


@dataclass(frozen=True)
class PredicateSpec:
    """Conjunction of per-process count bounds plus optional rank bounds.

    Grammar: terms joined by ``&``; a term is ``p<i><op><count>`` or
    ``rank<op><count>`` with ``op`` one of ``=``, ``<=``, ``>=``.
    """

    terms: tuple[tuple[int, str, int], ...]
    rank_min: int | None = None
    rank_max: int | None = None

    def matches(self, cut, r: int) -> bool:
        if self.rank_min is not None and r < self.rank_min:
            return False
        if self.rank_max is not None and r > self.rank_max:
            return False
        for process, op, count in self.terms:
            have = cut[process - 1]
            if op == "=" and have != count:
                return False
            if op == ">=" and have < count:
                return False
            if op == "<=" and have > count:
                return False
        return True

    def validate(self, comp: Computation) -> None:
        """Reject a term on a process the trace lacks, and an ``=`` or
        ``>=`` term that no cut can meet; a ``<=`` term above the process's
        event count holds on every cut and is accepted."""
        for process, op, count in self.terms:
            if not 1 <= process <= comp.n:
                raise UsageError(f"predicate process p{process} outside 1..{comp.n}")
            events = comp.chain_lengths[process - 1]
            if op != "<=" and count > events:
                raise UsageError(
                    f"predicate count {count} exceeds the {events} events of process {process}"
                )


def parse_predicate(text: str) -> PredicateSpec:
    terms: list[tuple[int, str, int]] = []
    rank_min: int | None = None
    rank_max: int | None = None
    for chunk in text.split("&"):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise UsageError(f"bad predicate term {chunk!r}")
        op = _OP_NORM.get(m.group(3), m.group(3))
        count = int(m.group(4))
        if m.group(1) == "rank":
            if op in ("=", ">="):
                rank_min = count if rank_min is None else max(rank_min, count)
            if op in ("=", "<="):
                rank_max = count if rank_max is None else min(rank_max, count)
        else:
            process = int(m.group(2))
            if process < 1:
                raise UsageError(f"predicate process p{process} must be at least p1")
            terms.append((process, op, count))
    return PredicateSpec(tuple(terms), rank_min, rank_max)


def parse_rank_spec(text: str, total: int) -> tuple[int, int]:
    """``all``, ``r``, or ``r1..r2`` -> inclusive rank window."""
    text = text.strip()
    if text == "all":
        return 0, total
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            r1, r2 = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad rank spec {text!r}") from None
    else:
        try:
            r1 = r2 = int(text)
        except ValueError:
            raise UsageError(f"bad rank spec {text!r}") from None
    if not 0 <= r1 <= r2 <= total:
        raise UsageError(f"rank window {r1}..{r2} invalid for {total} events")
    return r1, r2


@dataclass
class RunReport:
    """One enumerator run, as printed by ``traverse`` and tabled by ``bench``."""

    algorithm: str
    trace: str
    n: int
    events: int
    n_u: int | None
    ranks: str
    cuts: int | None
    first_match_rank: int | None
    first_match_cut: str | None
    partition_s: float
    traverse_s: float
    peak_stored_cuts: int | None
    aux_int_peak: int | None
    status: str
    error: str | None


REPORT_FIELDS = [f.name for f in fields(RunReport)]

_INT_FIELDS = {"n", "events", "n_u", "cuts", "first_match_rank", "peak_stored_cuts", "aux_int_peak"}
_FLOAT_FIELDS = {"partition_s", "traverse_s"}


def report_to_row(report: RunReport) -> list[str]:
    row = []
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        if value is None:
            row.append("")
        elif name in _FLOAT_FIELDS:
            row.append(repr(value))
        else:
            row.append(str(value))
    return row


def report_from_row(row: list[str]) -> RunReport:
    kwargs = {}
    for name, cell in zip(REPORT_FIELDS, row):
        if cell == "" and name not in _FLOAT_FIELDS:
            kwargs[name] = None
        elif name in _INT_FIELDS:
            kwargs[name] = int(cell)
        elif name in _FLOAT_FIELDS:
            kwargs[name] = float(cell)
        else:
            kwargs[name] = cell
    return RunReport(**kwargs)


def write_reports_csv(reports, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for report in reports:
        writer.writerow(report_to_row(report))


def read_reports_csv(stream) -> list[RunReport]:
    reader = csv.reader(stream)
    header = next(reader)
    if header != REPORT_FIELDS:
        raise UsageError(f"unexpected CSV header {header!r}")
    return [report_from_row(row) for row in reader]


def _load_trace(path: str) -> tuple[str, Computation]:
    data = Path(path).read_bytes()
    doc = parse_document(data)
    comp = make_computation(doc.n, doc.records)
    name = doc.name or Path(path).stem
    return name, comp


def _prepare_partition(comp: Computation) -> tuple[UniflowPartition, float]:
    t0 = time.perf_counter()
    part = regenerate_vector_clocks(build_uniflow_partition(comp))
    return part, time.perf_counter() - t0


@dataclass
class RunRecord:
    """What an enumerator reports back, whichever algorithm it runs."""

    cuts: int | None = None
    peak_stored_cuts: int | None = None
    aux_int_peak: int | None = None
    partition: UniflowPartition | None = None  # the partition the uniflow walk used
    partition_s: float = 0.0


# visitor(original_cut, rank) sees each cut of the window once, in rank-major
# lexical-minor order; returning False stops the run.
CutVisitor = Callable[[Cut, int], object]


def _run_uniflow(
    comp: Computation, window: tuple[int, int], visitor: CutVisitor | None, max_stored: int | None
) -> RunRecord:
    part, partition_s = _prepare_partition(comp)
    stats = traverse_rank_range(
        part, window[0], window[1],
        None if visitor is None else lambda cut, r, remap_fn: visitor(remap_fn(), r),
    )
    return RunRecord(
        stats.cuts_visited, stats.peak_live_cuts, stats.aux_int_peak, part, partition_s
    )


def _run_traditional(
    comp: Computation, window: tuple[int, int], visitor: CutVisitor | None, max_stored: int | None
) -> RunRecord:
    stats = traditional_bfs(
        comp,
        None if visitor is None else lambda cut, r, remap_fn: visitor(cut, r),
        rank_filter=window,
        max_stored_cuts=max_stored,
    )
    return RunRecord(stats.cuts_visited, stats.peak_stored_cuts)


def _run_brute(
    comp: Computation, window: tuple[int, int], visitor: CutVisitor | None, max_stored: int | None
) -> RunRecord:
    by_rank = brute_force_downsets(comp)
    in_order = (
        (cut, r)
        for r in range(window[0], window[1] + 1)
        for cut in sorted(by_rank.get(r, ()), key=lambda c: c[::-1])
    )
    cuts = 0
    for cut, r in in_order:
        cuts += 1
        if visitor is not None and visitor(cut, r) is False:
            break
    return RunRecord(cuts, sum(len(s) for s in by_rank.values()))


# The three enumerators, all run(comp, (r1, r2), visitor, max_stored); only
# the level BFS honours the stored-cut cap.
ENUMERATORS: dict[str, Callable[..., RunRecord]] = {
    "uniflow": _run_uniflow,
    "traditional": _run_traditional,
    "brute": _run_brute,
}


def _run(
    algo: str,
    name: str,
    comp: Computation,
    window: tuple[int, int],
    ranks_text: str,
    predicate: PredicateSpec | None,
    mode: str,
    max_stored: int | None,
    out,
) -> RunReport:
    """Run one algorithm over one trace.

    A run that exceeds the stored-cut cap or rejects its input is reported
    with status ``resource-error`` or ``error``, not raised.
    """
    listing = mode == "list"
    first_match = mode == "first-match"
    match: list[tuple[int, Cut]] = []
    matched_count = 0

    def handle(original_cut, r) -> bool:
        nonlocal matched_count
        if predicate is not None and not predicate.matches(original_cut, r):
            return True
        matched_count += 1
        if listing:
            out.write(f"rank={r} cut={format_cut(original_cut)}\n")
        if first_match:
            match.append((r, original_cut))
            return False
        return True

    # Counting every cut needs no visitor, so the uniflow walk takes no
    # snapshot and does no remap.
    visitor = None if predicate is None and mode == "count" else handle
    status, error = "ok", None
    t0 = time.perf_counter()
    try:
        record = ENUMERATORS[algo](comp, window, visitor, max_stored)
        if predicate is not None:
            record.cuts = matched_count
    except ResourceLimitError as exc:
        record = RunRecord(exc.stats.cuts_visited, exc.stats.peak_stored_cuts)
        status, error = "resource-error", str(exc)
    except UsageError as exc:
        record, status, error = RunRecord(), "error", str(exc)
    elapsed = time.perf_counter() - t0

    first_rank, first_cut = (match[0][0], format_cut(match[0][1])) if match else (None, None)
    return RunReport(
        algorithm=algo,
        trace=name,
        n=comp.n,
        events=comp.event_count,
        n_u=None if record.partition is None else record.partition.n_u,
        ranks=ranks_text,
        cuts=record.cuts,
        first_match_rank=first_rank,
        first_match_cut=first_cut,
        partition_s=record.partition_s,
        traverse_s=elapsed - record.partition_s,
        peak_stored_cuts=record.peak_stored_cuts,
        aux_int_peak=record.aux_int_peak,
        status=status,
        error=error,
    )


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        total_events=args.events,
        message_probability=args.p,
        seed=args.seed,
    )
    comp = generate_random(spec)
    name = args.name or Path(args.output).stem
    text = serialize_trace(comp, name=name, seed=spec.seed)
    Path(args.output).write_bytes(text.encode("utf-8"))
    print(f"wrote {args.output}: n={spec.n} events={spec.total_events} "
          f"p={spec.message_probability} seed={spec.seed}")
    return 0


def cmd_partition(args) -> int:
    name, comp = _load_trace(args.trace)
    part, partition_s = _prepare_partition(comp)
    print(f"trace={name} n={comp.n} events={comp.event_count}")
    print(f"n_u={part.n_u}")
    for i, chain in enumerate(part.chains, start=1):
        print(f"chain {i}: {len(chain)} events")
    print(f"uniflow={'ok' if verify_uniflow(part) else 'VIOLATED'}")
    print(f"partition_s={partition_s:.6f}")
    if args.dump_clocks:
        for i, chain in enumerate(part.chains, start=1):
            for k, eid in enumerate(chain, start=1):
                print(f"chain {i} pos {k} event {eid} uvc={format_cut(part.full_clock(eid))}")
    return 0


def _check_max_stored(max_stored: int | None) -> None:
    if max_stored is not None and max_stored < 0:
        raise UsageError(f"--max-stored must be at least 0, got {max_stored}")


def cmd_traverse(args) -> int:
    _check_max_stored(args.max_stored)
    name, comp = _load_trace(args.trace)
    window = parse_rank_spec(args.ranks, comp.event_count)
    predicate = parse_predicate(args.predicate) if args.predicate else None
    if predicate is not None:
        predicate.validate(comp)
    print(f"trace={name} algo={args.algo} ranks={args.ranks} mode={args.mode}")
    report = _run(
        args.algo, name, comp, window, args.ranks, predicate,
        args.mode, args.max_stored, sys.stdout,
    )
    if report.status == "resource-error":
        print(f"resource-error: {report.error}", file=sys.stderr)
        print(f"partial: cuts={report.cuts} peak_stored_cuts={report.peak_stored_cuts}")
        return 3
    if report.status == "error":
        raise UsageError(report.error)
    if args.mode == "first-match":
        if report.first_match_rank is not None:
            print(f"match rank={report.first_match_rank} cut={report.first_match_cut}")
        else:
            print("no-match")
    else:
        print(f"cuts={report.cuts}")
    nu = f" n_u={report.n_u}" if report.n_u is not None else ""
    print(f"n={report.n} events={report.events}{nu}")
    print(
        f"partition_s={report.partition_s:.6f} traverse_s={report.traverse_s:.6f} "
        f"peak_stored_cuts={report.peak_stored_cuts}"
    )
    return 0


def cmd_verify(args) -> int:
    name, comp = _load_trace(args.trace)
    max_rank = comp.event_count if args.max_rank is None else args.max_rank
    if not 0 <= max_rank <= comp.event_count:
        raise UsageError(f"max rank {max_rank} outside 0..{comp.event_count}")
    names = sorted(
        a for a in ENUMERATORS
        if a != "brute" or comp.event_count <= BRUTE_FORCE_MAX_EVENTS
    )
    results: dict[str, dict[int, set]] = {}
    records: dict[str, RunRecord] = {}
    for a in names:
        sets: dict[int, set] = {}
        records[a] = ENUMERATORS[a](
            comp, (0, max_rank), lambda cut, r: sets.setdefault(r, set()).add(cut), None
        )
        results[a] = sets
    # The uniflow check reads the partition the walk used, so it is built once.
    if not verify_uniflow(records["uniflow"].partition):
        print(f"trace={name}: partition failed the uniflow check")
        return 1
    print(f"trace={name} enumerators={','.join(names)} max_rank={max_rank}")
    for r in range(0, max_rank + 1):
        per = {a: results[a].get(r, set()) for a in names}
        counts = {a: len(s) for a, s in per.items()}
        baseline = per[names[0]]
        if any(per[a] != baseline for a in names[1:]):
            print(f"MISMATCH at rank {r}: " + " ".join(f"{a}={counts[a]}" for a in names))
            for a in names[1:]:
                extra = per[a] - baseline
                missing = baseline - per[a]
                if extra:
                    print(f"  {a} extra: {sorted(format_cut(c) for c in extra)}")
                if missing:
                    print(f"  {a} missing: {sorted(format_cut(c) for c in missing)}")
            return 1
        print(f"rank {r}: cuts={counts[names[0]]} ok")
    print("verified: per-rank cut sets identical")
    return 0


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise UsageError(f"--algos names no algorithm: {args.algos!r}")
    for algo in algos:
        if algo not in ENUMERATORS:
            raise UsageError(f"unknown algorithm {algo!r}")
    if not args.ranks:
        raise UsageError("--ranks names no rank window")
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    _check_max_stored(args.max_stored)
    # Every trace and every rank window is checked before the first run, so
    # a window that does not fit a later trace loses no finished runs.
    batch = []
    for path in args.traces:
        name, comp = _load_trace(path)
        try:
            windows = [(text, parse_rank_spec(text, comp.event_count)) for text in args.ranks]
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from None
        batch.append((name, comp, windows))
    reports: list[RunReport] = []
    for name, comp, windows in batch:
        for ranks_text, window in windows:
            for algo in algos:
                for rep in range(args.reps):
                    reports.append(_run(
                        algo, name, comp, window, ranks_text,
                        None, "count", args.max_stored, sys.stdout,
                    ))
    _print_report_table(reports)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv(reports, fh)
        print(f"csv written to {args.csv}")
    return 0


def _print_report_table(reports: list[RunReport]) -> None:
    cols = ["trace", "algorithm", "ranks", "events", "n_u", "cuts",
            "partition_s", "traverse_s", "peak_stored_cuts", "status"]
    table = [cols]
    for r in reports:
        table.append([
            r.trace, r.algorithm, r.ranks, str(r.events),
            "" if r.n_u is None else str(r.n_u),
            "" if r.cuts is None else str(r.cuts),
            f"{r.partition_s:.4f}", f"{r.traverse_s:.4f}",
            "" if r.peak_stored_cuts is None else str(r.peak_stored_cuts),
            r.status,
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutlattice",
        description="Enumerate consistent global states of message-passing traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random trace file")
    p.add_argument("-n", type=int, required=True, help="process count")
    p.add_argument("-e", "--events", type=int, required=True, help="total events")
    p.add_argument("-p", type=float, default=0.3, help="message probability")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", default=None, help="trace name (default: output stem)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("partition", help="build the uniflow partition of a trace")
    p.add_argument("trace")
    p.add_argument("--dump-clocks", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("traverse", help="enumerate consistent cuts")
    p.add_argument("trace")
    p.add_argument("--algo", choices=list(ENUMERATORS), default="uniflow")
    p.add_argument("--ranks", default="all", help="all, R, or R1..R2")
    p.add_argument("--predicate", default=None, help="e.g. 'p2>=2 & p1>=2'")
    p.add_argument("--mode", choices=["count", "list", "first-match"], default="count")
    p.add_argument("--max-stored", type=int, default=None,
                   help="stored-cut cap for the traditional algorithm")
    p.set_defaults(func=cmd_traverse)

    p = sub.add_parser("verify", help="cross-check the enumerators on a trace")
    p.add_argument("trace")
    p.add_argument("--max-rank", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="batch enumerator runs with a CSV report")
    p.add_argument("traces", nargs="+")
    p.add_argument("--algos", default="uniflow,traditional")
    p.add_argument("--ranks", nargs="*", default=["all"])
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--max-stored", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
