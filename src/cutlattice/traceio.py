"""Trace file format and the random computation generator.

Format (UTF-8, LF line endings):

    # trace-format: 1
    # name: d100          <- optional metadata
    # seed: 1             <- optional metadata
    n=10
    1 1
    2 2
    3 3 1,2

One event per line after the ``n=<int>`` header: ``id process`` optionally
followed by a comma-separated dependency list.  Dependencies must refer to
earlier lines, which keeps every well-formed file acyclic and already in
topological order.  ``#`` lines are comments; ``# key: value`` comments
before the header are captured as document metadata and ignored otherwise.

The generator is fully deterministic: all randomness comes from a splitmix64
stream seeded by :class:`GenSpec.seed`, so identical specs produce
byte-identical files on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .model import Computation, UsageError, make_computation

FORMAT_VERSION = 1

_MASK64 = (1 << 64) - 1


class TraceError(UsageError):
    """A trace document failed to parse; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class TraceDocument:
    """Parsed trace file: header, event records as written, optional metadata."""

    n: int
    records: tuple[tuple[int, int, tuple[int, ...]], ...]
    name: str | None = None
    seed: int | None = None


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random computation; output is a pure function of these."""

    n: int
    total_events: int
    message_probability: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("need at least one process")
        if self.total_events < 0:
            raise UsageError("total_events must be non-negative")
        if not 0.0 <= self.message_probability <= 1.0:
            raise UsageError("message probability must be within [0, 1]")


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: 64-bit outputs from a 64-bit seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def parse_document(data: bytes | str) -> TraceDocument:
    """Parse a trace file into a :class:`TraceDocument`.

    Checks syntax only.  Rejects, with the offending line number, a missing
    or malformed header, a line without two or three fields, and a
    non-integer field; rejects a ``trace-format`` tag other than
    :data:`FORMAT_VERSION` and a non-integer ``seed`` tag.  The records'
    own rules (a non-negative process count, non-negative unique ids,
    processes in ``1..n``, dependencies on earlier records) are
    :func:`~cutlattice.model.make_computation`'s to check, by record number.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    meta: dict[str, str] = {}
    n: int | None = None
    records: list[tuple[int, int, tuple[int, ...]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta.setdefault(key.strip(), value.strip())
            continue
        if n is None:
            if not line.startswith("n="):
                raise TraceError("expected header 'n=<int>' before event records", line_no)
            try:
                n = int(line[2:])
            except ValueError:
                raise TraceError(f"bad process count {line[2:]!r}", line_no) from None
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise TraceError(f"expected 'id process [deps]', got {line!r}", line_no)
        try:
            eid = int(fields[0])
            process = int(fields[1])
            deps = tuple(int(d) for d in fields[2].split(",")) if len(fields) == 3 else ()
        except ValueError:
            raise TraceError(f"non-integer field in {line!r}", line_no) from None
        records.append((eid, process, deps))
    if n is None:
        raise TraceError("missing 'n=<int>' header")
    if "trace-format" in meta:
        try:
            version = int(meta["trace-format"])
        except ValueError:
            raise TraceError(f"bad trace-format tag {meta['trace-format']!r}") from None
        if version != FORMAT_VERSION:
            raise TraceError(f"unsupported trace-format {version}; expected {FORMAT_VERSION}")
    seed: int | None = None
    if "seed" in meta:
        try:
            seed = int(meta["seed"])
        except ValueError:
            raise TraceError(f"bad seed tag {meta['seed']!r}") from None
    return TraceDocument(
        n=n,
        records=tuple(records),
        name=meta.get("name"),
        seed=seed,
    )


def serialize_trace(comp: Computation, name: str | None = None, seed: int | None = None) -> str:
    """Render a computation in the trace format, byte-stable for fixed input.

    Events are written in topological order with their full dependency lists
    (including the implicit same-process predecessor) sorted ascending, so
    the computation made from ``parse_document(serialize_trace(c))`` is
    structurally equal to ``c`` and re-serializing reproduces the same text.
    """
    lines = [f"# trace-format: {FORMAT_VERSION}"]
    if name is not None:
        lines.append(f"# name: {name}")
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append(f"n={comp.n}")
    for eid in comp.topo_order:
        ev = comp.events[eid]
        if ev.deps:
            deps = ",".join(str(d) for d in sorted(ev.deps))
            lines.append(f"{eid} {ev.process} {deps}")
        else:
            lines.append(f"{eid} {ev.process}")
    return "\n".join(lines) + "\n"


def generate_random(spec: GenSpec) -> Computation:
    """Generate a random message-passing computation, deterministically.

    Events are dealt round-robin over the ``n`` processes.  After each event,
    with probability ``message_probability`` the event sends a message to a
    uniformly chosen other process; the message becomes a dependency edge to
    that process's next event (dropped if it never executes again).  Event
    ids are 1-based in creation order, which is also the topological order.
    """
    rng = splitmix64(spec.seed)
    n = spec.n
    pending: dict[int, list[int]] = {}
    records: list[tuple[int, int, tuple[int, ...]]] = []
    for eid in range(1, spec.total_events + 1):
        process = (eid - 1) % n + 1
        deps = tuple(pending.pop(process, ()))
        records.append((eid, process, deps))
        if n > 1:
            draw = next(rng)
            if draw / 2.0**64 < spec.message_probability:
                pick = next(rng) % (n - 1)
                target = pick + 1 if pick + 1 < process else pick + 2
                pending.setdefault(target, []).append(eid)
    return make_computation(n, records)
