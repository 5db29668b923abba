"""Trace file format and the random computation generator.

Format (UTF-8, LF line endings):

    # trace-format: 1
    # name: d100
    # seed: 1
    n=10
    1 1
    2 2
    3 3 1,2

A trace is a preamble, the ``n=<int>`` header, then records.  The preamble
holds blank lines and ``#`` comments; its ``# key: value`` comments are
optional metadata (``trace-format``, ``name``, ``seed``).  After the header,
one event per line: ``id process`` optionally followed by a comma-separated
dependency list.  Dependencies must refer to earlier lines, which keeps
every well-formed file acyclic and already in topological order.  Every
``#`` line after the header is a comment, a ``# key: value`` one included.

The generator is fully deterministic: all randomness comes from a splitmix64
stream seeded by :class:`GenSpec.seed`, so identical specs produce
byte-identical files on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Parse a trace file into a :class:`TraceDocument`, in the grammar's two phases.

    The preamble runs to the ``n=<int>`` header: blank lines and ``#``
    comments, where the first ``# key: value`` comment of each key is
    metadata.  After the header every non-blank line is a ``#`` comment,
    a tag there included, or a record ``id process [deps]``.

    Checks syntax only.  Rejects, with the offending line number, a missing
    or malformed header, a line without two or three fields, and a
    non-integer field; rejects a ``trace-format`` tag other than
    :data:`FORMAT_VERSION` and a non-integer ``seed`` tag.  The records'
    own rules (a non-negative process count, non-negative unique ids,
    processes in ``1..n``, dependencies on earlier records) are
    :func:`~cutlattice.model.make_computation`'s to check, by record number.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = enumerate(text.splitlines(), start=1)
    meta: dict[str, str] = {}
    for line_no, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, colon, value = line[1:].partition(":")
            if colon:
                meta.setdefault(key.strip(), value.strip())
            continue
        if not line.startswith("n="):
            raise TraceError("expected header 'n=<int>' before event records", line_no)
        try:
            n = int(line[2:])
        except ValueError:
            raise TraceError(f"bad process count {line[2:]!r}", line_no) from None
        break
    else:
        raise TraceError("missing 'n=<int>' header")
    records: list[tuple[int, int, tuple[int, ...]]] = []
    for line_no, raw in lines:
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) not in (2, 3):
            raise TraceError(f"expected 'id process [deps]', got {raw.strip()!r}", line_no)
        try:
            deps = tuple(map(int, fields[2].split(","))) if len(fields) == 3 else ()
            records.append((int(fields[0]), int(fields[1]), deps))
        except ValueError:
            raise TraceError(f"non-integer field in {raw.strip()!r}", line_no) from None
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
    return TraceDocument(n, tuple(records), meta.get("name"), seed)


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
