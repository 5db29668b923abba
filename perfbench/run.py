"""Layered cut-enumeration benchmark: one workload, one seed, one JSON result.

Usage::

    python3 perfbench/run.py --workload predicate-d30 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the timed loop runs in a fresh worker process and the
end-to-end metrics are reported.  With ``--trace 1`` one untraced and one
traced answer run in this process, plus a ``tracemalloc`` pass on the
uniflow workloads, and the per-layer metrics are reported; the spans go to
``perfbench/out/``.  Every answer is checked against a reference computed
once per run, untimed, and the counters that must repeat are compared
within the run and with earlier runs of the same sources.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))

import cutlattice  # noqa: E402
import workloads  # noqa: E402

# Spawns argv[1:], waits for it and appends its peak RSS (KiB) to stdout.
# Linux carries the spawning process's resident size over into the child's
# ``ru_maxrss``, so the worker is spawned from this small ``-S`` interpreter
# rather than from the benchmark process itself.  SIGTERM to the launcher
# kills the worker before the launcher exits.
LAUNCHER = """\
import os, signal, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
_, status, usage = os.wait4(pid, 0)
sys.stdout.write("\\n%d\\n" % usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


class CountDrift(Exception):
    """A counter that must repeat exactly came out different."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def run_worker(workload: str, seconds: float, data: bytes) -> tuple[list[dict], float]:
    """The worker's answers and its peak RSS in MiB."""
    worker = [sys.executable, "-S", str(HERE / "worker.py"), workload, repr(seconds)]
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", LAUNCHER, *worker],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(data)
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    runs, maxrss_kib = out.decode().strip().rsplit("\n", 1)
    return json.loads(runs), int(maxrss_kib) / 1024.0


def traced_run(w, data: bytes) -> tuple[dict, list[dict]]:
    """One untraced answer, one traced answer and, for uniflow, a walk under
    ``tracemalloc``; returns the per-layer metrics and the three answers."""
    gc.collect()
    plain = workloads.answer(w, data)
    gc.collect()
    tracer = workloads.Tracer()
    traced = workloads.answer(w, data, tracer)
    results = [plain, traced]
    alloc_peak_kib = 0.0
    if w.algorithm == "uniflow":
        built = workloads.setup(w, data)
        gc.collect()
        tracemalloc.start()
        try:
            results.append(workloads.walk(w, built))
            alloc_peak_kib = tracemalloc.get_traced_memory()[1] / 1024.0
        finally:
            tracemalloc.stop()
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{w.name}.json").write_text(json.dumps(tracer.to_json(), indent=1))

    own = tracer.self_times()
    counts = traced.counts
    cuts = sum(c for _, c in traced.per_rank)
    seconds = {
        "traceio.parse_s": own.get("traceio.parse_document", 0.0),
        "model.make_computation_s": own.get("model.make_computation", 0.0),
        "uniflow.partition_s": own.get("uniflow.build_uniflow_partition", 0.0),
        "uniflow.regen_clocks_s": own.get("uniflow.regenerate_vector_clocks", 0.0),
        "traversal.walk_self_s": own.get("traversal.traverse_rank_range", 0.0),
        "traversal.remap_s": own.get("traversal.remap", 0.0),
        "cli.predicate_s": own.get("cli.PredicateSpec.matches", 0.0),
        "baselines.level_bfs_s": own.get("baselines.traditional_bfs", 0.0),
        "tracing_overhead_s": (traced.setup_s + traced.walk_s) - (plain.setup_s + plain.walk_s),
    }
    metrics = {name: metric(v, "s") for name, v in seconds.items()}
    successor_calls = sum(c for _, c in counts.get("traversal.successor_calls", []))
    remap_calls = sum(r["calls"] for r in tracer.summed if r["name"] == "traversal.remap")
    for name, value, unit in (
        ("uniflow.n_u", counts.get("uniflow.n_u", 0), "count"),
        ("traversal.component_ops_per_cut", counts.get("traversal.component_ops", 0) / cuts, "ops/cut"),
        ("traversal.successor_calls", successor_calls, "count"),
        ("traversal.min_cut_calls", counts.get("traversal.min_cut_calls", 0), "count"),
        ("traversal.remap_calls", remap_calls, "count"),
        ("traversal.peak_live_cuts", counts.get("traversal.peak_live_cuts", 0), "count"),
        ("traversal.aux_int_peak", counts.get("traversal.aux_int_peak", 0), "count"),
        ("traversal.alloc_peak_kib", alloc_peak_kib, "KiB"),
        ("baselines.peak_stored_cuts", counts.get("baselines.peak_stored_cuts", 0), "count"),
        ("baselines.max_level_width", counts.get("baselines.max_level_width", 0), "count"),
        ("baselines.expanded_cuts", counts.get("baselines.expanded_cuts", 0), "count"),
    ):
        metrics[name] = metric(value, unit)
    return metrics, [asdict(r) for r in results]


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def end_to_end(done: list[dict], rss_mib: float, ok: list[bool]) -> dict:
    """90th percentiles over the answers of the run that did not raise.

    The VM these were tuned on runs at its usual, contended speed most of the
    time, with bursts of a state about 1.5 times faster.  The median flips
    with the share of a run that fell in a burst; the 90th percentile tracks
    the usual speed: over ten 20 s runs per workload its spread (interquartile
    range over median) was 0.07..0.11, against 0.11..0.23 for the median
    (README.md, "Timing noise").
    """
    cuts = sum(c for _, c in done[0]["per_rank"])
    return {
        "cuts_per_s": metric(cuts / p90([r["walk_s"] for r in done]), "1/s"),
        "answer_s": metric(p90([r["setup_s"] + r["walk_s"] for r in done]), "s"),
        "setup_s": metric(p90([r["setup_s"] for r in done]), "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
        "ok_rate": metric(sum(ok) / len(ok), "ratio"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def source_digest() -> str:
    """Digest of the library and benchmark sources: counts are keyed by it."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, runs: list[dict]) -> None:
    """Cuts per rank and the library's counters must be the same in every
    answer of this run and in every earlier run of the same sources."""
    seen = [{"per_rank": r["per_rank"], **r["counts"]} for r in runs if "error" not in r]
    if not seen:
        return
    for other in seen[1:]:
        if other != seen[0]:
            raise CountDrift(f"answers of one run differ: {seen[0]} vs {other}")
    store = OUT / "counts" / f"{workload}-{source_digest()}.json"
    if store.exists():
        before = json.loads(store.read_text())
        if before != seen[0]:
            raise CountDrift(f"differs from an earlier run ({store}): {before} vs {seen[0]}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(seen[0]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(cutlattice.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cutlattice imported from {cutlattice.__file__}, not {SRC}")
    w = workloads.WORKLOADS[args.workload]
    data = workloads.trace_bytes(w, args.seed)
    if args.trace == 0:
        runs, rss_mib = run_worker(w.name, args.seconds, data)
    else:
        metrics, runs = traced_run(w, data)
    t0 = time.perf_counter()
    expected = workloads.reference(w, data)
    ref_s = time.perf_counter() - t0
    ok = ["error" not in r and (r["per_rank"], r["matches"]) == expected for r in runs]
    done = [r for r in runs if "error" not in r]
    attempted, failed = len(ok), ok.count(False)
    print(
        f"{w.name} seed={args.seed}: {sum(c for _, c in expected[0])} cuts, "
        f"matches={expected[1]}, reference {ref_s:.2f} s, "
        f"error_rate={failed / attempted:.3f} ({failed}/{attempted})"
    )
    if args.trace == 0:
        metrics = {}
        if done:
            metrics = end_to_end(done, rss_mib, ok)
            times = [r["setup_s"] + r["walk_s"] for r in done]
            print(
                f"  answer_s over {len(times)} answers: median {statistics.median(times):.4f} s,"
                f" p90 {p90(times):.4f} s, max {max(times):.4f} s"
            )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    drift = None
    try:
        check_counts(w.name, runs)
    except CountDrift as err:
        drift = err
        print(f"COUNT DRIFT on {w.name}: {err}", file=sys.stderr)
    correct = failed == 0 and drift is None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if drift is None else 1


if __name__ == "__main__":
    sys.exit(main())
