"""Timed loop of one workload, run in a fresh process so its peak RSS is its own.

Usage: ``python3 perfbench/worker.py <workload> <seconds> < trace``.  Reads the
trace bytes from stdin, answers from them again and again for ``seconds``
(at least ``MIN_ANSWERS`` times) and prints one JSON list: per answer its
set-up and walk times, its answer and its counters, or the error it raised.
An error fails that answer only; the loop goes on.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, answer  # noqa: E402

MIN_ANSWERS = 5


def main() -> int:
    w = WORKLOADS[sys.argv[1]]
    seconds = float(sys.argv[2])
    data = sys.stdin.buffer.read()
    start = time.perf_counter()
    runs = []
    while len(runs) < MIN_ANSWERS or time.perf_counter() - start < seconds:
        gc.collect()
        try:
            runs.append(asdict(answer(w, data)))
        except Exception:
            traceback.print_exc()
            runs.append({"error": traceback.format_exc(limit=3)})
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
