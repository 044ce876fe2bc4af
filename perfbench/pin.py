"""Regenerate ``pins.json``: the manifest digest of every serving workload
at its benchmark size, for every trace of seeds ``0 .. SEEDS - 1`` (trace
seeds ``0 .. SEEDS * TRACES_PER_SEED - 1``).

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only when the program's simulated outputs change on purpose; the
benchmark treats a digest that differs from its pin as a failed run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import sys
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Seeds pinned per serving workload.
SEEDS = 32
TRACE_SEEDS = SEEDS * workloads.TRACES_PER_SEED


def _digests(job: Tuple[str, List[int]]) -> Tuple[str, Dict[str, str]]:
    name, seeds = job
    sys.path.insert(0, str(workloads.ROOT / "src"))
    workloads.setup()
    workload = workloads.WORKLOADS[name]
    return name, workloads.run_digests(workload, seeds)


def main() -> int:
    serving = [w for w in workloads.WORKLOADS.values() if w.serving]
    chunk = 8
    jobs = [(w.name, list(range(start, min(start + chunk, TRACE_SEEDS))))
            for w in serving for start in range(0, TRACE_SEEDS, chunk)]
    pins = {w.name: {"requests": w.requests, "digests": {}} for w in serving}
    context = multiprocessing.get_context("spawn")
    with context.Pool(os.cpu_count()) as pool:
        for name, digests in pool.imap_unordered(_digests, jobs):
            pins[name]["digests"].update(digests)
    for entry in pins.values():
        entry["digests"] = dict(sorted(entry["digests"].items(),
                                       key=lambda item: int(item[0])))
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n",
                                   encoding="utf-8")
    print(f"pinned {SEEDS} seeds ({TRACE_SEEDS} traces) x "
          f"{len(serving)} workloads "
          f"-> {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
