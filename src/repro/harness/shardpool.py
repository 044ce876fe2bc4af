"""Run-level fork fan-out: whole independent runs across worker processes.

One primitive, :func:`fan_out`: apply ``fn(item) -> (result,
counter_deltas)`` to every item, in-process or across a ``fork``
:class:`~concurrent.futures.ProcessPoolExecutor` -- the process-pool
sibling of the thread pool in :mod:`repro.harness.runner`.  Outcomes
come back in submission order whatever the completion order, and a
forked worker's counter deltas fold back into this process's
``METRICS`` registry (sorted by name), so a fanned-out sweep costs the
same by the counters as a sequential one.  In-process runs already
counted their work where it happened, so nothing is folded twice.

Callers: :func:`repro.traffic.serve.run_serving_many` (one
:class:`~repro.traffic.serve.ServeSpec` per item -- serving shards by
*run*, never within one; see ``docs/SERVING.md``) and ``bench-derive``
(one app per item).  Workers inherit the parent's warmed build and
resolution caches through ``fork``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.observe import METRICS

#: What a fanned-out function returns: its result plus counter deltas.
Outcome = Tuple[Any, Dict[str, int]]


def counter_snapshot() -> Dict[str, int]:
    """Every counter's current value, by name."""
    return dict(METRICS.to_dict()["counters"])


def counter_deltas(before: Dict[str, int]) -> Dict[str, int]:
    """Counters that moved since the *before* snapshot, by how much."""
    return {
        name: value - before.get(name, 0)
        for name, value in counter_snapshot().items()
        if value != before.get(name, 0)
    }


def fold_counter_deltas(deltas: Dict[str, int]) -> None:
    """Apply worker counter deltas to this process's registry, by name."""
    for name in sorted(deltas):
        METRICS.counter(name).inc(deltas[name])


def fan_out(fn: Callable[[Any], Outcome], items: Sequence[Any],
            jobs: int) -> List[Outcome]:
    """``[fn(item) for item in items]``, across up to *jobs* fork workers.

    *fn* must be a module-level function (the pool pickles a reference
    to it).  With ``jobs <= 1`` or fewer than two items everything runs
    in-process.  Otherwise each worker's deltas are folded into the
    parent registry once the pool has drained.
    """
    import multiprocessing

    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=context) as pool:
        futures = [pool.submit(fn, item) for item in items]
        outcomes = [future.result() for future in futures]
    for _, deltas in outcomes:
        fold_counter_deltas(deltas)
    return outcomes
