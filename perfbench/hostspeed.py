"""Run times at a fixed host speed, from probes taken while the run is timed.

The benchmark's host is shared.  With no steal time to show for it, a fixed
loop of pure Python runs up to twice as slow at one moment as at the next,
and the program slows with it, so a run's host seconds carry the host's
load as well as the program's cost.  :class:`SampledStopwatch` times a run
and, every :data:`INTERVAL_S` of it, times a fixed reference probe from a
``SIGALRM`` handler.  The run's host seconds (probe time excluded) over the
probes' mean time is the run's length in probe-lengths; times
:data:`REFERENCE_S` it is the run's time on a host where one probe takes
``REFERENCE_S``, about what the probe takes on an idle host of the kind
the README records.

The probe does interpreter-bound work (a small dict and list churned in a
loop) and memory-bound work (a chase through a 128k-entry list of ints and a
str-keyed dict), about three parts to one by time: the first alone slows
more than the program when the host is loaded, the second less, and this
mix slowed as the serving workloads did over minutes of sampling.  Neither part
allocates a garbage-collected object, so no probe starts a collection of the
program's garbage.

The probe is fixed benchmark code: a program change moves the run's time
in probe-lengths and leaves the probe's own time alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional

#: Seconds of run between two probes.
INTERVAL_S = 0.05
#: Loop rounds of the two parts of one probe (~0.9 and ~0.3 ms idle).
INTERPRETER_ROUNDS = 1500
MEMORY_ROUNDS = 900
#: Nominal seconds of one probe: the host speed run times are given at.
REFERENCE_S = 0.001

_TABLE: dict = {}
_QUEUE: list = []
_SIZE = 1 << 17
#: A full-period walk i -> 5i + 1 (mod 2**17) over int objects.
_CHAIN = [(5 * i + 1) & (_SIZE - 1) for i in range(_SIZE)]
_TAGS = tuple(f"tag{i}" for i in range(4096))
_MAPPING = {tag: i for i, tag in enumerate(_TAGS)}
_cursor = [0]


def _interpreter_bound(rounds: int) -> int:
    table, queue = _TABLE, _QUEUE
    table.clear()
    queue.clear()
    acc = 0
    for i in range(rounds):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        queue.append(i * 0.5)
        if len(queue) > 32:
            acc += int(queue.pop(0))
        acc ^= hash(key) & 0xFF
    return acc


def _memory_bound(rounds: int) -> int:
    chain, tags, mapping = _CHAIN, _TAGS, _MAPPING
    index = _cursor[0]
    acc = 0
    for _ in range(rounds):
        index = chain[index]
        acc += mapping[tags[index & 4095]]
    _cursor[0] = index
    return acc


def probe() -> float:
    """Host seconds of one reference probe."""
    started = time.perf_counter()
    _interpreter_bound(INTERPRETER_ROUNDS)
    _memory_bound(MEMORY_ROUNDS)
    return time.perf_counter() - started


class Stopwatch:
    """Host seconds of a ``with`` block, with no probes."""

    wall_s: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s = time.perf_counter() - self._started

    @property
    def reference_s(self) -> Optional[float]:
        return None


class SampledStopwatch(Stopwatch):
    """Host seconds of a ``with`` block, probe time excluded, and the same
    time at the reference speed (:attr:`reference_s`).  One probe runs
    just before the block and one just after it, so even a block shorter
    than :data:`INTERVAL_S` has a speed.  Main thread only (signals)."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._spent = 0.0

    def _on_alarm(self, *_: Any) -> None:
        seconds = probe()
        self.probes.append(seconds)
        self._spent += seconds

    def __enter__(self) -> "SampledStopwatch":
        self.probes = [probe()]
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._started - self._spent
        # An alarm raised before the timer stopped is handled here, while
        # the handler is still ours; it no longer counts toward the run.
        self.probes.append(probe())
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Mean host seconds of one probe while the block ran."""
        return statistics.fmean(self.probes)

    @property
    def reference_s(self) -> float:
        return self.wall_s * REFERENCE_S / self.probe_s
