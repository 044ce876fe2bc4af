"""Seeded open-loop arrival generators for the traffic-driven fleet.

The paper's throughput and boot-time results (Figs 7/9/10) become an
operator tradeoff only when boot cost lands inside a *request latency
distribution* -- which requires open-loop traffic: arrivals happen when
the trace says they happen, whether or not a guest is warm.  This module
produces those traces:

- :func:`poisson_trace` -- constant-rate memoryless arrivals;
- :func:`diurnal_trace` -- a nonhomogeneous Poisson process whose rate
  follows a raised-cosine day/night curve (peaks spawn guests, troughs
  idle them out -- the scale-to-zero churn that makes cold boots appear
  in the tail);
- :func:`bursty_trace` -- an on/off modulated process (burst storms).

Every generator is a pure function of ``(spec, seed)``: seeds are folded
through :class:`random.Random` with *string* seeding (SHA-512 based in
CPython), so the sequence is independent of ``PYTHONHASHSEED``.  The app
of each arrival is drawn from a seeded Zipf over the curated serving
profiles (:func:`zipf_app_mix`), most-popular-first -- the MultiK-style
"many specialized kernels, skewed demand" mix.

:class:`ArrivalSource` adapts a trace to the global event heap: it arms
each next arrival as a deadline on the *arrivals clock* (obtained from
``EventCore.clock_for``), so ``clock.next_deadline_ns()`` always agrees
with the router's idea of when the next request lands -- the property
``tests/test_traffic.py`` pins.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

#: Virtual nanoseconds per trace second.
_NS = 1e9


@dataclass(frozen=True)
class TraceSpec:
    """The declarative recipe for one arrival trace (manifest-canonical).

    ``kind`` selects the generator; fields irrelevant to a kind stay at
    their defaults and are omitted from :meth:`to_manifest`.  Use the
    :func:`poisson_trace` / :func:`diurnal_trace` / :func:`bursty_trace`
    constructors rather than instantiating directly.
    """

    kind: str
    requests: int
    mean_rps: float
    #: Diurnal: day/night period and modulation depth (rate swings
    #: between ``mean*(1-amplitude)`` and ``mean*(1+amplitude)``).
    period_s: float = 60.0
    amplitude: float = 0.95
    #: Bursty: on/off phase lengths and their rates.
    on_s: float = 1.0
    off_s: float = 4.0
    on_rps: float = 0.0
    off_rps: float = 0.0
    #: Zipf skew of the app mix over the curated serving profiles.
    zipf_s: float = 1.1

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "diurnal", "bursty"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.requests < 0:
            raise ValueError(
                f"requests cannot be negative, got {self.requests}"
            )
        for name in ("mean_rps", "period_s", "amplitude", "on_s", "off_s",
                     "on_rps", "off_rps", "zipf_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("mean_rps", "on_rps", "off_rps", "on_s", "off_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} cannot be negative")
        if self.period_s <= 0.0:
            raise ValueError("diurnal period_s must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("diurnal amplitude must be within [0, 1]")
        if self.off_rps > self.on_rps:
            raise ValueError("bursty traces need on_rps >= off_rps")

    def to_manifest(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "kind": self.kind,
            "requests": self.requests,
            "zipf_s": self.zipf_s,
        }
        if self.kind in ("poisson", "diurnal"):
            doc["mean_rps"] = self.mean_rps
        if self.kind == "diurnal":
            doc["period_s"] = self.period_s
            doc["amplitude"] = self.amplitude
        if self.kind == "bursty":
            doc["on_s"] = self.on_s
            doc["off_s"] = self.off_s
            doc["on_rps"] = self.on_rps
            doc["off_rps"] = self.off_rps
        return doc


def poisson_trace(requests: int, mean_rps: float,
                  zipf_s: float = 1.1) -> TraceSpec:
    """Constant-rate memoryless arrivals."""
    return TraceSpec(kind="poisson", requests=requests, mean_rps=mean_rps,
                     zipf_s=zipf_s)


def diurnal_trace(requests: int, mean_rps: float, period_s: float = 60.0,
                  amplitude: float = 0.95, zipf_s: float = 1.1) -> TraceSpec:
    """Raised-cosine day/night arrivals (starts at the trough)."""
    return TraceSpec(kind="diurnal", requests=requests, mean_rps=mean_rps,
                     period_s=period_s, amplitude=amplitude, zipf_s=zipf_s)


def bursty_trace(requests: int, on_rps: float, off_rps: float,
                 on_s: float = 1.0, off_s: float = 4.0,
                 zipf_s: float = 1.1) -> TraceSpec:
    """On/off modulated arrivals (burst storms separated by lulls)."""
    return TraceSpec(kind="bursty", requests=requests, mean_rps=0.0,
                     on_s=on_s, off_s=off_s, on_rps=on_rps, off_rps=off_rps,
                     zipf_s=zipf_s)


def _times_rng(seed: int) -> random.Random:
    # String seeding hashes via SHA-512 in CPython -- deterministic and
    # independent of PYTHONHASHSEED (tuple seeds are not).
    return random.Random(f"traffic.arrivals:{seed}")


def _mix_rng(seed: int) -> random.Random:
    return random.Random(f"traffic.mix:{seed}")


def arrival_times_ns(spec: TraceSpec, seed: int) -> Iterator[float]:
    """The trace's arrival instants in virtual ns, strictly in order."""
    rng = _times_rng(seed)
    if spec.kind == "poisson":
        yield from _homogeneous(rng, spec.requests, spec.mean_rps)
    elif spec.kind == "diurnal":
        yield from _thinned(
            rng, spec.requests,
            max_rate=spec.mean_rps * (1.0 + spec.amplitude),
            rate_at=lambda t: spec.mean_rps * (
                1.0 - spec.amplitude * math.cos(
                    2.0 * math.pi * t / spec.period_s
                )
            ),
        )
    elif spec.kind == "bursty":
        cycle = spec.on_s + spec.off_s
        yield from _thinned(
            rng, spec.requests,
            max_rate=spec.on_rps,
            rate_at=lambda t: (
                spec.on_rps if (t % cycle) < spec.on_s else spec.off_rps
            ),
        )
    else:
        raise ValueError(f"unknown trace kind {spec.kind!r}")


def _homogeneous(rng: random.Random, requests: int,
                 rate: float) -> Iterator[float]:
    if rate <= 0.0:
        raise ValueError("arrival rate must be positive")
    t = 0.0
    for _ in range(requests):
        t += rng.expovariate(rate)
        yield t * _NS


def _thinned(rng: random.Random, requests: int, max_rate: float,
             rate_at) -> Iterator[float]:
    """Nonhomogeneous Poisson by thinning against the envelope rate."""
    if max_rate <= 0.0:
        raise ValueError("peak arrival rate must be positive")
    t = 0.0
    emitted = 0
    while emitted < requests:
        t += rng.expovariate(max_rate)
        if rng.random() * max_rate <= rate_at(t):
            emitted += 1
            yield t * _NS


def zipf_app_mix(apps: Sequence[str], spec: TraceSpec,
                 seed: int) -> Iterator[str]:
    """Per-arrival app draws: seeded Zipf over *apps* (rank = position).

    *apps* must already be most-popular-first (the router passes the
    curated serving profiles in registry popularity order); rank ``k``
    gets weight ``1 / (k+1)**zipf_s``.
    """
    if not apps:
        raise ValueError("the app mix needs at least one app")
    rng = _mix_rng(seed)
    weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(apps))]
    # ``choices(weights=...)`` rebuilds these sums on every draw; the
    # same cumulative list draws the same apps.
    cum_weights = list(itertools.accumulate(weights))
    while True:
        yield rng.choices(apps, cum_weights=cum_weights, k=1)[0]


@dataclass(frozen=True)
class Arrival:
    """One request arrival: who it is for and when it lands."""

    index: int
    app: str
    arrival_ns: float


class ArrivalSource:
    """Arms each next arrival as a deadline on the arrivals clock.

    One instance per serving run.  The arrivals program alternates
    :meth:`arm_next` (draw the next ``(time, app)`` and ``call_at`` it
    on the arrivals clock) with a ``yield`` of that deadline; the core
    fast-forwards the clock there, the armed event fires, and
    :meth:`take` hands the delivered :class:`Arrival` to the router.
    Arming through the clock keeps ``clock.next_deadline_ns()`` equal to
    :attr:`next_arrival_ns` -- the agreement property the tests pin.
    :meth:`peek_ns` draws the next trace instant one ahead without
    arming it, so the serving fold can tell whether an arrival lands
    before a request it wants to serve inline finishes.

    A fault hang on the arrival path advances the arrivals clock, which
    may push ``now`` past upcoming trace instants; those arrivals are
    delivered immediately (clamped to ``now``), counted in
    :attr:`clamped`, deterministically.
    """

    def __init__(self, spec: TraceSpec, seed: int, clock,
                 apps: Sequence[str]) -> None:
        self.spec = spec
        self.clock = clock
        self._times = arrival_times_ns(spec, seed)
        self._mix = zipf_app_mix(apps, spec, seed)
        self._index = 0
        self._delivered: Optional[Arrival] = None
        #: The trace instant :meth:`peek_ns` drew ahead (not yet armed).
        self._ahead: Optional[float] = None
        self.next_arrival_ns: Optional[float] = None
        self.clamped = 0

    def peek_ns(self) -> Optional[float]:
        """The next trace instant, unarmed (None: trace done).

        :meth:`arm_next` arms exactly this instant (clamped to the clock,
        as ever); drawing it early changes nothing, since the app mix is
        drawn from its own generator.
        """
        if self._ahead is None:
            self._ahead = next(self._times, None)
        return self._ahead

    def arm_next(self) -> Optional[float]:
        """Arm the next arrival; returns its deadline (None: trace done)."""
        arrival = self._draw()
        if arrival is None:
            return None
        if arrival.arrival_ns > self.clock.now_ns:
            self.clock.call_at(
                arrival.arrival_ns, lambda: self._deliver(arrival)
            )
        else:
            self._deliver(arrival)
        return arrival.arrival_ns

    def take_next(self) -> Arrival:
        """Deliver the next arrival now: the clock lands on its instant,
        exactly as when its armed deadline fires (the trace must not be
        done -- check :meth:`peek_ns` first)."""
        arrival = self._draw()
        if arrival is None:
            raise RuntimeError("the trace is done")
        self.clock.advance_to(arrival.arrival_ns)
        return arrival

    def _draw(self) -> Optional[Arrival]:
        """The next arrival, clamped to the clock (None: trace done)."""
        t = self.peek_ns()
        self._ahead = None
        if t is None:
            self.next_arrival_ns = None
            return None
        arrival = Arrival(index=self._index, app=next(self._mix),
                          arrival_ns=max(t, self.clock.now_ns))
        self._index += 1
        if arrival.arrival_ns > t:
            self.clamped += 1
        self.next_arrival_ns = arrival.arrival_ns
        return arrival

    def take(self) -> Arrival:
        """The arrival whose armed deadline just fired."""
        arrival = self._delivered
        if arrival is None:
            raise RuntimeError("no delivered arrival pending")
        self._delivered = None
        return arrival

    def _deliver(self, arrival: Arrival) -> None:
        self._delivered = arrival


def curated_apps() -> List[str]:
    """The serving-profile apps, most-popular-first (the Zipf ranks)."""
    from repro.apps.registry import top20_in_popularity_order
    from repro.core.orchestrator import serving_profile

    return [
        app.name for app in top20_in_popularity_order()
        if serving_profile(app.name) is not None
    ]
