"""Warm-pool / keepalive policies for the traffic-driven fleet.

The operator knob the serving layer exists to study: how long to keep a
booted guest around waiting for the next request.  Scale-to-zero makes
cold boots (the paper's Fig 7 cost) appear in the latency tail on every
traffic trough; a fixed pre-warmed pool buys the tail back with
guest-seconds.  Policies are frozen declarative objects evaluated as
virtual-time events by the router's worker programs -- an idle timeout
is a ``yield deadline`` on the worker's own clock, never wall time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class WarmPoolPolicy:
    """Keepalive/capacity policy for one serving run.

    - ``idle_timeout_s``: scale-to-zero timer -- an idle warm guest
      retires after this long without a request (``None``: keep alive
      forever);
    - ``min_warm``: per-app floor of live guests the idle timeout may
      never retire below;
    - ``max_per_app`` / ``max_total``: capacity ceilings -- arrivals
      beyond them queue (FIFO per app) instead of cold-booting;
    - ``pre_warm``: guests per app booted at virtual time zero, before
      any traffic.
    """

    name: str
    idle_timeout_s: Optional[float] = 1.0
    min_warm: int = 0
    max_per_app: int = 8
    max_total: int = 1000
    pre_warm: int = 0

    def __post_init__(self) -> None:
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0.0:
            raise ValueError("idle_timeout_s must be positive (or None)")
        if self.min_warm < 0 or self.pre_warm < 0:
            raise ValueError("pool floors cannot be negative")
        if self.max_per_app < 1 or self.max_total < 1:
            raise ValueError("pool ceilings must be at least 1")
        if self.min_warm > self.max_per_app:
            raise ValueError(
                f"min_warm ({self.min_warm}) cannot exceed "
                f"max_per_app ({self.max_per_app})"
            )

    @property
    def idle_timeout_ns(self) -> Optional[float]:
        if self.idle_timeout_s is None:
            return None
        return self.idle_timeout_s * 1e9

    def with_overrides(self, **overrides: object) -> "WarmPoolPolicy":
        """A copy with selected fields replaced (CLI knobs)."""
        return dataclasses.replace(self, **overrides)

    def to_manifest(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "idle_timeout_s": self.idle_timeout_s,
            "min_warm": self.min_warm,
            "max_per_app": self.max_per_app,
            "max_total": self.max_total,
            "pre_warm": self.pre_warm,
        }


#: Serverless-style: nothing pre-warmed, aggressive idle timeout -- every
#: traffic trough retires the fleet, every ramp cold-boots it again.
SCALE_TO_ZERO = WarmPoolPolicy(
    name="scale-to-zero", idle_timeout_s=0.25, min_warm=0, pre_warm=0,
    max_per_app=16, max_total=1000,
)

#: Provisioned: two guests per app booted up front and pinned alive; the
#: remaining capacity still scales with demand.
FIXED_POOL = WarmPoolPolicy(
    name="fixed-pool", idle_timeout_s=None, min_warm=2, pre_warm=2,
    max_per_app=16, max_total=1000,
)

_NAMED: Dict[str, WarmPoolPolicy] = {
    SCALE_TO_ZERO.name: SCALE_TO_ZERO,
    FIXED_POOL.name: FIXED_POOL,
}


def named_policy(name: str) -> WarmPoolPolicy:
    """Look up a preset policy by name (CLI surface)."""
    try:
        return _NAMED[name]
    except KeyError:
        known = ", ".join(sorted(_NAMED))
        raise ValueError(f"unknown warm-pool policy {name!r}; known: {known}")


def policy_names() -> list:
    return sorted(_NAMED)
