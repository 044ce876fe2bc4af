"""Request-cost composition for network server workloads.

A served request costs: the syscalls the server issues (through the
simulated kernel, so entry mechanism and config hooks apply), the network
stack traversals for the packets involved (config hooks again), and the
application's own userspace work (identical across kernels -- the paper
keeps the application binary unmodified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.netstack.path import NetworkPath
from repro.syscall.dispatch import SyscallEngine


@dataclass(frozen=True)
class RequestProfile:
    """The per-request recipe for one workload."""

    name: str
    syscalls: Tuple[str, ...]
    app_ns: float
    packets_in: int = 1
    packets_out: int = 1
    handshake_packets: int = 0
    payload_bytes: int = 256

    @property
    def total_packets(self) -> int:
        return self.packets_in + self.packets_out + self.handshake_packets


def check_request_count(requests: object) -> None:
    """Reject a request count that is not an int >= 1 (bools included)."""
    if (isinstance(requests, bool) or not isinstance(requests, int)
            or requests < 1):
        raise ValueError(
            f"requests must be an int >= 1, got {requests!r}"
        )


@dataclass(frozen=True)
class LinuxServerStack:
    """A server application running on one simulated Linux kernel."""

    engine: SyscallEngine
    netpath: NetworkPath
    #: ``_work_ns(profile, profile.app_ns)`` per profile: the stack is
    #: frozen and profiles and network paths are immutable, so the memo
    #: can never go stale.
    _work: Dict[RequestProfile, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _work_ns(self, profile: RequestProfile, base_ns: float = 0.0) -> float:
        """Network + *base_ns* cost of one request, shared by every path.

        The single source of the data/handshake formula: ``request_ns``
        folds the syscall latencies in as *base_ns*, the live-run paths
        fold in the app time -- so the analytic and driven costs cannot
        drift apart.  The fold order (``((base + data) + handshake)``)
        is load-bearing: float addition is not associative and both
        callers' historical groupings reduce to exactly this shape.
        """
        return (
            base_ns
            + (profile.packets_in + profile.packets_out)
            * self.netpath.packet_ns(profile.payload_bytes)
            + profile.handshake_packets * self.netpath.connection_packet_ns()
        )

    def _request_work_ns(self, profile: RequestProfile) -> float:
        """The non-syscall cost the live-run paths charge per request."""
        work = self._work.get(profile)
        if work is None:
            work = self._work[profile] = self._work_ns(
                profile, profile.app_ns
            )
        return work

    def request_ns(self, profile: RequestProfile) -> float:
        """Simulated time to serve one request."""
        syscall_ns = sum(
            self.engine.latency_ns(name) for name in profile.syscalls
        )
        # Userspace work is slower in ring 0? No: KML processes run the same
        # code at the same speed; only kernel work scales with -Os.
        return self._work_ns(profile, syscall_ns) + profile.app_ns

    def requests_per_second(self, profile: RequestProfile) -> float:
        return 1e9 / self.request_ns(profile)

    def request_end_ns(self, profile: RequestProfile,
                       start_ns: float) -> Optional[float]:
        """Where serving one request of *profile* from *start_ns* would
        leave the engine clock, charging nothing (None: the profile needs
        the stepped loop)."""
        return self.engine.batch_end_ns(
            profile.syscalls, self._request_work_ns(profile), start_ns
        )

    def run(self, profile: RequestProfile, requests: int) -> float:
        """Drive *requests* requests through the live engine; returns rps.

        Unlike :meth:`requests_per_second` this mutates engine state (the
        deterministic jitter applies), modelling a real benchmark run.

        The per-request costs are batched through
        :meth:`~repro.syscall.dispatch.SyscallEngine.invoke_batch`
        (closed-form addends from the shared request-cost table, one
        engine call), bit-for-bit identical to the stepped loop
        :meth:`run_stepped` replays -- the property the batched-vs-stepped
        parity test pins.  Profiles with config-gated syscalls fall back
        to the stepped loop to preserve its charge-then-raise semantics.
        A request count that is not an int >= 1 raises ``ValueError``
        before the engine is touched.
        """
        check_request_count(requests)
        engine = self.engine
        if engine.batch_plan(profile.syscalls) is None:
            return self.run_stepped(profile, requests)
        start = engine.clock_ns
        end = engine.invoke_batch(
            profile.syscalls, self._request_work_ns(profile), requests
        )
        elapsed_s = (end - start) / 1e9
        return requests / elapsed_s

    def run_stepped(self, profile: RequestProfile, requests: int) -> float:
        """The reference per-request loop (the oracle :meth:`run` must
        match bit-for-bit; also the path for ENOSYS-raising profiles)."""
        check_request_count(requests)
        start = self.engine.clock_ns
        for _ in range(requests):
            for name in profile.syscalls:
                self.engine.invoke(name)
            self.engine.cpu_work(self._work_ns(profile, profile.app_ns))
        elapsed_s = (self.engine.clock_ns - start) / 1e9
        return requests / elapsed_s
