"""Request-cost composition for network server workloads.

A served request costs: the syscalls the server issues (through the
simulated kernel, so entry mechanism and config hooks apply), the network
stack traversals for the packets involved (config hooks again), and the
application's own userspace work (identical across kernels -- the paper
keeps the application binary unmodified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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


@dataclass
class LinuxServerStack:
    """A server application running on one simulated Linux kernel."""

    engine: SyscallEngine
    netpath: NetworkPath

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

    def run(self, profile: RequestProfile, requests: int) -> float:
        """Drive *requests* requests through the live engine; returns rps.

        Unlike :meth:`requests_per_second` this mutates engine state (the
        deterministic jitter applies), modelling a real benchmark run.

        The per-request costs are batched through
        :meth:`~repro.syscall.dispatch.SyscallEngine.invoke_batch`
        (closed-form addends, one engine call), bit-for-bit identical to
        the stepped loop :meth:`run_stepped` replays -- the property the
        batched-vs-stepped parity test pins.  Profiles with config-gated
        syscalls fall back to the stepped loop to preserve its
        charge-then-raise semantics.
        """
        start = self.engine.clock_ns
        self.serve_chunk(profile, requests)
        elapsed_s = (self.engine.clock_ns - start) / 1e9
        return requests / elapsed_s

    def serve_chunk(self, profile: RequestProfile, requests: int) -> None:
        """Charge *requests* requests without rate accounting.

        The unit of work the fleet's global event loop interleaves:
        because ``invoke_batch`` folds element-wise over the engine's
        running accumulator and jitter phases key off the continuous
        ``call_count``, serving ``n`` requests as any sequence of chunks
        is bit-for-bit identical to one ``n``-request batch -- which is
        what lets interleaved guests reproduce the sequential oracle's
        manifest exactly.  Profiles naming a config-gated syscall take
        the stepped loop, preserving its charge-then-raise semantics.
        The probe is the engine's cached batch plan, which
        ``invoke_batch`` then reuses.
        """
        if self.engine.batch_plan(profile.syscalls) is not None:
            self.engine.invoke_batch(
                profile.syscalls,
                self._work_ns(profile, profile.app_ns),
                requests,
            )
            return
        for _ in range(requests):
            for name in profile.syscalls:
                self.engine.invoke(name)
            self.engine.cpu_work(self._work_ns(profile, profile.app_ns))

    def run_stepped(self, profile: RequestProfile, requests: int) -> float:
        """The reference per-request loop (the oracle :meth:`run` must
        match bit-for-bit; also the path for ENOSYS-raising profiles)."""
        start = self.engine.clock_ns
        for _ in range(requests):
            for name in profile.syscalls:
                self.engine.invoke(name)
            self.engine.cpu_work(self._work_ns(profile, profile.app_ns))
        elapsed_s = (self.engine.clock_ns - start) / 1e9
        return requests / elapsed_s
