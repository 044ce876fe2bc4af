"""Syscall dispatch: resolve a syscall against a kernel config and charge time.

The :class:`SyscallEngine` is the meeting point of the three things that
determine syscall latency in the paper:

1. which syscalls are compiled in (config gating, Table 1) -- calling a
   compiled-out syscall returns ``ENOSYS``, which is exactly the
   "function not implemented" failure mode used to derive per-app configs;
2. the entry mechanism (``syscall`` vs KML ``call``); and
3. config-dependent per-syscall overheads (audit, seccomp, debug options).

The engine is deterministic: no wall clock; simulated nanoseconds accumulate
on an internal counter.  A small deterministic jitter (derived from the call
sequence number) models measurement noise without breaking reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.simcore.clock import VirtualClock
from repro.syscall.cpu import CpuCostModel, EntryMechanism
from repro.syscall.table import SYSCALLS, Syscall
from repro.syscall.usage import UsageTrace


class SyscallError(Exception):
    """Base class for simulated syscall failures."""

    errno_name = "EINVAL"


class SyscallNotImplemented(SyscallError):
    """ENOSYS: the syscall is not compiled into this kernel.

    Carries the gating option so callers (and the manifest-derivation loop
    of Section 4.1) can report *which* option is missing, mirroring error
    messages like "the futex facility returned an unexpected error code".
    """

    errno_name = "ENOSYS"

    def __init__(self, syscall_name: str, missing_option: Optional[str]):
        self.syscall_name = syscall_name
        self.missing_option = missing_option
        hint = (
            f" (enable CONFIG_{missing_option})" if missing_option else ""
        )
        super().__init__(f"{syscall_name}: function not implemented{hint}")


@dataclass
class SyscallResult:
    """Outcome of one simulated syscall."""

    name: str
    latency_ns: float
    value: int = 0


class BatchPlan(NamedTuple):
    """What ``invoke_batch`` needs of one name tuple, looked up once.

    Valid only for the ``cost_model`` and ``enabled_options`` objects it
    was built from: both are immutable, so checking their identity is
    enough to tell a plan that no longer applies.
    """

    cost_model: CpuCostModel
    enabled_options: FrozenSet[str]
    syscalls: Tuple[Syscall, ...]
    #: Per-position jitter-free latency, ``cost_model.syscall_ns(...)``.
    bases: Tuple[float, ...]
    entry_ns: float


@dataclass
class SyscallEngine:
    """Dispatches simulated syscalls for one kernel instance.

    ``enabled_options`` comes from a resolved config; ``cost_model`` from
    :class:`~repro.syscall.cpu.CpuCostModel`.  The engine counts calls and
    accumulates simulated time, which the lmbench and workload layers read.
    """

    enabled_options: FrozenSet[str]
    cost_model: CpuCostModel
    clock: VirtualClock = field(default_factory=VirtualClock)
    call_count: int = 0
    per_syscall_counts: Dict[str, int] = field(default_factory=dict)
    #: Optional usage recorder (see :mod:`repro.syscall.usage`).  Pure
    #: bookkeeping: attaching one never changes timing or counters.
    usage: Optional[UsageTrace] = None
    #: ``invoke_batch`` plans by name tuple (see :meth:`batch_plan`).
    _plans: Dict[Tuple[str, ...], BatchPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def clock_ns(self) -> float:
        """Simulated nanoseconds accumulated on this engine's clock."""
        return self.clock.now_ns

    @clock_ns.setter
    def clock_ns(self, value: float) -> None:
        # Exact-set semantics: legacy call sites do ``engine.clock_ns = 0.0``
        # and ``engine.clock_ns += x``; ``jump_to`` lands on the exact
        # value (no ``now + (value - now)`` rounding detour).
        self.clock.jump_to(value)

    @classmethod
    def for_config(
        cls,
        enabled_options: Iterable[str],
        entry: EntryMechanism = EntryMechanism.SYSCALL,
        kpti: bool = False,
        size_optimized: bool = False,
        clock: Optional[VirtualClock] = None,
    ) -> "SyscallEngine":
        enabled = frozenset(enabled_options)
        return cls(
            enabled_options=enabled,
            cost_model=CpuCostModel.for_options(
                enabled, entry=entry, kpti=kpti, size_optimized=size_optimized
            ),
            clock=clock if clock is not None else VirtualClock(),
        )

    # -- availability ------------------------------------------------------

    def lookup(self, name: str) -> Syscall:
        """Resolve *name*; raise :class:`SyscallNotImplemented` if gated out."""
        syscall = SYSCALLS.get(name)
        if syscall is None:
            raise SyscallNotImplemented(name, None)
        if syscall.option is not None and syscall.option not in self.enabled_options:
            raise SyscallNotImplemented(name, syscall.option)
        return syscall

    def supports(self, name: str) -> bool:
        try:
            self.lookup(name)
        except SyscallNotImplemented:
            return False
        return True

    def batch_plan(self, names: Sequence[str]) -> Optional[BatchPlan]:
        """The plan ``invoke_batch`` folds *names* with, or None if one of
        them is gated out.

        Plans live on this engine, one per name tuple, and are rebuilt
        when ``cost_model`` or ``enabled_options`` is replaced.  A gated
        tuple is never cached, and like ``supports`` the probe records
        nothing.
        """
        key = tuple(names)
        plan = self._plans.get(key)
        if (plan is not None and plan.cost_model is self.cost_model
                and plan.enabled_options is self.enabled_options):
            return plan
        try:
            syscalls = tuple(self.lookup(name) for name in key)
        except SyscallNotImplemented:
            return None
        model = self.cost_model
        plan = BatchPlan(
            cost_model=model,
            enabled_options=self.enabled_options,
            syscalls=syscalls,
            bases=tuple(
                model.syscall_ns(s.handler_ns, s.data_path) for s in syscalls
            ),
            entry_ns=model.entry.entry_ns,
        )
        self._plans[key] = plan
        return plan

    def _lookup_recorded(self, name: str) -> Syscall:
        """``lookup`` that reports ENOSYS misses to the usage recorder.

        Only invocation paths use this; ``supports`` probes stay
        unrecorded (a capability check is not an exercised syscall).
        """
        try:
            return self.lookup(name)
        except SyscallNotImplemented as exc:
            if self.usage is not None:
                self.usage.record_miss(exc.syscall_name, exc.missing_option)
            raise

    # -- invocation --------------------------------------------------------

    def invoke(self, name: str, work_ns: float = 0.0) -> SyscallResult:
        """Invoke syscall *name*, charging entry + handler + *work_ns*.

        *work_ns* models data-dependent handler work (e.g. copied bytes).
        """
        syscall = self._lookup_recorded(name)
        latency = self.cost_model.syscall_ns(
            syscall.handler_ns + work_ns, syscall.data_path
        )
        latency += self._jitter()
        self.clock.advance(latency)
        self.call_count += 1
        self.per_syscall_counts[name] = self.per_syscall_counts.get(name, 0) + 1
        if self.usage is not None:
            self.usage.record(name, syscall.option)
        return SyscallResult(name=name, latency_ns=latency)

    def latency_ns(self, name: str, work_ns: float = 0.0) -> float:
        """Latency of *name* without mutating engine state (no jitter)."""
        syscall = self.lookup(name)
        return self.cost_model.syscall_ns(
            syscall.handler_ns + work_ns, syscall.data_path
        )

    def cpu_work(self, duration_ns: float) -> None:
        """Charge userspace CPU time (busy-wait loops in Figure 10)."""
        if duration_ns < 0:
            raise ValueError("cannot perform negative work")
        self.clock.advance(duration_ns)

    def invoke_batch(self, names: Sequence[str], work_ns: float,
                     repeats: int) -> float:
        """Drive ``repeats`` rounds of ``invoke(name) for name in names``
        followed by ``cpu_work(work_ns)``, bit-for-bit equivalent to the
        stepped calls but without per-call dispatch overhead.

        The per-call cost is closed-form: base latency is a pure function
        of the syscall, and the deterministic jitter a pure function of
        the call sequence number with period 1000 (``c * 2654435761 mod
        1000``).  The full addend series therefore repeats every
        ``lcm(len(names), 1000) / len(names)`` rounds, so one period is
        materialized and the fold replayed from it.  The fold itself must
        stay element-wise -- IEEE-754 addition is not associative, and
        golden parity requires the exact same additions in the exact same
        order as the stepped loop -- but it runs over a local float with
        precomputed addends, which is what makes ``LinuxServerStack.run``
        cheap at fleet scale.

        Returns the new ``clock_ns``.  Raises
        :class:`SyscallNotImplemented` (before charging anything) if any
        name is config-gated; callers needing the stepped loop's
        partial-charge semantics must fall back to per-call ``invoke``.
        """
        if repeats < 0:
            raise ValueError("cannot run a negative number of rounds")
        if work_ns < 0:
            raise ValueError("cannot perform negative work")
        plan = self.batch_plan(names)
        if plan is None:
            # Gated batches are never planned: each call looks its names
            # up again, so ENOSYS is raised -- and recorded -- every time.
            for name in names:
                self._lookup_recorded(name)
            raise AssertionError("batch_plan refused an ungated batch")
        if repeats == 0:
            return self.clock_ns
        bases, entry_ns = plan.bases, plan.entry_ns
        stride = len(bases)
        # Distinct jitter phases recur after period(stride) rounds.
        period = 1000 // math.gcd(stride, 1000) if stride else 1
        period = min(period, repeats)
        start_count = self.call_count
        addends: List[float] = []
        for round_index in range(period):
            count = start_count + round_index * stride
            for base in bases:
                phase = (count * 2654435761) % 1000
                # Same expression *and association* as invoke()+_jitter():
                # float multiplication is no more associative than
                # addition.
                addends.append(
                    base + ((phase / 1000.0) - 0.5) * 0.03 * entry_ns
                )
                count += 1
            addends.append(work_ns)
        clock = self.clock_ns
        full_periods, tail_rounds = divmod(repeats, period)
        for _ in range(full_periods):
            for addend in addends:
                clock += addend
        for addend in addends[: tail_rounds * (stride + 1)]:
            clock += addend
        self.clock.advance_to(clock)
        self.call_count += repeats * stride
        for name in names:
            self.per_syscall_counts[name] = (
                self.per_syscall_counts.get(name, 0) + repeats
            )
        if self.usage is not None:
            # Closed-form attribution: one record per position with the
            # full repeat count -- no stepping, same totals as the loop.
            for name, syscall in zip(names, plan.syscalls):
                self.usage.record(name, syscall.option, repeats)
        return clock

    def _jitter(self) -> float:
        # +/-1.5% deterministic jitter keyed on the call sequence number.
        phase = (self.call_count * 2654435761) % 1000
        return ((phase / 1000.0) - 0.5) * 0.03 * self.cost_model.entry.entry_ns

    # -- reporting ---------------------------------------------------------

    def reset_clock(self) -> None:
        self.clock.jump_to(0.0)
        self.call_count = 0
        self.per_syscall_counts.clear()
