"""The traced run: spans and counts at each layer's public entry points.

:class:`LayerTrace` wraps the entry points listed in :data:`TIMED` and
:data:`COUNTED` from outside the program (no program file changes),
records one span per timed call -- name, start, end, parent -- into flat
in-memory arrays, and turns them into per-layer figures when the run ends.
A layer's self time is its spans' duration minus the part of it that child
spans cover.  Functions called more than ~100k times per run are only
counted; their time falls to the enclosing timed span.

Wrappers exist only between :meth:`LayerTrace.install` and
:meth:`LayerTrace.remove`; :meth:`LayerTrace.leftovers` proves the
program is back to its original objects, so untraced runs never see one.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: span name -> entry points ("module:Class.attr" or "module:function").
TIMED: Dict[str, Tuple[str, ...]] = {
    "kconfig.enabled": ("repro.kconfig.resolver:ResolvedConfig.enabled",),
    "kconfig.resolve": ("repro.kconfig.resolver:Resolver.resolve",
                        "repro.kconfig.resolver:Resolver.resolve_from"),
    "core.build_variant": ("repro.core.variants:build_variant",
                           "repro.core.lupine:LupineBuilder.build_for_app",
                           "repro.core.orchestrator:"
                           "KernelOrchestrator.unikernel_for"),
    "core.engine_setup": ("repro.core.variants:VariantBuild.syscall_engine",
                          "repro.core.variants:VariantBuild.network_path",
                          "repro.core.variants:MicrovmBuild.syscall_engine",
                          "repro.core.variants:MicrovmBuild.network_path"),
    "kbuild.build": ("repro.kbuild.builder:KernelBuilder.build",),
    "boot.boot": ("repro.boot.bootsim:BootSimulator.boot",),
    "syscall.invoke_batch": ("repro.syscall.dispatch:"
                             "SyscallEngine.invoke_batch",),
    "workloads.server_run": ("repro.workloads.server:LinuxServerStack.run",),
    "workloads.paper_drivers": (
        "repro.workloads.smp_stress:run_futex_stress",
        "repro.workloads.smp_stress:run_sem_posix_stress",
        "repro.workloads.perf_messaging:run_messaging",
    ),
    "simcore.eventcore": ("repro.simcore.eventcore:EventCore.run",),
    "simcore.guest_build": ("repro.simcore.guest:Guest.build",),
    "simcore.guest_boot": ("repro.simcore.guest:Guest.boot",),
    "simcore.guest_serve": ("repro.simcore.guest:Guest.serve",),
    "traffic.dispatch": ("repro.traffic.router:Router.dispatch",),
    "traffic.arrivals": ("repro.traffic.arrivals:ArrivalSource.arm_next",
                         "repro.traffic.arrivals:ArrivalSource.take"),
    "traffic.supervisor": ("repro.traffic.supervisor:Supervisor.watch",
                           "repro.traffic.supervisor:"
                           "Supervisor.record_failure",
                           "repro.traffic.supervisor:"
                           "Supervisor.record_success",
                           "repro.traffic.router:Router.restart"),
}

#: count name -> entry points that are counted, not timed (too hot).
COUNTED: Dict[str, Tuple[str, ...]] = {
    "sched.calls": ("repro.sched.scheduler:Scheduler.sleep",
                    "repro.sched.scheduler:Scheduler.wake",
                    "repro.sched.scheduler:Scheduler.schedule",
                    "repro.sched.futex:FutexTable.wait",
                    "repro.sched.futex:FutexTable.wake"),
    "syscall.invoke_calls": ("repro.syscall.dispatch:SyscallEngine.invoke",),
    "faults.site_checks": ("repro.faults.plane:fault_site",),
}

#: The orchestrator's per-app unikernel memo, probed before each call.
_MEMO_TARGET = "repro.core.orchestrator:KernelOrchestrator.unikernel_for"

#: Program counters read after a traced run (the registry is reset before
#: every run, so the value is the run's own delta).
PROGRAM_COUNTERS = (
    "kconfig.resolve.cache_hits", "kconfig.resolve.cache_misses",
    "buildcache.hits", "buildcache.misses",
    "eventcore.events_dispatched",
    "harness.result_cache.hits", "harness.result_cache.misses",
)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:Class.attr`` or
    ``module:function``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on its owner")
    return owner, attr, vars(owner)[attr]


class LayerTrace:
    """Spans and counts for one traced run (see module docstring)."""

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._restored: List[Tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        name_id = self._name_ids[name]
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return timed

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _memo_probe(self, fn: Callable) -> Callable:
        counts = self.counts

        def probed(orchestrator: Any, app: Any) -> Any:
            hit = app.name in orchestrator._unikernels
            counts["core.unikernel_memo_hits" if hit
                   else "core.unikernel_memo_misses"] += 1
            return fn(orchestrator, app)

        return probed

    def _wrap(self, target: str, make: Callable[[Callable], Callable]
              ) -> None:
        owner, attr, original = _resolve(target)
        if isinstance(original, property):
            replacement: Any = property(make(original.fget))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        if isinstance(owner, type):
            return
        # A module function is also bound by name wherever it was imported
        # with ``from ... import``: rebind every such alias too.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if (module is not owner and name.startswith("repro")
                    and vars(module).get(attr) is original):
                self._patches.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self) -> "LayerTrace":
        if self._patches:
            raise RuntimeError("layer trace already installed")
        for name, targets in TIMED.items():
            for target in targets:
                if target == _MEMO_TARGET:
                    self._wrap(target, lambda fn, n=name:
                               self._memo_probe(self._timed(n, fn)))
                else:
                    self._wrap(target, lambda fn, n=name: self._timed(n, fn))
        for name, targets in COUNTED.items():
            for target in targets:
                self._wrap(target, lambda fn, n=name: self._counted(n, fn))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._restored = list(self._patches)
        self._patches = []

    def leftovers(self) -> List[str]:
        """Entry points that do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._restored
            if vars(owner).get(attr) is not original
        ]

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.remove()

    # -- reading -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Per span name: calls, total and self seconds; plus counts and
        the host durations of every guest boot (ms)."""
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        covered = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                covered[parent] += durations[index]
        calls: Counter = Counter()
        self_s: Dict[str, float] = {}
        for index in range(count):
            name = self.span_names[self.names[index]]
            calls[name] += 1
            self_s[name] = (self_s.get(name, 0.0)
                            + durations[index] - covered[index])
        boot_id = self._name_ids.get("simcore.guest_boot")
        boots_ms = [durations[i] * 1e3 for i in range(count)
                    if self.names[i] == boot_id]
        return {"calls": dict(calls), "self_s": self_s,
                "counts": dict(self.counts), "boot_host_ms": boots_ms}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of *samples*."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail_percentile(count: float) -> float:
    """The highest of p90/p99/p99.9 with at least ten of *count* samples
    beyond it (0: fewer than 100 samples, so none has)."""
    for pct in (99.9, 99.0, 90.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 0.0
