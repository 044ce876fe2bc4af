"""Kernel orchestration: managing specialized kernels for many apps.

The paper's conclusion and its MultiK citation sketch the deployment
question Lupine raises: run one specialized kernel per application, or one
``lupine-general`` kernel for everything?  Section 4 answers it empirically
(general costs ≤4% throughput, +2 ms boot, slightly larger image); this
module turns that decision into an operator-facing policy object with a
build cache, so a fleet of unikernels can be stood up the way the paper's
evaluation was.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.apps.app import Application
from repro.core.lupine import LupineBuilder, LupineUnikernel
from repro.core.variants import Variant, variant_fingerprint


class KernelPolicy(enum.Enum):
    """Which kernel to give each application."""

    #: One specialized kernel per application (maximum specialization).
    PER_APP = "per-app"
    #: One lupine-general kernel shared by all (the paper's recommendation
    #: for general users; Section 4.1).
    GENERAL = "general"
    #: Specialized kernels for apps above a popularity threshold, the
    #: general kernel for the long tail.
    HYBRID = "hybrid"


@dataclass
class Fleet:
    """A set of built unikernels plus aggregate statistics."""

    guests: Dict[str, LupineUnikernel] = field(default_factory=dict)

    @staticmethod
    def _kernel_identity(unikernel: LupineUnikernel) -> str:
        # Content fingerprint when available (two apps resolving to the
        # identical config share one kernel); config name as a fallback for
        # builds assembled outside the caching path.
        return unikernel.build.fingerprint or unikernel.build.config.name

    @property
    def distinct_kernels(self) -> int:
        return len({
            self._kernel_identity(unikernel)
            for unikernel in self.guests.values()
        })

    @property
    def total_kernel_mb(self) -> float:
        seen = {}
        for unikernel in self.guests.values():
            seen[self._kernel_identity(unikernel)] = unikernel.kernel_image_mb
        return sum(seen.values())

    def boot_all(self) -> Dict[str, float]:
        """Boot every guest; returns app -> boot ms."""
        return {
            name: unikernel.boot().boot_report.total_ms
            for name, unikernel in self.guests.items()
        }

    #: Requests served per chunk when the global event loop interleaves
    #: guests (chunking is bit-exact; see LinuxServerStack.serve_chunk).
    SERVE_CHUNK = 8

    @classmethod
    def simulate(
        cls,
        count: int,
        policy: KernelPolicy = KernelPolicy.GENERAL,
        seed: int = 0,
        requests_per_guest: int = 32,
        kml: bool = True,
        global_loop: bool = False,
        cohort: bool = False,
        jobs: int = 1,
    ) -> "FleetSimulation":
        """Boot and drive *count* guests under *policy*; fully deterministic.

        Draws an application mix from the registry's top-20 (weighted by
        download popularity, seeded PRNG), runs every guest through the
        unified :class:`~repro.simcore.guest.Guest` lifecycle -- full
        Figure 2 image pipeline, boot, then *requests_per_guest* requests
        of the app's workload profile -- each on its own virtual clock.
        Kernels come from :meth:`KernelOrchestrator.unikernel_for`, so
        the per-app memo is live and ``build_count`` lands in the
        manifest.  The same *seed* always yields a byte-identical
        manifest.

        ``global_loop=True`` runs the fleet as **one event loop**: every
        guest registers with a :class:`~repro.simcore.eventcore.EventCore`
        and the core interleaves lifecycle stages across guests in
        virtual-time order, fast-forwarding idle guests in closed form.
        Per-guest outcomes depend only on each guest's own clock, so the
        manifest digest is byte-identical to the sequential path -- the
        sequential path *is* the differential oracle, asserted by tests
        and the ``bench-guests --global-loop`` gate.

        ``cohort=True`` runs the cohort-vectorized fold: guests with the
        same application (hence identical spec, kernel and request
        profile) simulate one *representative* whose per-guest costs are
        replayed across the cohort.  Bit-identical to the sequential
        oracle -- see :meth:`_simulate_cohort`.

        ``jobs > 1`` shards the fleet across worker processes
        (:mod:`repro.harness.shardpool`): contiguous index ranges,
        deterministically merged, the same manifest digest as ``jobs=1``
        for any job count.  ``cohort`` selects the fold each shard runs.
        """
        from repro.apps.registry import top20_in_popularity_order

        if count < 0:
            raise ValueError(f"fleet size cannot be negative (got {count})")
        jobs = max(1, int(jobs))
        if global_loop and (cohort or jobs > 1):
            raise ValueError(
                "global_loop is an execution strategy of its own; combine "
                "cohort/jobs with the sequential path instead"
            )
        orchestrator = KernelOrchestrator(policy=policy, kml=kml)
        if count == 0:
            # Empty-but-well-formed: the manifest (and its digest) is
            # defined for a zero-guest fleet, identically under either
            # execution strategy, instead of raising.
            return FleetSimulation(
                policy=policy, seed=seed, count=0, entries=[],
                build_count=orchestrator.build_count, eventcore_stats=None,
            )
        apps = top20_in_popularity_order()
        rng = random.Random(seed)
        drawn = rng.choices(
            apps, weights=[app.downloads_billions for app in apps], k=count
        )
        if jobs > 1:
            entries, build_count, shard_stats = cls._simulate_sharded(
                policy, kml, drawn, requests_per_guest, cohort, jobs
            )
            return FleetSimulation(
                policy=policy, seed=seed, count=count, entries=entries,
                build_count=build_count, shard_stats=shard_stats,
            )
        specs = [
            cls._guest_spec(orchestrator, index, app)
            for index, app in enumerate(drawn)
        ]
        cls._validate_specs(specs)
        core_stats = None
        if global_loop:
            entries, core_stats = cls._simulate_global(
                orchestrator, drawn, specs, requests_per_guest
            )
        elif cohort:
            entries = cls._simulate_cohort(
                orchestrator, drawn, specs, requests_per_guest
            )
        else:
            entries = cls._simulate_sequential(
                orchestrator, drawn, specs, requests_per_guest
            )
        return FleetSimulation(
            policy=policy, seed=seed, count=count, entries=entries,
            build_count=orchestrator.build_count,
            eventcore_stats=core_stats,
        )

    @staticmethod
    def _validate_specs(specs) -> None:
        """Reject duplicate guest names up front, identically on both paths.

        The sequential path used to run duplicate-named guests silently
        while the global path failed deep inside ``EventCore.spawn``;
        both now fail fast, before any build work, with the same error.
        """
        seen: Set[str] = set()
        for spec in specs:
            if spec.name in seen:
                raise ValueError(
                    f"duplicate guest name {spec.name!r} in fleet specs"
                )
            seen.add(spec.name)

    @classmethod
    def _guest_spec(cls, orchestrator: "KernelOrchestrator", index: int,
                    app: Application):
        from repro.simcore.guest import GuestSpec

        return GuestSpec(
            name=f"guest-{index:05d}",
            variant=orchestrator.variant_for(app),
            app=app.name,
            full_image=True,
        )

    @staticmethod
    def _entry_for(guest, app: Application, boot_ms: float, requests: int,
                   rps: Optional[float]) -> "GuestManifestEntry":
        return GuestManifestEntry(
            guest=guest.spec.name,
            app=app.name,
            kernel=guest.kernel.config.name,
            fingerprint=guest.kernel.fingerprint,
            boot_ms=boot_ms,
            uptime_ns=guest.uptime_ns,
            requests=requests,
            rps=rps,
        )

    @classmethod
    def _simulate_sequential(
        cls,
        orchestrator: "KernelOrchestrator",
        drawn: List[Application],
        specs,
        requests_per_guest: int,
    ) -> List["GuestManifestEntry"]:
        """The sequential differential oracle: one guest at a time."""
        from repro.simcore.guest import Guest

        entries: List[GuestManifestEntry] = []
        for (index, app), spec in zip(enumerate(drawn), specs):
            guest = Guest(
                spec, unikernel=orchestrator.unikernel_for(app)
            ).build()
            boot_ms = guest.boot().total_ms
            profile = _workload_profile(app.name)
            requests, rps = 0, None
            if profile is not None and guest.netpath is not None:
                requests = requests_per_guest
                rps = guest.serve(profile, requests)
            guest.shutdown()
            entries.append(
                cls._entry_for(guest, app, boot_ms, requests, rps)
            )
        return entries

    @classmethod
    def _simulate_cohort(
        cls,
        orchestrator: "KernelOrchestrator",
        drawn: List[Application],
        specs,
        requests_per_guest: int,
    ) -> List["GuestManifestEntry"]:
        """Cohort-vectorized fold: one representative per app cohort.

        Two fleet guests drawn for the same application are identical in
        every manifest field except their name: the spec (variant, app,
        full_image) is a pure function of app + policy, the unikernel
        comes from the orchestrator's per-app memo, and each guest runs
        boot and the ``invoke_batch`` serving fold on a fresh clock and
        a fresh engine (``call_count`` starts at 0), so boot_ms,
        uptime_ns, requests and rps replay bit-identically.  The fold
        therefore simulates the cohort's *first* guest and replays its
        entry -- name swapped -- for every later member, instead of
        re-simulating guest by guest.  Byte-identical to
        :meth:`_simulate_sequential` (the differential oracle; asserted
        by tests and the ``bench-guests`` cohort gate).

        Representative clocks come from a fold-local
        :class:`~repro.simcore.eventcore.EventCore` (``clock_for``), so
        every cohort timeline is registered with one event heap, the
        fleet-path clock rule the time lint enforces.
        """
        import dataclasses

        from repro.simcore.eventcore import EventCore
        from repro.simcore.guest import Guest

        core = EventCore()
        representatives: Dict[str, GuestManifestEntry] = {}
        entries: List[GuestManifestEntry] = []
        for (index, app), spec in zip(enumerate(drawn), specs):
            representative = representatives.get(app.name)
            if representative is None:
                guest = Guest(
                    spec,
                    clock=core.clock_for(spec.name),
                    unikernel=orchestrator.unikernel_for(app),
                ).build()
                boot_ms = guest.boot().total_ms
                profile = _workload_profile(app.name)
                requests, rps = 0, None
                if profile is not None and guest.netpath is not None:
                    requests = requests_per_guest
                    rps = guest.serve(profile, requests)
                guest.shutdown()
                representative = cls._entry_for(
                    guest, app, boot_ms, requests, rps
                )
                representatives[app.name] = representative
                entries.append(representative)
            else:
                entries.append(
                    dataclasses.replace(representative, guest=spec.name)
                )
        return entries

    @classmethod
    def _simulate_sharded(
        cls,
        policy: KernelPolicy,
        kml: bool,
        drawn: List[Application],
        requests_per_guest: int,
        cohort: bool,
        jobs: int,
    ):
        """Execute the drawn fleet as worker-process shards; merge them.

        Contiguous index ranges (:func:`~repro.harness.shardpool.shard_bounds`)
        run in worker processes; each worker rebuilds its orchestrator
        and names guests by global index, so concatenating shard entries
        in shard order reproduces the sequential entry list exactly.
        ``build_count`` is the size of the union of per-shard kernel
        fingerprints (the same distinct-config count a single memo would
        have seen), and worker counter deltas fold back into this
        process's registry so benchmarks measure sharded work.

        Returns ``(entries, build_count, FleetShardStats)``.
        """
        from repro.harness.shardpool import (
            FleetShardSpec,
            execute_fleet_shards,
            fold_counter_deltas,
            shard_bounds,
        )

        shard_specs = [
            FleetShardSpec(
                start=lo,
                app_names=tuple(app.name for app in drawn[lo:hi]),
                policy=policy.value,
                kml=kml,
                requests_per_guest=requests_per_guest,
                cohort=cohort,
            )
            for lo, hi in shard_bounds(len(drawn), jobs)
        ]
        results = execute_fleet_shards(shard_specs)
        entries: List[GuestManifestEntry] = []
        fingerprints: Set[str] = set()
        merged_deltas: Dict[str, int] = {}
        for result in results:
            entries.extend(result.entries)
            fingerprints.update(result.fingerprints)
            for name, delta in result.counter_deltas.items():
                merged_deltas[name] = merged_deltas.get(name, 0) + delta
        fold_counter_deltas(merged_deltas)
        stats = FleetShardStats(
            jobs=jobs,
            shard_sizes=tuple(len(spec.app_names) for spec in shard_specs),
            max_elapsed_us=max(
                (result.elapsed_us for result in results), default=0.0
            ),
            total_elapsed_us=sum(result.elapsed_us for result in results),
        )
        return entries, len(fingerprints), stats

    @classmethod
    def _simulate_global(
        cls,
        orchestrator: "KernelOrchestrator",
        drawn: List[Application],
        specs,
        requests_per_guest: int,
    ):
        """Run the fleet as one event loop on a global EventCore."""
        from repro.simcore.eventcore import EventCore, drain_deadlines
        from repro.simcore.guest import Guest

        core = EventCore()
        results: Dict[int, GuestManifestEntry] = {}

        def _program(index: int, app: Application, guest: "Guest"):
            guest.build()
            yield None  # BUILT; boots interleave from virtual zero
            boot_ms = guest.boot().total_ms
            yield None  # BOOTED; serving orders by boot-staggered clocks
            profile = _workload_profile(app.name)
            requests, rps = 0, None
            if profile is not None and guest.netpath is not None:
                requests = requests_per_guest
                rps = yield from guest.serve_chunks(
                    profile, requests, chunk_size=cls.SERVE_CHUNK
                )
            # Park on any armed deadline so the core fast-forwards this
            # guest in closed form, then retire (shutdown re-drains as a
            # no-op, keeping uptime identical to the sequential oracle).
            yield from drain_deadlines(guest.clock)
            guest.shutdown()
            results[index] = cls._entry_for(
                guest, app, boot_ms, requests, rps
            )

        for (index, app), spec in zip(enumerate(drawn), specs):
            guest = Guest(
                spec,
                clock=core.clock_for(spec.name),
                unikernel=orchestrator.unikernel_for(app),
            )
            core.spawn(spec.name, _program(index, app, guest))
        stats = core.run()
        entries = [results[index] for index in range(len(drawn))]
        return entries, stats

    # -- the closed-loop serve mode ---------------------------------------

    @classmethod
    def serve(
        cls,
        count: int,
        policy: KernelPolicy = KernelPolicy.GENERAL,
        seed: int = 0,
        requests_per_guest: int = 32,
        kml: bool = True,
        global_loop: bool = False,
    ) -> "FleetServeReport":
        """Closed-loop serving: fixed request counts, per-request latency.

        Where :meth:`simulate` reports one aggregate rps per guest,
        ``serve`` drives every guest through
        :meth:`~repro.simcore.guest.Guest.serve_chunks` one request at a
        time and records each request's latency (the guest-clock delta
        across the chunk).  The mix is drawn from the *curated serving
        profiles* only -- every guest serves.  Because chunked serving
        replays the identical float additions under any interleaving,
        the sequential path and ``global_loop=True`` produce
        bit-identical latency samples (the property the tests pin);
        the open-loop counterpart is :func:`repro.traffic.serve.run_serving`.
        """
        from repro.apps.registry import top20_in_popularity_order

        if count < 0:
            raise ValueError(f"fleet size cannot be negative (got {count})")
        orchestrator = KernelOrchestrator(policy=policy, kml=kml)
        report = FleetServeReport(
            policy=policy, seed=seed, count=count,
            requests_per_guest=requests_per_guest,
        )
        if count == 0:
            return report
        apps = [
            app for app in top20_in_popularity_order()
            if serving_profile(app.name) is not None
        ]
        rng = random.Random(seed)
        drawn = rng.choices(
            apps, weights=[app.downloads_billions for app in apps], k=count
        )
        specs = [
            cls._guest_spec(orchestrator, index, app)
            for index, app in enumerate(drawn)
        ]
        cls._validate_specs(specs)
        if global_loop:
            report.entries, report.eventcore_stats = cls._serve_global(
                orchestrator, drawn, specs, requests_per_guest
            )
        else:
            report.entries = cls._serve_sequential(
                orchestrator, drawn, specs, requests_per_guest
            )
        return report

    @classmethod
    def _serve_sequential(cls, orchestrator, drawn, specs,
                          requests_per_guest):
        from repro.simcore.guest import Guest

        entries = []
        for (index, app), spec in zip(enumerate(drawn), specs):
            guest = Guest(
                spec, unikernel=orchestrator.unikernel_for(app)
            ).build()
            boot_ms = guest.boot().total_ms
            samples: List[float] = []
            prev = guest.clock.now_ns
            for instant in guest.serve_chunks(
                serving_profile(app.name), requests_per_guest, chunk_size=1
            ):
                samples.append(instant - prev)
                prev = instant
            guest.shutdown()
            entries.append(GuestServeEntry(
                guest=spec.name, app=app.name, boot_ms=boot_ms,
                samples_ns=samples,
            ))
        return entries

    @classmethod
    def _serve_global(cls, orchestrator, drawn, specs, requests_per_guest):
        from repro.simcore.eventcore import EventCore, drain_deadlines
        from repro.simcore.guest import Guest

        core = EventCore()
        results: Dict[int, GuestServeEntry] = {}

        def _program(index: int, app: Application, guest: "Guest"):
            guest.build()
            yield None
            boot_ms = guest.boot().total_ms
            yield None
            samples: List[float] = []
            prev = guest.clock.now_ns
            chunks = guest.serve_chunks(
                serving_profile(app.name), requests_per_guest, chunk_size=1
            )
            while True:
                try:
                    instant = next(chunks)
                except StopIteration:
                    break
                samples.append(instant - prev)
                prev = instant
                yield None
            yield from drain_deadlines(guest.clock)
            guest.shutdown()
            results[index] = GuestServeEntry(
                guest=guest.spec.name, app=app.name, boot_ms=boot_ms,
                samples_ns=samples,
            )

        for (index, app), spec in zip(enumerate(drawn), specs):
            guest = Guest(
                spec,
                clock=core.clock_for(spec.name),
                unikernel=orchestrator.unikernel_for(app),
            )
            core.spawn(spec.name, _program(index, app, guest))
        stats = core.run()
        entries = [results[index] for index in range(len(drawn))]
        return entries, stats


#: Which serving profile each registry app exercises in a fleet run.
#: Apps outside this map (databases modelled elsewhere, language runtimes,
#: hello-world) boot but serve no requests.
_PROFILE_BY_APP = {
    "redis": ("repro.workloads.redis", "REDIS_GET"),
    "memcached": ("repro.workloads.memcached", "MEMCACHED_GET"),
    "nginx": ("repro.workloads.nginx", "NGINX_CONN"),
    "httpd": ("repro.workloads.nginx", "NGINX_CONN"),
    "node": ("repro.workloads.nginx", "NGINX_SESS"),
    "traefik": ("repro.workloads.nginx", "NGINX_CONN"),
    "haproxy": ("repro.workloads.nginx", "NGINX_CONN"),
    "wordpress": ("repro.workloads.nginx", "NGINX_SESS"),
    "php": ("repro.workloads.nginx", "NGINX_SESS"),
}


def _workload_profile(app_name: str):
    entry = _PROFILE_BY_APP.get(app_name)
    if entry is None:
        return None
    module_name, attribute = entry
    module = __import__(module_name, fromlist=[attribute])
    return getattr(module, attribute)


def serving_profile(app_name: str):
    """The workload :class:`RequestProfile` *app_name* serves, or None.

    The public surface of the curated profile map: the traffic layer
    (``repro.traffic``) builds its app universe and per-request costs
    from this, so routing and fleet simulation agree on what each app's
    requests cost.
    """
    return _workload_profile(app_name)


@dataclass(frozen=True)
class FleetShardStats:
    """How a sharded run executed (manifest-external, like EventCoreStats).

    ``max_elapsed_us`` is the slowest shard's elapsed time on the
    tracer's host clock; the parallel-execution model of a sharded run's
    cost is the parent's own elapsed plus this maximum (shards run
    concurrently), which is what ``bench-guests`` reports.
    """

    jobs: int
    shard_sizes: Tuple[int, ...]
    max_elapsed_us: float
    total_elapsed_us: float


@dataclass(frozen=True)
class GuestManifestEntry:
    """One fleet guest's lifecycle record."""

    guest: str
    app: str
    kernel: str
    fingerprint: str
    boot_ms: float
    uptime_ns: float
    requests: int
    rps: Optional[float]


@dataclass
class FleetSimulation:
    """The deterministic outcome of one :meth:`Fleet.simulate` run.

    The manifest is execution-strategy-independent: a global-loop run and
    a sequential run of the same (seed, policy, count) serialize to the
    same bytes.  ``eventcore_stats`` (populated only by global-loop runs)
    is therefore deliberately *outside* the manifest -- it describes how
    the fleet was executed, not what it did.
    """

    policy: KernelPolicy
    seed: int
    count: int
    entries: List[GuestManifestEntry] = field(default_factory=list)
    #: Distinct kernel configurations the orchestrator materialized
    #: (KernelOrchestrator.build_count; equals distinct_kernels when the
    #: whole fleet was built through the orchestrator's memo).
    build_count: int = 0
    #: EventCoreStats of the global loop (None for sequential runs).
    eventcore_stats: Optional[object] = None
    #: FleetShardStats of a ``jobs > 1`` run (None otherwise); outside
    #: the manifest -- it describes how the fleet was executed.
    shard_stats: Optional["FleetShardStats"] = None

    @property
    def distinct_kernels(self) -> int:
        return len({entry.fingerprint for entry in self.entries})

    @property
    def total_requests(self) -> int:
        return sum(entry.requests for entry in self.entries)

    @property
    def total_boot_ms(self) -> float:
        return sum(entry.boot_ms for entry in self.entries)

    def manifest(self) -> Dict[str, object]:
        """The canonical JSON-able manifest (digest input)."""
        return {
            "policy": self.policy.value,
            "seed": self.seed,
            "count": self.count,
            "distinct_kernels": self.distinct_kernels,
            "build_count": self.build_count,
            "guests": [
                {
                    "guest": entry.guest,
                    "app": entry.app,
                    "kernel": entry.kernel,
                    "fingerprint": entry.fingerprint,
                    "boot_ms": entry.boot_ms,
                    "uptime_ns": entry.uptime_ns,
                    "requests": entry.requests,
                    "rps": entry.rps,
                }
                for entry in self.entries
            ],
        }

    @property
    def manifest_digest(self) -> str:
        """SHA-256 over the canonical manifest encoding."""
        encoded = json.dumps(
            self.manifest(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GuestServeEntry:
    """One closed-loop serving guest: boot cost plus latency samples."""

    guest: str
    app: str
    boot_ms: float
    #: Per-request latency in virtual ns (guest-clock delta per chunk of
    #: one); bit-identical between the sequential and global-loop paths.
    samples_ns: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples_ns", tuple(self.samples_ns))


@dataclass
class FleetServeReport:
    """The deterministic outcome of one :meth:`Fleet.serve` run."""

    policy: KernelPolicy
    seed: int
    count: int
    requests_per_guest: int
    entries: List[GuestServeEntry] = field(default_factory=list)
    #: EventCoreStats of the global loop (None for sequential runs);
    #: outside the manifest, like FleetSimulation's.
    eventcore_stats: Optional[object] = None

    @property
    def all_samples_ns(self) -> List[float]:
        return [
            sample for entry in self.entries for sample in entry.samples_ns
        ]

    def manifest(self) -> Dict[str, object]:
        return {
            "policy": self.policy.value,
            "seed": self.seed,
            "count": self.count,
            "requests_per_guest": self.requests_per_guest,
            "guests": [
                {
                    "guest": entry.guest,
                    "app": entry.app,
                    "boot_ms": entry.boot_ms,
                    "samples_ns": list(entry.samples_ns),
                }
                for entry in self.entries
            ],
        }

    @property
    def manifest_digest(self) -> str:
        encoded = json.dumps(
            self.manifest(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class KernelOrchestrator:
    """Builds and caches kernels for applications under a policy.

    Kernel images come from the process-wide content-addressed
    :data:`~repro.core.buildcache.BUILD_CACHE` (via ``build_variant``), so
    two apps that resolve to the identical specialized configuration share
    one kernel; the orchestrator keeps only a per-app unikernel memo (the
    rootfs really is per-app) and counts the *distinct kernel
    configurations* it has materialized in ``build_count``.
    """

    policy: KernelPolicy = KernelPolicy.GENERAL
    kml: bool = True
    hybrid_downloads_threshold: float = 1.0
    _unikernels: Dict[str, LupineUnikernel] = field(default_factory=dict)
    _kernel_fingerprints: Set[str] = field(default_factory=set)
    build_count: int = 0

    def variant_for(self, app: Application) -> Variant:
        """Which kernel variant *app* gets under this policy.

        The public policy surface: fleet code (``Fleet.simulate``) and
        callers assembling :class:`~repro.simcore.guest.GuestSpec`\\ s use
        this rather than reaching into policy internals.
        """
        if self.policy is KernelPolicy.PER_APP:
            specialized = True
        elif self.policy is KernelPolicy.GENERAL:
            specialized = False
        else:
            specialized = (
                app.downloads_billions >= self.hybrid_downloads_threshold
            )
        if specialized:
            return Variant.LUPINE if self.kml else Variant.LUPINE_NOKML
        return (Variant.LUPINE_GENERAL if self.kml
                else Variant.LUPINE_GENERAL_NOKML)

    #: Backward-compatible alias (pre-fleet callers used the private name).
    _variant_for = variant_for

    def _cache_key(self, app: Application) -> str:
        """The kernel cache key for *app*: its resolved config fingerprint."""
        return variant_fingerprint(self.variant_for(app), app)

    def unikernel_for(self, app: Application) -> LupineUnikernel:
        """Get (building if necessary) the unikernel for *app*."""
        if app.name in self._unikernels:
            return self._unikernels[app.name]
        fingerprint = self._cache_key(app)
        builder = LupineBuilder(variant=self.variant_for(app))
        unikernel = builder.build_for_app(app)
        self._unikernels[app.name] = unikernel
        if fingerprint not in self._kernel_fingerprints:
            self._kernel_fingerprints.add(fingerprint)
            self.build_count += 1
        return unikernel

    def deploy(self, apps: List[Application]) -> Fleet:
        """Build a fleet covering *apps*."""
        fleet = Fleet()
        for app in apps:
            fleet.guests[app.name] = self.unikernel_for(app)
        return fleet

    def coverage_gaps(self, apps: List[Application]) -> List[Tuple[str, str]]:
        """Apps whose requirements the chosen kernels would not satisfy.

        With PER_APP this is empty by construction; with GENERAL it is empty
        exactly when every app's options are within the 19-option union --
        the paper's open question ("it is an open question to provide a
        guarantee that lupine-general is sufficient for a given workload").
        """
        from repro.apps.registry import lupine_general_option_union

        gaps: List[Tuple[str, str]] = []
        if self.policy is KernelPolicy.PER_APP:
            return gaps
        union = lupine_general_option_union()
        for app in apps:
            if self.policy is KernelPolicy.HYBRID and (
                app.downloads_billions >= self.hybrid_downloads_threshold
            ):
                continue
            missing = app.required_options - union
            for option in sorted(missing):
                gaps.append((app.name, option))
        return gaps
