"""The warm-hit fold against its oracle, and the router as a state machine.

``run_serving`` serves a warm hit inline when nothing else can happen
before the request finishes; ``run_serving_stepped`` never folds and is
the single differential oracle: every manifest digest must match.

``TestRouterStateMachine`` drives a real Router + Supervisor one event
at a time -- arrivals at chosen gaps, idle deadlines, crash, hang,
boot and dispatch faults, finalize -- and checks the serving
invariants after *every* event, not just at the end of a run:

- in-flight conservation: every arrival is settled or still queued,
  in an inbox, or being attempted;
- the ``max_per_app``/``max_total`` bounds, and live counts that agree
  with the workers;
- no worker both pooled and busy;
- every runner's clock is monotone;
- circuit breakers only take legal transitions.
"""

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import faults
from repro.core.orchestrator import KernelOrchestrator
from repro.faults import FaultPlane
from repro.faults.plane import FaultInjected, fault_site
from repro.simcore.eventcore import PARK, EventCore
from repro.traffic import (
    DEFAULT_RESILIENCE,
    FIXED_POOL,
    SCALE_TO_ZERO,
    Arrival,
    Router,
    ServeSpec,
    Supervisor,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    run_serving,
    run_serving_stepped,
)
from repro.traffic.bench import canonical_trace


def _trace(kind, requests, mean_rps):
    if kind == "poisson":
        return poisson_trace(requests=requests, mean_rps=mean_rps)
    if kind == "diurnal":
        return diurnal_trace(requests=requests, mean_rps=mean_rps,
                             period_s=0.1, amplitude=1.0)
    return bursty_trace(requests=requests, on_rps=5 * mean_rps,
                        off_rps=mean_rps / 20, on_s=0.005, off_s=0.02)


class TestFoldMatchesSteppedOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["poisson", "diurnal", "bursty"]),
        requests=st.integers(1, 400),
        mean_rps=st.sampled_from([500, 2000, 8000]),
        seed=st.integers(0, 10_000),
        base=st.sampled_from([SCALE_TO_ZERO, FIXED_POOL]),
        max_per_app=st.integers(1, 3),
        idle_timeout_s=st.sampled_from([None, 2e-5, 5e-4, 3e-3, 0.25]),
        min_warm=st.integers(0, 1),
        record_usage=st.booleans(),
    )
    def test_same_manifest_digest(self, kind, requests, mean_rps, seed,
                                  base, max_per_app, idle_timeout_s,
                                  min_warm, record_usage):
        policy = base.with_overrides(
            max_per_app=max_per_app, idle_timeout_s=idle_timeout_s,
            min_warm=min(min_warm, max_per_app),
            pre_warm=min(base.pre_warm, max_per_app),
        )
        spec = ServeSpec(trace=_trace(kind, requests, mean_rps),
                         policy=policy, seed=seed,
                         record_usage=record_usage)
        folded = run_serving(spec)
        stepped = run_serving_stepped(spec)
        assert folded.manifest_digest == stepped.manifest_digest
        assert stepped.folded_requests == 0

    @pytest.mark.parametrize("policy", [SCALE_TO_ZERO, FIXED_POOL],
                             ids=lambda p: p.name)
    def test_warm_traffic_folds_and_skips_the_heap(self, policy):
        spec = ServeSpec(trace=canonical_trace(3000), policy=policy, seed=5)
        folded = run_serving(spec)
        stepped = run_serving_stepped(spec)
        assert folded.manifest_digest == stepped.manifest_digest
        assert folded.folded_requests >= 0.9 * folded.served
        assert (folded.eventcore_stats.events_dispatched * 3
                < stepped.eventcore_stats.events_dispatched)

    def test_an_installed_plane_runs_stepped(self):
        spec = ServeSpec(trace=canonical_trace(500), policy=FIXED_POOL,
                         seed=5)
        clean = run_serving(spec)
        with faults.activated(FaultPlane(seed=1)):
            planed = run_serving(spec)
        assert clean.folded_requests > 0
        assert planed.folded_requests == 0
        assert planed.manifest_digest == clean.manifest_digest


#: Apps the state machine routes to (two, so pools and bounds interact).
_APPS = ["nginx", "redis"]

#: Breaker state -> states it may show one event later.
_LEGAL_BREAKER_STEPS = {
    "closed": {"closed", "open"},
    "open": {"open", "half_open"},
    "half_open": {"half_open", "closed", "open"},
}

#: Events one finalize may dispatch before the machine calls it stuck.
_MAX_DRAIN_EVENTS = 5000

#: Arrivals a run takes before it may finalize (so runs carry traffic).
_MIN_ARRIVALS_BEFORE_FINALIZE = 12


class _Feeder:
    """The arrivals runner: delivers queued arrivals at their instants."""

    NAME = "arrivals"

    def __init__(self, core: EventCore, router: Router) -> None:
        self.core = core
        self.router = router
        self.pending = deque()

    def add(self, arrival: Arrival) -> None:
        self.pending.append(arrival)
        if self.core.is_parked(self.NAME):
            self.core.kick(self.NAME, arrival.arrival_ns)

    def peek_ns(self):
        """The next pending instant (the fold's view of the trace)."""
        return self.pending[0].arrival_ns if self.pending else None

    def program(self):
        while True:
            if not self.pending:
                yield PARK
                continue
            yield self.pending[0].arrival_ns
            arrival = self.pending.popleft()
            try:
                with fault_site("traffic.arrival"):
                    self.router.dispatch(arrival)
            except FaultInjected:
                self.router.drop(arrival)


class RouterMachine(RuleBasedStateMachine):
    """Router + Supervisor on one EventCore, stepped event by event."""

    @initialize(
        idle_timeout_s=st.sampled_from([None, 0.0002, 0.002]),
        max_per_app=st.integers(1, 2),
        max_total=st.integers(1, 3),
        min_warm=st.integers(0, 1),
        pre_warm=st.integers(0, 1),
        fold=st.booleans(),
    )
    def setup(self, idle_timeout_s, max_per_app, max_total, min_warm,
              pre_warm, fold):
        self.policy = SCALE_TO_ZERO.with_overrides(
            name="machine", idle_timeout_s=idle_timeout_s,
            max_per_app=max_per_app, max_total=max_total,
            min_warm=min(min_warm, max_per_app),
            pre_warm=min(pre_warm, max_per_app),
        )
        # Faults need the stepped path (fault sites fire per dispatch),
        # exactly as run_serving gates the fold on an installed plane.
        self.fold = fold
        self.plane = None if fold else faults.install(FaultPlane(seed=3))
        self.core = EventCore()
        resilience = DEFAULT_RESILIENCE.with_overrides(
            watchdog_s=0.001, restart_backoff_s=0.0005,
            breaker_min_samples=2, breaker_window=4,
            breaker_cooldown_s=0.002, crash_loop_threshold=3,
            crash_loop_window_s=0.01, quarantine_s=0.003,
        )
        self.router = Router(
            core=self.core, orchestrator=KernelOrchestrator(),
            policy=self.policy, apps=_APPS, resilience=resilience,
        )
        self.feeder = _Feeder(self.core, self.router)
        if fold:
            self.router.source = self.feeder
        supervisor = Supervisor(core=self.core, router=self.router)
        self.router.supervisor = supervisor
        self.core.on_failure = self.router.on_runner_failure
        supervisor.start()
        self.router.pre_warm()
        self.core.spawn(_Feeder.NAME, self.feeder.program())
        self.now_ns = 0.0
        self.last_arrival_ns = 0.0
        self.index = 0
        self.finalized = False
        self.clocks = {}
        self.breakers = {app: "closed" for app in _APPS}
        self.opens = {app: 0 for app in _APPS}

    def teardown(self):
        if getattr(self, "plane", None) is not None:
            faults.deactivate()

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: not self.finalized)
    @rule(burst=st.lists(
        st.tuples(st.sampled_from(_APPS),
                  st.sampled_from([0, 1, 20, 150, 1000, 5000])),
        min_size=1, max_size=6,
    ))
    def arrive(self, burst):
        for app, gap_us in burst:
            at_ns = max(self.now_ns, self.last_arrival_ns) + gap_us * 1e3
            self.last_arrival_ns = at_ns
            self.feeder.add(
                Arrival(index=self.index, app=app, arrival_ns=at_ns)
            )
            self.index += 1

    @precondition(lambda self: not self.finalized)
    @rule(events=st.integers(1, 20))
    def step(self, events):
        for _ in range(events):
            if not self._step():
                return

    @precondition(lambda self: not self.finalized)
    @rule(ms=st.sampled_from([0.01, 0.5, 5.0, 100.0]))
    def advance(self, ms):
        """Dispatch every event due within *ms* of virtual time."""
        horizon = self.now_ns + ms * 1e6
        for _ in range(_MAX_DRAIN_EVENTS):
            if self.core.next_key() > horizon or not self._step():
                return

    @precondition(lambda self: not self.finalized and not self.fold)
    @rule(site=st.sampled_from(["guest.crash", "guest.hang",
                                "guest.boot_fail", "eventcore.dispatch"]))
    def inject(self, site):
        # Fires on the site's next call, once.
        self.plane.configure(site, probability=1.0, max_injections=1)

    @precondition(lambda self: not self.finalized
                  and self.index >= _MIN_ARRIVALS_BEFORE_FINALIZE)
    @rule()
    def finalize(self):
        self._drain()
        self.router.finalize()
        self._drain()
        self.router.check_conservation()
        assert all(w.retired for w in self.router.workers)
        assert self.router.total_live == 0
        self.finalized = True

    @rule()
    def idle(self):
        """Nothing happens (keeps the machine live after finalize)."""

    # -- stepping ----------------------------------------------------------

    def _step(self) -> bool:
        key = self.core.next_key()
        if key != float("inf"):
            self.now_ns = max(self.now_ns, key)
        stepped = self.core.step()
        self._check_after_event()
        return stepped

    def _drain(self):
        for _ in range(_MAX_DRAIN_EVENTS):
            if not self._step():
                return
        raise AssertionError("the heap never emptied")

    # -- invariants --------------------------------------------------------

    @invariant()
    def holds_between_rules(self):
        if hasattr(self, "router"):
            self._check_after_event()

    def _check_after_event(self):
        router, policy = self.router, self.policy
        live_workers = [w for w in router.workers if not w.retired]
        # In-flight conservation.
        in_flight = sum(len(q) for q in router.backlog.values()) + sum(
            len(w.inbox) + (w.current is not None) for w in live_workers
        )
        settled = (router.completed + router.failed + router.shed
                   + router.dropped)
        assert router.arrivals == settled + in_flight
        # Capacity bounds, and live counts that match the workers.
        for app in _APPS:
            count = sum(1 for w in live_workers if w.app == app)
            assert router.live[app] == count <= policy.max_per_app
        assert router.total_live == len(live_workers) <= policy.max_total
        # No worker both pooled and busy.
        for pool in router.pools.values():
            assert len({id(w) for w in pool}) == len(pool)
            for worker in pool:
                assert not worker.retired and not worker.hung
                assert not worker.inbox and worker.current is None
        # Monotone per-runner clocks.
        names = [w.name for w in router.workers]
        names += [Supervisor.NAME, _Feeder.NAME]
        for name in names:
            now = self.core.clock_for(name).now_ns
            assert now >= self.clocks.get(name, 0.0)
            self.clocks[name] = now
        # Legal breaker transitions.
        for app, breaker in router.breakers.items():
            assert breaker.state in _LEGAL_BREAKER_STEPS[self.breakers[app]]
            assert breaker.opens >= self.opens[app]
            self.breakers[app] = breaker.state
            self.opens[app] = breaker.opens


TestRouterStateMachine = RouterMachine.TestCase
TestRouterStateMachine.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
