"""Each serving fast path against its one oracle.

- ``ResolvedConfig.enabled``/``builtin``/``modules`` are computed once per
  instance; the oracle is a fresh recomputation from ``values``, which is
  read-only so the stored sets cannot go stale.
- ``SyscallEngine.invoke_batch`` folds from a per-engine plan; the oracle
  is stepped ``invoke`` plus ``cpu_work`` on a twin engine.
- ``fault_site`` with no plane installed is a shared no-op; the oracle is
  the installed-plane path, which must take over at the very next entry.
- Trace and pool specs reject malformed input at construction.
"""

import math

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlane, fault_site
from repro.kconfig.configs import defconfig, lupine_base_config
from repro.kconfig.database import build_linux_tree
from repro.kconfig.expr import Tristate
from repro.kconfig.resolver import ResolvedConfig, Resolver
from repro.syscall.cpu import CpuCostModel, EntryMechanism
from repro.syscall.dispatch import SyscallEngine, SyscallNotImplemented
from repro.syscall.usage import UsageTrace
from repro.traffic.arrivals import TraceSpec
from repro.traffic.policy import FIXED_POOL, SCALE_TO_ZERO, WarmPoolPolicy


def _recomputed(config):
    values = dict(config.values)
    return (
        frozenset(n for n, v in values.items() if v is not Tristate.NO),
        frozenset(n for n, v in values.items() if v is Tristate.YES),
        frozenset(n for n, v in values.items() if v is Tristate.MODULE),
    )


def _assert_memo_matches(config):
    enabled, builtin, modules = _recomputed(config)
    assert config.enabled == enabled
    assert config.builtin == builtin
    assert config.modules == modules
    # Stored, not rebuilt: the second read is the very same object.
    assert config.enabled is config.enabled
    assert config.builtin is config.builtin
    assert config.modules is config.modules
    assert len(config) == len(enabled)


class TestResolvedConfigMemo:
    def test_memo_equals_recomputation(self):
        for config in (lupine_base_config(), defconfig()):
            _assert_memo_matches(config)

    def test_memo_after_with_name(self):
        base = lupine_base_config()
        base.enabled  # populate the source's memo first
        renamed = base.with_name("renamed")
        assert renamed.name == "renamed"
        assert renamed.values is base.values
        _assert_memo_matches(renamed)
        assert renamed.enabled == base.enabled

    def test_memo_after_rebind(self):
        resolver = Resolver(build_linux_tree())
        first = resolver.resolve_names(["EPOLL", "FUTEX"], name="first")
        first.enabled
        # A content-identical request hits the resolution cache and is
        # rebound under the new name.
        second = resolver.resolve_names(["EPOLL", "FUTEX"], name="second")
        assert second is not first and second.name == "second"
        assert second.values is first.values
        _assert_memo_matches(second)

    def test_tristate_split_on_hand_built_config(self):
        config = ResolvedConfig(
            tree=build_linux_tree(),
            values={"A": Tristate.YES, "B": Tristate.MODULE,
                    "C": Tristate.NO},
            requested={}, demoted={}, select_violations=(),
        )
        _assert_memo_matches(config)
        assert config.enabled == {"A", "B"}
        assert config.builtin == {"A"}
        assert config.modules == {"B"}

    def test_values_is_read_only(self):
        config = lupine_base_config()
        some_name = next(iter(config.values))
        with pytest.raises(TypeError):
            config.values[some_name] = Tristate.NO
        with pytest.raises(TypeError):
            config.values["NOT_AN_OPTION"] = Tristate.YES

    def test_caller_dict_is_copied(self):
        values = {"A": Tristate.YES}
        config = ResolvedConfig(tree=build_linux_tree(), values=values,
                                requested={}, demoted={},
                                select_violations=())
        assert config.enabled == {"A"}
        values["B"] = Tristate.YES
        assert "B" not in config.values
        assert config.enabled == {"A"}

    @pytest.mark.parametrize("attr", ("enabled", "builtin", "modules"))
    def test_memo_attributes_stay_plain_properties(self, attr):
        # The traced benchmark run wraps ``property.fget``; a
        # ``functools.cached_property`` would not survive that.
        assert isinstance(vars(ResolvedConfig)[attr], property)


#: Mixed data-path and plain syscalls; stride 3 makes the jitter phase
#: wrap (1000 calls) partway through a round.
BATCH = ("read", "write", "epoll_wait")


def _twins(**model):
    options = frozenset({"EPOLL", "FUTEX", "AUDITSYSCALL", "SLUB_DEBUG",
                         "PAGE_TABLE_ISOLATION"})
    return (SyscallEngine.for_config(options, **model),
            SyscallEngine.for_config(options, **model))


def _stepped(engine, names, work_ns, repeats):
    for _ in range(repeats):
        for name in names:
            engine.invoke(name)
        engine.cpu_work(work_ns)


class TestBatchPlan:
    @pytest.mark.parametrize("model", (
        {},
        {"entry": EntryMechanism.KML_CALL},
        {"kpti": True, "size_optimized": True},
    ), ids=("syscall", "kml", "kpti-os"))
    def test_plan_matches_stepped_invoke_past_phase_wrap(self, model):
        batched, stepped = _twins(**model)
        work_ns = 1234.5
        # Mostly single-request calls (the serving shape) plus a few
        # multi-round folds, reusing one plan throughout.
        schedule = [1] * 300 + [7, 333, 1, 2, 999, 1] * 3
        for repeats in schedule:
            clock = batched.invoke_batch(BATCH, work_ns, repeats)
            _stepped(stepped, BATCH, work_ns, repeats)
            assert clock == stepped.clock_ns  # identical bits
            assert batched.call_count == stepped.call_count
        assert batched.call_count > 1000
        assert batched.per_syscall_counts == stepped.per_syscall_counts
        assert batched.batch_plan(BATCH) is batched.batch_plan(list(BATCH))

    def test_plan_follows_a_replaced_cost_model(self):
        batched, stepped = _twins()
        batched.invoke_batch(BATCH, 10.0, 5)
        _stepped(stepped, BATCH, 10.0, 5)
        before = batched.batch_plan(BATCH)
        swapped = CpuCostModel.for_options(
            batched.enabled_options, entry=EntryMechanism.KML_CALL
        )
        batched.cost_model = stepped.cost_model = swapped
        after = batched.batch_plan(BATCH)
        assert after is not before and after.cost_model is swapped
        assert after.bases != before.bases
        clock = batched.invoke_batch(BATCH, 10.0, 400)
        _stepped(stepped, BATCH, 10.0, 400)
        assert clock == stepped.clock_ns

    def test_plan_follows_replaced_enabled_options(self):
        engine, _ = _twins()
        assert engine.batch_plan(("futex",)) is not None
        engine.enabled_options = frozenset()
        assert engine.batch_plan(("futex",)) is None
        with pytest.raises(SyscallNotImplemented):
            engine.invoke_batch(("futex",), 0.0, 1)

    def test_gated_batch_records_one_miss_per_call(self):
        misses = []

        class CountingUsage(UsageTrace):
            def record_miss(self, name, missing_option):
                misses.append((name, missing_option))
                super().record_miss(name, missing_option)

        engine = SyscallEngine.for_config(frozenset({"EPOLL"}))
        engine.usage = CountingUsage()
        names = ("read", "futex", "write")
        for call in range(1, 4):
            with pytest.raises(SyscallNotImplemented) as raised:
                engine.invoke_batch(names, 0.0, 1)
            assert raised.value.missing_option == "FUTEX"
            assert misses == [("futex", "FUTEX")] * call
        assert engine.batch_plan(names) is None
        assert names not in engine._plans
        # Nothing was charged by the refused batches.
        assert engine.call_count == 0 and engine.clock_ns == 0.0
        assert not engine.usage.syscall_counts


class TestNoPlaneFaultSite:
    def setup_method(self):
        faults.deactivate()

    def teardown_method(self):
        faults.deactivate()

    def test_no_plane_returns_one_shared_noop(self):
        first, second = fault_site("a.site"), fault_site("b.site")
        assert first is second
        with first as entered:
            assert entered is None

    def test_install_and_deactivate_apply_at_next_entry(self):
        plane = FaultPlane(seed=3)
        plane.configure("fast.site", probability=1.0)
        with fault_site("fast.site"):
            pass
        faults.install(plane)
        with pytest.raises(FaultInjected):
            with fault_site("fast.site"):
                pass
        faults.deactivate()
        with fault_site("fast.site"):
            pass
        faults.install(plane)
        with pytest.raises(FaultInjected):
            with fault_site("fast.site"):
                pass
        assert plane.injected == 2

    def test_noop_lets_exceptions_through(self):
        with pytest.raises(KeyError):
            with fault_site("fast.site"):
                raise KeyError("body")


#: Malformed specs, each of which must raise ValueError at construction.
MALFORMED_TRACES = [
    dict(kind="poisson", requests=-5, mean_rps=100.0),
    dict(kind="poisson", requests=10, mean_rps=math.nan),
    dict(kind="poisson", requests=-5, mean_rps=math.nan),
    dict(kind="poisson", requests=10, mean_rps=math.inf),
    dict(kind="poisson", requests=10, mean_rps=-1.0),
    dict(kind="diurnal", requests=10, mean_rps=100.0, period_s=math.nan),
    dict(kind="diurnal", requests=10, mean_rps=100.0, period_s=math.inf),
    dict(kind="diurnal", requests=10, mean_rps=100.0, period_s=0.0),
    dict(kind="diurnal", requests=10, mean_rps=100.0, amplitude=math.nan),
    dict(kind="diurnal", requests=10, mean_rps=100.0, amplitude=1.5),
    dict(kind="bursty", requests=10, mean_rps=0.0, on_rps=math.inf),
    dict(kind="bursty", requests=10, mean_rps=0.0, on_rps=10.0,
         off_rps=math.nan),
    dict(kind="bursty", requests=10, mean_rps=0.0, on_rps=-10.0,
         off_rps=-20.0),
    dict(kind="bursty", requests=10, mean_rps=0.0, on_rps=10.0,
         off_rps=20.0),
    dict(kind="bursty", requests=10, mean_rps=0.0, on_rps=10.0,
         on_s=-1.0),
    dict(kind="poisson", requests=10, mean_rps=100.0, zipf_s=math.nan),
    dict(kind="poisson", requests=10, mean_rps=100.0, zipf_s=-math.inf),
    dict(kind="lunar", requests=10, mean_rps=100.0),
]

MALFORMED_POLICIES = [
    dict(name="bad", min_warm=3, max_per_app=2),
    dict(name="bad", min_warm=17, max_per_app=16),
]


class TestMalformedSpecs:
    @pytest.mark.parametrize("fields", MALFORMED_TRACES)
    def test_trace_spec_rejected(self, fields):
        with pytest.raises(ValueError):
            TraceSpec(**fields)

    @pytest.mark.parametrize("fields", MALFORMED_POLICIES)
    def test_policy_rejected(self, fields):
        with pytest.raises(ValueError):
            WarmPoolPolicy(**fields)

    def test_well_formed_specs_still_construct(self):
        TraceSpec(kind="poisson", requests=0, mean_rps=1.0)
        TraceSpec(kind="bursty", requests=10, mean_rps=0.0, on_rps=10.0,
                  off_rps=0.0)
        WarmPoolPolicy(name="edge", min_warm=4, max_per_app=4)
        assert SCALE_TO_ZERO.min_warm <= SCALE_TO_ZERO.max_per_app
        assert FIXED_POOL.with_overrides(max_total=2).max_total == 2
