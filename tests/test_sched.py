"""Tests for the scheduler substrate."""

from collections import deque
from dataclasses import dataclass, field
from typing import Deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched.scheduler import (
    CACHE_REFILL_NS_PER_KB,
    Scheduler,
    SchedulerError,
)
from repro.sched.smp import SmpModel
from repro.sched.task import TaskKind, TaskState
from repro.syscall.cpu import CpuCostModel


def _scheduler(smp=False):
    return Scheduler(
        cost_model=CpuCostModel.for_options([]),
        smp=SmpModel(smp_enabled=smp, cpus=1),
    )


class TestLifecycle:
    def test_spawn_creates_ready_process(self):
        sched = _scheduler()
        task = sched.spawn("init")
        assert task.kind is TaskKind.PROCESS
        assert task.state is TaskState.READY
        assert sched.ready_count() == 1

    def test_pids_unique_and_increasing(self):
        sched = _scheduler()
        pids = [sched.spawn(f"t{i}").pid for i in range(5)]
        assert pids == sorted(set(pids))

    def test_fork_new_address_space(self):
        sched = _scheduler()
        parent = sched.spawn("app")
        child = sched.fork(parent)
        assert child.parent_pid == parent.pid
        assert child.address_space_id != parent.address_space_id
        assert child.kind is TaskKind.PROCESS

    def test_thread_shares_address_space(self):
        sched = _scheduler()
        parent = sched.spawn("app")
        thread = sched.create_thread(parent)
        assert thread.address_space_id == parent.address_space_id
        assert thread.kind is TaskKind.THREAD

    def test_fork_inherits_kernel_mode(self):
        """KML processes stay kernel-mode across fork (Section 3.2)."""
        sched = _scheduler()
        parent = sched.spawn("app", kernel_mode=True)
        assert sched.fork(parent).kernel_mode

    def test_exec_replaces_image(self):
        sched = _scheduler()
        task = sched.spawn("sh", working_set_kb=100)
        sched.exec(task, "redis-server", working_set_kb=2000)
        assert task.name == "redis-server"
        assert task.working_set_kb == 2000

    def test_exit_makes_zombie(self):
        sched = _scheduler()
        task = sched.spawn("app")
        sched.exit(task, code=3)
        assert task.state is TaskState.ZOMBIE
        assert task.exit_code == 3
        assert not task.alive
        assert sched.ready_count() == 0

    def test_operations_on_zombie_rejected(self):
        sched = _scheduler()
        task = sched.spawn("app")
        sched.exit(task)
        for operation in (sched.fork, sched.sleep, sched.wake):
            with pytest.raises(SchedulerError):
                operation(task)

    def test_task_lookup(self):
        sched = _scheduler()
        task = sched.spawn("app")
        assert sched.task(task.pid) is task
        with pytest.raises(SchedulerError):
            sched.task(9999)


class TestSleepWake:
    def test_sleep_removes_from_ready(self):
        sched = _scheduler()
        task = sched.spawn("ctl")
        sched.sleep(task)
        assert task.state is TaskState.SLEEPING
        assert sched.ready_count() == 0
        assert sched.sleeping_count() == 1

    def test_wake_requeues(self):
        sched = _scheduler()
        task = sched.spawn("ctl")
        sched.sleep(task)
        sched.wake(task)
        assert task.state is TaskState.READY
        assert sched.ready_count() == 1

    def test_wake_of_ready_task_is_noop(self):
        sched = _scheduler()
        task = sched.spawn("app")
        clock = sched.clock_ns
        sched.wake(task)
        assert sched.clock_ns == clock

    def test_sleeping_tasks_never_scheduled(self):
        sched = _scheduler()
        app = sched.spawn("app")
        for index in range(10):
            sched.sleep(sched.spawn(f"ctl{index}"))
        for _ in range(5):
            assert sched.schedule() is app


class TestSwitchAccounting:
    def test_first_schedule_costs_nothing(self):
        sched = _scheduler()
        sched.spawn("app")
        sched.schedule()
        assert sched.switch_count == 0

    def test_round_robin_switches(self):
        sched = _scheduler()
        a, b = sched.spawn("a"), sched.spawn("b")
        first = sched.schedule()
        second = sched.schedule()
        assert {first.pid, second.pid} == {a.pid, b.pid}
        assert sched.switch_count == 1
        assert sched.clock_ns > 0

    def test_sleeping_population_does_not_change_switch_cost(self):
        """The Figure 11 mechanism."""
        def switch_cost(sleepers):
            sched = _scheduler()
            a, b = sched.spawn("a"), sched.spawn("b")
            for index in range(sleepers):
                sched.sleep(sched.spawn(f"s{index}"))
            sched.schedule()
            before = sched.clock_ns
            sched.schedule()
            return sched.clock_ns - before

        assert switch_cost(0) == pytest.approx(switch_cost(1024))

    def test_smp_makes_switches_dearer(self):
        def cost(smp):
            sched = _scheduler(smp=smp)
            sched.spawn("a"), sched.spawn("b")
            sched.schedule()
            before = sched.clock_ns
            sched.schedule()
            return sched.clock_ns - before

        assert cost(True) > cost(False)

    def test_run_for_requires_current(self):
        sched = _scheduler()
        task = sched.spawn("app")
        with pytest.raises(SchedulerError):
            sched.run_for(task, 100)
        sched.schedule()
        sched.run_for(task, 100)
        assert task.vruntime_ns >= 100


class TestSchedulerProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["spawn", "fork", "thread", "sleep",
                                     "wake", "schedule", "exit"]),
                    min_size=1, max_size=60))
    def test_invariants_under_random_operations(self, operations):
        """Ready queue and task states stay consistent under any op mix."""
        sched = _scheduler()
        root = sched.spawn("root")
        for operation in operations:
            alive = [t for t in sched.tasks() if t.alive]
            if not alive:
                break
            victim = alive[len(alive) // 2]
            if operation == "spawn":
                sched.spawn("x")
            elif operation == "fork":
                sched.fork(victim)
            elif operation == "thread":
                sched.create_thread(victim)
            elif operation == "sleep":
                sched.sleep(victim)
            elif operation == "wake":
                sched.wake(victim)
            elif operation == "schedule":
                sched.schedule()
            elif operation == "exit":
                sched.exit(victim)
            # Invariants:
            ready_pids = list(sched._ready)
            assert len(ready_pids) == len(set(ready_pids))
            for pid in ready_pids:
                assert sched.task(pid).state is TaskState.READY
            if sched.current is not None:
                assert sched.current.state is TaskState.RUNNING
                assert sched.current.pid not in ready_pids
            for task in sched.tasks():
                if task.state is TaskState.SLEEPING:
                    assert task.pid not in ready_pids


@dataclass
class DequeScheduler(Scheduler):
    """The scheduler as it was before the O(1) ready set: a plain deque
    with linear membership tests and removal.  Kept here as the oracle of
    :class:`TestReadySetDifferential`."""

    _ready: Deque[int] = field(default_factory=deque)

    def exit(self, task, code=0):
        self._check_alive(task)
        task.state = TaskState.ZOMBIE
        task.exit_code = code
        if task.pid in self._ready:
            self._ready.remove(task.pid)
        if self.current is task:
            self.current = None
        self.clock.advance(300.0)

    def sleep(self, task):
        self._check_alive(task)
        if task.state is TaskState.SLEEPING:
            return
        if task.pid in self._ready:
            self._ready.remove(task.pid)
        if self.current is task:
            self.current = None
        task.state = TaskState.SLEEPING

    def wake(self, task):
        self._check_alive(task)
        if task.state is not TaskState.SLEEPING:
            return
        task.state = TaskState.READY
        self._ready.append(task.pid)
        self.clock.advance(350.0 + self.smp.lock_pair_ns())

    def schedule(self):
        previous = self.current
        if previous is not None and previous.state is TaskState.RUNNING:
            previous.state = TaskState.READY
            self._ready.append(previous.pid)
        if not self._ready:
            self.current = None
            return None
        next_task = self._tasks[self._ready.popleft()]
        next_task.state = TaskState.RUNNING
        if previous is not None and previous is not next_task:
            same_space = (previous.address_space_id
                          == next_task.address_space_id)
            cost = self.cost_model.context_switch_ns(same_space)
            cost += self.smp.switch_overhead_ns()
            cost += CACHE_REFILL_NS_PER_KB * min(
                next_task.working_set_kb, 64
            ) * self._cache_pressure()
            self.clock.advance(cost)
            self.switch_count += 1
            next_task.vruntime_ns += cost
        self.current = next_task
        return next_task

    def _admit(self, task):
        self._tasks[task.pid] = task
        self._ready.append(task.pid)


def _drive(sched, operations):
    """Apply *operations* to *sched*; returns every observable step."""
    trace = []
    for operation, index, working_set_kb in operations:
        alive = [t for t in sched.tasks() if t.alive]
        victim = alive[index % len(alive)] if alive else None
        if operation == "spawn" or victim is None:
            sched.spawn("x", working_set_kb=working_set_kb)
        elif operation == "fork":
            sched.fork(victim)
        elif operation == "thread":
            sched.create_thread(victim)
        elif operation == "sleep":
            sched.sleep(victim)
        elif operation == "wake":
            sched.wake(victim)
        elif operation == "schedule":
            picked = sched.schedule()
            trace.append(("pick", None if picked is None else picked.pid))
        elif operation == "run":
            if sched.current is not None:
                sched.run_for(sched.current, 100.0 + working_set_kb)
        elif operation == "exit":
            sched.exit(victim)
        trace.append((sched.clock_ns.hex(), sched.switch_count,
                      sched.ready_count(), list(sched._ready)))
    return trace


class TestReadySetDifferential:
    """The O(1) ready set against the deque scheduler it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["spawn", "fork", "thread", "sleep", "wake",
                                 "schedule", "schedule", "run", "exit"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=128),
            ),
            min_size=1, max_size=120,
        ),
    )
    def test_same_picks_clock_bits_and_switches(self, smp, operations):
        fast = _drive(_scheduler(smp), operations)
        oracle = _drive(
            DequeScheduler(cost_model=CpuCostModel.for_options([]),
                           smp=SmpModel(smp_enabled=smp, cpus=1)),
            operations,
        )
        assert fast == oracle

    def test_futex_stress_matches_oracle(self):
        """Section 5's futex ping-pong, many ready tasks, bit for bit."""
        from repro.sched.futex import FutexTable

        def stress(sched):
            futexes = FutexTable(sched)
            picks = []
            for worker in range(24):
                address = 0x1000 + worker * 16
                tasks = [sched.spawn(f"f{worker}.{i}", working_set_kb=8)
                         for i in range(4)]
                futexes.store(address, 0)
                for _ in range(6):
                    futexes.wait(tasks[0], address, 0)
                    sched.clock.advance(600.0)
                    futexes.wake(address, 1)
                    picks.append(sched.schedule().pid)
            return picks, sched.clock_ns.hex(), sched.switch_count

        for smp in (False, True):
            assert stress(_scheduler(smp)) == stress(DequeScheduler(
                cost_model=CpuCostModel.for_options([]),
                smp=SmpModel(smp_enabled=smp, cpus=1),
            ))
