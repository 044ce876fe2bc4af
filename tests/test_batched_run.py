"""Property tests: the batched throughput fast path is bit-exact.

``LinuxServerStack.run`` folds whole request batches through
``SyscallEngine.invoke_batch`` (closed-form addends, jitter applied
analytically).  Float addition is not associative, so "bit-exact" is a
real claim: for every profile, request count, engine, and pre-existing
jitter phase, the batched fold must reproduce the stepped reference loop
``run_stepped`` exactly -- same final clock, same rps bits, same jitter
call count.
"""

import pytest

from repro.core.variants import Variant, build_microvm, build_variant
from repro.apps.registry import get_app
from repro.workloads.memcached import MEMCACHED_GET, MEMCACHED_SET
from repro.workloads.nginx import NGINX_CONN, NGINX_SESS
from repro.workloads.redis import REDIS_GET, REDIS_SET
from repro.workloads.server import LinuxServerStack

PROFILES = (REDIS_GET, REDIS_SET, NGINX_CONN, NGINX_SESS,
            MEMCACHED_GET, MEMCACHED_SET)

#: Spans the jitter period boundaries: the phase sequence repeats every
#: 1000 calls, so counts near multiples of the per-profile round period
#: are the interesting edges.
REQUEST_COUNTS = (1, 2, 3, 7, 99, 100, 101, 250, 999, 1000, 1001, 2500)


def _builds():
    app = get_app("redis")
    return (
        ("microvm", build_microvm()),
        ("lupine", build_variant(Variant.LUPINE, app)),
        ("lupine-nokml", build_variant(Variant.LUPINE_NOKML, app)),
        ("lupine-tiny", build_variant(Variant.LUPINE_TINY, app)),
    )


def _pair(build):
    """Two stacks on fresh engines of the same kernel."""
    return (
        LinuxServerStack(engine=build.syscall_engine(),
                         netpath=build.network_path()),
        LinuxServerStack(engine=build.syscall_engine(),
                         netpath=build.network_path()),
    )


class TestBatchedEqualsStepped:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("requests", REQUEST_COUNTS)
    def test_bit_exact_across_profiles_and_counts(self, profile, requests):
        batched, stepped = _pair(build_microvm())
        rate_batched = batched.run(profile, requests)
        rate_stepped = stepped.run_stepped(profile, requests)
        assert batched.engine.clock_ns == stepped.engine.clock_ns
        assert rate_batched == rate_stepped  # identical bits, not approx
        assert batched.engine.call_count == stepped.engine.call_count

    @pytest.mark.parametrize("label,build", _builds(), ids=lambda v: (
        v if isinstance(v, str) else ""))
    def test_bit_exact_across_kernels(self, label, build):
        for profile in (REDIS_GET, NGINX_SESS):
            batched, stepped = _pair(build)
            assert (batched.run(profile, 137)
                    == stepped.run_stepped(profile, 137))
            assert batched.engine.clock_ns == stepped.engine.clock_ns

    @pytest.mark.parametrize("offset", (1, 17, 500, 999, 1000, 12345))
    def test_bit_exact_from_any_jitter_phase(self, offset):
        # A prior workload leaves the engine mid-jitter-period; the
        # batched fold must continue from that phase, not restart it.
        batched, stepped = _pair(build_microvm())
        for stack in (batched, stepped):
            for _ in range(offset):
                stack.engine.invoke("read")
        rate_batched = batched.run(REDIS_GET, 77)
        rate_stepped = stepped.run_stepped(REDIS_GET, 77)
        assert rate_batched == rate_stepped
        assert batched.engine.clock_ns == stepped.engine.clock_ns

    def test_consecutive_batches_compose(self):
        batched, stepped = _pair(build_microvm())
        for profile, requests in ((REDIS_GET, 33), (REDIS_SET, 41),
                                  (NGINX_CONN, 250)):
            assert (batched.run(profile, requests)
                    == stepped.run_stepped(profile, requests))
        assert batched.engine.clock_ns == stepped.engine.clock_ns

    def test_per_syscall_counts_match(self):
        batched, stepped = _pair(build_microvm())
        batched.run(NGINX_SESS, 211)
        stepped.run_stepped(NGINX_SESS, 211)
        assert (batched.engine.per_syscall_counts
                == stepped.engine.per_syscall_counts)

    @pytest.mark.parametrize("requests", (0, -3, 2.0, True, None))
    def test_bad_request_count_is_value_error_on_every_path(self, requests):
        """Both paths, and ``Guest.serve`` on top of them, reject a count
        that is not an int >= 1 before the engine is touched."""
        from repro.simcore.guest import variant_guest

        batched, stepped = _pair(build_microvm())
        guest = variant_guest(Variant.LUPINE_NOKML, app="redis")
        for serve in (batched.run, stepped.run_stepped, guest.serve):
            with pytest.raises(ValueError, match="int >= 1"):
                serve(REDIS_GET, requests)
        for engine in (batched.engine, stepped.engine, guest.engine):
            assert engine.clock_ns == 0.0 and engine.call_count == 0
        assert guest.requests_served == 0

    def test_unsupported_syscall_falls_back_to_stepped_semantics(self):
        from repro.netstack.path import NetworkPath
        from repro.syscall.dispatch import SyscallNotImplemented
        from repro.workloads.server import RequestProfile

        # The bare hello-world kernel drops EPOLL: run() must take the
        # stepped fallback and surface ENOSYS exactly as the loop does.
        hello = build_variant(Variant.LUPINE_NOKML)
        profile = RequestProfile(
            name="epoll-heavy", syscalls=("read", "epoll_wait"),
            app_ns=100.0,
        )
        stack = LinuxServerStack(
            engine=hello.syscall_engine(),
            netpath=NetworkPath.for_options(("INET",)),
        )
        assert not stack.engine.supports("epoll_wait")
        with pytest.raises(SyscallNotImplemented):
            stack.run(profile, 5)
        # Charge-then-raise: the supported syscall before the missing
        # one was still billed before ENOSYS surfaced.
        assert stack.engine.clock_ns > 0
