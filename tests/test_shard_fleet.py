"""Sharded fleet execution: determinism, cohort oracle, shard plumbing.

The contracts under test (see docs/ARCHITECTURE.md "Sharded execution"):

- **Shard-count invariance.** ``Fleet.simulate(seed=s, jobs=N)`` produces
  a byte-identical manifest (hence digest) for every N, because shards
  are contiguous index ranges merged in shard order and each guest's
  outcome depends only on its own spec + clock.
- **Cohort oracle.** The cohort-vectorized fold (one representative per
  application, members replayed) is bit-identical to the per-guest
  sequential fold.
- **Hash-seed independence.** Every config-option float fold iterates
  sorted, so digests do not depend on PYTHONHASHSEED.
- **Counter merge.** Worker counter deltas fold back into the parent
  process's METRICS registry, so sharded and sequential runs cost the
  same by the counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import Fleet, KernelPolicy
from repro.harness.shardpool import shard_bounds
from repro.observe import METRICS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestShardBounds:
    def test_partitions_are_contiguous_and_exhaustive(self):
        for count in (1, 2, 7, 100, 101):
            for jobs in (1, 2, 3, 7, 16):
                bounds = shard_bounds(count, jobs)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == count
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo
                assert all(hi > lo for lo, hi in bounds)

    def test_jobs_clamped_to_fleet_size(self):
        assert len(shard_bounds(3, 16)) == 3
        assert len(shard_bounds(5, 0)) == 1
        assert shard_bounds(0, 4) == []

    def test_near_equal_sizes(self):
        sizes = [hi - lo for lo, hi in shard_bounds(10, 3)]
        assert sorted(sizes) == [3, 3, 4]
        assert max(sizes) - min(sizes) <= 1


class TestCohortOracle:
    def test_cohort_matches_sequential_general(self):
        seq = Fleet.simulate(60, seed=7)
        cohort = Fleet.simulate(60, seed=7, cohort=True)
        assert cohort.manifest() == seq.manifest()
        assert cohort.manifest_digest == seq.manifest_digest

    def test_cohort_matches_sequential_per_app(self):
        seq = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=11)
        cohort = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=11,
                                cohort=True)
        assert cohort.manifest() == seq.manifest()
        assert cohort.build_count == seq.build_count


class TestShardedExecution:
    def test_sharded_matches_sequential_manifest(self):
        seq = Fleet.simulate(30, seed=3)
        sharded = Fleet.simulate(30, seed=3, jobs=2)
        assert sharded.manifest() == seq.manifest()
        assert sharded.build_count == seq.build_count

    def test_shard_stats_surface_worker_count(self):
        sharded = Fleet.simulate(12, seed=1, jobs=3)
        stats = sharded.shard_stats
        assert stats is not None
        assert stats.jobs == 3
        assert sum(stats.shard_sizes) == 12
        assert stats.max_elapsed_us <= stats.total_elapsed_us
        assert Fleet.simulate(12, seed=1).shard_stats is None

    def test_sharded_per_app_merges_build_count(self):
        seq = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=5)
        sharded = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=5,
                                 jobs=3, cohort=True)
        assert sharded.manifest_digest == seq.manifest_digest
        assert sharded.build_count == seq.build_count

    def test_worker_counters_fold_into_parent(self):
        def boots() -> int:
            return METRICS.counter("boot.boots").value

        before = boots()
        Fleet.simulate(20, seed=9)
        sequential_delta = boots() - before

        before = boots()
        Fleet.simulate(20, seed=9, jobs=2)
        sharded_delta = boots() - before
        assert sharded_delta == sequential_delta > 0

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=40))
    def test_digest_invariant_across_job_counts(self, seed, count):
        digests = {
            Fleet.simulate(count, seed=seed, jobs=jobs,
                           cohort=(jobs > 1)).manifest_digest
            for jobs in (1, 2, 7)
        }
        assert len(digests) == 1

    def test_global_loop_rejects_shards_and_cohort(self):
        import pytest

        with pytest.raises(ValueError):
            Fleet.simulate(4, global_loop=True, jobs=2)
        with pytest.raises(ValueError):
            Fleet.simulate(4, global_loop=True, cohort=True)


class TestHashSeedIndependence:
    def test_digest_identical_under_two_hash_seeds(self):
        script = (
            "from repro.core.orchestrator import Fleet;"
            "print(Fleet.simulate(25, seed=4, cohort=True).manifest_digest)"
        )
        digests = set()
        for hash_seed in ("0", "13"):
            env = dict(os.environ,
                       PYTHONPATH=str(REPO_ROOT / "src"),
                       PYTHONHASHSEED=hash_seed)
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=REPO_ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            digests.add(output)
        assert len(digests) == 1


class TestRegressDigestGate:
    def test_digest_drift_fails_the_gate(self):
        from repro.observe.regress import compare_runs

        baseline = {"counters": {}, "digests": {"fleet.d": "aaa"}}
        matching = compare_runs(baseline, {"counters": {},
                                           "digests": {"fleet.d": "aaa"}})
        assert matching.passed
        drifted = compare_runs(baseline, {"counters": {},
                                          "digests": {"fleet.d": "bbb"}})
        assert not drifted.passed
        assert drifted.regressions[0].kind == "digest"

    def test_baseline_digests_gate_skips_new_sections(self):
        from repro.observe.regress import compare_runs

        report = compare_runs(
            {"counters": {}, "digests": {}},
            {"counters": {}, "digests": {"fleet.new": "ccc"}},
        )
        assert report.passed and report.deltas == []


class TestServingRunFanOut:
    def test_run_serving_many_matches_sequential(self):
        from repro.traffic.bench import canonical_trace
        from repro.traffic.policy import FIXED_POOL, SCALE_TO_ZERO
        from repro.traffic.serve import (
            ServeSpec,
            run_serving,
            run_serving_many,
        )

        trace = canonical_trace(requests=400)
        specs = [
            ServeSpec(trace=trace, policy=SCALE_TO_ZERO, seed=2020),
            ServeSpec(trace=trace, policy=FIXED_POOL, seed=2020),
        ]
        fanned = run_serving_many(specs, jobs=2)
        assert [r.manifest_digest for r in fanned] == [
            run_serving(spec).manifest_digest for spec in specs
        ]


class TestRunnerEffectiveJobs:
    def test_manifest_reports_effective_worker_count(self, tmp_path):
        from repro.harness.registry import Artifact, Experiment
        from repro.harness.runner import run_experiments

        experiments = [
            Experiment(
                name=f"shardy-{index}",
                run_fn=lambda: {"v": 1},
                artifact_fn=lambda result: Artifact(text="shardy"),
                fingerprint_fn=lambda index=index: f"fp-{index}",
            )
            for index in range(2)
        ]
        run = run_experiments(
            experiments=experiments, jobs=8, output_dir=tmp_path,
            cache_dir=tmp_path / "cache",
        )
        manifest = json.loads(run.manifest_path.read_text(encoding="utf-8"))
        assert manifest["jobs"] == 8
        assert manifest["effective_jobs"] == 2
        assert run.telemetry.effective_jobs == 2
