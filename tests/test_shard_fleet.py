"""The fleet fold against its oracle, plus run-level fan-out plumbing.

- **Fold vs oracle.** ``Fleet.simulate`` (the cohort fold: one
  representative per application, members replayed) produces the same
  manifest and ``build_count`` as ``Fleet.simulate_stepped`` (every
  guest simulated), for every seed, size and policy.
- **Hash-seed independence.** Every config-option float fold iterates
  sorted, so digests do not depend on PYTHONHASHSEED.
- **Digest gate.** ``regress`` fails on a drifted or vanished pinned
  digest.
- **Run-level fan-out.** Whole serving runs fanned across fork workers
  reproduce the in-process digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import Fleet, KernelPolicy
from repro.observe import METRICS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCohortOracle:
    def test_cohort_matches_sequential_general(self):
        stepped = Fleet.simulate_stepped(60, seed=7)
        cohort = Fleet.simulate(60, seed=7)
        assert cohort.manifest() == stepped.manifest()
        assert cohort.manifest_digest == stepped.manifest_digest

    def test_cohort_matches_sequential_per_app(self):
        stepped = Fleet.simulate_stepped(40, policy=KernelPolicy.PER_APP,
                                         seed=11)
        cohort = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=11)
        assert cohort.manifest() == stepped.manifest()
        assert cohort.build_count == stepped.build_count

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=0, max_value=60),
           policy=st.sampled_from(list(KernelPolicy)))
    def test_fold_matches_stepped_oracle(self, seed, count, policy):
        stepped = Fleet.simulate_stepped(count, policy=policy, seed=seed)
        folded = Fleet.simulate(count, policy=policy, seed=seed)
        assert folded.manifest() == stepped.manifest()
        assert folded.build_count == stepped.build_count

    @pytest.mark.parametrize("policy_name,seed", [
        ("GENERAL", 2020),
        ("GENERAL", 77),
        ("PER_APP", 2020),
        ("PER_APP", 77),
    ])
    def test_fold_matches_stepped_oracle_at_scale(self, policy_name, seed):
        """Byte-identical manifests at 1000 guests, two seeds x two
        policies, cohort fold vs stepped oracle."""
        policy = KernelPolicy[policy_name]
        stepped = Fleet.simulate_stepped(1000, policy=policy, seed=seed)
        folded = Fleet.simulate(1000, policy=policy, seed=seed)
        assert folded.manifest_digest == stepped.manifest_digest
        assert folded.build_count == stepped.build_count


class TestHashSeedIndependence:
    def test_digest_identical_under_two_hash_seeds(self):
        script = (
            "from repro.core.orchestrator import Fleet;"
            "print(Fleet.simulate(25, seed=4).manifest_digest)"
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

    def test_vanished_baseline_digest_fails_the_gate(self):
        from repro.observe.regress import compare_runs

        report = compare_runs(
            {"counters": {"c": 1}, "digests": {"fleet.d": "aaa",
                                               "fleet.gone": "bbb"}},
            {"counters": {}, "digests": {"fleet.d": "aaa"}},
        )
        assert not report.passed
        (missing,) = report.regressions
        assert (missing.kind, missing.name) == ("digest", "fleet.gone")
        assert missing.current is None
        assert "bbb -> missing" in report.render()

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
        boots = METRICS.counter("boot.boots")
        before = boots.value
        fanned = run_serving_many(specs, jobs=2)
        forked_boots = boots.value - before
        before = boots.value
        assert [r.manifest_digest for r in fanned] == [
            run_serving(spec).manifest_digest for spec in specs
        ]
        # Forked workers' counter deltas fold back into this process.
        assert forked_boots == boots.value - before > 0


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
