"""Hygiene of the benchmark itself: tracing and host-speed probes never
change what the program computes and leave nothing installed, tracing
never attributes more time than the run took, and a wrong pin is caught.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Small runs: the checks are structural, not about speed.
REQUESTS = 400
SEED = 5
FIRST_TRACE = str(workloads.trace_seed(SEED, 0))
SERVING = ("serve-churn", "serve-warm")


@pytest.fixture(scope="module", autouse=True)
def _setup():
    workloads.setup()


def _small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], requests=REQUESTS)


def _one(name, pins=None, trace=False, sampled=False):
    results, summaries = run.timed_runs(_small(name), SEED, 0.0, pins or {},
                                        trace=trace, sampled=sampled)
    assert len(results) == 1
    return results[0], (summaries[0] if summaries else None)


@pytest.mark.parametrize("name", SERVING)
def test_traced_digest_equals_untraced(name):
    untraced, _ = _one(name)
    traced, summary = _one(name, trace=True)
    assert untraced.ok and traced.ok, (untraced.error, traced.error)
    assert traced.digest == untraced.digest
    assert summary["calls"]["traffic.dispatch"] > 0


@pytest.mark.parametrize("name", SERVING)
def test_sampled_digest_equals_plain(name):
    plain, _ = _one(name)
    sampled, _ = _one(name, sampled=True)
    assert plain.ok and sampled.ok, (plain.error, sampled.error)
    assert sampled.digest == plain.digest
    assert plain.reference_s is None
    assert sampled.reference_s > 0.0


def test_sampled_stopwatch_restores_the_alarm_and_excludes_probes():
    def previous(*_):
        raise AssertionError("the benchmark's handler should be installed")

    signal.signal(signal.SIGALRM, previous)
    try:
        watch = hostspeed.SampledStopwatch()
        started = time.perf_counter()
        with watch:
            assert signal.getsignal(signal.SIGALRM) == watch._on_alarm
            while len(watch.probes) < 4:
                hostspeed._interpreter_bound(1000)
        elapsed = time.perf_counter() - started
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    # Four probes: one before the block and at least three inside it.
    assert 0.0 < watch.wall_s < elapsed - sum(watch.probes[:3])
    assert watch.reference_s == pytest.approx(
        watch.wall_s * hostspeed.REFERENCE_S / watch.probe_s)


def _originals():
    targets = [t for group in (layers.TIMED, layers.COUNTED)
               for ts in group.values() for t in ts]
    return {t: layers._resolve(t)[2] for t in targets}


def test_every_wrapper_is_removed_after_a_traced_run():
    import repro.faults
    import repro.faults.plane

    before = _originals()
    fault_site = repro.faults.fault_site
    with layers.LayerTrace() as tracer:
        during = _originals()
        assert all(during[t] is not before[t] for t in before)
        assert repro.faults.fault_site is not fault_site
    assert _originals() == before
    assert all(_originals()[t] is before[t] for t in before)
    assert repro.faults.fault_site is fault_site
    assert repro.faults.plane.fault_site is fault_site
    assert tracer.leftovers() == []


@pytest.mark.parametrize("name", SERVING)
def test_self_times_never_sum_past_wall(name):
    result, summary = _one(name, trace=True)
    assert result.ok, result.error
    assert 0.0 < sum(summary["self_s"].values()) <= result.wall_s
    metrics = run.per_layer_metrics([summary], result.wall_s,
                                    result.wall_s, {})
    assert metrics["trace.self_s_total"][0] <= metrics["trace.wall_s"][0]


def test_wrong_pin_fails_the_run():
    pins = {"serve-warm": {"requests": REQUESTS,
                           "digests": {FIRST_TRACE: "0" * 64}}}
    result, _ = _one("serve-warm", pins=pins)
    assert not result.ok and "digest" in result.error


def test_wrong_pin_fails_the_command(monkeypatch, capsys):
    pins = {"serve-warm": {"requests": REQUESTS,
                           "digests": {FIRST_TRACE: "0" * 64}}}
    monkeypatch.setitem(workloads.WORKLOADS, "serve-warm",
                        _small("serve-warm"))
    monkeypatch.setattr(workloads, "load_pins", lambda: pins)
    monkeypatch.setattr(run, "measure_setup_s", lambda: (1.0, 1.0))
    code = run.main(["--workload", "serve-warm", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"])
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert document["correct"] is False
    assert document["failed"] / document["attempted"] > 0
    assert set(document["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = run.per_layer_metrics([], 1.0, 1.0, {})
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1]
               for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
