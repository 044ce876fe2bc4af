"""Figure 9 bench: lmbench null/read/write latency across systems."""

from repro.experiments import fig9_syscalls
from repro.harness import get_experiment


def test_fig9_syscall_latency(benchmark, record_result):
    experiment = get_experiment("fig9")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig9", artifact.text, figure=artifact.figure)
    assert 0.50 <= fig9_syscalls.specialization_improvement(results) <= 0.60
    assert 0.35 <= fig9_syscalls.kml_improvement(results) <= 0.45
    assert results["osv"]["read"] > results["microvm"]["read"]
