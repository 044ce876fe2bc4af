"""Section 5 bench: SMP overhead on a single processor."""

from repro.harness import get_experiment


def test_sec5_smp_overhead(benchmark, record_result):
    experiment = get_experiment("sec5")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("sec5", artifact.text, figure=artifact.figure)
    assert all(o <= 0.03 for _, o in results["sem_posix"])
    assert all(o <= 0.08 for _, o in results["futex"])
    assert all(o <= 0.03 for _, o in results["make-j"])
