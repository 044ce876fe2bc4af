"""Figure 7 bench: boot time for hello world across systems."""

from repro.harness import get_experiment


def test_fig7_boot_time(benchmark, record_result):
    experiment = get_experiment("fig7")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig7", artifact.text, figure=artifact.figure)
    assert results["lupine-nokml"] < 0.5 * results["microvm"]
    assert results["osv-zfs"] > 3 * results["osv-rofs"]
