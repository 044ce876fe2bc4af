"""Extension bench: serverless cold-start latency across systems."""

from repro.harness import get_experiment


def test_ext_coldstart(benchmark, record_result):
    experiment = get_experiment("ext-coldstart")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("ext_coldstart", artifact.text, figure=artifact.figure)
    assert results["lupine-nokml"].total_ms < results["microvm"].total_ms
    assert results["lupine-nokml"].total_ms < 35.0
