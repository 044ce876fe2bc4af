"""Figure 8 bench: memory footprint (hello/nginx/redis) across systems."""

from repro.harness import get_experiment


def test_fig8_memory_footprint(benchmark, record_result):
    experiment = get_experiment("fig8")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig8", artifact.text, figure=artifact.figure)
    assert results["lupine"]["hello-world"] < results["microvm"]["hello-world"]
    assert results["hermitux"]["nginx"] is None
    for system in ("hermitux", "osv", "rump"):
        assert results[system]["redis"] > results["lupine"]["redis"]
