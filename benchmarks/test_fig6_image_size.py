"""Figure 6 bench: kernel image size for hello world across systems."""

from repro.harness import get_experiment


def test_fig6_image_size(benchmark, record_result):
    experiment = get_experiment("fig6")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig6", artifact.text, figure=artifact.figure)
    assert 0.24 <= results["lupine"] / results["microvm"] <= 0.31
    assert results["lupine-general"] < results["osv"] < results["rump"]
