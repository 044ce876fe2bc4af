"""Figure 3 bench: config options per directory (total/microvm/lupine-base)."""

from repro.harness import get_experiment


def test_fig3_config_options(benchmark, record_result):
    experiment = get_experiment("fig3")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig3", artifact.text, figure=artifact.figure)
    assert sum(results["total"].values()) == 15953
    assert sum(results["microvm"].values()) == 833
    assert sum(results["lupine-base"].values()) == 283
