"""Figure 4 bench: breakdown of removed microVM options by category."""

from repro.harness import get_experiment


def test_fig4_option_breakdown(benchmark, record_result):
    experiment = get_experiment("fig4")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig4", artifact.text, figure=artifact.figure)
    assert (results["app"], results["mp"], results["hw"]) == (311, 89, 150)
    assert results["lupine-base"] == 283
