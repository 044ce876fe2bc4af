"""Figure 5 bench: growth of the option union across apps."""

from repro.harness import get_experiment


def test_fig5_option_growth(benchmark, record_result):
    experiment = get_experiment("fig5")
    growth = benchmark(experiment.run)
    artifact = experiment.artifact(growth)
    record_result("fig5", artifact.text, figure=artifact.figure)
    assert growth[0] == 13 and growth[-1] == 19
