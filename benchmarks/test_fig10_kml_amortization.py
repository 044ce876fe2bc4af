"""Figure 10 bench: KML improvement vs busy-wait iterations."""

from repro.harness import get_experiment


def test_fig10_kml_amortization(benchmark, record_result):
    experiment = get_experiment("fig10")
    points = benchmark(experiment.run)
    artifact = experiment.artifact(points)
    record_result("fig10", artifact.text, figure=artifact.figure)
    as_dict = dict(points)
    assert 0.35 <= as_dict[0] <= 0.45
    assert as_dict[160] < 0.05
