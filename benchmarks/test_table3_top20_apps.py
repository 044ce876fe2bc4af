"""Table 3 bench: per-app options atop lupine-base for the top-20 apps."""

from repro.harness import get_experiment


def test_table3_top20_apps(benchmark, record_result):
    experiment = get_experiment("table3")
    counts = benchmark(experiment.run)
    artifact = experiment.artifact(counts)
    record_result("table3", artifact.text, figure=artifact.figure)
    assert counts["nginx"] == 13 and counts["elasticsearch"] == 12
    assert len(counts) == 20
