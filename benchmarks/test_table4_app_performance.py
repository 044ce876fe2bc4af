"""Table 4 bench: redis/nginx throughput normalized to microVM."""

from repro.experiments import table4_apps
from repro.harness import get_experiment


def test_table4_app_performance(benchmark, record_result):
    experiment = get_experiment("table4")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("table4", artifact.text, figure=artifact.figure)
    lupine = results["lupine"]
    assert all(lupine[column] > 1.1 for column in table4_apps.COLUMNS)
    assert results["hermitux"]["nginx-conn"] is None
    assert results["rump"]["nginx-conn"] > 1.0 > results["rump"]["nginx-sess"]
