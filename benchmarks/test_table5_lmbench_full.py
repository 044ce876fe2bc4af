"""Table 5 bench: full lmbench suite, microVM vs lupine-general."""

from repro.harness import get_experiment


def test_table5_lmbench_full(benchmark, record_result):
    experiment = get_experiment("table5")
    reports = benchmark(experiment.run)
    artifact = experiment.artifact(reports)
    record_result("table5", artifact.text, figure=artifact.figure)
    microvm = reports["microvm"]
    general = reports["lupine-general"]
    assert general.latencies_us["null call"] < microvm.latencies_us["null call"]
    assert general.latencies_us["TCP conn"] < microvm.latencies_us["TCP conn"]
