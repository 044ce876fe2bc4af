"""Figure 11 bench: syscall latency vs background control processes."""

from repro.harness import get_experiment


def test_fig11_control_processes(benchmark, record_result):
    experiment = get_experiment("fig11")
    series = benchmark(experiment.run)
    artifact = experiment.artifact(series)
    record_result("fig11", artifact.text, figure=artifact.figure)
    for name, points in series.items():
        values = [value for _, value in points]
        assert max(values) - min(values) <= 0.02 * max(values), name
