"""Figure 12 bench: perf messaging with threads vs processes."""

from repro.experiments import fig12_ctxsw
from repro.harness import get_experiment


def test_fig12_context_switch(benchmark, record_result):
    experiment = get_experiment("fig12")
    results = benchmark(experiment.run)
    artifact = experiment.artifact(results)
    record_result("fig12", artifact.text, figure=artifact.figure)
    assert fig12_ctxsw.max_process_penalty(results) <= 0.03
