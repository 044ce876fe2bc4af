"""Table 1 bench: config options that enable/disable system calls."""

from repro.harness import get_experiment


def test_table1_syscall_options(benchmark, record_result):
    experiment = get_experiment("table1")
    rows = benchmark(experiment.run)
    artifact = experiment.artifact(rows)
    record_result("table1", artifact.text, figure=artifact.figure)
    assert len(rows) == 12
    assert "madvise" in rows["ADVISE_SYSCALLS"]
