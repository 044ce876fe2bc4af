"""Extension bench: attack surface and CVE nullification per config.

Not a paper table -- reproduces the two quantified security claims the
paper cites from related work (Section 7): ~89% CVE nullification
(Alharthi et al.) and 50-85% attack-surface reduction (Kurmus et al.).
"""

from repro.harness import get_experiment


def test_security_surface(benchmark, record_result):
    experiment = get_experiment("ext-security")
    reports = benchmark(experiment.run)
    artifact = experiment.artifact(reports)
    record_result("ext_security", artifact.text, figure=artifact.figure)
    base, microvm = reports["lupine-base"], reports["microvm"]
    assert 0.85 <= base.nullification_rate <= 0.92
    assert 0.50 <= base.surface_reduction_vs(microvm) <= 0.85
