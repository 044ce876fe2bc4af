"""Wall-clock benchmark of the Lupine reproduction, one workload per call.

Usage::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root.  A serving call cycles through the
seed's traces (``workloads.trace_seed``), each at least once; a
paper-suite call repeats its one input.  ``--trace 0`` times cold runs
back to back for ``--seconds`` seconds with no instrumentation but the
host-speed probes of ``hostspeed.py``, and reports the end-to-end metrics
at the reference host speed; ``--trace 1`` spends half the time on plain
untraced runs and half on runs traced at every layer's entry points (see
``layers.py``) and reports the per-layer metrics in host seconds.  Every
run is checked: serving digests against ``pins.json`` (or, for a trace
with no pin, against the call's first run on it) and paper-suite results
against the golden file.  The last line of output is one JSON object; the
exit code is 0 only when every run was correct.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from hostspeed import SampledStopwatch, Stopwatch  # noqa: E402
from workloads import RunResult, Workload  # noqa: E402

#: Set-up is measured this many times per call, as whole processes.
SETUP_PROBES = 5


def measure_setup_s() -> Tuple[float, float]:
    """Median seconds of a fresh process's set-up, at the reference host
    speed and in host seconds.

    The process reports when its interpreter had started, on the
    system-wide monotonic clock, and the host seconds of its set-up from
    then on, so neither its exit nor ``subprocess``'s polling interval (up
    to 50 ms while a timeout is armed) is counted, and the mean host
    seconds of one speed probe meanwhile."""
    reference, host = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                               check=True, timeout=120,
                               stdout=subprocess.PIPE, text=True)
        started, setup_s, probe_s = map(float, probe.stdout.split()[-3:])
        host.append(started - spawned + setup_s)
        reference.append(host[-1] * hostspeed.REFERENCE_S / probe_s)
    return statistics.median(reference), statistics.median(host)


def timed_runs(workload: Workload, seed: int, budget_s: float,
               pins: Dict[str, Any],
               expect: Optional[Dict[int, str]] = None, trace: bool = False,
               sampled: bool = False, min_runs: int = 1
               ) -> Tuple[List[RunResult], List[Dict[str, Any]]]:
    """Cold runs back to back, cycling through the seed's traces, until
    *min_runs* have run and the next one is not expected to end within
    *budget_s*.

    A run on a trace with no pin must reproduce *expect* (trace seed ->
    digest) or, failing that, the call's first run on that trace.
    With *trace*, every run is wrapped in its own :class:`LayerTrace`
    whose summary (plus the program's counters) is returned per run.
    With *sampled*, every run is timed by a :class:`SampledStopwatch`.
    """
    from repro.observe import METRICS

    stopwatch = SampledStopwatch if sampled else Stopwatch
    expect = dict(expect or {})
    results: List[RunResult] = []
    summaries: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(results) < min_runs or (
            time.perf_counter() - started
            + statistics.fmean(r.wall_s for r in results) <= budget_s):
        run_seed = workloads.trace_seed(seed, len(results))
        if trace:
            with layers.LayerTrace() as tracer:
                result = workloads.run_once(workload, run_seed, pins,
                                            expect.get(run_seed), stopwatch)
            leftovers = tracer.leftovers()
            if leftovers and result.ok:
                result.error = f"wrappers left installed: {leftovers}"
            summary = tracer.summary()
            summary["program"] = {name: METRICS.counter(name).value
                                  for name in layers.PROGRAM_COUNTERS}
            summaries.append(summary)
        else:
            result = workloads.run_once(workload, run_seed, pins,
                                        expect.get(run_seed), stopwatch)
        results.append(result)
        if result.ok and result.digest:
            expect.setdefault(run_seed, result.digest)
    return results, summaries


def per_input(results: List[RunResult],
              value: Callable[[RunResult], float]) -> Dict[Any, float]:
    """Each input's median *value* over its runs (serving: trace seed ->
    median; paper-suite: one input)."""
    runs: Dict[Any, List[float]] = {}
    for result in results:
        runs.setdefault(result.seed, []).append(value(result))
    return {key: statistics.median(values) for key, values in runs.items()}


def input_mean(results: List[RunResult],
               value: Callable[[RunResult], float]) -> float:
    """The mean over the call's inputs of each input's median run: every
    trace counts once, however many times the budget let it run."""
    return statistics.fmean(per_input(results, value).values())


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(summaries: List[Dict[str, Any]], traced_wall_s: float,
                      untraced_wall_s: float,
                      experiment_ms: Dict[str, float]
                      ) -> Dict[str, Tuple[float, str]]:
    """The per-layer figures, averaged per traced run: name -> (value,
    unit).  Every name is always present (0 where a layer did not run).
    *experiment_ms* comes from untraced runs, which carry no wrappers."""
    from repro.harness.registry import all_experiments

    runs = max(1, len(summaries))
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    program: Dict[str, float] = {}
    boots: List[float] = []
    for summary in summaries:
        for table, source in ((calls, summary["calls"]),
                              (self_s, summary["self_s"]),
                              (counts, summary["counts"]),
                              (program, summary["program"])):
            for name, value in source.items():
                table[name] = table.get(name, 0.0) + value
        boots.extend(summary["boot_host_ms"])

    def per_run(table: Dict[str, float], name: str) -> float:
        return table.get(name, 0.0) / runs

    metrics: Dict[str, Tuple[float, str]] = {}

    def timed(metric: str, span: str, with_calls: bool = False) -> None:
        if with_calls:
            metrics[f"{metric}_calls"] = (per_run(calls, span), "count")
        metrics[f"{metric}_s"] = (per_run(self_s, span), "s")

    timed("kconfig.enabled", "kconfig.enabled", with_calls=True)
    timed("kconfig.resolve", "kconfig.resolve", with_calls=True)
    metrics["kconfig.rescache_hit_ratio"] = (_ratio(
        program.get("kconfig.resolve.cache_hits", 0.0),
        program.get("kconfig.resolve.cache_misses", 0.0)), "ratio")
    timed("core.build_variant", "core.build_variant")
    metrics["core.buildcache_hit_ratio"] = (_ratio(
        program.get("buildcache.hits", 0.0),
        program.get("buildcache.misses", 0.0)), "ratio")
    metrics["core.unikernel_memo_hit_ratio"] = (_ratio(
        counts.get("core.unikernel_memo_hits", 0.0),
        counts.get("core.unikernel_memo_misses", 0.0)), "ratio")
    timed("core.engine_setup", "core.engine_setup")
    timed("kbuild.build", "kbuild.build", with_calls=True)
    timed("boot.boot", "boot.boot", with_calls=True)
    timed("syscall.invoke_batch", "syscall.invoke_batch", with_calls=True)
    metrics["syscall.invoke_calls"] = (per_run(counts, "syscall.invoke_calls"),
                                       "count")
    timed("workloads.server_run", "workloads.server_run")
    timed("workloads.paper_drivers", "workloads.paper_drivers")
    metrics["sched.calls"] = (per_run(counts, "sched.calls"), "count")
    eventcore_s = per_run(self_s, "simcore.eventcore")
    events = per_run(program, "eventcore.events_dispatched")
    metrics["simcore.eventcore_self_s"] = (eventcore_s, "s")
    metrics["simcore.events"] = (events, "count")
    metrics["simcore.host_us_per_event"] = (
        eventcore_s / events * 1e6 if events else 0.0, "us")
    timed("simcore.guest_build", "simcore.guest_build")
    timed("simcore.guest_boot", "simcore.guest_boot")
    timed("simcore.guest_serve", "simcore.guest_serve")
    # The percentiles pool every traced run's boots, but the tail is chosen
    # by the boots of one run, which the input fixes: a faster program that
    # fits more runs into the budget must not move to a higher percentile.
    boots_per_run = len(boots) / runs
    tail_pct = layers.tail_percentile(boots_per_run)
    metrics["simcore.cold_boot_host_ms_p50"] = (
        layers.percentile(boots, 0.5), "ms")
    metrics["simcore.cold_boot_host_ms_tail"] = (
        layers.percentile(boots, tail_pct / 100.0) if tail_pct else 0.0,
        "ms")
    metrics["simcore.cold_boot_tail_pct"] = (tail_pct, "%")
    metrics["simcore.cold_boot_samples"] = (boots_per_run, "count")
    timed("traffic.dispatch", "traffic.dispatch", with_calls=True)
    timed("traffic.arrivals", "traffic.arrivals")
    timed("traffic.supervisor", "traffic.supervisor")
    metrics["faults.site_checks"] = (per_run(counts, "faults.site_checks"),
                                     "count")
    for name in all_experiments():
        metrics[f"harness.experiment_s.{name}"] = (
            experiment_ms.get(name, 0.0) / 1e3, "s")
    metrics["harness.result_cache_hit_ratio"] = (_ratio(
        program.get("harness.result_cache.hits", 0.0),
        program.get("harness.result_cache.misses", 0.0)), "ratio")
    metrics["trace.overhead_frac"] = (
        traced_wall_s / untraced_wall_s - 1.0, "ratio")
    metrics["trace.self_s_total"] = (sum(self_s.values()) / runs, "s")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the serving traces (four per "
                        "seed); paper-suite ignores it")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]

    setup_s, setup_host_s = (0.0, 0.0) if args.trace else measure_setup_s()
    workloads.setup()
    pins = workloads.load_pins()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced, _ = timed_runs(workload, args.seed, budget, pins,
                             sampled=not args.trace,
                             min_runs=workload.inputs)
    traced: List[RunResult] = []
    summaries: List[Dict[str, Any]] = []
    if args.trace:
        expect = {r.seed: r.digest for r in untraced if r.ok and r.digest}
        traced, summaries = timed_runs(workload, args.seed, budget, pins,
                                       expect=expect, trace=True,
                                       min_runs=workload.inputs)

    runs = untraced + traced
    failures = [r for r in runs if not r.ok]
    for result in failures:
        print(f"run failed: {result.error}", file=sys.stderr)

    host = operator.attrgetter("wall_s")
    timing = host if args.trace else operator.attrgetter("reference_s")
    wall_s = input_mean(untraced, timing)
    host_wall_s = input_mean(untraced, host)
    inputs = (f"seed {args.seed}, {workload.requests} requests a trace"
              if workload.serving
              else "seed-free")
    print(f"workload {workload.name}: {inputs}, "
          f"{len(untraced)} untraced + {len(traced)} traced runs")
    speed = "host seconds" if args.trace else "at the reference host speed"
    print(f"  wall_s        {wall_s:.4f} s  (mean over inputs of each "
          f"input's median run, {speed})")
    print("  runs_s        " + " ".join(f"{timing(r):.3f}" for r in untraced))
    if not args.trace:
        print(f"  host wall_s   {host_wall_s:.4f} s  (the same in host "
              "seconds; runs "
              + " ".join(f"{r.wall_s:.3f}" for r in untraced) + ")")
    if workload.serving:
        print(f"  sim_req_per_s {workload.requests / wall_s:.1f} 1/s")
        digests = {r.seed: r.digest for r in runs if r.digest}
        for key, median in per_input(untraced, timing).items():
            pinned = workloads.pinned_digest(pins, workload, key)
            print(f"  trace {key:<7d} {median:.4f} s  sha256 "
                  f"{digests.get(key, '')} "
                  f"({'pinned' if pinned else 'no pin for this trace'})")
    if not args.trace:
        print(f"  setup_s       {setup_s:.4f} s  ({SETUP_PROBES} processes; "
              f"{setup_host_s:.4f} host seconds)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    print(f"  failed_frac   {len(failures) / len(runs):.4f} "
          f"({len(failures)}/{len(runs)}) frac")

    if args.trace:
        experiment_ms: Dict[str, float] = {}
        for result in untraced:
            for name, ms in (result.experiment_ms or {}).items():
                experiment_ms[name] = (experiment_ms.get(name, 0.0)
                                       + ms / len(untraced))
        values = per_layer_metrics(
            summaries, input_mean(traced, host), host_wall_s, experiment_ms)
    else:
        values = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB")}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
