"""The benchmark's workloads: inputs from a seed, one timed run, its checks.

Each workload runs the program through its public entry points only:

- ``serve-churn``  -- ``run_serving`` on the canonical diurnal trace shape
  under ``SCALE_TO_ZERO``: every trough retires the fleet, so the cold
  path (kconfig, variant build, engine set-up, boot) does most of the work;
- ``serve-warm``   -- the same trace under ``FIXED_POOL``: few boots, so the
  per-request path (router, arrivals, ``invoke_batch``, ``EventCore``)
  dominates;
- ``paper-suite``  -- ``run_experiments(jobs=1, force=True)`` over all
  registered experiments into a fresh output directory: what reproducing
  the paper costs.  It takes no seed.

A serving call's runs cycle through :data:`TRACES_PER_SEED` traces drawn
from its seed (:func:`trace_seed`), so a call measures several traces
instead of one; how many guests a trace cold-boots varies by about 15%
from one trace to the next.

Every timed run starts from the state a fresh ``fleet-serve``/``run-all``
process has after its imports: build and resolution caches empty, the
tracer and metrics registry empty.  Only imports and the option tree
(:func:`setup`) are paid once per process.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from hostspeed import Stopwatch

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"
GOLDEN_PATH = ROOT / "tests" / "golden" / "experiments_golden.json"
#: Scratch space for paper-suite output directories (inside the checkout).
SCRATCH_DIR = ROOT / ".perfbench"


#: Traces a serving call cycles through: the seed's inputs.
TRACES_PER_SEED = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: Requests per serving run (0: not a serving workload).
    requests: int
    policy: str = ""

    @property
    def serving(self) -> bool:
        return self.requests > 0

    @property
    def inputs(self) -> int:
        """Distinct inputs one call cycles through."""
        return TRACES_PER_SEED if self.serving else 1


def trace_seed(seed: int, run: int) -> int:
    """The trace seed of a call's *run*-th run (counting from 0): calls
    with different seeds never share a trace."""
    return seed * TRACES_PER_SEED + run % TRACES_PER_SEED


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("serve-churn", requests=20000, policy="scale-to-zero"),
        Workload("serve-warm", requests=20000, policy="fixed-pool"),
        Workload("paper-suite", requests=0),
    )
}


def setup() -> None:
    """Process set-up: import every program module and build the option
    trees (pristine and KML-patched) that every run resolves against."""
    import importlib
    import pkgutil

    import repro
    from repro.kconfig.database import build_linux_tree
    from repro.kml.patch import KmlPatch

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    build_linux_tree()
    KmlPatch().apply("4.0")


def reset_process_state() -> None:
    """Return process-wide caches and registries to their post-set-up
    state, so every run pays what a fresh process pays, and collect the
    last run's garbage so no run pays for its predecessor."""
    import gc

    from repro.core.buildcache import BUILD_CACHE
    from repro.kconfig.rescache import RESOLUTION_CACHE
    from repro.observe import METRICS, TRACER
    from repro.security.attack_surface import cve_database

    BUILD_CACHE.reset()
    RESOLUTION_CACHE.reset()
    cve_database.cache_clear()
    TRACER.reset()
    METRICS.reset()
    gc.collect()


def load_pins() -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pinned_digest(pins: Dict[str, Any], workload: Workload,
                  seed: int) -> Optional[str]:
    """The pinned digest of the trace drawn from trace seed *seed*."""
    entry = pins.get(workload.name)
    if not entry or entry.get("requests") != workload.requests:
        return None
    return entry.get("digests", {}).get(str(seed))


def serve_spec(workload: Workload, seed: int):
    """The generated input: the canonical diurnal trace shape at the
    workload's size, drawn from trace seed *seed*."""
    from repro.traffic.bench import canonical_trace
    from repro.traffic.policy import named_policy
    from repro.traffic.serve import ServeSpec

    return ServeSpec(trace=canonical_trace(workload.requests),
                     policy=named_policy(workload.policy), seed=seed)


@dataclass
class RunResult:
    """One timed run: host time plus what its checks found."""

    wall_s: float
    #: ``wall_s`` at the reference host speed (sampled runs only).
    reference_s: Optional[float] = None
    #: The trace seed of a serving run.
    seed: Optional[int] = None
    digest: str = ""
    error: str = ""
    #: Per-experiment host ms from the run manifest (paper-suite).
    experiment_ms: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return not self.error


def run_once(workload: Workload, seed: int, pins: Dict[str, Any],
             expect_digest: Optional[str] = None,
             stopwatch: Callable[[], Stopwatch] = Stopwatch) -> RunResult:
    """One cold run of *workload* on trace seed *seed*, timed by a new
    *stopwatch*, checked.

    A serving run must conserve requests and reproduce its pinned
    manifest digest (or *expect_digest*, the digest of the call's first
    run on the same trace, when the trace seed has no pin).  A paper-suite run must end with every experiment
    ``ok``, every registered experiment executed (one result-cache miss
    each, no hit), and results byte-equal to the golden file.
    Any exception or mismatch lands in ``error``.
    """
    reset_process_state()
    if not workload.serving:
        return _run_paper_suite(stopwatch())
    result = _run_serving(workload, seed, stopwatch())
    want = pinned_digest(pins, workload, seed) or expect_digest
    if result.ok and want is not None and result.digest != want:
        result.error = (f"manifest digest {result.digest[:16]} != "
                        f"expected {want[:16]}")
    return result


def _run_serving(workload: Workload, seed: int,
                 watch: Stopwatch) -> RunResult:
    from repro.traffic.serve import run_serving

    spec = serve_spec(workload, seed)
    try:
        with watch:
            report = run_serving(spec)
    except Exception as error:  # noqa: BLE001 -- a failed run is a result
        return RunResult(wall_s=watch.wall_s, seed=seed,
                         error=f"{type(error).__name__}: {error}")
    result = RunResult(wall_s=watch.wall_s, reference_s=watch.reference_s,
                       seed=seed, digest=report.manifest_digest)
    requests = workload.requests
    settled = report.served + report.failed + report.shed + report.dropped
    if report.arrivals != requests or settled != requests:
        result.error = (f"conservation: {requests} requested, "
                        f"{report.arrivals} arrived, {settled} settled")
    return result


def _run_paper_suite(watch: Stopwatch) -> RunResult:
    from repro.harness import codec
    from repro.harness.registry import all_experiments
    from repro.harness.runner import run_experiments
    from repro.observe import METRICS

    SCRATCH_DIR.mkdir(exist_ok=True)
    output_dir = pathlib.Path(tempfile.mkdtemp(prefix="paper-suite-",
                                               dir=SCRATCH_DIR))
    try:
        try:
            with watch:
                run = run_experiments(jobs=1, force=True,
                                      output_dir=output_dir)
        except Exception as error:  # noqa: BLE001 -- a failed run is a result
            return RunResult(wall_s=watch.wall_s,
                             error=f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(output_dir, ignore_errors=True)
    result = RunResult(
        wall_s=watch.wall_s,
        reference_s=watch.reference_s,
        experiment_ms={e.name: e.wall_ms for e in run.telemetry.experiments},
    )
    hits = METRICS.counter("harness.result_cache.hits").value
    misses = METRICS.counter("harness.result_cache.misses").value
    registered = len(all_experiments())
    document = json.dumps(
        {name: codec.encode(value) for name, value in run.results.items()},
        sort_keys=True, indent=1,
    ) + "\n"
    if not run.ok:
        result.error = f"experiments failed: {sorted(run.failures)}"
    elif hits or misses != registered:
        result.error = (f"{hits} result-cache hits, {misses} misses for "
                        f"{registered} experiments: not every experiment "
                        f"ran cold")
    elif document != GOLDEN_PATH.read_text(encoding="utf-8"):
        result.error = "experiment results differ from the golden file"
    return result


def run_digests(workload: Workload, seeds: List[int]) -> Dict[str, str]:
    """Manifest digests for *seeds* (the pin generator's unit of work)."""
    digests = {}
    for seed in seeds:
        reset_process_state()
        result = _run_serving(workload, seed, Stopwatch())
        if not result.ok:
            raise RuntimeError(f"{workload.name} seed {seed}: {result.error}")
        digests[str(seed)] = result.digest
    return digests
