"""One process set-up, start to ready-to-run: ``run.py`` starts this
script as a whole process, interpreter start included.  It prints the
system-wide monotonic time at which the interpreter had started, the host
seconds of the set-up after that (speed probes excluded) and the mean host
seconds of one speed probe meanwhile, to measure ``setup_s``."""

import pathlib
import sys
import time

started = time.clock_gettime(time.CLOCK_MONOTONIC)
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

with hostspeed.SampledStopwatch() as watch:
    import workloads

    workloads.setup()
print(repr(started), repr(watch.wall_s), repr(watch.probe_s))
