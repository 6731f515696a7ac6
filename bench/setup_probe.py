"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing the package and building the workload's
configurations.  After the timed part the script times the host-speed
probe (hostspeed.py) a few times in the same process, so the set-up can
be rescaled like the passes.  Prints the set-up seconds and the mean
probe seconds on one line; run.py starts this script several times and
reports the median rescaled set-up as `setup_s`.

    python3 bench/setup_probe.py <workload>
"""

import os
import sys
import time

t0 = time.perf_counter()
here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

import workloads  # noqa: E402  (the import is what is timed)

workloads.WORKLOADS[sys.argv[1]].setup()
setup_s = time.perf_counter() - t0

import hostspeed  # noqa: E402

print(repr(setup_s), repr(hostspeed.probe_mean_s()))
