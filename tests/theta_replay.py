"""Record every theta pass of one workload and time their replay.

WORKLOAD is one of the benchmark's three:

- `periodic-oPa`: `oPa` continued to t = 0.08;
- `defect-decay`: the K = 8 `twin-rPD` pair (`pair_solve` with
  `upper_reference`) to t = 0.01, with its `decay_fit`;
- `mesh-rPD`: `build_mesh` of `rPD` at t = 0.01 (its solve is not
  recorded).

Each `elliptic._theta_sums` call of the workload is recorded with its
arguments.  The script prints the number of calls, their points, the
distinct Im bit patterns of their first terms (the complex sins a term
takes when each distinct imaginary part takes one) and the min and
median wall time of 7 replays of every recorded call, in ms.  The kernel
and the workload come from the `stackedmin` on sys.path, so running it
in two checkouts in turn compares their theta passes, each on the inputs
its own tree sends.

Run from the repository root: PYTHONPATH=src python tests/theta_replay.py mesh-rPD
"""

import sys
import time

import numpy as np

from stackedmin import elliptic
from stackedmin.asymptotics import decay_fit, pair_solve, upper_reference
from stackedmin.configs import catalog
from stackedmin.immersion import build_mesh
from stackedmin.solver import newton_continuation

REPLAYS = 7


def _workload(name: str):
    """The run of a workload, with the solve that a mesh needs done."""
    if name == "periodic-oPa":
        return lambda: newton_continuation(catalog("oPa"), 0.08)
    if name == "defect-decay":
        twin = catalog("twin-rPD")
        return lambda: decay_fit(*pair_solve(upper_reference(twin), twin, 0.01, K=8))
    if name == "mesh-rPD":
        rep = newton_continuation(catalog("rPD"), 0.01)
        return lambda: build_mesh(rep.state, rep.series)
    raise SystemExit(f"unknown workload {name!r}; use periodic-oPa, defect-decay or mesh-rPD")


def record(workload: str) -> list:
    """The (v, q, n_terms, kmax) of every theta pass of the workload."""
    run = _workload(workload)
    calls, theta_sums = [], elliptic._theta_sums

    def recorded(v, *args):
        calls.append((np.array(v, dtype=complex), *args))
        return theta_sums(v, *args)

    elliptic._theta_sums = recorded
    try:
        run()
    finally:
        elliptic._theta_sums = theta_sums
    return calls


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    calls = record(sys.argv[1])
    distinct = sum(len(np.unique(np.multiply(1, v).imag.view(np.int64))) for v, *_ in calls)
    times = []
    for _ in range(REPLAYS):
        start = time.perf_counter()
        for args in calls:
            elliptic._theta_sums(*args)
        times.append(time.perf_counter() - start)
    print(f"calls {len(calls)}")
    print(f"points {sum(v.size for v, *_ in calls)}")
    print(f"distinct_im {distinct}")
    print(f"replay_ms min {1e3 * min(times):.1f} median {1e3 * float(np.median(times)):.1f}")


if __name__ == "__main__":
    main()
