"""Measure the run width JET_SETS and the chunk height SET_ROWS against
the tier-1 memory bounds and against time.

For each (JET_SETS, SET_ROWS) in SETTINGS the script sets
`opening.JET_SETS` on the module and the default chunk height of
`opening._circle_sets` (its `per` argument, read from SET_ROWS when the
module is imported), then prints:

- `jacobian_mib`: the traced peak of one `_fd_blocks` pass over the 17
  active layers of the twin-rPD K = 8 window at t = 0.01, the probe of
  `test_jacobian_pass_memory_stays_bounded` (bound 1.57 MiB);
- `pair_mib`: the traced peak of the K = 8 `twin-rPD` pair
  (`pair_solve` with `upper_reference`) to t = 0.01 with its
  `decay_fit`, as `tests/test_digests.py` measures it (bound 9.0 MiB);
- `passes` and `points`: the pair's theta passes and their points;
- `pair_s` and `opa_s`: the median in-process time of the untraced pair
  with its fit and of `oPa` to t = 0.08, over ROUNDS rounds that each
  time every setting once, in order, so a slow stretch of the host falls
  on all settings alike;
- `pair_x` and `opa_x`: the median over rounds of each time over the
  time of the first setting in the same round (paired medians).

The settings only regroup the jet calls and the row chunks, so every
setting gives the same bits; the traced solves take a few seconds each.

Run from the repository root: PYTHONPATH=src python tests/run_width.py
[ROUNDS] [JET_SETS,SET_ROWS ...], for example
PYTHONPATH=src python tests/run_width.py 5 5,4 10,8
"""

import statistics
import sys
import time

import numpy as np

from oracles import traced_peak_mib
from stackedmin import elliptic, opening
from stackedmin.asymptotics import decay_fit, pair_solve, upper_reference
from stackedmin.configs import catalog
from stackedmin.opening import GluingState, fix_omega
from stackedmin.solver import _fd_blocks, full_residual, newton_continuation

SETTINGS = ((5, 4), (3, 4), (4, 4), (6, 4), (5, 8), (10, 8))
ROUNDS = 3


def jacobian_peak() -> float:
    """Traced MiB of one Jacobian pass, after one that caches the
    lattices of the moved taus."""
    st = GluingState.central(catalog("twin-rPD"), 0.01, K=8)
    series = fix_omega(st)
    active = tuple(st.active_range())
    flat = full_residual(st, series, active).flat()
    _fd_blocks(st, series, active, flat)
    return traced_peak_mib(_fd_blocks, st, series, active, flat)


def pair():
    twin = catalog("twin-rPD")
    return decay_fit(*pair_solve(upper_reference(twin), twin, 0.01, K=8))


def opa():
    return newton_continuation(catalog("oPa"), 0.08)


def pair_peak() -> tuple[float, int, int]:
    """Traced MiB of the pair with its fit, and its theta passes and points."""
    points, theta_sums = [], elliptic._theta_sums

    def counted(v, *args):
        points.append(np.size(v))
        return theta_sums(v, *args)

    elliptic._theta_sums = counted
    try:
        peak = traced_peak_mib(pair)
    finally:
        elliptic._theta_sums = theta_sums
    return peak, len(points), sum(points)


def elapsed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def setting(jet_sets: int, set_rows: int) -> None:
    opening.JET_SETS = jet_sets
    opening._circle_sets.__defaults__ = (set_rows, False)


def main(argv) -> None:
    rounds = int(argv[0]) if argv else ROUNDS
    settings = [tuple(map(int, a.split(","))) for a in argv[1:]] or SETTINGS
    default = opening.JET_SETS, opening._circle_sets.__defaults__
    times = {s: ([], []) for s in settings}
    try:
        pair(), opa()  # imports and lattice caches, before any timing
        for _ in range(rounds):
            for s in settings:
                setting(*s)
                times[s][0].append(elapsed(pair))
                times[s][1].append(elapsed(opa))
        for s in settings:
            setting(*s)
            jac = jacobian_peak()
            peak, passes, points = pair_peak()
            pair_s, opa_s = (statistics.median(t) for t in times[s])
            pair_x, opa_x = (statistics.median(a / b for a, b in zip(t, t0))
                             for t, t0 in zip(times[s], times[settings[0]]))
            print(f"jet_sets {s[0]} set_rows {s[1]} jacobian_mib {jac:.3f} "
                  f"pair_mib {peak:.3f} passes {passes} points {points} "
                  f"pair_s {pair_s:.3f} opa_s {opa_s:.3f} "
                  f"pair_x {pair_x:.3f} opa_x {opa_x:.3f}", flush=True)
    finally:
        opening.JET_SETS, opening._circle_sets.__defaults__ = default


if __name__ == "__main__":
    main(sys.argv[1:])
