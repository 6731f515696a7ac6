"""Measure the run width JET_SETS against the tier-1 memory bounds.

For each width in WIDTHS the script sets `opening.JET_SETS` on the
module, then prints:

- `jacobian_mib`: the traced peak of one `_fd_blocks` pass over the 17
  active layers of the twin-rPD K = 8 window at t = 0.01, the probe of
  `test_jacobian_pass_memory_stays_bounded` (bound 1.57 MiB);
- `pair_mib`: the traced peak of the K = 8 `twin-rPD` pair
  (`pair_solve` with `upper_reference`) to t = 0.01 with its
  `decay_fit`, as `tests/test_digests.py` measures it (bound 9.0 MiB);
- `passes` and `points`: the pair's theta passes and their points.

The widths only regroup the jet calls, so every width gives the same
bits; the solves take a few seconds each under tracemalloc.

Run from the repository root: PYTHONPATH=src python tests/run_width.py
"""

import numpy as np

from oracles import traced_peak_mib
from stackedmin import elliptic, opening
from stackedmin.asymptotics import decay_fit, pair_solve, upper_reference
from stackedmin.configs import catalog
from stackedmin.opening import GluingState, fix_omega
from stackedmin.solver import _fd_blocks, full_residual

WIDTHS = (3, 4, 5, 6)


def jacobian_peak() -> float:
    """Traced MiB of one Jacobian pass, after one that caches the
    lattices of the moved taus."""
    st = GluingState.central(catalog("twin-rPD"), 0.01, K=8)
    series = fix_omega(st)
    active = tuple(st.active_range())
    flat = full_residual(st, series, active).flat()
    _fd_blocks(st, series, active, flat)
    return traced_peak_mib(_fd_blocks, st, series, active, flat)


def pair_peak() -> tuple[float, int, int]:
    """Traced MiB of the pair with its fit, and its theta passes and points."""
    points, theta_sums = [], elliptic._theta_sums

    def counted(v, *args):
        points.append(np.size(v))
        return theta_sums(v, *args)

    twin = catalog("twin-rPD")
    elliptic._theta_sums = counted
    try:
        peak = traced_peak_mib(
            lambda: decay_fit(*pair_solve(upper_reference(twin), twin, 0.01, K=8)))
    finally:
        elliptic._theta_sums = theta_sums
    return peak, len(points), sum(points)


def main() -> None:
    default = opening.JET_SETS
    try:
        for width in WIDTHS:
            opening.JET_SETS = width
            jac = jacobian_peak()
            pair, passes, points = pair_peak()
            print(f"width {width} jacobian_mib {jac:.3f} pair_mib {pair:.3f} "
                  f"passes {passes} points {points}", flush=True)
    finally:
        opening.JET_SETS = default


if __name__ == "__main__":
    main()
