"""Paired solves and decay reports for stacks that straighten out.

A defect configuration that agrees with a periodic one on the upper half
k >= 0 produces a surface asymptotic to the periodic surface as the
height grows.  This module solves both problems on identical windows,
measures per-layer parameter and form differences, and fits the
geometric decay rate.
"""

from dataclasses import dataclass

import numpy as np

from .configs import Configuration, periodic_stack
from .opening import (GluingState, OmegaSeries, _chart_radius, _charts_checked_once,
                      central_layout, omega_on_circle)
from .solver import SolveReport, _continue_stacks

AGREE_TOL = 1e-12
FIT_FLOOR = 1e-14


class DegenerateFitError(RuntimeError):
    """Every fitted difference sits below the noise floor."""


@dataclass
class DecayReport:
    """Per-layer differences between a defect stack and its periodic
    reference, with the log-linear fit over the trusted upper half."""

    ks: list[int]
    d: np.ndarray
    w: np.ndarray
    rate: float
    r_squared: float
    fit_ks: list[int]
    t: float

    def rows(self) -> list[tuple[int, float, float]]:
        return [(k, float(self.d[i]), float(self.w[i]))
                for i, k in enumerate(self.ks)]

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "rate": self.rate,
            "r_squared": self.r_squared,
            "fit_ks": list(self.fit_ks),
            "rows": [{"k": k, "d": d, "w": w} for k, d, w in self.rows()],
        }


def upper_reference(cfg_defect: Configuration) -> Configuration:
    """Periodic configuration that extends the defect's upper tail to all
    layers; this is the reference the defect converges to going up."""
    return periodic_stack(cfg_defect.tau, cfg_defect.right_tail)


def pair_solve(cfg: Configuration, cfg_defect: Configuration, t: float,
               K: int | None = None, callback=None):
    """Solve the periodic reference and the defect on identical windows.

    Both solves get the same half-width K, so the periodic reference is
    solved as a window too: the two states share the window extent, the
    clamped tails and the chart radius.  Each window is continued as by
    `newton_continuation` to its tolerance `NEWTON_TOL`, in one t-loop
    with the tails of both windows' buffer layers; a tail pattern the two
    share, such as the reference's own stack, is continued once.  The
    callback sees the window steps ordered by t: at each t the
    reference's step, then the defect's.  Returns the two SolveReports
    (reference first), each with its solved state and glued form.
    """
    if not cfg.is_periodic():
        raise ValueError("reference configuration must be periodic")
    if K is None:
        K = max(8, cfg_defect.K + 1)
    if abs(cfg.tau - cfg_defect.tau) > AGREE_TOL:
        raise ValueError("pair must share the lattice")
    horizon = 3 * K + 6
    for k in range(horizon):
        if abs(cfg.q(k) - cfg_defect.q(k)) > AGREE_TOL:
            raise ValueError(
                f"configurations disagree at layer {k}; the defect must "
                "match the reference for k >= 0")
    (tori_p, lo_p, *_), (tori_d, lo_d, *_) = (central_layout(c, K)
                                              for c in (cfg, cfg_defect))
    if (lo_p, len(tori_p)) != (lo_d, len(tori_d)):
        raise ValueError(
            f"paired windows misaligned at K={K}: the reference has {len(tori_p)} "
            f"tori from k={lo_p}, the defect {len(tori_d)} from k={lo_d}")
    # shared chart radius: the defect's separations are a superset of the
    # reference's, so the forms must be compared on the tighter circles
    with _charts_checked_once():  # the windows share their distinct tori
        eps = min(_chart_radius(tori_p), _chart_radius(tori_d))
        return tuple(_continue_stacks([cfg, cfg_defect], t, K=K, epsilon=eps, callback=callback))


def parameter_rows(st_a: GluingState, st_b: GluingState) -> dict[int, float]:
    """Sup difference of the torus quadruple (a, bhat, tau, v) per layer."""
    shared = [k for k in st_a.logical_range() if k in st_b.logical_range()]
    out = {}
    for k in shared:
        Ta, Tb = st_a.torus(k), st_b.torus(k)
        out[k] = max(abs(Ta.a - Tb.a), abs(Ta.bhat - Tb.bhat),
                     abs(Ta.tau - Tb.tau), abs(Ta.v - Tb.v))
    return out


def form_rows(st_a: GluingState, series_a: OmegaSeries,
              st_b: GluingState, series_b: OmegaSeries) -> dict[int, float]:
    """Sup difference of the glued form over each layer's chart circles.

    Circles at matching chart angles are corresponding points of the two
    surfaces, so the pointwise gap is the pulled-back form difference.
    """
    shared = [k for k in st_a.logical_range() if k in st_b.logical_range()]
    out = {}
    for k in shared:
        gap = 0.0
        for side in ("zero", "node"):
            wa = omega_on_circle(st_a, series_a, k, side)
            wb = omega_on_circle(st_b, series_b, k, side)
            gap = max(gap, float(np.max(np.abs(wa - wb))))
        out[k] = gap
    return out


def _log_fit(ks: list[int], vals: np.ndarray) -> tuple[float, float]:
    y = np.log(vals)
    x = np.asarray(ks, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


def decay_fit(periodic: SolveReport, defect: SolveReport) -> DecayReport:
    """Fit log d_k against k over the trusted upper half of the window,
    from the solved states and glued forms of `pair_solve`'s reports.

    The fit runs over 1 <= k <= K-2; layer 0 carries the defect itself
    and the last two layers feel the clamped tail.  Entries below
    FIT_FLOOR are dropped from the log fit (they are double-precision
    residue, not measurements); when every entry is below the floor the
    fit is refused with DegenerateFitError.

    Entries above FIT_FLOOR are not thereby measurements: a difference
    within a few times the Newton tolerance of the two solves is solver
    noise.  On twin-rPD at t = 0.01 the kept layers 1 and 2 differ by
    about 8e-13 and 2e-13 after solves to 1e-11; solved to 1e-12 the
    same layers sit flat at 3-6e-13 and the fitted rate drops from 1.50
    to 0.07, so there the rate reflects rounding, not decay.
    """
    d = parameter_rows(periodic.state, defect.state)
    w = form_rows(periodic.state, periodic.series, defect.state, defect.series)
    ks = sorted(d)
    top = defect.state.active_range()[-1]
    fit_ks = [k for k in ks if 1 <= k <= top - 2]
    if not fit_ks:
        raise DegenerateFitError("window too narrow for a fit")
    fit_vals = np.array([d[k] for k in fit_ks])
    if np.all(fit_vals < FIT_FLOOR):
        raise DegenerateFitError(
            f"all fitted differences below {FIT_FLOOR:g}; nothing to fit")
    keep = fit_vals >= FIT_FLOOR
    kept_ks = [k for k, m in zip(fit_ks, keep) if m]
    if len(kept_ks) < 2:
        raise DegenerateFitError(
            f"fewer than two differences above {FIT_FLOOR:g}; cannot fit a rate")
    rate, r2 = _log_fit(kept_ks, fit_vals[keep])
    return DecayReport(ks=ks, d=np.array([d[k] for k in ks]),
                       w=np.array([w[k] for k in ks]), rate=rate,
                       r_squared=r2, fit_ks=kept_ks, t=defect.state.t)
