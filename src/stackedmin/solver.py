"""Newton continuation for the opened-node parameter system.

Each layer k carries four complex unknowns (bhat_k, a_k, tau_k, v_k) and
four complex equations: the regularity sum over the zeros of the layer
Gauss component, two period residuals, and the balance normalisation of
the neck flux.  The closed necks (t = 0) solve the system exactly at the
central values, and solutions at t > 0 are continued from there.
"""

from dataclasses import dataclass, field

import numpy as np

from .configs import Configuration
from .opening import (
    GluingState,
    OmegaSeries,
    fix_omega,
    gauss_and_omega_from_jets,
    omega_jmax,
    omega_on_circle,
    path_base,
)

PATH_NODES = 512
FD_STEP = 1e-6
NEWTON_TOL = 1e-11
MAX_NEWTON = 40
MAX_HALVINGS = 12


class ContourError(RuntimeError):
    """A zero of the Gauss component sits on an integration contour."""


class StepFailure(RuntimeError):
    """Newton failed to reduce the residual at one continuation step.

    k is the layer holding the largest residual entry, t the neck size
    and history the residual sup-norms of the iterations made so far.
    """

    def __init__(self, message: str, k: int | None = None,
                 t: float | None = None, history: tuple = ()):
        super().__init__(message)
        self.k = k
        self.t = t
        self.history = tuple(history)


# ---------------------------------------------------------------------------
# residuals


def residual_E(k: int, st: GluingState, series: OmegaSeries) -> complex:
    """Sum of omega/dz over the zeros of g_k, as minus the residues of
    W g'/g at the two poles (the cell-boundary part cancels by periodicity)."""
    tot = 0j
    for side in ("zero", "node"):
        cc = st.circle(k, side)
        W = omega_on_circle(st, series, k, side)
        tot += np.sum(W * cc.gp / cc.g * cc.dz) / (2j * np.pi)
    return -tot


def _path_data(st, series, k, vec, m=PATH_NODES):
    j = st.index_of(k)
    jmax = omega_jmax(st, series, j)
    s = (np.arange(m) + 0.5) / m
    jets = st.cached_jets(j, ("path", vec, m, jmax),
                          lambda T: T.jets(path_base(T) + s * vec, jmax))
    gv, W = gauss_and_omega_from_jets(st, series, j, jets)
    if np.min(np.abs(gv)) < 1e-6:
        raise ContourError(f"zero of g_{k} on a period path")
    return W, gv, vec / m


def residual_P(k: int, st: GluingState, series: OmegaSeries):
    """Period residuals of the horizontal displacement over both cycles."""
    T = st.torus(k)
    t = st.t
    out = []
    for vec, target in ((1.0, 2.0 * (-1) ** k), (T.tau, 2.0 * st.tau_ref)):
        W, gv, dz = _path_data(st, series, k, vec)
        i_ginv = np.sum(W / gv) * dz
        i_g = np.sum(t * t * gv * W) * dz
        if k % 2 == 0:
            p = np.conj(i_g) - i_ginv
        else:
            p = np.conj(i_ginv) - i_g
        out.append(p - target)
    return out[0], out[1]


def residual_Gbal(k: int, st: GluingState, series: OmegaSeries) -> complex:
    """Neck flux of g_k omega against the common normalisation value."""
    cc = st.circle(k, "zero")
    W = omega_on_circle(st, series, k, "zero")
    flux = np.sum(cc.g * W * cc.dz)
    if k % 2 == 1:
        flux = np.conj(flux)
    return flux + 2j * np.pi * st.balance_value


def _block_residual(st, series, k):
    e = residual_E(k, st, series)
    p1, p2 = residual_P(k, st, series)
    g = residual_Gbal(k, st, series)
    return np.array([e, p1, p2, g])


@dataclass(frozen=True)
class ResidualVector:
    """Per-layer residual quadruples (E, P1, P2, Gbal)."""

    ks: tuple
    entries: np.ndarray  # shape (len(ks), 4), complex

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.entries)))

    @property
    def worst_k(self) -> int:
        """Layer whose row holds the largest entry."""
        return self.ks[int(np.argmax(np.max(np.abs(self.entries), axis=1)))]

    def flat(self) -> np.ndarray:
        out = np.empty(8 * len(self.ks))
        out[0::2] = self.entries.real.ravel()
        out[1::2] = self.entries.imag.ravel()
        return out


def full_residual(st: GluingState, series: OmegaSeries, ks=None) -> ResidualVector:
    if ks is None:
        ks = tuple(st.logical_range())
    rows = np.array([_block_residual(st, series, k) for k in ks])
    return ResidualVector(ks=tuple(ks), entries=rows)


# ---------------------------------------------------------------------------
# Newton continuation


def _get_block(st, j):
    T = st.tori[j]
    vals = (T.bhat, T.a, T.tau, T.v)
    out = np.empty(8)
    out[0::2] = [v.real for v in map(complex, vals)]
    out[1::2] = [v.imag for v in map(complex, vals)]
    return out


def _put_block(st, j, x):
    T = st.tori[j]
    T.bhat = complex(x[0], x[1])
    T.a = complex(x[2], x[3])
    T.tau = complex(x[4], x[5])
    T.v = complex(x[6], x[7])


def _set_block(st, j, x):
    _put_block(st, j, x)
    st.refresh(only=j)


def _fd_blocks(st, series, active, flat):
    """Forward-difference 8x8 Jacobian blocks of the active layers, with
    the series frozen; flat is the residual at the current parameters.

    The bhat and a columns come first and leave tau and v alone, so their
    refreshes and period paths reuse the state's jet slot.  The caches
    saved before the columns go back with the parameters afterwards,
    which needs no refresh.
    """
    blocks = np.empty((len(active), 8, 8))
    for i, k in enumerate(active):
        j = st.index_of(k)
        x0 = _get_block(st, j)
        saved = st._forms[j], st._circles[j]
        r0 = flat[8 * i : 8 * i + 8]
        for c in range(8):
            xp = x0.copy()
            xp[c] += FD_STEP
            _set_block(st, j, xp)
            rp = np.empty(8)
            blk = _block_residual(st, series, k)
            rp[0::2], rp[1::2] = blk.real, blk.imag
            blocks[i, :, c] = (rp - r0) / FD_STEP
        _put_block(st, j, x0)
        st._forms[j], st._circles[j] = saved
    return blocks


@dataclass(frozen=True)
class NewtonStep:
    """One continuation step; worst_k is the layer holding the largest
    entry of the last residual."""

    t: float
    iterations: int
    residuals: tuple
    converged: bool
    worst_k: int


@dataclass(frozen=True)
class SolveReport:
    steps: tuple
    state: GluingState = field(compare=False)
    series: OmegaSeries = field(compare=False)
    tail_reports: dict | None = None

    @property
    def t_schedule(self):
        return tuple(s.t for s in self.steps)

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.steps)

    @property
    def final_residual(self) -> float:
        return self.steps[-1].residuals[-1] if self.steps else 0.0


def _step_failure(what, st, res, history):
    return StepFailure(
        f"{what} at t={st.t:g}: residual {history[-1]:.3e}, worst at layer "
        f"k={res.worst_k}; try a smaller continuation step",
        k=res.worst_k, t=st.t, history=history)


def _solve_at_t(st, active, tol, itmax, callback=None):
    series = fix_omega(st)
    res = full_residual(st, series, active)
    history = [res.sup_norm]
    flat = res.flat()
    n_act = len(active)
    it = 0
    while history[-1] >= tol:
        if it >= itmax:
            raise _step_failure("Newton stalled", st, res, history)
        blocks = _fd_blocks(st, series, active, flat)
        dx = np.linalg.solve(blocks, -flat.reshape(n_act, 8, 1))[..., 0]
        base = [_get_block(st, st.index_of(k)) for k in active]
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            for i, k in enumerate(active):
                _set_block(st, st.index_of(k), base[i] + scale * dx[i])
            trial_series = fix_omega(st)
            trial = full_residual(st, trial_series, active)
            if trial.sup_norm < history[-1]:
                break
            scale *= 0.5
        else:
            for i, k in enumerate(active):
                _set_block(st, st.index_of(k), base[i])
            raise _step_failure("line search failed", st, res, history)
        series, res = trial_series, trial
        flat = res.flat()
        history.append(res.sup_norm)
        it += 1
        if callback is not None:
            callback({"t": st.t, "iteration": it, "residual": history[-1],
                      "step_scale": scale})
    st.drop_jets()
    return series, NewtonStep(t=st.t, iterations=it, residuals=tuple(history),
                              converged=history[-1] < tol, worst_k=res.worst_k)


def auto_schedule(t_target: float) -> list:
    if t_target <= 0:
        return []
    out = [float(t_target)]
    while out[0] > 0.0075:
        out.insert(0, out[0] / 2)
    return out


def _tail_config(cfg: Configuration, tail) -> Configuration:
    return Configuration(tau=cfg.tau, window=tuple(tail),
                         left_tail=tuple(tail), right_tail=tuple(tail))


def _stamp_tail(st, tail_states, active_halfwidth):
    """Clamp the buffer layers to the solved periodic tail parameters.

    Tail periods are even, so indexing the cyclic tail state by k modulo
    its length lands on the layer with matching reflection parity.
    """
    left, right = tail_states
    for k in st.logical_range():
        if -active_halfwidth <= k <= active_halfwidth:
            continue
        src = right if k > 0 else left
        T = src.tori[k % src.n_tori]
        j = st.index_of(k)
        mine = st.tori[j]
        mine.bhat, mine.a, mine.tau, mine.v = T.bhat, T.a, T.tau, T.v
        st.refresh(only=j)


def newton_continuation(cfg: Configuration, t_target: float, schedule=None,
                        K: int | None = None, tol: float = NEWTON_TOL,
                        itmax: int = MAX_NEWTON, callback=None,
                        force_window: bool = False,
                        epsilon: float | None = None) -> SolveReport:
    """Continue the closed-neck solution to t_target along a t-schedule.

    Periodic stacks are solved on one (even) period with cyclic coupling.
    A stack with a defect window first gets its tails solved periodically,
    then the window is solved with the tail layers clamped as boundary
    data; K is the half-width of the actively solved region.
    """
    if schedule is None:
        schedule = auto_schedule(t_target)
    schedule = [float(t) for t in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if schedule and abs(schedule[-1] - t_target) > 1e-15:
        raise ValueError("schedule must end at t_target")

    if cfg.is_periodic() and not force_window:
        st = GluingState.central(cfg, 0.0, epsilon=epsilon)
        active = tuple(st.logical_range())
        steps = []
        series = fix_omega(st)
        for t in schedule:
            st.t = t
            series, step = _solve_at_t(st, active, tol, itmax, callback)
            steps.append(step)
        return SolveReport(steps=tuple(steps), state=st, series=series)

    left_cfg = _tail_config(cfg, cfg.left_tail)
    right_cfg = _tail_config(cfg, cfg.right_tail)
    lst = GluingState.central(left_cfg, 0.0, epsilon=epsilon)
    rst = lst if cfg.left_tail == cfg.right_tail else \
        GluingState.central(right_cfg, 0.0, epsilon=epsilon)
    st = GluingState.central(cfg, 0.0, K=K, force_window=True, epsilon=epsilon)
    tail_steps = {"left": [], "right": []}
    active = tuple(k for k in st.logical_range()
                   if abs(k) <= st.k_hi - st.n_buffer)
    steps = []
    series = fix_omega(st)
    lser = rser = None
    for t in schedule:
        for name, tst in (("left", lst), ("right", rst)):
            if name == "right" and rst is lst:
                tail_steps[name] = tail_steps["left"]
                continue
            tst.t = t
            ser, stp = _solve_at_t(tst, tuple(tst.logical_range()), tol, itmax)
            tail_steps[name].append(stp)
            if name == "left":
                lser = ser
            else:
                rser = ser
        st.t = t
        _stamp_tail(st, (lst, rst), st.k_hi - st.n_buffer)
        series, step = _solve_at_t(st, active, tol, itmax, callback)
        steps.append(step)
    tails = {
        "left": SolveReport(steps=tuple(tail_steps["left"]), state=lst,
                            series=lser),
        "right": SolveReport(steps=tuple(tail_steps["right"]), state=rst,
                             series=rser if rst is not lst else lser),
    }
    return SolveReport(steps=tuple(steps), state=st, series=series,
                       tail_reports=tails)
