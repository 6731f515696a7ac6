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
    FormTable,
    GluingState,
    LayerRows,
    OmegaSeries,
    TorusData,
    _circle_sets,
    _layer_view,
    _point_sets,
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


def residual_E(k: int, st: GluingState, series: OmegaSeries,
               rows: LayerRows | None = None) -> complex:
    """Sum of omega/dz over the zeros of g_k, as minus the residues of
    W g'/g at the two poles (the cell-boundary part cancels by periodicity).
    With parameter rows of layer k (`LayerRows`), one sum per row."""
    lr = _layer_view(st, st.index_of(k), rows)
    sums = []
    for side in ("zero", "node"):
        cc = lr.circles[side]
        W = omega_on_circle(st, series, k, side, rows)
        sums.append(np.atleast_1d(np.sum(W * cc.gp / cc.g * cc.dz, axis=-1)))
    # the scalar stages, row by row
    return lr.per_row([-(0j + zero / (2j * np.pi) + node / (2j * np.pi))
                       for zero, node in zip(*sums)])


def _path_sums(st, series, k, along, rows=None):
    """Node sums of W/g and t^2 g W on the period path from path_base(T)
    along(T) on layer k, one column per row with rows of layer k.  The
    rows of one (tau, v) share their points and jets, and each such set
    is reduced before the next (`_point_sets`)."""
    j = st.index_of(k)
    lr = _layer_view(st, j, rows)
    s = (np.arange(PATH_NODES) + 0.5) / PATH_NODES
    out = np.empty((2, len(lr.row_tori)), dtype=complex)
    for idx, _, jets in _point_sets(lr.tori, lambda T: path_base(T) + s * along(T),
                                    omega_jmax(st, series, j)):
        gv, W = gauss_and_omega_from_jets(st, series, j, jets, lr.take(idx))
        if np.min(np.abs(gv)) < 1e-6:
            raise ContourError(f"zero of g_{k} on a period path")
        out[0, idx] = np.sum(W / gv, axis=-1)
        out[1, idx] = np.sum(st.t * st.t * gv * W, axis=-1)
    return out


def residual_P(k: int, st: GluingState, series: OmegaSeries,
               rows: LayerRows | None = None):
    """Period residuals of the horizontal displacement over both cycles,
    one array entry per row with rows of layer k."""
    lr = _layer_view(st, st.index_of(k), rows)
    out = []
    for along, target in ((lambda T: 1.0, 2.0 * (-1) ** k),
                          (lambda T: T.tau, 2.0 * st.tau_ref)):
        ps = []
        for s_ginv, s_g, T in zip(*_path_sums(st, series, k, along, rows),
                                  lr.row_tori):
            dz = along(T) / PATH_NODES
            i_ginv, i_g = s_ginv * dz, s_g * dz
            if k % 2 == 0:
                p = np.conj(i_g) - i_ginv
            else:
                p = np.conj(i_ginv) - i_g
            ps.append(p - target)
        out.append(lr.per_row(ps))
    return out[0], out[1]


def residual_Gbal(k: int, st: GluingState, series: OmegaSeries,
                  rows: LayerRows | None = None) -> complex:
    """Neck flux of g_k omega against the common normalisation value,
    one array entry per row with rows of layer k."""
    lr = _layer_view(st, st.index_of(k), rows)
    cc = lr.circles["zero"]
    W = omega_on_circle(st, series, k, "zero", rows)
    out = []
    for flux in np.atleast_1d(np.sum(cc.g * W * cc.dz, axis=-1)):
        if k % 2 == 1:
            flux = np.conj(flux)
        out.append(flux + 2j * np.pi * st.balance_value)
    return lr.per_row(out)


def _block_residual(st, series, k, tori=None):
    """(E, P1, P2, Gbal) of layer k from the state's caches, or one such
    row for each parameter row in tori; full_residual and the Jacobian
    share this one evaluator.  The rows that share a (tau, v) take their
    circles together (`_circle_sets`) and reduce them to E and Gbal
    before the next set; the period paths then need the form tables only.
    """
    if tori is None:
        return np.array([residual_E(k, st, series), *residual_P(k, st, series),
                         residual_Gbal(k, st, series)])
    out = np.empty((len(tori), 4), dtype=complex)
    tables = []
    for idx, rows in _circle_sets(st, tori):
        out[idx, 0] = residual_E(k, st, series, rows)
        out[idx, 3] = residual_Gbal(k, st, series, rows)
        tables.append((idx, rows.forms))
    paths = LayerRows(tori, _row_table(tables, len(tori)), None)
    out[:, 1], out[:, 2] = residual_P(k, st, series, paths)
    return out


def _row_table(tables: list, n: int) -> FormTable:
    """The form table of n parameter rows from (rows, table) pieces."""
    out = [np.empty(a.shape[:-1] + (n,), dtype=complex)
           for a in (tables[0][1].coeffs, tables[0][1].eta, tables[0][1].mu)]
    for idx, f in tables:
        for whole, part in zip(out, (f.coeffs, f.eta, f.mu)):
            whole[..., idx] = part
    return FormTable(*out)


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


def _torus(x) -> TorusData:
    return TorusData(bhat=complex(x[0], x[1]), a=complex(x[2], x[3]),
                     tau=complex(x[4], x[5]), v=complex(x[6], x[7]))


def _put_block(st, j, x):
    T, new = st.tori[j], _torus(x)
    T.bhat, T.a, T.tau, T.v = new.bhat, new.a, new.tau, new.v


def _set_block(st, j, x):
    _put_block(st, j, x)
    st.refresh(only=j)


def _fd_blocks(st, series, active, flat):
    """Forward-difference 8x8 Jacobian blocks of the active layers, with
    the series frozen; flat is the residual at the current parameters.

    The eight moved parameter sets of a layer are the eight rows of one
    `_block_residual`, which never touches the state.  The four bhat and
    a rows keep the layer's tau and v, so on each point set (node circle,
    zero circle, the two period paths) one jet call serves them together
    with the two v rows, and each tau row takes one more: twelve calls
    per layer.  Array stages are elementwise or reduce along the node
    axis and scalar stages run row by row, so each column has the bits of
    a refresh and a block residual at its own parameters.
    """
    blocks = np.empty((len(active), 8, 8))
    for i, k in enumerate(active):
        x0 = _get_block(st, st.index_of(k))
        moved = []
        for c in range(8):
            xp = x0.copy()
            xp[c] += FD_STEP
            moved.append(_torus(xp))
        res = _block_residual(st, series, k, moved)
        rp = np.empty((8, 8))
        rp[:, 0::2], rp[:, 1::2] = res.real, res.imag
        blocks[i] = ((rp - flat[8 * i : 8 * i + 8]) / FD_STEP).T
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
