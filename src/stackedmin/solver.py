"""Newton continuation for the opened-node parameter system.

Each layer k carries four complex unknowns (bhat_k, a_k, tau_k, v_k) and
four complex equations: the regularity sum over the zeros of the layer
Gauss component, two period residuals, and the balance normalisation of
the neck flux.  The closed necks (t = 0) solve the system exactly at the
central values, and solutions at t > 0 are continued from there.
"""

import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .configs import Configuration, UnbalancedConfigError, balance_report, periodic_stack
from .opening import (
    GluingState,
    LayerRows,
    OmegaSeries,
    TorusData,
    _circle_sets,
    _point_sets,
    fix_omega,
    gauss_and_omega_from_jets,
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


class ScheduleError(ValueError):
    """A continuation target or t-schedule that cannot be followed."""


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


def _circle_residuals(st, series, k, rows: LayerRows):
    """E and Gbal of layer k on one (tau, v) set, one entry per row, from
    one glued-form evaluation per circle: E sums omega/dz over the zeros
    of g_k as minus the residues of W g'/g at the two poles (the cell
    boundary cancels by periodicity), Gbal is the neck flux of g_k omega
    against the common normalisation value."""
    sums = []
    for side in ("zero", "node"):
        cc = rows.circles[side]
        W = omega_on_circle(st, series, k, side, rows)
        sums.append(np.sum(W * cc.gp / cc.g * cc.dz, axis=-1))
        if side == "zero":
            fluxes = np.sum(cc.g * W * cc.dz, axis=-1)
    # the scalar stages, row by row
    E = [-(0j + zero / (2j * np.pi) + node / (2j * np.pi)) for zero, node in zip(*sums)]
    Gbal = []
    for flux in fluxes:
        if k % 2 == 1:
            flux = np.conj(flux)
        Gbal.append(flux + 2j * np.pi * st.balance_value)
    return E, Gbal


def _period_residuals(st, series, k, tori, sets: list):
    """Period residuals P1, P2 of the horizontal displacement over both
    cycles, one column per row of tori.  sets holds the `LayerRows` of
    each (tau, v) set in the order of `_point_sets`; the paths read their
    form tables only.  The node sums of W/g and t^2 g W on the path from
    path_base(T) along each cycle are reduced set by set, and the sets of
    one tau share their jet call."""
    j = st.index_of(k)
    s = (np.arange(PATH_NODES) + 0.5) / PATH_NODES
    out = np.empty((2, len(tori)), dtype=complex)
    for i, (along, target) in enumerate(((lambda T: 1.0, 2.0 * (-1) ** k),
                                         (lambda T: T.tau, 2.0 * st.tau_ref))):
        sums = np.empty((2, len(tori)), dtype=complex)
        points = _point_sets(tori, lambda T: path_base(T) + s * along(T), st.n_max - 2)
        for (idx, _, jets), rows in zip(points, sets):
            gv, W = gauss_and_omega_from_jets(st, series, j, jets, rows)
            if np.min(np.abs(gv)) < 1e-6:
                raise ContourError(f"zero of g_{k} on a period path")
            sums[0, idx] = np.sum(W / gv, axis=-1)
            sums[1, idx] = np.sum(st.t * st.t * gv * W, axis=-1)
        # the scalar stages, row by row
        for r, (s_ginv, s_g, T) in enumerate(zip(*sums, tori)):
            dz = along(T) / PATH_NODES
            i_ginv, i_g = s_ginv * dz, s_g * dz
            if k % 2 == 0:
                p = np.conj(i_g) - i_ginv
            else:
                p = np.conj(i_ginv) - i_g
            out[i, r] = p - target
    return out


def _block_residual(st, series, k, tori=None):
    """(E, P1, P2, Gbal) of layer k, one row per parameter row in tori or,
    without tori, the one row of the state's parameters; full_residual and
    the Jacobian share it.  It works set by set: the state's layer is its
    stored `LayerRows`, and the rows of tori that share a (tau, v) are one
    set of `_circle_sets`.  Each set's circles give its E and Gbal and are
    then dropped; the period paths read only its form table."""
    if tori is None:
        j = st.index_of(k)
        tori, sets = [st.tori[j]], [([0], st._layers[j])]
    else:
        sets = _circle_sets(st, tori)
    out = np.empty((len(tori), 4), dtype=complex)
    paths = []
    for idx, rows in sets:
        out[idx, 0], out[idx, 3] = _circle_residuals(st, series, k, rows)
        paths.append(LayerRows(rows.tori, rows.forms, None))
    out[:, 1:3] = _period_residuals(st, series, k, tori, paths).T
    return out


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


def _layer_key(st, series, k) -> tuple:
    """Everything the residual row and the Jacobian block of layer k read:
    the bytes of its parameter block, its lambda row, its parity and the
    state constants t, epsilon, tau_ref and balance_value (on twin-rPD,
    the left tail's is -4.4e-16i and the window's +4.4e-16i)."""
    j = st.index_of(k)
    consts = np.array([st.t, st.epsilon, st.tau_ref, st.balance_value], dtype=complex)
    return (st.tori[j].block().tobytes(), series.lam[j].tobytes(), k % 2,
            consts.tobytes())


def full_residual(st: GluingState, series: OmegaSeries, ks=None,
                  memo: dict | None = None) -> ResidualVector:
    """Residual rows of the layers ks (every stored layer by default).
    Layers with equal `_layer_key` have equal rows, so each distinct key
    is evaluated once and its row copied to the others: within this call,
    or, with a memo shared by several calls, across all of them (one t of
    `_continue_stacks`, over its states and Newton iterations)."""
    if ks is None:
        ks = tuple(st.logical_range())
    memo = {} if memo is None else memo
    rows = np.empty((len(ks), 4), dtype=complex)
    for i, k in enumerate(ks):
        key = ("row",) + _layer_key(st, series, k)
        if key not in memo:
            memo[key] = _block_residual(st, series, k)[0]
        rows[i] = memo[key]
    return ResidualVector(ks=tuple(ks), entries=rows)


# ---------------------------------------------------------------------------
# Newton continuation


def _set_blocks(st, blocks: dict):
    """Put the torus of parameter block x at stored index j for each
    {j: x} of blocks, then refresh those indices; equal blocks share one
    cache build (`GluingState.refresh`)."""
    for j, x in blocks.items():
        st.tori[j] = TorusData.from_block(x)
    st.refresh(list(blocks))


def _fd_blocks(st, series, active, flat, memo: dict | None = None):
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

    A layer whose `_layer_key` an earlier layer has takes that layer's
    block: its rows and its residual slice of flat are the same bits, so
    each distinct key is differenced once, within this call or, with a
    memo shared as in `full_residual`, across every call that shares it.
    """
    memo = {} if memo is None else memo
    blocks = np.empty((len(active), 8, 8))
    for i, k in enumerate(active):
        key = ("fd",) + _layer_key(st, series, k)
        if key in memo:
            blocks[i] = memo[key]
            continue
        x0 = st.torus(k).block()
        moved = []
        for c in range(8):
            xp = x0.copy()
            xp[c] += FD_STEP
            moved.append(TorusData.from_block(xp))
        res = _block_residual(st, series, k, moved)
        rp = np.empty((8, 8))
        rp[:, 0::2], rp[:, 1::2] = res.real, res.imag
        blocks[i] = memo[key] = ((rp - flat[8 * i : 8 * i + 8]) / FD_STEP).T
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


def _solve_at_t(st, active, callback, memo: dict):
    """Newton on the active layers at the state's t.  Its first residual,
    line-search trials and Jacobians read and fill memo by `_layer_key`,
    across its iterations and with every state that shares memo at t."""
    series = fix_omega(st)
    res = full_residual(st, series, active, memo)
    history = [res.sup_norm]
    flat = res.flat()
    n_act = len(active)
    it = 0
    while history[-1] >= NEWTON_TOL:
        if it >= MAX_NEWTON:
            raise _step_failure("Newton stalled", st, res, history)
        blocks = _fd_blocks(st, series, active, flat, memo)
        dx = np.linalg.solve(blocks, -flat.reshape(n_act, 8, 1))[..., 0]
        base = [st.torus(k).block() for k in active]
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            _set_blocks(st, {st.index_of(k): base[i] + scale * dx[i]
                             for i, k in enumerate(active)})
            trial_series = fix_omega(st)
            trial = full_residual(st, trial_series, active, memo)
            if trial.sup_norm < history[-1]:
                break
            scale *= 0.5
        else:
            _set_blocks(st, {st.index_of(k): base[i] for i, k in enumerate(active)})
            raise _step_failure("line search failed", st, res, history)
        series, res = trial_series, trial
        flat = res.flat()
        history.append(res.sup_norm)
        it += 1
        if callback is not None:
            callback({"t": st.t, "iteration": it, "residual": history[-1],
                      "step_scale": scale})
    return series, NewtonStep(t=st.t, iterations=it, residuals=tuple(history),
                              converged=history[-1] < NEWTON_TOL, worst_k=res.worst_k)


def _finite_t(t: float, what: str = "t_target") -> float:
    if not 0.0 <= t < np.inf:
        raise ScheduleError(f"{what} must be finite and nonnegative, got {t}")
    return float(t)


def auto_schedule(t_target: float) -> list:
    """Halvings of t_target up to it, from the first at or below 0.0075;
    ScheduleError unless t_target is finite and nonnegative."""
    out = [_finite_t(t_target)]
    while out[0] > 0.0075:
        out.insert(0, out[0] / 2)
    return out if t_target > 0 else []


def _tail_configs(cfg: Configuration) -> dict:
    """The periodic stack of each distinct tail pattern, keyed by it."""
    return {tail: periodic_stack(cfg.tau, tail) for tail in (cfg.left_tail, cfg.right_tail)}


def newton_continuation(cfg: Configuration, t_target: float, schedule=None,
                        K: int | None = None, callback=None,
                        epsilon: float | None = None) -> SolveReport:
    """Continue the closed-neck solution to t_target along a t-schedule,
    each step by Newton to a residual below NEWTON_TOL.

    A periodic stack without K is solved on one (even) period with cyclic
    coupling.  Otherwise the stack is solved on a window of half-width K
    (`central_layout`): each tail pattern a buffer layer reads is
    continued alongside as a cyclic stack of its own, and at each t the
    buffer layers are clamped to its parameters at that t before Newton
    moves the layers |k| <= K.  tail_reports then maps "left" and "right"
    to the tail solves, one shared report when the patterns agree; it is
    None when no layer is clamped, as in a cyclic state.  At each t,
    layers with equal parameters, lambda rows, parity and state constants
    (`_layer_key`) are evaluated once across every Newton iteration and
    every state, window or tail (`full_residual`, `_fd_blocks`).

    Raises UnbalancedConfigError when the forces of cfg do not vanish,
    ScheduleError unless t_target and the schedule are finite and
    nonnegative and the schedule rises strictly to t_target (only
    t_target = 0 may take no step), and ChartError when a given epsilon
    leaves the neck charts overlapping; all before any solve.
    """
    return _continue_stacks([cfg], t_target, schedule, K, callback, epsilon)[0]


def _continue_stacks(cfgs, t_target: float, schedule=None, K: int | None = None,
                     callback=None, epsilon: float | None = None) -> list:
    """`newton_continuation` of each configuration of cfgs, in order, with
    the same schedule, K and epsilon; one SolveReport per configuration.

    Every entry check runs on every configuration, and every state is
    built, before the first solve: the state of each configuration and
    one cyclic state per tail pattern on a lattice that a buffer layer
    reads.  One loop then walks the schedule.  At each t every tail state
    takes its Newton step; then each window, in order, clamps its buffer
    layers to the live tail state's tori they fold into and takes its
    step.  All states share one memo of residual rows and Jacobian blocks
    by `_layer_key` at each t, dropped at the next, and one weak map of
    layer caches (`GluingState.refresh`) for the whole solve, detached
    from the states it returns.  Reports that read a
    tail share its report; the callback sees the steps of the states of
    cfgs only, at each t in the order of cfgs.  With an empty schedule
    each series is the glued form at the state's own t.
    """
    for cfg in cfgs:
        bal = balance_report(cfg)
        if not bal.balanced:
            raise UnbalancedConfigError(max(bal.forces, key=lambda k: abs(bal.forces[k])),
                                        bal.max_force)
    _finite_t(t_target)
    if schedule is None:
        schedule = auto_schedule(t_target)
    schedule = [_finite_t(t, "schedule entry") for t in schedule]
    if not schedule and t_target > 0:
        raise ScheduleError(f"empty schedule for t_target = {t_target} > 0")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ScheduleError("schedule must be strictly increasing")
    if schedule and abs(schedule[-1] - t_target) > 1e-15:
        raise ScheduleError("schedule must end at t_target")

    # every refresh of this solve, in any state, looks up equal blocks here
    shared = weakref.WeakValueDictionary()
    states = [GluingState.central(cfg, 0.0, K=K, epsilon=epsilon, shared_rows=shared)
              for cfg in cfgs]
    # the tail pattern of each buffer layer; a window has both at its ends
    reads = [{k: (cfg.tau, cfg.right_tail if k > 0 else cfg.left_tail)
              for k in st.logical_range() if k not in st.active_range()}
             for cfg, st in zip(cfgs, states)]
    stacks = {(cfg.tau, tail): c for cfg, read in zip(cfgs, reads) if read
              for tail, c in _tail_configs(cfg).items()}
    tails = {key: GluingState.central(c, 0.0, epsilon=epsilon, shared_rows=shared)
             for key, c in stacks.items()}
    # tails first: at each t the windows' buffer layers read their step at t
    runs = [(st, {}, None) for st in tails.values()]
    runs += [(st, read, callback) for st, read in zip(states, reads)]
    steps = [[] for _ in runs]
    series = [None if schedule else fix_omega(st) for st, _, _ in runs]
    for t in schedule:
        memo = {}
        for i, (st, read, cb) in enumerate(runs):
            st.t = t
            # a tail state is one even period, so its fold of k keeps parity
            _set_blocks(st, {st.index_of(k): tails[key].torus(k).block()
                             for k, key in read.items()})
            series[i], step = _solve_at_t(st, tuple(st.active_range()), cb, memo)
            steps[i].append(step)
    for st, _, _ in runs:  # the returned states refresh on their own
        st.shared_rows = None
    reports = [SolveReport(steps=tuple(done), state=st, series=ser)
               for done, (st, _, _), ser in zip(steps, runs, series)]
    by_tail = dict(zip(tails, reports))
    return [replace(rep, tail_reports={"left": by_tail[cfg.tau, cfg.left_tail],
                                       "right": by_tail[cfg.tau, cfg.right_tail]})
            if read else rep for cfg, read, rep in zip(cfgs, reads, reports[len(tails):])]
