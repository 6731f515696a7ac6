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
    _joined,
    _point_sets,
    _set_runs,
    fix_omega,
    gauss_parts,
    glued_density,
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


def _circle_residuals(st, series, k, rows: LayerRows, at):
    """E and Gbal of layer k on the rows at of one (tau, v) set, one entry
    per row, from one glued-form evaluation per circle: E sums omega/dz
    over the zeros of g_k as minus the residues of W g'/g at the two poles
    (the cell boundary cancels by periodicity), Gbal is the neck flux of
    g_k omega against the common normalisation value."""
    sums = []
    for side in ("zero", "node"):
        cc = rows.circles[side]
        W = omega_on_circle(st, series, k, side, rows, at)
        sums.append(np.sum(W * cc.gp[at] / cc.g[at] * cc.dz, axis=-1))
        if side == "zero":
            fluxes = np.sum(cc.g[at] * W * cc.dz, axis=-1)
    # the scalar stages, row by row
    E = [-(0j + zero / (2j * np.pi) + node / (2j * np.pi)) for zero, node in zip(*sums)]
    Gbal = []
    for flux in fluxes:
        if k % 2 == 1:
            flux = np.conj(flux)
        Gbal.append(flux + 2j * np.pi * st.balance_value)
    return E, Gbal


def _by_layer(ks, rows):
    """The pairs on the rows of a set by layer, rows[i] listing those on
    row i: (k, positions, rows in the set, a slice when that is all)."""
    groups = {}
    for i, pairs in enumerate(rows):
        for p in pairs:
            pos, at = groups.setdefault(ks[p], ([], []))
            pos.append(p)
            at.append(i)
    return [(k, pos, slice(None) if at == list(range(len(rows))) else at)
            for k, (pos, at) in groups.items()]


def _period_residuals(st, series, tori, distinct, run, held, out, keep):
    """Period residuals P1, P2 of the horizontal displacement over both
    cycles into columns 1, 2 of out, for the pairs on the rows of a
    `_set_runs` run of the distinct rows, which held lists by chunk
    (`_run_chunks`) as (`_by_layer` groups, the set of each row, a
    `LayerRows` of form tables).  The paths from path_base(T) read form
    tables only: one jet call per path for the run (`_point_sets`) and
    one `gauss_parts` per chunk serve the node sums of W/g and t^2 g W of
    each layer on it, with its own lambda row; its parity enters in the
    scalar stage.  The paths read the jets the state holds, and with keep
    (stored rows) add those they evaluate (`_point_sets`)."""
    s = (np.arange(PATH_NODES) + 0.5) / PATH_NODES
    for col, along in ((1, lambda T: 1.0), (2, lambda T: T.tau)):
        jets = _point_sets(distinct, run, lambda T: path_base(T) + s * along(T),
                           st.n_max - 2, st._jets.get(f"P{col}"), keep)[1:]
        for groups, sel, lr in held:
            gv, *parts = gauss_parts(jets, lr, sel)
            near = np.min(np.abs(gv), axis=-1) < 1e-6
            for k, pos, at in groups:
                if np.any(near[at]):
                    raise ContourError(f"zero of g_{k} on a period path")
                W = glued_density(st, series.lam[st.index_of(k)],
                                  *(x[..., at, :] for x in parts))
                sums = np.sum(W / gv[at], axis=-1), np.sum(st.t * st.t * gv[at] * W, axis=-1)
                # the scalar stages, row by row
                for p, s_ginv, s_g in zip(pos, *sums):
                    dz = along(tori[p]) / PATH_NODES
                    i_ginv, i_g = s_ginv * dz, s_g * dz
                    val = np.conj(i_g) - i_ginv if k % 2 == 0 else np.conj(i_ginv) - i_g
                    out[p, col] = val - (2.0 * (-1) ** k, 2.0 * st.tau_ref)[col - 1]
            del gv, parts, W  # before the next chunk's parts
        del jets  # before the next path's kernel call


def _block_residual(st, series, ks, tori=None):
    """(E, P1, P2, Gbal) of each (layer, parameter row) pair (ks[p],
    tori[p]) for full_residual and the Jacobian; without tori each row is
    the layer's stored torus with its stored `LayerRows`.  Pairs with
    equal blocks share a distinct row, and the distinct rows go one
    `_set_runs` run at a time, so each (tau, v) is evaluated once and one
    run's jets are held.  The run's rows go in `_run_chunks`, stored sets
    joined (`_joined`) and moved rows built by one `_circle_sets` pass.  A
    chunk's circles give the E and Gbal of each layer on it and go; the
    paths read its form table.  Lambda rows and parities enter last, per
    layer.  Array stages are elementwise along rows or reduce along
    nodes, so each pair has the bits of its layer evaluated alone."""
    stored = tori is None
    tori = [st.torus(k) for k in ks] if stored else tori
    by_block = {}
    for p, T in enumerate(tori):
        by_block.setdefault(T.block().tobytes(), []).append(p)
    pairs_of = list(by_block.values())
    distinct = [tori[pairs[0]] for pairs in pairs_of]
    out = np.empty((len(ks), 4), dtype=complex)
    for run in _set_runs(distinct):
        us = [u for rows in run for u in rows]
        if stored:
            layers = [st._layers[st.index_of(ks[pairs_of[u][0]])] for u in us]
        held = []
        for pos, sel, rows in (_joined(layers, run) if stored
                               else _circle_sets(st, [distinct[u] for u in us])):
            groups = _by_layer(ks, [pairs_of[us[i]] for i in pos])
            for k, p, at in groups:
                out[p, 0], out[p, 3] = _circle_residuals(st, series, k, rows, at)
            held.append((groups, sel, LayerRows(rows.tori, rows.forms, None)))
            del rows  # its circles, before the next chunk
        _period_residuals(st, series, tori, distinct, run, held, out, stored)
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
        return self.entries.view(float).ravel()  # (re, im) interleaved, as in _fd_blocks


def _layer_key(st, series, k) -> tuple:
    """Everything the residual row and the Jacobian block of layer k read:
    the bytes of its parameter block, its lambda row, its parity and the
    state constants t, epsilon, tau_ref and balance_value (on twin-rPD,
    the left tail's is -4.4e-16i and the window's +4.4e-16i)."""
    j = st.index_of(k)
    consts = np.array([st.t, st.epsilon, st.tau_ref, st.balance_value], dtype=complex)
    return (st.tori[j].block().tobytes(), series.lam[j].tobytes(), k % 2,
            consts.tobytes())


def _memoized(st, series, ks, memo: dict | None, kind: str, evaluate) -> list:
    """The entries of memo under (kind,) + `_layer_key` of each layer of
    ks, in order.  The keys not in memo are filled first, by one call
    evaluate(positions) over one position in ks per new key."""
    memo = {} if memo is None else memo
    keys = [(kind,) + _layer_key(st, series, k) for k in ks]
    todo = {key: i for i, key in enumerate(keys) if key not in memo}
    if todo:
        memo.update(zip(todo, evaluate(todo.values())))
    return [memo[key] for key in keys]


def full_residual(st: GluingState, series: OmegaSeries, ks=None,
                  memo: dict | None = None) -> ResidualVector:
    """Residual rows of the layers ks (every stored layer by default).
    Layers with equal `_layer_key` have equal rows, so each distinct key
    is evaluated once and its row copied to the others: within this call,
    or, with a memo shared by several calls, across all of them (one t of
    `_continue_stacks`, over its states and Newton iterations).  The new
    keys take one `_block_residual` pass."""
    if ks is None:
        ks = tuple(st.logical_range())
    rows = _memoized(st, series, ks, memo, "row",
                     lambda new: _block_residual(st, series, [ks[i] for i in new]))
    return ResidualVector(ks=tuple(ks), entries=np.array(rows, dtype=complex).reshape(-1, 4))


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

    The eight moved parameter sets of each layer are its eight pairs in
    one `_block_residual` pass over all layers, which never touches the
    state.  The four bhat and a rows keep the layer's tau and v, and each
    tau and v row has a (tau, v) of its own, so a layer has five sets in
    two `_set_runs` runs, its own with the two tau rows, then the two v
    rows: on each point set (node circle, zero circle, the two period
    paths) two jet calls for one layer, and the runs of many layers go
    three sets to a call.  Array stages are elementwise or reduce along
    the node axis and scalar stages run row by row, so each column has
    the bits of a refresh and a block residual at its own parameters.
    When the state holds jets (`GluingState.holding_jets`, within
    `_solve_at_t`), the layer's own set reads the circles of its refresh
    and the paths of its last residual pass where they were evaluated, so
    only the four moved sets reach the kernel; the moved rows add
    nothing to what is held.

    A layer whose `_layer_key` an earlier layer has takes that layer's
    block: its rows and its residual slice of flat are the same bits, so
    each distinct key is differenced once, within this call or, with a
    memo shared as in `full_residual`, across every call that shares it.
    """
    def blocks(new):
        # row c moves entry c alone, so the other entries keep their bits
        moved = [TorusData.from_block(xp) for i in new for x0 in [st.torus(active[i]).block()]
                 for xp in np.where(np.eye(8, dtype=bool), x0 + FD_STEP, x0)]
        ks = [active[i] for i in new for _ in range(8)]
        # (re, im) of each row's four entries, as in flat
        rp = _block_residual(st, series, ks, moved).view(float).reshape(len(new), 8, 8)
        r0 = np.array([flat[8 * i : 8 * i + 8] for i in new])[:, None]
        return ((rp - r0) / FD_STEP).transpose(0, 2, 1)

    return np.array(_memoized(st, series, active, memo, "fd", blocks)).reshape(-1, 8, 8)


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
    across its iterations and with every state that shares memo at t.
    While it runs the state holds the jets at its stored (tau, v)
    (`GluingState.holding_jets`), so a Jacobian reads the circles and
    paths of each layer's own set from its refresh and residual."""
    with st.holding_jets():
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
    every state, window or tail (`full_residual`, `_fd_blocks`), and each
    residual, Jacobian or refresh call evaluates the jets of each distinct
    (tau, v) of its layers once.

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
    layer caches (`GluingState.refresh`), which the states it returns
    keep.  Reports that read a tail share its report; the callback sees
    the steps of the states of cfgs only, at each t in the order of cfgs.
    With an empty schedule each series is the glued form at the state's
    own t.
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
    reports = [SolveReport(steps=tuple(done), state=st, series=ser)
               for done, (st, _, _), ser in zip(steps, runs, series)]
    by_tail = dict(zip(tails, reports))
    return [replace(rep, tail_reports={"left": by_tail[cfg.tau, cfg.left_tail],
                                       "right": by_tail[cfg.tau, cfg.right_tail]})
            if read else rep for cfg, read, rep in zip(cfgs, reads, reports[len(tails):])]
