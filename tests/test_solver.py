"""Newton continuation on the opened-node parameter system."""

import signal
from dataclasses import replace

import numpy as np
import numpy.polynomial.legendre as leg
import pytest

import oracles
from oracles import _cell_corner, omega_eval, zeros_symmetric
from stackedmin import configs, elliptic, opening, solver
from stackedmin.configs import CATALOG_NAMES, catalog
from stackedmin.elliptic import lattice_for
from stackedmin.hecke import hecke_jacobian
from stackedmin.immersion import _cell_rep
from stackedmin.asymptotics import upper_reference
from stackedmin.opening import (
    ChartError,
    GluingState,
    NonContractionError,
    _chart_radius,
    central_layout,
    fix_omega,
    mirror_conj,
    omega_jmax,
    omega_on_circle,
)
from stackedmin.solver import (
    FD_STEP,
    NEWTON_TOL,
    StepFailure,
    _block_residual,
    _fd_blocks,
    _set_blocks,
    auto_schedule,
    full_residual,
    newton_continuation,
)


def central(name="rPD", t=0.0):
    return GluingState.central(catalog(name, K=1), t)


@pytest.fixture(scope="module")
def rpd_solved():
    return newton_continuation(catalog("rPD", K=1), 0.01, schedule=[0.005, 0.01])


# ---------------------------------------------------------------------------
# residuals at closed necks


@pytest.mark.parametrize("name", ["rPD", "H"])
def test_central_residual_vanishes(name):
    st = central(name)
    series = fix_omega(st)
    assert full_residual(st, series).sup_norm < 1e-9


def test_regularity_closed_form():
    st = central()
    st.tori[0] = replace(st.tori[0], bhat=0.03 - 0.015j, a=-0.48 + 0.01j)
    st.tori[1] = replace(st.tori[1], bhat=-0.01 + 0.02j)
    st.refresh()
    series = fix_omega(st)
    for k in (0, 1):
        T = st.torus(k)
        err = abs(full_residual(st, series, (k,)).entries[0, 0] - (-2.0 * T.bhat / T.a))
        assert err < 1e-9


def test_period_closed_forms():
    st = central()
    st.tori[0] = replace(st.tori[0], a=-0.45 + 0.02j)
    st.tori[1] = replace(st.tori[1], a=-0.52 - 0.03j)
    st.refresh()
    series = fix_omega(st)
    r1, r2 = full_residual(st, series, (0,)).entries[0, 1:3]
    T0 = st.torus(0)
    assert abs((r1 + 2.0) - (-1.0 / T0.a)) < 1e-9
    assert abs((r2 + 2.0 * st.tau_ref) - (-T0.tau / T0.a)) < 1e-9
    r1, r2 = full_residual(st, series, (1,)).entries[0, 1:3]
    T1 = st.torus(1)
    assert abs((r1 - 2.0) - np.conj(1.0 / T1.a)) < 1e-9
    assert abs((r2 + 2.0 * st.tau_ref) - np.conj(T1.tau / T1.a)) < 1e-9


@pytest.mark.parametrize("k", [0, 1])
def test_balance_linearization(k):
    # moving one node perturbs the balance residual through the gradient
    # of the balance function, composed with the layer reflection
    st = central()
    delta = 1e-5 * (1 + 0.7j)
    st.tori[k] = replace(st.tori[k], v=st.tori[k].v + delta)
    st.refresh([k])
    series = fix_omega(st)
    r = full_residual(st, series, (k,)).entries[0, 3]
    J = hecke_jacobian(catalog("rPD").q(k), lattice_for(st.tau_ref))
    dm = mirror_conj(delta, k)
    pred = -2j * np.pi * complex(*(J.m @ [dm.real, dm.imag]))
    assert abs(r - pred) < 1e-6


# ---------------------------------------------------------------------------
# zeros of the Gauss component


def _tracked_roots(T, z0):
    xs = np.linspace(0.08, 0.92, 6)
    seeds = [z0 + x + y * T.tau for x in xs for y in xs]
    basis = np.array([[1.0, T.tau.real], [0.0, T.tau.imag]])
    uniq = {}
    for r in oracles.newton_roots_of(T.g, lambda z: oracles.gp(T, z), seeds):
        c = r - z0
        al, be = np.linalg.solve(basis, [c.real, c.imag])
        uniq[(round(al % 1.0, 6), round(be % 1.0, 6))] = (al % 1.0, be % 1.0)
    return [z0 + al + be * T.tau for al, be in uniq.values()]


def test_zeros_match_tracked_roots():
    st = central(t=0.012)
    st.tori[0] = replace(st.tori[0], bhat=0.05 - 0.02j)
    st.refresh([0])
    s1, s2 = zeros_symmetric(0, st)
    T = st.torus(0)
    roots = _tracked_roots(T, _cell_corner(T))
    assert len(roots) == 2
    assert abs(s1 - sum(roots)) < 1e-9
    assert abs(s2 - roots[0] * roots[1]) < 1e-9
    pair = np.roots([1.0, -s1, s2])
    mis = min(
        abs(pair[0] - roots[0]) + abs(pair[1] - roots[1]),
        abs(pair[0] - roots[1]) + abs(pair[1] - roots[0]),
    )
    assert mis < 1e-8


def test_regularity_sums_omega_over_zeros():
    st = central(t=0.012)
    st.tori[0] = replace(st.tori[0], bhat=0.05 - 0.02j)
    st.refresh([0])
    series = fix_omega(st)
    T = st.torus(0)
    roots = _tracked_roots(T, _cell_corner(T))
    vals = omega_eval(st, series, 0, np.array(roots))
    assert abs(full_residual(st, series, (0,)).entries[0, 0] - vals.sum()) < 1e-9


def _rational_kernel_E(st, series, k, s1, s2, nodes=96):
    # second route: the symmetric-function kernel (2z-s1)/(z^2-s1 z+s2)
    # integrated over the cell boundary minus the neck disks; the kernel
    # is not periodic, so each neck circle is shifted to its in-cell copy
    T = st.torus(k)
    z0 = _cell_corner(T)
    x, w = leg.leggauss(nodes)
    s = 0.5 * (x + 1.0)
    w = 0.5 * w
    tot = 0j
    for base, vec, sign in (
        (z0, 1.0, 1.0),
        (z0 + 1, T.tau, 1.0),
        (z0 + T.tau, 1.0, -1.0),
        (z0, T.tau, -1.0),
    ):
        z = base + s * vec
        W = omega_eval(st, series, k, z)
        ker = (2 * z - s1) / (z * z - s1 * z + s2)
        tot += np.sum(w * ker * W) * (sign * vec)
    for side in ("zero", "node"):
        cc = st.circle(k, side)
        lam = _cell_rep(cc.center, z0, T.tau) - cc.center
        W = omega_on_circle(st, series, k, side)
        z = cc.z + lam
        ker = (2 * z - s1) / (z * z - s1 * z + s2)
        tot -= np.sum(ker * W * cc.dz)
    return tot / (2j * np.pi)


def test_regularity_rational_kernel_route():
    st = central(t=0.012)
    st.tori[0] = replace(st.tori[0], bhat=0.05 - 0.02j)
    st.refresh([0])
    series = fix_omega(st)
    s1, s2 = zeros_symmetric(0, st)
    other = _rational_kernel_E(st, series, 0, s1, s2)
    assert abs(full_residual(st, series, (0,)).entries[0, 0] - other) < 1e-7


# ---------------------------------------------------------------------------
# Jacobian structure at closed necks


def _lin2(c):
    # real 2x2 of delta -> c*delta
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def _anti2(c):
    # real 2x2 of delta -> c*conj(delta)
    return np.array([[c.real, c.imag], [c.imag, -c.real]])


def _fd_block(st, series, k, h=1e-6):
    j = st.index_of(k)
    x0 = st.tori[j].block()
    out = np.empty((8, 8))
    for c in range(8):
        xp = x0.copy()
        xp[c] += h
        _set_blocks(st, {j: xp})
        bp = _block_residual(st, series, k)[0]
        xm = x0.copy()
        xm[c] -= h
        _set_blocks(st, {j: xm})
        bm = _block_residual(st, series, k)[0]
        col = np.empty(8)
        col[0::2] = (bp.real - bm.real) / (2 * h)
        col[1::2] = (bp.imag - bm.imag) / (2 * h)
        out[:, c] = col
    _set_blocks(st, {j: x0})
    return out


def _perturbed_layer(name, K, k, t=0.01):
    """State at t with layer k moved off the central data in every
    parameter, its series, and the residual of layer k."""
    st = GluingState.central(catalog(name, K=2), t, K=K)
    j = st.index_of(k)
    T = st.tori[j]
    st.tori[j] = replace(T, a=T.a + (0.013 - 0.007j), bhat=T.bhat + (0.004 + 0.002j),
                         tau=T.tau + (0.003 + 0.001j), v=T.v + (0.002 - 0.003j))
    st.refresh([j])
    series = fix_omega(st)
    return st, series, full_residual(st, series, (k,)).flat()


@pytest.mark.parametrize("name, K, k, t", [
    pytest.param("oPa", None, 1, 0.01, id="oPa-None-1"),
    pytest.param("twin-rPD", 3, 0, 0.01, id="twin-rPD-3-0"),
    # closed necks: every lambda row is zero, so the paths take zeta alone
    pytest.param("rPD", None, 0, 0.0, id="rPD-None-0-closed"),
])
def test_fd_blocks_match_plain_loop(name, K, k, t):
    """Jacobian blocks from the row batch equal the loop that moves the
    layer, refreshes and evaluates one column at a time and refreshes to
    restore, bit for bit, and leave the same caches behind."""
    st, series, flat = _perturbed_layer(name, K, k, t)
    ref_st, ref_series, ref_flat = _perturbed_layer(name, K, k, t)
    assert np.array_equal(flat, ref_flat)
    assert omega_jmax(st, series, st.index_of(k)) == (-1 if t == 0 else st.n_max - 2)
    got = _fd_blocks(st, series, (k,), flat)
    ref = oracles.fd_blocks_plain(ref_st, ref_series, (k,), ref_flat)
    assert np.array_equal(got, ref)
    # the state's cached set and a fresh row set of the same torus agree
    assert np.array_equal(full_residual(st, series, (k,)).entries,
                          _block_residual(st, series, k, [st.torus(k)]))
    j = st.index_of(k)
    assert np.array_equal(st.tori[j].block(), ref_st.tori[j].block())
    for sign in "+-":
        for n in range(2, st.n_max + 1):
            form = oracles.form_view(st, k, sign, n)
            other = oracles.form_view(ref_st, k, sign, n)
            assert (form.pole, form.coeffs, form.mu) == (other.pole, other.coeffs, other.mu)
    for side in ("node", "zero"):
        a, b = st.circle(k, side), ref_st.circle(k, side)
        for name_ in ("z", "dz", "g", "gp", "w0", "fvals", "base", "cols"):
            assert np.array_equal(getattr(a, name_), getattr(b, name_)), (side, name_)


def test_fd_blocks_run_twelve_theta_passes(monkeypatch):
    """The eight columns of one layer take three theta passes on each of
    the four point sets (node circle, zero circle, both period paths):
    one for the layer's own tau, shared by the bhat, a and v rows, and
    one per tau row.  Together they evaluate the points of the five
    distinct (tau, v), each set as many as one column of the plain loop,
    and they never refresh the state.  Each set, and each layer of a full
    residual, evaluates the glued form once per contour circle."""
    st, series, flat = _perturbed_layer("rPD", None, 1)
    points, refreshes, omegas = [], [], []
    theta_sums, refresh = elliptic._theta_sums, GluingState.refresh

    def counted(v, *args, **kwargs):
        points.append(np.size(v))
        return theta_sums(v, *args, **kwargs)

    def counted_refresh(self, *args, **kwargs):
        refreshes.append(1)
        return refresh(self, *args, **kwargs)

    def counted_omega(*args, **kwargs):
        omegas.append(1)
        return omega_on_circle(*args, **kwargs)

    monkeypatch.setattr(elliptic, "_theta_sums", counted)
    monkeypatch.setattr(GluingState, "refresh", counted_refresh)
    monkeypatch.setattr(solver, "omega_on_circle", counted_omega)
    _fd_blocks(st, series, (1,), flat)
    assert len(points) == 12
    assert refreshes == []
    assert len(omegas) == 10
    batched = sum(points)
    omegas.clear()
    full_residual(st, series)
    assert len(omegas) == 2 * st.n_tori
    x0 = st.tori[1].block()
    plain = []
    for c in range(8):
        points.clear()
        xp = x0.copy()
        xp[c] += FD_STEP
        _set_blocks(st, {1: xp})
        _block_residual(st, series, 1)
        plain.append(sum(points))
    assert len(set(plain)) == 1
    assert batched == 5 * plain[0]


def _twin_window(defect: bool):
    """twin-rPD, or its periodic reference, on a K = 4 window at t = 0.01
    with its series: layers far from the defect repeat bit for bit."""
    cfg = catalog("twin-rPD", K=2)
    st = GluingState.central(cfg if defect else upper_reference(cfg), 0.01, K=4)
    return st, fix_omega(st)


def _distinct_layers(st, series, ks):
    """Parameter block, lambda row and parity of each layer, the inputs
    of its residual row and Jacobian block, without repeats."""
    return {(st.torus(k).block().tobytes(),
             series.lam[st.index_of(k)].tobytes(), k % 2) for k in ks}


@pytest.mark.parametrize("defect", [True, False], ids=["twin-rPD", "reference"])
def test_repeated_layers_are_evaluated_once(defect, monkeypatch):
    """full_residual and _fd_blocks evaluate each distinct (parameter
    block, lambda row, parity) once, and every active layer gets the row
    and the block that the plain loop computes for it, bit for bit."""
    st, series = _twin_window(defect)
    ref_st, ref_series = _twin_window(defect)
    active = tuple(st.active_range())
    distinct = _distinct_layers(st, series, active)
    assert len(distinct) < len(active)
    rows = np.array([_block_residual(ref_st, ref_series, k)[0] for k in active])
    calls = []

    def counted(st, series, k, tori=None):
        calls.append(k)
        return _block_residual(st, series, k, tori)

    monkeypatch.setattr(solver, "_block_residual", counted)
    res = full_residual(st, series, active)
    assert len(calls) == len(distinct)
    assert np.array_equal(res.entries, rows)
    calls.clear()
    got = _fd_blocks(st, series, active, res.flat())
    assert len(calls) == len(distinct)
    monkeypatch.undo()
    ref = oracles.fd_blocks_plain(ref_st, ref_series, active, res.flat())
    assert np.array_equal(got, ref)


def test_equal_blocks_share_one_refresh(monkeypatch):
    """Setting several tori to the same bits builds one cache per distinct
    block in one refresh, and leaves the caches a refresh of each torus
    builds."""
    st, _ = _twin_window(False)
    ref_st, _ = _twin_window(False)
    moved = {j: st.tori[j].block() + 1e-4 * (j % 2 + 1) for j in range(st.n_tori)}
    refreshes, builds = [], []
    refresh, circle_sets = GluingState.refresh, opening._circle_sets

    def counted(self, only=None):
        refreshes.append(only)
        return refresh(self, only)

    def counted_sets(st, tori):
        builds.append(tori)
        return circle_sets(st, tori)

    monkeypatch.setattr(GluingState, "refresh", counted)
    monkeypatch.setattr(opening, "_circle_sets", counted_sets)
    solver._set_blocks(st, moved)
    assert refreshes == [list(moved)]
    assert len(builds) == len({x.tobytes() for x in moved.values()}) == 2
    monkeypatch.undo()
    for j, x in moved.items():
        _set_blocks(ref_st, {j: x})
    for j in range(st.n_tori):
        a, b = st._layers[j], ref_st._layers[j]
        for name_ in ("coeffs", "eta", "mu"):
            assert np.array_equal(getattr(a.forms, name_), getattr(b.forms, name_))
        for side in ("node", "zero"):
            for name_ in ("z", "dz", "g", "gp", "w0", "fvals", "base", "cols"):
                assert np.array_equal(getattr(a.circles[side], name_),
                                      getattr(b.circles[side], name_)), (j, side, name_)


def test_closed_neck_jacobian_blocks():
    st = central()
    series = fix_omega(st)
    lat = lattice_for(st.tau_ref)
    for k in (0, 1):
        blk = _fd_block(st, series, k)
        T = st.torus(k)
        a, tau = T.a, T.tau
        assert np.max(np.abs(blk[0:2, 0:2] - _lin2(-2.0 / a))) < 1e-5
        if k % 2 == 0:
            assert np.max(np.abs(blk[2:4, 2:4] - _lin2(1.0 / a**2))) < 1e-5
            assert np.max(np.abs(blk[4:6, 2:4] - _lin2(tau / a**2))) < 1e-5
            assert np.max(np.abs(blk[4:6, 4:6] - _lin2(-1.0 / a))) < 1e-5
        else:
            assert np.max(np.abs(blk[2:4, 2:4] - _anti2(-np.conj(1.0 / a**2)))) < 1e-5
            assert np.max(np.abs(blk[4:6, 2:4] - _anti2(-np.conj(tau / a**2)))) < 1e-5
            assert np.max(np.abs(blk[4:6, 4:6] - _anti2(np.conj(1.0 / a)))) < 1e-5
        gv = _lin2(-2j * np.pi) @ hecke_jacobian(catalog("rPD").q(k), lat).m
        if k % 2 == 1:
            gv = gv @ np.diag([-1.0, 1.0])
        assert np.max(np.abs(blk[6:8, 6:8] - gv)) < 1e-5


# ---------------------------------------------------------------------------
# continuation


def test_continuation_converges(rpd_solved):
    rep = rpd_solved
    assert rep.converged
    assert rep.t_schedule == (0.005, 0.01)
    assert rep.final_residual < 1e-9
    for step in rep.steps:
        assert step.iterations == len(step.residuals) - 1
        assert step.iterations <= 6
        assert all(b < a for a, b in zip(step.residuals, step.residuals[1:]))
    fresh = full_residual(rep.state, rep.series)
    assert fresh.sup_norm < 1e-9


def test_steps_record_the_worst_layer(rpd_solved):
    rep = rpd_solved
    fresh = full_residual(rep.state, rep.series)
    rows = np.max(np.abs(fresh.entries), axis=1)
    assert rep.steps[-1].worst_k == fresh.ks[int(np.argmax(rows))]
    assert all(s.worst_k in (0, 1) for s in rep.steps)


def test_solved_layers_repeat_periodically(rpd_solved):
    st = rpd_solved.state
    assert st.n_buffer == 0
    assert st.n_tori == 2
    assert st.torus(2) is st.torus(0)
    assert st.torus(-1) is st.torus(1)


def test_cyclic_solve_continues_no_tail(rpd_solved):
    assert rpd_solved.state.n_buffer == 0
    assert rpd_solved.tail_reports is None


def test_zero_target_returns_central():
    # closed necks take no step, with or without an empty schedule
    for schedule in (None, []):
        rep = newton_continuation(catalog("rPD", K=1), 0.0, schedule=schedule)
        assert rep.steps == ()
        assert rep.final_residual == 0.0
        assert rep.state.torus(0).a == -0.5
        assert rep.state.torus(0).bhat == 0


def test_schedule_validation():
    cfg = catalog("rPD", K=1)
    with pytest.raises(ValueError):
        newton_continuation(cfg, 0.005, schedule=[0.01, 0.005])
    with pytest.raises(ValueError):
        newton_continuation(cfg, 0.01, schedule=[0.004])
    # a target no schedule reaches is refused before any solve, instead
    # of reporting the central state as converged (inf comes last: the
    # halving of auto_schedule never ends on it)
    with pytest.raises(ValueError):
        newton_continuation(cfg, -0.01)
    with pytest.raises(ValueError):
        newton_continuation(cfg, 0.01, schedule=[])
    with pytest.raises(ValueError):
        newton_continuation(cfg, 0.01, schedule=[-0.005, 0.01])
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            newton_continuation(cfg, t)


def test_auto_schedule():
    assert auto_schedule(0.02) == [0.005, 0.01, 0.02]
    assert auto_schedule(0.006) == [0.006]
    assert auto_schedule(0.0) == []
    sched = auto_schedule(0.08)
    assert sched[0] <= 0.0075
    assert all(b > a for a, b in zip(sched, sched[1:]))


def test_noncontraction_bubbles_up():
    with pytest.raises(NonContractionError):
        newton_continuation(catalog("rPD", K=1), 0.2, schedule=[0.2])


def test_stalled_newton_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    with pytest.raises(StepFailure):
        newton_continuation(catalog("rPD", K=1), 0.01, schedule=[0.01])


def test_step_failure_names_layer_t_and_history(monkeypatch):
    with monkeypatch.context() as m, pytest.raises(StepFailure) as exc:
        m.setattr(solver, "MAX_NEWTON", 1)
        newton_continuation(catalog("rPD", K=1), 0.01, schedule=[0.01])
    err = exc.value
    assert err.t == 0.01
    assert err.k in (0, 1)
    assert len(err.history) == 2 and err.history[-1] >= NEWTON_TOL
    assert f"t={err.t:g}" in str(err) and f"k={err.k}" in str(err)
    assert f"{err.history[-1]:.3e}" in str(err)
    # the partial history is the start of the unhindered solve's
    rep = newton_continuation(catalog("rPD", K=1), 0.01, schedule=[0.01])
    assert rep.steps[0].residuals[:2] == err.history


def test_window_matches_cyclic():
    events = []
    cyc = newton_continuation(catalog("rPD", K=1), 0.008, schedule=[0.008],
                              callback=events.append)
    win = newton_continuation(catalog("rPD", K=1), 0.008, schedule=[0.008],
                              K=4)
    assert win.state.n_buffer > 0
    assert win.tail_reports is not None
    assert win.tail_reports["left"].converged
    assert win.tail_reports["right"].converged
    for k in (-1, 0, 1, 2):
        Tc, Tw = cyc.state.torus(k), win.state.torus(k)
        for name in ("bhat", "a", "tau", "v"):
            assert abs(getattr(Tc, name) - getattr(Tw, name)) < 1e-8
    assert events
    assert all(set(e) == {"t", "iteration", "residual", "step_scale"} for e in events)
    assert [e["iteration"] for e in events] == list(range(1, len(events) + 1))


def test_defect_window_solve():
    rep = newton_continuation(catalog("twin-rPD", K=2), 0.005,
                              schedule=[0.005], K=5)
    assert rep.converged
    assert rep.state.n_buffer > 0
    assert rep.final_residual < 1e-9
    tails = rep.tail_reports
    assert tails["left"].state.n_tori == 2
    assert tails["right"].converged
    # the two sides really carry opposite node families after the solve
    v0 = rep.state.torus(0).v
    vm = rep.state.torus(-1).v
    assert abs(v0 + np.conj(vm)) > 1e-3


@pytest.mark.parametrize("name", ["rPD-H", "H-H-shift", "oPa-oDelta"])
def test_even_length_tails_solve(name):
    """A two-layer tail is continued as its own periodic stack, not as a
    window of even length."""
    rep = newton_continuation(catalog(name, K=2), 0.005, schedule=[0.005], K=3)
    assert rep.converged
    assert rep.final_residual < NEWTON_TOL
    assert all(tail.converged for tail in rep.tail_reports.values())


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_tail_stacks_continue_the_window(name):
    """Each tail's periodic stack repeats the tail pattern and agrees with
    the configuration past the window on its side."""
    cfg = catalog(name, K=2)
    tails = solver._tail_configs(cfg)
    for tail, ks in ((cfg.left_tail, range(-cfg.K - 6, -cfg.K)),
                     (cfg.right_tail, range(cfg.K + 1, cfg.K + 7))):
        ref = tails[tail]
        assert ref.period() == len(tail)
        assert all(ref.q(k) == cfg.q(k) for k in ks)


def test_unreachable_targets_raise_schedule_error():
    """One finite-and-nonnegative check guards auto_schedule and every
    entry of an explicit schedule; the alarm turns a hang into a failure."""
    def hung(signum, frame):
        raise TimeoutError("auto_schedule did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for t in (float("inf"), float("nan"), -0.01):
            with pytest.raises(solver.ScheduleError):
                auto_schedule(t)
        with pytest.raises(solver.ScheduleError):
            newton_continuation(catalog("rPD", K=1), 0.01,
                                schedule=[float("nan"), 0.01])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_overlapping_charts_are_refused_at_entry(monkeypatch):
    """A chart radius past the one the rPD tori admit is refused with a
    ChartError that names it and `_chart_radius`, before any step."""
    def solve(*args, **kw):  # pragma: no cover - the failure under test
        raise AssertionError("stepped with overlapping charts")

    monkeypatch.setattr(solver, "_solve_at_t", solve)
    with pytest.raises(ChartError) as err:
        newton_continuation(catalog("rPD"), 0.12, epsilon=0.26)
    radius = _chart_radius(central_layout(catalog("rPD"))[0])
    assert "epsilon = 0.26" in str(err.value)
    assert f"_chart_radius of these tori is {radius:g}" in str(err.value)


@pytest.mark.parametrize("name, t", [("rPD", 0.01), ("oPa", 0.04), ("oDelta", 0.02)])
def test_solved_parameters_do_not_depend_on_epsilon(name, t):
    """The chart radius only places the contours and the neck charts: a
    solve at 0.9 and at 1.6 times the default epsilon gives every torus
    block of the default solve to solver noise."""
    cfg = catalog(name)
    default = newton_continuation(cfg, t).state
    eps = _chart_radius(central_layout(cfg)[0])
    assert default.epsilon == eps
    for scale in (0.9, 1.6):
        st = newton_continuation(cfg, t, epsilon=scale * eps).state
        assert st.epsilon == scale * eps
        assert st.logical_range() == default.logical_range()
        gap = max(np.max(np.abs(a.block() - b.block()))
                  for a, b in zip(st.tori, default.tori))
        assert gap < 1e-11, (scale, gap)


def test_unbalanced_stack_is_refused_at_entry():
    """Steps 0.3 + 0.2i below 0 and 0.5 above on the square torus have
    unequal G; the solve is refused before it opens a single neck."""
    cfg = configs._split(1j, (0.3 + 0.2j,), (0.5,), 8)
    with pytest.raises(configs.UnbalancedConfigError) as err:
        newton_continuation(cfg, 0.01)
    assert err.value.k == -1
    assert abs(err.value.force - 1.75) < 0.01
    assert "k=-1" in str(err.value) and "1.748e+00" in str(err.value)
