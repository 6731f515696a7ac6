"""Paired solves, decay reports, and TPMS comparison distances."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackedmin.configs import catalog
from stackedmin.elliptic import lattice_coords
from stackedmin.immersion import build_mesh
from stackedmin import asymptotics, configs, opening, solver
from stackedmin.opening import GluingState, _chart_radius, central_layout
from stackedmin.solver import newton_continuation
from stackedmin.asymptotics import (
    DegenerateFitError,
    decay_fit,
    form_rows,
    pair_solve,
    parameter_rows,
    upper_reference,
)
from oracles import differential_rows, supercell, tpms_comparison
from write_goldens import FOOTPRINT_TS, PATH, WINDOWS, assert_held, footprint, record, window

DEFECT_NAMES = ("twin-rPD", "oPa-oCLP", "oCLP-rot-twin", "oPa-oDelta")


@pytest.fixture(scope="module")
def twin_pair():
    twin = catalog("twin-rPD")
    return pair_solve(upper_reference(twin), twin, 0.01, K=10)


@pytest.fixture(scope="module")
def cross_pair():
    cross = catalog("oPa-oCLP")
    return pair_solve(upper_reference(cross), cross, 0.01)


def _unpack(pair):
    """(state, series) of the reference, then of the defect."""
    rp, rd = pair
    return rp.state, rp.series, rd.state, rd.series


@pytest.fixture(scope="module")
def twin_meshes(twin_pair):
    return tuple(build_mesh(rep.state, rep.series) for rep in twin_pair)


# ---------------------------------------------------------------- references


@given(name=st.sampled_from(DEFECT_NAMES), k=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_upper_reference_extends_the_right_tail(name, k):
    cfg = catalog(name)
    ref = upper_reference(cfg)
    assert ref.is_periodic()
    assert len(ref.right_tail) == len(cfg.right_tail)
    assert ref.tau == cfg.tau
    assert abs(ref.q(k) - cfg.q(k)) < 1e-15


def test_upper_reference_of_crossover_is_the_upper_family():
    ref = upper_reference(catalog("oPa-oCLP"))
    opa = catalog("oPa")
    assert abs(ref.q(0) - opa.q(0)) < 1e-15


# ------------------------------------------------------------------- pairing


def test_pair_rejects_nonperiodic_reference():
    twin = catalog("twin-rPD")
    with pytest.raises(ValueError, match="periodic"):
        pair_solve(twin, twin, 0.01)


def test_pair_rejects_mismatched_upper_tail():
    # the twin's upper tail is the mirror rPD representative, not rPD itself
    with pytest.raises(ValueError, match="disagree"):
        pair_solve(catalog("rPD"), catalog("twin-rPD"), 0.01)


def test_pair_rejects_mixed_lattices():
    with pytest.raises(ValueError, match="lattice"):
        pair_solve(catalog("oPa"), catalog("twin-rPD"), 0.01)


@pytest.mark.parametrize("name", ["twin-rPD", "oPa-oCLP"])
def test_pair_chart_radius_needs_no_state(name, monkeypatch):
    """pair_solve takes the shared chart radius from the central tori
    without building or refreshing a state, and it is the radius of the
    two central window states to the bit."""
    defect = catalog(name)
    ref = upper_reference(defect)
    full, eps = [], []
    refresh = GluingState.refresh

    def counted(self, only=None):
        full.append(only is None)
        return refresh(self, only)

    def solve(cfgs, t, K, epsilon, **kw):
        eps.extend([epsilon] * len(cfgs))
        return [SimpleNamespace(state=SimpleNamespace(k_lo=-K, tori=[]))
                for _ in cfgs]

    monkeypatch.setattr(GluingState, "refresh", counted)
    monkeypatch.setattr(asymptotics, "_continue_stacks", solve)
    pair_solve(ref, defect, 0.01, K=8)
    assert eps and not full
    central = [GluingState.central(c, 0.0, K=8).epsilon
               for c in (ref, defect)]
    assert sum(full) == 2  # the counter sees the states built here
    assert eps == [min(central)] * 2


def test_pair_rejects_misaligned_windows_before_solving(monkeypatch):
    """A defect whose left tail needs a wider buffer than the reference's
    gets a wider window at the same K; pair_solve names both extents
    before it solves either problem."""
    q = (1 + configs._EQ) / 3
    defect = configs._split(configs._EQ, (q, -q, q), (-q,), 8)
    ref = upper_reference(defect)

    def solve(*args, **kw):  # pragma: no cover - the failure under test
        raise AssertionError("solved before the windows were compared")

    monkeypatch.setattr(asymptotics, "_continue_stacks", solve)
    with pytest.raises(ValueError, match="misaligned") as info:
        pair_solve(ref, defect, 0.01, K=9)
    msg = str(info.value)
    assert "25 tori from k=-12" in msg and "31 from k=-15" in msg


def test_pair_continues_each_tail_once(monkeypatch):
    """The reference's own stack is also the defect's right tail, so a
    pair continues two tail stacks, not three.  Its states, glued forms
    and decay report are those of two separate solves with the same chart
    radius, bit for bit, and its callback events at each t are theirs at
    that t, the reference's first."""
    twin = catalog("twin-rPD", K=2)
    ref = upper_reference(twin)
    K, t = 5, 0.01
    eps = min(_chart_radius(central_layout(c, K)[0]) for c in (ref, twin))
    stepped, run = [], solver._solve_at_t

    def counted(st, *args, **kw):
        if not any(st is s for s in stepped):
            stepped.append(st)
        return run(st, *args, **kw)

    monkeypatch.setattr(solver, "_solve_at_t", counted)
    events = []
    pair = pair_solve(ref, twin, t, K=K, callback=events.append)
    assert [st.n_buffer == 0 for st in stepped] == [True, True, False, False]
    monkeypatch.undo()
    separate = ([], [])
    solo = [newton_continuation(c, t, K=K, epsilon=eps, callback=seen.append)
            for c, seen in zip((ref, twin), separate)]
    assert repr(events) == repr([e for s in solver.auto_schedule(t)
                                 for seen in separate for e in seen if e["t"] == s])
    for got, want in zip(pair, solo):
        assert np.array_equal(got.series.lam, want.series.lam)
        got, want = got.state, want.state
        assert (got.k_lo, got.epsilon, got.t) == (want.k_lo, want.epsilon, want.t)
        assert np.array_equal([T.block() for T in got.tori],
                              [T.block() for T in want.tori])
    got, want = decay_fit(*pair), decay_fit(*solo)
    assert got.fit_ks == want.fit_ks == [1, 2]
    assert (got.rate, got.r_squared) == (want.rate, want.r_squared)
    assert np.array_equal(got.d, want.d) and np.array_equal(got.w, want.w)


def test_pair_chart_radius_passes_the_chart_check():
    """The shared radius is at most each window's own, so the central
    states of both windows and of their tails accept it."""
    for name in DEFECT_NAMES:
        defect = catalog(name)
        ref = upper_reference(defect)
        eps = min(_chart_radius(central_layout(c, 8)[0]) for c in (ref, defect))
        stacks = [*solver._tail_configs(defect).values(), *solver._tail_configs(ref).values()]
        for c in (ref, defect):
            assert GluingState.central(c, 0.0, K=8, epsilon=eps).epsilon == eps
        for c in stacks:
            assert GluingState.central(c, 0.0, epsilon=eps).epsilon == eps


def test_pair_solve_inverts_each_chart_once(monkeypatch):
    """The K = 8 pair's two `_chart_radius` calls and the chart checks of
    its four states (two windows and the two tails, whose tori are the
    windows' buffer tori) invert each (torus, side, epsilon) once: 8
    inversions over 4 distinct tori at one radius, where a check per call
    took 32.  Nothing of the checks is kept after the solve."""
    calls, invert = [], opening._invert_chart

    def counted(T, sign, w):
        calls.append((T.block().tobytes(), sign, float(np.max(np.abs(w)))))
        return invert(T, sign, w)

    monkeypatch.setattr(opening, "_invert_chart", counted)
    twin = catalog("twin-rPD")
    pair_solve(upper_reference(twin), twin, 0.01, K=8)
    assert len(calls) == len(set(calls)) == 8
    assert not opening._CHECKED


def test_paired_windows_share_geometry(twin_pair, cross_pair):
    for sp, _, sd, _ in map(_unpack, (twin_pair, cross_pair)):
        assert sp.k_lo == sd.k_lo
        assert len(sp.tori) == len(sd.tori)
        assert sp.epsilon == sd.epsilon
        assert sp.t == sd.t


@pytest.fixture(scope="module")
def wide_windows():
    """K = 8 window solves of defects by (name, t), solved once per module:
    every catalog defect but twin-rPD at t = 0.01, and twin-rPD, rPD-H,
    oPa-oCLP and oPa-oDelta at t = 0.04 (`write_goldens.WINDOWS`)."""
    return {(name, t): window(name, t) for name, t in WINDOWS}


def test_wide_windows_hold_their_goldens(wide_windows):
    """Each K = 8 window keeps its blocks within NEWTON_TOL of the goldens
    of `tests/write_goldens.py`, tails included, and no step takes more
    Newton iterations."""
    goldens = json.loads(PATH.read_text())["windows"]
    assert len(goldens) == len(wide_windows) == 9
    for (name, t), rep in wide_windows.items():
        assert_held(record(rep), goldens[f"{name}@{t}"], (name, t))


@pytest.fixture(scope="module")
def footprints():
    """d_0 and w_0 of the K = 8 twin-rPD pair by t over FOOTPRINT_TS."""
    return {t: footprint(t) for t in FOOTPRINT_TS}


def test_defect_footprint_holds_its_goldens(footprints):
    """d_0 and w_0 stay within 1e-3 relative of their goldens."""
    goldens = json.loads(PATH.read_text())["footprint"]
    for t, got in footprints.items():
        for key in ("d0", "w0"):
            want = goldens[str(t)][key]
            assert abs(got[key] - want) < 1e-3 * want, (t, key, got[key], want)


def test_defect_footprint_scales_like_t_to_the_sixth(footprints):
    """The defect's own layer moves by t^6: log d_0 and log w_0 against
    log t over t = 0.02, 0.03, 0.04 have slopes 6.02 within 0.2 of 6."""
    log_t = np.log(list(footprints))
    for key in ("d0", "w0"):
        slope = np.polyfit(log_t, np.log([f[key] for f in footprints.values()]), 1)[0]
        assert 5.8 <= slope <= 6.2, (key, slope)


@pytest.mark.parametrize("pair, name, t, Ks", [
    pytest.param("twin_pair", "twin-rPD", 0.01, (1, 2, 3), id="twin_pair-twin-rPD"),
    pytest.param("cross_pair", "oPa-oCLP", 0.01, (1, 2, 3), id="cross_pair-oPa-oCLP"),
    pytest.param("wide_windows", "rPD-H", 0.01, (1, 2, 3), id="K8-rPD-H"),
    pytest.param("wide_windows", "oPa-oDelta", 0.01, (1, 2, 3), id="K8-oPa-oDelta"),
    pytest.param("wide_windows", "twin-rPD", 0.04, (1, 2), id="K8-twin-rPD-t0.04"),
    pytest.param("wide_windows", "rPD-H", 0.04, (1, 2), id="K8-rPD-H-t0.04"),
    pytest.param("wide_windows", "oPa-oCLP", 0.04, (1, 2), id="K8-oPa-oCLP-t0.04"),
    pytest.param("wide_windows", "oPa-oDelta", 0.04, (1, 2), id="K8-oPa-oDelta-t0.04"),
])
def test_window_half_width_does_not_move_the_layers(pair, name, t, Ks, request):
    """With the chart radius of the wide window (a pair's defect state, or
    a K = 8 window), a defect solved on narrower windows at the same t
    gives every active layer of the wide state to solver noise: the
    clamped tails stand in for the layers the narrow window leaves out."""
    held = request.getfixturevalue(pair)
    wide = (held[name, t] if pair == "wide_windows" else held[1]).state
    assert wide.t == t
    for K in Ks:
        st = newton_continuation(catalog(name, K=1), t, K=K, epsilon=wide.epsilon).state
        gap = max(np.max(np.abs(st.torus(k).block() - wide.torus(k).block()))
                  for k in st.active_range())
        assert gap < 1e-11, (K, gap)


@pytest.fixture(scope="module")
def twin_window():
    """The K = 8 window solve of twin-rPD at t = 0.01."""
    return newton_continuation(catalog("twin-rPD", K=1), 0.01, K=8)


@pytest.mark.parametrize("window, name, t", [
    pytest.param("twin_window", "twin-rPD", 0.01, id="twin_window-twin-rPD"),
    pytest.param("wide_windows", "rPD-H", 0.01, id="wide_windows-rPD-H"),
    pytest.param("wide_windows", "oPa-oCLP", 0.01, id="wide_windows-oPa-oCLP"),
    pytest.param("wide_windows", "oPa-oDelta", 0.01, id="wide_windows-oPa-oDelta"),
    pytest.param("wide_windows", "H-H-shift", 0.01, id="wide_windows-H-H-shift"),
    pytest.param("wide_windows", "oCLP-rot-twin", 0.01, id="wide_windows-oCLP-rot-twin"),
    pytest.param("wide_windows", "twin-rPD", 0.04, id="wide_windows-twin-rPD-t0.04"),
    pytest.param("wide_windows", "rPD-H", 0.04, id="wide_windows-rPD-H-t0.04"),
])
@pytest.mark.parametrize("M", [2, 3])
def test_supercell_matches_the_window_away_from_its_far_boundary(window, name, t, M, request):
    """A defect's layers -M .. M - 1 closed into a cycle of 2M layers and
    solved with the K = 8 window's chart radius give layers -M + 1 ..
    M - 2 of that window to solver noise: the far boundary's footprint
    stays on its two neighbours."""
    held = request.getfixturevalue(window)
    wide = (held[name, t] if window == "wide_windows" else held).state
    assert wide.t == t and wide.k_lo + wide.n_buffer == -8
    st = newton_continuation(supercell(catalog(name, K=1), M), t, epsilon=wide.epsilon).state
    assert (st.n_tori, st.n_buffer) == (2 * M, 0)
    gap = max(np.max(np.abs(st.torus(k).block() - wide.torus(k).block()))
              for k in range(-M + 1, M - 1))
    assert gap < 1e-11, gap


def test_identical_pair_is_flat():
    cfg = catalog("rPD", K=1)
    pair = pair_solve(cfg, cfg, 0.02, K=6)
    d = parameter_rows(pair[0].state, pair[1].state)
    assert max(d.values()) == 0.0
    with pytest.raises(DegenerateFitError):
        decay_fit(*pair)


# --------------------------------------------------------------- twin decay


def test_twin_rows_collapse_above_the_defect(twin_pair):
    sp, _, sd, _ = _unpack(twin_pair)
    d = parameter_rows(sp, sd)
    below = [d[k] for k in d if k <= -1]
    assert min(below) > 1.0  # O(1) mismatch against the mirrored tail
    assert np.ptp(below) < 1e-9
    assert d[0] < 5e-11
    assert d[1] < 5e-12
    assert d[1] > d[2]
    assert all(d[k] < 1e-14 for k in range(3, 9))


def test_twin_fit_keeps_only_resolvable_layers(twin_pair):
    rep = decay_fit(*twin_pair)
    assert rep.fit_ks == [1, 2]
    assert 1.0 < rep.rate < 2.0
    assert rep.r_squared > 0.95
    assert rep.t == 0.01


def test_twin_differential_rate_is_comparable(twin_pair):
    sp, serp, sd, serd = _unpack(twin_pair)
    rep = decay_fit(*twin_pair)
    m = differential_rows(sp, serp, sd, serd)
    assert all(m[k] < 1e-14 for k in range(4, 9))
    rate_m = np.log(m[1] / m[2])
    assert 0.5 * rep.rate < rate_m < 2.0 * rep.rate


def test_twin_fit_degenerates_at_smaller_t():
    # halving t drops every fitted difference below double precision
    twin = catalog("twin-rPD")
    pair = pair_solve(upper_reference(twin), twin, 0.005, K=10)
    with pytest.raises(DegenerateFitError):
        decay_fit(*pair)


def test_reports_are_deterministic(twin_pair):
    a = decay_fit(*twin_pair)
    b = decay_fit(*twin_pair)
    assert a.rate == b.rate
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.w, b.w)


def test_report_serializes(twin_pair):
    rep = decay_fit(*twin_pair)
    blob = json.loads(json.dumps(rep.as_dict()))
    assert blob["t"] == 0.01
    assert len(blob["rows"]) == len(rep.ks)
    assert {"k", "d", "w"} <= set(blob["rows"][0])


# ---------------------------------------------------------- crossover decay


def test_crossover_rows_collapse_within_one_layer(cross_pair):
    sp, serp, sd, serd = _unpack(cross_pair)
    d = parameter_rows(sp, sd)
    assert d[-1] == pytest.approx(0.625, abs=1e-2)  # node offset oPa vs oCLP'
    assert 1e-9 < d[0] < 1e-6
    assert d[1] < 2e-14
    w = form_rows(sp, serp, sd, serd)
    assert 1e-5 < w[0] < 1e-3
    assert w[1] < 1e-10
    assert w[0] / w[1] > 1e6
    m = differential_rows(sp, serp, sd, serd)
    assert m[0] < 1e-6
    assert m[1] < 1e-13


def test_crossover_fit_is_degenerate(cross_pair):
    # the defect's influence on the quadruple dies below the floor by k=1
    with pytest.raises(DegenerateFitError):
        decay_fit(*cross_pair)


# ------------------------------------------------------------------- meshes


def test_tpms_identical_mesh_is_exact_zero(twin_meshes):
    mp, _ = twin_meshes
    assert tpms_comparison(mp, mp, 0) == 0.0


def test_tpms_rejects_odd_period(twin_meshes):
    mp, md = twin_meshes
    with pytest.raises(ValueError, match="even"):
        tpms_comparison(mp, md, 0, period=1)


def test_tpms_saturates_at_solver_noise(twin_meshes):
    # every unwound comparison sits at the Newton tolerance already;
    # the upper half of the twin is periodic to working precision
    mp, md = twin_meshes
    dists = [tpms_comparison(mp, md, ell) for ell in range(4)]
    assert max(dists) < 5e-11


def test_period_vector_is_a_third_of_the_lattice():
    rep = newton_continuation(catalog("rPD"), 0.01)
    mesh = build_mesh(rep.state, rep.series)
    frames = {f.k: f for f in mesh.frames}
    T = np.asarray(frames[2].position) - np.asarray(frames[0].position)
    assert T[2] > 0.1
    x, y = lattice_coords(complex(T[0], T[1]), rep.state.torus(0).tau)
    assert abs(3 * x - round(3 * x)) < 1e-9
    assert abs(3 * y - round(3 * y)) < 1e-9
    assert (x % 1.0, y % 1.0) == pytest.approx((2 / 3, 2 / 3), abs=1e-9)
