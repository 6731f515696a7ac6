"""Tests for the node-opening machinery: charts, forms, and the omega fixed point."""

import itertools
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from oracles import (gauss_component, neck_coordinate, omega_eval, second_kind_form,
                     third_kind_form)
from stackedmin import opening
from stackedmin.asymptotics import upper_reference
from stackedmin.configs import CATALOG_NAMES, catalog
from stackedmin.elliptic import weierstrass_jet
from stackedmin.opening import (
    CIRCLE_NODES,
    FIX_TOL,
    ChartError,
    GluingState,
    NonContractionError,
    TorusData,
    _build_forms,
    _circle_nodes,
    _fixed_point_system,
    fix_omega,
    gauss_and_omega,
    laurent_coeffs,
    mirror_conj,
    neck_point,
    omega_on_circle,
    path_base,
)
from stackedmin.solver import full_residual


@pytest.fixture(scope="module")
def rpd0():
    return GluingState.central(catalog("rPD"), 0.0)


@pytest.fixture(scope="module")
def rpd():
    st = GluingState.central(catalog("rPD"), 0.01)
    return st, fix_omega(st)


@pytest.fixture(scope="module")
def rpdh():
    st = GluingState.central(catalog("rPD-H", K=2), 0.008, K=3)
    return st, fix_omega(st)


def circle(center, radius, m=256):
    ring = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    return center + radius * ring, 1j * radius * ring * (2 * np.pi / m)


def straight_integral(f, origin, vec, m=512):
    s = (np.arange(m) + 0.5) / m
    return complex(np.sum(f(origin + s * vec)) * vec / m)


def cycle_integral(st, series, k, vec, m=512):
    base = path_base(st.torus(k))
    return straight_integral(lambda z: omega_eval(st, series, k, z), base, vec, m)


def test_gauss_residues_and_periodicity(rpd0):
    for k in (0, 1):
        tor = rpd0.torus(k)
        for pole, want in ((0.0, tor.a), (tor.v, -tor.a)):
            z, dz = circle(pole, 0.05)
            res = np.sum(gauss_component(rpd0, k, z) * dz) / (2j * np.pi)
            assert abs(res - want) < 1e-10
        z0 = 0.31 + 0.17 * tor.tau
        g0 = gauss_component(rpd0, k, np.array([z0, z0 + 1, z0 + tor.tau]))
        assert abs(g0[1] - g0[0]) < 1e-10
        assert abs(g0[2] - g0[0]) < 1e-10


def test_central_gauss_value(rpd0):
    # a = -1/2 and bhat = 0 pin the central slice; G(v) then fixes b.
    tor = rpd0.torus(0)
    assert tor.a == -0.5
    assert tor.bhat == 0.0


def test_neck_chart_round_trip(rpd):
    st, _ = rpd
    for k in (0, 1):
        for sign in "+-":
            for r in (0.3 * st.epsilon, 1.2 * st.epsilon):
                for ang in (0.3, 2.1, 4.0):
                    w = r * np.exp(1j * ang)
                    z = neck_point(st, k, sign, w)
                    back = neck_coordinate(st, k, sign, z)
                    assert abs(back - w) < 1e-10


def test_neck_chart_centers(rpd):
    st, _ = rpd
    tor = st.torus(0)
    w = neck_coordinate(st, 0, "+", tor.v + 1e-4)
    assert abs(w) < 1e-3
    w = neck_coordinate(st, 0, "-", 1e-4 + 0j)
    assert abs(w) < 1e-3


def test_neck_chart_errors(rpd):
    st, _ = rpd
    with pytest.raises(ChartError):
        neck_point(st, 0, "+", 2.5 * st.epsilon + 0j)
    with pytest.raises(ChartError):
        # point sits by the zero, not the pole of the plus chart
        neck_coordinate(st, 0, "+", 1e-4 + 0j)


@settings(deadline=None, max_examples=25)
@given(
    r=hs.floats(0.15, 1.6),
    ang=hs.floats(0.0, 2 * math.pi),
    k=hs.integers(-3, 3),
    sign=hs.sampled_from("+-"),
)
def test_round_trip_property(rpd, r, ang, k, sign):
    st, _ = rpd
    w = r * st.epsilon * np.exp(1j * ang)
    z = neck_point(st, k, sign, w)
    assert abs(neck_coordinate(st, k, sign, z) - w) < 1e-9 * max(1.0, abs(w))


def test_opposite_charts_glue(rpd):
    st, _ = rpd
    t = st.t
    for k in (0, 1):
        for w in (0.5 * st.epsilon * np.exp(0.7j), t * np.exp(2.2j)):
            zp = neck_point(st, k, "+", w)
            zm = neck_point(st, k + 1, "-", t * t / w)
            ga = (t * gauss_component(st, k, np.array([zp]))[0]) ** ((-1) ** (k + 1))
            gb = (t * gauss_component(st, k + 1, np.array([zm]))[0]) ** ((-1) ** k)
            assert abs(ga - gb) < 1e-9 * max(1.0, abs(ga))


def test_third_kind_residues(rpd0):
    tor = rpd0.torus(0)
    p = 0.62 + 0.55 * tor.tau
    q = 0.21 + 0.13 * tor.tau
    for center, want in ((p, 1.0), (q, -1.0)):
        z, dz = circle(center, 0.04)
        res = np.sum(third_kind_form(rpd0, 0, p, q, z) * dz) / (2j * np.pi)
        assert abs(res - want) < 1e-10


def test_third_kind_periods(rpd0):
    # closed-cycle integrals carry only the lattice coordinates of q - p
    tor = rpd0.torus(0)
    p = 0.62 + 0.55 * tor.tau
    q = 0.21 + 0.13 * tor.tau
    form = lambda z: third_kind_form(rpd0, 0, p, q, z)
    alpha = straight_integral(form, 0.85 * tor.tau, 1.0)
    beta = straight_integral(form, 0.85 + 0j, tor.tau)
    assert abs(alpha - 2j * np.pi * (0.13 - 0.55)) < 1e-9
    assert abs(beta - (-2j * np.pi) * (0.21 - 0.62)) < 1e-9
    assert abs(alpha.real) < 1e-10
    assert abs(beta.real) < 1e-10


def test_omega_at_closed_necks(rpd0):
    series = fix_omega(rpd0)
    assert np.max(np.abs(series.lam)) == 0.0
    assert len(series.update_norms) == 1
    assert series.contraction_estimate == 0.0
    for k in (0, 1):
        tor = rpd0.torus(k)
        z = np.array([0.31 + 0.62 * tor.tau, 0.77 + 0.18 * tor.tau, 0.05 + 0.49 * tor.tau])
        got = omega_eval(rpd0, series, k, z)
        want = third_kind_form(rpd0, k, 0.0, tor.v, z)
        assert np.max(np.abs(got - want)) < 1e-10
        zc, dzc = circle(0.0, 0.045)
        res = np.sum(omega_eval(rpd0, series, k, zc) * dzc) / (2j * np.pi)
        assert abs(res - 1.0) < 1e-10


def test_second_kind_principal_part(rpd):
    st, _ = rpd
    tor = st.torus(0)
    for sign, pole in (("+", tor.v), ("-", 0.0)):
        z, dz = circle(pole, 0.05)
        g = tor.g(z)
        for n in (2, 5, 8):
            f = second_kind_form(st, 0, sign, n, z)
            for j in range(1, n + 1):
                coeff = np.sum(f * g ** (1 - j) * dz) / (2j * np.pi)
                want = 1.0 if j == n else 0.0
                assert abs(coeff - want) < 1e-8


def test_second_kind_periods(rpd):
    st, _ = rpd
    for k in (0, 1):
        tor = st.torus(k)
        base = path_base(tor)
        for sign in "+-":
            for n in (2, 3, 8):
                form = oracles.form_view(st, k, sign, n)
                f = lambda z: second_kind_form(st, k, sign, n, z)
                alpha = straight_integral(f, base, 1.0)
                beta = straight_integral(f, base, tor.tau)
                assert abs(alpha.real) < 1e-9
                assert abs(beta.real) < 1e-9
                assert abs(alpha - form.period_alpha) < 1e-9
                assert abs(beta - form.period_beta) < 1e-9
                fa = lambda z: second_kind_form(st, k, sign, n, z, alpha_normalized=True)
                assert abs(straight_integral(fa, base, 1.0)) < 1e-9


def test_second_kind_matches_pairing_oracle(rpd):
    st, _ = rpd
    tor = st.torus(0)
    pts = np.array([0.61 + 0.67 * tor.tau, 0.15 + 0.71 * tor.tau])
    for n in (2, 3):
        ora = oracles.second_kind_alpha_oracle(st, 0, n, pts)
        mine = second_kind_form(st, 0, "+", n, pts, alpha_normalized=True)
        assert np.max(np.abs(ora - mine)) < 1e-7


def test_second_kind_sup_norm_stable_across_layers(rpdh):
    # the scaled sup norms feed the contraction bound, so they must not blow
    # up as the stack index moves through the window and into the tails
    st, _ = rpdh
    envelopes = []
    for k in (-2, 0, 3):
        tor = st.torus(k)
        xs, ys = np.meshgrid(np.linspace(0.05, 0.95, 12), np.linspace(0.05, 0.95, 12))
        pts = (xs + ys * tor.tau.imag * 1j + ys * tor.tau.real).ravel()
        from stackedmin.elliptic import torus_distance

        keep = np.array(
            [
                min(torus_distance(p, 0.0, tor.tau), torus_distance(p, tor.v, tor.tau))
                > 1.3 * st.epsilon
                for p in pts
            ]
        )
        pts = pts[keep]
        worst = 0.0
        for sign in "+-":
            for n in range(2, st.n_max + 1):
                sup = np.max(np.abs(second_kind_form(st, k, sign, n, pts)))
                worst = max(worst, sup / (2.0 / st.epsilon) ** (n - 1))
        envelopes.append(worst)
    assert max(envelopes) / min(envelopes) < 3.0


def test_fix_omega_periods(rpd):
    st, series = rpd
    assert series.update_norms[-1] < FIX_TOL
    assert series.update_norms[-1] < 1e-12
    mat, vec = oracles.dense_fixed_point_system(st)
    flat = series.lam.reshape(-1)
    assert np.max(np.abs(flat - (vec + mat @ flat))) < 1e-12
    cc = st.circle(0, "zero")
    gamma = np.sum(omega_on_circle(st, series, 0, "zero") * cc.dz)
    assert abs(gamma - 2j * np.pi) < 1e-8
    for k in (0, 1):
        tor = st.torus(k)
        for vec_ in (1.0, tor.tau):
            period = cycle_integral(st, series, k, vec_)
            assert abs(period.real) < 1e-8


def test_lambda_decay_envelope():
    # generic (perturbed) state, so no symmetry zeroes out coefficients
    st = GluingState.central(catalog("rPD"), 0.015)
    st.tori[0] = replace(st.tori[0], bhat=0.04 - 0.02j, v=st.tori[0].v + (0.03 + 0.02j))
    st.tori[1] = replace(st.tori[1], a=-0.5 + 0.03j)
    st.refresh()
    series = fix_omega(st)
    assert series.update_norms[-1] < FIX_TOL
    mags = np.max(np.abs(series.lam), axis=(0, 1))
    ratio = st.t**2 / (2 * st.rho * st.epsilon)
    envelope = ratio ** np.arange(1, st.n_max)
    assert np.all(mags <= 0.2 * envelope)
    assert np.all(mags[1:] < mags[:-1])


def test_contraction_scaling():
    st = GluingState.central(catalog("rPD"), 0.02)
    ts = (0.02, 0.01, 0.005)
    ests = []
    for t in ts:
        st.t = t
        ests.append(fix_omega(st).contraction_estimate)
    slope = np.polyfit(np.log(ts), np.log(ests), 1)[0]
    assert abs(slope - 2.0) < 0.1
    scaled = np.array(ests) * st.rho * st.epsilon / np.array(ts) ** 2
    assert np.max(scaled) / np.min(scaled) < 1.25


@pytest.mark.parametrize("K", [None, 8])
def test_contraction_estimate_is_the_largest_row_sum(K):
    """The blocks of the neck-matching map are the nonzero blocks of the
    dense oracle entry for entry, the oracle is zero elsewhere, and the
    contraction estimate is its largest row sum of |mat| within 4 ulp
    (the sums run over other lengths), on the cyclic reference and on the
    K = 8 twin-rPD window."""
    twin = catalog("twin-rPD")
    st = GluingState.central(upper_reference(twin) if K is None else twin, 0.01, K=K)
    dense, dense_vec = oracles.dense_fixed_point_system(st)
    mat, vec, nbr = _fixed_point_system(st)
    n, width = st.n_tori, st.n_max - 1
    assert nbr.tolist() == [[st.index_of(k + 1), st.index_of(k - 1)]
                            for k in st.logical_range()]
    assert mat.shape == (n, 2, width, 2 * width)
    assert np.array_equal(vec, dense_vec.reshape(n, 2, width))
    rows = dense.reshape(n, 2, width, n, 2 * width).copy()
    at = (np.arange(n)[:, None], np.arange(2), slice(None), nbr)
    assert np.array_equal(mat, rows[at])
    rows[at] = 0.0
    assert not rows.any()
    est = fix_omega(st).contraction_estimate
    want = float(np.max(np.sum(np.abs(dense), axis=1)))
    assert want > 0.0
    assert abs(est - want) <= 4 * np.spacing(want)


def test_fix_omega_traced_peak_is_bounded():
    """One fix_omega on the K = 8 twin-rPD window at t = 0.01 holds the
    per-torus blocks and a lambda update, not a dense square map of all
    322 unknowns (1.62 MiB traced)."""
    st = GluingState.central(catalog("twin-rPD"), 0.01, K=8)
    assert oracles.traced_peak_mib(fix_omega, st) < 0.25


def test_noncontraction_raises():
    st = GluingState.central(catalog("rPD"), 0.0)
    st.t = 0.06
    with pytest.raises(NonContractionError):
        fix_omega(st)


def test_doubled_contour_nodes_agree(monkeypatch):
    cfg = catalog("rPD")
    coarse = GluingState.central(cfg, 0.01)
    with monkeypatch.context() as m:
        m.setattr(opening, "CIRCLE_NODES", 512)
        fine = GluingState.central(cfg, 0.01)
    assert fine.circle(0, "node").dz.size == 2 * coarse.circle(0, "node").dz.size
    sa = fix_omega(coarse)
    sb = fix_omega(fine)
    assert np.max(np.abs(sa.lam - sb.lam)) < 1e-12
    tor = coarse.torus(0)
    z = np.array([0.41 + 0.23 * tor.tau])
    for n in (2, 8):
        pa = second_kind_form(coarse, 0, "+", n, z)[0]
        pb = second_kind_form(fine, 0, "+", n, z)[0]
        assert abs(pa - pb) < 1e-11 * max(1.0, abs(pa))


def test_laurent_reconstruction(rpd):
    st, series = rpd
    lc = laurent_coeffs(st, series, 0, 12)
    assert abs(lc.c0 + 1.0) < 1e-9
    tor = st.torus(0)
    for r, tol in ((st.t, 1e-10), (math.sqrt(st.t), 1e-7)):
        for ang in np.linspace(0.1, 6.0, 7):
            w = r * np.exp(1j * ang)
            z = neck_point(st, 0, "+", w)
            dzdw = -tor.g(z) ** 2 / oracles.gp(tor, z)
            direct = omega_eval(st, series, 0, np.array([z]))[0] * dzdw
            assert abs(oracles.neck_laurent_value(lc, w) - direct) < tol


def test_laurent_singular_decay(rpd):
    st, series = rpd
    lc = laurent_coeffs(st, series, 0, 8)
    t = st.t
    mags = np.array([abs(c) * t ** (2 * n) for n, c in enumerate(lc.c_minus, start=1)])
    envelope = (t**2 / st.epsilon) ** np.arange(1, len(mags) + 1)
    assert np.all(mags <= envelope)


def test_laurent_matches_lambda_ladder(rpd):
    # the residue identity ties interior Laurent data to the fixed point
    st, series = rpd
    for k in (0, 1):
        j = st.index_of(k)
        lc = laurent_coeffs(st, series, k, st.n_max)
        for n in range(1, st.n_max):
            lhs = st.t ** (2 * n) * lc.c_minus[n - 1]
            rhs = st.rho**n * series.lam[j, 0, n - 1]
            assert abs(lhs - rhs) < 1e-13 + 1e-6 * abs(rhs)


def test_annulus_pullback(rpd):
    st, series = rpd
    t = st.t
    errs = {}
    for r in (t, 0.05):
        worst = 0.0
        for k in (0, 1):
            tk = st.torus(k)
            tn = st.torus(k + 1)
            for ang in (0.4, 1.9, 3.7, 5.5):
                w = r * np.exp(1j * ang)
                zp = neck_point(st, k, "+", w)
                lhs = omega_eval(st, series, k, np.array([zp]))[0]
                lhs *= -tk.g(zp) ** 2 / oracles.gp(tk, zp)
                zm = neck_point(st, k + 1, "-", t * t / w)
                rhs = omega_eval(st, series, k + 1, np.array([zm]))[0]
                rhs *= (-tn.g(zm) ** 2 / oracles.gp(tn, zm)) * (-t * t / w**2)
                worst = max(worst, abs(lhs - rhs))
        errs[r] = worst
    assert errs[t] < 1e-11
    assert errs[0.05] < 5e-7
    assert errs[t] < errs[0.05]


def test_cyclic_state_is_a_window_without_buffer():
    """A periodic stack without K is stored from k_lo = 0 with no buffer
    and both tail periods its length, so the window fold is k mod n."""
    names = [name for name in CATALOG_NAMES if catalog(name).is_periodic()]
    assert len(names) >= 8
    for name in names:
        st = GluingState.central(catalog(name), 0.0)
        n = st.n_tori
        assert (st.n_buffer, st.k_lo) == (0, 0), name
        assert st.left_period == st.right_period == n, name
        assert all(st.index_of(k) == k % n for k in range(-3 * n, 3 * n + 1)), name


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.01])
def test_gluing_scale_must_be_finite_and_nonnegative(t):
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {t}"):
        GluingState.central(catalog("rPD"), t)


def test_nan_contraction_estimate_is_refused(monkeypatch):
    """A NaN in the neck-matching system gives a NaN contraction estimate,
    which is refused before the iteration, not after FIX_MAX_ITER steps."""
    st = GluingState.central(catalog("rPD"), 0.01)
    mat, vec, nbr = _fixed_point_system(st)
    mat[0, 0, 0, 0] = np.nan
    monkeypatch.setattr(opening, "_fixed_point_system", lambda st: (mat, vec, nbr))
    with pytest.raises(NonContractionError, match="contraction estimate nan is not below 1"):
        fix_omega(st)


def test_unconverged_fixed_point_raises(monkeypatch):
    st = GluingState.central(catalog("rPD"), 0.01)
    monkeypatch.setattr(opening, "FIX_MAX_ITER", 1)
    with pytest.raises(NonContractionError, match=r"t=0\.01.*last step.*contraction estimate"):
        fix_omega(st)


def test_chart_radius_checks_each_distinct_torus_once(monkeypatch):
    tori = opening.central_layout(catalog("twin-rPD"), 8)[0]
    distinct = list({(T.tau, T.v): T for T in tori}.values())
    assert (len(tori), len(distinct)) == (23, 4)
    calls, trials = [], []
    invert, disjoint = opening._invert_chart, opening._charts_disjoint

    def counted_invert(T, sign, w):
        calls.append(T)
        return invert(T, sign, w)

    def counted_disjoint(tori, eps):
        trials.append(eps)
        return disjoint(tori, eps)

    monkeypatch.setattr(opening, "_invert_chart", counted_invert)
    monkeypatch.setattr(opening, "_charts_disjoint", counted_disjoint)
    eps = opening._chart_radius(tori)
    assert trials and len(calls) <= 2 * len(distinct) * len(trials)
    monkeypatch.undo()
    assert eps == opening._chart_radius(distinct)


@pytest.mark.parametrize("name, builds", [("twin-rPD", 4), ("reference", 2)])
def test_equal_tori_share_one_cache_from_construction(name, builds, monkeypatch):
    """The K = 8 window stores 23 tori; construction builds one cache per
    distinct parameter block in one grouped build, and equal tori hold the
    same `LayerRows`."""
    calls, circle_sets = [], opening._circle_sets

    def counted(st, tori, *args):
        calls.append(tori)
        return circle_sets(st, tori, *args)

    monkeypatch.setattr(opening, "_circle_sets", counted)
    twin = catalog("twin-rPD")
    st = GluingState.central(twin if name == "twin-rPD" else upper_reference(twin), 0.0, K=8)
    assert (st.n_tori, [len(tori) for tori in calls]) == (23, [builds])
    keys = [T.block().tobytes() for T in st.tori]
    assert len(set(keys)) == builds
    for i, j in itertools.combinations(range(st.n_tori), 2):
        assert (st._layers[i] is st._layers[j]) == (keys[i] == keys[j]), (i, j)


def test_torus_is_a_frozen_value():
    T = opening.central_layout(catalog("rPD"))[0][1]
    with pytest.raises(FrozenInstanceError):
        T.a = -0.4
    back = TorusData.from_block(T.block())
    assert back.block().tobytes() == T.block().tobytes()
    assert [back.bhat, back.a, back.tau, back.v] == [T.bhat, T.a, T.tau, T.v]


def test_replacing_one_torus_of_a_shared_group():
    """A torus put in place of one member of a shared group and refreshed
    alone leaves the other members' caches as they were: every residual
    row equals that of a state built fresh on the same tori, bit for bit."""
    st = GluingState.central(catalog("twin-rPD", K=2), 0.01, K=4)
    j = st.index_of(3)
    group = [i for i in range(st.n_tori) if st._layers[i] is st._layers[j]]
    assert len(group) > 2
    before = full_residual(st, fix_omega(st)).entries
    T = st.tori[j]
    st.tori[j] = replace(T, bhat=T.bhat + (0.004 + 0.002j), v=T.v + 0.002)
    st.refresh([j])
    assert st._layers[j] is not st._layers[group[0]]
    assert all(st._layers[i] is st._layers[group[-1]] for i in group if i != j)
    fresh = GluingState(t=st.t, tori=list(st.tori), k_lo=st.k_lo, epsilon=st.epsilon,
                        tau_ref=st.tau_ref, q0_ref=st.q0_ref, left_period=st.left_period,
                        right_period=st.right_period, n_buffer=st.n_buffer)
    series, fresh_series = fix_omega(st), fix_omega(fresh)
    assert np.array_equal(series.lam, fresh_series.lam)
    got, want = full_residual(st, series), full_residual(fresh, fresh_series)
    assert np.array_equal(got.entries, want.entries)
    assert not np.array_equal(got.entries[j], before[j])


def test_refresh_without_a_map_reuses_the_sets_the_state_holds(monkeypatch):
    """A torus put in place of another stored torus and refreshed alone,
    on a state built without shared_rows, takes the set that the state
    already holds for those bits: nothing is built, and every residual
    row equals that of a state built fresh on the same tori."""
    st = GluingState.central(catalog("twin-rPD", K=2), 0.01, K=4)
    assert st._layers[5] is not st._layers[6]
    builds, circle_sets = [], opening._circle_sets

    def counted(st, tori, *args):
        builds.append(tori)
        return circle_sets(st, tori, *args)

    monkeypatch.setattr(opening, "_circle_sets", counted)
    st.tori[5] = st.tori[6]
    st.refresh([5])
    assert st._layers[5] is st._layers[6]
    assert [len(tori) for tori in builds] == [0]
    monkeypatch.undo()
    fresh = GluingState(t=st.t, tori=list(st.tori), k_lo=st.k_lo, epsilon=st.epsilon,
                        tau_ref=st.tau_ref, q0_ref=st.q0_ref, left_period=st.left_period,
                        right_period=st.right_period, n_buffer=st.n_buffer)
    series, fresh_series = fix_omega(st), fix_omega(fresh)
    assert np.array_equal(series.lam, fresh_series.lam)
    assert np.array_equal(full_residual(st, series).entries,
                          full_residual(fresh, fresh_series).entries)


def test_replaced_state_shares_no_list_with_its_original():
    """A state made by dataclasses.replace holds its own tori and _layers
    lists, so a torus put in place and refreshed on the copy leaves the
    original's torus and cache as they were."""
    st = GluingState.central(catalog("rPD"), 0.01)
    torus, layer = st.tori[0], st._layers[0]
    cp = replace(st, t=0.011)
    assert cp.tori is not st.tori and cp._layers is not st._layers
    cp.tori[0] = replace(torus, bhat=0.01 - 0.02j)
    cp.refresh([0])
    assert cp._layers[0] is not layer
    assert st.tori[0] is torus and st._layers[0] is layer


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.1, 0.0, -0.0])
def test_state_refuses_a_bad_chart_radius_before_any_build(epsilon, monkeypatch):
    """A GluingState built directly, or replaced with a new epsilon, whose
    chart radius is not finite and positive raises a ChartError naming
    it before any cache is built."""
    st = GluingState.central(catalog("rPD"), 0.01)

    def build(*args, **kw):  # pragma: no cover - the failure under test
        raise AssertionError("built caches at a bad chart radius")

    monkeypatch.setattr(opening, "_circle_sets", build)
    tori = opening.central_layout(catalog("rPD"))[0]
    for make in (lambda: GluingState(t=0.01, tori=tori, k_lo=0, epsilon=epsilon),
                 lambda: replace(st, epsilon=epsilon, _layers=None)):
        with pytest.raises(ChartError, match=f"epsilon = {epsilon} is not a finite positive"):
            make()


def test_window_fold(rpdh):
    st, series = rpdh
    assert st.n_buffer > 0
    assert series.update_norms[-1] < FIX_TOL
    cfg = catalog("rPD-H", K=2)
    for k in range(st.k_lo - 6, st.k_hi + 7):
        tor = st.torus(k)
        assert abs(tor.v - mirror_conj(cfg.q(k), k)) < 1e-14
        assert abs(tor.tau - mirror_conj(cfg.tau, k)) < 1e-14
    for k in (st.k_hi + 1, st.k_hi + 4, st.k_lo - 1, st.k_lo - 3):
        assert (st.index_of(k) + st.k_lo) % 2 == k % 2


def test_window_gamma_periods(rpdh):
    st, series = rpdh
    for k in (st.k_lo, 0, st.k_hi):
        cc = st.circle(k, "zero")
        gamma = np.sum(omega_on_circle(st, series, k, "zero") * cc.dz)
        assert abs(gamma - 2j * np.pi) < 1e-8


def _perturbed(st, k):
    """Move layer k off the central data so every coefficient is generic."""
    j = st.index_of(k)
    T = st.tori[j]
    st.tori[j] = replace(T, a=T.a + (0.013 - 0.007j), bhat=T.bhat + (0.004 + 0.002j),
                         v=T.v + (0.002 - 0.003j))
    st.refresh([j])
    return j


@pytest.mark.parametrize("name, K, k", [("rPD", None, 1), ("twin-rPD", 3, 0)])
def test_fused_caches_match_multipass_recipe(name, K, k):
    """refresh, omega_eval and the (g, g') evaluators take each torus point
    set through one jet pair and must reproduce the separate-call recipe
    bit for bit."""
    st = GluingState.central(catalog(name, K=2), 0.01, K=K)
    j = _perturbed(st, k)
    T = st.tori[j]
    r, m = st.contour_radius, CIRCLE_NODES
    forms = oracles.multipass_forms(T, st.n_max, r, m)
    table = st._layers[j].forms
    assert table.coeffs.shape == (2, st.n_max - 1, st.n_max - 1, 1)
    assert not np.any(np.triu(table.coeffs[..., 0], 1))
    assert len(forms) == 2 * (st.n_max - 1)
    for (s, n), ref in forms.items():
        got = oracles.form_view(st, k, "+-"[s], n)
        assert (got.pole, got.order, got.coeffs, got.mu) == \
            (ref.pole, ref.order, ref.coeffs, ref.mu)
    for side, center in (("node", T.v), ("zero", 0.0)):
        ref = oracles.multipass_circle(T, forms, center, st.n_max, st.rho, r, m)
        cc = st.circle(k, side)
        # the state's circle in its one parameter row
        got = {"dz": cc.dz, "g": cc.g[0], "gp": cc.gp[0], "w0": cc.w0[0],
               "fvals": cc.fvals[:, :, 0], "base": cc.base, "cols": cc.cols}
        for field_name, value in got.items():
            assert np.array_equal(value, getattr(ref, field_name)), (side, field_name)

    series = fix_omega(st)
    assert np.any(series.lam[j] != 0)
    z = path_base(T) + np.linspace(0.05, 0.95, 9) * (0.6 + 0.3 * T.tau)
    assert np.array_equal(omega_eval(st, series, k, z),
                          oracles.multipass_omega(st, series, k, z))
    gv, _ = gauss_and_omega(st, series, k, z)
    assert np.array_equal(gv, T.g(z))
    g2, gp = T.g_and_gp(z)
    assert np.array_equal(g2, T.g(z))
    assert isinstance(T.g(complex(z[3])), complex)
    assert np.array_equal(gp, oracles._gp_multipass(T, z))
    # a single point takes the array path: the bits of that point in z
    got = omega_eval(st, series, k, complex(z[3]))
    assert isinstance(got, complex)
    assert got == oracles.multipass_omega(st, series, k, z)[3]


@pytest.mark.parametrize("name, K, k", [("rPD", None, 1), ("twin-rPD", 3, 0)])
def test_form_table_matches_per_form_loop(name, K, k):
    """The form table evaluates all orders of one pole at once and must
    give the bits of the per-form loop on the contour circles, on a
    period path and at a 2-D z.  The table has one parameter row, so the
    wp stack takes a row axis of length one.

    A single point, scalar or 0-d, gives the bits of the same point in a
    one-point array.  Its orders share one array loop, which rounds
    unlike the per-form loop's scalars (by about 3e-16 here), so against
    that loop it agrees to 1e-15 only."""
    st = GluingState.central(catalog(name, K=2), 0.01, K=K)
    j = _perturbed(st, k)
    T, table = st.tori[j], st._layers[j].forms
    assert table.coeffs.shape == (2, st.n_max - 1, st.n_max - 1, 1)
    assert not np.any(np.triu(table.coeffs[..., 0], 1))
    z0 = path_base(T)
    line = z0 + np.linspace(0.05, 0.95, 6) * (0.6 + 0.3 * T.tau)
    points = {
        "circle": oracles.circle_nodes(st, k, "node"),
        "path": z0 + (np.arange(512) + 0.5) / 512 * T.tau,
        "2-D": line.reshape(2, 3) + np.array([[0.0], [0.03j]]),
    }
    single = {"scalar": complex(line[2]), "0-d": np.asarray(line[2])}
    for s, sign in enumerate("+-"):
        pole = (T.v, 0.0)[s]
        for label, z in points.items():
            derivs = weierstrass_jet(np.asarray(z, complex) - pole, T.lattice, st.n_max - 2)[1]
            got = table.values(s, derivs[:, None])
            assert got.shape == (st.n_max - 1, 1) + np.shape(z)
            for n in range(2, st.n_max + 1):
                ref = oracles.form_value_from_derivs(
                    oracles.form_view(st, k, sign, n), derivs)
                assert np.array_equal(got[n - 2, 0], ref), (sign, label, n)
                assert np.shape(got[n - 2, 0]) == np.shape(ref)
        for label, z in single.items():
            derivs = weierstrass_jet(np.asarray(z, complex) - pole, T.lattice, st.n_max - 2)[1]
            got = table.values(s, derivs[:, None])
            assert got.shape == (st.n_max - 1, 1)
            assert np.array_equal(got, table.values(s, derivs[:, None, None])[..., 0])
            for n in range(2, st.n_max + 1):
                ref = oracles.form_value_from_derivs(
                    oracles.form_view(st, k, sign, n), derivs)
                assert abs(got[n - 2, 0] - ref) <= 1e-15 * abs(ref), (sign, label, n)
        side = ("node", "zero")[s]
        cc, nodes = st.circle(k, side), oracles.circle_nodes(st, k, side)
        for n in range(2, st.n_max + 1):
            ref = second_kind_form(st, k, sign, n, nodes)
            assert np.array_equal(cc.fvals[s, n - 2, 0], ref), (sign, n)


def test_form_table_mu_follows_the_complex_expression():
    """mu = -2 pi i Im(c_2) / Im(tau) as the complex expression rounds it,
    signed zeros included: a vanishing g' gives c_2 = 0 and mu = +0j."""
    st = GluingState.central(catalog("rPD"), 0.01)
    T = st.tori[0]
    z, dz = _circle_nodes(0.0, st.contour_radius, 64)
    zpow = np.stack([z ** p for p in range(1, st.n_max)])
    # g, g' and the contour powers of one parameter row
    flat = (np.ones((1, 64), complex), np.zeros((1, 64), complex), zpow[:, None])
    for table in (st._layers[0].forms,
                  _build_forms([T], st.n_max, dz, {"node": flat, "zero": flat})):
        for s in (0, 1):
            for n in range(2, st.n_max + 1):
                c2 = table.coeffs[s, n - 2, 0, 0]
                want = -2j * np.pi * c2.imag / T.lattice.tau.imag
                assert repr(complex(table.mu[s, n - 2, 0])) == repr(want)


def test_held_jets_give_the_bits_of_the_kernel():
    """A set that _point_sets finds in held takes zeta(z) - zeta(z - v),
    wp and wp' from there and its higher orders from the kernel's
    recurrence: every order of every set equals a run with nothing held,
    bit for bit, when one, two or all of the run's sets are held.  With
    keep it adds the sets it evaluated, as arrays of their own."""
    tori = [TorusData(a=-0.5, bhat=0j, tau=tau, v=v) for tau, v in (
        (0.1 + 1.2j, 0.47 + 0.58j), (-0.1 + 1.2j, 0.3 + 0.2j), (0.1 + 1.2j + 1e-6, 0.47 + 0.58j))]
    run = [[0], [1], [2]]
    points = lambda T: 0.5 * T.v + np.linspace(0.0, 0.3, 16) * (1 + T.tau)
    want = opening._point_sets(tori, run, points, 6)
    for first in ([[0]], [[0], [2]], run):
        held = {}
        opening._point_sets(tori, first, points, 6, held, True)
        assert len(held) == len(first)
        assert all(x.base is None for arrays in held.values() for x in arrays)
        got = opening._point_sets(tori, run, points, 6, held)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_jet_pair_matches_two_kernel_calls():
    """The stacked z, z - v call returns the bits of two separate array
    calls, shapes and types included: the wp stacks, and the difference
    of their zeta values."""
    T = TorusData(a=-0.49 + 0.01j, bhat=0.003j, tau=0.1 + 1.2j, v=0.47 + 0.58j)
    lat = T.lattice
    z0 = 0.21 + 0.13j
    line = z0 + np.linspace(0.0, 0.9, 7) * (0.6 + 0.3 * T.tau)
    grid = line.reshape(1, 7) + np.array([[0.0], [0.05j]])
    for z in (line, grid):
        for jmax in (-1, 0, 6):
            s, *got = T.jets(z, jmax)
            (rz, rd), (rzv, rdv) = (weierstrass_jet(w, lat, jmax) for w in (z, z - T.v))
            assert type(s) is type(rz - rzv) and s.shape == np.shape(rz)
            assert np.array_equal(s.view(np.int64), (rz - rzv).view(np.int64))
            for gd, rd in zip(got, (rd, rdv)):
                assert gd.shape == rd.shape
                assert np.array_equal(gd.view(np.int64), rd.view(np.int64))
