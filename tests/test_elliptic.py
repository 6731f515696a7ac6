import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackedmin.configs import CATALOG_NAMES, catalog
from stackedmin.hecke import hecke_G
from stackedmin.elliptic import (
    Lattice,
    PoleError,
    TorusPoint,
    _theta_sums,
    lattice_coords,
    reduce_centered,
    theta_star,
    torus_distance,
    weierstrass_jet,
    xi_raw,
    zeta,
)

import oracles
from oracles import xi

TAU_SAMPLES = [1j, 2j, np.exp(1j * np.pi / 3), 0.2 + 0.35j, -0.4 + 1.7j]


def taus(min_im=0.3, max_im=3.0):
    return st.builds(
        complex,
        st.floats(-0.5, 0.5),
        st.floats(min_im, max_im),
    )


def test_legendre_relation_holds_by_construction():
    for tau in TAU_SAMPLES:
        lat = Lattice(tau)
        assert abs(lat.eta1 * lat.tau - lat.eta2 - 2j * np.pi) < 1e-14


def test_eta_from_half_period_values():
    # eta1 = 2 zeta(1/2), eta2 = 2 zeta(tau/2)
    for tau in TAU_SAMPLES:
        lat = Lattice(tau)
        assert abs(2 * zeta(0.5, lat) - lat.eta1) < 1e-12
        assert abs(2 * zeta(tau / 2, lat) - lat.eta2) < 1e-12


def test_zeta_oddness():
    lat = Lattice(1j)
    z = 0.3 + 0.2j
    assert abs(zeta(-z, lat) + zeta(z, lat)) < 1e-12


def test_zeta_quasi_periodicity():
    lat = Lattice(1j)
    z = 0.3 + 0.2j
    assert abs(zeta(z + 1, lat) - zeta(z, lat) - lat.eta1) < 1e-12
    assert abs(zeta(z + lat.tau, lat) - zeta(z, lat) - lat.eta2) < 1e-12


def test_zeta_against_lattice_sum_oracle():
    rng = np.random.default_rng(7)
    for tau in [1j, 2j, np.exp(1j * np.pi / 3)]:
        lat = Lattice(tau)
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * tau.imag)
            ref = oracles.zeta_lattice_sum(z, complex(tau))
            assert abs(zeta(z, lat) - ref) < 1e-9


def test_zeta_vectorized_matches_scalar():
    lat = Lattice(2j)
    zs = np.array([0.3 + 0.1j, 0.7 + 1.1j, -2.3 + 0.9j])
    vec = zeta(zs, lat)
    for i, z in enumerate(zs):
        assert vec[i] == zeta(complex(z), lat)


def test_pole_error_near_lattice():
    lat = Lattice(1j)
    with pytest.raises(PoleError):
        zeta(1e-8, lat)
    with pytest.raises(PoleError):
        weierstrass_jet(1 + 1j * 1e-9 + lat.tau, lat, 0)[1][0]


@settings(max_examples=30, deadline=None)
@given(taus(), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
def test_zeta_quasi_periodicity_property(tau, x, y):
    lat = Lattice(tau)
    z = x + y * tau
    assert abs(zeta(z + 1, lat) - zeta(z, lat) - lat.eta1) < 1e-11
    assert abs(zeta(z - tau, lat) - zeta(z, lat) + lat.eta2) < 1e-11


def test_wp_evenness():
    lat = Lattice(2j)
    z = 0.4 + 0.1j
    assert abs(weierstrass_jet(z, lat, 0)[1][0] - weierstrass_jet(-z, lat, 0)[1][0]) < 1e-12
    assert abs(weierstrass_jet(z, lat, 1)[1][1] + weierstrass_jet(-z, lat, 1)[1][1]) < 1e-11


def test_wp_differential_equation():
    # (wp')^2 = 4 wp^3 - g2 wp - g3 with invariants from an independent sum
    rng = np.random.default_rng(3)
    for tau in [1j, np.exp(1j * np.pi / 3), 0.2 + 0.35j]:
        lat = Lattice(tau)
        g2, g3 = oracles.invariants_lattice_sum(complex(tau))
        assert abs(lat.g2 - g2) < 2e-9
        assert abs(lat.g3 - g3) < 2e-9
        for _ in range(4):
            z = complex(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85) * tau.imag)
            p = weierstrass_jet(z, lat, 0)[1][0]
            dp = weierstrass_jet(z, lat, 1)[1][1]
            assert abs(dp**2 - (4 * p**3 - lat.g2 * p - lat.g3)) < 1e-10 * max(1.0, abs(p) ** 3)


def test_wp_is_minus_zeta_prime():
    lat = Lattice(1j)
    z = 0.37 + 0.21j
    h = 1e-5
    fd = (zeta(z + h, lat) - zeta(z - h, lat)) / (2 * h)
    assert abs(-fd - weierstrass_jet(z, lat, 0)[1][0]) < 1e-6


def test_wp_derivs_ladder_matches_finite_differences():
    lat = Lattice(np.exp(1j * np.pi / 3))
    z = 0.31 + 0.42j
    d = weierstrass_jet(z, lat, 4)[1]
    h = 1e-5
    fd2 = (weierstrass_jet(z + h, lat, 1)[1][1] - weierstrass_jet(z - h, lat, 1)[1][1]) / (2 * h)
    assert abs(fd2 - d[2]) < 1e-5 * max(1.0, abs(d[2]))
    fd3 = (weierstrass_jet(z + h, lat, 2)[1][2] - weierstrass_jet(z - h, lat, 2)[1][2]) / (2 * h)
    assert abs(fd3 - d[3]) < 1e-4 * max(1.0, abs(d[3]))


MPMATH_TAUS = [0.3j, 1j, 3j, complex(np.exp(1j * np.pi / 3)), 0.45 + 0.35j, -0.2 + 0.7j,
               0.15j, 8j]


@pytest.mark.parametrize("tau", MPMATH_TAUS)
def test_kernel_matches_mpmath(tau):
    pytest.importorskip("mpmath")
    lat = Lattice(tau)
    generic = 0.31 + 0.58 * tau
    ring = np.exp(2j * np.pi * (np.arange(4) + 0.125) / 4)
    z = np.array([generic] + [
        c + r * e
        for c in (0.0, 0.5, tau / 2, (1 + tau) / 2, generic)
        for r in (1e-3, 1e-2, 1e-1)
        for e in ring
    ])
    ref_zeta, ref_wp, ref_dwp = np.array(
        [oracles.weierstrass_mpmath(p, tau) for p in z]).T
    got_zeta, (got_wp, got_dwp) = weierstrass_jet(z, lat, 1)

    def rel(got, ref, scale):
        return np.max(np.abs(got - ref) / np.maximum(scale, 1.0))

    # relative error, floored at 1 where a value passes through zero
    # (wp((1+i)/2) = 0 on the square lattice); wp' vanishes at the
    # half-periods and is measured on the scale of |wp|^(3/2)
    assert rel(got_zeta, ref_zeta, np.abs(ref_zeta)) < 1e-13
    assert rel(got_wp, ref_wp, np.abs(ref_wp)) < 1e-13
    scale = np.maximum(np.abs(ref_dwp), np.abs(ref_wp) ** 1.5)
    assert rel(got_dwp, ref_dwp, scale) < 1e-13


def test_flat_moduli_refuse_an_unconverged_eisenstein_series():
    """Near Im tau = 0.01 the q-series of eta1 and g3 are cut before they
    converge; such a modulus raises instead of building a lattice with
    wrong invariants.  At 0.02i the weight-6 series ends at its cap below
    the unit roundoff, and the lattice still builds."""
    pytest.importorskip("mpmath")
    for tau in (0.01j, 0.3 + 0.01j):
        with pytest.raises(ValueError, match=r"weight-\d Eisenstein series at tau=.*unconverged"):
            Lattice(tau)
    lat = Lattice(0.02j)
    eta1, g3 = oracles.invariants_mpmath(0.02j)
    assert abs(lat.eta1 - eta1) <= 1e-13 * abs(eta1)
    assert abs(lat.g3 - g3) <= 1e-13 * abs(g3)


def _theta_args(tau):
    """pi times reduced points: random ones, 0 and -0.0 in both parts, the
    axes, the half-periods and reduced coordinates at +-1/2."""
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-0.5, 0.5, (2, 40))
    edge = np.array([a + b * tau for a in (-0.5, 0.0, 0.25, 0.5) for b in (-0.5, 0.5)])
    half = np.array([0.5, tau / 2, (1 + tau) / 2, -0.5, -tau / 2, 0.3, -0.3, 0.2j, -0.2j])
    zr = reduce_centered(np.concatenate([x + y * tau, edge, half]), tau)[0]
    zeros = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                      complex(0.3, -0.0), complex(-0.3, -0.0), complex(-0.0, 0.2)])
    return np.concatenate([np.pi * zr, zeros])


def _row_args(tau):
    """Arguments whose rows along the last axis share one imaginary part:
    the alpha period path's (sets, 2, 512) of pi times reduced points,
    rows at +0 and -0 with real parts of both signs, a row and an array
    that differ in one entry, 0-d and 1-D; then the same imaginary parts
    scattered: the path shuffled by a fixed permutation and transposed,
    and the +-0 rows interleaved with a row of one non-zero part."""
    s = (np.arange(512) + 0.5) / 512
    base = np.array([0.31 + 0.4 * tau, -0.2 + 0.1 * tau, 0.45 - 0.3 * tau])[:, None, None]
    v = np.array([0.1 + 0.2 * tau, 0.3 - 0.1 * tau, 0.2 + 0.3 * tau])[:, None, None]
    path = np.pi * reduce_centered(base - np.array([0, 1])[:, None] * v + s, tau)[0]
    x = np.array([-1.5, -0.7, -0.0, 0.0, 0.4, 1.2])
    zeros = np.stack([x + 0j, x - 0j, x.astype(complex)])
    zeros[1].imag, zeros[2].imag = -0.0, 0.0
    row = x + 0.25j
    off = row.copy()
    off[2] += 1e-3j
    mixed = np.stack([row, row + 0.5j, off])
    shuffled = path.reshape(-1)[np.random.default_rng(11).permutation(path.size)]
    interleaved = np.stack([zeros[0], row, zeros[1], zeros[2], row], axis=-1).reshape(-1)
    return [path, zeros, zeros[1], row, off, mixed, complex(row[0]), np.asarray(row[1]),
            shuffled.reshape(path.shape), path.T, interleaved]


@pytest.mark.parametrize("tau", MPMATH_TAUS + [41j, 0.1j])
def test_theta_pass_matches_complex_trig(tau):
    """The shared-factor pass is the complex-sin/cos pass bit for bit,
    signed zeros included, and keeps its shapes and scalar types; the
    flat moduli cover a long series, and entries of one imaginary part,
    in rows or scattered, share cosh and sinh with the same bits."""
    lat = Lattice(tau)
    if tau in (0.15j, 0.1j):
        assert lat.n_terms == {0.15j: 11, 0.1j: 14}[tau]
    v = _theta_args(lat.tau)
    shaped = np.stack([v, v[::-1], -v, np.conj(v), v / 2, v / 3]).reshape(3, 2, -1)
    inputs = [v, shaped, complex(v[3]), np.asarray(v[5]), v[-1], np.asarray(v[-4])]
    inputs += _row_args(lat.tau)
    for arg in inputs:
        for kmax in (1, 3):
            got = _theta_sums(arg, lat.nome, lat.n_terms, kmax)
            ref = oracles.theta_sums_complex_trig(arg, lat.nome, lat.n_terms, kmax)
            assert len(got) == len(ref) == kmax + 1
            for g, r in zip(got, ref):
                assert type(g) is type(r) and np.shape(g) == np.shape(r)
                assert np.array_equal(np.reshape(g, -1).view(np.int64),
                                      np.reshape(r, -1).view(np.int64))


def test_lattice_rejects_moduli_whose_theta_pass_overflows():
    s = np.linspace(-0.5, 0.5, 11)
    lat = Lattice(451j)
    assert lat.n_terms == 1
    z = 0.25 + 1j * s * lat.tau.imag
    zr = reduce_centered(z, lat.tau)[0]
    assert np.array_equal(lattice_coords(zr, lat.tau)[1][[0, -1]], [-0.5, 0.5])
    zeta_v, derivs = weierstrass_jet(z, lat, 3)
    assert np.all(np.isfinite(zeta_v)) and np.all(np.isfinite(derivs))
    with pytest.raises(ValueError, match=r"tau=452j.*709"):
        Lattice(452j)


CATALOG_TAUS = sorted({catalog(name).tau for name in CATALOG_NAMES}, key=lambda t: (t.imag, t.real))


@pytest.mark.parametrize("mirror", [False, True], ids=["tau", "mirror"])
@pytest.mark.parametrize("tau", CATALOG_TAUS)
def test_truncated_theta_pass_matches_the_fixed_rule(tau, mirror):
    """Dropping the terms below the bound leaves every word of the pass
    unchanged on the catalog moduli and their mirrors -conj(tau)."""
    tau = -np.conj(tau) if mirror else tau
    lat = Lattice(tau)
    old = oracles.n_terms_fixed_rule(tau)
    assert lat.n_terms < old
    x, y = np.random.default_rng(13).uniform(-0.5, 0.5, (2, 20000))
    zr = reduce_centered(x + y * lat.tau, lat.tau)[0]
    v = np.concatenate([np.pi * zr, _theta_args(lat.tau)])
    got = _theta_sums(v, lat.nome, lat.n_terms, 3)
    ref = _theta_sums(v, lat.nome, old, 3)
    for g, r in zip(got, ref):
        assert np.array_equal(g.view(np.int64), r.view(np.int64))


def test_theta_term_counts_are_pinned():
    assert Lattice(np.exp(1j * np.pi / 3)).n_terms == 5
    assert Lattice(1j).n_terms == 5
    assert Lattice(1.25j).n_terms == 4


@pytest.mark.parametrize("tau", [200j, 451j])
def test_tall_lattices_build_without_overflow(tau):
    # |q| underflows and cosh overflows here, so the bound must be taken in logs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Lattice(tau).n_terms == 1


def test_views_share_the_jet():
    lat = Lattice(0.2 + 0.9j)
    z = np.array([0.13 + 0.4j, -0.7 + 0.05j, 1.9 - 2.2j])
    zeta_v, derivs = weierstrass_jet(z, lat, 5)
    assert derivs.shape == (6, 3)
    assert np.array_equal(zeta(z, lat), zeta_v)
    zeta_only, empty = weierstrass_jet(z[0], lat, -1)
    assert zeta_only == zeta(z[0], lat) and empty.shape == (0,)
    assert isinstance(zeta_only, complex)
    with pytest.raises(PoleError):
        weierstrass_jet(np.array([0.3, 1.0 + 1e-9j]), lat, 2)
    with pytest.raises(ValueError):
        weierstrass_jet(z, lat, -2)


HEX = complex(np.exp(1j * np.pi / 3))


def _signed_zero_points(v: complex):
    """(2, 9) rows z and z - v, with +0 and -0 imaginary parts on both."""
    z = np.empty(9, dtype=complex)
    z.real = [0.3, 0.3, -0.45, -0.45, 0.11, 0.0, -0.0, 0.2, 0.37]
    z.imag = [0.0, -0.0, 0.0, -0.0, 0.27, 0.31, -0.29, 0.6, -0.0]
    zv = z - v
    zv.imag[:2] = [0.0, -0.0]
    return np.stack([z, zv])


@pytest.mark.parametrize("taus", [
    pytest.param([HEX, -HEX.conjugate(), HEX + 1e-6j], id="hexagonal-mirror-moved"),
    pytest.param([1.2j, -(1.2j).conjugate(), 1.2j + 1e-6, 0.3 + 1.2j],
                 id="rectangular-sheared"),
])
def test_set_axis_jet_matches_a_call_per_modulus(taus):
    """One jet call over a leading set axis of moduli of one n_terms,
    whose lattice constants enter as broadcast columns, gives each set the
    bits of a call on its own lattice: mirrored, finite-difference moved
    and sheared moduli, and points with +0 and -0 imaginary parts."""
    lats = [Lattice(tau) for tau in taus]
    assert len({lat.n_terms for lat in lats}) == 1
    z = np.stack([_signed_zero_points(0.4 + 0.3j + 0.01 * i) for i in range(len(lats))])
    for jmax in (-1, 0, 1, 2, 6):
        zeta_v, derivs = weierstrass_jet(z, lats, jmax)
        assert zeta_v.shape == z.shape and derivs.shape == (jmax + 1,) + z.shape
        for i, lat in enumerate(lats):
            ref_zeta, ref_derivs = weierstrass_jet(z[i], lat, jmax)
            assert zeta_v[i].tobytes() == ref_zeta.tobytes(), (jmax, i)
            assert derivs[:, i].tobytes() == ref_derivs.tobytes(), (jmax, i)


def test_set_axis_pole_error_names_the_modulus_of_its_set():
    lats = [Lattice(tau) for tau in (HEX, -HEX.conjugate(), HEX + 1e-6j)]
    z = np.full((3, 2, 4), 0.3 + 0.2j)
    z[1, 1, 2] = 1.0 + lats[1].tau  # a lattice point of the second set only
    with pytest.raises(PoleError, match=re.escape(f"tau={lats[1].tau}")):
        weierstrass_jet(z, lats, 2)
    weierstrass_jet(z[[0, 2]], [lats[0], lats[2]], 2)
    with pytest.raises(ValueError, match="share n_terms"):
        weierstrass_jet(z[:2], [Lattice(1j), Lattice(2j)], 0)


def test_torus_point_reduction_invariants():
    lat = Lattice(0.2 + 0.35j)
    p = TorusPoint.from_z(3.7 - 2.2j, lat)
    assert 0.0 <= p.x < 1.0
    assert 0.0 <= p.y < 1.0
    # representative consistency
    assert abs(p.z - (p.x + p.y * lat.tau)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(taus(), st.floats(-3, 3), st.floats(-3, 3))
def test_torus_point_translation_invariance(tau, x, y):
    lat = Lattice(tau)
    p1 = TorusPoint.from_z(x + y * tau, lat)
    p2 = TorusPoint.from_z(x + 2 + (y - 1) * tau, lat)
    assert abs(p1.x - p2.x) < 1e-9 or abs(abs(p1.x - p2.x) - 1.0) < 1e-9
    assert abs(p1.y - p2.y) < 1e-9 or abs(abs(p1.y - p2.y) - 1.0) < 1e-9


def test_xi_values():
    lat = Lattice(1j)
    assert xi(TorusPoint.from_z(0.0, lat), lat) == 0.0
    p = TorusPoint.from_z((1 + lat.tau) / 2, lat)
    assert abs(xi(p, lat) - (lat.eta1 + lat.eta2) / 2) < 1e-13

    lat3 = Lattice(np.exp(1j * np.pi / 3))
    p3 = TorusPoint.from_z((1 + lat3.tau) / 3, lat3)
    assert abs(xi(p3, lat3) - (lat3.eta1 + lat3.eta2) / 3) < 1e-12


def test_xi_raw_is_real_linear_and_matches_xi_on_reduced_points():
    lat = Lattice(0.2 + 1.4j)
    w1, w2 = 0.3 + 0.8j, -1.1 + 0.2j
    assert abs(xi_raw(w1 + w2, lat) - xi_raw(w1, lat) - xi_raw(w2, lat)) < 1e-12
    assert abs(xi_raw(2.5 * w1, lat) - 2.5 * xi_raw(w1, lat)) < 1e-12
    p = TorusPoint.from_z(0.4 + 0.7 * lat.tau, lat)
    assert abs(xi_raw(p.z, lat) - xi(p, lat)) < 1e-12


def test_xi_raw_lattice_increments():
    lat = Lattice(1.3j)
    w = 0.2 + 0.5j
    assert abs(xi_raw(w + 1, lat) - xi_raw(w, lat) - lat.eta1) < 1e-12
    assert abs(xi_raw(w + lat.tau, lat) - xi_raw(w, lat) - lat.eta2) < 1e-12


def test_torus_distance_basics():
    tau = complex(np.exp(1j * np.pi / 3))
    assert torus_distance(0.1, 0.1 + 3 + 2 * tau, tau) < 1e-12
    d = torus_distance(0.0, 0.95, tau)
    assert abs(d - 0.05) < 1e-12


@pytest.mark.parametrize("tau", [complex(np.exp(1j * np.pi / 3)), 0.45 + 0.35j, 1j])
def test_torus_distance_takes_arrays(tau):
    """An array argument gives the array of the per-point scalar calls,
    bit for bit, in the shape of the argument."""
    rng = np.random.default_rng(3)
    z = (rng.uniform(-3, 3, 24) + 1j * rng.uniform(-3, 3, 24)).reshape(4, 6)
    got = torus_distance(z, 0.2 + 0.1j, tau)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    ref = [torus_distance(p, 0.2 + 0.1j, tau) for p in z.ravel()]
    assert all(type(r) is float for r in ref)
    assert np.array_equal(got.ravel().view(np.int64), np.array(ref).view(np.int64))


def test_theta_star_value():
    """theta* = 2 atan(K(1 - m)/K(m)) at the root m of 2 E(m) = K(m),
    against mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        m = mp.findroot(lambda m: 2 * mp.ellipe(m) - mp.ellipk(m), (0.8, 0.85),
                        solver="anderson")
        ref = 2 * mp.atan(mp.ellipk(1 - m) / mp.ellipk(m))
    assert abs(theta_star() - float(ref)) < 1e-13


def test_determinism_bit_identical():
    lat1 = Lattice(0.1 + 0.9j)
    lat2 = Lattice(0.1 + 0.9j)
    z = 0.312 + 0.477j
    assert zeta(z, lat1) == zeta(z, lat2)
    assert weierstrass_jet(z, lat1, 0)[1][0] == weierstrass_jet(z, lat2, 0)[1][0]


MODULAR = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "gamma": (1, 1, 1, 2)}


@pytest.mark.parametrize("tau, name, bound", [
    *((tau, name, 1e-13) for tau in (0.2 + 1.1j, np.exp(1j * np.pi / 3), 1.25j)
      for name in MODULAR),
    # the gamma-image of 0.3 + 0.1i has Im tau = 0.019, where Lattice raises
    (0.3 + 0.1j, "S", 1e-12), (0.3 + 0.1j, "T", 1e-12),
])
def test_jet_and_hecke_form_are_modular_covariant(tau, name, bound):
    """Under tau -> (a tau + b)/(c tau + d) the lattice is scaled by
    1/(c tau + d), so at z/(c tau + d) zeta and G scale by (c tau + d) and
    wp^(j) by (c tau + d)^(j+2): each checked, entry by entry, at 48
    random points of the cell."""
    a, b, c, d = MODULAR[name]
    scale = c * tau + d
    x, y = np.random.default_rng(7).uniform(0.1, 0.9, (2, 48))
    z = x + y * tau
    lat, image = Lattice(tau), Lattice((a * tau + b) / scale)
    zeta, wp = weierstrass_jet(z, lat, 4)
    zeta_im, wp_im = weierstrass_jet(z / scale, image, 4)
    pairs = [(zeta_im, scale * zeta), (hecke_G(z / scale, image), scale * hecke_G(z, lat))]
    pairs += [(wp_im[j], scale ** (j + 2) * wp[j]) for j in range(5)]
    for got, want in pairs:
        assert np.max(np.abs(got - want) / np.abs(want)) < bound
