import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import antiholomorphic_iterate
from stackedmin.elliptic import Lattice, theta_star, torus_distance
from stackedmin.hecke import (
    ROOT_TOL,
    degeneracy_2division,
    hecke_G,
    hecke_jacobian,
    solve_G_equals_C,
)

TAU_EQUIL = complex(np.exp(1j * np.pi / 3))
LATTICES = [1j, 1.25j, 2j, TAU_EQUIL, complex(np.exp(1.1j)), complex(np.exp(1.4j)), 0.3 + 0.9j]


def test_half_periods_are_roots():
    for tau in (1j, 2j, TAU_EQUIL):
        lat = Lattice(tau)
        for w in (0.5, tau / 2, (1 + tau) / 2):
            assert abs(hecke_G(w, lat)) < 1e-10


def test_nontrivial_pair_on_equilateral_torus():
    lat = Lattice(TAU_EQUIL)
    q = (1 + lat.tau) / 3
    assert abs(hecke_G(q, lat)) < 1e-10
    assert abs(hecke_G(-q, lat)) < 1e-10


def test_lattice_periodicity():
    lat = Lattice(0.3 + 1.2j)
    q = 0.21 + 0.4j
    assert abs(hecke_G(q + 1, lat) - hecke_G(q, lat)) < 1e-11
    assert abs(hecke_G(q + lat.tau, lat) - hecke_G(q, lat)) < 1e-11


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-0.4, 0.4),
    st.floats(0.5, 2.0),
    st.floats(0.08, 0.92),
    st.floats(0.08, 0.92),
)
def test_mirror_symmetry_property(tr, ti, x, y):
    # G(-conj q; -conj tau) = -conj G(q; tau)
    tau = complex(tr, ti)
    lat = Lattice(tau)
    lat_m = Lattice(-np.conj(tau))
    q = x + y * tau
    lhs = hecke_G(-np.conj(q), lat_m)
    rhs = -np.conj(hecke_G(q, lat))
    assert abs(lhs - rhs) < 1e-10


def test_oddness():
    lat = Lattice(1.4j)
    q = 0.3 + 0.25j
    assert abs(hecke_G(-q, lat) + hecke_G(q, lat)) < 1e-11


def test_jacobian_matches_finite_differences():
    lat = Lattice(TAU_EQUIL)
    q = 0.27 + 0.33j
    J = hecke_jacobian(q, lat)
    h = 1e-5
    fd = np.empty((2, 2))
    for j, dq in enumerate((h, 1j * h)):
        d = (hecke_G(q + dq, lat) - hecke_G(q - dq, lat)) / (2 * h)
        fd[0, j] = d.real
        fd[1, j] = d.imag
    assert np.max(np.abs(J.m - fd)) < 1e-6
    assert abs(J.det - np.linalg.det(fd)) < 1e-5


def test_solution_counts():
    assert solve_G_equals_C(Lattice(TAU_EQUIL), 0).count == 5
    assert solve_G_equals_C(Lattice(1j), 0).count == 3
    assert solve_G_equals_C(Lattice(1j), 100).count == 1


def test_solution_set_invariants():
    s = solve_G_equals_C(Lattice(TAU_EQUIL), 0.7 + 0.2j)
    lat = Lattice(TAU_EQUIL)
    assert 1 <= s.count <= 5
    for r in s.roots:
        assert abs(hecke_G(r, lat) - s.C) < ROOT_TOL
    for i, r in enumerate(s.roots):
        for r2 in s.roots[i + 1 :]:
            assert torus_distance(r.z, r2.z, lat.tau) > 1e-6


def test_five_root_case_all_nondegenerate():
    s = solve_G_equals_C(Lattice(TAU_EQUIL), 0)
    assert s.count == 5
    for J in s.jacobians:
        assert abs(J.det) > 1e-8


def test_grid_refinement_stability():
    lat = Lattice(1j)
    s32 = solve_G_equals_C(lat, 0, grid=32)
    s64 = solve_G_equals_C(lat, 0, grid=64)
    assert s32.count == s64.count
    for r in s32.roots:
        assert min(torus_distance(r.z, r2.z, lat.tau) for r2 in s64.roots) < 1e-6


def test_count_on_unit_arc():
    # counts for C=0 stay 3 or 5 along the rhombic arc
    for theta in np.linspace(np.pi / 3 + 0.03, np.pi / 2 - 0.03, 8):
        s = solve_G_equals_C(Lattice(np.exp(1j * theta)), 0)
        assert s.count in (3, 5), theta


def test_antiholomorphic_fixed_points_are_roots():
    lat = Lattice(TAU_EQUIL)
    s = solve_G_equals_C(lat, 0)
    found = []
    rng = np.random.default_rng(11)
    for _ in range(40):
        z0 = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) * lat.tau.imag)
        r = antiholomorphic_iterate(lat, 0, z0)
        if r is None:
            continue
        assert abs(hecke_G(r, lat)) < ROOT_TOL
        assert min(torus_distance(r.z, rr.z, lat.tau) for rr in s.roots) < 1e-8
        if not any(torus_distance(r.z, f, lat.tau) < 1e-6 for f in found):
            found.append(r.z)
    # attracting fixed points number at most two
    assert 1 <= len(found) <= 2


def test_degeneracy_at_critical_angle():
    lat = Lattice(np.exp(1j * theta_star()))
    quotient, degenerate = degeneracy_2division(lat, 3)
    assert degenerate
    # the Jacobian at that half-period is singular as well
    assert hecke_jacobian((1 + lat.tau) / 2, lat).min_singular_value() < 1e-8


def test_degeneracy_flag_off_critical_angle():
    for theta in (1.1, 1.4):
        lat = Lattice(np.exp(1j * theta))
        _, degenerate = degeneracy_2division(lat, 3)
        assert not degenerate


def test_degeneracy_mirror_invariance():
    tau = 0.23 + 1.1j
    for which in (1, 2, 3):
        qa, da = degeneracy_2division(Lattice(tau), which)
        qb, db = degeneracy_2division(Lattice(-np.conj(tau)), which)
        assert da == db
        # quotient transforms as -conj, so the imaginary part is preserved
        assert abs(qa.imag - qb.imag) < 1e-9
        assert abs(qa.real + qb.real) < 1e-9


def test_degeneracy_which_validation():
    with pytest.raises(ValueError):
        degeneracy_2division(Lattice(1j), 0)


@pytest.mark.parametrize("tau", LATTICES)
def test_signed_root_count_is_the_degree_one(tau):
    """G behaves like 1/q at the lattice, so as a map from the torus to
    the sphere it has degree 1: the roots of G = C where the Jacobian
    keeps orientation outnumber those where it reverses it by one.  A
    missed root breaks the count (a missed +/- pair would not)."""
    lat = Lattice(tau)
    for C in (0, 0.2, -0.5 + 0.3j, 1, 0.05j, 2):
        s = solve_G_equals_C(lat, C)
        dets = [J.det for J in s.jacobians]
        assert len(dets) == s.count and s.count % 2 == 1, C
        assert sum(d > 0 for d in dets) - sum(d < 0 for d in dets) == 1, (C, dets)


@pytest.mark.parametrize("tau", LATTICES)
def test_root_order_does_not_depend_on_the_seed_grid(tau):
    """A root on a cell edge sorts at x = 0 (or y = 0) whichever seed
    found it, so every seed grid lists the roots of G = C in one order."""
    lat = Lattice(tau)
    for C in (0, 0.2):
        first, *rest = [solve_G_equals_C(lat, C, grid=g).roots for g in (16, 24, 32, 40, 64)]
        for roots in rest:
            assert len(roots) == len(first), C
            assert all(torus_distance(a.z, b.z, tau) < 1e-6 for a, b in zip(first, roots)), C
