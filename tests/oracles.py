"""Slow independent reference implementations used only by the test suite.

These deliberately avoid the production series: zeta comes from a
truncated lattice sum or from mpmath's theta functions in extended
precision, K(m) from adaptive quadrature of its defining integral,
invariants from direct Eisenstein-type lattice sums, and the normalized
double-pole forms from the pairing-integral reconstruction.

The multi-pass recipe at the end is the exception: it rebuilds the
opened-node caches from separate zeta / wp_eval / wp_derivs calls, so the
fused evaluators can be held to the same bits.
"""

from __future__ import annotations

import numpy as np


def lattice_points(tau: complex, radius: float):
    """All m + n*tau with |m + n*tau| <= radius, origin excluded."""
    nmax = int(np.ceil(radius / tau.imag)) + 2
    mmax = int(np.ceil(radius + abs(tau.real) * nmax)) + 2
    ms, ns = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1))
    w = ms + ns * tau
    keep = (np.abs(w) <= radius) & ((ms != 0) | (ns != 0))
    return w[keep]


def zeta_lattice_sum(z: complex, tau: complex, radius: float = 160.0) -> complex:
    """Weierstrass zeta by direct summation with a smooth cutoff window.

    A sharp radius-R cutoff fluctuates with lattice shells at the 1e-9
    level; a cos^2 taper from R/2 to R suppresses that to ~4e-11 by R=160.
    """
    w = lattice_points(tau, radius)
    r = np.abs(w)
    t = np.clip((r - radius / 2.0) / (radius / 2.0), 0.0, 1.0)
    window = np.cos(0.5 * np.pi * t) ** 2
    terms = (1.0 / (z - w) + 1.0 / w + z / w**2) * window
    return complex(1.0 / z + np.sum(terms))


def invariants_lattice_sum(tau: complex, radius: float = 150.0) -> tuple[complex, complex]:
    """g2 = 60 sum w^-4 and g3 = 140 sum w^-6 by tapered direct summation."""
    w = lattice_points(tau, radius)
    r = np.abs(w)
    t = np.clip((r - radius / 2.0) / (radius / 2.0), 0.0, 1.0)
    window = np.cos(0.5 * np.pi * t) ** 2
    g2 = 60.0 * np.sum(window / w**4)
    g3 = 140.0 * np.sum(window / w**6)
    return complex(g2), complex(g3)


def K_quadrature(m: float) -> float:
    """Complete elliptic integral K(m) by adaptive quadrature."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - m * np.sin(t) ** 2), 0.0, np.pi / 2, epsabs=1e-13)
    return val


def second_kind_alpha_oracle(st, k: int, n: int, points,
                             n_contour: int = 128, n_alpha: int = 128):
    """First-cycle-normalized neck form density by pairing integrals.

    Reconstructs the order-n density at the given points from the moving
    double integral f(p) = -(1/2 pi i) int_alpha dq int_{|w|=eps/2}
    w^-n (zeta(z-p) - zeta(z-q) - xi(q-p)) dw, which never touches the
    wp-derivative construction.  The chart contour is inverted with a
    local Newton loop on the torus data alone.
    """
    from stackedmin.elliptic import xi_raw, zeta

    T = st.torus(k)
    lat = T.lattice
    th = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    w = 0.5 * st.epsilon * th
    dw = 1j * w * (2 * np.pi / n_contour)
    z = T.v - T.a * w
    for _ in range(40):
        z = z - (T.g(z) - 1.0 / w) / T.gp(z)
    assert np.max(np.abs(1.0 / T.g(z) - w)) < 1e-12

    from stackedmin.opening import path_base

    qb = path_base(T)
    s = (np.arange(n_alpha) + 0.5) / n_alpha
    q = qb + s
    out = []
    for p in points:
        f = (zeta(z[None, :] - p, lat) - zeta(z[None, :] - q[:, None], lat)
             - xi_raw(q[:, None] - p, lat))
        chi = np.sum(w[None, :] ** (-n) * f * dw[None, :], axis=1) / (2j * np.pi)
        out.append(-complex(np.sum(chi)) / n_alpha)
    return np.array(out)


def newton_roots_of(f, fprime, seeds, tol=1e-12, max_iter=60):
    """Plain complex Newton from each seed; returns converged points."""
    roots = []
    for z in seeds:
        z = complex(z)
        ok = False
        for _ in range(max_iter):
            fz = f(z)
            dz = fz / fprime(z)
            z = z - dz
            if abs(dz) < tol:
                ok = True
                break
        if ok and abs(f(z)) < 1e-9:
            roots.append(z)
    return roots


def weierstrass_mpmath(z: complex, tau: complex, dps: int = 30):
    """(zeta, wp, wp') at z for the lattice Z + tau Z from mpmath's theta.

    Uses zeta(z) = eta1 z + pi theta1'(pi z)/theta1(pi z) with the
    quasi-period eta1 = -(pi^2/3) theta1'''(0)/theta1'(0), evaluated at
    the unreduced z in extended precision, so neither the argument
    reduction, the nome series nor the Eisenstein value of eta1 of the
    production kernel enters.
    """
    import mpmath as mp

    with mp.workdps(dps):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        eta1 = -(mp.pi**2 / 3) * mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)
        zm = mp.mpc(z)
        t0, t1, t2, t3 = (mp.jtheta(1, mp.pi * zm, q, d) for d in range(4))
        r1 = t1 / t0
        zeta = eta1 * zm + mp.pi * r1
        wp = -eta1 - mp.pi**2 * (t2 / t0 - r1**2)
        dwp = -mp.pi**3 * (t3 / t0 - 3 * r1 * t2 / t0 + 2 * r1**3)
        return complex(zeta), complex(wp), complex(dwp)


# ---------------------------------------------------------------------------
# the multi-pass recipe of the opened-node caches: every Weierstrass value
# comes from its own zeta / wp_eval / wp_derivs call, in the operation
# order the fused evaluators must reproduce bit for bit


def _gp_multipass(T, z):
    from stackedmin.elliptic import wp_eval

    lat = T.lattice
    return T.a * (wp_eval(z - T.v, lat) - wp_eval(z, lat))


def multipass_forms(T, n_max: int, radius: float, m: int) -> dict:
    """Second-kind forms of one torus by contour coefficient extraction."""
    import math

    from stackedmin.opening import _SIGNS, SecondKindForm, _circle_nodes

    lat = T.lattice
    forms = {}
    for sign, pole in (("+", T.v), ("-", 0.0)):
        z, dz = _circle_nodes(pole, radius, m)
        gv = T.g(z)
        gp = _gp_multipass(T, z)
        for n in range(2, n_max + 1):
            h = -(gv ** (n - 2)) * gp
            coeffs = []
            for mm in range(2, n + 1):
                a_mm = np.sum(h * (z - pole) ** (mm - 1) * dz) / (2j * np.pi)
                coeffs.append((-1.0) ** mm * a_mm / math.factorial(mm - 1))
            c2 = coeffs[0]
            mu = -2j * np.pi * c2.imag / lat.tau.imag
            forms[(_SIGNS[sign], n)] = SecondKindForm(
                lat=lat, pole=pole, order=n, coeffs=tuple(coeffs), mu=mu)
    return forms


def multipass_circle(T, forms: dict, center: complex, n_max: int, rho: float,
                     radius: float, m: int):
    """Contour cache around one pole of one torus."""
    from stackedmin.elliptic import wp_derivs, xi_raw, zeta
    from stackedmin.opening import CircleCache, _circle_nodes

    lat = T.lattice
    z, dz = _circle_nodes(center, radius, m)
    s = zeta(z, lat) - zeta(z - T.v, lat)
    gv = T.a * s + T.b
    gp = _gp_multipass(T, z)
    w0 = s - xi_raw(T.v, lat)
    dplus = wp_derivs(z - T.v, lat, n_max - 2)
    dminus = wp_derivs(z, lat, n_max - 2)
    fvals = np.empty((2, n_max - 1, m), dtype=complex)
    for n in range(2, n_max + 1):
        fvals[0, n - 2] = forms[(0, n)].value_from_derivs(dplus)
        fvals[1, n - 2] = forms[(1, n)].value_from_derivs(dminus)
    powers = gv ** np.arange(1, n_max)[:, None]
    base = -np.sum(powers * w0 * dz, axis=1) / (2j * np.pi)
    rhow = rho ** np.arange(1, n_max)
    weighted = rhow[None, :, None] * fvals
    cols = -np.einsum("in,smn,n->ism", powers, weighted, dz) / (2j * np.pi)
    return CircleCache(center=center, z=z, dz=dz, g=gv, gp=gp, w0=w0,
                       fvals=fvals, base=base, cols=cols)


def multipass_omega(st, series, k: int, z):
    """Density of the glued form on layer k."""
    from stackedmin.elliptic import wp_derivs, xi_raw, zeta

    j = st.index_of(k)
    T = st.tori[j]
    lat = T.lattice
    za = np.asarray(z, dtype=complex)
    val = np.asarray(zeta(za, lat) - zeta(za - T.v, lat) - xi_raw(T.v, lat),
                     dtype=complex)
    row = series.lam[j]
    if np.any(row != 0):
        dplus = wp_derivs(za - T.v, lat, st.n_max - 2)
        dminus = wp_derivs(za, lat, st.n_max - 2)
        for n in range(2, st.n_max + 1):
            lp, lm = row[0, n - 2], row[1, n - 2]
            w = st.rho ** (n - 1)
            if lp != 0:
                val = val + w * lp * st._forms[j][(0, n)].value_from_derivs(dplus)
            if lm != 0:
                val = val + w * lm * st._forms[j][(1, n)].value_from_derivs(dminus)
    return val if val.shape else complex(val)
