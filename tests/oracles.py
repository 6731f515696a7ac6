"""Slow independent reference implementations used only by the test suite.

These deliberately avoid the production series: zeta comes from a
truncated lattice sum or from mpmath's theta functions in extended
precision, K(m) from adaptive quadrature of its defining integral,
invariants from direct Eisenstein-type lattice sums, and the normalized
double-pole forms from the pairing-integral reconstruction.

The theta pass that takes numpy's complex sin and cos of every term is
the exception: the production pass assembles both from shared real
factors and is held to it bit for bit.  The earlier fixed rule for the
series length is kept too, so the pass cut by the bound over the reduced
cell can be held to the longer one.  So is the multi-pass recipe: it
rebuilds the opened-node caches from separate zeta / wp_eval / wp_derivs
calls, so the fused evaluators can be held to the same bits.  Likewise
the plain finite-difference loop recomputes every jet of every Jacobian
column of every layer, for the solver's loop that reuses them and
differences each distinct layer once.  A cyclic state unfolded over two
periods gives build_mesh one patch per layer, for the mesh that folds
layer n_tori onto layer 0, and the layer-patch
loops integrate one segment, triangulate one grid cell, count one face
edge and grow the spanning tree one node at a time, for the batched seam
legs, the array grid faces, the sorted edge count and the frontier walk.
The neck sheets are summed one Laurent power at a time from dicts of
powers, for the one-array evaluator of the seam rings, the neck sheets
and the waist weld.  The face-intersection reference enumerates candidate pairs from a
bucket grid and tests them one pair at a time, for the array sweep of
the embeddedness battery, and the one-axis sweep holds the strip sweep
to the same candidate pairs.

Some cross-checks only the tests evaluate: the lattice-coordinate form
xi on reduced coordinates, the node positions of a configuration, the
Weierstrass triple phi and its per-layer gap between two states
(differential_rows), and the gap between a defect mesh and its periodic
reference after unwinding whole periods (tpms_comparison).  So are the
chart value w = 1/g, the Gauss component and its derivative, the
glued-form density at given points, the third-kind form and the
pointwise value of a neck Laurent series.  Two cross-checks close the file.  zeros_symmetric gets the symmetric
functions of the zeros of a layer Gauss component from argument-principle
integrals over a cell boundary, without locating the zeros, against
which the solver's residue form of the regularity sum is checked.
antiholomorphic_iterate finds the attracting roots of the balance form by
a fixed-point iteration instead of the Newton sweep of solve_G_equals_C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        z = z - (T.g(z) - 1.0 / w) / gp(T, z)
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


def invariants_mpmath(tau: complex, dps: int = 40):
    """(eta1, g3) of the lattice Z + tau Z from mpmath's theta constants.

    eta1 is -(pi^2/3) theta1'''(0)/theta1'(0), as in `weierstrass_mpmath`,
    and g3 = 4 e1 e2 e3 with the half-period values e_i of wp, which are
    pi^2/3 times sums of fourth powers of theta2, theta3 and theta4 at 0.
    No Eisenstein series enters.
    """
    import mpmath as mp

    with mp.workdps(dps):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        eta1 = -(mp.pi**2 / 3) * mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)
        t2, t3, t4 = (mp.jtheta(n, 0, q) ** 4 for n in (2, 3, 4))
        c = mp.pi**2 / 3
        e1, e2, e3 = c * (t3 + t4), c * (t2 - t4), -c * (t2 + t3)
        return complex(eta1), complex(4 * e1 * e2 * e3)


def theta_sums_complex_trig(v, q: complex, n_terms: int, kmax: int):
    """Partial sums u_k = sum (-1)^n q^(n(n+1)) (2n+1)^k trig((2n+1)v).

    trig cycles through sin, cos, -sin, -cos as k increases; u_0 is
    proportional to the odd theta function at v and u_k to its k-th
    derivative.  v is the already-scaled argument (pi times the reduced
    torus coordinate).
    """
    v = np.asarray(v, dtype=complex)
    out = [np.zeros(v.shape, dtype=complex) for _ in range(kmax + 1)]
    sign = 1.0
    for n in range(n_terms):
        w = (2 * n + 1) * v
        qf = sign * q ** (n * (n + 1))
        trig = (np.sin(w), np.cos(w))
        for k in range(kmax + 1):
            # subtracting the -sin, -cos terms is exact: negation commutes
            # with rounding, so this matches adding the negated products
            term = qf * (2 * n + 1) ** k * trig[k % 2]
            if k % 4 < 2:
                out[k] += term
            else:
                out[k] -= term
        sign = -sign
    return out


def n_terms_fixed_rule(tau: complex) -> int:
    """The theta series length of the earlier fixed rule: |q|^(N^2) ~ 1e-18
    at N = sqrt(40 / (pi Im tau)), plus a margin of four terms."""
    return max(6, int(math.sqrt(40.0 / (math.pi * complex(tau).imag))) + 4)


# ---------------------------------------------------------------------------
# the multi-pass recipe of the opened-node caches: every Weierstrass value
# comes from its own zeta / wp_eval / wp_derivs call, and every
# second-kind form is evaluated by its own loop over the orders, in the
# operation order the fused evaluators must reproduce bit for bit


@dataclass(frozen=True)
class SecondKindForm:
    """Meromorphic form with principal part dw/w^n in one neck chart and
    imaginary periods on both cycles, with c_2..c_n as coeffs and the
    period constant mu."""

    lat: object
    pole: complex
    order: int
    coeffs: tuple[complex, ...]
    mu: complex

    @property
    def period_alpha(self) -> complex:
        return self.mu

    @property
    def period_beta(self) -> complex:
        return self.lat.tau * self.mu + 2j * np.pi * self.coeffs[0]


def form_view(st, k: int, sign: str, n: int) -> SecondKindForm:
    """The order-n form at v_k (sign +) or 0_k (-), read from one row of
    the `FormTable` of layer k, in its one parameter row."""
    from stackedmin.opening import _SIGNS

    j, s = st.index_of(k), _SIGNS[sign]
    T, table = st.tori[j], st._layers[j].forms
    return SecondKindForm(lat=T.lattice, pole=(T.v, 0.0)[s], order=n,
                          coeffs=tuple(table.coeffs[s, n - 2, : n - 1, 0]),
                          mu=complex(table.mu[s, n - 2, 0]))


def form_value_from_derivs(form, derivs, alpha_normalized: bool = False):
    """One second-kind form (a `SecondKindForm` view) from the wp stack
    at z - pole, summed term by term."""
    val = form.coeffs[0] * derivs[0]
    for m in range(3, form.order + 1):
        val = val + form.coeffs[m - 2] * derivs[m - 2]
    val = val + form.coeffs[0] * form.lat.eta1
    if not alpha_normalized:
        val = val + form.mu
    return val


def second_kind_form(st, k: int, sign: str, n: int, z,
                     alpha_normalized: bool = False):
    """Density of the order-n neck form on layer k by the per-form loop.

    With alpha_normalized the first period vanishes instead of being
    imaginary; that variant feeds the slow integral cross-check.
    """
    from stackedmin.elliptic import wp_derivs

    form = form_view(st, k, sign, n)
    derivs = wp_derivs(np.asarray(z, complex) - form.pole, form.lat, n - 2)
    val = form_value_from_derivs(form, derivs, alpha_normalized)
    return val if val.shape else complex(val)


def _gp_multipass(T, z):
    from stackedmin.elliptic import wp_eval

    lat = T.lattice
    return T.a * (wp_eval(z - T.v, lat) - wp_eval(z, lat))


def multipass_forms(T, n_max: int, radius: float, m: int) -> dict:
    """Second-kind forms of one torus by contour coefficient extraction,
    keyed on (sign, order)."""
    import math

    from stackedmin.opening import _SIGNS, _circle_nodes

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
        fvals[0, n - 2] = form_value_from_derivs(forms[(0, n)], dplus)
        fvals[1, n - 2] = form_value_from_derivs(forms[(1, n)], dminus)
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
                val = val + w * lp * form_value_from_derivs(form_view(st, k, "+", n), dplus)
            if lm != 0:
                val = val + w * lm * form_value_from_derivs(form_view(st, k, "-", n), dminus)
    return val if val.shape else complex(val)


def fd_blocks_plain(st, series, active, flat):
    """Forward-difference Jacobian blocks by the plain loop: each column
    and the restore refresh the layer, so every column computes its jets
    afresh."""
    from stackedmin.solver import FD_STEP, _block_residual, _set_blocks

    def set_fresh(j, x):
        _set_blocks(st, {j: x})

    blocks = np.empty((len(active), 8, 8))
    for i, k in enumerate(active):
        j = st.index_of(k)
        x0 = st.tori[j].block()
        r0 = flat[8 * i : 8 * i + 8]
        for c in range(8):
            xp = x0.copy()
            xp[c] += FD_STEP
            set_fresh(j, xp)
            rp = np.empty(8)
            blk = _block_residual(st, series, k)[0]
            rp[0::2], rp[1::2] = blk.real, blk.imag
            blocks[i, :, c] = (rp - r0) / FD_STEP
        set_fresh(j, x0)
    return blocks


def unfolded_cyclic(st, series):
    """A cyclic state and its series over two periods: the stored tori,
    their caches and their lambda rows repeat, so every layer carries the
    data it has in st, but layer n_tori of st is stored apart from layer
    0.  build_mesh on it integrates one patch per meshed layer."""
    from dataclasses import replace

    from stackedmin.opening import GluingState

    n = st.n_tori
    twice = GluingState(t=st.t, tori=st.tori * 2,
                        k_lo=st.k_lo, epsilon=st.epsilon, tau_ref=st.tau_ref,
                        q0_ref=st.q0_ref, left_period=2 * n, right_period=2 * n,
                        _layers=st._layers * 2)
    return twice, replace(series, lam=np.concatenate([series.lam, series.lam]))


# ---------------------------------------------------------------------------
# layer patches one segment, one candidate corner, one grid cell, one face
# edge and one tree node at a time, the loops that the batched seam legs,
# the array corner search, the array grid faces, the sorted edge count and
# the frontier walk replaced


def segment_triples_one_by_one(st, series, k: int, ends) -> np.ndarray:
    """Segment integrals of the immersion triple, one _diffs call and one
    Gauss-Legendre table per segment."""
    import math

    from numpy.polynomial.legendre import leggauss

    from stackedmin.immersion import SEG_NODES, SEG_STEP, _diffs

    out = []
    for z0, z1 in ends:
        vec = z1 - z0
        pieces = max(1, int(math.ceil(abs(vec) / SEG_STEP)))
        x, wgt = leggauss(SEG_NODES)
        s = (np.arange(pieces)[:, None] + 0.5 * (x[None, :] + 1.0)) / pieces
        vals = _diffs(st, series, k, z0 + s.ravel() * vec)
        vals = vals.reshape(pieces, SEG_NODES, 3)
        out.append(np.einsum("n, p n c -> c", 0.5 * wgt / pieces, vals) * vec)
    return np.array(out)


def grid_faces_loop(full_id: np.ndarray, vid: np.ndarray):
    """Grid faces and their wrapped ids, one cell at a time."""
    n = len(vid)
    faces, faces_w = [], []
    for i in range(n):
        for j in range(n):
            q = (full_id[i, j], full_id[i + 1, j],
                 full_id[i + 1, j + 1], full_id[i, j + 1])
            qw = (vid[i, j], vid[(i + 1) % n, j],
                  vid[(i + 1) % n, (j + 1) % n], vid[i, (j + 1) % n])
            if q[0] >= 0 and q[1] >= 0 and q[2] >= 0:
                faces.append((q[0], q[1], q[2]))
                faces_w.append((qw[0], qw[1], qw[2]))
            if q[0] >= 0 and q[2] >= 0 and q[3] >= 0:
                faces.append((q[0], q[2], q[3]))
                faces_w.append((qw[0], qw[2], qw[3]))
    return np.asarray(faces, dtype=int), np.asarray(faces_w, dtype=int)


def hole_cycles_dict(faces_w: np.ndarray):
    """Boundary walks of the kept region, with the face edges counted in
    a dict edge by edge; None when the boundary is not simple."""
    counts: dict[tuple[int, int], int] = {}
    for f in faces_w:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    nbrs: dict[int, list[int]] = {}
    for (a, b), c in counts.items():
        if c == 1:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
    if any(len(ns) != 2 for ns in nbrs.values()):
        return None
    cycles, seen = [], set()
    for start in sorted(nbrs):
        if start in seen:
            continue
        walk, prev, cur = [start], None, start
        while True:
            a, b = nbrs[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            walk.append(nxt)
            prev, cur = cur, nxt
        seen.update(walk)
        cycles.append(walk)
    return cycles


def tree_walk_fifo(n_nodes: int, u: np.ndarray, v: np.ndarray,
                   inc: np.ndarray, root: int):
    """Breadth-first spanning tree one node and one edge at a time: each
    frontier in ascending node id, each node's forward edges before its
    reversed ones in edge order, the first edge to reach a node kept."""
    adj: list[list[tuple[int, int, float]]] = [[] for _ in range(n_nodes)]
    for e, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        adj[a].append((b, e, 1.0))
    for e, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        adj[b].append((a, e, -1.0))
    triples = np.zeros((n_nodes,) + inc.shape[1:], dtype=inc.dtype)
    in_tree = np.zeros(len(u), dtype=bool)
    visited = np.zeros(n_nodes, dtype=bool)
    visited[root] = True
    frontier = [root]
    while frontier:
        reached = []
        for cur in frontier:
            for nxt, e, sgn in adj[cur]:
                if not visited[nxt]:
                    visited[nxt] = True
                    in_tree[e] = True
                    triples[nxt] = triples[cur] + sgn * inc[e]
                    reached.append(nxt)
        frontier = sorted(reached)
    return triples, in_tree


# ---------------------------------------------------------------------------
# neck sheets one Laurent power at a time, from dicts of powers: the
# evaluator that the one-array `_neck_sheet` replaced


def _swap_laurent(nl):
    """Laurent data of the same neck seen from the minus chart."""
    from dataclasses import replace

    return replace(nl, c0=-nl.c0, c_plus=tuple(-c for c in nl.c_minus),
                   c_minus=tuple(-c for c in nl.c_plus))


def _series_triple(nl, parity_even: bool):
    """Power coefficients of (F+', F-', H') against dw in one chart."""
    base = {-1: nl.c0}
    for n, c in enumerate(nl.c_plus, start=1):
        base[n - 1] = base.get(n - 1, 0.0) + c
    for n, c in enumerate(nl.c_minus, start=1):
        base[-n - 1] = base.get(-n - 1, 0.0) + nl.t ** (2 * n) * c
    t = nl.t
    div = {m + 1: c for m, c in base.items()}
    mul = {m - 1: t * t * c for m, c in base.items()}
    hgt = {m: t * c for m, c in base.items()}
    return (div, mul, hgt) if parity_even else (mul, div, hgt)


def _antiderivative(alpha: dict, r, theta) -> np.ndarray:
    """Antiderivative of sum alpha_m w^m on the cut chart theta in [0, 2pi)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
    for m in sorted(alpha):
        c = alpha[m]
        if m == -1:
            out = out + c * (np.log(r) + 1j * theta)
        else:
            out = out + (c / (m + 1)) * r ** (m + 1) * np.exp(1j * (m + 1) * theta)
    return out


def neck_sheet_per_power(nl, side: str, radii, thetas) -> np.ndarray:
    """Triples of one neck side on the (ring, spoke) grid, relative to
    (radii[0], 0): the plus chart on layer nl.k, the minus chart on nl.k+1."""
    radii = np.asarray(radii, dtype=float)
    if side == "-":
        nl, parity_even = _swap_laurent(nl), (nl.k + 1) % 2 == 0
    else:
        parity_even = nl.k % 2 == 0
    vals = np.empty((len(radii), len(thetas), 3), dtype=complex)
    for c, alpha in enumerate(_series_triple(nl, parity_even)):
        av = _antiderivative(alpha, radii[:, None], thetas[None, :])
        vals[:, :, c] = av - _antiderivative(alpha, radii[0], 0.0)
    return vals


def waist_transfer(nl, k: int, t: float, eps: float) -> np.ndarray:
    """Triple increment from (eps, 0) on the plus sheet of neck k to
    (eps, 0) on the minus sheet, through the waist along spoke zero."""
    down = _series_triple(nl, k % 2 == 0)
    up = _series_triple(_swap_laurent(nl), (k + 1) % 2 == 0)
    out = np.array([_antiderivative(c, t, 0.0) - _antiderivative(c, eps, 0.0)
                    for c in down], dtype=complex)
    out += np.array([_antiderivative(c, eps, 0.0) - _antiderivative(c, t, 0.0)
                     for c in up], dtype=complex)
    return out


# ---------------------------------------------------------------------------
# face intersections: the bucket-grid broad phase and the scalar Moller
# (1997) interval test, pair by pair, that the array sweep replaced, and
# the one-axis sweep that the strip sweep replaced


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _poly_overlap_2d(a: np.ndarray, b: np.ndarray, eps: float) -> bool:
    for tri1, tri2 in ((a, b), (b, a)):
        for i in range(3):
            edge = tri1[(i + 1) % 3] - tri1[i]
            axis = _unit(np.array([-edge[1], edge[0]]))
            pa = (tri1 - tri1[i]) @ axis
            pb = (tri2 - tri1[i]) @ axis
            if pb.min() > pa.max() + eps or pb.max() < pa.min() - eps:
                return False
    return True


def tri_tri_intersect(p: np.ndarray, q: np.ndarray, eps: float) -> bool:
    """Moller interval test; coplanar pairs fall back to 2D separation.

    Normals and the line direction are unit vectors, so every quantity
    compared against the length eps is itself a length.  Triangles that
    touch within eps intersect, coplanar or not.
    """
    from stackedmin.immersion import COPLANAR_SIN

    n2 = _unit(np.cross(q[1] - q[0], q[2] - q[0]))
    dp = (p - q[0]) @ n2
    if np.all(dp > eps) or np.all(dp < -eps):
        return False
    n1 = _unit(np.cross(p[1] - p[0], p[2] - p[0]))
    dq = (q - p[0]) @ n1
    if np.all(dq > eps) or np.all(dq < -eps):
        return False
    d = np.cross(n1, n2)
    sin = np.linalg.norm(d)
    if sin < COPLANAR_SIN:
        axis = int(np.argmax(np.abs(n1)))
        keep = [a for a in range(3) if a != axis]
        return _poly_overlap_2d(p[:, keep], q[:, keep], eps)
    d = d / sin
    iv = []
    for tri, dist in ((p, dp), (q, dq)):
        proj = tri @ d
        pts = []
        for a in range(3):
            if abs(dist[a]) <= eps:
                pts.append(proj[a])
            b = (a + 1) % 3
            if dist[a] * dist[b] < -eps * eps:
                s = dist[a] / (dist[a] - dist[b])
                pts.append(proj[a] + s * (proj[b] - proj[a]))
        if not pts:
            return False
        iv.append((min(pts), max(pts)))
    return not (iv[0][1] < iv[1][0] - eps or iv[1][1] < iv[0][0] - eps)


def sweep_pairs_one_axis(lo: np.ndarray, hi: np.ndarray, faces: np.ndarray,
                         chunk: int = 1 << 18):
    """Face pairs (a, b), a < b, whose closed boxes overlap and that share
    no vertex, by one sort-and-sweep along the longest axis: after
    sorting by the box minimum, the partners of a face are a contiguous
    run found by one searchsorted, expanded at most chunk pairs at a time."""
    n = len(lo)
    axis = int(np.argmax(hi.max(axis=0) - lo.min(axis=0)))
    order = np.argsort(lo[:, axis], kind="stable")
    key = lo[order, axis]
    count = np.searchsorted(key, hi[order, axis], side="right") - np.arange(1, n + 1)
    first = np.concatenate(([0], np.cumsum(count)))
    cols = [(lo[order, c], hi[order, c]) for c in range(3) if c != axis]
    found_a, found_b = [], []
    start = 0
    while start < n:
        stop = int(np.searchsorted(first, first[start] + chunk, side="right")) - 1
        stop = max(stop, start + 1)
        run = count[start:stop]
        a = np.repeat(np.arange(start, stop), run)
        b = (a + 1 + np.arange(first[start], first[stop])
             - np.repeat(first[start:stop], run))
        keep = np.ones(len(a), dtype=bool)
        for lc, hc in cols:
            keep &= (lc[b] <= hc[a]) & (lc[a] <= hc[b])
        found_a.append(order[a[keep]])
        found_b.append(order[b[keep]])
        start = stop
    a = np.concatenate(found_a)
    b = np.concatenate(found_b)
    shared = np.any(faces[a][:, :, None] == faces[b][:, None, :], axis=(1, 2))
    a, b = a[~shared], b[~shared]
    return np.minimum(a, b), np.maximum(a, b)


def bucket_candidates(raw: np.ndarray, faces: np.ndarray) -> tuple[set, float]:
    """Face pairs (a, b), a < b, that share a grid cell, overlap as closed
    boxes and share no vertex; with the grid's cell size."""
    tris = raw[faces]
    lo = tris.min(axis=1)
    hi = tris.max(axis=1)
    cell = float(np.median(np.linalg.norm(tris[:, 1] - tris[:, 0], axis=1))) * 2
    cell = max(cell, 1e-9)
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for f in range(len(faces)):
        c0 = np.floor(lo[f] / cell).astype(int)
        c1 = np.floor(hi[f] / cell).astype(int)
        for cx in range(c0[0], c1[0] + 1):
            for cy in range(c0[1], c1[1] + 1):
                for cz in range(c0[2], c1[2] + 1):
                    buckets.setdefault((cx, cy, cz), []).append(f)
    seen = set()
    out = set()
    for ids in buckets.values():
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                if set(faces[a]) & set(faces[b]):
                    continue
                if np.any(lo[a] > hi[b]) or np.any(lo[b] > hi[a]):
                    continue
                out.add((a, b))
    return out, cell


def intersecting_pairs_buckets(raw: np.ndarray, faces: np.ndarray) -> set:
    """Intersecting face pairs (a, b), a < b, that share no vertex."""
    cands, cell = bucket_candidates(raw, faces)
    tris = raw[faces]
    return {(a, b) for a, b in cands
            if tri_tri_intersect(tris[a], tris[b], 1e-7 * cell)}


# ---------------------------------------------------------------------------
# cross-checks on configurations, Weierstrass data and defect pairs that
# only the tests evaluate


def xi(p, lat) -> complex:
    """Lattice-coordinate form on reduced coordinates: x*eta1 + y*eta2."""
    return p.x * lat.eta1 + p.y * lat.eta2


def positions(cfg, p0: complex = 0.0) -> list:
    """Node positions over the window from cumulative sums of the steps."""
    from stackedmin.elliptic import TorusPoint

    lat = cfg.lattice
    K = cfg.K
    acc = {0: complex(p0)}
    for k in range(1, K + 1):
        acc[k] = acc[k - 1] + cfg.q(k)
    for k in range(0, -K, -1):
        acc[k - 1] = acc[k] - cfg.q(k)
    return [TorusPoint.from_z(acc[k], lat) for k in range(-K, K + 1)]


def weierstrass_phi(k: int, z, st, series):
    """Densities (phi1, phi2, phi3) of the Weierstrass forms against dz.

    phi3 is the height density t*omega; phi1, phi2 combine the Gauss
    map and its reciprocal.  Points inside the neck (|1/g| <= t) raise
    ChartError.
    """
    from stackedmin.immersion import _diffs

    fp, fm, h = np.moveaxis(_diffs(st, series, k, z), -1, 0)
    phi = (0.5 * (fm - fp), 0.5j * (fm + fp), h)
    if np.ndim(z) == 0:
        return tuple(complex(p) for p in phi)
    return phi


def differential_rows(st_a, series_a, st_b, series_b) -> dict[int, float]:
    """Sup difference of the immersion differential on each layer."""
    shared = [k for k in st_a.logical_range() if k in st_b.logical_range()]
    out = {}
    for k in shared:
        za = st_a.circle(k, "node").z
        zb = st_b.circle(k, "node").z
        pa = np.asarray(weierstrass_phi(k, za, st_a, series_a))
        pb = np.asarray(weierstrass_phi(k, zb, st_b, series_b))
        out[k] = float(np.max(np.abs(pa - pb)))
    return out


def _frame_xyz(frame) -> np.ndarray:
    return np.asarray(frame.position, dtype=float)


def _layer_points(mesh, k: int) -> np.ndarray:
    base = mesh.reports["layer_base"][k]
    count = mesh.reports["layer_len"][k]
    return mesh.raw[base:base + count]


def tpms_comparison(mesh_periodic, mesh_defect, ell: int, period: int = 2) -> float:
    """Hausdorff-type gap after unwinding ell whole periods.

    The period vector comes from the periodic mesh frames; the defect
    mesh is translated by -ell periods and compared layer against layer
    (k versus k + ell*period), after aligning the frames at the largest
    shared k.
    """
    from scipy.spatial import cKDTree

    if period % 2 != 0:
        raise ValueError("period must be even")
    fp = {f.k: f for f in mesh_periodic.frames}
    fd = {f.k: f for f in mesh_defect.frames}
    ks_p = sorted(fp)
    anchor = next(k for k in ks_p if k + period in fp)
    T = _frame_xyz(fp[anchor + period]) - _frame_xyz(fp[anchor])
    shift_ks = [k for k in ks_p
                if k >= 1 and k + ell * period in fd
                and k in mesh_periodic.reports["layer_base"]
                and k + ell * period in mesh_defect.reports["layer_base"]]
    if not shift_ks:
        raise ValueError(f"no comparable layers at ell={ell}")
    k_top = max(shift_ks)
    align = (_frame_xyz(fd[k_top + ell * period]) - ell * T
             - _frame_xyz(fp[k_top]))
    worst = 0.0
    for k in shift_ks:
        P = _layer_points(mesh_periodic, k)
        Q = _layer_points(mesh_defect, k + ell * period) - ell * T - align
        d_pq = float(np.max(cKDTree(P).query(Q)[0]))
        d_qp = float(np.max(cKDTree(Q).query(P)[0]))
        worst = max(worst, d_pq, d_qp)
    return worst


# ---------------------------------------------------------------------------
# pointwise chart and form values that only the tests evaluate


def gauss_component(st, k: int, z):
    """g_k, the degree-2 elliptic building block of the Gauss map."""
    return st.torus(k).g(z)


def gp(T, z):
    """g' of one torus, from the jet pair that also gives g."""
    return T.g_and_gp(z)[1]


def omega_eval(st, series, k: int, z):
    """Density of the glued form on layer k at points of that torus."""
    from stackedmin.opening import gauss_and_omega

    val = gauss_and_omega(st, series, k, z)[1]
    return val if val.shape else complex(val)


def neck_coordinate(st, k: int, sign: str, z) -> complex:
    """Chart value w = 1/g_k(z) near v_k (sign +) or 0_k (sign -)."""
    from stackedmin.elliptic import torus_distance
    from stackedmin.opening import CHART_MARGIN, ChartError

    T = st.torus(k)
    w = 1.0 / T.g(z)
    if abs(w) >= CHART_MARGIN * st.epsilon:
        raise ChartError(f"|1/g| = {abs(w):.3e} outside the chart")
    pole, other = (T.v, 0.0) if sign == "+" else (0.0, T.v)
    if torus_distance(z, pole, T.tau) > torus_distance(z, other, T.tau):
        raise ChartError("point belongs to the opposite chart")
    return complex(w)


def third_kind_form(st, k: int, p: complex, q: complex, z):
    """Meromorphic form on layer k with residues +1 at p and -1 at q and
    imaginary periods; returned as its density against dz."""
    from stackedmin.elliptic import xi_raw, zeta

    lat = st.torus(k).lattice
    val = zeta(z - p, lat) - zeta(z - q, lat) - xi_raw(q - p, lat)
    return val if np.asarray(val).shape else complex(val)


def neck_laurent_value(nl, w):
    """The density of a NeckLaurent at w on its annulus, term by term."""
    from stackedmin.opening import CHART_MARGIN, ChartError

    wa = np.asarray(w, dtype=complex)
    lo = nl.t ** 2 / (CHART_MARGIN * nl.epsilon)
    if np.any(np.abs(wa) >= CHART_MARGIN * nl.epsilon) or np.any(np.abs(wa) <= lo):
        raise ChartError("outside the neck annulus")
    val = nl.c0 / wa
    for n, c in enumerate(nl.c_plus, start=1):
        val = val + c * wa ** (n - 1)
    for n, c in enumerate(nl.c_minus, start=1):
        val = val + (nl.t ** (2 * n) * c) * wa ** (-n - 1)
    return val if val.shape else complex(val)


# ---------------------------------------------------------------------------
# zeros of the Gauss component by the argument principle


def _corner_score(T, z0):
    s = np.linspace(0.04, 0.96, 14)
    edges = np.concatenate([
        z0 + s, z0 + 1 + s * T.tau, z0 + T.tau + s, z0 + s * T.tau,
    ])
    a = np.abs(T.g(edges))
    return np.min(np.minimum(a, 1.0 / a))


def _cell_corner(T) -> complex:
    # keep all four edges away from both the zeros and the poles of g
    best, best_score = None, -1.0
    for x in np.linspace(0.03, 0.93, 10):
        for y in np.linspace(0.03, 0.93, 10):
            z0 = x + y * T.tau
            sc = _corner_score(T, z0)
            if sc > best_score:
                best, best_score = z0, sc
    return best


def zeros_symmetric(k: int, st, edge_nodes: int = 64):
    """Elementary symmetric functions (Z1+Z2, Z1*Z2) of the zeros of g_k.

    Argument-principle integrals of z^m g'/g over a cell boundary chosen
    clear of zeros and poles; the two first-order poles of g_k are added
    back at their in-cell representatives.  The zeros are never located,
    so the result stays smooth when they collide.
    """
    from numpy.polynomial.legendre import leggauss

    from stackedmin.immersion import _cell_rep
    from stackedmin.solver import ContourError

    T = st.torus(k)
    z0 = _cell_corner(T)
    x, w = leggauss(edge_nodes)
    s = 0.5 * (x + 1.0)
    w = 0.5 * w
    sums = np.zeros(3, dtype=complex)
    for base, vec, sign in (
        (z0, 1.0, 1.0),
        (z0 + 1, T.tau, 1.0),
        (z0 + T.tau, 1.0, -1.0),
        (z0, T.tau, -1.0),
    ):
        z = base + s * vec
        gv, gp = T.g_and_gp(z)
        if np.min(np.abs(gv)) < 1e-8:
            raise ContourError(f"zero of g_{k} on the cell boundary")
        if np.max(np.abs(gv)) > 1e8:
            raise ContourError(f"pole of g_{k} on the cell boundary")
        f = gp / gv * (sign * vec)
        for m in range(3):
            sums[m] += np.sum(w * z**m * f)
    sums /= 2j * np.pi
    for pole in (0.0, T.v):
        pr = _cell_rep(complex(pole), z0, T.tau)
        sums += np.array([1.0, pr, pr * pr])
    count = sums[0]
    if abs(count - 2.0) > 1e-6:
        raise ContourError(f"argument principle counted {count:.3f} zeros of g_{k}")
    s1 = sums[1]
    s2 = 0.5 * (s1 * s1 - sums[2])
    return s1, s2


# ---------------------------------------------------------------------------
# attracting roots of the balance form by fixed-point iteration


def antiholomorphic_iterate(lat, C: complex, z0: complex, max_iter: int = 800):
    """Fixed-point iteration z -> z - (conj(G(z)) - conj(C))/b.

    Converges exactly at attracting roots of G = C and returns None
    otherwise; an independent check on the Newton sweep for those roots.
    """
    from stackedmin.elliptic import DEFAULT_POLE_RADIUS, TorusPoint, reduce_centered
    from stackedmin.hecke import ROOT_TOL, _ab, hecke_G

    z = complex(z0)
    b = _ab(lat)[1]
    for _ in range(max_iter):
        zr, _, _ = reduce_centered(z, lat.tau)
        if abs(complex(zr)) < 10 * DEFAULT_POLE_RADIUS:
            return None
        G = hecke_G(z, lat)
        z_next = z - (np.conj(G) - np.conj(C)) / b
        if abs(z_next - z) < 1e-13:
            z = z_next
            break
        z = z_next
    else:
        return None
    if abs(hecke_G(z, lat) - C) < ROOT_TOL:
        return TorusPoint.from_z(z, lat)
    return None
