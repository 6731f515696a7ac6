"""Opened-node surface data: Gauss-map components, neck charts, and the
glued 1-form obtained as a contraction fixed point.

Layer k carries a torus with modulus tau_k and marked points 0_k, v_k.
Necks identify the chart at v_k with the chart at 0_{k+1} through
w_k^+ * w_{k+1}^- = t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .configs import Configuration
from .elliptic import (
    Lattice,
    lattice_coords,
    lattice_for,
    torus_distance,
    weierstrass_jet,
    xi_raw,
    zeta,
)
from .hecke import hecke_G

FIX_TOL = 1e-12
FIX_MAX_ITER = 500
DEFAULT_N_MAX = 8
CIRCLE_NODES = 256  # quadrature nodes of each contour circle
CHART_MARGIN = 2.0  # charts are |1/g| < CHART_MARGIN * epsilon
CHART_NEWTON = 40  # Newton steps of the chart inversion
N_BUFFER = 3  # least number of clamped tail layers at each end of a window

_SIGNS = {"+": 0, "-": 1}


class ChartError(ValueError):
    """Point outside a neck chart, or chart inversion failed."""


class NonContractionError(RuntimeError):
    """Gluing scale too large for the fixed-point iteration."""


def mirror_conj(z: complex, k: int) -> complex:
    """Apply (-conj)^k, the alternating reflection between layers."""
    z = complex(z)
    return z if k % 2 == 0 else -z.conjugate()


@dataclass(frozen=True)
class TorusData:
    """Parameters of one layer: g(z) = a*(zeta(z) - zeta(z - v)) + b.

    The additive constant is stored as the offset bhat from the balanced
    value, so b = -a*xi_raw(v) + bhat and bhat = 0 at central data.

    A torus is a value: a solve puts a new one in place of the old, and
    tori with the same `block` bytes share one cache (`GluingState.refresh`).
    """

    a: complex
    bhat: complex
    tau: complex
    v: complex

    def block(self) -> np.ndarray:
        """The solver's 8 floats: bhat, a, tau, v as (re, im) pairs."""
        return np.array([self.bhat, self.a, self.tau, self.v], dtype=complex).view(float)

    @classmethod
    def from_block(cls, x) -> "TorusData":
        return cls(bhat=complex(x[0], x[1]), a=complex(x[2], x[3]),
                   tau=complex(x[4], x[5]), v=complex(x[6], x[7]))

    @property
    def lattice(self) -> Lattice:
        return lattice_for(self.tau)

    @property
    def b(self) -> complex:
        return -self.a * xi_raw(self.v, self.lattice) + self.bhat

    def g(self, z):
        lat = self.lattice
        return self.a * (zeta(z, lat) - zeta(z - self.v, lat)) + self.b

    def jets(self, z, jmax: int, v=None):
        """Weierstrass jets (zeta, wp stack) at z and at z - v, on the
        lattice of this torus; v is its own marked point unless given.

        An array z and z - v go through one kernel call on the stacked
        array; the kernel is elementwise, so this is bit-identical to two
        calls.  A scalar keeps two calls, because the kernel's scalar
        arithmetic rounds differently from its array loops.  A row batch
        of point sets that share tau passes z with a leading row axis and
        v as the column (rows, 1) of their marked points.
        """
        lat = self.lattice
        v = self.v if v is None else v
        if np.ndim(z) == 0:
            return weierstrass_jet(z, lat, jmax), weierstrass_jet(z - v, lat, jmax)
        z = np.asarray(z)
        zeta_pair, derivs = weierstrass_jet(np.stack([z, z - v]), lat, jmax)
        return (zeta_pair[0], derivs[:, 0]), (zeta_pair[1], derivs[:, 1])

    def g_and_gp(self, z):
        """g and g' = a*(wp(z - v) - wp(z)) from one pair of jets."""
        (zeta_z, wp_z), (zeta_zv, wp_zv) = self.jets(z, 0)
        return self.a * (zeta_z - zeta_zv) + self.b, self.a * (wp_zv[0] - wp_z[0])


def _shortest_vector(tau: complex) -> float:
    best = abs(tau)
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 and n == 0:
                continue
            best = min(best, abs(m + n * tau))
    return best


def _invert_chart(T: TorusData, sign: str, w):
    """Newton inversion of w = 1/g near one pole; w may be an array.

    Returns z with 1/g(z) = w.  Entries with w = 0 map to the pole itself.
    """
    w = np.asarray(w, dtype=complex)
    pole = T.v if _SIGNS[sign] == 0 else 0.0
    at_pole = w == 0
    ws = np.where(at_pole, np.nan, w)
    z = pole - T.a * ws if _SIGNS[sign] == 0 else T.a * ws
    target = 1.0 / ws
    res = np.full(w.shape, np.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(CHART_NEWTON):
            gv, gp = T.g_and_gp(z)
            res = np.abs(1.0 / gv - ws)
            if np.all((res <= 1e-12 * np.abs(ws) + 1e-15) | at_pole):
                break
            z = z - (gv - target) / gp
    if np.any((res > 1e-10 * np.abs(ws) + 1e-14) & ~at_pole):
        raise ChartError("chart inversion did not converge")
    z = np.where(at_pole, pole, z)
    return z if z.shape else complex(z)


def _charts_disjoint(tori: list[TorusData], eps: float) -> bool:
    th = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    for T in tori:
        try:
            zp = _invert_chart(T, "+", CHART_MARGIN * eps * th)
            zm = _invert_chart(T, "-", CHART_MARGIN * eps * th)
        except ChartError:
            return False
        rp = np.max(torus_distance(zp, T.v, T.tau))
        rm = np.max(torus_distance(zm, 0.0, T.tau))
        d = torus_distance(0.0, T.v, T.tau)
        ell = _shortest_vector(T.tau)
        if rp + rm >= d or 2 * rp >= ell or 2 * rm >= ell:
            return False
    return True


def _distinct(tori: list[TorusData]) -> list[TorusData]:
    return list({T.block().tobytes(): T for T in tori}.values())


def _chart_radius(tori: list[TorusData]) -> float:
    """Largest neck radius with pairwise disjoint charts, capped at 0.2
    times the minimal pole separation; repeated tori are checked once."""
    tori = _distinct(tori)
    d = min(
        min(torus_distance(0.0, T.v, T.tau), _shortest_vector(T.tau))
        for T in tori
    )
    eps = 0.2 * d
    for _ in range(60):
        if _charts_disjoint(tori, eps):
            return eps
        eps *= 0.9
    raise ValueError("no admissible chart radius found")


def central_layout(cfg: Configuration, K: int | None = None):
    """Tori at the central data of a configuration (a = -1/2, bhat = 0,
    tau_k and v_k the alternating reflections of tau, q_k) with the layout
    of their state: (tori, k_lo, left period, right period, buffer).  It
    is one even period, cyclic, when cfg is periodic and K is None, and
    otherwise a window of half-width K padded by clamped buffer layers."""
    if cfg.is_periodic() and K is None:
        n = math.lcm(cfg.period(), 2)
        ks = range(n)
        k_lo, buf = 0, 0
        p_l = p_r = n
    else:
        if K is None:
            K = max(8, cfg.K + 1)
        if K < cfg.K:
            raise ValueError("window half-width K must cover the configuration")
        # a tail of odd length repeats with twice its length
        p_l, p_r = (len(tl) * (1 + len(tl) % 2) for tl in (cfg.left_tail,
                                                          cfg.right_tail))
        buf = max(N_BUFFER, p_l, p_r)
        ks = range(-K - buf, K + buf + 1)
        k_lo = -K - buf
    tori = [TorusData(a=-0.5, bhat=0j, tau=mirror_conj(cfg.tau, k),
                      v=mirror_conj(cfg.q(k), k)) for k in ks]
    return tori, k_lo, p_l, p_r, buf


@dataclass(frozen=True)
class FormTable:
    """The second-kind forms of one torus, all orders at both poles (sign
    s = 0 at v, 1 at 0).  The order-n density is the sum over m <= n of
    coeffs[s, n-2, m-2] wp^(m-2)(z - pole), plus eta[s, n-2] = c_2 eta1
    and mu[s, n-2]; coeffs is zero above the diagonal.  All three end in
    the row axis of a `_circle_sets` set, of length one for a stored torus."""

    coeffs: np.ndarray
    eta: np.ndarray
    mu: np.ndarray

    def values(self, s: int, derivs, out=None):
        """Densities of all orders of sign s, shape (n_max-1,) + z.shape,
        from the wp stack at z - pole, where z has a leading row axis, one
        row per parameter row of the table.

        The loop over the coefficient index updates only the rows of the
        orders it reaches, so each form sums its terms in its own order.
        The result can go into out.
        """
        c = self.coeffs[s]
        # one entry per order, the row axis, then the point axes of z
        row = (-1,) + c.shape[2:] + (1,) * (np.ndim(derivs) + 1 - c.ndim)
        val = np.multiply(c[:, 0].reshape(row), derivs[0], out=out)
        for m in range(1, len(c)):
            val[m:] += c[m:, m].reshape(row) * derivs[m]
        val += self.eta[s].reshape(row)
        val += self.mu[s].reshape(row)
        return val


def _circle_nodes(center: complex, radius: float, m: int):
    th = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    z = center + radius * th
    dz = 1j * radius * th * (2 * np.pi / m)
    return z, dz


def _gauss_constants(tori):
    """a, b and xi_raw(v) of row tori as columns (rows, 1), each entry
    computed as a scalar."""
    fs = (lambda T: T.a, lambda T: T.b, lambda T: xi_raw(T.v, T.lattice))
    return tuple(np.array([f(T) for T in tori])[:, None] for f in fs)


def _point_sets(tori, points, jmax: int):
    """Each distinct (tau, v) of row tori with the rows that share it, its
    points and its jet pair, all with a leading set axis of length one.  The
    sets of one tau come from one `TorusData.jets` call, bit-identical to a
    call per set, and one tau is evaluated at a time."""
    keys = [(T.tau, T.v) for T in tori]
    sets = list(dict.fromkeys(keys))
    for tau in dict.fromkeys(key[0] for key in sets):
        group = [key for key in sets if key[0] == tau]
        z = np.stack([points(tori[keys.index(key)]) for key in group])
        v = np.array([key[1] for key in group])[:, None]
        (zeta_z, d_z), (zeta_zv, d_zv) = tori[keys.index(group[0])].jets(z, jmax, v)
        for i, key in enumerate(group):
            at = slice(i, i + 1)
            yield ([r for r, other in enumerate(keys) if other == key], z[at],
                   ((zeta_z[at], d_z[:, at]), (zeta_zv[at], d_zv[:, at])))


def _build_forms(tori, n_max: int, circles: dict) -> FormTable:
    """Principal-part matching at both poles by contour coefficient
    extraction of -g^(n-2) g' = target principal part of dw/w^n.

    One product of h_n = -g^(n-2) g' with the contour powers gives every
    coefficient of one form, each one sum over the nodes.  tori are the
    rows of circle fields with a leading row axis (one row for a stored
    torus); the products with eta1 stay scalar, row by row.
    """
    lats = [T.lattice for T in tori]
    width = n_max - 1
    orders = range(2, n_max + 1)
    rows = np.shape(circles["node"][3])[:-1]
    sign, fact = (np.reshape(x, (-1,) + (1,) * len(rows)) for x in np.array(
        [((-1.0) ** m, math.factorial(m - 1)) for m in orders]).T)
    coeffs = np.zeros((2, width, width) + rows, dtype=complex)
    for s, side in enumerate(("node", "zero")):
        _, dz, _, gv, gp, _, _, zpow = circles[side]
        for i, n in enumerate(orders):
            # a Python int exponent: numpy squares a scalar 2 on its own path
            h = -(gv ** (n - 2)) * gp
            a_mm = np.sum(h * zpow[: i + 1] * dz, axis=-1) / (2j * np.pi)
            coeffs[s, i, : i + 1] = sign[: i + 1] * a_mm / fact[: i + 1]
    c2 = coeffs[:, :, 0]
    eta = np.array([[c * lat.eta1 for c, lat in zip(cs, lats)]  # scalar
                    for cs in c2.reshape(2 * width, -1)])
    # mu = -2 pi i Im(c_2) / Im(tau), in the float steps of that complex product
    mu = np.zeros(c2.shape, dtype=complex)
    mu.imag = ((-2.0 * np.pi) * c2.imag + 0.0) / np.array([lat.tau.imag for lat in lats])
    return FormTable(coeffs=coeffs, eta=eta.reshape(c2.shape), mu=mu)


@dataclass
class CircleCache:
    """Quadrature nodes around one pole with every field the contour
    integrals need: g, g', the base form, and the second-kind stack, with
    a row axis before the node axis.  `refresh` adds base and cols of row
    0, which only the neck-matching system reads."""

    center: complex
    z: np.ndarray
    dz: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    w0: np.ndarray
    fvals: np.ndarray  # (sign, n-2, row, node), not rho-weighted
    base: np.ndarray = None  # (n-2,): -(1/2 pi i) integral g^(n-1) w0 dz
    cols: np.ndarray = None  # (n-2, sign, m-2): same with rho^(m-1) f in place of w0


@dataclass(frozen=True)
class LayerRows:
    """One (tau, v) set of a layer: the parameter rows that share its tau
    and v, with their form table and, while needed, their contour caches
    by side, all with a row axis.  `refresh` stores a one-row set per
    torus; the residual evaluator takes it and moved rows' sets alike."""

    tori: list[TorusData]
    forms: FormTable
    circles: dict | None


def _circle_sets(st: "GluingState", tori):
    """The rows that share each distinct (tau, v) of row tori, with the
    form table and the contour caches (without base and cols) that a
    refresh builds for them, in a `LayerRows`; a stored torus T is [T].

    The rows of a set share their circle nodes and jets, which broadcast
    against a row axis before the node axis, and the sets of one tau
    take one jet call per circle (`_point_sets`).  Every scalar stage (b,
    xi_raw(v), the products with eta1) runs row by row and the array
    stages are elementwise, so each row has the bits of its torus alone.
    The state is only read.
    """
    r, m, jmax = st.contour_radius, CIRCLE_NODES, st.n_max - 2
    _, dz = _circle_nodes(0.0, r, m)  # dz does not depend on the center
    centers = {"node": lambda T: T.v, "zero": lambda T: 0.0}
    sides = [_point_sets(tori, lambda T, c=c: _circle_nodes(c(T), r, m)[0], jmax)
             for c in centers.values()]
    for (rows, *node), (_, *zero) in zip(*sides):
        sub = [tori[i] for i in rows]
        a, b, xiv = _gauss_constants(sub)
        jets = {}
        for side, (z, ((zeta_z, dminus), (zeta_zv, dplus))) in zip(centers, (node, zero)):
            zpow = np.stack([(z - centers[side](sub[0])) ** p for p in range(1, jmax + 2)])
            s = zeta_z - zeta_zv
            jets[side] = (z, dz, s, a * s + b, a * (dplus[0] - dminus[0]),
                          dplus, dminus, zpow)
        forms = _build_forms(sub, st.n_max, jets)
        circles = {}
        for side, (z, dz, s, gv, gp, dplus, dminus, _) in jets.items():
            fvals = np.empty((2, st.n_max - 1) + gv.shape, dtype=complex)
            forms.values(0, dplus, out=fvals[0])
            forms.values(1, dminus, out=fvals[1])
            circles[side] = CircleCache(center=centers[side](sub[0]), z=z, dz=dz,
                                        g=gv, gp=gp, w0=s - xiv, fvals=fvals)
        yield rows, LayerRows(tori=sub, forms=forms, circles=circles)


def _add_matching(cc: CircleCache, n_max: int, rho: float) -> None:
    """The neck-matching integrals base and cols of a state circle's one row."""
    powers = cc.g[0] ** np.arange(1, n_max)[:, None]  # g^(n-1) for n = 2..n_max
    cc.base = -np.sum(powers * cc.w0[0] * cc.dz, axis=1) / (2j * np.pi)
    rhow = rho ** np.arange(1, n_max)  # rho^(m-1)
    weighted = rhow[None, :, None] * cc.fvals[:, :, 0]  # (sign, m-2, node)
    cc.cols = -np.einsum("in,smn,n->ism", powers, weighted, cc.dz) / (2j * np.pi)


@dataclass
class GluingState:
    """All data of the opened surface at one parameter point.

    The state stores logical layers k_lo..k_lo+len(tori)-1 and folds
    indices beyond the ends back by the (even) tail periods, which
    preserves layer parity.  A window keeps n_buffer >= N_BUFFER clamped
    layers at each end; a cyclic state is a window at k_lo = 0 with no
    buffer, folding k to k mod len(tori).  rho is epsilon/4.

    The tori are frozen values, so a stored torus changes only by putting
    a new one in its place and refreshing its index.  Stored tori with
    equal `TorusData.block` bytes share one `LayerRows`, from construction
    on (`refresh`).
    """

    n_max: ClassVar[int] = DEFAULT_N_MAX
    t: float
    tori: list[TorusData]
    k_lo: int
    epsilon: float
    rho: float = field(init=False)
    tau_ref: complex = 0j
    q0_ref: complex = 0j
    left_period: int = 2
    right_period: int = 2
    n_buffer: int = 0
    _layers: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("gluing scale t must be nonnegative")
        # a plain attribute, not a property: every form evaluation reads it
        self.rho = self.epsilon / 4
        if self._layers is None:
            self.refresh()

    @classmethod
    def central(cls, cfg: Configuration, t: float, K: int | None = None,
                epsilon: float | None = None) -> "GluingState":
        """State on the tori of `central_layout`, a window exactly when
        cfg is not periodic or K is given, with the chart radius
        `_chart_radius` of them unless epsilon is given.  A given epsilon
        whose charts overlap on one of the distinct tori (`_charts_disjoint`)
        raises ChartError."""
        tori, k_lo, p_l, p_r, buf = central_layout(cfg, K)
        if epsilon is None:
            epsilon = _chart_radius(tori)
        elif not _charts_disjoint(_distinct(tori), epsilon):
            raise ChartError(f"neck charts overlap at epsilon = {epsilon:g}; "
                             f"_chart_radius of these tori is {_chart_radius(tori):g}")
        return cls(t=t, tori=tori, k_lo=k_lo, epsilon=epsilon, tau_ref=cfg.tau, q0_ref=cfg.q(0),
                   left_period=p_l, right_period=p_r, n_buffer=buf)

    @property
    def n_tori(self) -> int:
        return len(self.tori)

    @property
    def k_hi(self) -> int:
        return self.k_lo + self.n_tori - 1

    @property
    def contour_radius(self) -> float:
        return 0.5 * self.epsilon

    def index_of(self, k: int) -> int:
        if self.k_lo <= k <= self.k_hi:
            return k - self.k_lo
        if k > self.k_hi:
            return self.k_hi - ((self.k_hi - k) % self.right_period) - self.k_lo
        return (k - self.k_lo) % self.left_period

    def torus(self, k: int) -> TorusData:
        return self.tori[self.index_of(k)]

    def logical_range(self) -> range:
        return range(self.k_lo, self.k_hi + 1)

    def active_range(self) -> range:
        """The layers a solve moves: every stored layer less the n_buffer
        clamped ones at each end (all of them in a cyclic state)."""
        return range(self.k_lo + self.n_buffer, self.k_hi - self.n_buffer + 1)

    @cached_property
    def balance_value(self) -> complex:
        """G(q_0) on the reference lattice, the value that every neck
        flux is normalised against; a constant of the state."""
        return hecke_G(self.q0_ref, lattice_for(self.tau_ref))

    def refresh(self, only=None) -> None:
        """Rebuild form and contour caches, for every stored torus or for
        the stored indices in only, after new tori are put in place; caches
        do not depend on t, so rescaling t alone needs no refresh.

        Each refreshed torus T with a new `TorusData.block` is built once
        as the one-row set `_circle_sets(self, [T])`, the `LayerRows` that
        each refreshed torus with those bytes stores as _layers[j]: its
        `FormTable` (coefficients (2, n_max-1, n_max-1, 1) by pole, order,
        wp derivative and row) and its circles, completed with the
        neck-matching integrals base and cols.  A set reads only its torus,
        a value, so sharing it keeps every bit.  The residual evaluator
        reads it as it reads the sets of the Jacobian's moved rows, which
        never touch the state.
        """
        if self._layers is None or only is None:
            self._layers = [None] * self.n_tori
            only = range(self.n_tori)
        built = {}
        for j in only:
            key = self.tori[j].block().tobytes()
            if key not in built:
                (_, rows), = _circle_sets(self, [self.tori[j]])
                for cc in rows.circles.values():
                    _add_matching(cc, self.n_max, self.rho)
                built[key] = rows
            self._layers[j] = built[key]

    def circle(self, k: int, side: str) -> CircleCache:
        """Cached contour around 0_k (side 'zero') or v_k (side 'node')."""
        return self._layers[self.index_of(k)].circles[side]


@dataclass(frozen=True)
class OmegaSeries:
    """Fixed-point coefficients of the glued 1-form.

    lam[j, s, n-2] is the coefficient for stored torus j, sign s (0 for
    +, 1 for -), order n.  update_norms records the sup-norm of each
    iteration's step, the last one below FIX_TOL; contraction_estimate is
    the operator norm of the linear part of the update map.
    """

    lam: np.ndarray
    contraction_estimate: float
    update_norms: tuple[float, ...]


def _fixed_point_system(st: GluingState):
    """Assemble lambda -> b + M lambda realizing the neck-matching map.

    Row (j,+,n) integrates over the circle at 0 of the next layer, row
    (j,-,n) over the circle at v of the previous one; both carry the
    prefactor (t^2/rho)^(n-1).
    """
    width = st.n_max - 1
    dim = st.n_tori * 2 * width
    mat = np.zeros((dim, dim), dtype=complex)
    vec = np.zeros(dim, dtype=complex)
    pref = (st.t ** 2 / st.rho) ** np.arange(1, st.n_max)
    for j in range(st.n_tori):
        k = st.k_lo + j
        for srow, (step, side) in enumerate(((1, "zero"), (-1, "node"))):
            jn = st.index_of(k + step)
            cc = st._layers[jn].circles[side]
            rows = slice((j * 2 + srow) * width, (j * 2 + srow + 1) * width)
            cols = slice(jn * 2 * width, (jn + 1) * 2 * width)
            vec[rows] = pref * cc.base
            mat[rows, cols] += pref[:, None] * cc.cols.reshape(width, 2 * width)
    return mat, vec


def fix_omega(st: GluingState) -> OmegaSeries:
    """Iterate the neck-matching map from lambda = 0 to its fixed point.

    Raises NonContractionError outside the contraction regime (t^2 >=
    rho*epsilon, or contraction estimate >= 1), and when no step falls
    below FIX_TOL within FIX_MAX_ITER iterations.
    """
    if st.t ** 2 >= st.rho * st.epsilon:
        raise NonContractionError(
            f"t^2 = {st.t**2:.3e} is not below rho*epsilon = {st.rho * st.epsilon:.3e}"
        )
    mat, vec = _fixed_point_system(st)
    est = float(np.max(np.sum(np.abs(mat), axis=1)))
    if est >= 1.0:
        raise NonContractionError(f"contraction estimate {est:.3f} >= 1")
    width = st.n_max - 1
    lam = np.zeros(st.n_tori * 2 * width, dtype=complex)
    norms = []
    for _ in range(FIX_MAX_ITER):
        new = vec + mat @ lam
        step = float(np.max(np.abs(new - lam))) if lam.size else 0.0
        norms.append(step)
        lam = new
        if step < FIX_TOL:
            break
    else:
        raise NonContractionError(f"fixed point not reached at t={st.t:g}: last step "
                                  f"{norms[-1]:.3e}, contraction estimate {est:.3g}")
    return OmegaSeries(lam=lam.reshape(st.n_tori, 2, width), contraction_estimate=est,
                       update_norms=tuple(norms))


def _gap_midpoint(*fracs: float) -> float:
    """Offset in [0,1) farthest from the given fractional positions."""
    pts = sorted({f % 1.0 for f in fracs})
    best_gap, best = -1.0, 0.0
    for i, lo in enumerate(pts):
        hi = pts[i + 1] if i + 1 < len(pts) else pts[0] + 1.0
        if hi - lo > best_gap:
            best_gap, best = hi - lo, (lo + hi) / 2.0
    return best % 1.0


def path_base(T: TorusData) -> complex:
    """Base point whose straight cycle representatives stay as far as
    possible from both poles; the two lattice directions decouple."""
    vx, vy = lattice_coords(T.v, T.tau)
    x0 = _gap_midpoint(0.0, float(vx))
    y0 = _gap_midpoint(0.0, float(vy))
    return x0 + y0 * T.tau


def neck_point(st: GluingState, k: int, sign: str, w):
    """Inverse chart map; w may be an array inside |w| < 2 epsilon."""
    if np.any(np.abs(w) >= CHART_MARGIN * st.epsilon):
        raise ChartError("coordinate outside the chart radius")
    return _invert_chart(st.torus(k), sign, w)


def omega_jmax(st: GluingState, series: OmegaSeries, j: int) -> int:
    """Jet order the glued form needs on stored torus j: the wp stack of
    the second-kind forms when its lambda row is live, zeta alone else."""
    return st.n_max - 2 if np.any(series.lam[j] != 0) else -1


def gauss_and_omega(st: GluingState, series: OmegaSeries, k: int, z):
    """g_k and the density of the glued form on layer k at the same
    points of that torus, from one pair of Weierstrass jets; two arrays
    shaped like z, from the one row of the stored set."""
    j = st.index_of(k)
    za = np.asarray(z, dtype=complex).reshape(1, -1)
    gv, val = gauss_and_omega_from_jets(
        st, series, j, st.tori[j].jets(za, omega_jmax(st, series, j)), st._layers[j])
    return gv.reshape(np.shape(z)), val.reshape(np.shape(z))


def gauss_and_omega_from_jets(st: GluingState, series: OmegaSeries, j: int,
                              jets: tuple, lr: LayerRows):
    """`gauss_and_omega` on stored torus j from the jet pair of one set lr
    of it (`LayerRows`: the state's own, or parameter rows), one result row
    per row, which `TorusData.jets` made at order `omega_jmax`."""
    row = series.lam[j]
    live = np.any(row != 0)
    (zeta_z, dminus), (zeta_zv, dplus) = jets
    s = zeta_z - zeta_zv
    a, b, xiv = _gauss_constants(lr.tori)
    gv = a * s + b
    val = s - xiv
    if live:
        fplus, fminus = lr.forms.values(0, dplus), lr.forms.values(1, dminus)
        for n in range(2, st.n_max + 1):
            lp, lm = row[0, n - 2], row[1, n - 2]
            w = st.rho ** (n - 1)
            if lp != 0:
                val = val + w * lp * fplus[n - 2]
            if lm != 0:
                val = val + w * lm * fminus[n - 2]
    return gv, val


def omega_on_circle(st: GluingState, series: OmegaSeries, k: int, side: str,
                    rows: LayerRows | None = None):
    """Density of the glued form at the cached contour nodes of layer k,
    or at the contour nodes of a set of its parameter rows; one result
    row per row, so the state's own circle gives one row."""
    j = st.index_of(k)
    cc = (st._layers[j] if rows is None else rows).circles[side]
    row = series.lam[j]
    rhow = st.rho ** np.arange(1, st.n_max)
    return cc.w0 + np.einsum("s m, s m ... n -> ... n", row * rhow[None, :], cc.fvals)


@dataclass(frozen=True)
class NeckLaurent:
    """Laurent data of the glued form in the plus chart of one neck.

    The density against dw is c0/w + sum c_plus[n-1] w^(n-1)
    + sum t^(2n) c_minus[n-1] / w^(n+1); it converges on the annulus
    t^2/(2 epsilon) < |w| < 2 epsilon.
    """

    k: int
    t: float
    epsilon: float
    c0: complex
    c_plus: tuple[complex, ...]
    c_minus: tuple[complex, ...]


def laurent_coeffs(st: GluingState, series: OmegaSeries, k: int,
                   max_n: int) -> NeckLaurent:
    """Contour-extracted Laurent data of the glued form in chart + of
    layer k; the singular side comes from layer k+1 through the neck."""
    ccv = st.circle(k, "node")
    wv = omega_on_circle(st, series, k, "node")
    c0 = complex(np.sum(wv * ccv.dz) / (2j * np.pi))
    c_plus = tuple(
        complex(np.sum(ccv.g ** n * wv * ccv.dz) / (2j * np.pi))
        for n in range(1, max_n + 1)
    )
    cc0 = st.circle(k + 1, "zero")
    w0v = omega_on_circle(st, series, k + 1, "zero")
    c_minus = tuple(
        complex(-np.sum(cc0.g ** n * w0v * cc0.dz) / (2j * np.pi))
        for n in range(1, max_n + 1)
    )
    return NeckLaurent(k=k, t=st.t, epsilon=st.epsilon, c0=c0,
                       c_plus=c_plus, c_minus=c_minus)
