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
DEFAULT_CIRCLE_NODES = 256
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


@dataclass
class TorusData:
    """Parameters of one layer: g(z) = a*(zeta(z) - zeta(z - v)) + b.

    The additive constant is stored as the offset bhat from the balanced
    value, so b = -a*xi_raw(v) + bhat and bhat = 0 at central data.
    """

    a: complex
    bhat: complex
    tau: complex
    v: complex

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

    def gp(self, z):
        return self.g_and_gp(z)[1]


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
        rp = max(torus_distance(z, T.v, T.tau) for z in zp)
        rm = max(torus_distance(z, 0.0, T.tau) for z in zm)
        d = torus_distance(0.0, T.v, T.tau)
        ell = _shortest_vector(T.tau)
        if rp + rm >= d or 2 * rp >= ell or 2 * rm >= ell:
            return False
    return True


def _chart_radius(tori: list[TorusData]) -> float:
    """Largest neck radius with pairwise disjoint charts, capped at
    0.2 times the minimal pole separation."""
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


def central_layout(cfg: Configuration, K: int | None = None,
                   force_window: bool = False):
    """Tori at the central data of a configuration (a = -1/2, bhat = 0,
    tau_k and v_k the alternating reflections of tau, q_k) with the layout
    of their state: (tori, mode, k_lo, left period, right period, buffer)."""
    if cfg.is_periodic() and not force_window:
        n = math.lcm(cfg.period(), 2)
        ks = range(n)
        mode, k_lo, buf = "cyclic", 0, 0
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
        mode, k_lo = "window", -K - buf
    tori = [TorusData(a=-0.5, bhat=0j, tau=mirror_conj(cfg.tau, k),
                      v=mirror_conj(cfg.q(k), k)) for k in ks]
    return tori, mode, k_lo, p_l, p_r, buf


@dataclass(frozen=True)
class FormTable:
    """The second-kind forms of one torus, all orders at both poles (sign
    s = 0 at v, 1 at 0).  The order-n density is the sum over m <= n of
    coeffs[s, n-2, m-2] wp^(m-2)(z - pole), plus eta[s, n-2] = c_2 eta1
    and mu[s, n-2]; coeffs is zero above the diagonal.  The table of
    parameter rows (`_circle_sets`) has a trailing row axis on all three."""

    coeffs: np.ndarray
    eta: np.ndarray
    mu: np.ndarray

    def values(self, s: int, derivs, out=None):
        """Densities of all orders of sign s, shape (n_max-1,) + z.shape,
        from the wp stack at z - pole; a row table takes z with a leading
        row axis, one row per parameter row.

        The loop over the coefficient index updates only the rows of the
        orders it reaches, so each form sums its terms in its own order.
        A single point takes Python scalars, which round unlike arrays.
        An array result can go into out.
        """
        c = self.coeffs[s]
        # one entry per order, then the row axes of a row table
        row = (-1,) + c.shape[2:] + (1,) * (np.ndim(derivs) + 1 - c.ndim)
        c = c if len(row) > 1 else c.astype(object)
        val = np.multiply(c[:, 0].reshape(row), derivs[0], out=out)
        for m in range(1, len(c)):
            val[m:] += c[m:, m].reshape(row) * derivs[m]
        val += self.eta[s].reshape(row)
        val += self.mu[s].reshape(row)
        return np.asarray(val, dtype=complex)


def _circle_nodes(center: complex, radius: float, m: int):
    th = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    z = center + radius * th
    dz = 1j * radius * th * (2 * np.pi / m)
    return z, dz


def _gauss_constants(tori):
    """a, b and xi_raw(v) of one torus, or their columns (rows, 1) over
    row tori, each computed as a scalar."""
    fs = (lambda T: T.a, lambda T: T.b, lambda T: xi_raw(T.v, T.lattice))
    if isinstance(tori, TorusData):
        return tuple(f(tori) for f in fs)
    return tuple(np.array([f(T) for T in tori])[:, None] for f in fs)


def _point_sets(tori, points, jmax: int):
    """For one torus, ([0], points(T), T.jets of them).  For row tori,
    each distinct (tau, v) with the rows that share it, its points and its
    jet pair, all with a leading set axis of length one.  The sets of one
    tau come from one `TorusData.jets` call, which is bit-identical to a
    call per set, and one tau is evaluated at a time."""
    if isinstance(tori, TorusData):
        z = points(tori)
        yield [0], z, tori.jets(z, jmax)
        return
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


def _build_forms(T, n_max: int, circles: dict) -> FormTable:
    """Principal-part matching at both poles by contour coefficient
    extraction of -g^(n-2) g' = target principal part of dw/w^n.

    One product of h_n = -g^(n-2) g' with the contour powers gives every
    coefficient of one form, each one sum over the nodes.  T is one
    torus, or the row tori of circle fields with a leading row axis; the
    products with eta1 stay scalar, row by row.
    """
    lats = [U.lattice for U in (T if isinstance(T, list) else [T])]
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
    integrals need: g, g', the base form, and the second-kind stack.
    Parameter rows (`_circle_sets`) have a row axis before the node axis
    and no base or cols, which only the neck-matching system reads."""

    center: complex
    z: np.ndarray
    dz: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    w0: np.ndarray
    fvals: np.ndarray  # (sign, n-2, node), not rho-weighted
    base: np.ndarray = None  # (n-2,): -(1/2 pi i) integral g^(n-1) w0 dz
    cols: np.ndarray = None  # (n-2, sign, m-2): same with rho^(m-1) f in place of w0


@dataclass(frozen=True)
class LayerRows:
    """One torus, or a list of parameter rows of one layer's torus, with
    their form table and, if built, their contour caches."""

    tori: TorusData | list[TorusData]
    forms: FormTable
    circles: dict | None

    @property
    def row_tori(self) -> list:
        return self.tori if isinstance(self.tori, list) else [self.tori]

    def take(self, rows: list) -> "LayerRows":
        """The given rows of a row batch, without circles; one torus is
        its own only row."""
        if not isinstance(self.tori, list):
            return self
        f = self.forms
        return LayerRows(tori=[self.tori[r] for r in rows], circles=None,
                         forms=FormTable(coeffs=f.coeffs[..., rows],
                                         eta=f.eta[..., rows], mu=f.mu[..., rows]))

    def per_row(self, values: list):
        """The one value of a torus, or the array of a row batch."""
        return np.array(values) if isinstance(self.tori, list) else values[0]


def _circle_sets(st: "GluingState", tori):
    """The rows that share each distinct (tau, v) of row tori, with the
    form table and the contour caches (without base and cols) that a
    refresh builds for them, in a `LayerRows`; one torus is one set.

    The rows of a set share their circle nodes and jets, which broadcast
    against a row axis before the node axis, and the sets of one tau
    take one jet call per circle (`_point_sets`).  Every scalar stage (b,
    xi_raw(v), the products with eta1) runs row by row and the array
    stages are elementwise, so each row has the bits of its torus alone.
    The state is only read.
    """
    r, m, jmax = st.contour_radius, st.circle_nodes, st.n_max - 2
    _, dz = _circle_nodes(0.0, r, m)  # dz does not depend on the center
    centers = {"node": lambda T: T.v, "zero": lambda T: 0.0}
    sides = [_point_sets(tori, lambda T, c=c: _circle_nodes(c(T), r, m)[0], jmax)
             for c in centers.values()]
    for (rows, *node), (_, *zero) in zip(*sides):
        sub = tori if isinstance(tori, TorusData) else [tori[i] for i in rows]
        first = sub if isinstance(sub, TorusData) else sub[0]
        a, b, xiv = _gauss_constants(sub)
        jets = {}
        for side, (z, ((zeta_z, dminus), (zeta_zv, dplus))) in zip(centers, (node, zero)):
            zpow = np.stack([(z - centers[side](first)) ** p for p in range(1, jmax + 2)])
            s = zeta_z - zeta_zv
            jets[side] = (z, dz, s, a * s + b, a * (dplus[0] - dminus[0]),
                          dplus, dminus, zpow)
        forms = _build_forms(sub, st.n_max, jets)
        circles = {}
        for side, (z, dz, s, gv, gp, dplus, dminus, _) in jets.items():
            fvals = np.empty((2, st.n_max - 1) + gv.shape, dtype=complex)
            forms.values(0, dplus, out=fvals[0])
            forms.values(1, dminus, out=fvals[1])
            circles[side] = CircleCache(center=centers[side](first), z=z, dz=dz,
                                        g=gv, gp=gp, w0=s - xiv, fvals=fvals)
        yield rows, LayerRows(tori=sub, forms=forms, circles=circles)


def _layer_view(st: "GluingState", j: int, rows: LayerRows | None) -> LayerRows:
    """rows, or stored torus j of the state with its caches."""
    if rows is not None:
        return rows
    return LayerRows(tori=st.tori[j], forms=st._forms[j], circles=st._circles[j])


def _add_matching(cc: CircleCache, n_max: int, rho: float) -> None:
    """The neck-matching integrals base and cols of one state circle."""
    powers = cc.g ** np.arange(1, n_max)[:, None]  # g^(n-1) for n = 2..n_max
    cc.base = -np.sum(powers * cc.w0 * cc.dz, axis=1) / (2j * np.pi)
    rhow = rho ** np.arange(1, n_max)  # rho^(m-1)
    weighted = rhow[None, :, None] * cc.fvals  # (sign, m-2, node)
    cc.cols = -np.einsum("in,smn,n->ism", powers, weighted, cc.dz) / (2j * np.pi)


@dataclass
class GluingState:
    """All data of the opened surface at one parameter point.

    mode "cyclic" closes the layer sequence with period len(tori);
    mode "window" stores logical layers k_lo..k_lo+len(tori)-1 and folds
    indices beyond the ends back by the (even) tail periods, which
    preserves layer parity.
    """

    t: float
    tori: list[TorusData]
    mode: str
    k_lo: int
    epsilon: float
    rho: float
    n_max: int = DEFAULT_N_MAX
    tau_ref: complex = 0j
    q0_ref: complex = 0j
    left_period: int = 2
    right_period: int = 2
    n_buffer: int = 0
    circle_nodes: int = DEFAULT_CIRCLE_NODES
    _forms: list = field(default=None, repr=False, compare=False)
    _circles: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("cyclic", "window"):
            raise ValueError("mode must be 'cyclic' or 'window'")
        if self.t < 0:
            raise ValueError("gluing scale t must be nonnegative")
        if self.rho > self.epsilon / 4 + 1e-15:
            raise ValueError("series radius must satisfy rho <= epsilon/4")
        if self._forms is None:
            self.refresh()

    @classmethod
    def central(cls, cfg: Configuration, t: float, K: int | None = None,
                circle_nodes: int = DEFAULT_CIRCLE_NODES,
                force_window: bool = False,
                epsilon: float | None = None) -> "GluingState":
        """State on the tori of `central_layout`, with the chart radius
        `_chart_radius` of them unless epsilon is given."""
        tori, mode, k_lo, p_l, p_r, buf = central_layout(cfg, K, force_window)
        eps = _chart_radius(tori) if epsilon is None else epsilon
        return cls(t=t, tori=tori, mode=mode, k_lo=k_lo, epsilon=eps,
                   rho=eps / 4, tau_ref=cfg.tau, q0_ref=cfg.q(0),
                   left_period=p_l, right_period=p_r, n_buffer=buf,
                   circle_nodes=circle_nodes)

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
        if self.mode == "cyclic":
            return k % self.n_tori
        if self.k_lo <= k <= self.k_hi:
            return k - self.k_lo
        if k > self.k_hi:
            return self.k_hi - ((self.k_hi - k) % self.right_period) - self.k_lo
        return (k - self.k_lo) % self.left_period

    def torus(self, k: int) -> TorusData:
        return self.tori[self.index_of(k)]

    def logical_range(self) -> range:
        return range(self.k_lo, self.k_hi + 1)

    @cached_property
    def balance_value(self) -> complex:
        """G(q_0) on the reference lattice, the value that every neck
        flux is normalised against; a constant of the state."""
        return hecke_G(self.q0_ref, lattice_for(self.tau_ref))

    def refresh(self, only: int | None = None) -> None:
        """Rebuild form and contour caches, for one stored torus or all.

        Must be called after mutating torus parameters; caches do not
        depend on t, so rescaling t alone needs no refresh.

        Each torus takes one jet pair per contour circle (`_circle_sets`):
        the `FormTable` of torus j (coefficients (2, n_max-1, n_max-1) by
        pole, order and wp derivative, with the eta and mu vectors) and the
        circle caches, completed with the neck-matching integrals base and
        cols.  The Jacobian's moved parameters never pass through here;
        their rows come from `_circle_sets` without touching the state.
        """
        if self._forms is None or only is None:
            self._forms = [None] * self.n_tori
            self._circles = [None] * self.n_tori
            todo = range(self.n_tori)
        else:
            todo = [only]
        for j in todo:
            (_, rows), = _circle_sets(self, self.tori[j])
            for cc in rows.circles.values():
                _add_matching(cc, self.n_max, self.rho)
            self._forms[j], self._circles[j] = rows.forms, rows.circles

    def circle(self, k: int, side: str) -> CircleCache:
        """Cached contour around 0_k (side 'zero') or v_k (side 'node')."""
        return self._circles[self.index_of(k)][side]


@dataclass(frozen=True)
class OmegaSeries:
    """Fixed-point coefficients of the glued 1-form.

    lam[j, s, n-2] is the coefficient for stored torus j, sign s
    (0 for +, 1 for -), order n.  update_norms records the sup-norm
    of each iteration's step; contraction_estimate is the operator
    norm of the linear part of the update map.
    """

    lam: np.ndarray
    n_max: int
    converged: bool
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
            cc = st._circles[jn][side]
            rows = slice((j * 2 + srow) * width, (j * 2 + srow + 1) * width)
            cols = slice(jn * 2 * width, (jn + 1) * 2 * width)
            vec[rows] = pref * cc.base
            mat[rows, cols] += pref[:, None] * cc.cols.reshape(width, 2 * width)
    return mat, vec


def fix_omega(st: GluingState) -> OmegaSeries:
    """Iterate the neck-matching map from lambda = 0 to its fixed point.

    Raises NonContractionError outside the contraction regime
    (t^2 >= rho*epsilon, or estimated contraction factor >= 1).
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
    converged = False
    for _ in range(FIX_MAX_ITER):
        new = vec + mat @ lam
        step = float(np.max(np.abs(new - lam))) if lam.size else 0.0
        norms.append(step)
        lam = new
        if step < FIX_TOL:
            converged = True
            break
    return OmegaSeries(lam=lam.reshape(st.n_tori, 2, width), n_max=st.n_max,
                       converged=converged, contraction_estimate=est,
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
    shaped like z."""
    j = st.index_of(k)
    za = np.asarray(z, dtype=complex)
    return gauss_and_omega_from_jets(
        st, series, j, st.tori[j].jets(za, omega_jmax(st, series, j)))


def gauss_and_omega_from_jets(st: GluingState, series: OmegaSeries, j: int,
                              jets: tuple, rows: LayerRows | None = None):
    """`gauss_and_omega` on stored torus j from its jet pair, which
    `TorusData.jets` made at order `omega_jmax`; with parameter rows of
    torus j (`LayerRows`), on their jets, one result row per row."""
    lr = _layer_view(st, j, rows)
    row = series.lam[j]
    live = np.any(row != 0)
    (zeta_z, dminus), (zeta_zv, dplus) = jets
    s = zeta_z - zeta_zv
    a, b, xiv = _gauss_constants(lr.tori)
    gv = np.asarray(a * s + b, dtype=complex)
    val = np.asarray(s - xiv, dtype=complex)
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


def omega_eval(st: GluingState, series: OmegaSeries, k: int, z):
    """Density of the glued form on layer k at points of that torus."""
    val = gauss_and_omega(st, series, k, z)[1]
    return val if val.shape else complex(val)


def omega_on_circle(st: GluingState, series: OmegaSeries, k: int, side: str,
                    rows: LayerRows | None = None):
    """Density of the glued form at the cached contour nodes of layer k,
    or at the contour nodes of its parameter rows, one result row per row."""
    j = st.index_of(k)
    cc = _layer_view(st, j, rows).circles[side]
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
