"""Opened-node surface data: Gauss-map components, neck charts, and the
glued 1-form obtained as a contraction fixed point.

Layer k carries a torus with modulus tau_k and marked points 0_k, v_k.
Necks identify the chart at v_k with the chart at 0_{k+1} through
w_k^+ * w_{k+1}^- = t^2.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .configs import Configuration
from .elliptic import (
    Lattice,
    _wp_orders,
    lattice_coords,
    lattice_for,
    torus_distance,
    weierstrass_jet,
    xi_raw,
    zeta,  # noqa: F401  bound here for bench/test_bench.py, which wraps opening.zeta
)
from .hecke import hecke_G

FIX_TOL = 1e-12
FIX_MAX_ITER = 500
DEFAULT_N_MAX = 8
CIRCLE_NODES = 256  # quadrature nodes of each contour circle
JET_SETS = 3  # (tau, v) sets of any moduli of one n_terms per jet call
SET_ROWS = 4  # rows per form, density and sum pass, across a run's sets
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
    value, so b = -a*xiv + bhat with xiv = xi_raw(v), and bhat = 0 at
    central data.

    A torus is a value, so it derives xiv and b once and keeps them.  A
    solve puts a new one in place of the old, and tori with the same
    `block` bytes share one cache (`GluingState.refresh`).
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

    @cached_property
    def xiv(self) -> complex:
        return xi_raw(self.v, self.lattice)

    @cached_property
    def b(self) -> complex:
        return -self.a * self.xiv + self.bhat

    def g(self, z):
        """g at z from `jets` at order -1, one kernel call for z and z - v.
        A 0-d z stays on Python's complex arithmetic, since numpy's scalar
        products and quotients can round apart from it."""
        s = self.jets(z, -1)[0]
        return self.a * (s if np.ndim(z) else complex(s)) + self.b

    def jets(self, z, jmax: int):
        """zeta(z) - zeta(z - v) and the wp stacks at z and at z - v, on
        the lattice of this torus: `_point_sets` on a set of one,
        bit-identical to two array calls."""
        _, s, d_z, d_zv = _point_sets([self], [[0]], lambda T: z, jmax)
        return s[0], d_z[:, 0], d_zv[:, 0]

    def g_and_gp(self, z):
        """g and g' = a*(wp(z - v) - wp(z)) from one pair of jets."""
        s, wp_z, wp_zv = self.jets(z, 0)
        return self.a * s + self.b, self.a * (wp_zv[0] - wp_z[0])


def _shortest_vector(tau: complex) -> float:
    return min(abs(m + n * tau) for m in range(-3, 4) for n in range(-3, 4) if m or n)


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
    th = _unit_nodes(16)
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
    times the minimal pole separation; repeated tori are checked once.
    Raises ChartError, naming the last radius tried, when 60 shrinks by
    0.9 leave the charts overlapping."""
    tori = _distinct(tori)
    d = min(
        min(torus_distance(0.0, T.v, T.tau), _shortest_vector(T.tau))
        for T in tori
    )
    eps = 0.2 * d
    for _ in range(60):
        if _charts_disjoint(tori, eps):
            return eps
        last, eps = eps, eps * 0.9
    raise ChartError(f"no admissible chart radius found: charts overlap at epsilon = {last:g}")


def central_layout(cfg: Configuration, K: int | None = None):
    """Tori at the central data of a configuration (a = -1/2, bhat = 0,
    tau_k and v_k the alternating reflections of tau, q_k) with the layout
    of their state: (tori, k_lo, left period, right period, buffer).  The
    periods are the even periods of the tails.  It is one even period,
    cyclic, when cfg is periodic and K is None, and otherwise a window of
    half-width K padded by clamped buffer layers."""
    p_l, p_r = (math.lcm(len(tl), 2) for tl in (cfg.left_tail, cfg.right_tail))
    if cfg.is_periodic() and K is None:
        ks, k_lo, buf = range(p_r), 0, 0
    else:
        if K is None:
            K = max(8, cfg.K + 1)
        if K < cfg.K:
            raise ValueError("window half-width K must cover the configuration")
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

    def values(self, s: int, derivs, out=None, sel=slice(None)):
        """Densities of all orders of sign s, one row per parameter row of
        the table, shape (n_max-1, rows) + the point shape, from the wp
        stack at z - pole of a run's sets, (jmax+1, sets) + the point
        shape.  Row r reads set sel[r], or every row the one set of a
        slice sel; each order's jet is gathered inside the loop, so no
        per-row copy of the stack is held.

        The loop over the coefficient index updates only the rows of the
        orders it reaches, so each form sums its terms in its own order.
        The result can go into out.
        """
        c = self.coeffs[s]
        # one entry per order, the row axis, then the point axes of z
        row = (-1,) + c.shape[2:] + (1,) * (np.ndim(derivs) + 1 - c.ndim)
        val = np.multiply(c[:, 0].reshape(row), derivs[0][sel], out=out)
        for m in range(1, len(c)):
            val[m:] += c[m:, m].reshape(row) * derivs[m][sel]
        val += self.eta[s].reshape(row)
        val += self.mu[s].reshape(row)
        return val


@lru_cache(maxsize=None)
def _unit_nodes(m: int) -> np.ndarray:
    th = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    th.flags.writeable = False  # one array per m, shared by every caller
    return th


def _circle_nodes(center: complex, radius: float, m: int):
    th = _unit_nodes(m)
    return center + radius * th, 1j * radius * th * (2 * np.pi / m)


def _gauss_constants(tori):
    """a, b and xi_raw(v) of row tori as columns (rows, 1), each entry the
    scalar that its torus keeps."""
    return tuple(np.array(c)[:, None] for c in zip(*((T.a, T.b, T.xiv) for T in tori)))


def _set_runs(tori):
    """Runs of at most JET_SETS distinct (tau, v) among row tori, each a
    list of sets, a set the indices of the rows with its (tau, v): the
    sets in order of first appearance, the lattices of a run of one
    n_terms.  Rows share a (tau, v) when its floats in `TorusData.block`
    agree bit for bit, so each set's points are those of each of its
    rows."""
    sets = {}
    for r, T in enumerate(tori):
        sets.setdefault(T.block()[4:].tobytes(), []).append(r)
    by_terms = {}
    for rows in sets.values():
        by_terms.setdefault(tori[rows[0]].lattice.n_terms, []).append(rows)
    for group in by_terms.values():
        yield from (group[i : i + JET_SETS] for i in range(0, len(group), JET_SETS))


def _run_chunks(run, per: int = SET_ROWS):
    """The rows of a `_set_runs` run in its order, per at a time: each
    chunk's positions in that order and the set of each of its rows, a
    slice when they share one so that its points broadcast across them."""
    sets = [i for i, rows in enumerate(run) for _ in rows]
    for c in range(0, len(sets), per):
        sel = sets[c : c + per]
        yield range(c, c + len(sel)), (slice(sel[0], sel[0] + 1) if sel[0] == sel[-1]
                                       else np.array(sel))


def _point_sets(tori, run, points, jmax: int, held=None, keep=False):
    """The points of the sets of one `_set_runs` run of row tori, from
    any layers and moduli and of any shape, s = zeta(z) - zeta(z - v),
    and the wp stacks at z and z - v, all with a leading set axis: one
    `weierstrass_jet` call over the lattices of the run, bit-identical to
    a call per set.

    held, a dict of one kind of points (`GluingState.holding_jets`), maps
    the (tau, v) bytes of a set to its s and its wp and wp' at z and
    z - v.  A set found there takes them, and its higher orders from
    `elliptic._wp_orders`, the kernel's own recurrence; the others go to
    `weierstrass_jet`, and with keep each of them is added to held."""
    heads = [tori[rows[0]] for rows in run]
    z = np.stack([np.asarray(points(T)) for T in heads])
    v = np.array([T.v for T in heads]).reshape((-1,) + (1,) * (z.ndim - 1))
    zz = np.stack([z, z - v], axis=1)
    keys = [T.block()[4:].tobytes() for T in heads]
    found = [i for i, key in enumerate(keys) if held is not None and key in held]
    todo = [i for i in range(len(heads)) if i not in found]
    if not found:
        zeta, d = weierstrass_jet(zz, [T.lattice for T in heads], jmax)
        s = zeta[:, 0] - zeta[:, 1]
    else:
        s = np.empty(z.shape, dtype=complex)
        d = np.empty((jmax + 1,) + zz.shape, dtype=complex)
        if todo:
            zeta, d[:, todo] = weierstrass_jet(zz[todo], [heads[i].lattice for i in todo], jmax)
            s[todo] = zeta[:, 0] - zeta[:, 1]
        for i in found:
            s[i], d[:2, i] = held[keys[i]]
            _wp_orders(d[:, i], heads[i].lattice.g2 / 2.0)
    if keep and held is not None:
        for i in todo:  # copies, so the run's stack is not kept alive
            held[keys[i]] = s[i].copy(), d[:2, i].copy()
    return z, s, d[:, :, 0], d[:, :, 1]


def _build_forms(tori, n_max: int, dz, circles: dict) -> FormTable:
    """Principal-part matching at both poles by contour coefficient
    extraction of -g^(n-2) g' = target principal part of dw/w^n.

    One product of h_n = -g^(n-2) g' with the contour powers gives every
    coefficient of one form, each one sum over the nodes.  tori are the
    rows of the circle fields (g, g', powers of z - pole) by side, with a
    leading row axis (one row for a stored torus); the products with
    eta1 stay scalar, row by row.
    """
    lats = [T.lattice for T in tori]
    width = n_max - 1
    orders = range(2, n_max + 1)
    rows = np.shape(circles["node"][0])[:-1]
    sign, fact = (np.reshape(x, (-1,) + (1,) * len(rows)) for x in np.array(
        [((-1.0) ** m, math.factorial(m - 1)) for m in orders]).T)
    coeffs = np.zeros((2, width, width) + rows, dtype=complex)
    for s, side in enumerate(("node", "zero")):
        gv, gp, zpow = circles[side]
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
    """The fields the contour integrals around one pole read: the
    quadrature weights dz and, with a row axis before the node axis, g,
    g', the base form and the second-kind stack.  `refresh` adds base and
    cols of row 0, which only the neck-matching system reads."""

    dz: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    w0: np.ndarray
    fvals: np.ndarray  # (sign, n-2, row, node), not rho-weighted
    base: np.ndarray = None  # (n-2,): -(1/2 pi i) integral g^(n-1) w0 dz
    cols: np.ndarray = None  # (n-2, sign, m-2): same with rho^(m-1) f in place of w0


@dataclass(frozen=True)
class LayerRows:
    """Parameter rows of one or more (tau, v) sets, with their form table
    and, while needed, their contour caches by side, all with a row axis.
    `refresh` stores a one-row set per torus; the residual evaluator
    takes chunks of stored sets (`_joined`) and of moved rows alike."""

    tori: list[TorusData]
    forms: FormTable
    circles: dict | None


def _circle_sets(st: "GluingState", tori, per: int = SET_ROWS, keep: bool = False):
    """The rows of row tori, per at a time across the (tau, v) sets of
    each `_set_runs` run (`_run_chunks`): each chunk's row indices, the
    set of each row in its run, and the form table and contour caches
    (without base and cols) that a refresh builds for them, in a
    `LayerRows`.

    The sets of a run take one jet call per circle (`_point_sets`), and
    one run's jets are held at a time.  Every scalar stage (b, xi_raw(v),
    the products with eta1) runs row by row and the array stages are
    elementwise, so each row has the bits of its torus alone.  A set whose
    circle jets the state holds reads them; with keep (a refresh of stored
    tori) the evaluated ones are added.  Nothing else of the state is
    written.
    """
    r, m = st.contour_radius, CIRCLE_NODES
    _, dz = _circle_nodes(0.0, r, m)  # dz does not depend on the center
    poles = {"node": lambda T: T.v, "zero": lambda T: 0.0}
    for run in _set_runs(tori):
        sides = {side: _point_sets(tori, run, lambda T, p=p: _circle_nodes(p(T), r, m)[0],
                                   st.n_max - 2, st._jets.get(side), keep)
                 for side, p in poles.items()}
        flat = [u for rows in run for u in rows]
        for pos, sel in _run_chunks(run, per):
            rows = [flat[i] for i in pos]
            yield rows, sel, _circle_chunk(st, [tori[i] for i in rows], sel, sides, poles, dz)
        del sides  # before the next run's kernel calls


def _circle_chunk(st: "GluingState", sub, sel, sides, poles, dz) -> LayerRows:
    """The `LayerRows` of the row tori sub of one run, from the set sel of
    each row and the run's nodes and jets by circle (sides).  The rows
    read those of their sets: broadcast against a row axis before the
    node axis when they share one set, gathered row by row when they span
    several (each order of the wp stack inside `FormTable.values`)."""
    a, b, xiv = _gauss_constants(sub)
    fields, zpow = {}, {}
    for side, (z, s, dminus, dplus) in sides.items():
        z = z[sel]
        # one pole per row of z: a set's, or each row's
        center = np.array([poles[side](T) for T in sub[: len(z)]], dtype=complex)[:, None]
        zpow[side] = np.stack([(z - center) ** p for p in range(1, st.n_max)])
        s = s[sel]
        fields[side] = (s, a * s + b, a * (dplus[0][sel] - dminus[0][sel]))
    forms = _build_forms(sub, st.n_max, dz, {side: (gv, gp, zpow[side])
                                             for side, (_, gv, gp) in fields.items()})
    del zpow  # before the densities
    circles = {}
    for side, (s, gv, gp) in fields.items():
        _, _, dminus, dplus = sides[side]
        fvals = np.empty((2, st.n_max - 1) + gv.shape, dtype=complex)
        forms.values(0, dplus, out=fvals[0], sel=sel)
        forms.values(1, dminus, out=fvals[1], sel=sel)
        circles[side] = CircleCache(dz=dz, g=gv, gp=gp, w0=s - xiv, fvals=fvals)
    return LayerRows(tori=sub, forms=forms, circles=circles)


def _joined(sets: list, run):
    """The stored one-row sets of the rows of a `_set_runs` run, in its
    order, in the chunks that `_circle_sets` gives moved rows: each
    chunk's positions, the set of each row, and its sets' form tables and
    circles (without base and cols) joined along the row axis in one
    `LayerRows`, a set alone as it is."""
    for pos, sel in _run_chunks(run):
        part = [sets[i] for i in pos]
        yield pos, sel, part[0] if len(part) == 1 else LayerRows(
            [lr.tori[0] for lr in part],
            FormTable(*(np.concatenate([getattr(lr.forms, name) for lr in part], axis=-1)
                        for name in ("coeffs", "eta", "mu"))),
            {side: CircleCache(part[0].circles[side].dz, *(
                np.concatenate([getattr(lr.circles[side], name) for lr in part], axis=-2)
                for name in ("g", "gp", "w0", "fvals"))) for side in ("node", "zero")})


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
    a new one in its place and refreshing its index; the tori and _layers
    lists are the state's own, copied on construction (dataclasses.replace
    included).  Stored tori with equal `TorusData.block` bytes share one
    `LayerRows`, from construction on (`refresh`), through the weak map
    shared_rows: the state's own unless it is given one, and then shared
    with every state given the same map, for as long as a state holds them.
    Within `holding_jets` the state also keeps the low-order jets of its
    stored (tau, v) in _jets; outside it _jets is empty.
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
    shared_rows: weakref.WeakValueDictionary | None = field(default=None, repr=False,
                                                            compare=False)
    _jets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.t < math.inf:
            raise ValueError(f"gluing scale t must be finite and nonnegative, got {self.t}")
        if not 0.0 < self.epsilon < math.inf:  # NaN fails every chart comparison
            raise ChartError(f"epsilon = {self.epsilon} is not a finite positive chart radius")
        # a plain attribute, not a property: every form evaluation reads it
        self.rho = self.epsilon / 4
        self.tori = list(self.tori)
        if self.shared_rows is None:
            self.shared_rows = weakref.WeakValueDictionary()
        if self._layers is None:
            self.refresh()
        else:
            self._layers = list(self._layers)

    @classmethod
    def central(cls, cfg: Configuration, t: float, K: int | None = None,
                epsilon: float | None = None,
                shared_rows: weakref.WeakValueDictionary | None = None) -> "GluingState":
        """State on the tori of `central_layout`, a window exactly when
        cfg is not periodic or K is given, with the chart radius
        `_chart_radius` of them unless epsilon is given, and refreshed
        through shared_rows when it is given.  A given epsilon that is not
        finite and positive (checked on construction), or whose charts
        overlap on one of the distinct tori (`_charts_disjoint`), raises
        ChartError before any cache is built."""
        tori, k_lo, p_l, p_r, buf = central_layout(cfg, K)
        # construction checks t and epsilon; the caches wait for the overlap check
        st = cls(t=t, tori=tori, k_lo=k_lo, epsilon=_chart_radius(tori) if epsilon is None
                 else epsilon, tau_ref=cfg.tau, q0_ref=cfg.q(0), left_period=p_l,
                 right_period=p_r, n_buffer=buf, _layers=[], shared_rows=shared_rows)
        if epsilon is not None and not _charts_disjoint(_distinct(tori), epsilon):
            raise ChartError(f"neck charts overlap at epsilon = {epsilon:g}; "
                             f"_chart_radius of these tori is {_chart_radius(tori):g}")
        st.refresh()
        return st

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

    @contextmanager
    def holding_jets(self):
        """Keep, while it is entered, the jets that the state evaluates at
        its stored (tau, v): zeta(z) - zeta(z - v), and wp and wp' at z
        and z - v (`_point_sets`), by kind of points: the two circles of
        the sets a refresh builds and the two period paths of the stored
        rows of a residual pass (`solver._block_residual`).  Moved
        parameter rows read them and never add to them.  A set goes when
        no stored torus has its (tau, v) after a refresh, and every set
        goes on exit."""
        self._jets = {"node": {}, "zero": {}, "P1": {}, "P2": {}}
        try:
            yield
        finally:
            self._jets = {}

    def refresh(self, only=None) -> None:
        """Rebuild form and contour caches, for every stored torus or for
        the stored indices in only, after new tori are put in place; caches
        do not depend on t, so rescaling t alone needs no refresh.

        Each refreshed index j stores as _layers[j] the `LayerRows` of its
        (block bytes, epsilon): one row, its `FormTable` (coefficients
        (2, n_max-1, n_max-1, 1) by pole, order, wp derivative and row) and
        its circles with the neck-matching integrals base and cols.  A set
        is looked up in shared_rows, and the keys not found there are
        built after the old caches go, as the one-row chunks of one
        `_circle_sets` pass (each distinct (tau, v) once, three sets to a
        jet call), bit for bit `_circle_sets(self, [T])`.  A set reads only
        its torus and epsilon, values, so sharing it keeps every bit.

        shared_rows gets what the refresh builds and holds it weakly, so a
        set that no state holds any more, such as a rejected line-search
        trial's, is freed as it would be without the map.  Held jets
        (`holding_jets`) of a (tau, v) that no stored torus has any more go
        before the build, which keeps the circle jets of what it builds.
        """
        if self._layers is None or only is None:
            self._layers = [None] * self.n_tori
            only = range(self.n_tori)
        keys = {j: (self.tori[j].block().tobytes(), self.epsilon) for j in only}
        built = self.shared_rows
        rows = {key: built.get(key) for key in keys.values()}  # held while assigning
        new = {key: self.tori[j] for j, key in keys.items() if rows[key] is None}
        for j, key in keys.items():  # the old caches go before the build
            self._layers[j] = rows[key]
        live = {T.block()[4:].tobytes() for T in self.tori}
        for held in self._jets.values():
            for key in held.keys() - live:
                del held[key]
        order = list(new)
        # one row per chunk: copying rows out of wider chunks cost the
        # solve's peak RSS more than the wider chunks saved
        for (u,), _, lr in _circle_sets(self, list(new.values()), 1, True):
            for cc in lr.circles.values():
                _add_matching(cc, self.n_max, self.rho)
            rows[order[u]] = built[order[u]] = lr
        for j, key in keys.items():
            self._layers[j] = rows[key]

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
    """The neck-matching map lambda -> vec + mat lambda[nbr], by blocks.

    Row (j,+,n) integrates over the circle at 0 of the next layer, row
    (j,-,n) over the circle at v of the previous one; both carry the
    prefactor (t^2/rho)^(n-1).  So block mat[j, s], (n_max-1, 2(n_max-1)),
    reads the flattened lambda row of the one stored torus nbr[j, s].
    """
    width = st.n_max - 1
    pref = (st.t ** 2 / st.rho) ** np.arange(1, st.n_max)
    nbr = np.array([[st.index_of(k + 1), st.index_of(k - 1)] for k in st.logical_range()])
    ccs = [st._layers[jn].circles[side] for row in nbr for jn, side in zip(row, ("zero", "node"))]
    mat = np.array([pref[:, None] * cc.cols.reshape(width, 2 * width) for cc in ccs])
    vec = np.array([pref * cc.base for cc in ccs])
    return mat.reshape(nbr.shape + mat.shape[1:]), vec.reshape(nbr.shape + (width,)), nbr


def fix_omega(st: GluingState) -> OmegaSeries:
    """Iterate the neck-matching map from lambda = 0 to its fixed point;
    the contraction estimate is the largest row sum of |mat|.

    Raises NonContractionError outside the contraction regime (t^2 >=
    rho*epsilon, or a contraction estimate not below 1, NaN included),
    and when no step falls below FIX_TOL within FIX_MAX_ITER iterations.
    """
    if st.t ** 2 >= st.rho * st.epsilon:
        raise NonContractionError(
            f"t = {st.t:g}: t^2 = {st.t**2:.3e} is not below rho*epsilon = {st.rho * st.epsilon:.3e}"
        )
    mat, vec, nbr = _fixed_point_system(st)
    est = float(np.max(np.sum(np.abs(mat), axis=-1)))
    if not est < 1.0:
        raise NonContractionError(f"contraction estimate {est:.3f} is not below 1")
    lam = np.zeros(vec.shape, dtype=complex)
    norms = []
    for _ in range(FIX_MAX_ITER):
        new = vec + (mat @ lam.reshape(len(lam), -1)[nbr, :, None])[..., 0]
        step = float(np.max(np.abs(new - lam)))
        norms.append(step)
        lam = new
        if step < FIX_TOL:
            break
    else:
        raise NonContractionError(f"fixed point not reached at t={st.t:g}: last step "
                                  f"{norms[-1]:.3e}, contraction estimate {est:.3g}")
    return OmegaSeries(lam=lam, contraction_estimate=est, update_norms=tuple(norms))


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


def gauss_and_omega(st: GluingState, series: OmegaSeries, k: int, z):
    """g_k and the density of the glued form on layer k at the same
    points of that torus, from one pair of Weierstrass jets; two arrays
    shaped like z, from the one row of the stored set.  z keeps its axes
    in the kernel, so rows of z along its last axis whose imaginary parts
    agree take the theta pass's one-column cosh/sinh step."""
    j = st.index_of(k)
    za = np.atleast_1d(np.asarray(z, dtype=complex))[None]
    gv, *parts = gauss_parts(st.tori[j].jets(za, st.n_max - 2), st._layers[j])
    return gv.reshape(np.shape(z)), glued_density(st, series.lam[j], *parts).reshape(np.shape(z))


def gauss_parts(jets: tuple, lr: LayerRows, sel=slice(None)):
    """g, the base form zeta(z) - zeta(z - v) - xi_raw(v) and the second-kind
    densities of both signs of the rows of lr (`LayerRows`), one row per
    row, from s and the wp stacks of their run's sets at order n_max - 2
    (`_point_sets`): row r reads set sel[r], or every row the one set of a
    slice sel."""
    s, dminus, dplus = jets
    s = s[sel]
    a, b, xiv = _gauss_constants(lr.tori)
    return (a * s + b, s - xiv, lr.forms.values(0, dplus, sel=sel),
            lr.forms.values(1, dminus, sel=sel))


def glued_density(st: GluingState, lam: np.ndarray, base, fplus, fminus):
    """The glued form's density from `gauss_parts` and one layer's lambda
    row: every order of both signs adds its term."""
    val = base
    for n in range(2, st.n_max + 1):
        w = st.rho ** (n - 1)
        val = val + w * lam[0, n - 2] * fplus[n - 2]
        val = val + w * lam[1, n - 2] * fminus[n - 2]
    return val


def omega_on_circle(st: GluingState, series: OmegaSeries, k: int, side: str,
                    rows: LayerRows | None = None, at=slice(None)):
    """Density of the glued form at the cached contour nodes of layer k,
    or at the contour nodes of the rows at of a set of parameter rows; one
    result row per row, so the state's own circle gives one row."""
    j = st.index_of(k)
    cc = (st._layers[j] if rows is None else rows).circles[side]
    row = series.lam[j]
    rhow = st.rho ** np.arange(1, st.n_max)
    return cc.w0[at] + np.einsum("s m, s m ... n -> ... n", row * rhow[None, :],
                                 cc.fvals[:, :, at])


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
