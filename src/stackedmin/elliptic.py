"""Weierstrass functions and complete elliptic integrals on a torus C/(Z + tau Z).

Everything is evaluated through rapidly convergent nome series: the
log-derivative of the odd theta function gives zeta, its next two
derivatives give wp and wp', and Eisenstein series give the quasi-period
eta1 and the invariants g2, g3.  Arguments are first reduced to the
fundamental parallelogram, so accuracy is uniform over the plane.

All evaluators accept scalars or numpy arrays and are pure functions of
their inputs; a `Lattice` is immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "Lattice",
    "TorusPoint",
    "PoleError",
    "weierstrass_jet",
    "zeta",
    "xi_raw",
    "lattice_coords",
    "reduce_centered",
    "torus_distance",
    "elliptic_KE",
    "theta_star",
]

DEFAULT_POLE_RADIUS = 1e-6
# glibc's complex sin and cos are cosh/sinh products up to |Im w| = 709,
# int(1023 ln 2); above it they take a scaled exp branch, then overflow
TRIG_IM_BOUND = 709.0
# a theta term below 1e-4 of the unit roundoff 2^-53 cannot move the
# rounded sum of an order-one u_k, so the series stops before it
THETA_TAIL_BOUND = 2.0**-53 * 1e-4
_DBL_MIN = float(np.finfo(float).tiny)  # 2^-1022
_INV_DBL_MIN = 2.0**1022


class PoleError(ValueError):
    """Evaluation was requested too close to a lattice point."""


def _eisenstein(tau: complex, weight: int) -> complex:
    """Normalized Eisenstein series E2, E4 or E6 at Q = exp(2 pi i tau);
    ValueError when it is cut at n = 401 with a last term above 2^-53 of
    the sum, as on flat moduli such as tau = 0.01i."""
    Q = np.exp(2j * np.pi * tau)
    coeff = {2: -24.0, 4: 240.0, 6: -504.0}[weight]
    acc = 1.0 + 0j
    n = 1
    while True:
        Qn = Q**n
        term = coeff * n ** (weight - 1) * Qn / (1.0 - Qn)
        acc += term
        if abs(term) < 1e-18 * abs(acc) or n > 400:
            break
        n += 1
    if abs(term) > 2.0**-53 * abs(acc):
        raise ValueError(f"weight-{weight} Eisenstein series at tau={tau} unconverged at n={n}")
    return complex(acc)


@dataclass(frozen=True)
class Lattice:
    """Torus modulus with derived quasi-periods and nome.

    Fields beyond `tau` are computed at construction:
    eta1 from the weight-2 Eisenstein series, eta2 forced by the Legendre
    relation eta1*tau - eta2 = 2 pi i, and the nome q = exp(i pi tau).
    n_terms is the least N >= 1 whose first dropped theta term is below
    `THETA_TAIL_BOUND` over the whole reduced cell.  Reduced coordinates
    lie in [-1/2, 1/2], so |Im v| <= pi Im tau / 2 and term n of every
    u_k (k <= 3) is at most
        B(n) = |q|^(n(n+1)) (2n+1)^3 cosh((2n+1) pi Im tau / 2).
    B is taken in logs, since a tall modulus underflows |q| and overflows
    the cosh, which would give 0 * inf.  The later terms fall faster than
    geometrically, so the whole tail is of the size of B(N).
    Raises ValueError when the theta pass would take sin or cos of a term
    with |Im w| = (2 n_terms - 1) pi Im tau / 2 above `TRIG_IM_BOUND`.
    """

    tau: complex
    eta1: complex = field(init=False)
    eta2: complex = field(init=False)
    nome: complex = field(init=False)
    g2: complex = field(init=False)
    g3: complex = field(init=False)
    n_terms: int = field(init=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not tau.imag > 0:
            raise ValueError(f"modulus must satisfy Im tau > 0, got {tau}")
        object.__setattr__(self, "tau", tau)
        eta1 = (np.pi**2 / 3.0) * _eisenstein(tau, 2)
        object.__setattr__(self, "eta1", complex(eta1))
        object.__setattr__(self, "eta2", complex(eta1 * tau - 2j * np.pi))
        object.__setattr__(self, "nome", complex(np.exp(1j * np.pi * tau)))
        object.__setattr__(self, "g2", complex((4 * np.pi**4 / 3.0) * _eisenstein(tau, 4)))
        object.__setattr__(self, "g3", complex((8 * np.pi**6 / 27.0) * _eisenstein(tau, 6)))
        log_bound = math.log(THETA_TAIL_BOUND)
        n = 1
        while True:
            y = (2 * n + 1) * math.pi * tau.imag / 2
            log_cosh = y + math.log1p(math.exp(-2 * y)) - math.log(2)
            log_b = -math.pi * tau.imag * n * (n + 1) + 3 * math.log(2 * n + 1) + log_cosh
            if log_b < log_bound:
                break
            n += 1
        object.__setattr__(self, "n_terms", n)
        reach = (2 * n - 1) * np.pi * tau.imag / 2
        if reach > TRIG_IM_BOUND:
            raise ValueError(
                f"modulus tau={tau} is too tall for the theta pass: its last term "
                f"reaches |Im w| = {reach:.1f}, above the bound {TRIG_IM_BOUND:g}"
            )


@lru_cache(maxsize=256)
def _lattice_cached(tau: complex) -> Lattice:
    return Lattice(tau)


def lattice_for(tau: complex) -> Lattice:
    """Memoized Lattice constructor keyed on the exact complex modulus."""
    return _lattice_cached(complex(tau))


def lattice_coords(z, tau: complex):
    """Real coordinates (x, y) with z = x + y*tau; unreduced, array-safe."""
    z = np.asarray(z, dtype=complex)
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    return x, y


def reduce_centered(z, tau):
    """Reduce to the centered parallelogram, coordinates in [-1/2, 1/2).

    Returns (z_red, m, n) with z = z_red + m + n*tau.  Ties at the
    boundary resolve by round-half-to-even, which keeps the reduction
    deterministic across platforms.  tau may be a column of moduli, one
    per entry of the leading set axis of z, which broadcasts.
    """
    x, y = lattice_coords(z, tau)
    m = np.round(x)
    n = np.round(y)
    return np.asarray(z, dtype=complex) - m - n * tau, m, n


def torus_distance(z1, z2, tau: complex):
    """Distance on C/(Z + tau Z) between z1 and z2: a float, or an array."""
    d, _, _ = reduce_centered(np.asarray(z1, dtype=complex) - z2, tau)
    # the centered representative may miss the true minimum for sheared
    # moduli, so compare against the eight neighboring translates
    cands = [d, d + 1, d - 1, d + tau, d - tau, d + 1 + tau, d - 1 - tau, d + 1 - tau, d - 1 + tau]
    dist = np.min(np.abs(cands), axis=0)
    return dist if dist.shape else float(dist)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the torus with its representative and lattice coordinates.

    x, y lie in [0, 1) and satisfy z = x + y*tau up to the reduction.
    """

    z: complex
    x: float
    y: float

    @classmethod
    def from_z(cls, z: complex, lat: Lattice) -> "TorusPoint":
        x, y = lattice_coords(complex(z), lat.tau)
        x = float(x - math.floor(x))
        y = float(y - math.floor(y))
        if x >= 1.0:
            x = 0.0
        if y >= 1.0:
            y = 0.0
        return cls(z=x + y * lat.tau, x=x, y=y)


def _one_per_row(y) -> bool:
    """Whether each row of y along the last axis holds one non-zero value.
    The ends of the first row are compared first, two scalar reads that
    settle most other arrays."""
    if y.ndim == 0 or y.size == 0 or y.flat[0] != y.flat[y.shape[-1] - 1]:
        return False
    first = y[..., :1]
    return bool(np.all(first != 0) and np.all(y == first))


def _theta_sums(v, q, n_terms: int, kmax: int):
    """Partial sums u_k = sum (-1)^n q^(n(n+1)) (2n+1)^k trig((2n+1)v).

    trig cycles through sin, cos, -sin, -cos as k increases; u_0 is
    proportional to the odd theta function at v and u_k to its k-th
    derivative.  v is the already-scaled argument (pi times the reduced
    torus coordinate).  n_terms is `Lattice.n_terms`: its first dropped
    term, bounded in logs over the reduced cell by
    |q|^(n(n+1)) (2n+1)^3 cosh((2n+1) pi Im tau / 2), is below
    `THETA_TAIL_BOUND` = 2^-53 * 1e-4.

    q is one nome, or a column of nomes (S, 1, ..., 1), one per entry of
    the leading set axis of v, all of one n_terms.  Each coefficient
    sign * q^(n(n+1)) * (2n+1)^k is a Python complex product per nome,
    and a column of them multiplies the trig array as a broadcast
    operand, in the loop that a single nome takes, so each set gets the
    bits of a pass on its own nome.

    sin w and cos w of a term w = x + iy share their factors.  numpy's
    complex sin and cos are glibc's csin and ccos, which compute
    sin w = (cosh y sin x, sinh y cos x) and
    cos w = (cosh y cos x, -(sinh y sin x)),
    so each term evaluates cosh y, sinh y, sin x and cos x once and
    assembles both with real products.  cosh y and sinh y come from one
    complex sin of DBL_MIN + iy: glibc takes sin = Re and cos = 1 for
    |Re| <= DBL_MIN, so it returns (cosh y DBL_MIN, sinh y), and the
    real part is normal (cosh y >= 1), so scaling it by 2^1022 gives
    cosh y exactly.  numpy's real sin and cos are glibc's too, whereas
    np.sinh and np.cosh are SIMD code that differs in the last bit.  On
    glibc the pair is therefore numpy's complex sin w and cos w bit for
    bit, signed zeros included, while |y| <= TRIG_IM_BOUND (709), where
    glibc leaves the cosh/sinh formulas; `Lattice` rejects any modulus
    whose pass reaches past it.  x and y are taken from w itself, since
    building them by real products could flip the sign of a zero.

    A row of w along the last axis whose imaginary parts are all equal
    and non-zero, as on the alpha period path, holds one argument
    DBL_MIN + iy bit for bit (equal non-zero floats share their bits), so
    that step runs on one column and broadcasts along the row.  A zero
    imaginary part is left out, since +0 and -0 compare equal.
    """
    v = np.asarray(v, dtype=complex)
    nomes, col = np.ravel(q).tolist(), np.shape(q)  # Python complex scalars
    out = [np.zeros(v.shape, dtype=complex) for _ in range(kmax + 1)]
    arg = np.empty(v.shape, dtype=complex)
    arg.real = _DBL_MIN
    hyp = np.empty(v.shape, dtype=complex)
    sin_x = np.empty(v.shape)
    cos_x = np.empty(v.shape)
    sin_w = np.empty(v.shape, dtype=complex)
    cos_w = np.empty(v.shape, dtype=complex)
    term = np.empty(v.shape, dtype=complex)
    w = np.empty(v.shape, dtype=complex)
    sign = 1.0
    for n in range(n_terms):
        np.multiply(2 * n + 1, v, out=w)
        y = w.imag
        cols = np.s_[..., :1] if _one_per_row(y) else np.s_[...]
        a, h = arg[cols], hyp[cols]
        a.imag = y[cols]
        np.sin(a, out=h)
        np.multiply(h.real, _INV_DBL_MIN, out=h.real)  # (cosh y, sinh y)
        np.sin(w.real, out=sin_x)
        np.cos(w.real, out=cos_x)
        np.multiply(h.real, sin_x, out=sin_w.real)
        np.multiply(h.imag, cos_x, out=sin_w.imag)
        np.multiply(h.real, cos_x, out=cos_w.real)
        np.multiply(h.imag, sin_x, out=cos_w.imag)
        np.negative(cos_w.imag, out=cos_w.imag)
        qf = [sign * nome ** (n * (n + 1)) for nome in nomes]
        for k in range(kmax + 1):
            c = [f * (2 * n + 1) ** k for f in qf]
            # a 0-d v keeps numpy's scalar complex product, which rounds
            # differently from the array loop
            c = np.array(c).reshape(col) if col else c[0]
            trig = (sin_w, cos_w)[k % 2]
            prod = c * trig[()] if v.ndim == 0 else np.multiply(c, trig, out=term)
            # subtracting the -sin, -cos terms is exact: negation commutes
            # with rounding, so this matches adding the negated products
            if k % 4 < 2:
                out[k] += prod
            else:
                out[k] -= prod
        sign = -sign
    return out


def _check_poles(zr, taus):
    near = np.abs(zr) < DEFAULT_POLE_RADIUS
    if np.any(near):
        # the first set with a point near a lattice point
        tau = taus[int(np.argmax(near.reshape(len(taus), -1).any(axis=1)))]
        raise PoleError(f"argument within {DEFAULT_POLE_RADIUS:g} of a lattice point of tau={tau}")


def weierstrass_jet(z, lat, jmax: int):
    """Weierstrass zeta and the stack wp, wp', ..., wp^(jmax) at z.

    One reduction, one pole check and one theta pass serve every order:
    the pass sums theta derivatives up to order min(jmax + 2, 3), which
    gives zeta, wp and wp'.  Orders beyond 1 come from the differentiated
    algebraic relation wp'' = 6 wp^2 - g2/2, which stays well conditioned
    for the orders needed here (jmax <= 10 in practice).

    lat is one `Lattice`, or a sequence of lattices of one n_terms, one
    per entry of the leading set axis of z.  Then tau, eta1, eta2, g2/2
    and the nomes enter as broadcast columns (S, 1, ..., 1) where one
    lattice gives Python scalars, and every element goes through the
    same IEEE operations, so each set has the bits of a call on its own
    lattice.

    Returns (zeta, derivs); zeta is a complex for scalar z, and derivs has
    shape (jmax+1,) + z.shape, empty for jmax = -1.  Raises PoleError
    within DEFAULT_POLE_RADIUS of a lattice point, naming the modulus of
    the first set that has one.
    """
    if jmax < -1:
        raise ValueError("jmax must be at least -1")
    lats = [lat] if isinstance(lat, Lattice) else list(lat)
    if len({L.n_terms for L in lats}) != 1:
        raise ValueError("the lattices of one jet call must share n_terms")
    consts = [(L.tau, L.eta1, L.eta2, L.g2 / 2.0, L.nome) for L in lats]
    if isinstance(lat, Lattice):
        tau, eta1, eta2, half_g2, nome = consts[0]
    else:
        col = (-1,) + (1,) * (np.ndim(z) - 1)
        tau, eta1, eta2, half_g2, nome = (np.array(c).reshape(col) for c in zip(*consts))
    zr, m, n = reduce_centered(z, tau)
    _check_poles(zr, [L.tau for L in lats])
    u = _theta_sums(np.pi * zr, nome, lats[0].n_terms, min(jmax + 2, 3))
    u0, u1 = u[0], u[1]
    zeta_val = eta1 * zr + np.pi * u1 / u0 + m * eta1 + n * eta2
    out = np.empty((jmax + 1,) + np.shape(z), dtype=complex)
    if jmax >= 0:
        r1, r2 = u1 / u0, u[2] / u0
        out[0] = -eta1 - np.pi**2 * (r2 - r1 * r1)
    if jmax >= 1:
        out[1] = -np.pi**3 * (u[3] / u0 - 3 * r1 * r2 + 2 * r1**3)
    _wp_orders(out, half_g2)
    return (zeta_val if zeta_val.shape else complex(zeta_val)), out


def _wp_orders(out, half_g2) -> None:
    """Orders 2 .. len(out) - 1 of a wp stack in place, from wp = out[0]
    and wp' = out[1], by the differentiated relation wp'' = 6 wp^2 - g2/2.
    Every step is elementwise, so half_g2, a scalar or a column that
    broadcasts, gives each entry the bits of its own lattice."""
    if len(out) > 2:
        out[2] = 6.0 * out[0] ** 2 - half_g2
    for j in range(3, len(out)):
        acc = np.zeros(out.shape[1:], dtype=complex)
        for i in range(j - 1):
            acc += comb(j - 2, i) * out[i] * out[j - 2 - i]
        out[j] = 6.0 * acc


def zeta(z, lat: Lattice):
    """Weierstrass zeta at z for the lattice Z + tau Z.

    Odd, quasi-periodic with increments eta1 and eta2 along the two
    generators.  Raises PoleError within DEFAULT_POLE_RADIUS of a lattice point.
    """
    return weierstrass_jet(z, lat, -1)[0]


def xi_raw(w, lat: Lattice):
    """R-linear lattice-coordinate form: x*eta1 + y*eta2 for w = x + y*tau.

    Not reduced; this is the branch that makes zeta - xi_raw honestly
    periodic, so it is what the balance form and the node data use.
    """
    w = np.asarray(w, dtype=complex)
    val = lat.eta1 * w - 2j * np.pi * (w.imag / lat.tau.imag)
    return val if val.shape else complex(val)


def elliptic_KE(m: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(m), E(m)) by the arithmetic-geometric mean.

    Parameter convention: K(m) = int_0^(pi/2) dt / sqrt(1 - m sin^2 t).
    Valid for 0 < m < 1.
    """
    if not 0.0 < m < 1.0:
        raise ValueError(f"parameter must lie in (0, 1), got {m}")
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    csum = 0.5 * c * c
    n = 0
    # hard cap: the AGM gains digits quadratically, 60 rounds is far past
    # double precision even for m within 1e-15 of the endpoints
    for n in range(1, 61):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        csum += 2 ** (n - 1) * c * c
        if c <= 1e-16 * a:
            break
    K = math.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return K, E


def theta_star() -> float:
    """Rhombic-angle threshold 2*arctan(K(1-m)/K(m)) at the root of 2E = K."""
    from scipy.optimize import brentq

    def h(m):
        K, E = elliptic_KE(m)
        return 2.0 * E - K

    m = brentq(h, 1e-6, 1.0 - 1e-9, xtol=1e-15)
    K, _ = elliptic_KE(m)
    Kp, _ = elliptic_KE(1.0 - m)
    return 2.0 * math.atan2(Kp, K)
