"""The balance form G(q) = zeta(q) - xi(q) on a torus and its root structure.

G is doubly periodic but only R-linear in disguise: writing
G(q) = zeta(q) + a q + b conj(q) with a = pi/Im(tau) - eta1 and
b = -pi/Im(tau) shows it is not meromorphic, so all root finding here
works on the real 2-system (Re G - Re C, Im G - Im C) with the honest
2x2 real Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    DEFAULT_POLE_RADIUS,
    Lattice,
    TorusPoint,
    reduce_centered,
    torus_distance,
    weierstrass_jet,
)

ROOT_TOL = 1e-10
DEDUP_RADIUS = 1e-6
DEGENERACY_TOL = 1e-9
SWEEP_ITERS = 50  # Newton steps of the root sweep

HALF_PERIOD_COORDS = ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


def _ab(lat: Lattice) -> tuple[complex, complex]:
    b = -np.pi / lat.tau.imag
    return -b - lat.eta1, b


def _G_and_dG(q, lat: Lattice):
    """G(q) = (zeta(q) + a q) + b conj(q) and A = a - wp(q), so that
    dG = A dq + b d(conj q), from one jet; keep a scalar q 0-d."""
    a, b = _ab(lat)
    zeta_q, wp_q = weierstrass_jet(q, lat, 0)
    return zeta_q + a * q + b * np.conj(q), a - wp_q[0]


def hecke_G(q, lat: Lattice):
    """Evaluate G(q) = zeta(q) - xi(q); lattice-periodic in q, odd, array-safe."""
    if isinstance(q, TorusPoint):
        q = q.z
    val = _G_and_dG(np.asarray(q, dtype=complex), lat)[0]
    return val if val.shape else complex(val)


@dataclass(frozen=True)
class HeckeJacobian:
    """Differential of G at a point, as a real 2x2 matrix on (Re q, Im q)."""

    m: np.ndarray
    det: float

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.m, compute_uv=False)[-1])


def hecke_jacobian(q: complex, lat: Lattice) -> HeckeJacobian:
    """Differential of G at q: dG = A dq + B d(conj q), A = a - wp(q), B = b."""
    A, B = complex(_G_and_dG(complex(q), lat)[1]), _ab(lat)[1]  # a Python A + B keeps signed zeros
    m = np.array([[(A + B).real, -(A - B).imag],
                  [(A + B).imag, (A - B).real]])
    return HeckeJacobian(m=m, det=float(abs(A) ** 2 - abs(B) ** 2))


@dataclass
class SolutionSet:
    """Deduplicated roots of G = C with their Jacobians.

    `failures` lists seed points whose Newton iteration did not converge;
    a nonempty list is informational, not an error.
    """

    roots: list[TorusPoint]
    C: complex
    count: int
    jacobians: list[HeckeJacobian] = field(default_factory=list)
    failures: list[complex] = field(default_factory=list)


def _masked_G_step(z: np.ndarray, lat: Lattice, C: complex):
    """One vectorized Newton update; near-lattice entries are flagged dead."""
    zr, _, _ = reduce_centered(z, lat.tau)
    alive = np.abs(zr) > 10 * DEFAULT_POLE_RADIUS
    dz = np.zeros_like(z)
    F = np.full_like(z, np.inf)
    if np.any(alive):
        za = z[alive]
        b = _ab(lat)[1]
        Ga, A = _G_and_dG(za, lat)
        Fa = Ga - C
        det = np.abs(A) ** 2 - abs(b) ** 2
        with np.errstate(all="ignore"):
            det = np.where(np.abs(det) < 1e-14, np.nan, det)
            step = (-Fa * np.conj(A) + np.conj(Fa) * b) / det
            mag = np.abs(step)
            step = np.where(mag > 0.5, step * (0.5 / np.maximum(mag, 1e-300)), step)
        dz[alive] = np.nan_to_num(step, nan=0.0)
        F[alive] = Fa
    return F, dz, alive


def solve_G_equals_C(lat: Lattice, C: complex, grid: int = 32) -> SolutionSet:
    """All solutions of G(q) = C from a seeded, deduplicated Newton sweep.

    Seeds are a half-cell-offset grid on the fundamental domain (so no
    seed starts on the lattice) plus the three half-periods, which are
    exact roots whenever C = 0.
    """
    C = complex(C)
    ii = (np.arange(grid) + 0.5) / grid
    X, Y = np.meshgrid(ii, ii)
    seeds = (X + Y * lat.tau).ravel()
    seeds = np.concatenate([seeds, [0.5, lat.tau / 2, (1 + lat.tau) / 2]])

    z = seeds.astype(complex)
    converged = np.zeros(z.shape, dtype=bool)
    for _ in range(SWEEP_ITERS):
        F, dz, alive = _masked_G_step(z, lat, C)
        newly = alive & (np.abs(F) < ROOT_TOL) & (np.abs(dz) < 1e-12)
        converged |= newly
        z = np.where(converged | ~alive, z, z + dz)
        if np.all(converged | ~alive):
            break

    roots: list[TorusPoint] = []
    for zc in z[converged]:
        if any(torus_distance(zc, r.z, lat.tau) < DEDUP_RADIUS for r in roots):
            continue
        roots.append(TorusPoint.from_z(complex(zc), lat))
    # stable ordering for reproducible output; modulo 1 after rounding, so a
    # root on a cell edge sorts at 0 whichever seed found it
    roots.sort(key=lambda p: (round(p.y, 9) % 1.0, round(p.x, 9) % 1.0))
    jacs = [hecke_jacobian(r.z, lat) for r in roots]
    failures = [complex(s) for s, ok in zip(seeds, converged) if not ok]
    return SolutionSet(roots=roots, C=C, count=len(roots), jacobians=jacs, failures=failures)


def degeneracy_2division(lat: Lattice, which: int) -> tuple[complex, bool]:
    """Degeneracy test for a 2-division point.

    which selects 1 -> 1/2, 2 -> tau/2, 3 -> (1+tau)/2.  The point is a
    degenerate critical point exactly when the period quotient
    (tau*wp(w) + eta2)/(wp(w) + eta1) is real.
    """
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2 or 3")
    x, y = HALF_PERIOD_COORDS[which - 1]
    w = x + y * lat.tau
    p = complex(weierstrass_jet(w, lat, 0)[1][0])  # numpy's complex division rounds apart
    quotient = (lat.tau * p + lat.eta2) / (p + lat.eta1)
    return complex(quotient), bool(abs(quotient.imag) < DEGENERACY_TOL)
