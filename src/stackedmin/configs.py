"""Stacking sequences: windows with periodic tails, balance and the catalog.

A configuration is the step sequence (q_k); consecutive node positions
differ by q_k, so uniform separation of nodes is exactly q_k staying away
from 0 on the torus.  Bi-infinite sequences are stored as an explicit
window for |k| <= K plus one periodic pattern per side, indexed by the
absolute k so that relabeling the window does not move the tails.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .elliptic import Lattice, lattice_for, theta_star, torus_distance
from .hecke import hecke_G, hecke_jacobian

BALANCE_TOL = 1e-10
NONDEG_TOL = 1e-8
MIN_SEPARATION = 1e-3


class UnknownConfigError(ValueError):
    """Raised for a catalog name that does not exist; carries the valid names."""

    def __init__(self, name: str, names: tuple[str, ...]):
        self.name = name
        self.names = names
        super().__init__(f"unknown configuration {name!r}; valid names: {', '.join(names)}")


class UnbalancedConfigError(ValueError):
    """Raised for a stacking whose forces G(q_{k+1}) - G(q_k) do not all
    vanish; carries the layer k of the largest force and its size."""

    def __init__(self, k: int, force: float):
        self.k = k
        self.force = force
        super().__init__(f"unbalanced configuration: largest force {force:.3e} at layer "
                         f"k={k}; necks open only where G(q_k) is the same for every k")


@dataclass(frozen=True)
class Configuration:
    tau: complex
    window: tuple[complex, ...]
    left_tail: tuple[complex, ...]
    right_tail: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "window", tuple(complex(q) for q in self.window))
        object.__setattr__(self, "left_tail", tuple(complex(q) for q in self.left_tail))
        object.__setattr__(self, "right_tail", tuple(complex(q) for q in self.right_tail))
        if not cmath.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        for name, steps in (("window", self.window), ("left_tail", self.left_tail),
                            ("right_tail", self.right_tail)):
            for i, q in enumerate(steps):
                if not cmath.isfinite(q):
                    raise ValueError(f"{name}[{i}] must be finite, got {q}")
        if self.tau.imag <= 0:
            raise ValueError("Im tau must be positive")
        if len(self.window) % 2 != 1:
            raise ValueError("window must have odd length 2K+1")
        if not self.left_tail or not self.right_tail:
            raise ValueError("tails must be non-empty periodic patterns")
        # the padded range holds every tail step; each distinct step once
        first = {}
        for k in self.ks(padded=True):
            first.setdefault(self.q(k), k)
        for q, k in first.items():
            d = torus_distance(q, 0.0, self.tau)
            if d < MIN_SEPARATION:
                raise ValueError(f"step q_{k} is within {MIN_SEPARATION} of the lattice (distance {d:.2e})")

    @property
    def K(self) -> int:
        return (len(self.window) - 1) // 2

    def q(self, k: int) -> complex:
        """Step value at any integer index; tails cycle by absolute index."""
        K = self.K
        if -K <= k <= K:
            return self.window[k + K]
        if k > K:
            return self.right_tail[k % len(self.right_tail)]
        return self.left_tail[k % len(self.left_tail)]

    def ks(self, padded: bool = False) -> range:
        """Window indices, padded by one tail period per side when padded."""
        K = self.K
        if not padded:
            return range(-K, K + 1)
        return range(-K - len(self.left_tail), K + len(self.right_tail) + 1)

    @property
    def lattice(self) -> Lattice:
        return lattice_for(self.tau)

    def is_periodic(self) -> bool:
        """True when window and both tails repeat one common pattern."""
        n = len(self.right_tail)
        if len(self.left_tail) != n:
            return False
        return all(abs(self.q(k) - self.right_tail[k % n]) < 1e-15 for k in self.ks(padded=True))


@dataclass
class BalanceReport:
    G_values: dict[int, complex]
    forces: dict[int, complex]
    max_force: float
    balanced: bool


def balance_report(cfg: Configuration) -> BalanceReport:
    """Forces between consecutive layers over the window plus one tail period.

    G is evaluated once per distinct step, by the same scalar call a
    per-layer loop makes, so the values keep that loop's bits.
    """
    lat = cfg.lattice
    ks = list(cfg.ks(padded=True))
    G_of = {q: complex(hecke_G(q, lat)) for q in dict.fromkeys(cfg.q(k) for k in ks)}
    G = {k: G_of[cfg.q(k)] for k in ks}
    forces = {k: G[k + 1] - G[k] for k in ks[:-1]}
    max_force = max(abs(f) for f in forces.values())
    return BalanceReport(G_values=G, forces=forces, max_force=max_force, balanced=max_force < BALANCE_TOL)


def nondegeneracy_check(cfg: Configuration) -> tuple[float, bool]:
    """Smallest singular value of the blockwise differential of (G_k).

    The differential with respect to (q_k) is diagonal per block, so the
    inverse is uniformly bounded exactly when the worst block is.  Each
    distinct step is evaluated once, as in `balance_report`.
    """
    lat = cfg.lattice
    steps = dict.fromkeys(cfg.q(k) for k in cfg.ks(padded=True))
    min_sv = min(hecke_jacobian(q, lat).min_singular_value() for q in steps)
    return float(min_sv), min_sv > NONDEG_TOL


def _split(tau: complex, left: tuple, right: tuple, K: int) -> Configuration:
    """The window of half-width K of the stack with the left pattern for
    k < 0 and the right one for k >= 0, both indexed by absolute k."""
    window = tuple(
        left[k % len(left)] if k < 0 else right[k % len(right)] for k in range(-K, K + 1)
    )
    return Configuration(tau, window, tuple(left), tuple(right))


def periodic_stack(tau: complex, pattern: tuple) -> Configuration:
    """The periodic stack of a pattern, on a window of one pattern length."""
    return _split(tau, pattern, pattern, len(pattern))


def _diagonal_root(theta: float) -> float:
    """The scale c in (0, 1/2) with G(c(1+tau)) = 0 on the unit-arc torus.

    Along the rhombic diagonal G keeps a fixed complex direction with a
    real coefficient changing sign once, so a projected bisection finds
    the root.  Exists only below the critical angle near 1.234.
    """
    from scipy.optimize import brentq

    tau = complex(np.exp(1j * theta))
    lat = lattice_for(tau)
    anchor = hecke_G(0.08 * (1 + tau), lat)
    d = anchor / abs(anchor)

    def h(c):
        return (hecke_G(c * (1 + tau), lat) / d).real

    lo, hi = 0.08, 0.48
    if h(lo) * h(hi) > 0:
        raise ValueError(f"no diagonal balance scale for theta={theta:.4f} (needs theta below {theta_star():.4f})")
    return float(brentq(h, lo, hi, xtol=1e-14))


_EQ = complex(np.exp(1j * np.pi / 3))
_Q = (1 + _EQ) / 3


def _same(tau: complex, pattern: tuple) -> tuple:
    return tau, pattern, pattern


def _half_period(tau: complex) -> tuple:
    return _same(tau, ((1 + tau) / 2,))


def _rhombic(theta: float) -> tuple:
    """The oH stack +-c(1 + tau) on the unit-arc torus at the diagonal root c."""
    tau, c = complex(np.exp(1j * theta)), _diagonal_root(theta)
    return _same(tau, (c * (1 + tau), -c * (1 + tau)))


# name -> builder of (tau, left pattern, right pattern) from (im, theta)
_CATALOG = {
    "tP": lambda im, th: _half_period(1j),
    "oPa": lambda im, th: _half_period(1j * im),
    "oPb": lambda im, th: _half_period(complex(np.exp(1j * (1.4 if th is None else th)))),
    "oCLP'": lambda im, th: _same(1j * im, (0.5,)),
    "rPD": lambda im, th: _same(_EQ, (_Q,)),
    "H": lambda im, th: _same(_EQ, (_Q, -_Q)),
    "oDelta": lambda im, th: _same(1j * im, (0.5, 1j * im / 2)),
    "oH": lambda im, th: _rhombic(1.1 if th is None else th),
    "twin-rPD": lambda im, th: (_EQ, (_Q,), (-_Q,)),
    "rPD-H": lambda im, th: (_EQ, (_Q, -_Q), (-_Q,)),
    "H-H-shift": lambda im, th: (_EQ, (_Q, -_Q), (-_Q, _Q)),
    "oPa-oCLP": lambda im, th: (1j * im, (0.5,), ((1 + 1j * im) / 2,)),
    "oCLP-rot-twin": lambda im, th: (1j * im, (0.5,), (1j * im / 2,)),
    "oPa-oDelta": lambda im, th: (1j * im, (1j * im / 2, 0.5), ((1 + 1j * im) / 2,)),
    "oPb-degenerate": lambda im, th: _half_period(complex(np.exp(1j * theta_star()))),
}
CATALOG_NAMES = tuple(_CATALOG)

# entries that are balanced but sit at a degenerate critical point on purpose
DEGENERATE_NAMES = frozenset({"oPb-degenerate"})


def catalog(name: str, K: int = 8, im: float = 1.25, theta: float | None = None) -> Configuration:
    """Named example configurations.

    im sets Im(tau) for the purely imaginary moduli families, theta the
    arc angle for the unit-modulus ones.  Defaults keep every entry away
    from degenerate parameters except `oPb-degenerate`, which pins the
    critical angle on purpose.  The window has half-width K, and each
    entry's builder runs only when that entry is asked for.
    """
    if name not in _CATALOG:
        raise UnknownConfigError(name, CATALOG_NAMES)
    return _split(*_CATALOG[name](im, theta), K)


def config_to_dict(cfg: Configuration) -> dict:
    c2 = lambda z: [z.real, z.imag]
    return {
        "tau": c2(cfg.tau),
        "window": [c2(q) for q in cfg.window],
        "left_tail": [c2(q) for q in cfg.left_tail],
        "right_tail": [c2(q) for q in cfg.right_tail],
    }


def config_from_dict(d: dict) -> Configuration:
    try:
        z = lambda p: complex(p[0], p[1])
        return Configuration(
            tau=z(d["tau"]),
            window=tuple(z(p) for p in d["window"]),
            left_tail=tuple(z(p) for p in d["left_tail"]),
            right_tail=tuple(z(p) for p in d["right_tail"]),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed configuration object: {exc}") from exc
