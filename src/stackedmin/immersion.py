"""Triangulated immersions of solved opened-node states.

The Weierstrass data on layer k is the Gauss map (t*g_k)^((-1)^(k+1))
together with the height differential t*omega.  Each layer contributes
a doubly periodic graph-like patch of its torus with the two chart
disks removed; consecutive patches are joined through neck annuli
integrated term by term in the chart coordinate.  Positions are
recovered from the antiderivative triple (F+, F-, H) with

    x1 + i x2 = (conj(F-) - F+) / 2,      x3 = Re H,

where F+- integrate the Gauss map to the power +-1 against the height
differential.  In the chart w of a neck the triple is one Laurent series,
and `_neck_sheet` evaluates its antiderivative on a (ring, spoke) grid;
it gives both the seam rings of the layer patches and the two sheets of
each neck.  Per-layer frames track a base point on every torus and carry
the vertical spacing data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .elliptic import DEFAULT_POLE_RADIUS, lattice_coords, reduce_centered
from .opening import (
    ChartError,
    GluingState,
    NeckLaurent,
    OmegaSeries,
    gauss_and_omega,
    laurent_coeffs,
    mirror_conj,
    neck_point,
    path_base,
)

GRID_RES = 64
NECK_RINGS = 16
NECK_SPOKES = 64
THETAS = 2.0 * np.pi * np.arange(NECK_SPOKES) / NECK_SPOKES  # spoke angles
# evaluation-side Laurent order; the seam sits at |w| = eps where the
# truncation error decays only like 2^-n, so this must exceed the order
# carried by the gluing solve
LAURENT_ORDER = 32
LOOP_TOL = 1e-8
LOOP_GAIN = 4.0  # least fall of a quadrature loop defect when the grid doubles
TAIL_TOL = 1e-7
CUT_FACTOR = 1.25  # layer grids keep |1/g| >= CUT_FACTOR * epsilon
SEG_NODES = 12
SEG_STEP = 0.04
EDGE_NODES = 4  # Gauss nodes per grid edge
# two face planes closer than this in sin(angle) take the coplanar test
COPLANAR_SIN = 1e-6
SWEEP_CHUNK = 1 << 18  # candidate face pairs expanded at once
GRAPH_FLOOR = 0.5  # least |n3| of a layer face that still reads as a graph
SLICE_FACTOR = 0.6  # neck slices sit SLICE_FACTOR * t log(eps/t) off the waist
LAYER, NECK_PLUS, NECK_MINUS = 0, 1, 2  # face part codes


class LoopResidualError(RuntimeError):
    """A contractible loop of the cut layer grid picked up a position
    defect above LOOP_TOL.  finer is the defect on the grid of twice the
    resolution: a quadrature defect falls by LOOP_GAIN or more there, and
    the message then advises a finer grid; a defect that stays means the
    periods of the layer do not close, so the state is not balanced."""

    def __init__(self, residual: float, k: int, t: float, grid_res: int,
                 finer: float):
        if finer * LOOP_GAIN <= residual:
            advice = f"use a finer grid ({finer:.2e} at grid_res={2 * grid_res})"
        else:
            advice = (f"it stays at {finer:.2e} at grid_res={2 * grid_res}, so the "
                      f"periods of layer k={k} do not close: the state is not balanced")
        super().__init__(f"layer k={k} at t={t:g}, grid_res={grid_res}: loop residual "
                         f"{residual:.2e} exceeds {LOOP_TOL:.0e}; {advice}")
        self.residual, self.k, self.t, self.grid_res = residual, k, t, grid_res
        self.finer = finer


class CoefficientDecayError(RuntimeError):
    """Truncated neck series tail exceeds the accuracy target."""


class MeshTopologyError(RuntimeError):
    """The cut grid of layer k at neck size t is not a torus with two
    disks removed at this grid_res; a finer grid usually resolves them."""

    def __init__(self, what: str, k: int, t: float, grid_res: int):
        super().__init__(f"layer k={k} at t={t:g}, grid_res={grid_res}: "
                         f"{what}; use a finer grid")
        self.k, self.t, self.grid_res = k, t, grid_res


def _near_rep(p: complex, ref: complex, tau: complex) -> complex:
    """Lattice representative of p closest to ref."""
    red, _, _ = reduce_centered(p - ref, tau)
    return ref + complex(red)


def _cell_rep(p: complex, corner: complex, tau: complex) -> complex:
    """Representative of p in the cell with the given corner."""
    x, y = lattice_coords(p - corner, tau)
    return corner + float(x) % 1.0 + (float(y) % 1.0) * tau


def _positions(triples: np.ndarray) -> np.ndarray:
    tr = np.asarray(triples)
    x12 = 0.5 * (np.conj(tr[..., 1]) - tr[..., 0])
    return np.stack([x12.real, x12.imag, tr[..., 2].real], axis=-1)


def _lattice_triple(shift: complex, tau: complex, alpha: np.ndarray,
                    beta: np.ndarray) -> np.ndarray:
    """Period triple of the lattice vector shift = m + n*tau."""
    x, y = lattice_coords(shift, tau)
    return round(float(x)) * alpha + round(float(y)) * beta


def _diffs(st: GluingState, series: OmegaSeries, k: int, z) -> np.ndarray:
    """Integrand triple (F+', F-', H') against dz at layer-k points.

    F+- integrate the Gauss map to the power +-1 against the height
    differential t*omega.  Points inside the neck (|1/g| <= t) raise
    ChartError.
    """
    gv, W = gauss_and_omega(st, series, k, z)
    if np.any(np.abs(gv) * st.t >= 1.0):
        raise ChartError("point lies below the neck waist")
    div = W / gv
    mul = (st.t * st.t) * gv * W
    gdh, gidh = (div, mul) if k % 2 == 0 else (mul, div)
    return np.stack([gdh, gidh, st.t * W], axis=-1)


def weierstrass_phi(k: int, z, st: GluingState, series: OmegaSeries):
    """Densities (phi1, phi2, phi3) of the Weierstrass forms against dz.

    phi3 is the height density t*omega; phi1, phi2 combine the Gauss
    map and its reciprocal.  Points inside the neck (|1/g| <= t) raise
    ChartError.
    """
    fp, fm, h = np.moveaxis(_diffs(st, series, k, z), -1, 0)
    phi = (0.5 * (fm - fp), 0.5j * (fm + fp), h)
    if np.ndim(z) == 0:
        return tuple(complex(p) for p in phi)
    return phi


_leggauss = lru_cache(maxsize=None)(leggauss)  # one table per node count


def _segment_triples(st: GluingState, series: OmegaSeries, k: int,
                     ends) -> np.ndarray:
    """Integrals of the triple along the straight segments z0 -> z1 of
    ends, in pieces of at most SEG_STEP with SEG_NODES Gauss nodes each.
    One _diffs call takes the nodes of all segments, and each segment
    sums its own slice, as it would alone."""
    x, wgt = _leggauss(SEG_NODES)
    nodes, pieces = [], []
    for z0, z1 in ends:
        vec = z1 - z0
        p = max(1, int(math.ceil(abs(vec) / SEG_STEP)))
        s = (np.arange(p)[:, None] + 0.5 * (x[None, :] + 1.0)) / p
        nodes.append(z0 + s.ravel() * vec)
        pieces.append(p)
    vals = _diffs(st, series, k, np.concatenate(nodes))
    out = np.empty((len(pieces), 3), dtype=complex)
    start = 0
    for i, ((z0, z1), p) in enumerate(zip(ends, pieces)):
        seg = vals[start : start + p * SEG_NODES].reshape(p, SEG_NODES, 3)
        out[i] = np.einsum("n, p n c -> c", 0.5 * wgt / p, seg) * (z1 - z0)
        start += p * SEG_NODES
    return out


def _edge_triples(st: GluingState, series: OmegaSeries, k: int,
                  z0s: np.ndarray, vec: complex) -> np.ndarray:
    """Batched straight-edge integrals sharing one direction vector."""
    x, wgt = _leggauss(EDGE_NODES)
    s = 0.5 * (x + 1.0)
    zs = z0s[:, None] + s[None, :] * vec
    vals = _diffs(st, series, k, zs.ravel()).reshape(len(z0s), EDGE_NODES, 3)
    return np.einsum("n, e n c -> e c", 0.5 * wgt, vals) * vec


# ---------------------------------------------------------------------------
# neck annuli


def _neck_sheet(nl: NeckLaurent, side: str, radii: np.ndarray) -> np.ndarray:
    """Triples of one neck side on the (ring, spoke) grid w = radii[j]
    exp(i THETAS[s]) of its cut chart, relative to (radii[0], 0): the plus
    chart on layer nl.k (side "+") or the minus chart on layer nl.k+1
    (side "-").

    The antiderivatives of (F+', F-', H') against dw are one coefficient
    array over the powers p of w, with the coefficients of log w at p = 0.
    Under w * w' = t^2 the minus chart exchanges the regular and singular
    tails and flips every coefficient with the residue.  The terms are the
    separable products r^p e^(i p theta), with log r + i theta at p = 0,
    summed in ascending p.
    """
    n, t = len(nl.c_plus), nl.t
    reg, sing = (nl.c_plus, nl.c_minus) if side == "+" else (nl.c_minus, nl.c_plus)
    # density c0/w + sum reg[n-1] w^(n-1) + t^(2n) sing[n-1] w^(-n-1), ascending
    dens = np.array([t ** (2 * j) * c for j, c in zip(range(n, 0, -1), sing[::-1])]
                    + [nl.c0, *reg]) * (1.0 if side == "+" else -1.0)
    p = np.arange(-n - 1, n + 2)
    coef = np.zeros((len(p), 3), dtype=complex)
    # (F+', F-', H') = (w dens, t^2 dens / w, t dens) on even layers, so
    # the w^m term of dens integrates to p = m + 2, m and m + 1
    coef[2:, 0], coef[:-2, 1], coef[1:-1, 2] = dens, t * t * dens, t * dens
    if (nl.k + (side == "-")) % 2:
        coef = coef[:, [1, 0, 2]]
    # part by part, as Python's c / p rounds: numpy's complex division
    # multiplies by 1 / p, which would move the bits of the spoke-0 weld
    div = np.where(p == 0, 1, p)[:, None]
    coef = coef.real / div + 1j * (coef.imag / div)
    powers = (radii[:, None] ** p).T  # (power, ring)
    basis = powers[:, :, None] * np.exp(1j * p[:, None] * THETAS)[:, None, :]
    basis[p == 0] = np.log(radii)[:, None] + 1j * THETAS
    vals = np.sum(basis[..., None] * coef[:, None, None, :], axis=0)
    return vals - vals[0, 0]


def _tail_estimate(nl: NeckLaurent) -> tuple[float, float]:
    """Magnitude of the last retained density terms at the chart edges."""
    n = len(nl.c_plus)
    reg = abs(nl.c_plus[-1]) * nl.epsilon ** (n - 1) if n else 0.0
    sing = abs(nl.c_minus[-1]) * nl.t ** (n - 1) if len(nl.c_minus) else 0.0
    return reg * nl.epsilon, sing * nl.epsilon


@dataclass
class NeckField:
    """Integrated triples on both half-annuli of one neck.

    plus[j, s] sits at w = radii[j] exp(i THETAS[s]) in the chart of
    layer k; minus[j, s] at w' = radii[j] exp(i THETAS[s]) in the chart
    of layer k+1.  Row 0 is the seam |w| = epsilon, the last row the
    waist |w| = t.  Waist points pair by spoke s <-> (spokes - s) mod
    spokes.  Both sheets are relative to the plus seam point (epsilon, 0).
    """

    k: int
    radii: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    laurent: NeckLaurent
    tail_plus: float
    tail_minus: float
    weld_defect: float


def integrate_neck(k: int, st: GluingState, series: OmegaSeries) -> NeckField:
    """Integrate the neck between layers k and k+1 on a log-radial grid.

    Both sheets come from `_neck_sheet` of the neck's own Laurent data,
    relative to the plus seam point (epsilon, theta=0).  The minus sheet
    is welded to the plus sheet at spoke 0 of the waist, so minus[0, 0]
    is the triple increment through the neck; the weld defect reports the
    residual of the two-chart matching over the remaining spokes.
    """
    if st.t <= 0.0:
        raise ValueError("neck integration needs t > 0")
    nl = laurent_coeffs(st, series, k, LAURENT_ORDER)
    tail = _tail_estimate(nl)
    if max(tail) > TAIL_TOL:
        raise CoefficientDecayError(
            f"neck {k} series tail {max(tail):.2e} exceeds {TAIL_TOL:.0e}")
    eps = st.epsilon
    radii = eps * (st.t / eps) ** (np.arange(NECK_RINGS + 1) / NECK_RINGS)
    plus, minus = _neck_sheet(nl, "+", radii), _neck_sheet(nl, "-", radii)
    minus += plus[-1, 0] - minus[-1, 0]
    pair = (NECK_SPOKES - np.arange(NECK_SPOKES)) % NECK_SPOKES
    gap = _positions(plus[-1]) - _positions(minus[-1])[pair]
    weld = float(np.max(np.linalg.norm(gap, axis=-1)))
    return NeckField(k=k, radii=radii, plus=plus, minus=minus, laurent=nl,
                     tail_plus=tail[0], tail_minus=tail[1], weld_defect=weld)


def neck_flux(nl: NeckLaurent, k_parity_even: bool) -> np.ndarray:
    """Flux vector of the waist cycle from the Laurent data."""
    t2 = nl.t * nl.t
    fp = 2j * np.pi * t2 * (nl.c_minus[0] if k_parity_even else nl.c_plus[0])
    fm = 2j * np.pi * t2 * (nl.c_plus[0] if k_parity_even else nl.c_minus[0])
    fh = 2j * np.pi * nl.t * nl.c0
    return np.array([(0.5 * (fm - fp)).imag, (0.5j * (fm + fp)).imag, fh.imag])


# ---------------------------------------------------------------------------
# layer patches


@dataclass
class LayerPatch:
    """Graph-like triangulated patch of one layer torus.

    Vertices carry unreduced plane coordinates of the cell spanned from
    the mesh corner; triples are raw (F+, F-, H) values anchored at the
    tree root.  seam maps each side to the ring vertex index array; faces
    index into the local vertex list.
    """

    k: int
    verts_z: np.ndarray
    triples: np.ndarray
    faces: np.ndarray
    seam: dict[str, np.ndarray]
    centers: dict[str, complex]
    root_z: complex
    alpha: np.ndarray
    beta: np.ndarray
    loop_defect: float
    stitch_defect: float


def _mesh_corner(T) -> complex:
    """Cell corner maximizing edge clearance from both chart centers,
    among 20 x 20 candidates; the first best one in (fx, fy) order wins."""
    edge = np.linspace(0.0, 1.0, 33)
    f = np.linspace(0.0, 0.95, 20)
    z0 = (f[:, None] + f[None, :] * T.tau).reshape(-1, 1)
    pts = np.concatenate([z0 + edge, z0 + edge * T.tau,
                          z0 + 1.0 + edge * T.tau, z0 + T.tau + edge], axis=1)
    score = np.min([np.min(np.abs(reduce_centered(pts - c, T.tau)[0]), axis=1)
                    for c in (0.0, T.v)], axis=0)
    return z0[np.argmax(score), 0]


def _grid_faces(full_id: np.ndarray, vid: np.ndarray):
    """Two triangles per grid cell whose corners are all kept, cell by
    cell in (i, j) order: as ids of the unwrapped (n+1, n+1) vertex grid
    full_id, and as wrapped ids of the (n, n) grid vid for the hole walks."""
    n = len(vid)
    tri = np.array([[0, 1, 2], [0, 2, 3]])
    quad = np.stack([full_id[:n, :n], full_id[1:, :n], full_id[1:, 1:],
                     full_id[:n, 1:]], axis=-1)[:, :, tri].reshape(-1, 3)
    quad_w = np.stack([vid, np.roll(vid, -1, 0), np.roll(vid, (-1, -1), (0, 1)),
                       np.roll(vid, -1, 1)], axis=-1)[:, :, tri].reshape(-1, 3)
    live = np.all(quad >= 0, axis=1)
    return quad[live], quad_w[live]


def _hole_cycles(faces_w: np.ndarray) -> list[list[int]] | None:
    """Closed boundary walks of the kept region, in wrapped vertex ids;
    None when the boundary is not a union of simple cycles."""
    edges = np.sort(faces_w[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, counts = np.unique(edges, axis=0, return_index=True,
                                 return_counts=True)
    nbrs: dict[int, list[int]] = {}
    for a, b in edges[np.sort(first[counts == 1])]:  # boundary, as first met
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


def _zip_band(ids_a: np.ndarray, ang_a: np.ndarray,
              ids_b: np.ndarray, ang_b: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangle strip between two angularly ordered closed loops."""
    na, nb = len(ids_a), len(ids_b)
    ia = int(np.argmin(ang_a))
    ib = int(np.argmin((ang_b - ang_a[ia]) % (2.0 * np.pi)))

    def unwrapped(ang, start, count, origin):
        out = [origin + ((ang[start] - origin + np.pi) % (2 * np.pi)) - np.pi]
        for s in range(1, count + 1):
            raw = ang[(start + s) % len(ang)]
            step = ((raw - out[-1] + np.pi) % (2.0 * np.pi)) - np.pi
            out.append(out[-1] + step)
        return out

    ua = unwrapped(ang_a, ia, na, ang_a[ia])
    ub = unwrapped(ang_b, ib, nb, ua[0])
    faces = []
    ca = cb = 0
    while ca < na or cb < nb:
        va = ids_a[(ia + ca) % na]
        vb = ids_b[(ib + cb) % nb]
        if cb >= nb or (ca < na and ua[ca + 1] <= ub[cb + 1]):
            faces.append((va, ids_a[(ia + ca + 1) % na], vb))
            ca += 1
        else:
            faces.append((va, ids_b[(ib + cb + 1) % nb], vb))
            cb += 1
    return faces


def _tree_walk(n_nodes: int, u: np.ndarray, v: np.ndarray, inc: np.ndarray,
               root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first spanning tree from root of the graph with edges
    u[e] -> v[e], with triples[head] = triples[tail] +- inc[e], 0 at root.

    One array pass per frontier gathers its out-edges from CSR offsets
    (nodes ascending; forward, then reversed edges, each in edge order)
    and keeps the first edge to each unvisited head.  Returns the triples
    and the tree-edge mask, with n_nodes - 1 set entries iff it spans.
    """
    order = np.argsort(np.concatenate([u, v]), kind="stable")
    tail, head = np.concatenate([u, v])[order], np.concatenate([v, u])[order]
    step = np.concatenate([inc, -inc])[order]
    offsets = np.searchsorted(tail, np.arange(n_nodes + 1))
    triples = np.zeros((n_nodes,) + inc.shape[1:], dtype=inc.dtype)
    in_tree = np.zeros(len(u), dtype=bool)
    visited = np.arange(n_nodes) == root
    frontier = np.array([root])
    while len(frontier):
        lo, count = offsets[frontier], offsets[frontier + 1] - offsets[frontier]
        out = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        out = out[~visited[head[out]]]
        frontier, first = np.unique(head[out], return_index=True)
        out = out[first]
        triples[frontier] = triples[tail[out]] + step[out]
        visited[frontier] = True
        in_tree[order[out] % len(u)] = True
    return triples, in_tree


def _grid_walk(k: int, st: GluingState, series: OmegaSeries, n: int):
    """The n x n layer grid of layer k with the chart disks cut out, walked
    by `_tree_walk`: (vid, kept_z, triples, root, alpha, beta,
    centers_cell, loop_defect), with the worst loop position defect over
    the non-tree edges."""
    T = st.torus(k)
    corner = _mesh_corner(T)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    zg = corner + (ii + jj * T.tau) / n
    # the corner keeps both centers off the cell edges, so no other translate is near
    centers_cell = {s: _cell_rep(c, corner, T.tau) for s, c in (("+", T.v), ("-", 0.0))}
    kept = np.all(np.abs(zg[..., None] - list(centers_cell.values()))
                  >= DEFAULT_POLE_RADIUS, axis=-1)
    kept[kept] = 1.0 / np.abs(T.g(zg[kept])) >= CUT_FACTOR * st.epsilon
    if kept.all():
        raise MeshTopologyError("grid does not resolve the chart disks",
                                k, st.t, n)

    vid = -np.ones((n, n), dtype=int)
    vid[kept] = np.arange(int(kept.sum()))
    nkept = int(kept.sum())

    O_k = path_base(T)
    alpha, beta = _segment_triples(st, series, k,
                                   [(O_k, O_k + 1.0), (O_k, O_k + T.tau)])

    # wrapped edges in the two lattice directions, net of their wrap periods
    edges = []
    for di, dj, vec, per in ((1, 0, 1.0 / n, alpha), (0, 1, T.tau / n, beta)):
        i2, j2 = (ii + di) % n, (jj + dj) % n
        ok = kept & kept[i2, j2]
        wrap = (ii[ok] + di >= n) | (jj[ok] + dj >= n)
        edges.append((vid[ii[ok], jj[ok]], vid[i2[ok], j2[ok]], _edge_triples(
            st, series, k, zg[ok].ravel(), vec) - wrap[:, None] * per))
    flat_u, flat_v, inc = (np.concatenate(e) for e in zip(*edges))

    kept_z = zg[kept]
    root = int(np.argmin(np.abs(reduce_centered(kept_z - O_k, T.tau)[0])))
    triples, in_tree = _tree_walk(nkept, flat_u, flat_v, inc, root)
    if in_tree.sum() != nkept - 1:
        raise MeshTopologyError("cut layer grid is disconnected", k, st.t, n)

    # every non-tree edge closes a loop; its position defect must vanish
    loose = ~in_tree
    gap = _positions(triples[flat_u[loose]] + inc[loose]) - _positions(
        triples[flat_v[loose]])
    loop_defect = float(np.max(np.linalg.norm(gap, axis=-1)))
    return vid, kept_z, triples, root, alpha, beta, centers_cell, loop_defect


def integrate_layer(k: int, st: GluingState, series: OmegaSeries,
                    grid_res: int = GRID_RES) -> LayerPatch:
    """Integrate the triple over a layer grid with the chart disks cut out.

    Grid nodes closer to a chart center than the kernel's pole radius are
    cut before g is evaluated; they lie inside the chart disk anyway.  The
    breadth-first spanning tree of `_tree_walk` accumulates the edge
    integrals, less the periods of each edge's wrap, over the wrapped grid
    graph (`_grid_walk`); every non-tree edge closes a loop whose position
    defect past LOOP_TOL raises LoopResidualError, with the defect of the
    doubled grid to tell a coarse grid from an unbalanced state.  Seam
    rings at |1/g| = epsilon are appended on both sides and joined to the
    jagged cut boundary; ring values follow the neck Laurent arc from the
    spoke-0 anchor, and the worst disagreement with the direct tree route
    is recorded as the stitch defect.  A grid too coarse for that cut
    raises MeshTopologyError.
    """
    T = st.torus(k)
    n = grid_res
    vid, kept_z, triples, root, alpha, beta, centers_cell, loop_defect = \
        _grid_walk(k, st, series, n)
    if loop_defect > LOOP_TOL:
        raise LoopResidualError(loop_defect, k, st.t, n,
                                _grid_walk(k, st, series, 2 * n)[-1])
    nkept = len(kept_z)

    # duplicated boundary rows at i=n, j=n so faces close across the wrap
    # and lattice translates of the patch tile without seams
    full_id = -np.ones((n + 1, n + 1), dtype=int)
    full_id[:n, :n] = vid
    verts_list, tri_list, nextid = [kept_z], [triples], nkept
    for dst, src, shift, per in (
            (full_id[n, :n], vid[0], 1.0, alpha),
            (full_id[:n, n], vid[:, 0], T.tau, beta),
            (full_id[n, n:], vid[:1, 0], 1.0 + T.tau, alpha + beta)):
        live = src[src >= 0]
        dst[src >= 0] = nextid + np.arange(len(live))
        nextid += len(live)
        verts_list.append(kept_z[live] + shift)
        tri_list.append(triples[live] + per)

    grid_faces, faces_w = _grid_faces(full_id, vid)
    faces = [grid_faces]

    cycles = _hole_cycles(faces_w)
    if cycles is None:
        raise MeshTopologyError("hole boundary is not a simple cycle",
                                k, st.t, n)
    if len(cycles) != 2:
        raise MeshTopologyError(f"expected 2 cut boundaries, found "
                                f"{len(cycles)}", k, st.t, n)

    # seam rings, one per side, valued along the Laurent arc of the neck
    # above (side "+") and of the neck below (side "-")
    seam, rings, stitch = {}, {}, 0.0
    for side, c_stored in (("+", T.v), ("-", 0.0)):
        ring_chart = np.asarray(
            neck_point(st, k, side, st.epsilon * np.exp(1j * THETAS)),
            dtype=complex)
        c_cell = centers_cell[side]
        ring_z = c_cell + (ring_chart - c_stored)
        # direct tree route: nearest jagged vertex plus a short leg
        cyc = min(cycles, key=lambda w: abs(
            complex(reduce_centered(np.mean(kept_z[w]) - c_cell, T.tau)[0])))
        cyc_ids = np.asarray(cyc)
        cyc_z = kept_z[cyc_ids]
        near = np.argmin(np.abs(cyc_z[None, :] - ring_z[:, None]), axis=1)
        rings[side] = ring_z, cyc_ids, cyc_z, near
    # the legs of both seam rings in one jet call
    leg_triples = _segment_triples(st, series, k, [
        (cyc_z[i], ring_z[s]) for ring_z, _, cyc_z, near in rings.values()
        for s, i in enumerate(near)]).reshape(2, NECK_SPOKES, 3)
    for (side, k_neck), leg in zip((("+", k), ("-", k - 1)), leg_triples):
        ring_z, cyc_ids, cyc_z, near = rings[side]
        c_cell = centers_cell[side]
        legs = triples[cyc_ids[near]] + leg
        nl = laurent_coeffs(st, series, k_neck, LAURENT_ORDER)
        arc = legs[0] + _neck_sheet(nl, side, np.array([st.epsilon]))[0]
        stitch = max(stitch, float(np.max(np.linalg.norm(
            _positions(arc) - _positions(legs), axis=-1))))
        ring_ids = nextid + np.arange(NECK_SPOKES)
        nextid += NECK_SPOKES
        verts_list.append(ring_z)
        tri_list.append(arc)
        ang_cyc = np.angle(cyc_z - c_cell)
        # orient the jagged walk counterclockwise around the hole
        if np.sum(np.diff(np.unwrap(ang_cyc))) < 0:
            cyc_ids = cyc_ids[::-1]
            cyc_z = cyc_z[::-1]
            ang_cyc = ang_cyc[::-1]
        # ring angles in the z plane; the chart angle is offset by arg(-a)
        ang_ring = np.angle(ring_z - c_cell)
        faces.append(np.array(_zip_band(cyc_ids, ang_cyc, ring_ids, ang_ring),
                              dtype=int))
        seam[side] = ring_ids

    return LayerPatch(k=k, verts_z=np.concatenate(verts_list),
                      triples=np.concatenate(tri_list), faces=np.concatenate(faces),
                      seam=seam, centers=centers_cell, root_z=complex(kept_z[root]),
                      alpha=alpha, beta=beta, loop_defect=loop_defect,
                      stitch_defect=stitch)


# ---------------------------------------------------------------------------
# frames and spacing


@dataclass(frozen=True)
class LayerFrame:
    """Base point of one layer with its accumulated position triple."""

    k: int
    base: complex
    triple: tuple[complex, complex, complex]

    @property
    def position(self) -> np.ndarray:
        return _positions(np.asarray(self.triple))

    @property
    def height(self) -> float:
        return float(self.triple[2].real)


def _default_range(st: GluingState) -> list[int]:
    if st.mode == "cyclic":
        return list(range(0, st.n_tori + 1))
    # window states: the n_buffer clamped layers at each end are not meshed
    return list(range(st.k_lo + st.n_buffer, st.k_hi - st.n_buffer + 1))


@dataclass(frozen=True)
class SpacingRow:
    k: int
    delta_height: float
    ratio: float


def _spacing_rows(frames: list[LayerFrame], t: float) -> list[SpacingRow]:
    ref = -2.0 * t * math.log(t)
    return [SpacingRow(k=hi.k, delta_height=hi.height - lo.height,
                       ratio=(hi.height - lo.height) / ref)
            for lo, hi in zip(frames, frames[1:])]


def spacing_report(st: GluingState, series: OmegaSeries,
                   k_range=None) -> list[SpacingRow]:
    """Per-neck vertical spacing against the -2 t log t reference, from
    the frames of the mesh over k_range."""
    return _spacing_rows(build_mesh(st, series, k_range).frames, st.t)


# ---------------------------------------------------------------------------
# mesh assembly


@dataclass
class SurfaceMesh:
    """Triangulated immersion of a run of layers and their necks.

    raw holds the unreduced immersion.  Each face carries the index
    face_k of its layer or neck and the code face_part of its part:
    LAYER, or NECK_PLUS / NECK_MINUS for the half of neck k in the chart
    of layer k / k+1.
    """

    tau_ref: complex
    t: float
    epsilon: float
    raw: np.ndarray
    faces: np.ndarray
    face_k: np.ndarray
    face_part: np.ndarray
    frames: list[LayerFrame]
    reports: dict


def build_mesh(st: GluingState, series: OmegaSeries, k_range=None) -> SurfaceMesh:
    """Assemble layer patches and neck annuli into one SurfaceMesh.

    Layers are integrated independently and joined through shared seam
    rings; the two half-annuli of each neck merge at the waist.  Each
    patch picks cell representatives of its chart centers, so consecutive
    patches are branch-aligned by transporting the immersion through the
    neck itself: neck k is translated onto the plus seam point of layer
    k, and its welded minus sheet gives the offset of layer k+1.  The
    mesh is translated so the first crossed waist centroid sits at the
    origin.
    """
    if st.t <= 0.0:
        raise ValueError("meshing needs t > 0")
    ks = list(k_range) if k_range is not None else _default_range(st)
    if len(ks) < 2:
        raise ValueError("need at least two layers to mesh a neck")

    patches = {k: integrate_layer(k, st, series) for k in ks}
    necks = {k: integrate_neck(k, st, series) for k in ks[:-1]}

    offsets: dict[int, np.ndarray] = {ks[0]: np.zeros(3, dtype=complex)}
    shift: dict[int, np.ndarray] = {}
    for k in ks[:-1]:
        plo, phi = patches[k], patches[k + 1]
        shift[k] = offsets[k] + plo.triples[plo.seam["+"][0]]
        # down the plus sheet to the waist, up the minus sheet to layer k+1
        offsets[k + 1] = (shift[k] + necks[k].minus[0, 0]
                          - phi.triples[phi.seam["-"][0]])

    # canonical per-layer frames in the mesh branch, for reporting
    frames = {}
    for k in ks:
        patch = patches[k]
        T = st.torus(k)
        On = _near_rep(path_base(T), patch.root_z, T.tau)
        per = _lattice_triple(On - path_base(T), T.tau, patch.alpha, patch.beta)
        frames[k] = offsets[k] - per - _segment_triples(
            st, series, k, [(On, patch.root_z)])[0]

    verts, blocks = [], []  # blocks: (faces, k, part code)
    base_of: dict[int, int] = {}
    total = 0
    for k in ks:
        p = patches[k]
        base_of[k] = total
        verts.append(p.triples + offsets[k][None, :])
        blocks.append((p.faces + total, k, LAYER))
        total += len(p.triples)

    rings, spokes = NECK_RINGS, NECK_SPOKES
    neck_grids: dict[int, dict[str, np.ndarray]] = {}
    for k in ks[:-1]:
        plo, phi, nf = patches[k], patches[k + 1], necks[k]
        ids_p = np.empty((rings + 1, spokes), dtype=int)
        ids_m = np.empty((rings + 1, spokes), dtype=int)
        ids_p[0] = plo.seam["+"] + base_of[k]
        ids_m[0] = phi.seam["-"] + base_of[k + 1]
        ids_p[1:] = total + np.arange(rings * spokes).reshape(rings, spokes)
        verts.append(nf.plus[1:].reshape(-1, 3) + shift[k])
        total += rings * spokes
        ids_m[1:rings] = total + np.arange((rings - 1) * spokes).reshape(
            rings - 1, spokes)
        verts.append(nf.minus[1:rings].reshape(-1, 3) + shift[k])
        total += (rings - 1) * spokes
        ids_m[rings] = ids_p[rings][(spokes - np.arange(spokes)) % spokes]
        neck_grids[k] = {"plus": ids_p, "minus": ids_m}
        s1 = np.roll(np.arange(spokes), -1)
        for part, ids in ((NECK_PLUS, ids_p), (NECK_MINUS, ids_m)):
            a, b = ids[:-1], ids[1:]
            # per ring: the spokes' (a, a+1, b+1) faces, then their (a, b+1, b)
            fa = np.stack([a, a[:, s1], b[:, s1]], axis=-1)
            fb = np.stack([a, b[:, s1], b], axis=-1)
            faces = np.concatenate([fa, fb], axis=1).reshape(-1, 3)
            blocks.append((faces, k, part))

    triples_all = np.concatenate(verts)
    faces_all = np.concatenate([f for f, _, _ in blocks])
    sizes = [len(f) for f, _, _ in blocks]
    raw = _positions(triples_all)

    # normalize: first crossed waist centroid to the origin
    k0 = ks[0]
    centroid = raw[neck_grids[k0]["plus"][rings]].mean(axis=0)
    raw = raw - centroid[None, :]

    w12 = complex(centroid[0], centroid[1])
    frames_out = []
    for k in ks:
        tr = frames[k].copy()
        tr[0] += w12
        tr[1] -= np.conj(w12)
        tr[2] -= centroid[2]
        frames_out.append(LayerFrame(k=k, base=path_base(st.torus(k)),
                                     triple=tuple(tr)))

    # limit node positions in the mesh branch, anchored at neck ks[0];
    # lattice detours of the cell representatives ride the layer periods
    p_ref: dict[int, complex] = {k0: 0.0}
    for k in ks[1:-1]:
        patch = patches[k]
        T = st.torus(k)
        detour = patch.centers["+"] - patch.centers["-"] - T.v
        lat = _positions(_lattice_triple(detour, T.tau, patch.alpha,
                                         patch.beta)[None, :])[0]
        p_ref[k] = p_ref[k - 1] + mirror_conj(T.v, k) \
            + complex(lat[0], lat[1])
    drift = {}
    for k in ks[:-1]:
        cen = raw[neck_grids[k]["plus"][rings]].mean(axis=0)
        drift[k] = float(abs(complex(cen[0], cen[1]) - p_ref[k]))

    heights = [frames[k][2].real for k in ks]
    reports = {
        "loop_defect": {k: patches[k].loop_defect for k in ks},
        "stitch_defect": {k: patches[k].stitch_defect for k in ks},
        "weld_defect": {k: necks[k].weld_defect for k in necks},
        "wrap_continuity": {
            k: float(abs(np.pi * st.t ** 2
                         * (np.conj(necks[k].laurent.c_plus[0])
                            + necks[k].laurent.c_minus[0])))
            for k in necks},
        "flux": {k: neck_flux(necks[k].laurent, k % 2 == 0) for k in necks},
        "drift": drift,
        "heights_increasing": bool(np.all(np.diff(heights) > 0)),
        "neck_grids": neck_grids,
        "layer_base": base_of,
        "layer_len": {k: len(patches[k].triples) for k in ks},
        "settings": {"grid_res": GRID_RES, "rings": rings, "spokes": spokes,
                     "k_range": list(ks)},
    }
    return SurfaceMesh(tau_ref=st.tau_ref, t=st.t, epsilon=st.epsilon, raw=raw,
                       faces=faces_all,
                       face_k=np.repeat([k for _, k, _ in blocks], sizes),
                       face_part=np.repeat([c for _, _, c in blocks], sizes),
                       frames=frames_out, reports=reports)


# ---------------------------------------------------------------------------
# diagnostics


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _polygon_diagnostics(poly: np.ndarray) -> dict:
    """Convexity and simplicity of a closed horizontal polygon.

    Simple means no two edges cross at interior points of both; adjacent
    edges, which share a vertex, are not compared.
    """
    pts = poly[:, :2]
    nxt = np.roll(pts, -1, axis=0)
    edges = nxt - pts
    following = np.roll(edges, -1, axis=0)
    cross = _cross2(edges, following)
    scale = float(np.max(np.linalg.norm(edges, axis=1))) ** 2
    signs = cross[np.abs(cross) > 1e-9 * scale]
    convex = bool(len(signs) == 0 or np.all(signs > 0) or np.all(signs < 0))
    turning = float(np.sum(np.arctan2(
        cross, np.einsum("ij,ij->i", edges, following))))
    n = len(pts)
    i, j = np.triu_indices(n, 2)
    far = ~((i == 0) & (j == n - 1))
    i, j = i[far], j[far]
    a, b, c, d = pts[i], nxt[i], pts[j], nxt[j]
    crossing = ((_cross2(edges[i], c - a) * _cross2(edges[i], d - a) < 0)
                & (_cross2(edges[j], a - c) * _cross2(edges[j], b - c) < 0))
    return {"convex": convex, "simple": not bool(np.any(crossing)),
            "turning": turning}


def _slice_polygon(mesh: SurfaceMesh, k: int, side: str,
                   height: float) -> np.ndarray | None:
    grid = mesh.reports["neck_grids"][k]["plus" if side == "+" else "minus"]
    pos = mesh.raw[grid]
    hs = pos[:, :, 2]
    hit = ((np.minimum(hs[:-1], hs[1:]) <= height)
           & (height <= np.maximum(hs[:-1], hs[1:])))
    if not hit.any(axis=0).all():
        return None
    s = np.arange(grid.shape[1])
    j = np.argmax(hit, axis=0)  # the first ring interval that crosses
    denom = hs[j + 1, s] - hs[j, s]
    # a flat interval only crosses at its own height, where frac is 0
    frac = (height - hs[j, s]) / np.where(denom == 0, 1.0, denom)
    return pos[j, s] + frac[:, None] * (pos[j + 1, s] - pos[j, s])


def _unit_rows(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.divide(v, n, out=np.zeros_like(v), where=n > 0)


def _dot_rows(tris: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(m, 3, d) points against (m, d) directions -> (m, 3)."""
    return np.einsum("mij,mj->mi", tris, v)


def _line_interval(tri: np.ndarray, dist: np.ndarray, d: np.ndarray,
                   eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Extent along the line direction d of each triangle's points within
    eps of the other plane; an empty extent is (inf, -inf)."""
    proj = _dot_rows(tri, d)
    dist_b = np.roll(dist, -1, axis=1)
    proj_b = np.roll(proj, -1, axis=1)
    crosses = dist * dist_b < -eps * eps
    s = dist / np.where(crosses, dist - dist_b, 1.0)
    vals = np.concatenate([proj, proj + s * (proj_b - proj)], axis=1)
    mask = np.concatenate([np.abs(dist) <= eps, crosses], axis=1)
    return (np.where(mask, vals, np.inf).min(axis=1),
            np.where(mask, vals, -np.inf).max(axis=1))


def _coplanar_overlap(p: np.ndarray, q: np.ndarray, n1: np.ndarray,
                      eps: float) -> np.ndarray:
    """2D separating-axis test in the coordinate plane most nearly
    parallel to each pair."""
    keep = np.array([[1, 2], [0, 2], [0, 1]])[np.argmax(np.abs(n1), axis=1)]
    a = np.take_along_axis(p, keep[:, None, :], axis=2)
    b = np.take_along_axis(q, keep[:, None, :], axis=2)
    apart = np.zeros(len(p), dtype=bool)
    for t1, t2 in ((a, b), (b, a)):
        edge = np.roll(t1, -1, axis=1) - t1
        axis = _unit_rows(np.stack([-edge[..., 1], edge[..., 0]], axis=-1))
        # pa[m, i, j]: vertex j of t1 against the normal of edge i
        pa = np.sum((t1[:, None] - t1[:, :, None]) * axis[:, :, None], axis=-1)
        pb = np.sum((t2[:, None] - t1[:, :, None]) * axis[:, :, None], axis=-1)
        gap = ((pb.min(axis=2) > pa.max(axis=2) + eps)
               | (pb.max(axis=2) < pa.min(axis=2) - eps))
        apart |= gap.any(axis=1)
    return ~apart


def _tri_tri_batch(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """Moller (1997) interval test on the triangle pairs p[m], q[m].

    Normals and the line direction are unit vectors, so every comparison
    is a length against the length eps.  Pairs whose planes meet at
    sin(angle) < COPLANAR_SIN take the 2D separating-axis test instead.
    """
    n1 = _unit_rows(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))
    n2 = _unit_rows(np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]))
    dp = _dot_rows(p - q[:, :1], n2)
    dq = _dot_rows(q - p[:, :1], n1)
    live = ~(np.all(dp > eps, axis=1) | np.all(dp < -eps, axis=1)
             | np.all(dq > eps, axis=1) | np.all(dq < -eps, axis=1))
    d = np.cross(n1, n2)
    sin = np.linalg.norm(d, axis=1)
    flat = live & (sin < COPLANAR_SIN)
    out = np.zeros(len(p), dtype=bool)
    out[flat] = _coplanar_overlap(p[flat], q[flat], n1[flat], eps)
    sel = live & ~flat
    d = d[sel] / sin[sel, None]
    lo1, hi1 = _line_interval(p[sel], dp[sel], d, eps)
    lo2, hi2 = _line_interval(q[sel], dq[sel], d, eps)
    out[sel] = ~((hi1 < lo2 + eps) | (hi2 < lo1 + eps))
    return out


def _sweep_pairs(lo: np.ndarray, hi: np.ndarray,
                 faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face pairs (a, b), a < b, whose closed bounding boxes overlap and
    that share no vertex, by sort-and-sweep along the longest axis within
    strips of the second-longest one.

    Strips are as wide as the widest box across them, and each face joins
    every strip its box covers (at most two, up to rounding).  Sorted by
    (strip, box minimum), the partners of an entry are a contiguous run
    found by one searchsorted, expanded at most SWEEP_CHUNK pairs at a
    time.  A pair counts only in the strip of its larger lower corner, by
    the floor expression of the registration, so it is found once.
    """
    spans = hi.max(axis=0) - lo.min(axis=0)
    axis, across = (int(c) for c in np.argsort(-spans, kind="stable")[:2])
    width = float(np.max(hi[:, across] - lo[:, across])) or 1.0
    origin = lo[:, across].min()
    s_lo, s_hi = np.floor((np.stack([lo[:, across], hi[:, across]]) - origin)
                          / width).astype(np.int64)
    reps = s_hi - s_lo + 1
    face = np.repeat(np.arange(len(lo)), reps)
    strip = np.repeat(s_lo - np.cumsum(reps) + reps, reps) + np.arange(len(face))
    # lo <= hi along the axis as integer ranks, exact under the strip offset
    ranks = np.unique(lo[:, axis])
    stride = len(ranks) + 1
    key = strip * stride + np.searchsorted(ranks, lo[face, axis]) + 1
    order = np.argsort(key, kind="stable")
    face, strip = face[order], strip[order]
    own = s_lo[face]
    bound = strip * stride + np.searchsorted(ranks, hi[face, axis], side="right")
    count = np.searchsorted(key[order], bound, side="right") - np.arange(1, len(face) + 1)
    first = np.concatenate(([0], np.cumsum(count)))
    cols = [(lo[face, c], hi[face, c]) for c in range(3) if c != axis]
    found = []
    start = 0
    while start < len(face):
        stop = int(np.searchsorted(first, first[start] + SWEEP_CHUNK, side="right")) - 1
        stop = max(stop, start + 1)
        run = count[start:stop]
        a = np.repeat(np.arange(start, stop), run)
        b = (a + 1 + np.arange(first[start], first[stop])
             - np.repeat(first[start:stop], run))
        keep = np.maximum(own[a], own[b]) == strip[a]
        for lc, hc in cols:
            keep &= (lc[b] <= hc[a]) & (lc[a] <= hc[b])
        found.append(face[np.stack([a[keep], b[keep]])])
        start = stop
    a, b = np.concatenate(found, axis=1)
    shared = np.any(faces[a][:, :, None] == faces[b][:, None, :], axis=(1, 2))
    a, b = a[~shared], b[~shared]
    return np.minimum(a, b), np.maximum(a, b)


def _intersecting_pairs(raw: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Intersecting face pairs (a, b), a < b, that share no vertex, as
    rows of indices into faces."""
    tris = raw[faces]
    cell = float(np.median(np.linalg.norm(tris[:, 1] - tris[:, 0], axis=1))) * 2
    cell = max(cell, 1e-9)
    a, b = _sweep_pairs(tris.min(axis=1), tris.max(axis=1), faces)
    hit = _tri_tri_batch(tris[a], tris[b], 1e-7 * cell)
    return np.stack([a[hit], b[hit]], axis=1)


def embeddedness_diagnostics(mesh: SurfaceMesh) -> dict:
    """Diagnostic embeddedness battery; failures are reported, not fatal.

    Checks (i) that layer patches stay vertical graphs, with |n3| of at
    least GRAPH_FLOOR on every face, (ii) that neck cross sections at
    heights h_k +- t*c, c = SLICE_FACTOR log(epsilon/t), are simple convex
    curves, and (iii) that no two faces of a layer slab intersect.  The slab of layer
    k is its patch and the halves of necks k - 1 and k that attach to it,
    up to their waists.  Check (iii) tests every pair of slab faces whose closed
    bounding boxes overlap and that share no vertex, by the Moller
    interval test with a tolerance of the length 1e-7 * cell, where cell
    is twice the median edge of the slab; faces whose planes meet at
    sin(angle) < COPLANAR_SIN take a 2D separating-axis test instead.
    """
    kk, layer = mesh.face_k, mesh.face_part == LAYER
    minus = mesh.face_part == NECK_MINUS
    out: dict = {"graph": {}, "slices": {}, "intersections": {}}

    for k in np.unique(kk[layer]).tolist():
        tris = mesh.raw[mesh.faces[layer & (kk == k)]]
        nrm = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        lens = np.linalg.norm(nrm, axis=1)
        ok = lens > 0
        n3 = np.abs(nrm[ok, 2]) / lens[ok]
        val = float(np.min(n3)) if len(n3) else 0.0
        out["graph"][k] = {"min_n3": val, "pass": bool(val >= GRAPH_FLOOR)}
        # layer k, the plus half of neck k and the minus half of neck k - 1
        slab = ((kk == k) & ~minus) | ((kk == k - 1) & minus)
        pairs = len(_intersecting_pairs(mesh.raw, mesh.faces[slab]))
        out["intersections"][k] = {"pairs": pairs, "pass": pairs == 0}

    tc = mesh.t * SLICE_FACTOR * math.log(mesh.epsilon / mesh.t)
    for k in np.unique(kk[~layer]).tolist():
        grid = mesh.reports["neck_grids"][k]["plus"]
        waist_h = float(mesh.raw[grid[-1], 2].mean())
        for side, h in (("+", waist_h - tc), ("-", waist_h + tc)):
            poly = _slice_polygon(mesh, k, side, h)
            if poly is None:
                out["slices"][f"{k}{side}"] = {"status": "out_of_range",
                                               "pass": False}
                continue
            diag = _polygon_diagnostics(poly)
            diag["height"] = h
            diag["pass"] = bool(diag["convex"] and diag["simple"])
            out["slices"][f"{k}{side}"] = diag

    out["pass"] = bool(
        all(v["pass"] for v in out["graph"].values())
        and all(v["pass"] for v in out["slices"].values())
        and all(v["pass"] for v in out["intersections"].values()))
    return out


# ---------------------------------------------------------------------------
# output


def write_obj(mesh: SurfaceMesh, path: str, copies: int = 1) -> None:
    """ASCII OBJ export; copies tiles the horizontal period lattice."""
    tau = mesh.tau_ref
    shifts = [i + j * tau for i in range(copies) for j in range(copies)]
    with open(path, "w") as fh:
        fh.write(f"# stackedmin surface, t={mesh.t!r}\n")
        nv = len(mesh.raw)
        groups = ("layer_{}", "neck_{}p", "neck_{}m")
        cuts = np.flatnonzero((np.diff(mesh.face_k) != 0)
                              | (np.diff(mesh.face_part) != 0)) + 1
        for ci, sh in enumerate(shifts):
            fh.write(f"g copy_{ci}\n")
            moved = mesh.raw.copy()
            moved[:, 0] += sh.real
            moved[:, 1] += sh.imag
            for v in moved:
                fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for ci in range(len(shifts)):
            off = 1 + ci * nv
            for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(mesh.faces)]):
                k = str(mesh.face_k[lo]).replace("-", "m")
                fh.write(f"g {groups[mesh.face_part[lo]].format(k)}_copy{ci}\n")
                for f in mesh.faces[lo:hi]:
                    fh.write(f"f {f[0] + off} {f[1] + off} {f[2] + off}\n")


def mesh_summary(mesh: SurfaceMesh) -> dict:
    """JSON-ready sidecar payload describing one mesh."""
    rep = mesh.reports
    return {
        "tau_ref": [mesh.tau_ref.real, mesh.tau_ref.imag],
        "t": mesh.t,
        "epsilon": mesh.epsilon,
        "n_vertices": int(len(mesh.raw)),
        "n_faces": int(len(mesh.faces)),
        "frames": [{"k": f.k, "base": [f.base.real, f.base.imag],
                    "position": [float(c) for c in f.position]}
                   for f in mesh.frames],
        "spacing": [asdict(row) for row in _spacing_rows(mesh.frames, mesh.t)],
        "reports": {
            **{key: {str(k): float(v) for k, v in rep[key].items()}
               for key in ("loop_defect", "stitch_defect", "weld_defect",
                           "wrap_continuity", "drift")},
            "flux": {str(k): [float(c) for c in v]
                     for k, v in rep["flux"].items()},
            "heights_increasing": rep["heights_increasing"],
        },
        "settings": rep["settings"],
    }


def write_sidecar(mesh: SurfaceMesh, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mesh_summary(mesh), fh, indent=2, sort_keys=True)
        fh.write("\n")
