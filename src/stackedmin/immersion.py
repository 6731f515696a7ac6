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
each neck.  Each layer sits at one base point, `path_base`: its grid
node (0, 0), tree root and frame, which carries the vertical spacing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
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
# the most kernel points or face pairs that one array pass of the mesh or
# the battery takes, so its transients grow with BLOCK, not with the grid
BLOCK = 1 << 12
GRAPH_FLOOR = 0.5  # least |n3| of a layer face that still reads as a graph
SLICE_FACTOR = 0.6  # neck slices sit SLICE_FACTOR * t log(eps/t) off the waist
LAYER, NECK_PLUS, NECK_MINUS = 0, 1, 2  # face part codes


class LoopResidualError(RuntimeError):
    """A contractible loop of the cut layer grid picked up a position
    defect above LOOP_TOL.  finer is the defect on a finer grid, of
    finer_res: a quadrature defect falls by LOOP_GAIN or more there, and
    the message then advises a finer grid; a defect that stays means the
    periods of the layer do not close, so the state is not balanced."""

    def __init__(self, residual: float, k: int, t: float, grid_res: int,
                 finer: float, finer_res: int):
        if finer * LOOP_GAIN <= residual:
            advice = f"use a finer grid ({finer:.2e} at grid_res={finer_res})"
        else:
            advice = (f"it stays at {finer:.2e} at grid_res={finer_res}, so the "
                      f"periods of layer k={k} do not close: the state is not balanced")
        super().__init__(f"layer k={k} at t={t:g}, grid_res={grid_res}: loop residual "
                         f"{residual:.2e} exceeds {LOOP_TOL:.0e}; {advice}")
        self.residual, self.k, self.t, self.grid_res = residual, k, t, grid_res
        self.finer, self.finer_res = finer, finer_res


class CoefficientDecayError(RuntimeError):
    """Truncated neck series tail exceeds the accuracy target."""


class MeshTopologyError(RuntimeError):
    """The cut grid of layer k at neck size t is not a torus with two
    disks removed at this grid_res; a finer grid usually resolves them."""

    def __init__(self, what: str, k: int, t: float, grid_res: int):
        super().__init__(f"layer k={k} at t={t:g}, grid_res={grid_res}: "
                         f"{what}; use a finer grid")
        self.k, self.t, self.grid_res = k, t, grid_res


def _cell_rep(p: complex, corner: complex, tau: complex) -> complex:
    """Representative of p in the cell with the given corner."""
    x, y = lattice_coords(p - corner, tau)
    return corner + float(x) % 1.0 + (float(y) % 1.0) * tau


def _positions(triples: np.ndarray) -> np.ndarray:
    tr = np.asarray(triples)
    x12 = 0.5 * (np.conj(tr[..., 1]) - tr[..., 0])
    return np.stack([x12.real, x12.imag, tr[..., 2].real], axis=-1)


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


_leggauss = lru_cache(maxsize=None)(leggauss)  # one table per node count


def _in_blocks(fn, z: np.ndarray, size: int) -> np.ndarray:
    """fn over the leading axis of z, at most size entries per call, for
    an fn that acts on each entry alone, so the split keeps every bit."""
    return np.concatenate([fn(z[i : i + size]) for i in range(0, max(len(z), 1), size)])


def _segment_triples(st: GluingState, series: OmegaSeries, k: int,
                     ends) -> np.ndarray:
    """Integrals of the triple along the straight segments z0 -> z1 of
    ends, in pieces of at most SEG_STEP with SEG_NODES Gauss nodes each.
    The nodes of all segments go through `_diffs` together, BLOCK at a
    time, and each segment sums its own slice, as it would alone."""
    x, wgt = _leggauss(SEG_NODES)
    nodes, pieces = [], []
    for z0, z1 in ends:
        vec = z1 - z0
        p = max(1, int(math.ceil(abs(vec) / SEG_STEP)))
        s = (np.arange(p)[:, None] + 0.5 * (x[None, :] + 1.0)) / p
        nodes.append(z0 + s.ravel() * vec)
        pieces.append(p)
    vals = _in_blocks(lambda z: _diffs(st, series, k, z), np.concatenate(nodes), BLOCK)
    out = np.empty((len(pieces), 3), dtype=complex)
    start = 0
    for i, ((z0, z1), p) in enumerate(zip(ends, pieces)):
        seg = vals[start : start + p * SEG_NODES].reshape(p, SEG_NODES, 3)
        out[i] = np.einsum("n, p n c -> c", 0.5 * wgt / p, seg) * (z1 - z0)
        start += p * SEG_NODES
    return out


def _edge_triples(st: GluingState, series: OmegaSeries, k: int,
                  z0s: np.ndarray, vec: complex) -> np.ndarray:
    """Batched straight-edge integrals sharing one direction vector, at
    most BLOCK // EDGE_NODES edges per `_diffs` call."""
    x, wgt = _leggauss(EDGE_NODES)
    s = 0.5 * (x + 1.0)

    def edges(z0):
        vals = _diffs(st, series, k, z0[:, None] + s * vec)
        return np.einsum("n, e n c -> e c", 0.5 * wgt, vals) * vec

    return _in_blocks(edges, z0s, BLOCK // EDGE_NODES)


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
    phases = np.exp(1j * p[:, None] * THETAS)  # (power, spoke)
    # one (ring, spoke, 3) term per power, added in ascending p as a sum
    # over the power axis adds them, without the (power, ...) product
    vals = None
    for pk, pw, ph, ck in zip(p, powers, phases, coef):
        basis = np.log(radii)[:, None] + 1j * THETAS if pk == 0 else pw[:, None] * ph
        term = basis[..., None] * ck
        vals = term if vals is None else np.add(vals, term, out=vals)
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
    return NeckField(k=k, plus=plus, minus=minus, laurent=nl,
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
    the base point `path_base`, which is vertex 0; triples are raw
    (F+, F-, H) values, zero there.  seam maps each side to the ring
    vertex index array; faces index into the local vertex list.
    """

    k: int
    verts_z: np.ndarray
    triples: np.ndarray
    faces: np.ndarray
    seam: dict[str, np.ndarray]
    centers: dict[str, complex]
    alpha: np.ndarray
    beta: np.ndarray
    loop_defect: float
    stitch_defect: float


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
    None when the boundary is not a union of simple cycles.

    Each face edge (f, e), from corner e to corner e + 1 mod 3, gets one
    int64 key lo * span + hi of its sorted ends, built column by column
    in face-edge order 3f + e.  A stable argsort groups equal keys, a key
    met once is a boundary edge, and its position orders it as first met.
    """
    span = int(faces_w.max()) + 1
    key = np.empty(faces_w.shape, dtype=np.int64)
    for e in range(3):
        a, b = faces_w[:, e], faces_w[:, (e + 1) % 3]
        np.multiply(np.minimum(a, b), span, out=key[:, e])
        key[:, e] += np.maximum(a, b)
    key = key.ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]  # sorted; the face-edge order is gone
    once = np.ones(len(key), dtype=bool)
    once[1:] &= key[1:] != key[:-1]
    once[:-1] &= key[:-1] != key[1:]
    bound, pos = key[once], order[once]
    del key, order, once
    nbrs: dict[int, list[int]] = {}
    for lo_hi in bound[np.argsort(pos)].tolist():  # boundary, as first met
        a, b = divmod(lo_hi, span)
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
    # both loops once around from their first vertices, b unwrapped from a's start
    ua = np.unwrap(ang_a[(ia + np.arange(na + 1)) % na])
    ub = np.unwrap(np.append(ua[0], ang_b[(ib + np.arange(nb + 1)) % nb]))[1:]
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


def _clip_notches(walk: list[int], z: dict, center: complex):
    """Ears cut from the counterclockwise jagged walk around center, and
    the walk left once no edge steps backwards in angle.  A backward
    staircase edge (a, b) closes a notch with the vertex after b or the
    one before a; a zip over it folds a face that no flip unfolds."""
    ears, walk, i = [], list(walk), 0
    while i < len(walk):
        prev, a, b, nxt = (walk[(i + s) % len(walk)] for s in (-1, 0, 1, 2))
        cut = [] if _ccw(center, z[a], z[b]) else [
            ear for ear in ((a, b, nxt), (prev, a, b)) if _ccw(*(z[v] for v in ear))]
        if cut:  # the middle vertex of the ear leaves the walk
            ears.append(cut[0])
            walk.remove(cut[0][1])
        i = 0 if cut else i + 1
    return ears, walk


def _in_circle(z: dict, a: int, b: int, c: int, d: int) -> bool:
    """Whether d lies inside the circle through the counterclockwise a, b, c,
    by the lifted determinant of the four points in ascending id order,
    signed by that sort's parity: the flipped diagonal's test negates it."""
    ids = (a, b, c, d)
    odd = sum(x > y for i, x in enumerate(ids) for y in ids[i + 1:]) % 2
    u, v, w = (z[i] - z[max(ids)] for i in sorted(ids)[:3])
    det = sum(abs(p) ** 2 * (q.conjugate() * r).imag
              for p, q, r in ((u, v, w), (v, w, u), (w, u, v)))
    return (-det if odd else det) > 0.0


def _ccw(p: complex, q: complex, r: complex) -> bool:
    return ((q - p).conjugate() * (r - p)).imag > 0.0


def _delaunay_flips(faces: list[tuple[int, int, int]],
                    z: dict) -> list[tuple[int, int, int]]:
    """Lawson flips of a triangulation in the z-plane, z mapping vertex ids
    to Python complex values, until every interior edge is locally
    Delaunay.  Faces (a, b, c) and (b, a, d) become (a, d, c) and
    (d, b, c) in place when both are then counterclockwise (the quad
    a, d, b, c is convex) and d lies inside the circle through a, b, c or
    either old face is folded (clockwise).  Boundary edges stay."""
    faces = [tuple(map(int, f)) for f in faces]
    owner = {(f[i], f[i - 2]): n for n, f in enumerate(faces) for i in range(3)}
    stack = list(owner)
    while stack:
        a, b = stack.pop()
        f, g = owner.get((a, b)), owner.get((b, a))
        if f is None or g is None:
            continue
        c, d = sum(faces[f]) - a - b, sum(faces[g]) - a - b
        if not (_ccw(z[a], z[d], z[c]) and _ccw(z[d], z[b], z[c])
                and (_in_circle(z, a, b, c, d) or not _ccw(z[a], z[b], z[c])
                     or not _ccw(z[b], z[a], z[d]))):
            continue
        faces[f], faces[g] = (a, d, c), (d, b, c)
        del owner[a, b], owner[b, a]
        owner[a, d] = owner[d, c] = owner[c, a] = f
        owner[d, b] = owner[b, c] = owner[c, d] = g
        stack += [(a, d), (d, b), (b, c), (c, a)]
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
    edge, fwd = order % len(u), order < len(u)
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
        step = inc[edge[out]]
        triples[frontier] = triples[tail[out]] + np.where(fwd[out, None], step, -step)
        visited[frontier] = True
        in_tree[edge[out]] = True
    return triples, in_tree


def _grid_walk(k: int, st: GluingState, series: OmegaSeries, n: int):
    """The n x n layer grid of layer k with the chart disks cut out, walked
    by `_tree_walk`: (vid, kept_z, triples, alpha, beta, centers_cell,
    loop_defect), with the worst loop position defect over the non-tree
    edges.  The grid is laid from `path_base`, so node (0, 0) is the base
    point of the period paths alpha and beta, vertex 0 of the patch and
    the root of the tree, where the triples vanish."""
    T = st.torus(k)
    corner = path_base(T)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    zg = corner + (ii + jj * T.tau) / n
    # the base point keeps both centers off the cell edges, so no other translate is near
    centers_cell = {s: _cell_rep(c, corner, T.tau) for s, c in (("+", T.v), ("-", 0.0))}
    kept = np.all(np.abs(zg[..., None] - list(centers_cell.values()))
                  >= DEFAULT_POLE_RADIUS, axis=-1)
    kept[kept] = 1.0 / np.abs(_in_blocks(T.g, zg[kept], BLOCK)) >= CUT_FACTOR * st.epsilon
    if kept.all():
        raise MeshTopologyError("grid does not resolve the chart disks",
                                k, st.t, n)
    if not kept[0, 0]:
        raise MeshTopologyError("base point lies in a chart disk", k, st.t, n)

    nkept = int(kept.sum())
    vid = -np.ones((n, n), dtype=int)
    vid[kept] = np.arange(nkept)
    alpha, beta = _segment_triples(st, series, k,
                                   [(corner, corner + 1.0), (corner, corner + T.tau)])

    # wrapped edges in the two lattice directions, net of their wrap periods
    edges = []
    for di, dj, vec, per in ((1, 0, 1.0 / n, alpha), (0, 1, T.tau / n, beta)):
        i2, j2 = (ii + di) % n, (jj + dj) % n
        ok = kept & kept[i2, j2]
        wrap = (ii[ok] + di >= n) | (jj[ok] + dj >= n)
        edges.append((vid[ii[ok], jj[ok]], vid[i2[ok], j2[ok]], _edge_triples(
            st, series, k, zg[ok], vec) - wrap[:, None] * per))
    flat_u, flat_v, inc = (np.concatenate(e) for e in zip(*edges))

    triples, in_tree = _tree_walk(nkept, flat_u, flat_v, inc, 0)
    if in_tree.sum() != nkept - 1:
        raise MeshTopologyError("cut layer grid is disconnected", k, st.t, n)

    # every non-tree edge closes a loop; its position defect must vanish
    loose = ~in_tree
    gap = _positions(triples[flat_u[loose]] + inc[loose]) - _positions(
        triples[flat_v[loose]])
    loop_defect = float(np.max(np.linalg.norm(gap, axis=-1)))
    return vid, zg[kept], triples, alpha, beta, centers_cell, loop_defect


def integrate_layer(k: int, st: GluingState, series: OmegaSeries,
                    grid_res: int = GRID_RES) -> LayerPatch:
    """Integrate the triple over a layer grid with the chart disks cut out.

    The grid is laid from `path_base`: node (0, 0) is vertex 0 and the
    root of the breadth-first spanning tree of `_tree_walk`, which sums
    the edge integrals, less the periods of each edge's wrap, over the
    wrapped grid graph (`_grid_walk`).  Nodes within the kernel's pole
    radius of a chart center are cut before g is evaluated.  A non-tree
    edge closes a loop; its position defect past LOOP_TOL raises
    LoopResidualError, with the defect of the doubled grid (doubled again,
    at most to GRID_RES, while it has not fallen by LOOP_GAIN) to tell a
    coarse grid from an unbalanced state.  Seam rings at |1/g| = epsilon
    follow the neck Laurent arc from the spoke-0 anchor, and their worst
    gap to the direct tree route is the stitch defect.  Each seam band is
    zipped to the jagged cut, its notches cut as ears, then flipped to
    Delaunay in the z-plane.  A grid too coarse for the cut raises
    MeshTopologyError.
    """
    T = st.torus(k)
    n = grid_res
    vid, kept_z, triples, alpha, beta, centers_cell, loop_defect = \
        _grid_walk(k, st, series, n)
    if loop_defect > LOOP_TOL:
        # a coarse grid can sit before the quadrature's fall, so the grid
        # doubles until its defect falls by LOOP_GAIN, at most to GRID_RES
        finer_res = 2 * n
        finer = _grid_walk(k, st, series, finer_res)[-1]
        while finer * LOOP_GAIN > loop_defect and finer_res < GRID_RES:
            finer_res = min(2 * finer_res, GRID_RES)
            finer = _grid_walk(k, st, series, finer_res)[-1]
        raise LoopResidualError(loop_defect, k, st.t, n, finer, finer_res)
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
        # orient the jagged walk counterclockwise around the hole
        if np.sum(np.diff(np.unwrap(np.angle(cyc_z - c_cell)))) < 0:
            cyc_ids = cyc_ids[::-1]
        band_z = dict(zip(np.concatenate([cyc_ids, ring_ids]).tolist(),
                          np.concatenate([kept_z[cyc_ids], ring_z]).tolist()))
        ears, walk = _clip_notches(cyc_ids.tolist(), band_z, complex(c_cell))
        # ring angles in the z plane; the chart angle is offset by arg(-a)
        zipped = _zip_band(np.array(walk), np.angle(kept_z[walk] - c_cell),
                           ring_ids, np.angle(ring_z - c_cell))
        faces.append(np.array(_delaunay_flips(ears + zipped, band_z), dtype=int))
        seam[side] = ring_ids

    return LayerPatch(k=k, verts_z=np.concatenate(verts_list),
                      triples=np.concatenate(tri_list), faces=np.concatenate(faces),
                      seam=seam, centers=centers_cell, alpha=alpha, beta=beta,
                      loop_defect=loop_defect, stitch_defect=stitch)


# ---------------------------------------------------------------------------
# frames and spacing


@dataclass(frozen=True)
class LayerFrame:
    """Base point `path_base` of layer k and its position in the mesh:
    vertex 0 of patch k, where its grid and spanning-tree root sit."""

    k: int
    base: complex
    position: np.ndarray


def _default_range(st: GluingState) -> list[int]:
    if st.n_buffer == 0:  # cyclic: one period and the next layer 0
        return list(range(0, st.n_tori + 1))
    # window states: the clamped buffer layers are not meshed
    return list(st.active_range())


@dataclass(frozen=True)
class SpacingRow:
    k: int
    delta_height: float
    ratio: float


def _spacing_rows(frames: list[LayerFrame], t: float) -> list[SpacingRow]:
    ref = -2.0 * t * math.log(t)
    dh = [(hi.k, float(hi.position[2] - lo.position[2]))
          for lo, hi in zip(frames, frames[1:])]
    return [SpacingRow(k=k, delta_height=h, ratio=h / ref) for k, h in dh]


# ---------------------------------------------------------------------------
# mesh assembly


@dataclass
class SurfaceMesh:
    """Triangulated immersion of a run of layers and their necks.

    raw holds the unreduced immersion, and frames its vertices at the
    layers' base points (`LayerFrame`).  Each face carries the index
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

    Layers are integrated independently from their base points, with
    Delaunay seam bands, once per distinct (k-1, k, k+1) of stored tori,
    and joined through shared seam rings; the two
    half-annuli of each neck merge at the waist.  Consecutive patches are
    branch-aligned through the neck itself: neck k is translated onto the
    plus seam point of layer k, and its welded minus sheet gives the
    offset of layer k+1.  The mesh is translated so the first crossed
    waist centroid sits at the origin; frame k is then vertex 0 of patch k.
    """
    if st.t <= 0.0:
        raise ValueError("meshing needs t > 0")
    ks = list(k_range) if k_range is not None else _default_range(st)
    if not (len(ks) >= 2 and isinstance(ks[0], (int, np.integer))
            and ks == list(range(ks[0], ks[0] + len(ks)))):
        raise ValueError(f"k_range must be at least two consecutive ascending layers, got {ks}")

    # a patch reads its own torus and the necks on both sides, so a layer
    # that folds onto the same stored tori (layer n_tori of a cyclic
    # state onto layer 0) takes the patch already integrated
    integrated, patches = {}, {}
    for k in ks:
        key = tuple(st.index_of(k + d) for d in (-1, 0, 1))
        if key not in integrated:
            integrated[key] = integrate_layer(k, st, series)
        patches[k] = replace(integrated[key], k=k)
    necks = {k: integrate_neck(k, st, series) for k in ks[:-1]}

    offsets: dict[int, np.ndarray] = {ks[0]: np.zeros(3, dtype=complex)}
    shift: dict[int, np.ndarray] = {}
    for k in ks[:-1]:
        plo, phi = patches[k], patches[k + 1]
        shift[k] = offsets[k] + plo.triples[plo.seam["+"][0]]
        # down the plus sheet to the waist, up the minus sheet to layer k+1
        offsets[k + 1] = (shift[k] + necks[k].minus[0, 0]
                          - phi.triples[phi.seam["-"][0]])

    blocks = []  # (triples, offset, faces, their vertex base, k, part code), as views
    base_of: dict[int, int] = {}
    total = 0
    for k in ks:
        p = patches[k]
        base_of[k] = total
        blocks.append((p.triples, offsets[k], p.faces, total, k, LAYER))
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
        total += rings * spokes
        ids_m[1:rings] = total + np.arange((rings - 1) * spokes).reshape(
            rings - 1, spokes)
        total += (rings - 1) * spokes
        ids_m[rings] = ids_p[rings][(spokes - np.arange(spokes)) % spokes]
        neck_grids[k] = {"plus": ids_p, "minus": ids_m}
        s1 = np.roll(np.arange(spokes), -1)
        for part, ids, sheet in ((NECK_PLUS, ids_p, nf.plus[1:]),
                                 (NECK_MINUS, ids_m, nf.minus[1:rings])):
            a, b = ids[:-1], ids[1:]
            # per ring: the spokes' (a, a+1, b+1) faces, then their (a, b+1, b)
            fa = np.stack([a, a[:, s1], b[:, s1]], axis=-1)
            fb = np.stack([a, b[:, s1], b], axis=-1)
            faces = np.concatenate([fa, fb], axis=1).reshape(-1, 3)
            blocks.append((sheet.reshape(-1, 3), shift[k], faces, 0, k, part))

    # each block's positions and offset faces go straight into the mesh arrays
    raw = np.empty((total, 3))
    sizes = [len(f) for _, _, f, _, _, _ in blocks]
    faces_all = np.empty((sum(sizes), 3), dtype=int)
    v = f = 0
    for tr, off, fc, base, _, _ in blocks:
        raw[v : v + len(tr)] = _positions(tr + off)
        faces_all[f : f + len(fc)] = fc + base
        v, f = v + len(tr), f + len(fc)

    # normalize: first crossed waist centroid to the origin
    k0 = ks[0]
    centroid = raw[neck_grids[k0]["plus"][rings]].mean(axis=0)
    raw -= centroid

    frames = [LayerFrame(k=k, base=path_base(st.torus(k)),
                         position=_positions(offsets[k]) - centroid) for k in ks]

    # limit node positions in the mesh branch, anchored at neck ks[0];
    # lattice detours of the cell representatives ride the layer periods
    p_ref: dict[int, complex] = {k0: 0.0}
    for k in ks[1:-1]:
        patch = patches[k]
        T = st.torus(k)
        # the period triple of the lattice vector m + n*tau between them
        m, n = (round(float(c)) for c in lattice_coords(
            patch.centers["+"] - patch.centers["-"] - T.v, T.tau))
        lat = _positions(m * patch.alpha + n * patch.beta)
        p_ref[k] = p_ref[k - 1] + mirror_conj(T.v, k) \
            + complex(lat[0], lat[1])
    drift = {}
    for k in ks[:-1]:
        cen = raw[neck_grids[k]["plus"][rings]].mean(axis=0)
        drift[k] = float(abs(complex(cen[0], cen[1]) - p_ref[k]))

    heights = [offsets[k][2].real for k in ks]
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
                       face_k=np.repeat([b[4] for b in blocks], sizes),
                       face_part=np.repeat([b[5] for b in blocks], sizes),
                       frames=frames, reports=reports)


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
    In both branches, triangles that touch within eps intersect.
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
    out[sel] = ~((hi1 < lo2 - eps) | (hi2 < lo1 - eps))
    return out


def _sweep_pairs(lo: np.ndarray, hi: np.ndarray,
                 faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face pairs (a, b), a < b, whose closed bounding boxes overlap and
    that share no vertex, by sort-and-sweep along the longest axis within
    strips of the second-longest one.

    Strips are as wide as the widest box across them, and each face joins
    every strip its box covers (at most two, up to rounding).  Sorted by
    (strip, box minimum), the partners of an entry are a contiguous run
    found by one searchsorted.  The runs, laid end to end, are expanded
    and filtered BLOCK candidate pairs at a time.  A pair counts only in
    the strip of its larger lower corner, by the floor expression of the
    registration, so it is found once.
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
    del s_lo, s_hi, reps, ranks, key, order, bound, count  # the runs are in first
    cols = [(lo[face, c], hi[face, c]) for c in range(3) if c != axis]
    slots = [np.ascontiguousarray(faces[:, i]) for i in range(3)]  # gathers faster than rows
    found = [np.empty((2, 0), dtype=np.int64)]
    total = int(first[-1])
    for start in range(0, total, BLOCK):
        # candidate q is partner q - first[a] of the entry a whose run
        # holds it; the block's entries are a contiguous range
        stop = min(start + BLOCK, total)
        a0 = int(np.searchsorted(first, start, side="right")) - 1
        a1 = int(np.searchsorted(first, stop - 1, side="right"))
        held = np.minimum(first[a0 + 1 : a1 + 1], stop) - np.maximum(first[a0:a1], start)
        a = np.repeat(np.arange(a0, a1), held)
        b = a + 1 + np.arange(start, stop) - first[a]
        keep = np.maximum(own[a], own[b]) == strip[a]
        for lc, hc in cols:
            keep &= (lc[b] <= hc[a]) & (lc[a] <= hc[b])
        a, b = face[a[keep]], face[b[keep]]
        # a shared vertex id, by the nine slot pairs of the two faces
        at_b = [ids[b] for ids in slots]
        shared = np.zeros(len(a), dtype=bool)
        for ids in slots:
            at_a = ids[a]
            for other in at_b:
                shared |= at_a == other
        found.append(np.stack([a[~shared], b[~shared]]))
    a, b = np.concatenate(found, axis=1)
    return np.minimum(a, b), np.maximum(a, b)


def _intersecting_pairs(raw: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Intersecting face pairs (a, b), a < b, that share no vertex, as
    rows of indices into faces; the triangle test takes BLOCK pairs at a
    time."""
    tris = raw[faces]
    cell = float(np.median(np.linalg.norm(tris[:, 1] - tris[:, 0], axis=1))) * 2
    cell = max(cell, 1e-9)
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    del tris  # the sweep reads the boxes; each block gathers its own triangles
    pairs = np.stack(_sweep_pairs(lo, hi, faces), axis=1)
    del lo, hi  # before the triangle test's blocks
    hit = _in_blocks(lambda ab: _tri_tri_batch(raw[faces[ab[:, 0]]], raw[faces[ab[:, 1]]],
                                               1e-7 * cell), pairs, BLOCK)
    return pairs[hit]


def embeddedness_diagnostics(mesh: SurfaceMesh) -> dict:
    """Diagnostic embeddedness battery; failures are reported, not fatal.

    Checks (i) that layer patches stay vertical graphs: every face's n3,
    signed so that the layer's area-weighted n3 is positive, is at least
    GRAPH_FLOOR, so a face turned over fails however steep it is, (ii)
    that neck cross sections at heights h_k +- t*c, c = SLICE_FACTOR
    log(epsilon/t), are simple convex curves, and (iii) that no two faces of a layer slab intersect.  The slab of layer
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
        # signed against the layer's area-weighted side: a turned face reads < 0
        n3 = np.sign(np.sum(nrm[ok, 2])) * nrm[ok, 2] / lens[ok]
        val = float(np.min(n3)) if len(n3) else 0.0
        del tris, nrm, lens, n3  # before the slab check
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
                out["slices"][f"{k}{side}"] = {"status": "out_of_range", "convex": False,
                                               "simple": False, "pass": False}
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


def mesh_summary(mesh: SurfaceMesh) -> dict:
    """JSON-ready description of one mesh, the `mesh` entry of the
    `stackedmin mesh` record."""
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

