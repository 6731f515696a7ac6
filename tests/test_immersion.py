"""Weierstrass data, patch integration, and mesh assembly."""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import omega_eval, weierstrass_phi, zeros_symmetric
from stackedmin import elliptic, immersion
from stackedmin.configs import Configuration, catalog
from stackedmin.elliptic import PoleError, lattice_for
from stackedmin.hecke import hecke_G, solve_G_equals_C
from stackedmin.opening import GluingState, TorusData, fix_omega, laurent_coeffs
from stackedmin.solver import newton_continuation
from stackedmin.immersion import (
    LAURENT_ORDER,
    LoopResidualError,
    MeshTopologyError,
    _default_range,
    _hole_cycles,
    _intersecting_pairs,
    _neck_sheet,
    _polygon_diagnostics,
    _positions,
    _segment_triples,
    _sweep_pairs,
    _tree_walk,
    _tri_tri_batch,
    build_mesh,
    embeddedness_diagnostics,
    integrate_layer,
    integrate_neck,
    mesh_summary,
    neck_flux,
)


@pytest.fixture(scope="module")
def rpd():
    rep = newton_continuation(catalog("rPD", K=1), 0.01)
    assert rep.converged
    return rep.state, rep.series


@pytest.fixture(scope="module")
def rpd_mesh(rpd):
    st, series = rpd
    return build_mesh(st, series)


@pytest.fixture(scope="module")
def rpd_mesh_02():
    """rPD solved and meshed at t = 0.02."""
    rep = newton_continuation(catalog("rPD", K=1), 0.02)
    assert rep.converged
    return build_mesh(rep.state, rep.series)


@pytest.fixture(scope="module")
def skew():
    """Constant-q stack with G(q0) != 0, the only case with horizontal flux."""
    tau = 1.25j
    lat = lattice_for(tau)
    sols = solve_G_equals_C(lat, 0.4 + 0.3j)
    q0 = sols.roots[0].z
    cfg = Configuration(tau=tau, window=(q0,), left_tail=(q0,),
                        right_tail=(q0,))
    rep = newton_continuation(cfg, 0.01)
    assert rep.converged
    return rep.state, rep.series, hecke_G(q0, lat)


def sample_points(st, k, count=10):
    T = st.torus(k)
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < count:
        x, y = rng.random(2)
        z = x + y * T.tau
        if 1.0 / abs(T.g(z)) >= 1.25 * st.epsilon:
            pts.append(z)
    return pts


# ---------------------------------------------------------------------------
# pointwise Weierstrass data


def test_phi_is_a_null_curve(rpd):
    st, series = rpd
    for k in (0, 1):
        for z in sample_points(st, k):
            phi = weierstrass_phi(k, z, st, series)
            scale = sum(abs(p) ** 2 for p in phi)
            assert abs(sum(p * p for p in phi)) < 1e-13 * scale


def test_height_form_scales_with_t(rpd):
    st, series = rpd
    z = sample_points(st, 0, 1)[0]
    phi = weierstrass_phi(0, z, st, series)
    assert abs(phi[2] - st.t * omega_eval(st, series, 0, z)) < 1e-14


def test_form_regular_at_gauss_zeros(rpd):
    st, series = rpd
    for k in (0, 1):
        s1, s2 = zeros_symmetric(k, st)
        for Z in np.roots([1.0, -s1, s2]):
            assert abs(omega_eval(st, series, k, Z)) < 1e-10
            # simple zero against simple zero: phi_1 stays of order one
            phi = weierstrass_phi(k, Z + 1e-4, st, series)
            assert abs(phi[0]) > 1e-3
            assert abs(phi[1]) > 1e-3


# ---------------------------------------------------------------------------
# layer patches


def test_layer_loops_close(rpd):
    st, series = rpd
    for k in (0, 1):
        p = integrate_layer(k, st, series)
        assert p.loop_defect < 1e-8
        assert p.stitch_defect < 1e-8


def test_coarse_grid_raises_typed_topology_error(rpd):
    st, series = rpd
    with pytest.raises(MeshTopologyError) as info:
        integrate_layer(0, st, series, grid_res=4)
    err = info.value
    assert isinstance(err, RuntimeError)
    assert (err.k, err.t, err.grid_res) == (0, st.t, 4)
    assert "k=0" in str(err) and f"t={st.t:g}" in str(err) and "grid_res=4" in str(err)
    # two triangles touching at one vertex: four boundary edges meet there
    assert _hole_cycles(np.array([[0, 1, 2], [0, 3, 4]])) is None


def test_loop_residual_error_names_layer_t_grid_and_residual(rpd):
    st, series = rpd
    with pytest.raises(LoopResidualError) as info:
        integrate_layer(0, st, series, grid_res=12)
    err = info.value
    assert isinstance(err, RuntimeError)
    assert (err.k, err.t, err.grid_res) == (0, st.t, 12)
    assert immersion.LOOP_TOL < err.residual < 1e-6
    for part in ("k=0", f"t={st.t:g}", "grid_res=12", f"{err.residual:.2e}",
                 "finer grid"):
        assert part in str(err)


@pytest.mark.parametrize("grid_res", [3, 6])
def test_coarse_grid_before_the_fall_gets_grid_advice(rpd, grid_res):
    """On the solved rPD layer 0 the loop defect rises before it falls
    (5.6e-8, 9.8e-8 and 2.0e-7 at grid_res 3, 6 and 12, 9.3e-10 at 24),
    so the doubled grid alone would blame a balanced state: the grid
    doubles until the defect falls by LOOP_GAIN, and the error advises a
    finer grid, naming the grid where it fell."""
    st, series = rpd
    with pytest.raises(LoopResidualError) as info:
        integrate_layer(0, st, series, grid_res=grid_res)
    err = info.value
    assert err.grid_res == grid_res and err.finer_res > 2 * grid_res
    assert err.finer * immersion.LOOP_GAIN <= err.residual
    msg = str(err)
    assert "not balanced" not in msg
    for part in ("finer grid", f"{err.finer:.2e}", f"grid_res={err.finer_res}"):
        assert part in msg


def test_coarse_grid_doubling_stops_at_grid_res(rpd, monkeypatch):
    """On the unbalanced state the defect never falls, so from grid_res 3
    the grid doubles to 48 and then stops at GRID_RES, not at 96, and the
    error blames the state on that grid."""
    st, _ = rpd
    bad = copy.deepcopy(st)
    bad.tori[0] = dataclasses.replace(bad.tori[0], bhat=bad.tori[0].bhat + 0.02)
    bad.refresh()
    walked, grid_walk = [], immersion._grid_walk

    def counted(k, st_, series, n):
        walked.append(n)
        return grid_walk(k, st_, series, n)

    monkeypatch.setattr(immersion, "_grid_walk", counted)
    with pytest.raises(LoopResidualError) as info:
        integrate_layer(0, bad, fix_omega(bad), grid_res=3)
    err = info.value
    assert walked == [3, 6, 12, 24, 48, immersion.GRID_RES]
    assert err.finer_res == immersion.GRID_RES and "not balanced" in str(err)
    assert f"grid_res={immersion.GRID_RES}, so the periods" in str(err)


def test_grid_node_on_a_pole_is_cut(rpd):
    """At grid_res 18 a node of the rPD layer-0 grid lies within the pole
    radius of a chart center: the base point sits at lattice coordinates
    (2/3, 2/3), so a node lands on the pole when 3 divides n.  It is cut
    before g is evaluated, so the layer meshes or fails with a mesh
    error, never a PoleError."""
    st, series = rpd
    T = st.torus(0)
    n = 18
    corner = immersion.path_base(T)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    zg = corner + (ii + jj * T.tau) / n
    gap = min(np.min(np.abs(elliptic.reduce_centered(zg - c, T.tau)[0]))
              for c in (0.0, T.v))
    assert gap < elliptic.DEFAULT_POLE_RADIUS
    try:
        patch = integrate_layer(0, st, series, grid_res=n)
    except (MeshTopologyError, LoopResidualError):
        return
    except PoleError as err:  # pragma: no cover - the failure under test
        pytest.fail(f"pole reached g: {err}")
    assert patch.loop_defect < immersion.LOOP_TOL


def _holed_torus_grid(rng, n: int, keep: float):
    """Edges of a wrapped n x n grid with random nodes removed, in the
    order integrate_layer lists them, with random complex increments."""
    kept = rng.random((n, n)) < keep
    vid = -np.ones((n, n), dtype=int)
    vid[kept] = np.arange(int(kept.sum()))
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u, v = [], []
    for di, dj in ((1, 0), (0, 1)):
        i2, j2 = (ii + di) % n, (jj + dj) % n
        ok = kept & kept[i2, j2]
        u.append(vid[ii[ok], jj[ok]])
        v.append(vid[i2[ok], j2[ok]])
    u, v = np.concatenate(u), np.concatenate(v)
    inc = rng.standard_normal((len(u), 3)) + 1j * rng.standard_normal((len(u), 3))
    return int(kept.sum()), u, v, inc


def test_tree_walk_matches_fifo_loop(rpd, monkeypatch):
    """The frontier walk gives the bits of the node-by-node FIFO loop on
    random holed grids, connected or not, and on both rPD layers, where
    it spans the kept grid with nkept - 1 tree edges."""
    rng = np.random.default_rng(5)
    graphs = [_holed_torus_grid(rng, n, keep)
              for n, keep in ((6, 0.9), (9, 0.75), (13, 0.6), (16, 0.85))]
    walk = immersion._tree_walk
    seen = []

    def captured(*args):
        seen.append(args)
        return walk(*args)

    monkeypatch.setattr(immersion, "_tree_walk", captured)
    st, series = rpd
    for k in (0, 1):
        integrate_layer(k, st, series)
    assert len(seen) == 2
    cases = [(g + (int(rng.integers(g[0])),), False) for g in graphs]
    spanned = 0
    for (n_nodes, u, v, inc, root), layer in cases + [(a, True) for a in seen]:
        triples, in_tree = _tree_walk(n_nodes, u, v, inc, root)
        ref_triples, ref_tree = oracles.tree_walk_fifo(n_nodes, u, v, inc, root)
        assert np.array_equal(triples, ref_triples)
        assert np.array_equal(in_tree, ref_tree)
        reached = np.zeros(n_nodes, dtype=bool)
        reached[[root]] = True
        reached[u[in_tree]] = reached[v[in_tree]] = True
        assert (in_tree.sum() == n_nodes - 1) == reached.all()
        assert reached.all() or not layer
        spanned += bool(reached.all())
    assert spanned >= 4


def test_segment_batch_matches_single_segments(rpd):
    """Segments integrated through one jet call give the bits of one call
    per segment, for legs of one piece and of several."""
    st, series = rpd
    for k in (0, 1):
        T = st.torus(k)
        z0 = complex(immersion.path_base(T))
        ends = [(z0, z0 + 1.0), (z0, z0 + T.tau),
                (z0 + 0.1, z0 + 0.12 + 0.01j), (z0 + 0.3j, z0 + 0.2 + 0.31j),
                (np.complex128(z0 + 0.2), np.complex128(z0 + 0.23))]
        pieces = [max(1, int(np.ceil(abs(b - a) / immersion.SEG_STEP)))
                  for a, b in ends]
        assert 1 in pieces and max(pieces) > 1
        got = _segment_triples(st, series, k, ends)
        ref = oracles.segment_triples_one_by_one(st, series, k, ends)
        assert np.array_equal(got, ref)


def test_grid_faces_and_hole_walks_match_cell_loops(rpd, monkeypatch):
    """The array grid faces and the sorted edge count give the faces,
    wrapped faces and hole walks of the cell-by-cell loops, and the same
    layer patches."""
    st, series = rpd
    rng = np.random.default_rng(3)
    for n in (5, 12):
        vid = np.where(rng.random((n, n)) < 0.8, rng.integers(0, 99, (n, n)), -1)
        full_id = np.where(rng.random((n + 1, n + 1)) < 0.8,
                           rng.integers(0, 99, (n + 1, n + 1)), -1)
        full_id[:n, :n] = vid
        for got, ref in zip(immersion._grid_faces(full_id, vid),
                            oracles.grid_faces_loop(full_id, vid)):
            assert np.array_equal(got, ref)
    seen = []
    grid_faces = immersion._grid_faces

    def captured(full_id, vid):
        seen.append(grid_faces(full_id, vid))
        return seen[-1]

    monkeypatch.setattr(immersion, "_grid_faces", captured)
    patches = [integrate_layer(k, st, series) for k in (0, 1)]
    assert len(seen) == 2
    # both layers, each with one face fewer, a bowtie boundary, and a
    # triangle whose first-met edge order is not the sorted one
    wrapped = [fw for _, fw in seen] + [fw[:-1] for _, fw in seen]
    for fw in wrapped + [np.array([[0, 1, 2], [0, 3, 4]]), np.array([[0, 2, 1]])]:
        assert _hole_cycles(fw) == oracles.hole_cycles_dict(fw)
    monkeypatch.setattr(immersion, "_grid_faces", oracles.grid_faces_loop)
    monkeypatch.setattr(immersion, "_hole_cycles", oracles.hole_cycles_dict)
    for k, got in zip((0, 1), patches):
        ref = integrate_layer(k, st, series)
        for name in ("verts_z", "triples", "faces"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (k, name)
        for side in "+-":
            assert np.array_equal(got.seam[side], ref.seam[side])


def test_hole_walks_match_the_unique_count_within_a_bounded_transient(rpd, monkeypatch):
    """On the rPD grids at 64 and 128 the argsort edge count gives the
    hole walks of the np.unique count over sorted edge rows, in the same
    order, and at 128 it takes less than 3 MiB above its input (5.8 MiB
    for the np.unique count)."""
    st, series = rpd
    seen = []
    grid_faces = immersion._grid_faces

    def captured(full_id, vid):
        faces = grid_faces(full_id, vid)
        seen.append(faces[1])
        return faces

    monkeypatch.setattr(immersion, "_grid_faces", captured)
    for n in (64, 128):
        integrate_layer(0, st, series, grid_res=n)
    for faces_w in seen:
        assert _hole_cycles(faces_w) == oracles.hole_cycles_unique(faces_w)
    assert oracles.traced_peak_mib(_hole_cycles, seen[-1]) < 3


def test_build_mesh_theta_passes(rpd, rpd_mesh, monkeypatch):
    """build_mesh runs at most 60 theta passes on rPD at t = 0.01 (one
    per seam ring pair instead of one per leg) over the points of the
    per-segment loop, and builds the same mesh."""
    st, series = rpd
    passes = oracles.theta_passes(monkeypatch)
    mesh = build_mesh(st, series)
    batched = passes.calls, sum(passes.points)
    passes.clear()
    monkeypatch.setattr(immersion, "_segment_triples",
                        oracles.segment_triples_one_by_one)
    ref = build_mesh(st, series)
    assert batched[0] <= 60 < passes.calls
    assert batched[1] == sum(passes.points)
    for got in (mesh, rpd_mesh):
        assert np.array_equal(got.raw, ref.raw)
        assert np.array_equal(got.faces, ref.faces)


@pytest.mark.parametrize("k_range", [[0, 2], [2, 1, 0], [1, 1, 2], [1], [0.0, 1.0]])
def test_bad_k_range_is_refused_before_any_patch(rpd, monkeypatch, k_range):
    """A mesh runs over consecutive ascending layers, at least two; any
    other k_range is a ValueError naming it, raised before integrating."""
    def no_patch(*args, **kw):
        raise AssertionError("integrated a patch before the k_range check")

    monkeypatch.setattr(immersion, "integrate_layer", no_patch)
    with pytest.raises(ValueError, match="k_range"):
        build_mesh(*rpd, k_range=k_range)


def test_folded_layer_reuses_its_patch(rpd, rpd_mesh, monkeypatch):
    """Layer 2 of cyclic rPD folds onto layer 0, so build_mesh integrates
    two patches for its three layers; the mesh equals the one built with
    one patch per layer, on the state unfolded over two periods."""
    st, series = rpd
    calls, integrate = [], immersion.integrate_layer

    def counted(k, *args, **kw):
        calls.append(k)
        return integrate(k, *args, **kw)

    monkeypatch.setattr(immersion, "integrate_layer", counted)
    mesh = build_mesh(st, series)
    assert calls == [0, 1]
    calls.clear()
    ref = build_mesh(*oracles.unfolded_cyclic(st, series), k_range=range(3))
    assert calls == [0, 1, 2]
    for got in (mesh, rpd_mesh):
        for name in ("raw", "faces", "face_k", "face_part"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert json.dumps(mesh_summary(got)) == json.dumps(mesh_summary(ref))
        for key, val in ref.reports.items():
            if key == "neck_grids":
                assert all(np.array_equal(got.reports[key][k][part], grid)
                           for k, grids in val.items() for part, grid in grids.items())
            elif key == "flux":
                assert all(np.array_equal(got.reports[key][k], v) for k, v in val.items())
            else:
                assert got.reports[key] == val, key


def test_lattice_period_displacements(rpd):
    st, series = rpd
    for k in (0, 1):
        p = integrate_layer(k, st, series)
        pa = _positions(p.alpha[None, :])[0]
        pb = _positions(p.beta[None, :])[0]
        sgn = 1.0 if k % 2 == 0 else -1.0
        assert abs(complex(pa[0], pa[1]) - sgn) < 1e-10
        assert abs(pa[2]) < 1e-12
        assert abs(pb[2]) < 1e-12


# ---------------------------------------------------------------------------
# neck fields and flux


def test_neck_tails_negligible(rpd):
    st, series = rpd
    nf = integrate_neck(0, st, series)
    assert max(nf.tail_plus, nf.tail_minus) < 1e-12
    assert nf.weld_defect < 1e-10


def test_neck_sheet_matches_per_power_oracle(rpd):
    """The one-array evaluator agrees with the per-power dict evaluator on
    both chart sides of necks on both layer parities, on the full neck
    grid and on the one-radius seam ring, whose values are the neck's
    row 0 bit for bit."""
    st, series = rpd
    eps = st.epsilon
    radii = eps * (st.t / eps) ** (np.arange(immersion.NECK_RINGS + 1)
                                   / immersion.NECK_RINGS)
    for k in (0, 1):
        nl = laurent_coeffs(st, series, k, LAURENT_ORDER)
        for side in "+-":
            sheet = _neck_sheet(nl, side, radii)
            seam = _neck_sheet(nl, side, np.array([eps]))
            assert np.array_equal(seam[0], sheet[0])
            for got, r in ((sheet, radii), (seam, np.array([eps]))):
                ref = oracles.neck_sheet_per_power(nl, side, r, immersion.THETAS)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_waist_weld_matches_oracle_bit_for_bit(rpd):
    """The spoke-0 weld of integrate_neck is the per-power waist transfer
    of the same Laurent data, bit for bit."""
    st, series = rpd
    for k in (0, 1):
        nf = integrate_neck(k, st, series)
        ref = oracles.waist_transfer(nf.laurent, k, st.t, st.epsilon)
        assert np.array_equal(nf.minus[0, 0], ref)
        assert not np.any(nf.plus[0, 0])


def test_build_mesh_laurent_extractions(rpd, monkeypatch):
    """One rPD mesh takes at most 8 contour extractions of the neck
    Laurent data: one per seam ring and one per neck."""
    st, series = rpd
    calls = []

    def counted(*args):
        calls.append(args[2])
        return laurent_coeffs(*args)

    monkeypatch.setattr(immersion, "laurent_coeffs", counted)
    build_mesh(st, series)
    assert len(calls) <= 8


def test_wrap_continuity_relation(rpd):
    st, series = rpd
    for k in (0, 1):
        nl = laurent_coeffs(st, series, k, LAURENT_ORDER)
        assert abs(nl.c_plus[0] + np.conj(nl.c_minus[0])) < 1e-12


def test_flux_vertical_only_for_balanced_catalog(rpd):
    st, series = rpd
    for k in (0, 1):
        nl = laurent_coeffs(st, series, k, LAURENT_ORDER)
        fl = neck_flux(nl, k % 2 == 0)
        assert abs(complex(fl[0], fl[1])) < 1e-12
        assert abs(fl[2] + 2.0 * np.pi * st.t) < 1e-12


def test_flux_matches_first_moments(skew):
    st, series, G0 = skew
    for k in (0, 1):
        nl = laurent_coeffs(st, series, k, LAURENT_ORDER)
        ref = G0 if k % 2 == 0 else -np.conj(G0)
        assert abs(nl.c_plus[0] - ref) < 1e-10
        assert abs(nl.c_plus[0] + np.conj(nl.c_minus[0])) < 1e-12
        fl = neck_flux(nl, k % 2 == 0)
        pred = 2.0 * np.pi * st.t ** 2 * np.conj(G0)
        assert abs(complex(fl[0], fl[1]) - pred) < 1e-12
        assert abs(fl[2] + 2.0 * np.pi * st.t) < 1e-12


# ---------------------------------------------------------------------------
# assembled mesh


def test_mesh_defects_at_solver_noise(rpd_mesh):
    r = rpd_mesh.reports
    assert max(r["loop_defect"].values()) < 1e-8
    assert max(r["stitch_defect"].values()) < 1e-9
    assert max(r["weld_defect"].values()) < 1e-10
    assert max(r["wrap_continuity"].values()) < 1e-12
    assert max(r["drift"].values()) < 1e-9
    assert r["heights_increasing"]


def test_spacing_rows_identical_for_periodic(rpd_mesh):
    rows = mesh_summary(rpd_mesh)["spacing"]
    dhs = [row["delta_height"] for row in rows]
    assert np.ptp(dhs) < 1e-9


def test_spacing_ratio_climbs_to_one(rpd_mesh_02, rpd_mesh):
    rep = newton_continuation(catalog("rPD", K=1), 0.005)
    meshes = (rpd_mesh_02, rpd_mesh, build_mesh(rep.state, rep.series))
    ratios = [mesh_summary(mesh)["spacing"][0]["ratio"] for mesh in meshes]
    assert all(r < 1.0 for r in ratios)
    assert ratios[0] < ratios[1] < ratios[2]


def test_embeddedness_battery(rpd_mesh):
    emb = embeddedness_diagnostics(rpd_mesh)
    assert emb["pass"]
    for diag in emb["graph"].values():
        assert diag["min_n3"] > 0.5
    for diag in emb["slices"].values():
        assert diag["convex"] and diag["simple"]
    for diag in emb["intersections"].values():
        assert diag["pairs"] == 0


def test_out_of_range_slices_carry_every_slice_key(rpd_mesh, monkeypatch):
    """A slice height past the neck is reported failed with the convex
    and simple keys of a measured slice, so a reader of them sees a
    failed slice, not a KeyError."""
    monkeypatch.setattr(immersion, "SLICE_FACTOR", 50)
    emb = embeddedness_diagnostics(rpd_mesh)
    assert emb["slices"] and not emb["pass"]
    for diag in emb["slices"].values():
        assert diag["status"] == "out_of_range"
        assert (diag["convex"], diag["simple"], diag["pass"]) == (False, False, False)


def test_turned_layer_face_fails_the_graph_check(rpd_mesh):
    """A layer face turned over keeps its |n3| but reverses its sign
    against the rest of the layer, so the graph check fails."""
    faces = rpd_mesh.faces.copy()
    i = int(np.flatnonzero(rpd_mesh.face_part == immersion.LAYER)[0])
    faces[i] = faces[i, ::-1]
    emb = embeddedness_diagnostics(dataclasses.replace(rpd_mesh, faces=faces))
    k = int(rpd_mesh.face_k[i])
    assert emb["graph"][k]["min_n3"] < 0 < embeddedness_diagnostics(
        rpd_mesh)["graph"][k]["min_n3"]
    assert not emb["graph"][k]["pass"] and not emb["pass"]


def _seam_n3(mesh) -> float:
    """|n3| of the surface on the seam ring |w| = epsilon."""
    r = mesh.t / mesh.epsilon
    return (1.0 - r * r) / (1.0 + r * r)


def test_embeddedness_battery_at_larger_t(rpd_mesh_02):
    emb = embeddedness_diagnostics(rpd_mesh_02)
    assert emb["pass"]
    for diag in emb["graph"].values():
        assert diag["min_n3"] >= _seam_n3(rpd_mesh_02) - 0.01


def test_graph_check_does_not_depend_on_grid_placement(rpd, monkeypatch):
    """Sub-cell shifts of the layer grid keep every rPD layer a graph down
    to the surface's own |n3| on the seam ring: the seam bands are
    Delaunay in the z-plane, so no sliver that the grid's placement makes
    reads as a steep face."""
    st, series = rpd
    base = immersion.path_base
    for fx, fy in np.random.default_rng(12).random((6, 2)):
        monkeypatch.setattr(immersion, "path_base",
                            lambda T, fx=fx, fy=fy: base(T) + (fx + fy * T.tau) / 64)
        mesh = build_mesh(st, series)
        emb = embeddedness_diagnostics(mesh)
        assert emb["pass"], (fx, fy)
        for diag in emb["graph"].values():
            assert diag["min_n3"] >= _seam_n3(mesh) - 0.01, (fx, fy)


def test_frame_is_the_base_vertex(rpd, rpd_mesh):
    """The grid, its tree root and the layer frame sit at path_base: each
    patch's vertex 0 is the base point with a zero triple, and each frame
    position is that vertex of the mesh to the bit."""
    st, series = rpd
    for frame in rpd_mesh.frames:
        base = immersion.path_base(st.torus(frame.k))
        assert frame.base == base
        v0 = rpd_mesh.reports["layer_base"][frame.k]
        assert np.array_equal(rpd_mesh.raw[v0], frame.position)
    for k in (0, 1):
        patch = integrate_layer(k, st, series)
        assert patch.verts_z[0] == immersion.path_base(st.torus(k))
        assert not np.any(patch.triples[0])


def _signed_areas(faces, z) -> np.ndarray:
    p = np.array([[z[i] for i in f] for f in faces])
    return 0.5 * (np.conj(p[:, 1] - p[:, 0]) * (p[:, 2] - p[:, 0])).imag


def test_seam_bands_are_delaunay(rpd, monkeypatch):
    """On the rPD seam bands the flips keep the vertices and signed z-area
    of the zip with its notch ears, and leave every face counterclockwise
    and every interior edge locally Delaunay, by each face's circumcircle.
    Without the ears, folded faces stay on layer 0."""
    st, series = rpd
    flips = immersion._delaunay_flips
    bands = []

    def captured(faces, z):
        bands.append((faces, z, flips(faces, z)))
        return bands[-1][2]

    monkeypatch.setattr(immersion, "_delaunay_flips", captured)
    for k in (0, 1):
        integrate_layer(k, st, series)
    assert len(bands) == 4
    changed = 0
    for zipped, z, faces in bands:
        changed += sorted(map(tuple, zipped)) != sorted(faces)
        assert {int(i) for f in zipped for i in f} == {i for f in faces for i in f}
        area = _signed_areas(faces, z)
        assert np.all(area > 0)
        assert abs(area.sum() - _signed_areas(zipped, z).sum()) < 1e-12 * area.sum()
        third = {(f[i], f[i - 2]): f[i - 1] for f in faces for i in range(3)}
        for (a, b), c in third.items():
            d = third.get((b, a))
            if d is None:
                continue
            # circumcenter of a, b, c relative to a
            u, v = z[b] - z[a], z[c] - z[a]
            cen = u * v * np.conj(u - v) / (np.conj(u) * v - u * np.conj(v))
            assert abs(z[d] - z[a] - cen) >= abs(cen) * (1.0 - 1e-9)
    assert changed == len(bands)
    # without the ears the zip folds faces over the notches, for good
    bands.clear()
    monkeypatch.setattr(immersion, "_clip_notches", lambda walk, z, c: ([], walk))
    integrate_layer(0, st, series)
    assert min(_signed_areas(faces, z).min() for _, z, faces in bands) < 0


def test_in_circle_never_asks_to_flip_both_diagonals():
    """On cocircular quads rounding decides the Delaunay test; evaluated on
    the points in id order it still answers the two diagonals oppositely,
    so no pair of faces can flip back and forth.  Taken at d, as the
    textbook writes it, both diagonals would flip on about 2 % of them."""
    rng = np.random.default_rng(1)
    for _ in range(2000):
        center, r = complex(*rng.random(2)), 0.01 + 0.1 * rng.random()
        # a, d, b, c counterclockwise on one circle: diagonal a-b, then c-d
        pa, pd, pb, pc = center + r * np.exp(2j * np.pi * np.sort(rng.random(4)))
        z = {0: complex(pa), 1: complex(pb), 2: complex(pc), 3: complex(pd)}
        assert not (immersion._in_circle(z, 0, 1, 2, 3)
                    and immersion._in_circle(z, 3, 2, 0, 1))


def test_planted_self_intersection_is_reported(rpd_mesh):
    mesh = copy.deepcopy(rpd_mesh)
    k = 0
    grids = mesh.reports["neck_grids"]
    layer = (mesh.face_part == immersion.LAYER) & (mesh.face_k == k)
    necks = np.concatenate([np.ravel(g) for sides in grids.values()
                            for g in sides.values()])
    inner = np.setdiff1d(mesh.faces[layer], necks)
    # the layer vertex nearest the neck moves onto the neck axis halfway
    # up to the waist, so the faces around it cross the neck wall
    ring = grids[k]["plus"]
    axis_pt = mesh.raw[ring[len(ring) // 2]].mean(axis=0)
    v = inner[np.argmin(np.linalg.norm(mesh.raw[inner, :2] - axis_pt[:2], axis=1))]
    mesh.raw[v] = axis_pt
    emb = embeddedness_diagnostics(mesh)
    assert emb["intersections"][k]["pairs"] >= 1
    assert not emb["intersections"][k]["pass"]
    assert not emb["pass"]
    assert all(d["pairs"] == 0 for kk, d in emb["intersections"].items() if kk != k)


def test_polygon_diagnostics_simple_and_crossing():
    ang = 2.0 * np.pi * np.arange(64) / 64
    ring = np.stack([np.cos(ang), np.sin(ang), np.zeros(64)], axis=1)
    diag = _polygon_diagnostics(ring)
    assert diag["convex"] and diag["simple"]
    assert abs(diag["turning"] - 2.0 * np.pi) < 1e-12
    # edges 0 and 2 of the bow tie cross at (0.5, 0.5)
    bow_tie = np.array([[0.0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]])
    assert not _polygon_diagnostics(bow_tie)["simple"]


# a unit right triangle in z = 0; PIERCE crosses its plane along
# x in [0.2, 0.4] at y = 0.3, inside it; the SEPARATED triangles miss it
# by 1e-3 of an edge, across the line of the two planes or above it
UNIT_TRI = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
PIERCE = np.array([[0.1, 0.3, -0.5], [0.5, 0.3, -0.5], [0.3, 0.3, 0.5]])
SEPARATED = (PIERCE + [0.5 + 1e-3, 0.0, 0.0], PIERCE + [0.0, 0.0, 0.5 + 1e-3])


@pytest.mark.parametrize("edge", [1e-3, 0.0156, 1.0, 10.0])
def test_triangle_test_is_scale_invariant(edge):
    eps = 1e-7 * 2 * edge  # the battery's tolerance, cell = 2 * median edge
    p = edge * UNIT_TRI
    cases = [(edge * PIERCE, True)] + [(edge * q, False) for q in SEPARATED]
    for q, hit in cases:
        assert oracles.tri_tri_intersect(p, q, eps) == hit
        assert oracles.tri_tri_intersect(q, p, eps) == hit
    ps = np.array([p] * len(cases) + [q for q, _ in cases])
    qs = np.array([q for q, _ in cases] + [p] * len(cases))
    assert list(_tri_tri_batch(ps, qs, eps)) == [hit for _, hit in cases] * 2


def _triangle_soup(seed: int = 11):
    """Random triangles, fans that share vertices, and the special pairs
    of the face test with their expected outcomes: touching edges,
    interval ends that meet, overlapping and separate coplanar pairs."""
    rng = np.random.default_rng(seed)
    centers = rng.random((150, 1, 3))
    verts = list((centers + 0.15 * rng.standard_normal((150, 3, 3))).reshape(-1, 3))
    faces = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(150)]
    # fans through existing vertices: pairs that share one or two vertices
    for _ in range(40):
        a, b = rng.integers(0, len(verts), size=2)
        verts.append(rng.random(3))
        faces.append([int(a), int(b), len(verts) - 1])

    def add(tri, offset):
        verts.extend(np.asarray(tri, dtype=float) + offset)
        faces.append([len(verts) - 3, len(verts) - 2, len(verts) - 1])
        return len(faces) - 1

    unit = [[0, 0, 0], [0.3, 0, 0], [0, 0.3, 0]]
    expected = {}
    p = add(unit, [3, 0, 0])
    # an edge along an edge; a vertex on the face
    expected[p, add([[0.05, 0, 0], [0.25, 0, 0], [0.15, 0, 0.3]], [3, 0, 0])] = True
    expected[p, add([[0.1, 0.1, 0], [0.2, 0.1, 0.3], [0.1, 0.2, 0.3]], [3, 0, 0])] = True
    # the two intervals on the line of the planes meet at one end: a
    # touch, which intersects as a coplanar touch does
    p = add(unit, [3, 1, 0])
    expected[p, add([[0.3, -0.1, -0.1], [0.5, -0.1, -0.1], [0.3, 0.1, 0.1]],
                    [3, 1, 0])] = True
    # coplanar: overlapping, touching along an edge, apart; then the
    # overlapping and apart pairs again, tilted off the coordinate planes
    inner = [[0.1, 0.1, 0], [0.4, 0.1, 0], [0.1, 0.4, 0]]
    apart = [[0.2, 0.2, 0], [0.5, 0.2, 0], [0.2, 0.5, 0]]
    p = add(unit, [4, 0, 0])
    expected[p, add(inner, [4, 0, 0])] = True
    expected[p, add([[0.3, 0, 0], [0.3, 0.3, 0], [0, 0.3, 0]], [4, 0, 0])] = True
    expected[p, add(apart, [4, 0, 0])] = False
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    p = add(np.asarray(unit, dtype=float) @ rot.T, [5, 0, 0])
    expected[p, add(np.asarray(inner) @ rot.T, [5, 0, 0])] = True
    expected[p, add(np.asarray(apart) @ rot.T, [5, 0, 0])] = False
    return np.array(verts), np.array(faces), expected


@pytest.mark.parametrize("block", [immersion.BLOCK, 7])
def test_sweep_matches_bucket_oracle(block, monkeypatch):
    monkeypatch.setattr(immersion, "BLOCK", block)
    raw, faces, expected = _triangle_soup()
    tris = raw[faces]
    a, b = _sweep_pairs(tris.min(axis=1), tris.max(axis=1), faces)
    cands, _ = oracles.bucket_candidates(raw, faces)
    assert len(a) == len(cands)
    assert set(zip(a.tolist(), b.tolist())) == cands
    hits = {tuple(row) for row in _intersecting_pairs(raw, faces).tolist()}
    ref = oracles.intersecting_pairs_buckets(raw, faces)
    assert hits == ref
    assert 0 < len(ref) < len(cands)
    assert {pair: pair in ref for pair in expected} == expected


def _shared_vertex_soup():
    """Bounding boxes that all contain the origin, and faces of which only
    the last two share no vertex id.  Nine pairs share one id each, the
    hub 0, in slot i of the first face and slot j of the second, one pair
    per (i, j); one pair shares two ids.  Every face but the last holds
    the hub and every face but the one before it holds id 1 or 2, so any
    other two faces share an id."""
    faces, fresh = [], iter(range(10, 100))
    for i in range(3):
        for j in range(3):
            for hub, other in ((i, 1), (j, 2)):
                face = [next(fresh)] * 3
                face[hub], face[(hub + 1) % 3] = 0, other
                faces.append(face)
    faces += [[0, 1, next(fresh)], [2, 0, 1], [0, next(fresh), next(fresh)], [1, 2, 3]]
    rng = np.random.default_rng(5)
    lo = -rng.random((len(faces), 3))
    return lo, lo + 1.0 + rng.random((len(faces), 3)), np.array(faces)


@pytest.mark.parametrize("block", [immersion.BLOCK, 7])
def test_sweep_drops_pairs_that_share_any_vertex_slot(block, monkeypatch):
    """Of faces whose boxes all overlap, `_sweep_pairs` returns only the
    pair that shares no vertex id, whichever slots the others share."""
    monkeypatch.setattr(immersion, "BLOCK", block)
    lo, hi, faces = _shared_vertex_soup()
    nine = faces[:18].reshape(9, 2, 3)
    assert all(len(set(a) & set(b)) == 1 for a, b in nine)
    assert sorted((a.tolist().index(0), b.tolist().index(0)) for a, b in nine) == [
        (i, j) for i in range(3) for j in range(3)]
    assert len(set(faces[18]) & set(faces[19])) == 2
    a, b = _sweep_pairs(lo, hi, faces)
    assert list(zip(a.tolist(), b.tolist())) == [(len(faces) - 2, len(faces) - 1)]


def test_mesh_takes_one_complex_sin_per_distinct_imaginary_part(rpd, monkeypatch):
    """The rPD mesh at t = 0.01 sends its 152,424 grid and edge points
    through the theta pass as they lie, and no term of a pass takes the
    complex sin (its cosh/sinh step) of more values than the pass's
    argument has distinct Im bit patterns: 14,562 in all, since a grid
    row and the nodes of its edges share their imaginary parts."""
    st, series = rpd
    passes, theta_sums = [], elliptic._theta_sums

    class Counting:
        """numpy, with the sizes of the complex sin calls recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def sin(self, x, *args, **kwargs):
            if np.iscomplexobj(x):
                passes[-1][1].append(np.size(x))
            return np.sin(x, *args, **kwargs)

    def counted(v, *args):
        w = np.multiply(1, np.asarray(v, dtype=complex))
        passes.append((np.size(v), [], len(np.unique(np.imag(w).view(np.int64)))))
        return theta_sums(v, *args)

    monkeypatch.setattr(elliptic, "np", Counting())
    monkeypatch.setattr(elliptic, "_theta_sums", counted)
    build_mesh(st, series)
    assert sum(size for size, _, _ in passes) == 152_424
    assert all(sins and max(sins) <= distinct for _, sins, distinct in passes)
    assert sum(distinct for _, _, distinct in passes) < 152_424 / 10


def test_blocks_keep_the_mesh_and_the_battery(rpd, rpd_mesh, monkeypatch):
    """With BLOCK at 64, no `_diffs` call takes more than 64 points, the
    edge, sweep and triangle batches split many times over, and the rPD
    mesh, its reports and frames and the battery keep every bit."""
    st, series = rpd
    ref = embeddedness_diagnostics(rpd_mesh)
    sizes, diffs = [], immersion._diffs

    def counted(st, series, k, z):
        sizes.append(np.size(z))
        return diffs(st, series, k, z)

    monkeypatch.setattr(immersion, "_diffs", counted)
    monkeypatch.setattr(immersion, "BLOCK", 64)
    mesh = build_mesh(st, series)
    assert max(sizes) == 64 and len(sizes) > 1000
    for name in ("raw", "faces", "face_k", "face_part"):
        got, want = getattr(mesh, name), getattr(rpd_mesh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert pickle.dumps(mesh.reports) == pickle.dumps(rpd_mesh.reports)
    assert pickle.dumps(mesh.frames) == pickle.dumps(rpd_mesh.frames)
    assert pickle.dumps(embeddedness_diagnostics(mesh)) == pickle.dumps(ref)


def test_geometry_transients_stay_bounded(rpd, rpd_mesh):
    """The edge walk and the battery take BLOCK points or pairs at a time,
    and the tree walk and the hole walk index edges instead of copying
    their steps and rows, so a layer at grid_res 128 (16k nodes) and the
    battery on the rPD mesh (165k to 197k candidate pairs per slab) stay
    within a few MiB of their outputs.  The battery holds one layer's
    graph check at a time and the slab's boxes, not its triangles,
    through the sweep: 2.5 MiB (4.5 with the triangles).  It runs once
    before it is traced, as numpy imports numpy.ma at its first
    `np.unique`."""
    st, series = rpd
    assert oracles.traced_peak_mib(integrate_layer, 0, st, series, grid_res=128) < 9
    embeddedness_diagnostics(rpd_mesh)
    assert oracles.traced_peak_mib(embeddedness_diagnostics, rpd_mesh) < 3


def test_mesh_pass_memory_stays_bounded(rpd, rpd_mesh):
    """`build_mesh` writes each patch's and each neck sheet's positions and
    faces straight into the mesh arrays, so one mesh pass with its battery
    on the rPD state at t = 0.01 peaks at about 4.2 MiB above entry (6.2
    when the assembly concatenated complex copies of every triple and a
    list of face blocks), after a battery run that imports numpy.ma."""
    st, series = rpd
    embeddedness_diagnostics(rpd_mesh)
    assert oracles.traced_peak_mib(
        lambda: embeddedness_diagnostics(build_mesh(st, series))) < 4.5


def test_strip_sweep_matches_one_axis_sweep_on_rpd_slabs(rpd_mesh):
    """On every slab of the rPD mesh the strip sweep finds each candidate
    pair of the one-axis sweep exactly once, and no other."""
    kk = rpd_mesh.face_k
    layer = rpd_mesh.face_part == immersion.LAYER
    minus = rpd_mesh.face_part == immersion.NECK_MINUS
    for k in np.unique(kk[layer]).tolist():
        faces = rpd_mesh.faces[((kk == k) & ~minus) | ((kk == k - 1) & minus)]
        tris = rpd_mesh.raw[faces]
        lo, hi = tris.min(axis=1), tris.max(axis=1)
        a, b = _sweep_pairs(lo, hi, faces)
        ra, rb = oracles.sweep_pairs_one_axis(lo, hi, faces)
        got = set(zip(a.tolist(), b.tolist()))
        assert len(got) == len(a) == len(ra) > 1000
        assert got == set(zip(ra.tolist(), rb.tolist()))


def test_mesh_and_battery_import_no_sparse_graphs():
    """The mesh walks and the battery run on numpy alone."""
    code = (
        "import sys\n"
        "from stackedmin import configs, immersion\n"
        "from stackedmin.solver import newton_continuation\n"
        "rep = newton_continuation(configs.catalog('rPD'), 0.01)\n"
        "mesh = immersion.build_mesh(rep.state, rep.series)\n"
        "assert immersion.embeddedness_diagnostics(mesh)['pass']\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
    src = Path(immersion.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_loop_residual_error_names_an_unbalanced_state(rpd):
    """On the unbalanced state the loop residual does not fall on the
    doubled grid, so the error blames the state and not the grid."""
    st, _ = rpd
    bad = copy.deepcopy(st)
    bad.tori[0] = dataclasses.replace(bad.tori[0], bhat=bad.tori[0].bhat + 0.02)
    bad.refresh()
    with pytest.raises(LoopResidualError) as info:
        integrate_layer(0, bad, fix_omega(bad))
    err = info.value
    assert err.residual > 1e-2 and err.finer > err.residual / immersion.LOOP_GAIN
    msg = str(err)
    assert "finer grid" not in msg
    for part in ("k=0", f"grid_res={immersion.GRID_RES}", f"{err.residual:.2e}",
                 f"{err.finer:.2e}", f"grid_res={2 * immersion.GRID_RES}",
                 "periods of layer k=0 do not close", "not balanced"):
        assert part in msg


def test_unbalanced_state_is_rejected(rpd):
    st, series = rpd
    bad = copy.deepcopy(st)
    bad.tori[0] = dataclasses.replace(bad.tori[0], bhat=bad.tori[0].bhat + 0.02)
    bad.refresh()
    bad_series = fix_omega(bad)
    nl = laurent_coeffs(bad, bad_series, 0, LAURENT_ORDER)
    assert abs(nl.c_plus[0] + np.conj(nl.c_minus[0])) > 1e-4
    with pytest.raises(LoopResidualError):
        build_mesh(bad, bad_series)


# ---------------------------------------------------------------------------
# window mode


@pytest.fixture(scope="module")
def twin():
    rep = newton_continuation(catalog("twin-rPD"), 0.01)
    assert rep.converged
    mesh = build_mesh(rep.state, rep.series, k_range=range(-2, 3))
    return rep.state, mesh


def test_window_range_keeps_buffer(twin):
    st, _ = twin
    ks = _default_range(st)
    assert ks[0] == st.k_lo + 3
    assert ks[-1] == st.k_lo + len(st.tori) - 1 - 3


def test_window_range_skips_every_clamped_layer():
    """A left tail of period 6 clamps 6 layers at each end of the window;
    the default mesh range stays inside the actively solved layers."""
    tau = catalog("rPD").tau
    q = (1 + tau) / 3
    cfg = Configuration(tau=tau, window=(q,) * 17, left_tail=(q, -q, q),
                        right_tail=(-q,))
    st = GluingState.central(cfg, 0.0, epsilon=0.05)
    assert st.n_buffer == 6
    active = [k for k in st.logical_range() if abs(k) <= st.k_hi - st.n_buffer]
    assert (active[0], active[-1]) == (-9, 9)
    ks = _default_range(st)
    assert active[0] <= ks[0] and ks[-1] <= active[-1]


def test_window_mesh_coheres(twin):
    _, mesh = twin
    r = mesh.reports
    assert max(r["loop_defect"].values()) < 1e-8
    assert max(r["weld_defect"].values()) < 1e-10
    assert max(r["drift"].values()) < 1e-9
    assert r["heights_increasing"]


# ---------------------------------------------------------------------------
# outputs


def test_summary_is_json_ready(rpd_mesh):
    summary = mesh_summary(rpd_mesh)
    text = json.dumps(summary)
    back = json.loads(text)
    assert back["settings"]["k_range"] == summary["settings"]["k_range"]
    assert len(back["frames"]) == len(rpd_mesh.frames)
