"""Bit-for-bit digests of the three benchmark workloads' outputs.

The `defect-decay` gate pins the last bits of every solver output (the
decay rate 1.5001728591278727), so a change to the evaluator either
keeps every bit or records new digests here and says why.  Each digest
is the SHA-256 of the workload's outputs as float64, complex128 and
int64 bytes, in a fixed order.  The solved parameters (every stored
block and each step's residual history, with d_k, w_k and the rate of
the pair), the lambda rows and the rPD mesh are hashed apart, so a
change that moves lambda in its last bits alone re-records only its
lambda digests; the rPD mesh's reports and its battery's findings are
hashed apart from its vertices and faces.  The `oPa` and pair fixtures
also count the points of their theta passes and trace their memory
(`measured`).  The same fixtures are held to the goldens of
`tests/write_goldens.py`, at `NEWTON_TOL`, which can judge a change that
moves bits.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

import oracles
from stackedmin import elliptic
from stackedmin.asymptotics import decay_fit, pair_solve, upper_reference
from stackedmin.configs import catalog
from stackedmin.immersion import build_mesh, embeddedness_diagnostics
from stackedmin.solver import newton_continuation
from write_goldens import PATH, assert_held, record


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        x = np.asarray(x)
        dtype = {"f": np.float64, "c": np.complex128, "i": np.int64, "u": np.int64}[x.dtype.kind]
        h.update(np.ascontiguousarray(x, dtype=dtype).tobytes())
    return h.hexdigest()


def _params(rep) -> list:
    """Every stored block and each step's residual history."""
    return ([np.array([T.block() for T in rep.state.tori])]
            + [np.array(step.residuals) for step in rep.steps])


def _measure(fn, measured: dict, name: str):
    """fn(), recording under name the points and the number of its theta
    passes, the orders jmax that its `weierstrass_jet` calls ask for, and
    its traced peak in MiB above entry."""
    out, points, orders = [], [], set()
    theta_sums, jet = elliptic._theta_sums, elliptic.weierstrass_jet

    def counted(v, *args):
        points.append(np.size(v))
        return theta_sums(v, *args)

    def asked(z, lat, jmax):
        orders.add(jmax)
        return jet(z, lat, jmax)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "_theta_sums", counted)
        # every module of the package that bound the kernel's jet by name
        for module in [m for key, m in sys.modules.items() if key.startswith("stackedmin")]:
            if getattr(module, "weierstrass_jet", None) is jet:
                mp.setattr(module, "weierstrass_jet", asked)
        peak = oracles.traced_peak_mib(lambda: out.append(fn()))
    measured[name] = {"points": sum(points), "passes": len(points), "orders": orders,
                      "peak_mib": peak}
    return out[0]


@pytest.fixture(scope="module")
def measured():
    return {}


@pytest.fixture(scope="module")
def opa(measured):
    return _measure(lambda: newton_continuation(catalog("oPa"), 0.08), measured, "oPa")


@pytest.fixture(scope="module")
def pair(measured):
    def run():
        twin = catalog("twin-rPD")
        reference, defect = pair_solve(upper_reference(twin), twin, 0.01, K=8)
        return reference, defect, decay_fit(reference, defect)

    return _measure(run, measured, "pair")


@pytest.fixture(scope="module")
def rpd():
    return newton_continuation(catalog("rPD"), 0.01)


def test_periodic_opa_digest(opa):
    assert [s.iterations for s in opa.steps] == [2, 3, 4, 5, 7]
    assert _digest(*_params(opa)) == (
        "8292ae33e210545768c58c135b65b1643c9da3f4d95c364eb5aefea28e9905b3")


def test_periodic_opa_lambda_digest(opa):
    assert _digest(opa.series.lam) == (
        "72c0fd222beb8240f83c8c21acd278910b78dc43547d09be9ae5f2cc10c908b5")


def test_defect_decay_digest(pair):
    reference, defect, fit = pair
    assert list(fit.fit_ks) == [1, 2] and fit.rate == 1.5001728591278727
    assert _digest(*_params(reference), *_params(defect), fit.d, fit.w, [fit.rate]) == (
        "b9419f64cf96f3c75983d7c2badcc81222ef44b7d8a281133d8f46de304413a1")


def test_defect_decay_lambda_digest(pair):
    reference, defect, _ = pair
    assert _digest(reference.series.lam, defect.series.lam) == (
        "ee48dfac69330151b67bc555a7589d19a702cb7323f8f7dc6293047e631d1f1e")


def test_kernel_points_and_memory_stay_bounded(opa, pair, measured):
    """A Jacobian reads the jets that its state's refresh and residual
    evaluated at each layer's own (tau, v): `oPa` to 0.08 sends 678,530
    points through the theta pass (797,314 when every set was evaluated
    again) and the pair 1,198,087 (1,376,263).  Holding them only while a
    Newton step runs, as zeta(z) - zeta(z - v), wp and wp' at z and
    z - v, with up to JET_SETS = 5 (tau, v) to a jet call, keeps the pair
    with its fit at a traced peak of about 7.8 MiB (6.2 without the held
    jets)."""
    assert measured["oPa"]["points"] <= 690_000
    assert measured["pair"]["points"] <= 1_200_000
    assert measured["pair"]["peak_mib"] <= 9.0


def test_solves_take_fewer_theta_passes_of_low_order(opa, pair, measured):
    """A jet call takes the points of up to JET_SETS = 5 (tau, v) sets
    and asks the kernel for zeta, wp and wp' alone; the orders above wp'
    are built where a chunk of rows reads them.  So the pair takes 529
    theta passes and `oPa` to 0.08 takes 286 over the same points (785
    and 454 at three sets to a call), and no solve asks `weierstrass_jet`
    for an order above 1."""
    assert measured["pair"]["passes"] <= 529
    assert measured["oPa"]["passes"] <= 286
    assert max(measured["pair"]["orders"] | measured["oPa"]["orders"]) <= 1


def test_mesh_rpd_digest(rpd):
    assert _digest(*_params(rpd)) == (
        "2a8b045fdfc31525414b47680da480630d4451a0d4f1b9ff5fb3d4254299d518")


def test_mesh_rpd_lambda_digest(rpd):
    assert _digest(rpd.series.lam) == (
        "3a3d244e4377418acce08480cf6e0cd7dc885b570e5ea01c3227b84907c699e8")


@pytest.mark.parametrize("fixture, name", [("opa", "oPa"), ("pair", "pair"), ("rpd", "rPD")])
def test_solves_hold_their_goldens(fixture, name, request):
    """The solved blocks and iteration counts of the three workloads stay
    at the goldens of `tests/write_goldens.py`, which outlive the bits
    that the digests pin."""
    rep = request.getfixturevalue(fixture)
    if fixture == "pair":
        reference, defect, _ = rep
        got = {"reference": record(reference), "defect": record(defect)}
    else:
        got = record(rep)
    assert_held(got, json.loads(PATH.read_text())[name])


def _mesh_reports(mesh) -> list:
    """The mesh's loop, stitch, weld, wrap and drift defects and its
    fluxes, each with its layer or neck indices; the battery's pairs and
    min_n3 per slab; and the convex, simple, turning and height of each
    slice."""
    rep = mesh.reports
    out = []
    for key in ("loop_defect", "stitch_defect", "weld_defect", "wrap_continuity", "drift"):
        out += [np.array(list(rep[key]), dtype=np.int64), np.array(list(rep[key].values()))]
    out += [np.array(list(rep["flux"])), np.array(list(rep["flux"].values()))]
    diag = embeddedness_diagnostics(mesh)
    slabs = list(diag["intersections"])
    out += [np.array(slabs), np.array([diag["intersections"][k]["pairs"] for k in slabs]),
            np.array([diag["graph"][k]["min_n3"] for k in slabs])]
    slices = diag["slices"].values()
    out += [np.array([[s["convex"], s["simple"]] for s in slices], dtype=np.int64),
            np.array([[s["turning"], s["height"]] for s in slices])]
    return out


@pytest.fixture(scope="module")
def rpd_mesh(rpd):
    return build_mesh(rpd.state, rpd.series)


def test_mesh_rpd_mesh_digest(rpd_mesh):
    assert _digest(rpd_mesh.raw, rpd_mesh.faces) == (
        "bc5254a515920bb14f28a69a6133865bc2792894ab22983dd05f5d7d06927f22")


def test_mesh_rpd_reports_digest(rpd_mesh):
    assert _digest(*_mesh_reports(rpd_mesh)) == (
        "0c48ad4b0840950f5b19d7673cec76d77f7124200273b0b3154f9193de7a6513")
