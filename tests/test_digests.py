"""Bit-for-bit digests of the three benchmark workloads' outputs.

The `defect-decay` gate pins the last bits of every solver output (the
decay rate 1.5001728591278727), so a change to the evaluator either
keeps every bit or records new digests here and says why.  Each digest
is the SHA-256 of the workload's outputs as float64, complex128 and
int64 bytes, in a fixed order.  The solved parameters (every stored
block and each step's residual history, with d_k, w_k and the rate of
the pair), the lambda rows and the rPD mesh are hashed apart, so a
change that moves lambda in its last bits alone re-records only its
lambda digests.
"""

import hashlib

import numpy as np
import pytest

from stackedmin.asymptotics import decay_fit, pair_solve, upper_reference
from stackedmin.configs import catalog
from stackedmin.immersion import build_mesh
from stackedmin.solver import newton_continuation


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


@pytest.fixture(scope="module")
def opa():
    return newton_continuation(catalog("oPa"), 0.08)


@pytest.fixture(scope="module")
def pair():
    twin = catalog("twin-rPD")
    reference, defect = pair_solve(upper_reference(twin), twin, 0.01, K=8)
    return reference, defect, decay_fit(reference, defect)


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


def test_mesh_rpd_digest(rpd):
    assert _digest(*_params(rpd)) == (
        "2a8b045fdfc31525414b47680da480630d4451a0d4f1b9ff5fb3d4254299d518")


def test_mesh_rpd_lambda_digest(rpd):
    assert _digest(rpd.series.lam) == (
        "3a3d244e4377418acce08480cf6e0cd7dc885b570e5ea01c3227b84907c699e8")


def test_mesh_rpd_mesh_digest(rpd):
    mesh = build_mesh(rpd.state, rpd.series)
    assert _digest(mesh.raw, mesh.faces) == (
        "bc5254a515920bb14f28a69a6133865bc2792894ab22983dd05f5d7d06927f22")
