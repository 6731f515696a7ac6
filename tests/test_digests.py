"""Bit-for-bit digests of the three benchmark workloads' outputs.

The `defect-decay` gate pins the last bits of every solver output (the
decay rate 1.5001728591278727), so a change to the evaluator either
keeps every bit or records new digests here and says why.  Each digest
is the SHA-256 of the workload's outputs as float64, complex128 and
int64 bytes, in a fixed order.
"""

import hashlib

import numpy as np

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


def _solve_parts(rep) -> list:
    """Every stored block, the lambda rows and each step's residual history."""
    return ([np.array([T.block() for T in rep.state.tori]), rep.series.lam]
            + [np.array(step.residuals) for step in rep.steps])


def test_periodic_opa_digest():
    rep = newton_continuation(catalog("oPa"), 0.08)
    assert [s.iterations for s in rep.steps] == [2, 3, 4, 5, 7]
    assert _digest(*_solve_parts(rep)) == (
        "5320626e9f7cf7e8cae52863b84004efcd42eeecbf81025031a42fe354ed8f4f")


def test_defect_decay_digest():
    twin = catalog("twin-rPD")
    reference, defect = pair_solve(upper_reference(twin), twin, 0.01, K=8)
    fit = decay_fit(reference, defect)
    assert list(fit.fit_ks) == [1, 2] and fit.rate == 1.5001728591278727
    assert _digest(*_solve_parts(reference), *_solve_parts(defect),
                   fit.d, fit.w, [fit.rate]) == (
        "46f13efc378b0485c8abbb1755ebc10e78b01ce74e09d86c4e84250e626190df")


def test_mesh_rpd_digest():
    rep = newton_continuation(catalog("rPD"), 0.01)
    mesh = build_mesh(rep.state, rep.series)
    assert _digest(*_solve_parts(rep), mesh.raw, mesh.faces) == (
        "926c65825b86bfc2738bdb2f51cbc4863072fa8340ad88588c42f20ee7f42b37")
