"""The benchmark's workloads: fixed catalog inputs, timed stages, and the
correctness gates each run must pass.

Every workload drives the public API of `stackedmin` through module
attributes, so a tracer that rebinds names sees every call.  A pass runs
the workload once; it returns its stage times and the facts the per-layer
metrics need, and records one op per continuation step (main or tail),
mesh, battery or fit in an `Ops` tally.  An op fails on a typed library
error or when a gate is missed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from stackedmin import asymptotics, configs, elliptic, immersion, opening, solver

# typed errors of the library; anything else is a fault of the benchmark
LIBRARY_ERRORS = (
    elliptic.PoleError,
    opening.ChartError,
    opening.NonContractionError,
    solver.ContourError,
    solver.StepFailure,
    immersion.LoopResidualError,
    immersion.CoefficientDecayError,
    asymptotics.DegenerateFitError,
)


@dataclass(frozen=True)
class Gates:
    """Tolerances the test suite already applies to the same outputs."""

    newton_tol: float = solver.NEWTON_TOL  # every step, main and tail
    loop: float = 1e-8  # test_mesh_defects_at_solver_noise
    stitch: float = 1e-9
    weld: float = 1e-10
    wrap: float = 1e-12
    drift: float = 1e-9
    graph_floor: float = 0.5  # test_embeddedness_battery
    fit_ks: tuple = (1, 2)  # test_twin_fit_keeps_only_resolvable_layers
    rate_lo: float = 1.0
    rate_hi: float = 2.0
    r_squared: float = 0.95


@dataclass
class Ops:
    """Tally of attempted and failed ops with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class PassResult:
    wall_s: float
    stages: dict
    facts: dict


def _check_steps(ops: Ops, steps, gates: Gates, label: str):
    for s in steps:
        r = s.residuals[-1]
        ops.check(f"{label} step t={s.t:g}", s.converged and r < gates.newton_tol,
                  f"residual {r:.3e} after {s.iterations} iterations")


def _timed(stages: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    stages[key] = stages.get(key, 0.0) + time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# A pass runs solve() and then finish(); solve_ops() and FINISH_OPS give
# the ops each part records, so an error can fail the ones left.


class PeriodicOPa:
    """Deepest cyclic continuation in the catalog."""

    name = "periodic-oPa"
    t_target = 0.08
    FINISH_OPS = 0

    def setup(self):
        return {"cfg": configs.catalog("oPa")}

    def solve_ops(self, inputs) -> int:
        return len(solver.auto_schedule(self.t_target))

    def solve(self, inputs, gates, ops, stages, facts):
        rep = _timed(stages, "solve_s", solver.newton_continuation,
                     inputs["cfg"], self.t_target)
        facts["reports"] = [rep]
        _check_steps(ops, rep.steps, gates, self.name)
        return rep

    def finish(self, inputs, rep, gates, ops, stages, facts):
        pass


class DefectDecay:
    """Paired window solves of twin-rPD and its periodic reference, then
    the decay fit."""

    name = "defect-decay"
    t_target = 0.01
    K = 8
    FINISH_OPS = 1

    def setup(self):
        twin = configs.catalog("twin-rPD")
        return {"defect": twin, "reference": asymptotics.upper_reference(twin)}

    def solve_ops(self, inputs) -> int:
        # each window solve runs the schedule on the window and on every
        # distinct tail
        per_t = sum(2 if c.left_tail != c.right_tail else 1
                    for c in (inputs["reference"], inputs["defect"])) + 2
        return per_t * len(solver.auto_schedule(self.t_target))

    def solve(self, inputs, gates, ops, stages, facts):
        events = []
        pair = _timed(stages, "solve_s", asymptotics.pair_solve,
                      inputs["reference"], inputs["defect"], self.t_target,
                      K=self.K, callback=events.append)
        # main steps report through the callback; a step starts at
        # iteration 1 and its last event carries its final residual
        finals = [e for i, e in enumerate(events)
                  if i + 1 == len(events) or events[i + 1]["iteration"] == 1]
        for e in finals:
            ops.check(f"window step t={e['t']:g}", e["residual"] < gates.newton_tol,
                      f"residual {e['residual']:.3e}")
        # tail steps (and steps that needed no iteration) have no callback;
        # pair_solve returns only if each of them ended below the solver's
        # own tolerance, which is the gate's
        for _ in range(self.solve_ops(inputs) - len(finals)):
            ops.check("tail step", solver.NEWTON_TOL <= gates.newton_tol,
                      "solver tolerance looser than the gate")
        return pair

    def finish(self, inputs, pair, gates, ops, stages, facts):
        rep = _timed(stages, "fit_s", asymptotics.decay_fit, *pair)
        facts["rate"], facts["r_squared"] = rep.rate, rep.r_squared
        ok = (list(rep.fit_ks) == list(gates.fit_ks)
              and gates.rate_lo < rep.rate < gates.rate_hi
              and rep.r_squared > gates.r_squared)
        ops.check("decay fit", ok, f"fit_ks={rep.fit_ks} rate={rep.rate:.4f} "
                  f"r_squared={rep.r_squared:.4f}")


class MeshRPD(PeriodicOPa):
    """Geometry layer: mesh certificates and the embeddedness battery."""

    name = "mesh-rPD"
    t_target = 0.01
    FINISH_OPS = 2

    def setup(self):
        return {"cfg": configs.catalog("rPD")}

    def finish(self, inputs, rep, gates, ops, stages, facts):
        mesh = _timed(stages, "mesh_s", immersion.build_mesh, rep.state, rep.series)
        r = mesh.reports
        worst = {key: max(r[key].values()) for key in
                 ("loop_defect", "stitch_defect", "weld_defect",
                  "wrap_continuity", "drift")}
        ok = (worst["loop_defect"] < gates.loop
              and worst["stitch_defect"] < gates.stitch
              and worst["weld_defect"] < gates.weld
              and worst["wrap_continuity"] < gates.wrap
              and worst["drift"] < gates.drift
              and r["heights_increasing"])
        ops.check("mesh certificates", ok,
                  f"{worst} heights_increasing={r['heights_increasing']}")
        emb = _timed(stages, "embed_s", immersion.embeddedness_diagnostics, mesh)
        pairs = sum(v["pairs"] for v in emb["intersections"].values())
        facts["intersecting_pairs"] = pairs
        ok = (emb["pass"] and pairs == 0
              and all(v["min_n3"] > gates.graph_floor for v in emb["graph"].values())
              and all(v["convex"] and v["simple"] for v in emb["slices"].values()))
        ops.check("embeddedness battery", ok, f"pass={emb['pass']} pairs={pairs}")


WORKLOADS = {w.name: w for w in (PeriodicOPa(), DefectDecay(), MeshRPD())}


def run_pass(workload, inputs, gates: Gates, ops: Ops) -> PassResult:
    """Run the workload once; a typed library error fails every op the
    pass had not yet recorded."""
    stages, facts = {}, {}
    before = ops.attempted
    t0 = time.perf_counter()
    try:
        result = workload.solve(inputs, gates, ops, stages, facts)
        workload.finish(inputs, result, gates, ops, stages, facts)
    except LIBRARY_ERRORS as exc:
        planned = workload.solve_ops(inputs) + workload.FINISH_OPS
        for _ in range(planned - (ops.attempted - before)):
            ops.check(workload.name, False, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    return PassResult(wall_s=wall, stages=stages, facts=facts)
