"""Per-layer metrics of one traced pass, computed from the tracer's spans.

Counts are taken at the outermost frame: `elliptic.calls` and the point
counts skip elliptic calls made from inside another elliptic call (for
example `wp_eval` inside `wp_derivs`), and a function's call count skips
calls nested in the same function.  Self times partition the traced time
exactly, so the layer totals stay comparable when functions inside a
layer are fused or renamed; a listed function that no longer exists
reads as zero.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracer import LAYERS, OUTER_FN, OUTER_LAYER, Tracer

# elliptic evaluators reported one by one; the layer totals cover all
ELLIPTIC_FNS = ("zeta", "wp_eval", "wp_derivs", "xi_raw", "reduce_centered",
                "lattice_coords", "torus_distance")
# first parameter names that carry evaluation points
POINT_PARAMS = ("z", "w", "z1", "p")

REFRESH = "opening.GluingState.refresh"
FIX_OMEGA = "opening.fix_omega"
OMEGA = ("opening.omega_eval", "opening.omega_on_circle")
RESIDUALS = ("solver.full_residual", "solver.residual_E", "solver.residual_P",
             "solver.residual_Gbal")
# one block residual evaluation of one layer calls residual_E exactly once
RESIDUAL_BLOCK = "solver.residual_E"
CONTINUATION = "solver.newton_continuation"
EMBED = "immersion.embeddedness_diagnostics"

METRICS = (
    ["elliptic.calls", "elliptic.points", "elliptic.self_s", "elliptic.points_per_s"]
    + [f"elliptic.{fn}.points" for fn in ELLIPTIC_FNS]
    + ["opening.refresh.calls", "opening.refresh.tori", "opening.refresh.self_s",
       "opening.fix_omega.calls", "opening.fix_omega.iters",
       "opening.fix_omega.dim_max", "opening.fix_omega.contraction_max",
       "opening.fix_omega.self_s", "opening.omega.calls", "opening.omega.self_s",
       "opening.self_s",
       "solver.steps", "solver.newton_iters", "solver.max_iters_per_step",
       "solver.linesearch_trials", "solver.accept_ratio",
       "solver.refresh_per_iter", "solver.residual.calls",
       "solver.residual.self_s", "solver.self_s", "solver.final_residual",
       "hecke.calls", "hecke.self_s",
       "immersion.integrate_layer.self_s", "immersion.integrate_neck.self_s",
       "immersion.build_mesh.self_s", "immersion.embed.self_s",
       "immersion.faces", "immersion.embed.faces_per_s",
       "immersion.intersecting_pairs", "immersion.embed.elliptic_points",
       "immersion.self_s",
       "asymptotics.decay_fit.self_s", "asymptotics.rate",
       "asymptotics.r_squared", "asymptotics.self_s",
       "wall_s", "solve_s", "mesh_s", "embed_s", "trace.overhead_s"]
)



def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "asymptotics.rate":
        return "1/layer"
    if name.endswith(("_ratio", "_per_iter", "final_residual", "contraction_max",
                      "r_squared")):
        return "1"
    return "count"


UNITS = {name: _unit(name) for name in METRICS}


class Probe:
    """Amount hooks for the tracer, and the values they capture."""

    def __init__(self):
        self.reports = []  # SolveReports returned by newton_continuation
        self.fix = []  # (system dimension, contraction estimate) per fix_omega

    def amount_for(self, name, fn):
        layer = name.split(".", 1)[0]
        if layer == "elliptic":
            params = list(inspect.signature(fn).parameters)
            for i, p in enumerate(params):
                if p in POINT_PARAMS:
                    return lambda a, kw, r, i=i, p=p: float(
                        np.size(a[i] if len(a) > i else kw[p]))
            return None
        if name == REFRESH:
            return lambda a, kw, r: float(
                1 if (a[1] if len(a) > 1 else kw.get("only")) is not None
                else len(a[0].tori))
        if name == FIX_OMEGA:
            return self._fix_omega
        if name == CONTINUATION:
            return self._continuation
        if name == EMBED:
            return lambda a, kw, r: float(len((a[0] if a else kw["mesh"]).faces))
        return None

    def _fix_omega(self, args, kwargs, series):
        self.fix.append((series.lam.size, series.contraction_estimate))
        return float(len(series.update_norms))

    def _continuation(self, args, kwargs, report):
        self.reports.append(report)
        return 0.0

    def steps(self):
        """Every continuation step run, main and tail; a tail state shared
        by both sides of one window is counted once."""
        out = []
        for rep in self.reports:
            out.extend(rep.steps)
            tails = rep.tail_reports or {}
            seen = []
            for tail in tails.values():
                if any(tail.state is s for s in seen):
                    continue
                seen.append(tail.state)
                out.extend(tail.steps)
        return out


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def layer_metrics(tracer: Tracer, probe: Probe, facts: dict, stages: dict,
                  wall_s: float, overhead_s: float) -> dict:
    """Every name in METRICS for one traced pass; zero where a layer or
    function is not exercised by the workload."""
    sp = tracer.spans()
    fn, parent, self_t, amount = sp["fn"], sp["parent"], sp["self"], sp["amount"]
    lid = np.asarray(tracer.layer_of, dtype=int)[fn] if len(fn) else fn
    outer_layer = (sp["flags"] & OUTER_LAYER) != 0
    outer_fn = (sp["flags"] & OUTER_FN) != 0
    parent_lid = np.where(parent >= 0, lid[np.maximum(parent, 0)], -1)

    def of(*names):
        return np.isin(fn, tracer.fn_ids(*names))

    def layer(name):
        return lid == LAYERS.index(name)

    m = {}
    ell = layer("elliptic") & outer_layer
    m["elliptic.calls"] = int(np.sum(ell))
    m["elliptic.points"] = float(np.sum(amount[ell]))
    m["elliptic.self_s"] = float(np.sum(self_t[layer("elliptic")]))
    m["elliptic.points_per_s"] = _ratio(m["elliptic.points"], m["elliptic.self_s"])
    for name in ELLIPTIC_FNS:
        m[f"elliptic.{name}.points"] = float(np.sum(amount[of(f"elliptic.{name}") & ell]))

    refresh = of(REFRESH)
    m["opening.refresh.calls"] = int(np.sum(refresh & outer_fn))
    m["opening.refresh.tori"] = float(np.sum(amount[refresh & outer_fn]))
    m["opening.refresh.self_s"] = float(np.sum(self_t[refresh]))
    fix = of(FIX_OMEGA)
    m["opening.fix_omega.calls"] = int(np.sum(fix))
    m["opening.fix_omega.iters"] = float(np.sum(amount[fix]))
    m["opening.fix_omega.dim_max"] = max((d for d, _ in probe.fix), default=0)
    m["opening.fix_omega.contraction_max"] = max((c for _, c in probe.fix), default=0.0)
    m["opening.fix_omega.self_s"] = float(np.sum(self_t[fix]))
    omega = of(*OMEGA)
    m["opening.omega.calls"] = int(np.sum(omega & outer_fn))
    m["opening.omega.self_s"] = float(np.sum(self_t[omega]))
    m["opening.self_s"] = float(np.sum(self_t[layer("opening")]))

    steps = probe.steps()
    iters = sum(s.iterations for s in steps)
    from_solver = parent_lid == LAYERS.index("solver")
    # each solve calls fix_omega once on its start state, each step once
    # before its first iteration, and once more per line-search trial
    trials = int(np.sum(fix & from_solver)) - len(steps) - len(probe.reports)
    m["solver.steps"] = len(steps)
    m["solver.newton_iters"] = iters
    m["solver.max_iters_per_step"] = max((s.iterations for s in steps), default=0)
    m["solver.linesearch_trials"] = max(trials, 0)
    m["solver.accept_ratio"] = _ratio(iters, trials)
    m["solver.refresh_per_iter"] = _ratio(np.sum(refresh & from_solver), iters)
    m["solver.residual.calls"] = int(np.sum(of(RESIDUAL_BLOCK)))
    m["solver.residual.self_s"] = float(np.sum(self_t[of(*RESIDUALS)]))
    m["solver.self_s"] = float(np.sum(self_t[layer("solver")]))
    m["solver.final_residual"] = max((s.residuals[-1] for s in steps), default=0.0)

    m["hecke.calls"] = int(np.sum(layer("hecke") & outer_layer))
    m["hecke.self_s"] = float(np.sum(self_t[layer("hecke")]))

    for name in ("integrate_layer", "integrate_neck", "build_mesh"):
        m[f"immersion.{name}.self_s"] = float(np.sum(self_t[of(f"immersion.{name}")]))
    embed = of(EMBED)
    m["immersion.embed.self_s"] = float(np.sum(self_t[embed]))
    m["immersion.faces"] = float(np.sum(amount[embed & outer_fn]))
    m["immersion.embed.faces_per_s"] = _ratio(m["immersion.faces"],
                                              m["immersion.embed.self_s"])
    m["immersion.intersecting_pairs"] = facts.get("intersecting_pairs", 0)
    # spans run on one thread, so a descendant lies inside its ancestor's interval
    t0 = np.frombuffer(tracer.t0, dtype=float)
    t1 = np.frombuffer(tracer.t1, dtype=float)
    inside = np.zeros(len(fn), dtype=bool)
    for i in np.nonzero(embed)[0]:
        inside |= (t0 >= t0[i]) & (t1 <= t1[i])
    m["immersion.embed.elliptic_points"] = float(np.sum(amount[ell & inside]))
    m["immersion.self_s"] = float(np.sum(self_t[layer("immersion")]))

    m["asymptotics.decay_fit.self_s"] = float(np.sum(self_t[of("asymptotics.decay_fit")]))
    m["asymptotics.rate"] = facts.get("rate", 0.0)
    m["asymptotics.r_squared"] = facts.get("r_squared", 0.0)
    m["asymptotics.self_s"] = float(np.sum(self_t[layer("asymptotics")]))

    m["wall_s"] = wall_s
    m["solve_s"] = stages.get("solve_s", 0.0)
    m["mesh_s"] = stages.get("mesh_s", 0.0)
    m["embed_s"] = stages.get("embed_s", 0.0)
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name in METRICS}
