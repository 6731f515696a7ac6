"""Self-test of the benchmark: tracer, restore, gates, the host-speed
sampler and the metric list.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stackedmin import configs, elliptic, opening, solver  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ORIGINALS = [
    (elliptic, "zeta"), (opening, "zeta"), (solver, "fix_omega"),
    (opening, "fix_omega"), (workloads.solver, "newton_continuation"),
]


def _bindings():
    return ([getattr(owner, name) for owner, name in ORIGINALS]
            + [vars(opening.GluingState)["refresh"],
               vars(opening.GluingState)["central"]])


def test_traced_tiny_input_self_times_fit_in_wall():
    before = _bindings()
    probe = layers.Probe()
    tracer = Tracer(probe.amount_for).install()
    try:
        # names imported with "from .elliptic import zeta" are wrapped too
        assert getattr(opening.zeta, "__traced__", False)
        t0 = time.perf_counter()
        st = opening.GluingState.central(configs.catalog("rPD"), 0.0)
        series = opening.fix_omega(st)
        solver.full_residual(st, series)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    spans = tracer.spans()
    assert len(spans["dur"]) > 0
    assert spans["self"].min() > -1e-9
    m = layers.layer_metrics(tracer, probe, {}, {}, wall, 0.0)
    layer_self = sum(m[f"{name}.self_s"] for name in LAYERS)
    assert 0.0 < layer_self <= wall
    assert m["elliptic.calls"] > 0 and m["elliptic.points"] > 0
    assert m["opening.refresh.calls"] == 1
    assert m["opening.refresh.tori"] == st.n_tori
    assert m["opening.fix_omega.calls"] == 1
    assert m["opening.fix_omega.dim_max"] == series.lam.size
    # wp_eval inside wp_derivs is not counted a second time
    per_fn = sum(m[f"elliptic.{fn}.points"] for fn in layers.ELLIPTIC_FNS)
    assert per_fn <= m["elliptic.points"]
    assert _bindings() == before
    assert Tracer.leftovers() == []


def test_restore_after_an_error_inside_the_traced_region():
    before = _bindings()
    tracer = Tracer().install()
    with pytest.raises(elliptic.PoleError):
        try:
            elliptic.zeta(0.0, elliptic.lattice_for(1j))
        finally:
            tracer.restore()
    assert _bindings() == before
    assert Tracer.leftovers() == []
    assert tracer.stack == []


class _SmallSolve(workloads.PeriodicOPa):
    """One continuation step of rPD, cheap enough for a unit test."""

    name = "small"
    t_target = 0.005

    def setup(self):
        return {"cfg": configs.catalog("rPD")}


def test_failed_gate_counts_in_ops_failed():
    wl = _SmallSolve()
    inputs = wl.setup()
    ops = workloads.Ops()
    workloads.run_pass(wl, inputs, workloads.Gates(), ops)
    assert (ops.attempted, ops.failed) == (1, 0)
    ops = workloads.Ops()
    workloads.run_pass(wl, inputs, workloads.Gates(newton_tol=1e-30), ops)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "residual" in ops.failures[0]


class _FailsMidway(_SmallSolve):
    FINISH_OPS = 2

    def finish(self, inputs, rep, gates, ops, stages, facts):
        raise solver.StepFailure("planted failure")


def test_library_error_fails_every_pending_op():
    wl = _FailsMidway()
    ops = workloads.Ops()
    workloads.run_pass(wl, wl.setup(), workloads.Gates(), ops)
    assert (ops.attempted, ops.failed) == (3, 2)
    assert "StepFailure: planted failure" in ops.failures[0]


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == layers.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_speed_sampler_leaves_probe_time_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler(period_s=0.02) as sampler:
        c0, n0 = sampler.clock(), len(sampler.samples)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        raw, probes = sampler.interval(c0, n0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probes) >= 3
    # the clock stood still while the handler ran the probe
    assert raw <= 0.3 + 0.01 and sampler.spent >= sum(probes)
    assert hostspeed.normalized(2.0, [hostspeed.REF_PROBE_S * 2]) == 1.0
    with pytest.raises(ValueError):
        hostspeed.normalized(1.0, [])
