"""The benchmark's own checks, each in a fresh interpreter started at the
repo root.

bench/test_bench.py reads names of the package that no other test pins
(GluingState.refresh and .central, opening.zeta and .fix_omega,
solver.full_residual and newton_continuation), so a change that drops
one fails here too.  The bench tests run in their own process because
the tracer's restore check fails after this suite has run in the same
interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def test_bench_self_tests_pass():
    proc = _run("-m", "pytest", "-q", "bench/test_bench.py")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_bench_mesh_workload_is_correct():
    proc = _run("bench/run.py", "--workload", "mesh-rPD", "--seed", "1",
                "--seconds", "0.001", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0, record


def test_bench_periodic_workload_is_correct():
    """One traced periodic-oPa pass, so the gates of every workload run."""
    proc = _run("bench/run.py", "--workload", "periodic-oPa", "--seed", "1",
                "--seconds", "0.001", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0, record


def test_bench_defect_workload_is_correct():
    """One traced defect-decay pass: the workload reads the pair's
    callback stream and hands the pair's return value to decay_fit."""
    proc = _run("bench/run.py", "--workload", "defect-decay", "--seed", "1",
                "--seconds", "0.001", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0, record
