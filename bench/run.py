"""Benchmark of the stackedmin pipeline: end-to-end stage times from
untraced passes, per-layer metrics from a separate traced pass.

    python3 bench/run.py --workload periodic-oPa --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
./src.  With --trace 0 it repeats untraced passes of the workload for
about --seconds seconds under the host-speed sampler (hostspeed.py)
and reports the medians of the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass and reports the per-layer
metrics.  The last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}; the line before it is the run record
(provenance, every pass, every failed op).  The workload inputs are
fixed catalog configurations: the seed is recorded but changes nothing.  See bench/METRICS.md for every name.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

E2E_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git
    directly so nothing outside the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _setup_samples(workload: str) -> list:
    """(set-up seconds, mean probe seconds) of fresh-interpreter set-ups."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, probe_s = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(setup_s), float(probe_s)))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _load():
    """Import the package from ./src of this checkout and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "stackedmin", "__init__.py")):
        raise SystemExit(f"error: no stackedmin sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import stackedmin
    import workloads

    where = os.path.realpath(os.path.dirname(stackedmin.__file__))
    if where != os.path.realpath(os.path.join(SRC, "stackedmin")):
        raise SystemExit(f"error: stackedmin imported from {where}, not {SRC}")
    return workloads


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _load()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup()
    gates = workloads.Gates()
    ops = workloads.Ops()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": _provenance(), "passes": []}

    def run_untraced():
        res = workloads.run_pass(wl, inputs, gates, ops)
        record["passes"].append({"traced": False, "wall_s": res.wall_s,
                                 "stages": res.stages})
        return res

    if args.trace == 0:
        import hostspeed

        setup = _setup_samples(wl.name)
        record["setup_samples"] = setup
        norm = []
        with hostspeed.SpeedSampler() as sampler:
            start = sampler.clock()
            # start another pass only while it should end within the
            # measuring time; at least one pass runs
            while True:
                c0, n0 = sampler.clock(), len(sampler.samples)
                run_untraced()
                raw, probes = sampler.interval(c0, n0)
                norm.append(hostspeed.normalized(raw, probes))
                record["passes"][-1].update(
                    raw_s=raw, probes=len(probes),
                    probe_mean_s=statistics.fmean(probes), wall_norm_s=norm[-1])
                if sampler.clock() - start + raw > args.seconds:
                    break
        values = {
            "wall_norm_s": statistics.median(norm),
            "setup_s": statistics.median(
                hostspeed.normalized(raw, [probe]) for raw, probe in setup),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = E2E_UNITS
    else:
        import layers
        from tracer import Tracer

        plain = run_untraced()
        probe = layers.Probe()
        tracer = Tracer(probe.amount_for).install()
        try:
            traced = workloads.run_pass(wl, inputs, gates, ops)
        finally:
            tracer.restore()
        record["passes"].append({"traced": True, "wall_s": traced.wall_s,
                                 "stages": traced.stages,
                                 "spans": len(tracer.t0)})
        values = layers.layer_metrics(tracer, probe, traced.facts, plain.stages,
                                      plain.wall_s, traced.wall_s - plain.wall_s)
        units = layers.UNITS
    record["failures"] = ops.failures
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
