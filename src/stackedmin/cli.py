"""Command line entry point.

    stackedmin solve NAME --t T
    stackedmin mesh NAME --t T

Both continue the catalog configuration NAME by Newton continuation to
the neck size T and print one JSON run record.  `solve` records the
configuration, every Newton step (main and tails), the contraction
estimate of the final glued form and the `nondegeneracy_check` of the
stack, for information: a degenerate stack still solves.  `mesh` (T > 0)
builds the surface mesh of the solved state and records its `mesh_summary`
with the embeddedness battery: intersecting face pairs per layer slab,
the graph bound min_n3 per layer and the pass flag of each neck slice.
Neither record holds timings, so the same command prints the same record.
A typed failure of the library ends the run with one line on stderr,
`stackedmin: error: <Type>: <message>`, and exit code 1; usage errors
exit with 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .configs import UnknownConfigError, catalog, config_to_dict, nondegeneracy_check
from .elliptic import PoleError
from .immersion import (CoefficientDecayError, LoopResidualError, MeshTopologyError,
                        build_mesh, embeddedness_diagnostics, mesh_summary)
from .opening import ChartError, NonContractionError
from .solver import (ContourError, ScheduleError, StepFailure, auto_schedule,
                     newton_continuation)

LIBRARY_ERRORS = (PoleError, ChartError, NonContractionError, ContourError, StepFailure,
                  LoopResidualError, CoefficientDecayError, MeshTopologyError)


def _steps(report) -> list[dict]:
    return [{"t": s.t, "iterations": s.iterations,
             "residuals": list(s.residuals), "converged": s.converged,
             "worst_k": s.worst_k}
            for s in report.steps]


def _battery(mesh) -> dict:
    emb = embeddedness_diagnostics(mesh)
    return {
        "pass": emb["pass"],
        "pairs": {str(k): v["pairs"] for k, v in emb["intersections"].items()},
        "min_n3": {str(k): v["min_n3"] for k, v in emb["graph"].items()},
        "slices": {key: v["pass"] for key, v in emb["slices"].items()},
    }


def _record(args, cfg, report) -> dict:
    record = {"command": args.command, "name": args.name, "config": config_to_dict(cfg),
              "t": args.t}
    if args.command == "mesh":
        mesh = build_mesh(report.state, report.series)
        record["mesh"] = mesh_summary(mesh)
        record["embeddedness"] = _battery(mesh)
    else:
        min_sv, nondegenerate = nondegeneracy_check(cfg)
        record.update(schedule=auto_schedule(args.t), steps=_steps(report),
                      converged=report.converged, final_residual=report.final_residual,
                      contraction_estimate=report.series.contraction_estimate,
                      nondegeneracy={"min_singular_value": min_sv,
                                     "nondegenerate": nondegenerate})
        if report.tail_reports:
            record["tail_steps"] = {side: _steps(tail)
                                    for side, tail in report.tail_reports.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stackedmin")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("solve", "continue a catalog configuration to neck size T"),
                          ("mesh", "solve, mesh and run the embeddedness battery")):
        cmd = sub.add_parser(command, help=text)
        cmd.add_argument("name", help="catalog configuration, e.g. rPD")
        cmd.add_argument("--t", type=float, required=True, help="target neck size")
    args = parser.parse_args(argv)
    if args.command == "mesh" and args.t == 0:
        parser.error("meshing needs t > 0")
    try:
        cfg = catalog(args.name)
        record = _record(args, cfg, newton_continuation(cfg, args.t))
    except (UnknownConfigError, ScheduleError) as exc:
        parser.error(str(exc))
    except LIBRARY_ERRORS as exc:
        print(f"stackedmin: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
