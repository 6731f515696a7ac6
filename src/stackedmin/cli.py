"""Command line entry point.

    stackedmin solve NAME --t T

solves the catalog configuration NAME by Newton continuation to the neck
size T and prints one JSON run record: the configuration, every Newton
step (main and tails) and the contraction estimate of the final glued
form.
"""

from __future__ import annotations

import argparse
import json

from .configs import UnknownConfigError, catalog, config_to_dict
from .solver import auto_schedule, newton_continuation


def _steps(report) -> list[dict]:
    return [{"t": s.t, "iterations": s.iterations,
             "residuals": list(s.residuals), "converged": s.converged}
            for s in report.steps]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stackedmin")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="continue a catalog configuration to neck size T")
    solve.add_argument("name", help="catalog configuration, e.g. rPD")
    solve.add_argument("--t", type=float, required=True, help="target neck size")
    args = parser.parse_args(argv)
    try:
        cfg = catalog(args.name)
    except UnknownConfigError as exc:
        parser.error(str(exc))
    report = newton_continuation(cfg, args.t)
    record = {
        "command": "solve",
        "name": args.name,
        "config": config_to_dict(cfg),
        "t": args.t,
        "schedule": auto_schedule(args.t),
        "steps": _steps(report),
        "converged": report.converged,
        "final_residual": report.final_residual,
        "contraction_estimate": report.series.contraction_estimate,
    }
    if report.tail_reports:
        record["tail_steps"] = {side: _steps(tail)
                                for side, tail in report.tail_reports.items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
