"""Write tests/data/goldens.json: the solved blocks (8 floats per stored
torus) and the Newton iterations per step of the three benchmark solves,
from the tree it runs on.

- `oPa` to t = 0.08;
- the K = 8 `twin-rPD` pair (`pair_solve` with `upper_reference`) to
  t = 0.01: both windows, each with its tail reports by side;
- `rPD` to t = 0.01.

`tests/test_digests.py` holds later trees to these values within
`NEWTON_TOL`, with no step taking more iterations.  They were written
once; a change that moves bits is judged by them, not re-recorded.

Run from the repository root: PYTHONPATH=src python tests/write_goldens.py
"""

import json
from pathlib import Path

from stackedmin.asymptotics import pair_solve, upper_reference
from stackedmin.configs import catalog
from stackedmin.solver import newton_continuation

PATH = Path(__file__).resolve().parent / "data" / "goldens.json"


def record(rep) -> dict:
    """The stored blocks and iterations per step of a SolveReport, and
    those of its tail solves by side."""
    out = {"blocks": [T.block().tolist() for T in rep.state.tori],
           "iterations": [s.iterations for s in rep.steps]}
    if rep.tail_reports:
        out["tails"] = {side: record(tail) for side, tail in rep.tail_reports.items()}
    return out


def main() -> None:
    twin = catalog("twin-rPD")
    reference, defect = pair_solve(upper_reference(twin), twin, 0.01, K=8)
    goldens = {
        "oPa": record(newton_continuation(catalog("oPa"), 0.08)),
        "pair": {"reference": record(reference), "defect": record(defect)},
        "rPD": record(newton_continuation(catalog("rPD"), 0.01)),
    }
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
