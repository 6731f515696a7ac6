"""Write tests/data/goldens.json: the solved blocks (8 floats per stored
torus) and the Newton iterations per step of the three benchmark solves,
from the tree it runs on.

- `oPa` to t = 0.08;
- the K = 8 `twin-rPD` pair (`pair_solve` with `upper_reference`) to
  t = 0.01: both windows, each with its tail reports by side;
- `rPD` to t = 0.01;
- the K = 8 defect windows of `WINDOWS` (`window`), with their tail
  reports, keyed "name@t";
- the defect's footprint on the K = 8 `twin-rPD` pair at each t of
  `FOOTPRINT_TS` (`footprint`): d_0 and w_0, keyed by t.

`tests/test_digests.py` and `tests/test_asymptotics.py` hold later trees
to these values: blocks within `NEWTON_TOL`, no step taking more
iterations, and d_0 and w_0 within 1e-3 relative.  They were written
once; a change that moves bits is judged by them, not re-recorded.

Run from the repository root: PYTHONPATH=src python tests/write_goldens.py
"""

import json
from pathlib import Path

import numpy as np

from stackedmin.asymptotics import form_rows, pair_solve, parameter_rows, upper_reference
from stackedmin.configs import catalog
from stackedmin.solver import NEWTON_TOL, newton_continuation

PATH = Path(__file__).resolve().parent / "data" / "goldens.json"

# every catalog defect but twin-rPD at t = 0.01, and four of them at 0.04
WINDOWS = (("rPD-H", 0.01), ("oPa-oDelta", 0.01), ("oPa-oCLP", 0.01),
           ("H-H-shift", 0.01), ("oCLP-rot-twin", 0.01),
           ("twin-rPD", 0.04), ("rPD-H", 0.04), ("oPa-oCLP", 0.04),
           ("oPa-oDelta", 0.04))
FOOTPRINT_TS = (0.02, 0.03, 0.04)


def record(rep) -> dict:
    """The stored blocks and iterations per step of a SolveReport, and
    those of its tail solves by side."""
    out = {"blocks": [T.block().tolist() for T in rep.state.tori],
           "iterations": [s.iterations for s in rep.steps]}
    if rep.tail_reports:
        out["tails"] = {side: record(tail) for side, tail in rep.tail_reports.items()}
    return out


def assert_held(got: dict, golden: dict, where=()):
    """Every block of a `record` within NEWTON_TOL of its golden, and no
    step with more Newton iterations, tails included."""
    assert got.keys() == golden.keys(), where
    for key, want in golden.items():
        if key == "blocks":
            assert np.shape(got[key]) == np.shape(want), where
            gap = np.max(np.abs(np.subtract(got[key], want)))
            assert gap <= NEWTON_TOL, (where, gap)
        elif key == "iterations":
            assert len(got[key]) == len(want), where
            assert all(np.less_equal(got[key], want)), (where, got[key], want)
        else:
            assert_held(got[key], want, where + (key,))


def window(name: str, t: float):
    """The K = 8 window solve of the defect name to t."""
    return newton_continuation(catalog(name, K=1), t, K=8)


def footprint(t: float) -> dict:
    """d_0 and w_0, the parameter and form gaps at the defect's layer,
    of the K = 8 `twin-rPD` pair at t."""
    twin = catalog("twin-rPD")
    reference, defect = pair_solve(upper_reference(twin), twin, t, K=8)
    d = parameter_rows(reference.state, defect.state)
    w = form_rows(reference.state, reference.series, defect.state, defect.series)
    return {"d0": d[0], "w0": w[0]}


def main() -> None:
    twin = catalog("twin-rPD")
    reference, defect = pair_solve(upper_reference(twin), twin, 0.01, K=8)
    goldens = {
        "oPa": record(newton_continuation(catalog("oPa"), 0.08)),
        "pair": {"reference": record(reference), "defect": record(defect)},
        "rPD": record(newton_continuation(catalog("rPD"), 0.01)),
        "windows": {f"{name}@{t}": record(window(name, t)) for name, t in WINDOWS},
        "footprint": {str(t): footprint(t) for t in FOOTPRINT_TS},
    }
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
