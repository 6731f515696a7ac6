"""Tests for the console script and the dependencies declared in pyproject.toml."""

import ast
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from stackedmin import cli
from stackedmin.cli import main
from stackedmin.configs import NONDEG_TOL, catalog, config_to_dict
from stackedmin.solver import NEWTON_TOL, newton_continuation


def test_solve_prints_one_run_record(capsys):
    assert main(["solve", "rPD", "--t", "0.005"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["name"] == "rPD"
    assert record["config"] == config_to_dict(catalog("rPD"))
    assert [s["t"] for s in record["steps"]] == [0.005]
    step = record["steps"][0]
    assert step["converged"] and step["residuals"][-1] < NEWTON_TOL
    assert step["iterations"] == len(step["residuals"]) - 1
    assert record["final_residual"] == step["residuals"][-1]
    assert 0.0 < record["contraction_estimate"] < 1.0
    assert "tail_steps" not in record


def test_solve_records_nondegeneracy(capsys):
    assert main(["solve", "rPD", "--t", "0.005"]) == 0
    record = json.loads(capsys.readouterr().out)
    nondeg = record["nondegeneracy"]
    assert nondeg["min_singular_value"] > NONDEG_TOL
    assert nondeg["nondegenerate"] is True


def test_solve_records_the_worst_layer(capsys):
    lines = []
    for _ in range(2):
        assert main(["solve", "rPD", "--t", "0.005"]) == 0
        lines.append(capsys.readouterr().out.strip())
    assert lines[0] == lines[1]
    steps = json.loads(lines[0])["steps"]
    rep = newton_continuation(catalog("rPD"), 0.005)
    assert [s["worst_k"] for s in steps] == [s.worst_k for s in rep.steps]


def test_unknown_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "no-such-stack", "--t", "0.01"])
    assert exc.value.code == 2
    assert "valid names" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["-0.01", "nan"])
def test_unreachable_t_is_a_usage_error(capsys, t):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "rPD", "--t", t])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_target" in captured.err


def test_mesh_at_zero_t_is_a_usage_error_before_any_solve(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the usage check")

    monkeypatch.setattr(cli, "newton_continuation", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "rPD", "--t", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t > 0" in captured.err


def test_mesh_prints_one_deterministic_record(capsys):
    lines = []
    for _ in range(2):
        assert main(["mesh", "rPD", "--t", "0.01"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        lines.append(out[0])
    assert lines[0] == lines[1]
    record = json.loads(lines[0])
    assert record["command"] == "mesh" and record["name"] == "rPD"
    assert record["config"] == config_to_dict(catalog("rPD"))
    mesh = record["mesh"]
    assert mesh["t"] == 0.01 and mesh["n_faces"] > 0
    battery = record["embeddedness"]
    slabs = {str(k) for k in mesh["settings"]["k_range"]}
    assert set(battery["pairs"]) == set(battery["min_n3"]) == slabs
    assert battery["pass"]
    assert all(n == 0 for n in battery["pairs"].values())
    assert all(v > 0.5 for v in battery["min_n3"].values())
    assert battery["slices"] and all(battery["slices"].values())


def test_declared_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_runtime_imports_are_numpy_scipy_and_the_standard_library():
    """Every module of the package imports only the standard library,
    numpy, scipy and the package itself, and numpy and scipy are exactly
    the dependencies pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    declared = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared) == ["numpy", "scipy"]
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "stackedmin"}
    modules = sorted((root / "src" / "stackedmin").glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
