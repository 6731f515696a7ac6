import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackedmin.configs import (
    CATALOG_NAMES,
    DEGENERATE_NAMES,
    NONDEG_TOL,
    Configuration,
    UnknownConfigError,
    balance_report,
    catalog,
    config_from_dict,
    config_to_dict,
    nondegeneracy_check,
)
from stackedmin.elliptic import Lattice, theta_star, torus_distance
from stackedmin.hecke import hecke_G, hecke_jacobian
from oracles import positions

EQ = complex(np.exp(1j * np.pi / 3))


def test_positions_alternate_for_half_step():
    cfg = Configuration(1j, (0.5,) * 5, (0.5,), (0.5,))
    ps = positions(cfg, 0.0)
    xs = [p.x for p in ps]
    assert xs == [0.0, 0.5, 0.0, 0.5, 0.0]


def test_positions_three_cycle_for_rPD():
    cfg = catalog("rPD", K=3)
    ps = positions(cfg, 0.0)
    q = (1 + EQ) / 3
    for k, p in zip(range(-3, 4), ps):
        expect = k * q
        assert torus_distance(p.z, expect, EQ) < 1e-12
    # period three in the positions
    assert torus_distance(ps[0].z, ps[3].z, EQ) < 1e-12


def test_positions_two_cycle_for_H():
    # p_1 = p_0 + q_1 = -q_0, so the cycle pairs 0 with the mirrored root
    cfg = catalog("H", K=4)
    ps = positions(cfg, 0.0)
    for k, p in zip(range(-4, 5), ps):
        expect = 0.0 if k % 2 == 0 else -(1 + EQ) / 3
        assert torus_distance(p.z, expect, EQ) < 1e-12


def test_positions_invert_forward_differences():
    cfg = catalog("twin-rPD", K=5)
    ps = positions(cfg, 0.17 + 0.21j)
    for i, k in enumerate(range(-5, 6)):
        if i == 0:
            continue
        d = ps[i].z - ps[i - 1].z
        assert torus_distance(d, cfg.q(k), cfg.tau) < 1e-12


def test_balance_constant_configuration():
    cfg = Configuration(1j, (0.3 + 0.4j,) * 3, (0.3 + 0.4j,), (0.3 + 0.4j,))
    rep = balance_report(cfg)
    assert rep.balanced
    assert rep.max_force < 1e-14


def test_balance_alternating_roots():
    rep = balance_report(catalog("H"))
    assert rep.balanced


def test_unbalanced_pair_reports_force():
    cfg = Configuration(1j, (0.5, 0.3 + 0.1j, 0.5), (0.5,), (0.5, 0.3 + 0.1j))
    rep = balance_report(cfg)
    assert not rep.balanced
    lat = Lattice(1j)
    expect = abs(hecke_G(0.3 + 0.1j, lat) - hecke_G(0.5, lat))
    assert abs(rep.max_force - expect) < 1e-12


@pytest.mark.parametrize("cfg", [
    catalog("oPa"),
    catalog("twin-rPD"),
    Configuration(1j, (0.5, complex(0.5, -0.0), 0.3 + 0.1j), (0.5,), (complex(0.5, -0.0),)),
], ids=["oPa", "twin-rPD", "signed-zero-steps-merge"])
def test_balance_report_evaluates_each_distinct_step_once(cfg, monkeypatch):
    import stackedmin.configs as configs_mod

    lat = cfg.lattice
    ks = list(cfg.ks(padded=True))
    loop = {k: complex(hecke_G(cfg.q(k), lat)) for k in ks}
    calls = []

    def counted(q, lat):
        calls.append(q)
        return hecke_G(q, lat)

    monkeypatch.setattr(configs_mod, "hecke_G", counted)
    rep = balance_report(cfg)
    assert len(calls) == len({cfg.q(k) for k in ks}) < len(ks)
    bits = lambda z: (np.float64(z.real).view(np.int64), np.float64(z.imag).view(np.int64))
    assert list(rep.G_values) == ks
    assert all(bits(rep.G_values[k]) == bits(loop[k]) for k in ks)
    forces = {k: loop[k + 1] - loop[k] for k in ks[:-1]}
    assert all(bits(rep.forces[k]) == bits(forces[k]) for k in ks[:-1])
    assert rep.max_force == max(abs(f) for f in forces.values())


def test_every_catalog_entry_balances():
    for name in CATALOG_NAMES:
        cfg = catalog(name)
        assert balance_report(cfg).balanced, name
        sv, nondeg = nondegeneracy_check(cfg)
        if name in DEGENERATE_NAMES:
            assert not nondeg, name
        else:
            assert nondeg, (name, sv)


@pytest.mark.parametrize("cfg", [
    catalog("oPa"),
    catalog("twin-rPD"),
    Configuration(1j, (0.5, complex(0.5, -0.0), 0.3 + 0.1j), (0.5,), (complex(0.5, -0.0),)),
], ids=["oPa", "twin-rPD", "signed-zero-steps-merge"])
def test_nondegeneracy_check_evaluates_each_distinct_step_once(cfg, monkeypatch):
    import stackedmin.configs as configs_mod

    lat = cfg.lattice
    ks = list(cfg.ks(padded=True))
    loop = min(hecke_jacobian(cfg.q(k), lat).min_singular_value() for k in ks)
    calls = []

    def counted(q, lat):
        calls.append(q)
        return hecke_jacobian(q, lat)

    monkeypatch.setattr(configs_mod, "hecke_jacobian", counted)
    sv, nondeg = nondegeneracy_check(cfg)
    assert len(calls) == len({cfg.q(k) for k in ks}) < len(ks)
    assert np.float64(sv).view(np.int64) == np.float64(loop).view(np.int64)
    assert nondeg == (loop > NONDEG_TOL)


def test_degenerate_entry_is_at_critical_angle():
    cfg = catalog("oPb-degenerate")
    assert abs(cfg.tau - np.exp(1j * theta_star())) < 1e-12
    sv, nondeg = nondegeneracy_check(cfg)
    assert sv < 1e-8 and not nondeg


def test_block_jacobians_match_finite_differences():
    cfg = catalog("oDelta")
    lat = cfg.lattice
    h = 1e-5
    for k in (-1, 0, 1):
        q = cfg.q(k)
        J = hecke_jacobian(q, lat)
        fd = np.empty((2, 2))
        for j, dq in enumerate((h, 1j * h)):
            d = (hecke_G(q + dq, lat) - hecke_G(q - dq, lat)) / (2 * h)
            fd[:, j] = [d.real, d.imag]
        assert np.max(np.abs(J.m - fd)) < 1e-6


def test_oH_diagonal_scale_reduces_to_third_at_hexagonal_angle():
    cfg = catalog("oH", theta=np.pi / 3)
    q0 = cfg.q(0)
    assert abs(q0 - (1 + EQ) / 3) < 1e-10


def test_oH_rejected_past_critical_angle():
    with pytest.raises(ValueError):
        catalog("oH", theta=1.3)


def test_twin_recipe():
    cfg = catalog("twin-rPD", K=6)
    q = (1 + EQ) / 3
    for k in range(-9, 9):
        expect = q if k < 0 else -q
        assert abs(cfg.q(k) - expect) < 1e-15


def test_oCLP_rot_twin_recipe():
    cfg = catalog("oCLP-rot-twin", im=1.0)
    assert cfg.tau == 1j
    assert cfg.q(-3) == 0.5
    assert cfg.q(4) == 0.5j


def test_oPa_oDelta_recipe():
    cfg = catalog("oPa-oDelta", im=1.0)
    assert cfg.q(-1) == 0.5
    assert cfg.q(-2) == 0.5j
    assert cfg.q(2) == (1 + 1j) / 2


def test_unknown_name_lists_catalog():
    with pytest.raises(UnknownConfigError) as e:
        catalog("gyroid")
    assert "rPD" in str(e.value)
    assert e.value.names == CATALOG_NAMES


def test_separation_guard():
    with pytest.raises(ValueError):
        Configuration(1j, (1e-4,) * 3, (1e-4,), (1e-4,))


@pytest.mark.parametrize("left, right, k", [
    ((1e-9,), (0.5 + 0.5j,), -1),
    ((0.5 + 0.5j,), (0.5 + 0.5j, 1.0 + 1e-9), 1),
    ((0.5 + 0.5j, 2j), (0.5 + 0.5j,), -1),
], ids=["left", "right-second", "left-on-tau"])
def test_tail_steps_near_the_lattice_are_refused(left, right, k):
    """A tail step next to a lattice point is refused on construction with
    the window's message, naming the first padded index that reads it,
    instead of failing later inside the balance form."""
    with pytest.raises(ValueError, match=rf"step q_{k} is within 0.001 of the lattice"):
        Configuration(1j, (0.5 + 0.5j,), left, right)


def test_periodicity_helpers():
    assert catalog("rPD").is_periodic()
    assert catalog("H").is_periodic()
    assert not catalog("twin-rPD").is_periodic()


def test_json_round_trip():
    cfg = catalog("rPD-H", K=4)
    d = config_to_dict(cfg)
    back = config_from_dict(d)
    assert back == cfg


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        config_from_dict({"tau": [0.0, 1.0]})


@pytest.mark.parametrize("where, match", [
    ("tau", "tau must be finite"),
    ("window", r"window\[1\] must be finite"),
    ("left_tail", r"left_tail\[0\] must be finite"),
    ("right_tail", r"right_tail\[1\] must be finite"),
])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_values_are_refused(where, match, bad):
    """A NaN or infinite tau or step is refused with its index, also when
    it comes from JSON, which Python reads with NaN and Infinity."""
    args = {"tau": 0.3 + 1j, "window": (0.5, 0.5, 0.5), "left_tail": (0.5,),
            "right_tail": (0.5, 0.5)}
    value = args[where]
    if where == "tau":
        args["tau"] = complex(value.real, bad)
    else:
        at = 0 if where == "left_tail" else 1
        args[where] = value[:at] + (complex(bad, 0.1),) + value[at + 1:]
    with pytest.raises(ValueError, match=match):
        Configuration(**args)
    pair = lambda z: [complex(z).real, complex(z).imag]
    text = json.dumps({"tau": pair(args.pop("tau")),
                       **{k: [pair(q) for q in v] for k, v in args.items()}})
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValueError, match=match):
        config_from_dict(json.loads(text))


@settings(max_examples=20, deadline=None)
@given(st.integers(-30, 30))
def test_tail_indexing_is_absolute(k):
    cfg = catalog("H-H-shift", K=5)
    q = (1 + EQ) / 3
    if k == 0:
        expect = -q
    elif k < 0:
        expect = q if k % 2 == 0 else -q
    else:
        expect = q if k % 2 == 1 else -q
    assert abs(cfg.q(k) - expect) < 1e-15


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 9))
def test_max_force_independent_of_window_width(K):
    # widening the window around the same sequence cannot change the force
    wide = catalog("twin-rPD", K=K)
    base = catalog("twin-rPD", K=3)
    assert abs(balance_report(wide).max_force - balance_report(base).max_force) < 1e-14
