import numpy as np
import pytest

from distillery.analytic import (
    RegionGrid,
    enumerate_accepted,
    enumerate_protocol,
    global_depol_distill,
    improvement_region,
    recurrence_bitflip,
    z2b_local_depol,
    zx3b_local_depol,
)
from distillery.channels import PauliChannelParams
from distillery.circuit import Gate, Measure
from distillery.pauli import UnsupportedProtocolError
from distillery.protocols import ProtocolSpec, get_protocol
from expected_tables import THREE_PAIR_TABLE, TWO_PAIR_TABLE

def test_recurrence_bitflip_examples():
    res = recurrence_bitflip(0.0, 0.3)
    assert (res.f_after, res.p_accept) == (1.0, pytest.approx(0.7))
    res = recurrence_bitflip(0.1, 0.1)
    assert res.p_accept == pytest.approx(0.82, abs=1e-12)
    assert res.f_after == pytest.approx(0.9878048780487805, abs=1e-12)
    res = recurrence_bitflip(0.5, 0.5)
    assert res.f_after == pytest.approx(0.5, abs=1e-12)
    assert res.f_before == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        recurrence_bitflip(0.6, 0.1)


def test_z2b_local_depol_examples():
    res = z2b_local_depol(0.0, 0.0)
    assert (res.f_before, res.f_after, res.p_accept) == (1.0, 1.0, 1.0)
    res = z2b_local_depol(0.1, 0.1)
    assert res.p_accept == pytest.approx(0.8755555555555556, abs=1e-12)
    assert res.f_after == pytest.approx(0.9263959390862944, abs=1e-12)


def test_z2b_local_depol_matches_enumeration():
    params = lambda s: PauliChannelParams(1 - s, s / 3, s / 3, s / 3)
    for p, q in [(0.05, 0.2), (0.3, 0.3), (0.7, 0.1)]:
        ref = enumerate_accepted(get_protocol("z2b"), [params(p), params(q)])
        res = z2b_local_depol(p, q)
        assert res.p_accept == pytest.approx(ref.acceptance_prob, abs=1e-12)
        assert res.f_after == pytest.approx(ref.fidelity_after, abs=1e-12)


def test_zx3b_local_depol_examples_and_enumeration():
    res = zx3b_local_depol(0.0, 0.0)
    assert (res.f_before, res.f_after, res.p_accept) == (1.0, 1.0, 1.0)
    params = lambda s: PauliChannelParams(1 - s, s / 3, s / 3, s / 3)
    for p, q in [(0.1, 0.1), (0.0, 0.3), (0.25, 0.6)]:
        ref = enumerate_accepted(get_protocol("zx3b"), [params(p), params(q), params(p)])
        res = zx3b_local_depol(p, q)
        assert res.p_accept == pytest.approx(ref.acceptance_prob, abs=1e-12)
        assert res.f_after == pytest.approx(ref.fidelity_after, abs=1e-12)
    # single noisy pair: every lone error is caught, so the output is perfect
    assert zx3b_local_depol(0.0, 0.3).f_after == pytest.approx(1.0, abs=1e-12)


def test_global_depol_examples():
    res = global_depol_distill("z2b", 0.0)
    assert (res.p_accept, res.f_after) == (1.0, 1.0)
    res = global_depol_distill("z2b", 0.4)
    assert res.p_accept == pytest.approx(0.8, abs=1e-15)
    assert res.f_after == pytest.approx(0.8125, abs=1e-15)
    assert res.f_before == pytest.approx(0.7, abs=1e-15)
    assert res.ratio == pytest.approx(0.8125 / 0.7, abs=1e-12)
    res = global_depol_distill("zx3b", 0.4)
    assert res.p_accept == pytest.approx(0.7, abs=1e-15)
    assert res.f_after == pytest.approx(0.625 / 0.7, abs=1e-12)
    with pytest.raises(ValueError):
        global_depol_distill("x3b", 0.1)


def test_two_pair_table_reproduced_exactly():
    rows = enumerate_protocol("z2b").rows
    got = {(r.error_label, r.monomial, r.residual_label) for r in rows}
    assert got == TWO_PAIR_TABLE


def test_three_pair_table_reproduced_exactly():
    rows = enumerate_protocol("zx3b").rows
    assert len(rows) == 16
    got = {(r.error_label, r.monomial, r.residual_label) for r in rows}
    assert got == THREE_PAIR_TABLE


def test_x2b_table_is_basis_change_dual():
    rows = enumerate_protocol("x2b").rows
    assert len(rows) == 8
    swap = {"X": "Z", "Z": "X", "Y": "Y", "I": "I"}
    dual = set()
    for error, monomial, residual in TWO_PAIR_TABLE:
        new_err = "".join(swap.get(c, c) for c in error)
        new_mon = monomial.replace("_x", "_#").replace("_z", "_x").replace("_#", "_z")
        new_res = "".join(swap.get(c, c) for c in residual)
        dual.add((_sort_error_label(new_err), new_mon, new_res))
    got = {(r.error_label, r.monomial, r.residual_label) for r in rows}
    assert got == dual


def _sort_error_label(label):
    if label == "I":
        return label
    parts = [(label[i + 1], label[i]) for i in range(0, len(label), 2)]
    return "".join(f"{c}{q}" for q, c in sorted(parts))


def test_accepted_errors_commute_with_every_check():
    for name in ("z2b", "x2b", "zx3b"):
        result = enumerate_protocol(name)
        for row in result.rows:
            assert all(row.error.commutes_with(c) for c in result.check_observables)


def test_total_probability_over_all_combinations(rng):
    for name in ("z2b", "zx3b"):
        spec = get_protocol(name)
        params = [PauliChannelParams(*rng.dirichlet(np.ones(4))) for _ in spec.pairs]
        res = enumerate_accepted(spec, params)
        # all 4^n error combinations (accepted or not) carry total weight one
        from itertools import product

        total = 0.0
        for letters in product("IXYZ", repeat=spec.n_pairs):
            w = 1.0
            lut = {"I": "p_i", "X": "p_x", "Y": "p_y", "Z": "p_z"}
            for prm, letter in zip(params, letters):
                w *= getattr(prm, lut[letter])
            total += w
        assert total == pytest.approx(1.0, abs=1e-12)
        assert res.acceptance_prob <= 1.0 + 1e-12


def test_table_specialization_identity(rng):
    """Depolarizing specialization of the symbolic table equals the closed form."""
    for _ in range(20):
        p, q = rng.uniform(0, 1, size=2)
        params = lambda s: PauliChannelParams(1 - s, s / 3, s / 3, s / 3)
        ref = enumerate_accepted(get_protocol("z2b"), [params(p), params(q)])
        res = z2b_local_depol(float(p), float(q))
        assert ref.acceptance_prob == pytest.approx(res.p_accept, abs=1e-12)


def test_enumeration_rejects_non_clifford_circuits():
    bad = ProtocolSpec(
        name="bad",
        n_pairs=2,
        pairs=((0, 2), (1, 3)),
        circuit=(Gate("CPhase", (0, 1), 0.4), Measure(1, "Z", "i"), Measure(3, "Z", "j")),
        checks=((("i",), ("j",)),),
        kept_pair=(0, 2),
    )
    with pytest.raises(UnsupportedProtocolError):
        enumerate_accepted(bad)


def test_improvement_region_bitflip_is_everywhere():
    frac = improvement_region("z2b", "bitflip", RegionGrid(0.5, 0.5, 40))
    assert frac == 1.0


def test_improvement_region_depol_defaults():
    frac2 = improvement_region("z2b", "local_depol", RegionGrid(0.5, 0.5, 60))
    frac3 = improvement_region("zx3b", "local_depol", RegionGrid(0.5, 0.5, 60))
    assert 0.14 <= frac2 <= 0.24
    assert 2.4 <= frac3 / frac2 <= 3.6


def test_improvement_region_unknown_family():
    with pytest.raises(ValueError):
        improvement_region("zx3b", "bitflip")
