import numpy as np
import pytest

from conftest import random_density
from distillery.channels import apply_channel, depolarizing_local
from distillery.densop import DensityOperator, bell_fidelity, bell_state, ground_state
from distillery.estimation import (
    BASES,
    OUTCOMES,
    CountsTable,
    counts_from_csv,
    counts_to_csv,
    direct_fidelity_exact,
    estimate_fidelity,
    estimate_from_counts,
    outcome_distribution,
    sample_counts,
)


def test_exact_estimate_on_bell_state():
    assert direct_fidelity_exact(bell_state(1), (0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_exact_estimate_on_maximally_mixed():
    mixed = DensityOperator(2, np.eye(4) / 4)
    assert direct_fidelity_exact(mixed, (0, 1)) == pytest.approx(0.25, abs=1e-12)


def test_exact_estimate_on_depolarized_pair():
    rho = apply_channel(bell_state(1), depolarizing_local(0.3, qubit=1))
    assert direct_fidelity_exact(rho, (0, 1)) == pytest.approx(0.7, abs=1e-12)


def test_formula_identity_on_random_states(rng):
    for _ in range(100):
        rho = random_density(rng, 2)
        assert direct_fidelity_exact(rho, (0, 1)) == pytest.approx(
            bell_fidelity(rho, (0, 1)), abs=1e-12
        )


def test_noiseless_zz_counts_have_even_parity():
    table = sample_counts(bell_state(1), (0, 1), "ZZ", shots=5000, seed=3)
    assert table.counts["01"] == 0 and table.counts["10"] == 0


def test_noisy_outcome_distribution_is_exact():
    probs = outcome_distribution(bell_state(1), (0, 1), "ZZ", meas_error=0.1)
    assert probs[0] + probs[3] == pytest.approx(0.82, abs=1e-12)
    probs = outcome_distribution(bell_state(1), (0, 1), "YY")
    # the pair is a -1 eigenstate of YY: only odd-parity outcomes appear
    assert probs[1] + probs[2] == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic_given_seed():
    a = sample_counts(bell_state(1), (0, 1), "XX", 1000, 0.05, seed=42)
    b = sample_counts(bell_state(1), (0, 1), "XX", 1000, 0.05, seed=42)
    assert a.counts == b.counts
    c = sample_counts(bell_state(1), (0, 1), "XX", 1000, 0.05, seed=43)
    assert a.counts != c.counts


def _searchsorted_counts(probs, shots, seed):
    """The tables sample_counts drew with searchsorted and one mask per outcome."""
    rng = np.random.default_rng(seed)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    idx = np.searchsorted(edges, rng.random(shots), side="right")
    return {out: int(np.sum(idx == i)) for i, out in enumerate(OUTCOMES)}


@pytest.mark.parametrize(
    "state, basis, meas_error",
    [
        (bell_state(1), "ZZ", 0.0),  # outcomes 01 and 10 have probability 0
        (bell_state(1), "YY", 0.0),  # 00 and 11 have probability 0
        (ground_state(2), "ZZ", 0.0),  # only 00
        (DensityOperator(2, np.diag([0.0, 1.0, 0.0, 0.0])), "ZZ", 0.0),  # only 01
        (apply_channel(bell_state(1), depolarizing_local(0.3, qubit=1)), "XX", 0.05),
        (random_density(np.random.default_rng(7), 2), "YY", 0.02),
    ],
)
def test_sample_counts_matches_the_searchsorted_tables(state, basis, meas_error):
    probs = outcome_distribution(state, (0, 1), basis, meas_error)
    for seed in range(4):
        for shots in (1, 2, 7, 1000, 100_000):
            table = sample_counts(state, (0, 1), basis, shots, meas_error, seed)
            assert table.counts == _searchsorted_counts(probs, shots, seed)


def test_estimate_from_perfect_counts():
    zz = CountsTable("ZZ", {"00": 500, "11": 500}, 1000)
    xx = CountsTable("XX", {"00": 500, "11": 500}, 1000)
    yy = CountsTable("YY", {"01": 500, "10": 500}, 1000)
    est = estimate_from_counts(zz, xx, yy)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_estimate_from_uniform_counts():
    tables = {b: CountsTable(b, {o: 250 for o in ("00", "01", "10", "11")}, 1000) for b in BASES}
    est = estimate_from_counts(tables["ZZ"], tables["XX"], tables["YY"])
    assert est.value == pytest.approx(0.25, abs=1e-12)


def test_estimator_is_unbiased(rng):
    rho = apply_channel(bell_state(1), depolarizing_local(0.3, qubit=1))
    exact = direct_fidelity_exact(rho, (0, 1))
    shots = 2000
    values = []
    errors = []
    for seed in range(1000):
        est = estimate_fidelity(rho, (0, 1), shots, seed=seed)
        values.append(est.value)
        errors.append(est.std_error)
    mean = float(np.mean(values))
    typical_se = float(np.mean(errors))
    assert abs(mean - exact) < 4 * typical_se / np.sqrt(1000)


def test_estimator_converges_to_degraded_fidelity_with_meas_error():
    """Readout errors are never corrected: the estimate tracks the noisy statistics."""
    rho = bell_state(1)
    m = 0.05
    # expectation of each basis parity shrinks by (1-2m)^2
    shrink = (1 - 2 * m) ** 2
    degraded = (1 + 3 * shrink) / 4
    probs = {b: outcome_distribution(rho, (0, 1), b, meas_error=m) for b in BASES}
    est_inf = (
        1
        + (2 * (probs["ZZ"][0] + probs["ZZ"][3]) - 1)
        + (2 * (probs["XX"][0] + probs["XX"][3]) - 1)
        - (2 * (probs["YY"][0] + probs["YY"][3]) - 1)
    ) / 4
    assert est_inf == pytest.approx(degraded, abs=1e-12)
    est = estimate_fidelity(rho, (0, 1), shots=200000, meas_error=m, seed=5)
    assert est.value == pytest.approx(degraded, abs=5 * est.std_error)


def test_counts_validation():
    with pytest.raises(ValueError):
        CountsTable("ZZ", {"00": 5}, 10)
    with pytest.raises(ValueError):
        CountsTable("WW", {"00": 10}, 10)
    with pytest.raises(ValueError):
        sample_counts(bell_state(1), (0, 1), "ZZ", shots=0)
    zz = CountsTable("ZZ", {"00": 10}, 10)
    with pytest.raises(ValueError):
        estimate_from_counts(zz, zz, zz)


def test_counts_csv_round_trip():
    tables = [
        sample_counts(bell_state(1), (0, 1), basis, 500, 0.02, seed=i)
        for i, basis in enumerate(BASES)
    ]
    text = counts_to_csv(tables)
    assert text.splitlines()[0] == "basis,outcome,count,shots"
    restored = counts_from_csv(text)
    assert [(t.basis, t.counts, t.shots) for t in restored] == [
        (t.basis, t.counts, t.shots) for t in tables
    ]
