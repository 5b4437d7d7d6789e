"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Statistical checks use fixed seeds so the suite is deterministic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qpklab import analysis, sim
from qpklab.adversaries import (
    AlwaysZeroAdversary,
    CopyMeasureAdversary,
    KeyReadoutAdversary,
    PadReuseAdversary,
    RandomGuessAdversary,
    StateComparisonAdversary,
)
from qpklab.bits import int_to_bits, random_bits
from qpklab.cli import main
from qpklab.games import estimate_advantage, run_ind_cpa, run_ind_cpa_eo
from qpklab.primitives import (
    FixedNonceSke,
    PhasePrfs,
    PrfsParams,
    PrfspdParams,
    RandomFunctionTable,
    ToyPrfspd,
    prf_table,
)
from qpklab.schemes import DecryptionKey, OwfScheme, PrfsScheme, PrfspdScheme


def wilson_sigma(p, n):
    return math.sqrt(max(p * (1 - p), 1e-9) / n)


def measured_advantage(est):
    """Two-sided advantage of a guessing adversary, with its standard error."""
    return abs(2 * est.estimate - 1), 2 * wilson_sigma(est.estimate, est.trials)


# --- criterion 1: perfect correctness of the measured-key scheme ------------


def test_criterion_01_owf_exhaustive_correctness():
    # every outcome of measuring each public key is one of its nonzero cells;
    # a copy conditioned on it encrypts every message
    rng = np.random.default_rng(101)
    scheme = OwfScheme(4, prf_output_width=4)
    ok = total = 0
    for kv in range(1 << 4):
        dk = DecryptionKey(int_to_bits(kv, 4))
        for cell in np.flatnonzero(scheme.qpk_gen(dk).state.amplitudes).tolist():
            qpk = scheme.qpk_gen(dk)
            qpk.residue = int_to_bits(cell, 8)
            for mv in range(1 << 8):
                message = int_to_bits(mv, 8)
                _, ct = scheme.encrypt(qpk, message, rng)
                total += 1
                ok += int(scheme.decrypt(dk, ct) == message)
    assert total == 65536
    assert ok / total == 1.0


def _off_graph_owf_key(self, dk):
    """A broken OWF public key: the cells (x, f_dk(x) xor 1)."""
    lam, n = self.security_param, self.prf_output_width
    return sim.graph_state(sim.uniform_superposition(lam), n,
                           lambda xs: prf_table(dk.bits, xs, lam, n) ^ 1)


def test_criterion_01_reads_the_public_key(monkeypatch, capsys):
    monkeypatch.setattr(OwfScheme, "_public_state", _off_graph_owf_key)
    assert main(["correctness", "--scheme", "owf", "--lambda", "4", "--seed", "1"]) == 1
    assert "cases=65536" in capsys.readouterr().out
    with pytest.raises(AssertionError):
        test_criterion_01_owf_exhaustive_correctness()


# --- criterion 2: single-shot scheme's exact decryption error ---------------


def test_criterion_02_prfs_decrypt_error():
    rng = np.random.default_rng(102)
    for n, expected in ((2, 0.25), (3, 0.125), (4, 0.0625)):
        scheme = PrfsScheme(3, PhasePrfs(PrfsParams(3, 3, n)))
        dk = scheme.gen(rng)
        assert abs(scheme.decrypt_error_exact(dk, "010") - expected) < 1e-12
    # Monte Carlo agreement at n=4 through the full scheme path
    scheme = PrfsScheme(3, PhasePrfs(PrfsParams(3, 3, 4)))
    dk = scheme.gen(rng)
    trials = 10_000
    errors = 0
    for _ in range(trials):
        qpk = scheme.qpk_gen(dk)
        _, ct = scheme.encrypt(qpk, "1", rng)
        errors += int(scheme.decrypt(dk, ct, rng) == "0")
    p = 0.0625
    assert abs(errors / trials - p) < 3 * wilson_sigma(p, trials)


# --- criterion 3: destruction-proof round trip ------------------------------


def test_criterion_03_prfspd_round_trip_enumerated():
    rng = np.random.default_rng(103)
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 3))
    ok = total = 0
    for kv in range(8):
        for xv in range(8):
            k, x = int_to_bits(kv, 3), int_to_bits(xv, 3)
            proof = pd.delete(pd.gen(k, x), rng)
            total += 1
            ok += pd.verify(k, x, proof)
    assert ok / total == 1.0


# --- criterion 4: tester bounds ---------------------------------------------


def test_criterion_04_tester_bounds():
    rng = np.random.default_rng(104)
    prfs = PhasePrfs(PrfsParams(8, 8, 4))
    for _ in range(20):
        k, x = random_bits(8, rng), random_bits(8, rng)
        assert prfs.test_exact(k, x, prfs.gen(k, x)) == 1.0
    values = []
    while len(values) < 1000:
        k = random_bits(8, rng)
        x1, x2 = random_bits(8, rng), random_bits(8, rng)
        if x1 == x2:
            continue
        values.append(prfs.test_exact(k, x1, prfs.gen(k, x2)))
    mean = np.mean(values)
    sigma = np.std(values) / math.sqrt(len(values))
    assert abs(mean - 2**-4) < 3 * sigma


# --- criterion 5: punctured-key trace distance ------------------------------


def test_criterion_05_punctured_distance():
    for lam in range(2, 7):
        for p in range(1, 5):
            got = analysis.punctured_key_distance(lam, p)
            # independent high-precision route via exact rationals
            inner = 1 - Fraction(1 - Fraction(1, 2**lam)) ** p
            assert abs(got - math.sqrt(float(inner))) < 1e-9
    closed = analysis.punctured_key_distance(4, 2)
    explicit = analysis.punctured_key_distance_explicit(4, 2)
    assert abs(closed - explicit) < 1e-9
    assert abs(closed - 0.34799) < 1e-4


# --- criterion 6: measure-first vs measure-last -----------------------------


def test_criterion_06_commuting_measurements():
    for lam in (1, 2, 3):
        report = analysis.commuting_measurement_check(lam)
        assert report.value < 1e-12, f"lam={lam}: tv={report.value}"


# --- criterion 7: real key vs fresh key distributions -----------------------


def test_criterion_07_real_vs_fresh_key():
    for queries in (0, 1, 2, 3):
        report = analysis.random_key_indistinguishability_check(2, queries=queries)
        assert report.value < 1e-12, f"queries={queries}: tv={report.value}"


# --- criterion 8: baseline games at lambda = 6 ------------------------------


def test_criterion_08_random_guess_baselines():
    trials = 10_000
    tol = 3 * wilson_sigma(0.5, trials)
    scheme3 = PrfsScheme(6, PhasePrfs(PrfsParams(6, 6, 2)))
    est = estimate_advantage(
        lambda c: run_ind_cpa(scheme3, RandomGuessAdversary(), c),
        trials, np.random.default_rng(108),
    )
    assert abs(est.estimate - 0.5) < tol, f"single-challenge game: {est.estimate}"
    scheme1 = OwfScheme(6, prf_output_width=6)
    est = estimate_advantage(
        lambda c: run_ind_cpa_eo(scheme1, RandomGuessAdversary(), c),
        trials, np.random.default_rng(1080),
    )
    assert abs(est.estimate - 0.5) < tol, f"oracle game: {est.estimate}"
    est = estimate_advantage(
        lambda c: run_ind_cpa_eo(scheme1, RandomGuessAdversary(), c, multi=True),
        trials, np.random.default_rng(1081),
    )
    assert abs(est.estimate - 0.5) < tol, f"multi-challenge game: {est.estimate}"


# --- criterion 9: mutation suite --------------------------------------------


def _mutation_case(broken, honest, adversary_factory, runner, trials_broken=200,
                   trials_honest=300):
    est = estimate_advantage(
        lambda c: runner(broken, adversary_factory(), c), trials_broken,
        np.random.default_rng(109),
    )
    assert est.estimate >= 0.9, f"attack on broken scheme too weak: {est.estimate}"
    est = estimate_advantage(
        lambda c: runner(honest, adversary_factory(), c), trials_honest,
        np.random.default_rng(1090),
    )
    bound = 0.5 + 5 * 2 ** (-8 / 2) + 3 * wilson_sigma(0.5, est.trials)
    assert est.estimate <= bound, f"attack on honest scheme too strong: {est.estimate}"


def test_criterion_09_pad_reuse_mutation():
    _mutation_case(
        OwfScheme(8, ske=FixedNonceSke()),
        OwfScheme(8),
        PadReuseAdversary,
        run_ind_cpa_eo,
    )


def test_criterion_09_constant_state_mutation():
    _mutation_case(
        PrfsScheme(8, PhasePrfs(PrfsParams(8, 8, 4), lambda key, x, w: "0" * w)),
        PrfsScheme(8, PhasePrfs(PrfsParams(8, 8, 4))),
        StateComparisonAdversary,
        run_ind_cpa,
    )


def test_criterion_09_predictable_proof_mutation():
    params = PrfspdParams(8, 8, 1, 6)
    _mutation_case(
        PrfspdScheme(8, ToyPrfspd(params, prf=lambda key, x, w: "0" * w)),
        PrfspdScheme(8, ToyPrfspd(params)),
        KeyReadoutAdversary,
        run_ind_cpa_eo,
        trials_honest=200,
    )


# --- criterion 10: no adversary beats the ensemble bound --------------------


def test_criterion_10_helstrom_consistency():
    trials = 2000
    # keyed single-shot ensemble, one copy
    bound = analysis.optimal_advantage("prfs", 2, 1, ("0", "1"), output_qubits=2).value
    scheme = PrfsScheme(2, PhasePrfs(PrfsParams(2, 2, 2)))
    for i, factory in enumerate(
        (lambda: StateComparisonAdversary(amplified=False), RandomGuessAdversary,
         AlwaysZeroAdversary)
    ):
        est = estimate_advantage(
            lambda c: run_ind_cpa(scheme, factory(), c), trials,
            np.random.default_rng(110 + i),
        )
        adv, sigma = measured_advantage(est)
        assert adv <= bound + 4 * sigma, f"keyed mode adversary {i}: {adv} > {bound}"
    # random-function single-shot ensemble, one copy, fresh function per run
    bound = analysis.optimal_advantage(
        "prfs", 2, 1, ("0", "1"), output_qubits=2, mode="random"
    ).value

    def random_function_runner(child):
        sc = PrfsScheme(2, PhasePrfs(PrfsParams(2, 2, 2), RandomFunctionTable(1, child)))
        return run_ind_cpa(sc, StateComparisonAdversary(amplified=False), child)

    est = estimate_advantage(random_function_runner, trials, np.random.default_rng(120))
    adv, sigma = measured_advantage(est)
    assert adv <= bound + 4 * sigma, f"random mode: {adv} > {bound}"
    # keyed measured-key ensemble, one copy
    bound = analysis.optimal_advantage("owf", 2, 1, ("00", "11"), output_qubits=2).value
    scheme = OwfScheme(2, prf_output_width=2)
    est = estimate_advantage(
        lambda c: run_ind_cpa(scheme, CopyMeasureAdversary(copies=1, pair=("00", "11")), c),
        trials, np.random.default_rng(121),
    )
    adv, sigma = measured_advantage(est)
    assert adv <= bound + 4 * sigma, f"measured-key mode: {adv} > {bound}"


# --- criterion 11: byte-identical reports -----------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["correctness", "--scheme", "owf", "--lambda", "3", "--seed", "7"],
        ["game", "--scheme", "prfs", "--game", "cpa", "--adversary", "random-guess",
         "--lambda", "3", "--trials", "150", "--seed", "7", "--format", "csv"],
        ["analyze", "--check", "punctured", "--seed", "7"],
    ],
    ids=["correctness", "game", "analyze"],
)
def test_criterion_11_deterministic_reports(tmp_path, argv):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
