import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpklab import sim
from qpklab.bits import int_to_bits, random_bits
from qpklab.primitives import (
    FixedNonceSke,
    PhasePrfs,
    PrfsParams,
    PrfspdParams,
    RandomFunctionTable,
    StreamSke,
    ToyPrfspd,
    prf_eval,
    prf_table,
)

bitstrings = st.text(alphabet="01", min_size=1, max_size=24)


# --- keyed function ---------------------------------------------------------


def test_prf_deterministic():
    assert prf_eval("101", "0110", 16) == prf_eval("101", "0110", 16)
    assert len(prf_eval("101", "0110", 13)) == 13
    with pytest.raises(ValueError):
        prf_eval("10a", "01", 4)


def test_prf_distinct_keys_differ():
    rng = np.random.default_rng(3)
    same = 0
    samples = 1000
    for _ in range(samples):
        k1, k2 = random_bits(8, rng), random_bits(8, rng)
        if k1 == k2:
            continue
        x = random_bits(8, rng)
        same += int(prf_eval(k1, x, 8) == prf_eval(k2, x, 8))
    assert same / samples <= 2**-7 + 0.02


def test_prf_truth_table_against_reference():
    """Normative derivation: first w bits of SHA-256("qpklab-prf|<k>|<x>:<i>")."""

    def reference(key, x, width):
        out = ""
        counter = 0
        while len(out) < width:
            digest = hashlib.sha256(f"qpklab-prf|{key}|{x}:{counter}".encode()).digest()
            out += bin(int.from_bytes(digest, "big"))[2:].zfill(256)
            counter += 1
        return out[:width]

    for kv in range(8):
        for xv in range(8):
            k, x = int_to_bits(kv, 3), int_to_bits(xv, 3)
            assert prf_eval(k, x, 11) == reference(k, x, 11)
    assert prf_eval("1", "0", 300) == reference("1", "0", 300)
    # widths at and across the 256-bit digest boundaries
    for width in (0, 1, 255, 256, 257, 512):
        assert prf_eval("101", "0110", width) == reference("101", "0110", width)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prf_table_matches_prf_eval_point_by_point(data):
    key = data.draw(st.text(alphabet="01", max_size=12))
    in_width = data.draw(st.integers(0, 10))
    out_width = data.draw(st.integers(1, 300))
    inputs = data.draw(st.lists(st.integers(0, (1 << in_width) - 1), min_size=1, max_size=12))
    table = prf_table(key, np.array(inputs), in_width, out_width)
    assert table.dtype == (np.int64 if out_width <= 63 else object)
    assert [int(v) for v in table] == [int(prf_eval(key, int_to_bits(v, in_width), out_width), 2)
                                       for v in inputs]


def test_prf_table_keeps_the_shape_of_its_inputs():
    inputs = np.arange(12).reshape(3, 4)
    table = prf_table("0110", inputs, 4, 7)
    assert table.shape == (3, 4)
    assert table.tolist() == [[int(prf_eval("0110", int_to_bits(v, 4), 7), 2) for v in row]
                              for row in inputs.tolist()]


def test_prf_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prf_table("10a", [0], 2, 4)
    with pytest.raises(ValueError):
        prf_table("10", [4], 2, 4)
    with pytest.raises(ValueError):
        prf_table("10", [-1], 2, 4)
    with pytest.raises(ValueError):
        prf_table("10", [0], 2, -3)


def recording_prf(calls):
    def prf(key, x, width):
        calls.append(x)
        return prf_eval(key, x, width)
    return prf


def test_prf_table_calls_an_injected_prf_once_per_point():
    calls = []
    table = prf_table("101", np.array([[5, 0], [3, 7]]), 3, 9, recording_prf(calls))
    assert calls == ["101", "000", "011", "111"]
    assert table.tolist() == [[int(prf_eval("101", x, 9), 2) for x in pair]
                              for pair in (("101", "000"), ("011", "111"))]
    with pytest.raises(ValueError):
        prf_table("101", [0], 3, 4, lambda key, x, width: "0" * (width + 1))


# --- random-function table --------------------------------------------------


def test_table_consistency():
    rng = np.random.default_rng(9)
    table = RandomFunctionTable(6, rng)
    seen = {}
    for _ in range(20_000):
        x = random_bits(4, rng)
        y = table("", x, 6)
        assert len(y) == 6
        assert seen.setdefault(x, y) == y
    assert table.known_entries() == seen


def test_table_rejects_a_foreign_output_width():
    table = RandomFunctionTable(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outputs 1 bits, asked for 2"):
        table("", "01", 2)
    assert table.known_entries() == {}


def test_ske_round_trip(rng):
    ske = StreamSke()
    ct = ske.encrypt("10110010", "0" * 8, rng)
    assert ske.decrypt("10110010", ct) == "0" * 8
    for width in (1, 8, 64):
        m = random_bits(width, rng)
        ct = ske.encrypt("1011", m, rng)
        assert ske.decrypt("1011", ct) == m


def test_ske_empty_message(rng):
    ske = StreamSke()
    ct = ske.encrypt("1011", "", rng)
    assert ct.body == ""
    assert ske.decrypt("1011", ct) == ""


def test_ske_exhaustive_small():
    """Round trip exact for all keys and all nonce draws at tiny width."""
    ske = StreamSke()
    rng = np.random.default_rng(0)
    for kv in range(8):
        key = int_to_bits(kv, 3)
        for mv in range(16):
            m = int_to_bits(mv, 4)
            for _ in range(4):
                assert ske.decrypt(key, ske.encrypt(key, m, rng)) == m


def test_ske_fresh_nonces(rng):
    # encrypting the same message twice repeats the nonce only w.p. 2^-lambda
    ske = StreamSke()
    distinct_pairs = sum(
        ske.encrypt("10110100", "1111", rng).nonce != ske.encrypt("10110100", "1111", rng).nonce
        for _ in range(200)
    )
    assert distinct_pairs >= 195


def test_ske_wrong_key(rng):
    ske = StreamSke()
    wrong = 0
    for _ in range(200):
        m = random_bits(8, rng)
        ct = ske.encrypt("10110100", m, rng)
        wrong += int(ske.decrypt("01001011", ct) != m)
    assert wrong >= 195


def test_ske_errors(rng):
    with pytest.raises(ValueError):
        StreamSke().encrypt("", "101", rng)
    with pytest.raises(ValueError):
        StreamSke().encrypt("01", "10x", rng)


def test_fixed_nonce_mutation(rng):
    ske = FixedNonceSke()
    c1 = ske.encrypt("1010", "1111", rng)
    c2 = ske.encrypt("1010", "0000", rng)
    assert c1.nonce == c2.nonce == "0000"
    assert ske.decrypt("1010", c1) == "1111"


@given(key=bitstrings, message=bitstrings)
@settings(max_examples=60, deadline=None)
def test_ske_round_trip_property(key, message):
    ske = StreamSke()
    rng = np.random.default_rng(0)
    assert ske.decrypt(key, ske.encrypt(key, message, rng)) == message


# --- function-like states ---------------------------------------------------


def test_prfs_phase_state_shape():
    prfs = PhasePrfs(PrfsParams(3, 3, 3))
    state = prfs.gen("101", "010")
    assert np.allclose(np.abs(state.amplitudes), 2 ** (-3 / 2))
    again = prfs.gen("101", "010")
    assert abs(sim.fidelity(state, again) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        prfs.gen("10", "010")


def test_prfs_params_validation():
    with pytest.raises(ValueError):
        PrfsParams(2, 2, 0)


def test_prfs_cross_overlap_moment():
    prfs = PhasePrfs(PrfsParams(8, 8, 4))
    rng = np.random.default_rng(12)
    samples = 1000
    overlaps = []
    for _ in range(samples):
        k = random_bits(8, rng)
        x1, x2 = random_bits(8, rng), random_bits(8, rng)
        if x1 == x2:
            continue
        overlaps.append(sim.fidelity(prfs.gen(k, x1), prfs.gen(k, x2)))
    mean = np.mean(overlaps)
    sigma = np.std(overlaps) / math.sqrt(len(overlaps))
    assert abs(mean - 2**-4) < 3 * sigma


def test_prfs_isometry():
    prfs = PhasePrfs(PrfsParams(2, 2, 2))
    basis = prfs.oracle_isometry("01", sim.basis_state(2, "10"))
    expected = sim.tensor(sim.basis_state(2, "10"), prfs.gen("01", "10"))
    assert abs(sim.fidelity(basis, expected) - 1.0) < 1e-12
    spread = prfs.oracle_isometry("01", sim.uniform_superposition(2))
    norm2 = float(np.vdot(spread.amplitudes, spread.amplitudes).real)
    assert abs(norm2 - 1.0) < 1e-10
    with pytest.raises(sim.DimensionMismatchError):
        prfs.oracle_isometry("01", sim.basis_state(3, "000"))


def test_prfs_tester(rng):
    prfs = PhasePrfs(PrfsParams(3, 3, 4))
    state = prfs.gen("110", "001")
    assert prfs.test_exact("110", "001", state) == 1.0
    basis = [sim.basis_state(4, int_to_bits(v, 4)) for v in range(16)]
    assert abs(np.mean([prfs.test_exact("110", "001", b) for b in basis]) - 2**-4) < 1e-12
    assert prfs.test("110", "001", state, rng) == 1
    hits = sum(prfs.test("110", "001", sim.basis_state(4, "0000"), rng) for _ in range(2000))
    sigma = math.sqrt(2000 * 2**-4)
    assert abs(hits - 2000 * 2**-4) < 4 * sigma


def test_table_prfs_uses_table():
    rng = np.random.default_rng(4)
    prfs = PhasePrfs(PrfsParams(2, 2, 2), RandomFunctionTable(1, rng))
    # phase bits ignore the key: any two keys produce the same state
    assert abs(sim.fidelity(prfs.gen("00", "10"), prfs.gen("11", "10")) - 1.0) < 1e-12


def test_constant_prfs_is_input_blind():
    prfs = PhasePrfs(PrfsParams(2, 2, 3), lambda key, x, w: "0" * w)
    a, b = prfs.gen("00", "01"), prfs.gen("11", "10")
    assert abs(sim.fidelity(a, b) - 1.0) < 1e-12
    assert np.allclose(a.amplitudes, 2 ** (-3 / 2))


def test_phase_family_calls_its_prf_once_per_sign():
    n = 3
    calls = []
    prfs = PhasePrfs(PrfsParams(3, 3, n), prf=recording_prf(calls))
    state = prfs.gen("101", "011")
    assert calls == ["011" + int_to_bits(v, n) for v in range(1 << n)]
    assert prfs.gen("101", "011") is state  # a cache hit calls nothing
    assert len(calls) == 1 << n
    scale = (1 << n) ** -0.5
    reference = [-scale if prf_eval("101", "011" + int_to_bits(v, n), 1) == "1" else scale
                 for v in range(1 << n)]
    assert np.array_equal(state.amplitudes, np.array(reference, dtype=np.complex128))


def test_random_function_family_draws_the_table_stream():
    """Phase bits are the twin generator's `random_bits(1, .)` in first-query order."""
    n = 3
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    prfs = PhasePrfs(PrfsParams(2, 2, n), RandomFunctionTable(1, rng))
    scale = (1 << n) ** -0.5
    table = {}
    # the second key repeats the first input: a cold `gen` that draws nothing
    for key, x in [("00", "10"), ("11", "10"), ("00", "01"), ("01", "11")]:
        expected = []
        for v in range(1 << n):
            point = x + int_to_bits(v, n)
            if point not in table:
                table[point] = random_bits(1, twin)
            expected.append(-scale if table[point] == "1" else scale)
        assert np.array_equal(prfs.gen(key, x).amplitudes, np.array(expected, dtype=np.complex128))
    assert rng.random() == twin.random()


def test_random_phase_outcome_uniformity(rng):
    """First-moment smoke check: measurement outcomes of random-function phase
    states are uniform, matching Haar samples' marginal, within 4sigma."""
    n, shots = 4, 10_000
    prfs = PhasePrfs(PrfsParams(4, 4, n), RandomFunctionTable(1, rng))
    counts = np.zeros(1 << n)
    for i in range(shots):
        state = prfs.gen("0000", random_bits(4, rng)) if i % 2 else sim.haar_random_state(n, rng)
        outcome, _ = sim.measure_computational(state, state.full_range(), rng)
        counts[int(outcome, 2)] += 1
    expected = shots / (1 << n)
    sigma = math.sqrt(shots * (1 / (1 << n)) * (1 - 1 / (1 << n)))
    assert np.all(np.abs(counts - expected) < 4 * sigma)


# --- proofs of destruction --------------------------------------------------


def test_prfspd_round_trip_enumerated(rng):
    params = PrfspdParams(3, 3, 1, 3)
    pd = ToyPrfspd(params)
    for kv in range(8):
        for xv in range(8):
            k, x = int_to_bits(kv, 3), int_to_bits(xv, 3)
            proof = pd.delete(pd.gen(k, x), rng)
            assert pd.verify(k, x, proof) == 1


def test_prfspd_accepting_density_exact():
    params = PrfspdParams(3, 3, 2, 3)
    pd = ToyPrfspd(params)
    accepted = sum(
        pd.verify("101", "010", int_to_bits(v, params.proof_width))
        for v in range(1 << params.proof_width)
    )
    assert accepted / (1 << params.proof_width) == pd.accepting_density() == 2**-3


def test_prfspd_proof_collisions(rng):
    params = PrfspdParams(3, 3, 2, 2)
    pd = ToyPrfspd(params)
    distinct = 0
    trials = 600
    for _ in range(trials):
        state = pd.gen("110", "011")
        p1, p2 = pd.delete(state, rng), pd.delete(state, rng)
        distinct += int(p1 != p2)
    expect = trials * (1 - 2**-2)
    sigma = math.sqrt(trials * (1 - 2**-2) * 2**-2)
    assert abs(distinct - expect) < 4 * sigma


def test_prfspd_params_validation():
    with pytest.raises(ValueError, match="measured width"):
        PrfspdParams(3, 3, -1, 2)
    with pytest.raises(ValueError, match="tag width"):
        PrfspdParams(3, 3, 1, 0)
    assert PrfspdParams(3, 3, 0, 1).output_qubits == 1


def test_prfspd_isometry_on_a_basis_state_evaluates_only_its_row():
    lam, m, t = 5, 2, 3
    calls = []
    family = ToyPrfspd(PrfspdParams(lam, lam, m, t), prf=recording_prf(calls))
    state = family.oracle_isometry("10110", sim.basis_state(lam, "01101"))
    assert sorted(calls) == ["01101" + int_to_bits(y, m) for y in range(1 << m)]
    block = ToyPrfspd(family.params).gen("10110", "01101")
    expected = sim.tensor(sim.basis_state(lam, "01101"), block)
    assert np.array_equal(state.amplitudes, expected.amplitudes)


def test_prfspd_errors(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 3))
    with pytest.raises(ValueError):
        pd.gen("10", "010")
    with pytest.raises(sim.DimensionMismatchError):
        pd.delete(sim.uniform_superposition(3), rng)
    with pytest.raises(ValueError):
        pd.verify("101", "010", "01")


# --- state-family cache -------------------------------------------------------


@pytest.mark.parametrize("make_family", [
    lambda: PhasePrfs(PrfsParams(7, 7, 1)),
    lambda: ToyPrfspd(PrfspdParams(7, 7, 1, 1)),
], ids=["phase-prfs", "toy-prfspd"])
def test_family_cache_reuses_states_and_stays_bounded(make_family):
    family = make_family()
    first = family.gen("0000000", "0000000")
    assert family.gen("0000000", "0000000") is first
    sizes = []
    for v in range(8200):
        key, x = int_to_bits(v >> 7, 7), int_to_bits(v & 127, 7)
        state = family.gen(key, x)
        assert family.gen(key, x) is state
        sizes.append(len(family._cache))
    assert max(sizes) == 8193
    assert sizes[-1] < 8193  # emptied once it held more than 8192



@pytest.mark.parametrize("make_family", [
    lambda: PhasePrfs(PrfsParams(3, 3, 2)),
    lambda: ToyPrfspd(PrfspdParams(3, 3, 1, 2)),
], ids=["phase-prfs", "toy-prfspd"])
def test_family_cache_hands_out_read_only_states(make_family):
    family = make_family()
    state = family.gen("101", "011")
    before = state.amplitudes.copy()
    with pytest.raises(ValueError):
        state.amplitudes[:] = 0.0
    with pytest.raises(ValueError):
        state.amplitudes[0] *= -1
    assert family.gen("101", "011") is state
    assert np.array_equal(state.amplitudes, before)
