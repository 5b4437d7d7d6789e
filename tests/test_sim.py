import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpklab import sim
from qpklab.bits import bits_to_int, int_to_bits
from qpklab.primitives import PrfspdParams, ToyPrfspd, prf_eval
from qpklab.schemes import DecryptionKey, OwfScheme, PrfspdScheme
from qpklab.sim import (
    DimensionMismatchError,
    EmptyProjectionError,
    PureState,
    WireRange,
)


def small_states(max_qubits=4):
    def build(draw):
        q = draw(st.integers(1, max_qubits))
        dim = 1 << q
        re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
        im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
        vec = np.array(re) + 1j * np.array(im)
        norm = np.linalg.norm(vec)
        if norm < 1e-6:
            vec = np.zeros(dim, dtype=complex)
            vec[0] = 1.0
            norm = 1.0
        return PureState(q, vec / norm)

    return st.composite(lambda draw: build(draw))()


# --- construction -----------------------------------------------------------


def test_uniform_superposition_amplitudes():
    s1 = sim.uniform_superposition(1)
    assert np.allclose(s1.amplitudes, [2**-0.5, 2**-0.5])
    s2 = sim.uniform_superposition(2)
    assert np.allclose(s2.amplitudes, [0.5] * 4)
    s3 = sim.uniform_superposition(3)
    assert abs(np.vdot(s3.amplitudes, s3.amplitudes).real - 1.0) < 1e-12


def test_uniform_superposition_capacity():
    with pytest.raises(sim.CapacityError):
        sim.uniform_superposition(0)
    with pytest.raises(sim.CapacityError):
        sim.uniform_superposition(sim.q_max() + 1)


def test_basis_state():
    s = sim.basis_state(3, "101")
    assert s.amplitudes[5] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(sim.CapacityError):
        PureState(0, np.array([1.0]))


def test_wire_range():
    r = WireRange(2, 3)
    assert r.mask == 0b111
    assert r.overlaps(WireRange(4, 2))
    assert not r.overlaps(WireRange(5, 2))
    with pytest.raises(ValueError):
        WireRange(-1, 2)
    with pytest.raises(ValueError):
        WireRange(0, 3).check_fits(2)


# --- oracles ----------------------------------------------------------------


def test_function_oracle_cnot():
    state = sim.tensor(sim.uniform_superposition(1), sim.basis_state(1, "0"))
    out = sim.apply_function_oracle(state, lambda x: x, WireRange(1, 1), WireRange(0, 1))
    # (|00> + |11>) / sqrt(2)
    assert np.allclose(out.amplitudes, [2**-0.5, 0.0, 0.0, 2**-0.5])


def test_function_oracle_constant_zero_is_identity(rng):
    state = sim.haar_random_state(3, rng)
    out = sim.apply_function_oracle(state, lambda x: "0", WireRange(1, 2), WireRange(0, 1))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_function_oracle_matches_direct_construction():
    lam, n = 3, 3
    dk = "101"
    base = sim.tensor(sim.uniform_superposition(lam), sim.basis_state(n, "0" * n))
    out = sim.apply_function_oracle(
        base, lambda x: prf_eval(dk, x, n), WireRange(n, lam), WireRange(0, n)
    )
    direct = np.zeros(1 << (lam + n), dtype=complex)
    for xv in range(1 << lam):
        yv = int(prf_eval(dk, int_to_bits(xv, lam), n), 2)
        direct[(xv << n) | yv] = 2 ** (-lam / 2)
    assert np.allclose(out.amplitudes, direct)


def test_function_oracle_errors(rng):
    state = sim.haar_random_state(2, rng)
    with pytest.raises(ValueError):
        sim.apply_function_oracle(state, lambda x: x, WireRange(0, 1), WireRange(0, 1))
    with pytest.raises(ValueError):
        sim.apply_function_oracle(state, lambda x: "00", WireRange(1, 1), WireRange(0, 1))


def test_phase_oracle():
    state = sim.uniform_superposition(2)
    same = sim.apply_phase_oracle(state, lambda y: 0)
    assert np.allclose(same.amplitudes, state.amplitudes)
    flipped = sim.apply_phase_oracle(state, lambda y: 1)
    assert abs(sim.fidelity(flipped, state) - 1.0) < 1e-12
    # predicate on the low bit turns the low qubit |+> into |->
    low = sim.apply_phase_oracle(state, lambda y: int(y[-1]))
    expected = sim.tensor(
        sim.uniform_superposition(1),
        PureState(1, np.array([2**-0.5, -(2**-0.5)])),
    )
    assert abs(sim.fidelity(low, expected) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sim.apply_phase_oracle(state, lambda y: 2)


# --- measurement ------------------------------------------------------------


def test_measure_basis_state_deterministic(rng):
    s = sim.basis_state(3, "110")
    outcome, post = sim.measure_computational(s, s.full_range(), rng)
    assert outcome == "110"
    assert np.allclose(post.amplitudes, s.amplitudes)


def test_measure_left_register_of_keyed_state(rng):
    lam = n = 2
    dk = "01"
    base = sim.tensor(sim.uniform_superposition(lam), sim.basis_state(n, "0" * n))
    state = sim.apply_function_oracle(
        base, lambda x: prf_eval(dk, x, n), WireRange(n, lam), WireRange(0, n)
    )
    probs = sim.born_probabilities(state, WireRange(n, lam))
    assert np.allclose(probs, [0.25] * 4)
    x, post = sim.measure_computational(state, WireRange(n, lam), rng)
    expected = sim.tensor(sim.basis_state(lam, x), sim.basis_state(n, prf_eval(dk, x, n)))
    assert abs(sim.fidelity(post, expected) - 1.0) < 1e-12


def test_measurement_frequencies_on_plus(rng):
    s = sim.uniform_superposition(1)
    shots = 10_000
    ones = sum(int(sim.measure_computational(s, s.full_range(), rng)[0]) for _ in range(shots))
    sigma = math.sqrt(shots * 0.25)
    assert abs(ones - shots / 2) < 3 * sigma


def test_measurement_idempotent(rng):
    state = sim.haar_random_state(4, rng)
    wires = WireRange(1, 2)
    out1, post = sim.measure_computational(state, wires, rng)
    for _ in range(3):
        out2, post = sim.measure_computational(post, wires, rng)
        assert out2 == out1


def test_sample_outcome_draws_what_measurement_draws():
    state = sim.haar_random_state(5, np.random.default_rng(3))
    for wires in (state.full_range(), WireRange(2, 3)):
        for seed in range(50):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sim.sample_outcome(state, wires, rng_a) == \
                sim.measure_computational(state, wires, rng_b)[0]
            assert rng_a.random() == rng_b.random()


def test_sample_outcome_matches_rng_choice_over_seeds():
    owf_key = OwfScheme(8).qpk_gen(DecryptionKey("10110010")).state
    haar = sim.haar_random_state(10, np.random.default_rng(4))
    cases = [(owf_key, owf_key.full_range()), (owf_key, WireRange(8, 8)),
             (haar, haar.full_range()), (haar, WireRange(3, 4))]
    for state, wires in cases:
        probs = sim.born_probabilities(state, wires)
        p = probs / probs.sum()
        for seed in range(1000):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sim.sample_outcome(state, wires, rng_a) == \
                int_to_bits(int(rng_b.choice(len(p), p=p)), wires.width)
            assert rng_a.random() == rng_b.random()


def _zero_ends_state():
    amps = sim.haar_random_state(6, np.random.default_rng(5)).amplitudes.copy()
    amps[[0, 17, 18, 63]] = 0.0
    return PureState(6, amps / np.linalg.norm(amps))


def _zero_control_state():
    control = PureState(2, np.array([0.0, 0.6, 0.8j, 0.0]))
    rng = np.random.default_rng(6)
    return sim.controlled_state(control, 3, lambda x: sim.haar_random_state(3, rng).amplitudes)


@pytest.mark.parametrize("build,control_width", [
    (lambda: OwfScheme(7).qpk_gen(DecryptionKey("1011001")).state, None),
    (lambda: PrfspdScheme(4, ToyPrfspd(PrfspdParams(4, 4, 1, 2))).qpk_gen(
        DecryptionKey("0110")).state.materialize(), None),
    (_zero_ends_state, None),
    (lambda: sim.basis_state(5, "10110"), None),
    (_zero_control_state, 2),
], ids=["owf-odd-lambda", "prfspd-slot", "zero-ends", "basis", "zero-control"])
def test_support_draws_match_rng_choice_over_seeds(build, control_width):
    """Full-register `sample_outcome`, or `measure_control` where a control width is given."""
    state = build()
    if control_width is None:
        wires = state.full_range()
        draw = lambda rng: sim.sample_outcome(state, wires, rng)
    else:
        wires = WireRange(state.qubit_count - control_width, control_width)
        draw = lambda rng: next(sim.measure_control(state, control_width, rng))[0]
    probs = sim.born_probabilities(state, wires)
    p = probs / probs.sum()
    for seed in range(1000):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert draw(rng_a) == int_to_bits(int(rng_b.choice(len(p), p=p)), wires.width)
        assert rng_a.random() == rng_b.random()


def test_full_register_draw_holds_one_probability_vector():
    state = OwfScheme(8).qpk_gen(DecryptionKey("10110010")).state
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        sim.sample_outcome(state, state.full_range(), rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (1 << 16) * 8


def test_project_zero_probability():
    prob, post = sim.project(sim.basis_state(2, "00"), WireRange(0, 2), "11")
    assert prob == 0.0 and post is None


# Index-mask versions of register selection: the reference the reshaped
# register views in sim are checked against.


def _reference_keep(state, wires, value):
    idx = np.arange(state.dim, dtype=np.int64)
    return ((idx >> wires.offset) & wires.mask) == value


def _reference_born(state, wires):
    idx = np.arange(state.dim, dtype=np.int64)
    vals = (idx >> wires.offset) & wires.mask
    weights = np.abs(state.amplitudes) ** 2
    return np.bincount(vals, weights=weights, minlength=1 << wires.width)


def _reference_project(state, wires, outcome):
    amps = np.where(_reference_keep(state, wires, bits_to_int(outcome)), state.amplitudes, 0.0)
    prob = float(np.vdot(amps, amps).real)
    if prob <= sim.ATOL_EXACT**2:
        return 0.0, None
    return prob, PureState(state.qubit_count, amps / np.sqrt(prob))


def _reference_puncture(state, marked, wires):
    amps = np.where(_reference_keep(state, wires, bits_to_int(marked)), 0.0, state.amplitudes)
    norm2 = float(np.vdot(amps, amps).real)
    if norm2 <= sim.ATOL_EXACT**2:
        raise EmptyProjectionError("puncturing removed all amplitude mass")
    return PureState(state.qubit_count, amps / np.sqrt(norm2))


def test_register_selection_matches_index_masks(rng):
    for q in range(1, 7):
        state = sim.haar_random_state(q, rng)
        for offset in range(q + 1):
            for width in range(q - offset + 1):
                wires = WireRange(offset, width)
                probs = sim.born_probabilities(state, wires)
                reference = _reference_born(state, wires)
                if width == q:
                    assert probs.tobytes() == reference.tobytes()
                else:
                    # same sums, different summation order
                    assert np.abs(probs - reference).max() <= 1e-15
                for v in range(1 << width):
                    bits = int_to_bits(v, width)
                    prob, post = sim.project(state, wires, bits)
                    ref_prob, ref_post = _reference_project(state, wires, bits)
                    assert prob == ref_prob
                    assert post.amplitudes.tobytes() == ref_post.amplitudes.tobytes()
                    if width == 0:
                        with pytest.raises(EmptyProjectionError):
                            sim.puncture(state, bits, wires)
                        continue
                    punctured = sim.puncture(state, bits, wires)
                    ref_punctured = _reference_puncture(state, bits, wires)
                    assert punctured.amplitudes.tobytes() == ref_punctured.amplitudes.tobytes()


def test_register_block_drops_the_register(rng):
    for q in range(1, 7):
        state = sim.haar_random_state(q, rng)
        idx = np.arange(state.dim)
        for offset in range(q + 1):
            for width in range(q - offset + 1):
                wires = WireRange(offset, width)
                for v in range(1 << width):
                    block = sim._register_block(state.amplitudes, wires, v)
                    # the kept indices in increasing order: wires above move down
                    reference = state.amplitudes[((idx >> offset) & wires.mask) == v]
                    assert block.tobytes() == reference.tobytes()


# --- distances and tests ----------------------------------------------------


def test_fidelity_trivials(rng):
    s = sim.haar_random_state(2, rng)
    assert abs(sim.fidelity(s, s) - 1.0) < 1e-12
    assert sim.fidelity(sim.basis_state(1, "0"), sim.basis_state(1, "1")) == 0.0
    # against the maximally mixed state, held as the ensemble of basis states
    s3 = sim.haar_random_state(3, rng)
    mean = np.mean([sim.fidelity(s3, sim.basis_state(3, int_to_bits(v, 3))) for v in range(8)])
    assert abs(mean - 2**-3) < 1e-12
    with pytest.raises(DimensionMismatchError):
        sim.fidelity(sim.basis_state(1, "0"), sim.basis_state(2, "00"))


def test_trace_distance_trivials(rng):
    s = sim.haar_random_state(2, rng)
    assert sim.trace_distance(s, s) == 0.0
    assert abs(sim.trace_distance(sim.basis_state(1, "0"), sim.basis_state(1, "1")) - 1.0) < 1e-12


def test_trace_distance_of_identical_states_is_accurate(rng):
    for q in (1, 3, 5, 10):
        for _ in range(20):
            a = sim.haar_random_state(q, rng)
            assert sim.trace_distance(a, PureState(q, a.amplitudes.copy())) <= 1e-15
            assert sim.trace_distance(a, PureState(q, np.exp(0.3j) * a.amplitudes)) <= 1e-15


def test_trace_distance_matches_half_trace_norm(rng):
    a = sim.haar_random_state(2, rng)
    b = sim.haar_random_state(2, rng)
    rho_a, rho_b = (np.outer(s.amplitudes, s.amplitudes.conj()) for s in (a, b))
    half_trace_norm = 0.5 * np.abs(np.linalg.eigvalsh(rho_a - rho_b)).sum()
    assert abs(sim.trace_distance(a, b) - half_trace_norm) < 1e-9


def test_swap_test(rng):
    s = sim.haar_random_state(2, rng)
    assert all(sim.swap_test(s, s, rng) == 1 for _ in range(50))
    zero, one = sim.basis_state(1, "0"), sim.basis_state(1, "1")
    shots = 10_000
    hits = sum(sim.swap_test(zero, one, rng) for _ in range(shots))
    sigma = math.sqrt(shots * 0.25)
    assert abs(hits - shots / 2) < 3 * sigma
    # overlap 1/sqrt(2) pair: accept probability 3/4
    diag = PureState(1, np.array([2**-0.5, 2**-0.5]))
    hits = sum(sim.swap_test(zero, diag, rng) for _ in range(shots))
    sigma = math.sqrt(shots * 0.75 * 0.25)
    assert abs(hits - shots * 0.75) < 3 * sigma


def test_project_onto(rng):
    ref = sim.basis_state(1, "0")
    accept, post = sim.project_onto(ref, ref, rng)
    assert accept == 1 and abs(sim.fidelity(post, ref) - 1.0) < 1e-12
    accept, post = sim.project_onto(sim.basis_state(1, "1"), ref, rng)
    assert accept == 0 and abs(sim.fidelity(post, sim.basis_state(1, "1")) - 1.0) < 1e-12


# --- puncture ---------------------------------------------------------------


def test_puncture_uniform():
    out = sim.puncture(sim.uniform_superposition(2), "00", WireRange(0, 2))
    assert np.allclose(out.amplitudes, [0.0] + [3**-0.5] * 3)


@pytest.mark.parametrize("lam", [3, 4, 5, 6])
def test_punctured_overlap_closed_form(lam):
    n = 2
    dk = "0" * lam
    base = sim.tensor(sim.uniform_superposition(lam), sim.basis_state(n, "0" * n))
    qpk = sim.apply_function_oracle(
        base, lambda x: prf_eval(dk, x, n), WireRange(n, lam), WireRange(0, n)
    )
    punctured = sim.puncture(qpk, "0" * lam, WireRange(n, lam))
    overlap = abs(np.vdot(qpk.amplitudes, punctured.amplitudes))
    assert abs(overlap - math.sqrt(1 - 2**-lam)) < 1e-10


def test_puncture_everything_errors():
    with pytest.raises(EmptyProjectionError):
        sim.puncture(sim.basis_state(2, "01"), "01", WireRange(0, 2))


def test_puncture_never_yields_marked(rng):
    state = sim.haar_random_state(3, rng)
    out = sim.puncture(state, "10", WireRange(0, 2))
    for _ in range(50):
        outcome, _ = sim.measure_computational(out, WireRange(0, 2), rng)
        assert outcome != "10"


# --- tensor and Haar --------------------------------------------------------


def test_tensor_basis():
    out = sim.tensor(sim.basis_state(1, "0"), sim.basis_state(1, "1"))
    assert out.amplitudes[0b01] == 1.0


def test_tensor_norm_and_overlap(rng):
    a, b = sim.haar_random_state(2, rng), sim.haar_random_state(2, rng)
    ab = sim.tensor(a, b)
    assert abs(np.vdot(ab.amplitudes, ab.amplitudes).real - 1.0) < 1e-12
    aa, bb = sim.tensor(a, a), sim.tensor(b, b)
    inner = np.vdot(aa.amplitudes, bb.amplitudes)
    assert abs(inner - np.vdot(a.amplitudes, b.amplitudes) ** 2) < 1e-10


def test_tensor_capacity():
    big = sim.uniform_superposition(sim.q_max() - 1)
    with pytest.raises(sim.CapacityError):
        sim.tensor(big, sim.uniform_superposition(2))


def test_haar_moments(rng):
    q, samples = 3, 10_000
    target = sim.basis_state(q, "0" * q)
    overlaps = [sim.fidelity(sim.haar_random_state(q, rng), target) for _ in range(samples)]
    mean = np.mean(overlaps)
    sigma = np.std(overlaps) / math.sqrt(samples)
    assert abs(mean - 2**-q) < 3 * sigma
    pair_overlaps = [
        sim.fidelity(sim.haar_random_state(q, rng), sim.haar_random_state(q, rng))
        for _ in range(2000)
    ]
    mean = np.mean(pair_overlaps)
    sigma = np.std(pair_overlaps) / math.sqrt(len(pair_overlaps))
    assert abs(mean - 2**-q) < 3 * sigma


# --- properties -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_states())
def test_oracle_preserves_norm(state):
    q = state.qubit_count
    if q < 2:
        out = sim.apply_phase_oracle(state, lambda y: int(y) % 2)
    else:
        out = sim.apply_function_oracle(
            state, lambda x: x[-1], WireRange(1, q - 1), WireRange(0, 1)
        )
    norm2 = float(np.vdot(out.amplitudes, out.amplitudes).real)
    assert abs(norm2 - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(small_states(), small_states())
def test_distance_fidelity_identity(a, b):
    if a.qubit_count != b.qubit_count:
        return
    rho_a, rho_b = (np.outer(s.amplitudes, s.amplitudes.conj()) for s in (a, b))
    half_trace_norm = 0.5 * np.abs(np.linalg.eigvalsh(rho_a - rho_b)).sum()
    # compared squared: sqrt(1 - F) near F = 1 is only good to sqrt(eps) ~ 1.5e-8
    assert abs(sim.trace_distance(a, b) ** 2 - half_trace_norm**2) < 1e-9
    assert abs(half_trace_norm**2 + sim.fidelity(a, b) - 1.0) < 1e-9


def test_born_consistency(rng):
    state = sim.haar_random_state(2, rng)
    wires = WireRange(0, 2)
    probs = sim.born_probabilities(state, wires)
    shots = 10_000
    counts = np.zeros(4)
    for _ in range(shots):
        outcome, _ = sim.measure_computational(state, wires, rng)
        counts[int(outcome, 2)] += 1
    for v in range(4):
        sigma = math.sqrt(shots * probs[v] * (1 - probs[v])) + 1e-9
        assert abs(counts[v] - shots * probs[v]) < 4 * sigma


def test_q_max_env_override(monkeypatch):
    monkeypatch.setenv("QPKLAB_QMAX", "6")
    assert sim.q_max() == 6
    with pytest.raises(sim.CapacityError):
        sim.uniform_superposition(7)
    monkeypatch.delenv("QPKLAB_QMAX")
    assert sim.q_max() == sim.DEFAULT_Q_MAX
