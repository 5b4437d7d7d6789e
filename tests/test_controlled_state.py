"""`sim.controlled_state`, `sim.GraphState` and `sim.measure_control` against the
constructions they replace.

The reference builders below are the earlier per-scheme constructions of the
public keys and of the measure-then-slice step. The shared routines must
reproduce them bit for bit, so keys, random draws and reports stay the same.
The PRFSPD key is a `GraphState` recipe: its dense state is read through
`materialize()`, and measuring the recipe must draw what measuring that
dense state draws.
"""

import tracemalloc

import numpy as np
import pytest

from qpklab import sim
from qpklab.bits import int_to_bits
from qpklab.primitives import PhasePrfs, PrfsParams, PrfspdParams, ToyPrfspd, prf_eval
from qpklab.schemes import DecryptionKey, OwfScheme, PrfsScheme, PrfspdScheme
from qpklab.sim import PureState, WireRange

# --- reference constructions -------------------------------------------------


def reference_owf_key(dk_bits, lam, n):
    """|0^n> tensored under the uniform input register, then the PRF XOR-oracle."""
    base = sim.tensor(sim.uniform_superposition(lam), sim.basis_state(n, "0" * n))
    f = lambda x: prf_eval(dk_bits, x, n)
    return sim.apply_function_oracle(base, f, WireRange(n, lam), WireRange(0, n))


def reference_prfspd_slot(family, dk_bits, lam):
    """Uniformly weighted slot states written block by block."""
    n = family.params.output_qubits
    amps = np.zeros(1 << (lam + n), dtype=np.complex128)
    scale = (1 << lam) ** -0.5
    for xv in range(1 << lam):
        psi = family.gen(dk_bits, int_to_bits(xv, lam))
        amps[xv << n : (xv + 1) << n] = scale * psi.amplitudes
    return PureState(lam + n, amps)


def reference_prfspd_slot_per_point(dk_bits, lam, m, t):
    """The slot state written one `prf_eval` call per (x, y), independent of `prf_table`."""
    n = m + t
    amps = np.zeros(1 << (lam + n), dtype=np.complex128)
    amplitude = (1 << lam) ** -0.5 * (1 << m) ** -0.5
    for xv in range(1 << lam):
        for yv in range(1 << m):
            tag = int(prf_eval(dk_bits, int_to_bits(xv, lam) + int_to_bits(yv, m), t), 2)
            amps[(xv << n) | (yv << t) | tag] = amplitude
    return PureState(lam + n, amps)


def reference_measure_slots(scheme, state, rng):
    """lam single-copy measurements of the slot state, each followed by its delete."""
    lam = scheme.security_param
    residue = []
    for _ in range(lam):
        x, block = reference_measure_block(state, lam, rng)
        proof = scheme.prfspd.delete(PureState(state.qubit_count - lam, block), rng)
        residue.append((x, proof))
    return tuple(residue)


def reference_isometry(family, key, state):
    """sum_x a_x |x>|psi_{k,x}>, skipping the inputs with a_x = 0."""
    d = family.params.input_width
    n = family.params.output_qubits
    out = np.zeros(1 << (d + n), dtype=np.complex128)
    for xv in range(1 << d):
        a = state.amplitudes[xv]
        if a == 0:
            continue
        psi = family.gen(key, int_to_bits(xv, d))
        out[xv << n : (xv << n) + (1 << n)] = a * psi.amplitudes
    return PureState(d + n, out)


def reference_measure_block(state, control_width, rng):
    """Measure the control wires, then slice the outcome's block out by hand."""
    n = state.qubit_count - control_width
    x, post = sim.measure_computational(state, WireRange(n, control_width), rng)
    return x, post.amplitudes[int(x, 2) << n : (int(x, 2) + 1) << n]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- keys ---------------------------------------------------------------------


@pytest.mark.parametrize("lam,n", [(1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4)])
def test_owf_key_bitwise_equal_to_oracle_construction(lam, n):
    scheme = OwfScheme(lam, prf_output_width=n)
    for kv in range(min(1 << lam, 4)):
        dk = int_to_bits(kv, lam)
        key = scheme.qpk_gen(DecryptionKey(dk)).state
        assert same_bits(key.amplitudes, reference_owf_key(dk, lam, n).amplitudes)


def test_owf_key_rejects_prf_output_of_wrong_width():
    scheme = OwfScheme(3, prf_output_width=2, prf=lambda key, x, width: "0" * (width + 1))
    with pytest.raises(ValueError):
        scheme.qpk_gen(DecryptionKey("101"))


@pytest.mark.parametrize("lam,m,t", [(1, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 1)])
def test_prfspd_slots_bitwise_equal_to_loop_construction(lam, m, t):
    family = ToyPrfspd(PrfspdParams(lam, lam, m, t))
    scheme = PrfspdScheme(lam, family)
    for kv in range(min(1 << lam, 4)):
        dk = int_to_bits(kv, lam)
        slot = scheme.qpk_gen(DecryptionKey(dk)).state.materialize()
        reference = reference_prfspd_slot(family, dk, lam)
        assert same_bits(slot.amplitudes, reference.amplitudes)


@pytest.mark.parametrize("lam", range(1, 10))
def test_public_keys_bitwise_equal_to_per_point_prf_construction(lam):
    n = min(lam, 8)
    dk = "101101101"[:lam]
    owf = OwfScheme(lam, prf_output_width=n).qpk_gen(DecryptionKey(dk)).state
    assert same_bits(owf.amplitudes, reference_owf_key(dk, lam, n).amplitudes)
    m, t = 1, 6
    slot = PrfspdScheme(lam, ToyPrfspd(PrfspdParams(lam, lam, m, t))).qpk_gen(DecryptionKey(dk))
    assert same_bits(slot.state.materialize().amplitudes,
                     reference_prfspd_slot_per_point(dk, lam, m, t).amplitudes)


@pytest.mark.parametrize("d,n", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_isometry_bitwise_equal_to_loop_construction(d, n):
    family = PhasePrfs(PrfsParams(d, d, n))
    rng = np.random.default_rng(5)
    inputs = [sim.uniform_superposition(d), sim.haar_random_state(d, rng),
              sim.basis_state(d, "1" * d)]
    for key in ("0" * d, "1" * d):
        for state in inputs:
            got = family.oracle_isometry(key, state)
            assert same_bits(got.amplitudes, reference_isometry(family, key, state).amplitudes)


def test_isometry_on_a_basis_state_calls_gen_once():
    family = PhasePrfs(PrfsParams(3, 3, 2))
    calls = []
    gen = family.gen
    family.gen = lambda key, x: calls.append(x) or gen(key, x)
    family.oracle_isometry("101", sim.basis_state(3, "110"))
    assert calls == ["110"]


def test_controlled_state_layout_control_high():
    control = PureState(2, np.array([0.6, 0.0, 0.0, 0.8]))
    blocks = {"00": np.array([0.0, 1.0]), "11": np.array([1.0, 0.0])}
    calls = []

    def block_of(x):
        calls.append(x)
        return blocks[x]

    state = sim.controlled_state(control, 1, block_of)
    assert calls == ["00", "11"]
    assert state.qubit_count == 3
    assert np.array_equal(state.amplitudes, [0, 0.6, 0, 0, 0, 0, 0.8, 0])


def test_controlled_state_capacity_error_before_allocation(monkeypatch):
    control = sim.uniform_superposition(3)
    monkeypatch.setenv("QPKLAB_QMAX", "4")

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(sim.np, "zeros", no_allocation)
    calls = []
    with pytest.raises(sim.CapacityError):
        sim.controlled_state(control, 2, calls.append)
    assert calls == []


def counting_prf(calls):
    def prf(key, x, width):
        calls.append(x)
        return prf_eval(key, x, width)
    return prf


@pytest.mark.parametrize("lam,n", [(3, 2), (6, 4)])
def test_owf_key_calls_the_prf_once_per_input(lam, n):
    calls = []
    OwfScheme(lam, prf_output_width=n, prf=counting_prf(calls)).qpk_gen(DecryptionKey("1" * lam))
    assert sorted(calls) == [int_to_bits(xv, lam) for xv in range(1 << lam)]


@pytest.mark.parametrize("lam,m,t", [(3, 1, 2), (4, 2, 1), (8, 1, 6)])
def test_prfspd_slot_calls_the_prf_once_per_point_and_caches_nothing(lam, m, t):
    calls = []
    family = ToyPrfspd(PrfspdParams(lam, lam, m, t), prf=counting_prf(calls))
    PrfspdScheme(lam, family).qpk_gen(DecryptionKey("0" * lam)).state.materialize()
    assert sorted(calls) == [int_to_bits(v, lam + m) for v in range(1 << (lam + m))]
    assert family._cache == {}


@pytest.mark.parametrize("lam,m,t", [(3, 1, 2), (4, 2, 1), (8, 1, 6), (6, 3, 3)])
def test_prfspd_key_evaluates_only_the_measured_blocks(lam, m, t):
    calls = []
    family = ToyPrfspd(PrfspdParams(lam, lam, m, t), prf=counting_prf(calls))
    scheme = PrfspdScheme(lam, family)
    qpk = scheme.qpk_gen(DecryptionKey("0" * lam))
    assert calls == []
    scheme._measure_slots(qpk, np.random.default_rng(1))
    # each slot's block: its 2^m points (x, y), and nothing else
    assert len(calls) == lam << m
    assert sorted(calls) == sorted(x + int_to_bits(yv, m)
                                   for x, _proof in qpk.residue for yv in range(1 << m))
    assert family._cache == {}


def test_prfspd_key_and_first_encryption_allocate_no_slot_state():
    lam, m, t = 8, 1, 6
    scheme = PrfspdScheme(lam, ToyPrfspd(PrfspdParams(lam, lam, m, t)))
    # a first key and encryption, untraced, so one-time imports and caches are not counted
    scheme.encrypt(scheme.qpk_gen(DecryptionKey("0" * lam)), "0110", np.random.default_rng(1))
    tracemalloc.start()
    try:
        scheme.encrypt(scheme.qpk_gen(DecryptionKey("10110010")), "0110",
                       np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense slot state alone would be 2^15 amplitudes of 16 bytes, 512 KB
    assert peak < 64 * 1024


def test_graph_state_capacity_error_before_allocation(monkeypatch):
    control = sim.uniform_superposition(3)
    monkeypatch.setenv("QPKLAB_QMAX", "4")

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(sim.np, "zeros", no_allocation)
    calls = []
    with pytest.raises(sim.CapacityError):
        sim.GraphState(control, 2, calls.append).materialize()
    assert calls == []


def test_graph_state_calls_cells_of_once_with_the_nonzero_rows():
    control = PureState(2, np.array([0.6, 0.0, 0.0, 0.8]))
    calls = []

    def cells_of(rows):
        calls.append(rows.tolist())
        return np.array([1, 0])

    state = sim.GraphState(control, 1, cells_of).materialize()
    assert calls == [[0, 3]]
    assert np.array_equal(state.amplitudes, [0, 0.6, 0, 0, 0, 0, 0.8, 0])


# --- measurement --------------------------------------------------------------


def dense(state):
    return state.materialize() if isinstance(state, sim.GraphState) else state


def test_measure_control_matches_measure_then_slice_over_seeds():
    prfs_key = PrfsScheme(3, PhasePrfs(PrfsParams(3, 3, 2))).qpk_gen(DecryptionKey("110"))
    prfspd = PrfspdScheme(3, ToyPrfspd(PrfspdParams(3, 3, 1, 2)))
    slot = prfspd.qpk_gen(DecryptionKey("011")).state
    rng = np.random.default_rng(8)
    haar = sim.controlled_state(sim.haar_random_state(2, rng), 3,
                                lambda x: sim.haar_random_state(3, rng).amplitudes)
    for state, control_width in ((prfs_key.state, 3), (slot, 3), (slot.materialize(), 3),
                                 (haar, 2)):
        for seed in range(60):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            x, block = next(sim.measure_control(state, control_width, rng_a))
            x_ref, block_ref = reference_measure_block(dense(state), control_width, rng_b)
            assert x == x_ref
            assert block.qubit_count == state.qubit_count - control_width
            assert same_bits(block.amplitudes, block_ref)
            assert rng_a.random() == rng_b.random()
    with pytest.raises(ValueError, match="3-qubit control"):
        next(sim.measure_control(slot, 2, np.random.default_rng(0)))


def test_measure_control_slices_the_block_without_a_full_size_post_state(monkeypatch):
    slot = PrfspdScheme(8, ToyPrfspd(PrfspdParams(8, 8, 1, 6))).qpk_gen(DecryptionKey("10110010"))
    prfs_key = PrfsScheme(6, PhasePrfs(PrfsParams(6, 6, 4))).qpk_gen(DecryptionKey("011010"))
    cases = [(key.state, control_width, seed)
             for key, control_width in ((slot, 8), (prfs_key, 6)) for seed in range(20)]
    references = []
    for state, control_width, seed in cases:
        rng = np.random.default_rng(seed)
        references.append((*reference_measure_block(dense(state), control_width, rng),
                           rng.random()))

    def full_size(*args, **kwargs):
        raise AssertionError("measure_control built a full-size post-measurement state")

    monkeypatch.setattr(sim, "project", full_size)
    monkeypatch.setattr(sim, "measure_computational", full_size)
    for (state, control_width, seed), (x_ref, block_ref, next_ref) in zip(cases, references):
        rng = np.random.default_rng(seed)
        x, block = next(sim.measure_control(state, control_width, rng))
        assert x == x_ref
        assert same_bits(block.amplitudes, block_ref)
        assert rng.random() == next_ref


@pytest.mark.parametrize("lam,m,t,seeds", [(4, 1, 2, 1000), (8, 1, 6, 100), (4, 2, 2, 400),
                                           (6, 3, 3, 200)])
def test_slot_measurements_draw_what_single_copy_measurements_drew(lam, m, t, seeds):
    scheme = PrfspdScheme(lam, ToyPrfspd(PrfspdParams(lam, lam, m, t)))
    state = scheme.qpk_gen(DecryptionKey("1" * lam)).state.materialize()
    for seed in range(seeds):
        qpk = scheme.qpk_gen(DecryptionKey("1" * lam))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        scheme._measure_slots(qpk, rng_a)
        assert qpk.residue == reference_measure_slots(scheme, state, rng_b)
        assert rng_a.random() == rng_b.random()


def test_slot_measurements_compute_the_control_marginal_once(monkeypatch):
    lam = 8
    scheme = PrfspdScheme(lam, ToyPrfspd(PrfspdParams(lam, lam, 1, 6)))
    qpk = scheme.qpk_gen(DecryptionKey("10110010"))
    measured = []
    born = sim.born_probabilities

    def counting(state, wires):
        measured.append(state.qubit_count)
        return born(state, wires)

    monkeypatch.setattr(sim, "born_probabilities", counting)
    scheme._measure_slots(qpk, np.random.default_rng(3))
    # one marginal over the 8-qubit control, then one per 7-qubit block that `delete` measures
    assert measured == [lam] + [7] * lam
