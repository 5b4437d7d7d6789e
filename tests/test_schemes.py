import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpklab import sim
from qpklab.bits import int_to_bits, random_bits
from qpklab.primitives import (
    PhasePrfs,
    PrfsParams,
    PrfspdParams,
    PrfspdProof,
    SkeCiphertext,
    ToyPrfspd,
    prf_eval,
)
from qpklab.schemes import (
    DecryptionKey,
    KeyConsumedError,
    OwfScheme,
    PrfsScheme,
    PrfspdScheme,
    Scheme1Ciphertext,
    Scheme2Ciphertext,
    SchemeError,
    deserialize_ciphertext,
    serialize_ciphertext,
)

bit_fields = st.text(alphabet="01", min_size=1, max_size=16)


def make_prfspd_scheme(lam=3, m=1, t=3):
    return PrfspdScheme(lam, ToyPrfspd(PrfspdParams(lam, lam, m, t)))


def make_prfs_scheme(lam=3, n=2):
    return PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, n)))


# --- key generation ---------------------------------------------------------


def test_gen_contract():
    scheme = OwfScheme(6)
    dk = scheme.gen(np.random.default_rng(5))
    assert len(dk.bits) == 6
    assert scheme.gen(np.random.default_rng(5)) == dk
    assert scheme.gen(np.random.default_rng(6)) != dk
    with pytest.raises(SchemeError):
        OwfScheme(0)


# --- public keys ------------------------------------------------------------


def test_owf_qpk_amplitudes():
    scheme = OwfScheme(3, prf_output_width=3)
    dk = DecryptionKey("101")
    state = scheme.qpk_gen(dk).states[0]
    for xv in range(8):
        y = int(prf_eval("101", int_to_bits(xv, 3), 3), 2)
        for zv in range(8):
            amp = state.amplitudes[(xv << 3) | zv]
            if zv == y:
                assert abs(amp - 2 ** (-3 / 2)) < 1e-12
            else:
                assert amp == 0


@pytest.mark.parametrize(
    "factory", [lambda: OwfScheme(3), lambda: make_prfspd_scheme(), lambda: make_prfs_scheme()]
)
def test_qpk_gen_repeatable(factory):
    scheme = factory()
    dk = scheme.gen(np.random.default_rng(2))
    a, b = scheme.qpk_gen(dk), scheme.qpk_gen(dk)
    for sa, sb in zip(a.states, b.states):
        assert abs(sim.fidelity(sa, sb) - 1.0) < 1e-10
    # copies share one read-only state tuple but not the recycling record
    assert a is not b
    assert all(sa is sb for sa, sb in zip(a.states, b.states))
    for state in a.states:
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
    message = "1" if scheme.name == "prfs" else "0110"
    rng = np.random.default_rng(3)
    scheme.encrypt(a, message, rng)
    assert b.residue is None and not b.consumed
    _qpk, ct = scheme.encrypt(b, message, rng)
    if scheme.name != "prfs":
        assert scheme.decrypt(dk, ct) == message
    other = DecryptionKey("".join("1" if c == "0" else "0" for c in dk.bits))
    c = scheme.qpk_gen(other)
    assert c.states[0] is not a.states[0]
    assert abs(sim.fidelity(c.states[0], a.states[0]) - 1.0) > 1e-6


def test_prfs_qpk_matches_isometry():
    scheme = make_prfs_scheme(3, 2)
    dk = DecryptionKey("011")
    qpk = scheme.qpk_gen(dk).states[0]
    direct = scheme.prfs.oracle_isometry("011", sim.uniform_superposition(3))
    assert abs(sim.fidelity(qpk, direct) - 1.0) < 1e-12


def test_capacity_limits():
    with pytest.raises(sim.CapacityError):
        OwfScheme(12, prf_output_width=12)
    with pytest.raises(sim.CapacityError):
        PrfspdScheme(12, ToyPrfspd(PrfspdParams(12, 12, 4, 8)))


def test_width_mismatch_rejected():
    with pytest.raises(SchemeError):
        PrfsScheme(4, PhasePrfs(PrfsParams(3, 3, 2)))
    with pytest.raises(SchemeError):
        PrfspdScheme(4, ToyPrfspd(PrfspdParams(3, 3, 1, 2)))


# --- scheme 1 ---------------------------------------------------------------


def test_owf_exhaustive_round_trip(rng):
    scheme = OwfScheme(2, prf_output_width=2)
    for kv in range(4):
        dk = DecryptionKey(int_to_bits(kv, 2))
        for xv in range(4):
            x = int_to_bits(xv, 2)
            y = prf_eval(dk.bits, x, 2)
            for mv in range(16):
                m = int_to_bits(mv, 4)
                ct = scheme._ciphertext_for(y, x, m, rng)
                assert scheme.decrypt(dk, ct) == m


def test_owf_residue_reuse(rng):
    scheme = OwfScheme(4)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    qpk, c1 = scheme.encrypt(qpk, "1010", rng)
    qpk, c2 = scheme.encrypt(qpk, "0101", rng)
    assert c1.x == c2.x  # one measurement, many encryptions
    assert scheme.decrypt(dk, c1) == "1010"
    assert scheme.decrypt(dk, c2) == "0101"


def test_owf_chain_x_uniform(rng):
    scheme = OwfScheme(2, prf_output_width=2)
    dk = DecryptionKey("10")
    counts = np.zeros(4)
    trials = 2000
    for _ in range(trials):
        qpk = scheme.qpk_gen(dk)
        _, ct = scheme.encrypt(qpk, "1", rng)
        counts[int(ct.x, 2)] += 1
    sigma = math.sqrt(trials * 0.25 * 0.75)
    assert np.all(np.abs(counts - trials / 4) < 4 * sigma)


# --- scheme 2 ---------------------------------------------------------------


def test_prfspd_scheme_round_trip(rng):
    # correctness fails only when a random slot for a zero key bit happens to
    # verify: failure rate at most lambda * 2^-t per encryption
    scheme = make_prfspd_scheme(3, 1, 4)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    ok = 0
    trials = 300
    for i in range(trials):
        message = random_bits(8, rng)
        qpk, ct = scheme.encrypt(qpk, message, rng)
        assert len(ct.slots) == 3
        ok += int(scheme.decrypt(dk, ct) == message)
    bound = 3 * 2**-4
    assert ok / trials >= 1 - bound - 3 * math.sqrt(bound / trials)


def test_prfspd_slot_flip_flips_key_bit(rng):
    # replacing a slot proof with a fresh random value turns the recovered key
    # bit to 0 except with the accepting density 2^-t
    scheme = make_prfspd_scheme(3, 1, 4)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    flips = 0
    trials = 300
    for _ in range(trials):
        qpk, ct = scheme.encrypt(qpk, "1111", rng)
        x0, _y0 = ct.slots[0]
        random_proof = PrfspdProof(random_bits(scheme.prfspd.params.proof_width, rng))
        flips += 1 - scheme.prfspd.verify(dk.bits, x0, random_proof)
    assert flips / trials >= 1 - 2**-4 - 3 * math.sqrt(2**-4 / trials)


def test_prfspd_residue_fixed_but_key_fresh(rng):
    scheme = make_prfspd_scheme(3, 1, 3)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    qpk, c1 = scheme.encrypt(qpk, "1010", rng)
    qpk, c2 = scheme.encrypt(qpk, "1010", rng)
    assert tuple(x for x, _ in c1.slots) == tuple(x for x, _ in c2.slots)
    assert c1.body != c2.body or c1.slots != c2.slots  # fresh k and randomness
    assert scheme.decrypt(dk, c2) == "1010"


# --- scheme 3 ---------------------------------------------------------------


def test_prfs_scheme_message_domain(rng):
    scheme = make_prfs_scheme()
    qpk = scheme.qpk_gen(scheme.gen(rng))
    with pytest.raises(SchemeError):
        scheme.encrypt(qpk, "10", rng)


def test_prfs_scheme_single_shot(rng):
    scheme = make_prfs_scheme()
    qpk = scheme.qpk_gen(scheme.gen(rng))
    scheme.encrypt(qpk, "0", rng)
    with pytest.raises(KeyConsumedError):
        scheme.encrypt(qpk, "1", rng)


def test_prfs_scheme_zero_message_exact(rng):
    scheme = make_prfs_scheme(3, 3)
    dk = scheme.gen(rng)
    for _ in range(30):
        qpk = scheme.qpk_gen(dk)
        _, ct = scheme.encrypt(qpk, "0", rng)
        assert scheme.decrypt(dk, ct, rng) == "0"


def test_prfs_scheme_exact_error(rng):
    scheme = make_prfs_scheme(3, 4)
    dk = scheme.gen(rng)
    assert abs(scheme.decrypt_error_exact(dk, "010") - 2**-4) < 1e-12


def test_prfs_scheme_density_payload(rng):
    scheme = make_prfs_scheme(3, 2)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    _, ct = scheme.encrypt(qpk, "1", rng, mixed_as_density=True)
    assert isinstance(ct.payload, sim.DensityMatrix)
    assert scheme.decrypt(dk, ct, rng) in ("0", "1")
    with pytest.raises(SchemeError):
        scheme.decrypt(dk, ct)  # decryption needs an rng


def test_ciphertext_type_checks(rng):
    owf, pd, pf = OwfScheme(3), make_prfspd_scheme(), make_prfs_scheme()
    dk = DecryptionKey("010")
    qpk = owf.qpk_gen(dk)
    _, ct = owf.encrypt(qpk, "1", rng)
    with pytest.raises(SchemeError):
        pd.decrypt(dk, ct)
    with pytest.raises(SchemeError):
        pf.decrypt(dk, ct, rng)


# --- wire format ------------------------------------------------------------


def test_serialize_round_trip_scheme1(rng):
    scheme = OwfScheme(4)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    _, ct = scheme.encrypt(qpk, "10011010", rng)
    restored = deserialize_ciphertext(serialize_ciphertext(ct))
    assert restored == ct
    assert scheme.decrypt(dk, restored) == "10011010"


def test_serialize_round_trip_scheme2(rng):
    scheme = make_prfspd_scheme(3, 1, 4)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    _, ct = scheme.encrypt(qpk, "110", rng)
    restored = deserialize_ciphertext(serialize_ciphertext(ct))
    assert restored == ct
    # bit-exact transport: decryption agrees with the in-memory ciphertext
    assert scheme.decrypt(dk, restored) == scheme.decrypt(dk, ct)


def test_serialize_errors(rng):
    with pytest.raises(SchemeError):
        deserialize_ciphertext(b"")
    with pytest.raises(SchemeError):
        deserialize_ciphertext(b"\x07\x00\x02")
    scheme = make_prfs_scheme()
    qpk = scheme.qpk_gen(scheme.gen(rng))
    _, ct = scheme.encrypt(qpk, "0", rng)
    with pytest.raises(SchemeError):
        serialize_ciphertext(ct)  # quantum payloads have no byte form


@given(x=bit_fields, nonce=bit_fields, body=bit_fields)
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip_property(x, nonce, body):
    ct = Scheme1Ciphertext(len(x), x, SkeCiphertext(nonce, body))
    assert deserialize_ciphertext(serialize_ciphertext(ct)) == ct
    ct2 = Scheme2Ciphertext(2, SkeCiphertext(nonce, body), ((x, body), (nonce, x)))
    assert deserialize_ciphertext(serialize_ciphertext(ct2)) == ct2
