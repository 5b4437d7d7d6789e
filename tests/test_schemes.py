import math
import sys
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpklab import analysis, primitives, schemes, sim
from qpklab.bits import int_to_bits, random_bits
from qpklab.games import wilson_interval
from qpklab.primitives import (
    FixedNonceSke,
    PhasePrfs,
    PrfsParams,
    PrfspdParams,
    RandomFunctionTable,
    SkeCiphertext,
    StreamSke,
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


def dense(state):
    """A key's dense state: a `GraphState` recipe (the PRFSPD key) is materialized."""
    return state.materialize() if isinstance(state, sim.GraphState) else state


def held(state):
    """The amplitudes a key copy holds: a `GraphState` holds only its control's."""
    return state.control if isinstance(state, sim.GraphState) else state


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
    state = scheme.qpk_gen(dk).state
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
    assert abs(sim.fidelity(dense(a.state), dense(b.state)) - 1.0) < 1e-10
    # copies share one read-only state but not the recycling record
    assert a is not b
    assert a.state is b.state
    with pytest.raises(ValueError):
        held(a.state).amplitudes[0] = 0.0
    message = "1" if scheme.name == "prfs" else "0110"
    rng = np.random.default_rng(3)
    scheme.encrypt(a, message, rng)
    assert b.residue is None
    _qpk, ct = scheme.encrypt(b, message, rng)
    if scheme.name != "prfs":
        assert scheme.decrypt(dk, ct) == message
    other = DecryptionKey("".join("1" if c == "0" else "0" for c in dk.bits))
    c = scheme.qpk_gen(other)
    assert c.state is not a.state
    assert abs(sim.fidelity(dense(c.state), dense(a.state)) - 1.0) > 1e-6


def test_qpk_gen_releases_the_old_key_before_building_the_next(monkeypatch):
    scheme = OwfScheme(4)
    old = weakref.ref(scheme.qpk_gen(DecryptionKey("0101")).state)
    build = scheme._public_state
    alive_at_build = []

    def recording_build(dk):
        alive_at_build.append(old() is not None)
        return build(dk)

    monkeypatch.setattr(scheme, "_public_state", recording_build)
    scheme.qpk_gen(DecryptionKey("1010"))
    assert alive_at_build == [False]


def test_prfs_qpk_matches_isometry():
    scheme = make_prfs_scheme(3, 2)
    dk = DecryptionKey("011")
    qpk = scheme.qpk_gen(dk).state
    direct = scheme.prfs.oracle_isometry("011", sim.uniform_superposition(3))
    assert abs(sim.fidelity(qpk, direct) - 1.0) < 1e-12


def test_capacity_limits():
    with pytest.raises(sim.CapacityError):
        OwfScheme(12, prf_output_width=12)
    with pytest.raises(sim.CapacityError):
        PrfspdScheme(12, ToyPrfspd(PrfspdParams(12, 12, 4, 8)))


def test_owf_rejects_negative_prf_width_before_any_prf_call():
    calls = []
    with pytest.raises(SchemeError, match="-3"):
        OwfScheme(6, prf_output_width=-3, prf=lambda *args: calls.append(args))
    assert calls == []


def test_owf_zero_prf_width_is_rejected_not_read_as_lambda():
    with pytest.raises(SchemeError, match="width 0 is zero"):
        OwfScheme(3, prf_output_width=0)
    assert OwfScheme(3).prf_output_width == 3


def test_width_mismatch_rejected():
    with pytest.raises(SchemeError):
        PrfsScheme(4, PhasePrfs(PrfsParams(3, 3, 2)))
    with pytest.raises(SchemeError):
        PrfspdScheme(4, ToyPrfspd(PrfspdParams(3, 3, 1, 2)))


# --- scheme 1 ---------------------------------------------------------------


def test_owf_exhaustive_round_trip(rng):
    # each outcome (x, f_dk(x)) from prf_eval, not from the key, conditions a copy
    scheme = OwfScheme(2, prf_output_width=2)
    for kv in range(4):
        dk = DecryptionKey(int_to_bits(kv, 2))
        for xv in range(4):
            x = int_to_bits(xv, 2)
            qpk = scheme.qpk_gen(dk)
            qpk.residue = x + prf_eval(dk.bits, x, 2)
            for mv in range(16):
                m = int_to_bits(mv, 4)
                _qpk, ct = scheme.encrypt(qpk, m, rng)
                assert ct.x == x
                assert scheme.decrypt(dk, ct) == m


def test_owf_residue_reuse(rng):
    scheme = OwfScheme(4)
    dk = scheme.gen(rng)
    qpk = scheme.qpk_gen(dk)
    qpk, c1 = scheme.encrypt(qpk, "1010", rng)
    qpk, c2 = scheme.encrypt(qpk, "0101", rng)
    assert c1.x == c2.x  # one measurement, many encryptions
    # the copy records the cell it measured, one of the key's nonzero cells
    assert qpk.residue[:4] == c1.x
    assert int(qpk.residue, 2) in np.flatnonzero(qpk.state.amplitudes).tolist()
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
        random_proof = random_bits(scheme.prfspd.params.proof_width, rng)
        flips += 1 - scheme.prfspd.verify(dk.bits, x0, random_proof)
    assert flips / trials >= 1 - 2**-4 - 3 * math.sqrt(2**-4 / trials)


@pytest.mark.parametrize("lam,m,t", [(2, 1, 1), (3, 1, 2), (3, 2, 1)])
def test_prfspd_decrypt_success_exact_enumerated(rng, lam, m, t):
    # enumerate each slot's key bit and every random proof against the real
    # verifier: bit 1 keeps the honest proof, bit 0 a uniform one
    scheme = make_prfspd_scheme(lam, m, t)
    dk = scheme.gen(rng)
    qpk, _ct = scheme.encrypt(scheme.qpk_gen(dk), "1", rng)
    c = scheme.prfspd.params.proof_width
    success = 1.0
    for x, y in qpk.residue:
        honest = scheme.prfspd.verify(dk.bits, x, y)
        rejected = sum(1 - scheme.prfspd.verify(dk.bits, x, int_to_bits(v, c))
                       for v in range(1 << c))
        success *= 0.5 * honest + 0.5 * rejected / (1 << c)
    assert abs(scheme.decrypt_success_exact() - success) < 1e-12
    assert abs(scheme.decrypt_success_exact() - (1 - 2.0 ** -(t + 1)) ** lam) < 1e-12


def encrypt_drawing_each_decoy_alone(scheme, qpk, message, rng):
    """`PrfspdScheme.encrypt` with one c-bit draw per decoy proof, in slot order; also
    returns the number of decoys."""
    if qpk.residue is None:
        scheme._measure_slots(qpk, rng)
    c = scheme.prfspd.params.proof_width
    k = random_bits(scheme.security_param, rng)
    slots = tuple((x, random_bits(c, rng) if bit == "0" else y)
                  for bit, (x, y) in zip(k, qpk.residue))
    body = scheme.ske.encrypt(k, message, rng)
    return Scheme2Ciphertext(scheme.security_param, body, slots), k.count("0")


@pytest.mark.parametrize("lam,m,t", [(3, 1, 2), (3, 1, 3), (4, 0, 1), (5, 2, 2), (8, 1, 6)])
def test_prfspd_encrypt_draws_as_one_draw_per_decoy(lam, m, t):
    scheme = make_prfspd_scheme(lam, m, t)
    c = scheme.prfspd.params.proof_width
    decoy_bits = set()
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dk = scheme.gen(rng)
        assert scheme.gen(ref_rng) == dk
        qpk, ref_qpk = scheme.qpk_gen(dk), scheme.qpk_gen(dk)
        for width in (0, 5, 64, 0):
            message = "10" * (width // 2) + "1" * (width % 2)
            qpk, ct = scheme.encrypt(qpk, message, rng)
            ref_ct, decoys = encrypt_drawing_each_decoy_alone(scheme, ref_qpk, message, ref_rng)
            assert ct == ref_ct
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            decoy_bits.add(c * decoys)
    assert c % 2 == 0 or any(bits % 2 for bits in decoy_bits)  # odd totals were drawn
    assert lam > 3 or 0 in decoy_bits  # and a draw of no decoy at all


def test_prfspd_decrypt_hashes_one_digest_per_slot_and_calls_no_prf(monkeypatch, rng):
    scheme = make_prfspd_scheme(3, 1, 8)
    dk = scheme.gen(rng)
    _, ct = scheme.encrypt(scheme.qpk_gen(dk), "0111", rng)
    labels, called = [], set()
    real_sha_int = primitives._sha_int
    monkeypatch.setattr(primitives, "_sha_int",
                        lambda prefix, label, want: labels.append(label) or real_sha_int(
                            prefix, label, want))
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
    try:
        plain = scheme.decrypt(dk, ct)
    finally:
        sys.setprofile(None)
    assert plain == "0111"
    assert prf_eval.__code__ not in called and ToyPrfspd.verify.__code__ not in called
    # the SKE keystream takes one more digest, under its own label
    assert [label for label in labels if not label.startswith("qpklab-ske|")] == [
        x + proof[:1] for x, proof in ct.slots]


def test_prfspd_decrypt_calls_an_injected_prf_once_per_slot(rng):
    calls = []
    counting = lambda key, x, w: calls.append(x) or prf_eval(key, x, w)  # noqa: E731
    scheme = PrfspdScheme(4, ToyPrfspd(PrfspdParams(4, 4, 1, 3), prf=counting))
    dk = scheme.gen(rng)
    qpk, ct = scheme.encrypt(scheme.qpk_gen(dk), "0110", rng)
    calls.clear()  # measuring the key evaluates the drawn blocks
    scheme.decrypt(dk, ct)
    assert calls == [x + proof[:1] for x, proof in ct.slots]


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
    _qpk, ct = scheme.encrypt(qpk, "0", rng)
    assert qpk.residue == ct.x  # the copy records the input it measured
    with pytest.raises(KeyConsumedError):
        scheme.encrypt(qpk, "1", rng)


def test_prfs_scheme_zero_message_exact(rng):
    scheme = make_prfs_scheme(3, 3)
    dk = scheme.gen(rng)
    for _ in range(30):
        qpk = scheme.qpk_gen(dk)
        _, ct = scheme.encrypt(qpk, "0", rng)
        assert scheme.decrypt(dk, ct, rng) == "0"
    with pytest.raises(SchemeError):
        scheme.decrypt(dk, ct)  # decryption needs an rng


def test_prfs_scheme_exact_error(rng):
    scheme = make_prfs_scheme(3, 4)
    dk = scheme.gen(rng)
    assert abs(scheme.decrypt_error_exact(dk, "010") - 2**-4) < 1e-12


def test_ciphertext_type_checks(rng):
    owf, pd, pf = OwfScheme(3), make_prfspd_scheme(), make_prfs_scheme()
    dk = DecryptionKey("010")
    qpk = owf.qpk_gen(dk)
    _, ct = owf.encrypt(qpk, "1", rng)
    with pytest.raises(SchemeError):
        pd.decrypt(dk, ct)
    with pytest.raises(SchemeError):
        pf.decrypt(dk, ct, rng)


def test_owf_decrypt_rejects_malformed_ciphertexts(rng):
    scheme = OwfScheme(3)
    dk = scheme.gen(rng)
    _, ct = scheme.encrypt(scheme.qpk_gen(dk), "0110", rng)
    assert scheme.decrypt(dk, ct) == "0110"
    for bad in (replace(ct, x="0"), replace(ct, x=ct.x + "1"), replace(ct, security_param=4)):
        with pytest.raises(SchemeError):
            scheme.decrypt(dk, bad)
    # fields that are not bitstrings; int(..., 2) would read the body ones as numbers
    nonce, body = ct.body.nonce, ct.body.body
    not_bits = [replace(ct, x="0_1"), replace(ct, x=None),
                replace(ct, body=SkeCiphertext("ab", body)),
                replace(ct, body=SkeCiphertext(nonce, " 110")),
                replace(ct, body=SkeCiphertext(nonce, "+110"))]
    for malformed in not_bits:
        with pytest.raises(SchemeError, match="not a bitstring"):
            scheme.decrypt(dk, malformed)
    owf2 = OwfScheme(2)
    dk2 = owf2.gen(rng)
    _, ct2 = owf2.encrypt(owf2.qpk_gen(dk2), "10", rng)
    with pytest.raises(SchemeError, match="nonce is not a bitstring"):
        owf2.decrypt(dk2, replace(ct2, body=SkeCiphertext("ab", ct2.body.body)))


def test_prfspd_decrypt_rejects_malformed_ciphertexts(rng):
    scheme = make_prfspd_scheme(3, 1, 3)
    dk = scheme.gen(rng)
    _, ct = scheme.encrypt(scheme.qpk_gen(dk), "0111", rng)
    scheme.decrypt(dk, ct)  # well-formed: no error
    (x0, y0), *rest = ct.slots
    bad = [
        replace(ct, slots=ct.slots[:1]),
        replace(ct, slots=ct.slots + ct.slots[:1]),
        replace(ct, slots=((x0[1:], y0), *rest)),
        replace(ct, slots=((x0, y0 + "0"), *rest)),
        replace(ct, security_param=2),
    ]
    for malformed in bad:
        with pytest.raises(SchemeError):
            scheme.decrypt(dk, malformed)
    # fields that are not bitstrings; int(..., 2) would read the body ones as numbers
    nonce = ct.body.nonce
    not_bits = [replace(ct, body=SkeCiphertext(nonce, body)) for body in (" 101", "1_01", "+101")]
    not_bits += [replace(ct, body=SkeCiphertext("1 0", ct.body.body)),
                 replace(ct, slots=(("0_1", y0), *rest)),
                 replace(ct, slots=((x0, y0[:-1] + "2"), *rest)),
                 replace(ct, slots=((x0, 5), *rest))]
    for malformed in not_bits:
        with pytest.raises(SchemeError, match="not a bitstring"):
            scheme.decrypt(dk, malformed)


def test_owf_decrypt_rejects_nonce_of_wrong_width(rng):
    scheme = OwfScheme(3, prf_output_width=5)
    dk = scheme.gen(rng)
    _, ct = scheme.encrypt(scheme.qpk_gen(dk), "0110", rng)
    assert len(ct.body.nonce) == 5 and scheme.decrypt(dk, ct) == "0110"
    for nonce in (ct.body.nonce[:3], ct.body.nonce + "0", ""):
        with pytest.raises(SchemeError, match="nonce"):
            scheme.decrypt(dk, replace(ct, body=SkeCiphertext(nonce, ct.body.body)))


def test_prfspd_decrypt_rejects_nonce_of_wrong_width(rng):
    scheme = make_prfspd_scheme(3, 1, 3)
    dk = scheme.gen(rng)
    _, ct = scheme.encrypt(scheme.qpk_gen(dk), "0111", rng)
    assert len(ct.body.nonce) == 3
    scheme.decrypt(dk, ct)  # well-formed: no error
    for nonce in (ct.body.nonce[:2], ct.body.nonce + "1", ""):
        with pytest.raises(SchemeError, match="nonce"):
            scheme.decrypt(dk, replace(ct, body=SkeCiphertext(nonce, ct.body.body)))


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


def test_serialize_rejects_fields_the_wire_cannot_hold(rng):
    scheme = make_prfspd_scheme(3, 1, 3)
    _, ct = scheme.encrypt(scheme.qpk_gen(scheme.gen(rng)), "1" * 70_000, rng)
    with pytest.raises(SchemeError, match="body bit length 70000 does not fit the u16 limit 65535"):
        serialize_ciphertext(ct)
    with pytest.raises(SchemeError, match="security parameter 65536 does not fit the u16"):
        serialize_ciphertext(Scheme1Ciphertext(1 << 16, "0", SkeCiphertext("0", "1")))
    with pytest.raises(SchemeError, match="slot count 65536 does not fit the u16"):
        serialize_ciphertext(Scheme2Ciphertext(1, SkeCiphertext("0", "1"), (("0", "1"),) * (1 << 16)))
    # int(..., 2) would read "1_0" as 2
    with pytest.raises(SchemeError, match="x is not a bitstring"):
        serialize_ciphertext(Scheme1Ciphertext(3, "1_0", SkeCiphertext("0", "1")))


@given(x=bit_fields, nonce=bit_fields, body=bit_fields, data=st.data())
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip_property(x, nonce, body, data):
    # the Scheme 1 nonce and body, the Scheme 2 body and the proofs have
    # widths the header does not fix; x, the Scheme 2 nonce and slot inputs
    # are lambda bits
    ct = Scheme1Ciphertext(len(x), x, SkeCiphertext(nonce, body))
    assert deserialize_ciphertext(serialize_ciphertext(ct)) == ct
    lam_bits = st.text(alphabet="01", min_size=2, max_size=2)
    ct2 = Scheme2Ciphertext(2, SkeCiphertext(data.draw(lam_bits), body),
                            ((data.draw(lam_bits), body), (data.draw(lam_bits), x)))
    assert deserialize_ciphertext(serialize_ciphertext(ct2)) == ct2


@pytest.mark.parametrize("ct,wire", [
    # x of 3 bits (odd), an empty nonce, a 9-bit body (wider than one byte)
    (Scheme1Ciphertext(3, "101", SkeCiphertext("", "110100101")), "0100030003a000000009d280"),
    # an empty body, a 5-bit proof (odd) and a 10-bit proof (wider than one byte)
    (Scheme2Ciphertext(2, SkeCiphertext("01", ""), (("10", "11011"), ("01", "1011001110"))),
     "020002000240000000020002800005d8000240000ab380"),
], ids=["scheme1", "scheme2"])
def test_wire_bytes_are_pinned(ct, wire):
    # literal bytes: the round-trip tests pass for any codec whose two sides agree
    assert serialize_ciphertext(ct).hex() == wire
    assert deserialize_ciphertext(bytes.fromhex(wire)) == ct


field_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 1 << 17), st.floats(),
                         st.text(max_size=5), st.text(alphabet="01", min_size=3, max_size=3),
                         st.binary(max_size=3), st.lists(st.sampled_from("01"), max_size=3))
slot_values = st.one_of(field_values, st.lists(st.one_of(
    field_values, st.tuples(field_values), st.tuples(field_values, field_values),
    st.tuples(field_values, field_values, field_values)), max_size=4).map(tuple))
security_params = st.one_of(st.just(3), field_values)
ske_bodies = st.one_of(st.builds(SkeCiphertext, field_values, field_values), field_values)
MALFORMED_SCHEME2 = Scheme2Ciphertext(3, SkeCiphertext("000", "1"), (("000", "111", "1"),) * 3)


@given(st.one_of(st.builds(Scheme1Ciphertext, security_params, field_values, ske_bodies),
                 st.builds(Scheme2Ciphertext, security_params, ske_bodies, slot_values)))
@example(MALFORMED_SCHEME2)
@example(replace(MALFORMED_SCHEME2, slots=None))
@example(Scheme1Ciphertext("3", "000", SkeCiphertext("000", "1")))
@settings(max_examples=300, deadline=None)
def test_ciphertexts_with_arbitrary_fields_serialize_and_decrypt_or_raise_scheme_error(ct):
    scheme = OwfScheme(3) if isinstance(ct, Scheme1Ciphertext) else make_prfspd_scheme(3, 1, 2)
    for step in (serialize_ciphertext, partial(scheme.decrypt, DecryptionKey("101"))):
        try:
            step(ct)
        except SchemeError:
            pass


def _ciphertext_with_one_wrong_width(lam, field, width, body):
    """A ciphertext of security parameter `lam` whose `field` alone has `width`."""
    right = "1" * lam
    if field == "x":
        return Scheme1Ciphertext(lam, "0" * width, SkeCiphertext(body, body))
    if field == "slot count":
        return Scheme2Ciphertext(lam, SkeCiphertext(right, body), ((right, body),) * width)
    nonce = "0" * width if field == "nonce" else right
    slots = [(right, body)] * lam
    if field == "slot input":
        slots[-1] = ("0" * width, body)
    return Scheme2Ciphertext(lam, SkeCiphertext(nonce, body), tuple(slots))


WIDTH_ERRORS = {"x": "x has", "nonce": "nonce has", "slot count": "slots, expected",
                "slot input": "slot input has"}


@given(lam=st.integers(1, 8), field=st.sampled_from(sorted(WIDTH_ERRORS)),
       width=st.integers(0, 16), body=bit_fields)
@example(lam=4, field="x", width=1, body="01")
@example(lam=3, field="nonce", width=1, body="01")
@example(lam=3, field="slot input", width=5, body="01")
@settings(max_examples=100, deadline=None)
def test_deserialize_rejects_any_other_width_than_lambda(lam, field, width, body):
    ct = _ciphertext_with_one_wrong_width(lam, field, width, body)
    data = serialize_ciphertext(ct)
    if width == lam:
        assert deserialize_ciphertext(data) == ct
    else:
        with pytest.raises(SchemeError, match=WIDTH_ERRORS[field]):
            deserialize_ciphertext(data)


def test_deserialize_checks_the_slot_count_before_reading_a_slot():
    # 65535 slots with no slot bytes is a count error, not a truncation
    header = serialize_ciphertext(Scheme2Ciphertext(3, SkeCiphertext("101", "1"), ()))
    with pytest.raises(SchemeError, match="65535 slots, expected 3"):
        deserialize_ciphertext(header[:-2] + b"\xff\xff")


@pytest.mark.parametrize("make_scheme", [lambda: OwfScheme(3), lambda: make_prfspd_scheme(3, 1, 3)],
                         ids=["owf", "prfspd"])
def test_deserialize_rejects_short_and_trailing_input(make_scheme, rng):
    scheme = make_scheme()
    _, ct = scheme.encrypt(scheme.qpk_gen(scheme.gen(rng)), "0111", rng)
    data = serialize_ciphertext(ct)
    assert deserialize_ciphertext(data) == ct
    for cut in range(1, len(data)):
        with pytest.raises(SchemeError, match="truncated"):
            deserialize_ciphertext(data[:cut])
    with pytest.raises(SchemeError, match="empty"):
        deserialize_ciphertext(b"")
    for tail in (b"\x00", b"\x00\x01"):
        with pytest.raises(SchemeError):
            deserialize_ciphertext(data + tail)


def _padding_bits(data: bytes):
    """(byte index, bit) of every padding bit of the bit fields in a serialized ciphertext."""
    pos, found = 3, []  # after the tag byte and the u16 security parameter
    fields = ["bits"] * 3 if data[0] == 1 else ["bits", "bits", "count"]
    while fields:
        kind = fields.pop(0)
        value = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        if kind == "count":
            fields += ["bits"] * (2 * value)
            continue
        pos += (value + 7) // 8
        found += [(pos - 1, bit) for bit in range(-value % 8)]
    assert pos == len(data)
    return found


@pytest.mark.parametrize("make_scheme", [lambda: OwfScheme(3), lambda: make_prfspd_scheme(3, 1, 3)],
                         ids=["owf", "prfspd"])
def test_deserialize_rejects_nonzero_padding_bits(make_scheme, rng):
    scheme = make_scheme()
    _, ct = scheme.encrypt(scheme.qpk_gen(scheme.gen(rng)), "0111", rng)
    data = serialize_ciphertext(ct)
    padding = _padding_bits(data)
    # every field is narrower than a whole number of bytes
    fields = 3 if isinstance(ct, Scheme1Ciphertext) else 2 + 2 * len(ct.slots)
    assert len({index for index, _bit in padding}) == fields
    for index, bit in padding:
        corrupted = bytearray(data)
        corrupted[index] |= 1 << bit
        with pytest.raises(SchemeError):
            deserialize_ciphertext(bytes(corrupted))


def _valid_ciphertext_bytes(make_scheme):
    rng = np.random.default_rng(9)
    scheme = make_scheme()
    _, ct = scheme.encrypt(scheme.qpk_gen(scheme.gen(rng)), "0111", rng)
    return serialize_ciphertext(ct)


VALID_WIRE = [_valid_ciphertext_bytes(lambda: OwfScheme(3)),
              _valid_ciphertext_bytes(lambda: make_prfspd_scheme(3, 1, 3))]


@given(st.sampled_from(VALID_WIRE), st.integers(0, 10**6), st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_single_byte_mutation_is_rejected_or_canonical(data, position, value):
    mutated = bytearray(data)
    mutated[position % len(data)] = value
    mutated = bytes(mutated)
    try:
        ct = deserialize_ciphertext(mutated)
    except SchemeError:
        return
    assert serialize_ciphertext(ct) == mutated


wire_inputs = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda valid, cut, tail: valid[:cut] + tail,  # a valid prefix, then any bytes
              st.sampled_from(VALID_WIRE), st.integers(0, 40), st.binary(max_size=8)),
)


@given(wire_inputs)
@example(VALID_WIRE[0])
@example(VALID_WIRE[1])
@example(b"\x01\x00\x00\x00\x00\x00\x00\x00\x00")  # lambda 0, three empty fields
@settings(max_examples=400, deadline=None)
def test_parser_on_arbitrary_bytes_rejects_or_reproduces_them(data):
    try:
        ct = deserialize_ciphertext(data)
    except SchemeError:
        return
    assert serialize_ciphertext(ct) == data


# --- challenge ensembles ------------------------------------------------------


def _owf_label(ensemble, ct):
    number = int(np.searchsorted(ensemble.bodies, ct.body.body))
    assert ensemble.bodies[number:number + 1].tolist() == [ct.body.body], (
        f"body {ct.body.body} is in no ensemble label")
    return (int(ct.x, 2), int(ct.body.nonce, 2), number), None


def _prfs_label(ensemble, ct):
    return (int(ct.x, 2),), ct.payload.amplitudes


def _check_ensemble_against_encrypt(scheme, messages, label_of, draws=2000, seed=11):
    """Sample `encrypt` under uniformly drawn keys and hold it to the ensemble.

    Each sampled (key, label) must be a row of its message with nonzero
    weight, and each sampled payload bitwise equal to one of that row's
    payloads. Each label's frequency must fall inside its z=5 Wilson
    interval around the label's ensemble weight, for every label of the
    ensemble and every label sampled.
    """
    ensemble = scheme.challenge_ensemble(*messages)
    rows: dict = {}
    for i, (weight, k, label) in enumerate(zip(ensemble.weights, ensemble.keys,
                                              map(tuple, ensemble.labels.tolist()))):
        rows.setdefault((weight > 0, int(k), label), []).append(i)
    rng = np.random.default_rng(seed)
    for positive, message in ((True, messages[0]), (False, messages[1])):
        counts: dict = {}
        for _ in range(draws):
            dk = scheme.gen(rng)
            _, ct = scheme.encrypt(scheme.qpk_gen(dk), message, rng)
            label, payload = label_of(ensemble, ct)
            terms = rows.get((positive, int(dk.bits, 2), label), [])
            assert any(ensemble.weights[i] != 0 for i in terms), (
                f"message {message}: key {dk.bits} with label {label} is no ensemble row")
            if payload is not None:
                assert any(ensemble.payloads[i].tobytes() == payload.tobytes() for i in terms)
            counts[label] = counts.get(label, 0) + 1
        mass: dict = {}
        for (sign, _, label), terms in rows.items():
            if sign == positive:
                mass[label] = mass.get(label, 0.0) + np.abs(ensemble.weights[terms]).sum()
        for label in mass.keys() | counts.keys():
            lo, hi = wilson_interval(counts.get(label, 0), draws, 5.0)
            assert lo <= mass.get(label, 0.0) <= hi, (
                f"message {message}: label {label} drawn {counts.get(label, 0)} of {draws} "
                f"times, ensemble weight {mass.get(label, 0.0)}")


@pytest.mark.parametrize("scheme,messages,label_of", [
    (OwfScheme(2, prf_output_width=2), ("00", "11"), _owf_label),
    (OwfScheme(2, prf_output_width=2, ske=FixedNonceSke()), ("00", "11"), _owf_label),
    (make_prfs_scheme(2, 2), ("0", "1"), _prfs_label),
], ids=["owf", "owf-fixed-nonce", "prfs"])
def test_challenge_ensemble_matches_sampled_encryptions(scheme, messages, label_of):
    _check_ensemble_against_encrypt(scheme, messages, label_of)


def test_ensemble_check_fails_when_encrypt_reuses_one_nonce(monkeypatch):
    monkeypatch.setattr(StreamSke, "_nonce", lambda self, key, rng: "0" * len(key))
    with pytest.raises(AssertionError, match="label"):
        _check_ensemble_against_encrypt(OwfScheme(2, prf_output_width=2), ("00", "11"),
                                        _owf_label)


@pytest.mark.parametrize("scheme,messages", [
    (OwfScheme(2, prf_output_width=2), ("00", "11")),
    (OwfScheme(3, prf_output_width=1), ("0" * 70, "01" * 35)),
    (make_prfs_scheme(2, 2), ("0", "1")),
    (make_prfs_scheme(3, 1), ("1", "0")),
], ids=["owf", "owf-70-bit", "prfs", "prfs-reversed"])
def test_challenge_ensemble_weights_of_each_message_sum_to_one(scheme, messages):
    ensemble = scheme.challenge_ensemble(*messages)
    weights = ensemble.weights
    assert weights[weights > 0].sum() == 1.0
    assert weights[weights < 0].sum() == -1.0
    assert len(ensemble.labels) == len(weights) == len(ensemble.keys) == len(ensemble.payloads)


def test_owf_ensemble_reads_the_prf_off_the_key_states(monkeypatch):
    calls = []
    table = schemes.prf_table
    monkeypatch.setattr(schemes, "prf_table",
                        lambda *args, **kw: calls.append(args) or table(*args, **kw))
    OwfScheme(3, prf_output_width=2).challenge_ensemble("01", "10")
    assert len(calls) == 8  # one table per key state, none more


@pytest.mark.parametrize("ske", [StreamSke(), FixedNonceSke()], ids=["stream", "fixed-nonce"])
@pytest.mark.parametrize("lam,n", [(lam, n) for lam in (1, 2, 3) for n in (1, 2, 3)])
def test_owf_ensemble_equals_one_seal_per_term(lam, n, ske):
    # the reference seals every (message, k, x*, nonce) term on its own, with
    # f_k(x*) from `prf_eval`, and numbers the bodies over all terms at once
    scheme, messages = OwfScheme(lam, prf_output_width=n, ske=ske), ("011", "100")
    terms = [(i, k, x, nonce) for i in (0, 1) for k in range(1 << lam) for x in range(1 << lam)
             for nonce in ske.nonce_space(n)]
    sealed = [ske.seal(prf_eval(int_to_bits(k, lam), int_to_bits(x, lam), n), nonce,
                       messages[i]).body for i, k, x, nonce in terms]
    bodies, numbers = np.unique(sealed, return_inverse=True)
    want = {
        "key_states": np.array([scheme.qpk_gen(DecryptionKey(int_to_bits(v, lam))).state.amplitudes
                                for v in range(1 << lam)]),
        "labels": np.array([[x, int(nonce, 2), number]
                            for (_, _, x, nonce), number in zip(terms, numbers.tolist())]),
        "weights": np.array([(1 - 2 * i) / (len(terms) // 2) for i, *_ in terms]),
        "keys": np.array([k for _, k, _, _ in terms]),
        "payloads": np.ones((len(terms), 1)),
        "bodies": bodies,
    }
    ensemble = scheme.challenge_ensemble(*messages)
    for field, value in want.items():
        got = getattr(ensemble, field)
        assert got.dtype == value.dtype and got.shape == value.shape, field
        assert got.tobytes() == value.tobytes(), field


@pytest.mark.parametrize("prf", ["prf_eval", "constant", "random-function"])
@pytest.mark.parametrize("lam,n", [(lam, n) for lam in (1, 2, 3, 4) for n in (1, 2, 3)])
def test_prfs_key_rows_from_tables_equal_the_qpk_gen_states_bitwise(lam, n, prf):
    def scheme():
        # a fresh random function per builder: both must query x||y in ascending order
        f = {"prf_eval": prf_eval, "constant": lambda key, x, w: "0" * w,
             "random-function": RandomFunctionTable(1, np.random.default_rng(lam * 4 + n))}[prf]
        return PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, n), prf=f))

    built = scheme()
    states = np.array([built.qpk_gen(DecryptionKey(int_to_bits(v, lam))).state.amplitudes
                       for v in range(1 << lam)])
    rows = scheme()._key_states()
    assert rows.dtype == states.dtype and rows.shape == states.shape
    assert rows.tobytes() == states.tobytes()


def test_owf_ensemble_of_a_fixed_nonce_cipher_is_solved():
    # one term per (message, k, x*), every one under the all-zero nonce; at p = 0 the
    # value is that of the nonce-0 block of the plain cipher's ensemble
    ensemble = OwfScheme(2, 2, ske=FixedNonceSke()).challenge_ensemble("00", "11")
    assert len(ensemble.weights) == 32 and set(ensemble.labels[:, 1].tolist()) == {0}
    assert abs(analysis._gram_distance(ensemble, 0) - 0.5) <= 1e-12


@pytest.mark.parametrize("scheme,messages", [
    (OwfScheme(2, prf_output_width=2), ("00", "1")),
    (OwfScheme(2, prf_output_width=2), ("0a", "11")),
    (make_prfs_scheme(2, 2), ("0", "11")),
])
def test_challenge_ensemble_rejects_messages_before_building_a_key(monkeypatch, scheme, messages):
    def fail(*args, **kwargs):
        raise AssertionError("key state built before the messages were checked")

    monkeypatch.setattr(type(scheme), "qpk_gen", fail)
    monkeypatch.setattr(PhasePrfs, "uniform_isometry", fail)
    with pytest.raises(ValueError):
        scheme.challenge_ensemble(*messages)
