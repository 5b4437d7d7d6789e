"""The three quantum public-key encryption constructions behind one interface.

Every scheme follows the four-algorithm shape: classical key generation, pure
quantum public-key generation (repeated calls yield the identical state),
encryption returning a recycled key alongside the ciphertext, and decryption
from the classical key. Every public key holds one pure state
sum_x 2^{-lambda/2} |x>|phi_x>. The OWF key and the PRFSPD slot state are
graph states of the PRF, `sim.GraphState` recipes whose cells come from
`primitives.prf_table`. The OWF key is materialized at once, from one table
per key. The PRFSPD slot state stays a recipe (`ToyPrfspd.graph`, which
neither calls nor fills the family's `gen` cache): `qpk_gen` evaluates no PRF
point, and `sim.measure_graph` draws every wire of the lambda slots at once
from one table of 2^m PRF points per drawn block. The PRFS key is assembled
from `PhasePrfs.gen` states by `sim.controlled_state`. Every quantum object is
pure; a mixed state is an ensemble that is sampled, and the IND-CPA challenges of
`owf` and `prfs` are enumerated next to `encrypt` by `challenge_ensemble`,
arrays built from the key states and the cipher for `analysis` to solve: the
`owf` key states from `qpk_gen`, the `prfs` ones from one PRF table per key
(`PhasePrfs.uniform_isometry`), bit for bit the states `qpk_gen` builds. Each
scheme's keyed primitive is swapped with `prf=`: on `OwfScheme` itself, and
on the `PhasePrfs` or `ToyPrfspd` family a scheme is built from.

`decrypt` checks every classical ciphertext field once at its edge: a
bitstring of the width the scheme fixes, else a `SchemeError` (the PRFSPD
fields by one `check_bits` over their join). Past it the fields are taken as
checked: the PRFSPD `decrypt` verifies its lambda slots through one
`ToyPrfspd._verify_slots` call, hashing the PRF prefix once and each x||y once.

- OwfScheme: public key sum_x |x>|f_dk(x)>; encrypting measures it once, keeps
  the outcome x || f_dk(x) as the copy's residue, and symmetric-encrypts under
  f_dk(x). Classical ciphertexts, perfect correctness, encryption-oracle games.
- PrfspdScheme: lambda copies of the slot state sum_x |x>|psi_dk,x>;
  encrypting measures lambda slots, keeps their deletion proofs as the residue,
  and hides a fresh symmetric key bit-by-bit behind real-vs-random proofs.
  Classical ciphertexts.
- PrfsScheme: single-shot, one-bit messages; the ciphertext is the measured
  input x (the residue; a copy that has one is spent) together with either the
  matching function-like state or, for the maximally mixed payload of
  message 1, a uniformly sampled basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sim
from .bits import bits_to_int, check_bits, int_to_bits, pack_bits, random_bits, unpack_bits
from .primitives import (
    PhasePrfs,
    SkeCiphertext,
    StreamSke,
    ToyPrfspd,
    prf_eval,
    prf_table,
)


class SchemeError(ValueError):
    pass


class KeyConsumedError(SchemeError):
    """The single-shot public key was already used for an encryption."""


class CapabilityError(SchemeError):
    """The scheme does not support the requested game or operation."""


@dataclass(frozen=True)
class DecryptionKey:
    bits: str


@dataclass
class QuantumPublicKey:
    """One copy of a public key: the key state and what this copy measured.

    `state` is the key's pure state; the PRFSPD key is lambda copies of this
    one slot state, kept as one so each slot stays within qubit capacity, and
    held as a `sim.GraphState` recipe: measuring it builds the lambda drawn
    blocks, never the 2^(lambda+m+t) amplitudes (`materialize()` writes them).
    Copies of one key share that state with read-only amplitudes (a graph
    state's control amplitudes). `residue`, each copy's own, is None until an
    encryption measures the copy, then its outcome (OWF x || f_dk(x), PRFSPD
    slots, PRFS x); presetting it conditions the copy on one outcome.
    """

    state: sim.PureState | sim.GraphState
    residue: object = None


@dataclass(frozen=True)
class ChallengeEnsemble:
    """Both challenge ensembles: term i is |key_states[keys[i]]>^p (x) |labels[i]> (x)
    |payloads[i]> for p key copies at weight weights[i], > 0 for m0 and < 0 for m1,
    each message's summing to 1. Labels are int rows; a body is its index in `bodies`, if set."""

    key_states: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    keys: np.ndarray
    payloads: np.ndarray
    bodies: np.ndarray = None


@dataclass(frozen=True)
class Scheme1Ciphertext:
    security_param: int
    x: str
    body: SkeCiphertext


@dataclass(frozen=True)
class Scheme2Ciphertext:
    security_param: int
    body: SkeCiphertext
    slots: tuple  # lambda pairs (x_i, y~_i)


@dataclass(frozen=True)
class Scheme3Ciphertext:
    x: str
    payload: sim.PureState


class QpkeScheme:
    """Common scheme interface; subclasses fill in the four algorithms."""

    name = ""
    supports_encryption_oracle = False

    def __init__(self, security_param: int):
        if security_param < 1:
            raise SchemeError("security parameter out of range")
        self.security_param = security_param
        self._last_public = None  # (dk bits, state) of the last key built

    def gen(self, rng: np.random.Generator) -> DecryptionKey:
        return DecryptionKey(random_bits(self.security_param, rng))

    def qpk_gen(self, dk: DecryptionKey) -> QuantumPublicKey:
        """A fresh copy of the public key for `dk`.

        Every copy under one decryption key is the same state, so the state
        of the last key is built once: repeated calls share it with read-only
        amplitudes (a graph state's control amplitudes), and each call returns
        a new copy with no `residue`.
        """
        if self._last_public is None or self._last_public[0] != dk.bits:
            self._last_public = None  # a rebuild holds one key state, not two
            state = self._public_state(dk)
            held = state.control if isinstance(state, sim.GraphState) else state
            held.amplitudes.setflags(write=False)
            self._last_public = (dk.bits, state)
        return QuantumPublicKey(self._last_public[1])

    def _public_state(self, dk: DecryptionKey):
        """Build the public-key state for `dk`: a `sim.PureState`, or a `sim.GraphState`
        whose blocks are built as they are measured."""
        raise NotImplementedError

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng: np.random.Generator):
        raise NotImplementedError

    def decrypt(self, dk: DecryptionKey, ct, rng: np.random.Generator | None = None) -> str:
        raise NotImplementedError

    @staticmethod
    def check_message(message: str) -> str:
        """`message`, or a `SchemeError` (a protocol violation in the games)."""
        try:
            return check_bits(message)
        except ValueError as exc:
            raise SchemeError(str(exc)) from None

    @classmethod
    def check_messages(cls, m0: str, m1: str) -> int:
        """The width of a challenge pair: two messages the scheme encrypts, of one width."""
        if len(cls.check_message(m0)) != len(cls.check_message(m1)):
            raise SchemeError(f"challenge messages must have one width, got {m0!r} and {m1!r}")
        return len(m0)

    def _key_states(self) -> np.ndarray:
        """The public-key state of every decryption key, one row each, in key order."""
        lam = self.security_param
        return np.array([self.qpk_gen(DecryptionKey(int_to_bits(v, lam))).state.amplitudes
                         for v in range(1 << lam)])

    def _check_ciphertext(self, ct, kind):
        """Reject a classical ciphertext of another scheme or security parameter."""
        if not isinstance(ct, kind):
            raise SchemeError("ciphertext does not belong to this scheme")
        if ct.security_param != self.security_param:
            raise SchemeError(f"ciphertext security parameter {ct.security_param} "
                              f"does not match the scheme's {self.security_param}")


def _wire_fields(ct) -> tuple:
    """The names and values of a classical ciphertext's bit fields, in wire order; a body or
    slots of another shape are a `SchemeError`."""
    if not isinstance(ct.body, SkeCiphertext):
        raise SchemeError(f"ciphertext body is not a symmetric ciphertext: {ct.body!r}")
    if isinstance(ct, Scheme1Ciphertext):
        return ("x", "nonce", "body"), (ct.x, ct.body.nonce, ct.body.body)
    try:
        slots = [bits for x, y_tilde in ct.slots for bits in (x, y_tilde)]
    except (TypeError, ValueError):
        raise SchemeError("ciphertext slots are not a sequence of (input, proof) pairs") from None
    return (("nonce", "body", *("slot input", "slot proof") * (len(slots) // 2)),
            (ct.body.nonce, ct.body.body, *slots))


def _check_width(field_name: str, bits: str, width: int):
    if len(bits) != width:
        raise SchemeError(f"ciphertext {field_name} has {len(bits)} bits, expected {width}")


def _check_fields(names, widths, fields):
    """Ciphertext fields: bitstrings of their widths (None: any), by one `check_bits` of
    their join; a failure is named by checking one field at a time, in order."""
    try:
        if all(isinstance(bits, str) and (width is None or len(bits) == width)
               for width, bits in zip(widths, fields)):
            check_bits("".join(fields))
            return
    except ValueError:
        pass
    for name, width, bits in zip(names, widths, fields):
        try:
            check_bits(bits)
        except ValueError:
            raise SchemeError(f"ciphertext {name} is not a bitstring: {bits!r}") from None
        if width is not None:
            _check_width(name, bits, width)


class OwfScheme(QpkeScheme):
    """PRF-based scheme with classical ciphertexts and perfect correctness."""

    name = "owf"
    supports_encryption_oracle = True

    def __init__(self, security_param, prf_output_width=None, prf=prf_eval, ske=None):
        super().__init__(security_param)
        self.prf_output_width = security_param if prf_output_width is None else prf_output_width
        if self.prf_output_width < 1:
            sign = "negative" if self.prf_output_width < 0 else "zero"
            raise SchemeError(f"PRF output width {self.prf_output_width} is {sign}")
        self.prf = prf
        self.ske = ske or StreamSke()
        sim.check_capacity(security_param + self.prf_output_width, "public key")

    def _public_state(self, dk: DecryptionKey) -> sim.PureState:
        """The dense key: every copy is measured in full and every ensemble reads the
        whole state. A lazy key would draw faster, but it waits for a benchmark whose
        memory per run does not grow with throughput (ROADMAP item 1)."""
        lam, n = self.security_param, self.prf_output_width
        cells = partial(prf_table, dk.bits, in_width=lam, out_width=n, prf=self.prf)
        return sim.GraphState(sim.uniform_superposition(lam), n, cells).materialize()

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng):
        self.check_message(message)
        if qpk.residue is None:
            qpk.residue = sim.sample_outcome(qpk.state, qpk.state.full_range(), rng)
        lam = self.security_param
        x, y = qpk.residue[:lam], qpk.residue[lam:]
        return qpk, Scheme1Ciphertext(lam, x, self.ske.encrypt(y, message, rng))

    def challenge_ensemble(self, m0: str, m1: str) -> ChallengeEnsemble:
        """Every (key k, x*, nonce r) as the label (x*, r, body) that `encrypt` sends, payload
        1; f_k(x*) is read off the key's support, and the nonces are the cipher's own
        `nonce_space`, each equally likely. Each (message, pad f_k(x*), nonce) is sealed once,
        for the pads some key takes, and the terms gather their bodies by index."""
        self.check_messages(m0, m1)
        lam, n = self.security_param, self.prf_output_width
        nonces = self.ske.nonce_space(n)
        # each (x*, r) splits its 2 * 2^lam rows among its bodies' blocks
        sim.check_entries((len(nonces) << lam) * (2 << lam) ** 2 + (1 << (2 * lam + n)))
        key_states = self._key_states()
        i, k, x, r = np.indices((2, 1 << lam, 1 << lam, len(nonces))).reshape(4, -1)  # i: message
        images = key_states.reshape(1 << lam, 1 << lam, 1 << n).nonzero()[2].reshape(1 << lam, -1)
        pads, pad_of = np.unique(images, return_inverse=True)
        sealed = [self.ske.seal(int_to_bits(pad, n), nonce, m).body
                  for m in (m0, m1) for pad in pads.tolist() for nonce in nonces]
        bodies, numbers = np.unique(sealed, return_inverse=True)
        numbers = numbers.reshape(2, len(pads), -1)[i, pad_of.reshape(images.shape)[k, x], r]
        r_values = np.array([bits_to_int(nonce) for nonce in nonces])[r]
        return ChallengeEnsemble(key_states, np.stack([x, r_values, numbers], axis=1),
                                 (1 - 2 * i) / (i.size // 2), k, np.ones((i.size, 1)), bodies)

    def decrypt(self, dk, ct, rng=None):
        self._check_ciphertext(ct, Scheme1Ciphertext)
        names, fields = _wire_fields(ct)
        _check_fields(names, (self.security_param, self.prf_output_width, None), fields)
        y = self.prf(dk.bits, ct.x, self.prf_output_width)
        return self.ske.decrypt(y, ct.body)


class PrfspdScheme(QpkeScheme):
    """Proof-of-destruction scheme: classical ciphertexts, recycled key."""

    name = "prfspd"
    supports_encryption_oracle = True

    def __init__(self, security_param, prfspd: ToyPrfspd, ske=None):
        super().__init__(security_param)
        if prfspd.params.key_width != security_param:
            raise SchemeError("family key width must equal the security parameter")
        if prfspd.params.input_width != security_param:
            raise SchemeError("family input width must equal the security parameter")
        self.prfspd = prfspd
        self.ske = ske or StreamSke()
        sim.check_capacity(security_param + prfspd.params.output_qubits, "slot state")

    def _public_state(self, dk: DecryptionKey) -> sim.GraphState:
        """The slot state as its recipe: measuring it builds only the drawn blocks."""
        return self.prfspd.graph(dk.bits, sim.uniform_superposition(self.security_param))

    def _measure_slots(self, qpk: QuantumPublicKey, rng):
        """Measure lambda copies of the slot state: each slot's x, then the deletion proof
        `ToyPrfspd.delete` would draw from its block, by one `sim.measure_graph` call."""
        lam, c = self.security_param, self.prfspd.params.proof_width
        xs, proofs = sim.measure_graph(qpk.state, rng, lam)
        qpk.residue = tuple((int_to_bits(x, lam), int_to_bits(proof, c))
                            for x, proof in zip(xs.tolist(), proofs.tolist()))

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng):
        self.check_message(message)
        if qpk.residue is None:
            self._measure_slots(qpk, rng)
        lam, c = self.security_param, self.prfspd.params.proof_width
        k = random_bits(lam, rng)
        # one draw for every decoy proof, cut in slot order: the same bits and the same
        # later rng state as one c-bit draw per zero of k
        decoys = random_bits(c * k.count("0"), rng)
        pieces = (decoys[i:i + c] for i in range(0, len(decoys), c))
        slots = tuple((x, y if bit == "1" else next(pieces)) for bit, (x, y) in zip(k, qpk.residue))
        body = self.ske.encrypt(k, message, rng)
        return qpk, Scheme2Ciphertext(lam, body, slots)

    def decrypt_success_exact(self) -> float:
        """Probability that decryption recovers the whole one-time key k.

        A slot with k_i = 1 carries the honest proof and always verifies; a
        slot with k_i = 0 carries a uniform proof, which verifies and flips
        the bit with the family's accepting density 2^-t. Each of the lambda
        bits therefore survives with probability 1 - 2^-(t+1). A round trip
        also succeeds when a wrong key's keystream happens to match, which
        this value does not count.
        """
        per_slot = 1.0 - 0.5 * self.prfspd.accepting_density()
        return per_slot ** self.security_param

    def decrypt(self, dk, ct, rng=None):
        self._check_ciphertext(ct, Scheme2Ciphertext)
        lam, c = self.security_param, self.prfspd.params.proof_width
        names, fields = _wire_fields(ct)
        if len(fields) != 2 + 2 * lam:
            raise SchemeError(f"ciphertext has {len(fields) // 2 - 1} slots, expected {lam}")
        _check_fields(names, (lam, None, *(lam, c) * lam), fields)
        key = self.prfspd._verify_slots(dk.bits, zip(fields[2::2], fields[3::2]))
        return self.ske.decrypt(key, ct.body)


class PrfsScheme(QpkeScheme):
    """Function-like-state scheme: quantum ciphertexts, one-bit single-shot."""

    name = "prfs"
    supports_encryption_oracle = False

    def __init__(self, security_param, prfs: PhasePrfs):
        super().__init__(security_param)
        if prfs.params.key_width != security_param:
            raise SchemeError("family key width must equal the security parameter")
        self.prfs = prfs
        sim.check_capacity(prfs.params.input_width + prfs.params.output_qubits, "public key")

    @staticmethod
    def check_message(message: str) -> str:
        if message not in ("0", "1"):
            raise SchemeError("message must be a single bit")
        return message

    def _public_state(self, dk: DecryptionKey) -> sim.PureState:
        d = self.prfs.params.input_width
        return self.prfs.oracle_isometry(dk.bits, sim.uniform_superposition(d))

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng):
        """Single-shot encryption of one bit.

        For message 1 the payload is the maximally mixed state, sent as a
        uniformly sampled basis state of that ensemble.
        """
        self.check_message(message)
        if qpk.residue is not None:
            raise KeyConsumedError("public key already used; the scheme is single-shot")
        n = self.prfs.params.output_qubits
        x, block = next(sim.measure_control(qpk.state, self.prfs.params.input_width, rng))
        payload = block if message == "0" else sim.basis_state(n, random_bits(n, rng))
        qpk.residue = x
        return qpk, Scheme3Ciphertext(x, payload)

    def _key_states(self) -> np.ndarray:
        """The public-key state of every decryption key, one row each, in key order: the
        states `qpk_gen` builds, bit for bit, each from one PRF table
        (`PhasePrfs.uniform_isometry`) in place of a `gen` call per input."""
        lam = self.security_param
        return np.array([self.prfs.uniform_isometry(int_to_bits(v, lam))
                         for v in range(1 << lam)])

    def challenge_ensemble(self, m0: str, m1: str) -> ChallengeEnsemble:
        """Every (key k, x*), labelled x*: message 0 sends block x* of the key state,
        renormalized, and the mixed payload of message 1 is 2^n basis states. The
        2^lambda key states come from one PRF table per key (`_key_states`)."""
        self.check_messages(m0, m1)
        d, n = self.prfs.params.input_width, self.prfs.params.output_qubits
        keys, inputs, outputs = 1 << self.security_param, 1 << d, 1 << n
        rows = keys * sum(1 if m == "0" else outputs for m in (m0, m1))
        sim.check_entries(inputs * rows * rows + keys * inputs * outputs)
        key_states = self._key_states()
        states = key_states.reshape(keys, inputs, outputs)
        states = states / np.linalg.norm(states, axis=2, keepdims=True)
        x, k, y = np.indices((inputs, keys, outputs)).reshape(3, -1)
        weight, x0, k0 = 1.0 / (keys * inputs), x[y == 0], k[y == 0]
        terms = {"0": (x0, weight, k0, states[k0, x0]),
                 "1": (x, weight / outputs, k, np.eye(outputs)[y])}
        (xa, wa, ka, pa), (xb, wb, kb, pb) = terms[m0], terms[m1]
        return ChallengeEnsemble(key_states, np.concatenate([xa, xb])[:, None],
                                 np.concatenate([np.full(xa.size, wa), np.full(xb.size, -wb)]),
                                 np.concatenate([ka, kb]), np.concatenate([pa, pb]))

    def decrypt(self, dk, ct, rng=None):
        if not isinstance(ct, Scheme3Ciphertext):
            raise SchemeError("ciphertext does not belong to this scheme")
        if rng is None:
            raise SchemeError("decryption is probabilistic and needs an rng")
        accept = self.prfs.test(dk.bits, ct.x, ct.payload, rng)
        return "0" if accept else "1"

    def decrypt_error_exact(self, dk: DecryptionKey, x: str) -> float:
        """Exact probability of decrypting the mixed (message 1) payload as 0:
        the tester's acceptance averaged over the 2^n basis payloads."""
        n = self.prfs.params.output_qubits
        payloads = (sim.basis_state(n, int_to_bits(v, n)) for v in range(1 << n))
        return float(np.mean([self.prfs.test_exact(dk.bits, x, p) for p in payloads]))


# --- classical ciphertext wire format -------------------------------------
#
# tag byte (1 = owf, 2 = prfspd), u16 big-endian security parameter, then
# bitstring fields, each a u16 big-endian bit length, the bits MSB-first and
# zero padding to a byte. Scheme 1: x, nonce, body. Scheme 2: nonce, body, u16
# slot count, then per slot x and y~. All after the tag is one bit layout, for
# one `pack_bits` and one `unpack_bits`. The parser checks the widths that the
# security parameter fixes (x; the Scheme 2 nonce, slot count and slot inputs);
# `decrypt` checks the widths that depend on the scheme's other parameters. A
# field or count too wide for its u16 is a `SchemeError`.

_U16_MAX = 0xFFFF


def _u16(field_name: str, value) -> str:
    if not (isinstance(value, int) and 0 <= value <= _U16_MAX):
        raise SchemeError(f"ciphertext {field_name} {value!r} does not fit the u16 limit {_U16_MAX}")
    return format(value, "016b")


def _bit_fields(fields) -> str:
    """Each field's u16 bit length, its bits and zero padding to a byte."""
    return "".join([f"{len(bits):016b}{bits}{'0' * (-len(bits) % 8)}" for bits in fields])


def serialize_ciphertext(ct) -> bytes:
    if not isinstance(ct, (Scheme1Ciphertext, Scheme2Ciphertext)):
        raise SchemeError("only classical ciphertexts serialize to bytes")
    names, fields = _wire_fields(ct)
    tag, before_count = (b"\x01", 3) if isinstance(ct, Scheme1Ciphertext) else (b"\x02", 2)
    head = _u16("security parameter", ct.security_param)
    count = "" if before_count == 3 else _u16("slot count", len(fields) // 2 - 1)
    try:
        if all(isinstance(bits, str) and len(bits) <= _U16_MAX for bits in fields):
            layout = (head + _bit_fields(fields[:before_count]) + count
                      + _bit_fields(fields[before_count:]))
            return tag + pack_bits(layout)
    except ValueError:
        pass
    for name, bits in zip(names, fields):  # some field is at fault: the first, in wire order
        _check_fields((name,), (None,), (bits,))
        _u16(f"{name} bit length", len(bits))


def _read_bit_fields(layout: str, pos: int, names, widths) -> tuple[list, int]:
    """The bit fields from `pos` on, one per name, and the position after them; a field cut
    short, nonzero padding or another width than its width that is not None raises."""
    fields = []
    for name, width in zip(names, widths):
        n = int(layout[pos:pos + 16] or "0", 2)  # cut short: pos lands past the end
        start, pos = pos + 16, pos + 16 + n + (-n % 8)
        if pos > len(layout):
            raise SchemeError("ciphertext is truncated")
        if "1" in layout[start + n:pos]:
            raise SchemeError("ciphertext field has nonzero padding bits")
        fields.append(layout[start:start + n])
        if width is not None:
            _check_width(name, fields[-1], width)
    return fields, pos


def deserialize_ciphertext(data: bytes):
    if not data:
        raise SchemeError("empty ciphertext")
    if data[0] not in (1, 2):
        raise SchemeError(f"unknown ciphertext tag {data[0]}")
    layout = unpack_bits(data[1:], 8 * (len(data) - 1))
    lam = int(layout[:16] or "0", 2)  # cut short: the first field read finds it
    if data[0] == 1:
        (x, nonce, body), pos = _read_bit_fields(layout, 16, ("x", "nonce", "body"),
                                                 (lam, None, None))
        ct = Scheme1Ciphertext(lam, x, SkeCiphertext(nonce, body))
    else:  # the nonce is lambda bits: the SKE key is the lambda-bit k
        (nonce, body), pos = _read_bit_fields(layout, 16, ("nonce", "body"), (lam, None))
        if pos + 16 > len(layout):
            raise SchemeError("ciphertext is truncated")
        if (count := int(layout[pos:pos + 16], 2)) != lam:
            raise SchemeError(f"ciphertext has {count} slots, expected {lam}")
        fields, pos = _read_bit_fields(layout, pos + 16, ("slot input", "slot proof") * count,
                                       (lam, None) * count)
        ct = Scheme2Ciphertext(lam, SkeCiphertext(nonce, body), tuple(zip(fields[::2], fields[1::2])))
    if pos != len(layout):
        raise SchemeError(f"{(len(layout) - pos) // 8} trailing bytes after the ciphertext")
    return ct
