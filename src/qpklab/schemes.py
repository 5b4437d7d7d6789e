"""The three quantum public-key encryption constructions behind one interface.

Every scheme follows the four-algorithm shape: classical key generation, pure
quantum public-key generation (repeated calls yield the identical state),
encryption returning a recycled key alongside the ciphertext, and decryption
from the classical key.

- OwfScheme: public key sum_x |x>|f_dk(x)>; encrypting measures it once, caches
  the outcome, and symmetric-encrypts under the measured PRF value. Classical
  ciphertexts, perfect correctness, supports the encryption-oracle games.
- PrfspdScheme: lambda independent slots sum_x |x>|psi_dk,x>; encrypting
  measures each slot, deletes the residual states for proofs, and hides a fresh
  symmetric key bit-by-bit behind real-vs-random proofs. Classical ciphertexts.
- PrfsScheme: single-shot, one-bit messages; the ciphertext is the measured
  input together with either the matching function-like state or a maximally
  mixed payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import sim
from .bits import check_bits, int_to_bits, pack_bits, random_bits, unpack_bits
from .primitives import (
    PhasePrfs,
    PrfspdProof,
    SkeCiphertext,
    StreamSke,
    ToyPrfspd,
    prf_eval,
)
from .sim import DensityMatrix, PureState, WireRange


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
    """A public-key value plus its recycling state.

    `states` holds one pure state per independent register block (one entry
    for the OWF and PRFS schemes, lambda slot states for the PRFSPD scheme,
    kept separate so each slot stays within qubit capacity). Copies of one
    key share a single tuple of states with read-only amplitudes; the
    recycling record is each copy's own. `residue` caches the classical data
    produced by the first measuring encryption; `consumed` marks a spent
    single-shot key.
    """

    scheme: str
    states: tuple
    consumed: bool = False
    residue: object = None


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
    payload: object  # PureState or DensityMatrix


class QpkeScheme:
    """Common scheme interface; subclasses fill in the four algorithms."""

    name = ""
    supports_encryption_oracle = False

    def __init__(self, security_param: int):
        if security_param < 1:
            raise SchemeError("security parameter out of range")
        self.security_param = security_param
        self._last_public = None  # (dk bits, states) of the last key built

    def gen(self, rng: np.random.Generator) -> DecryptionKey:
        return DecryptionKey(random_bits(self.security_param, rng))

    def qpk_gen(self, dk: DecryptionKey) -> QuantumPublicKey:
        """A fresh copy of the public key for `dk`.

        Every copy under one decryption key is the same state, so the states
        of the last key are built once: repeated calls share one tuple of
        states with read-only amplitudes, and each call mints an independent
        recycling record (`consumed`, `residue`).
        """
        if self._last_public is None or self._last_public[0] != dk.bits:
            states = self._public_states(dk)
            for state in states:
                state.amplitudes.setflags(write=False)
            self._last_public = (dk.bits, states)
        return QuantumPublicKey(self.name, self._last_public[1])

    def _public_states(self, dk: DecryptionKey) -> tuple:
        """Build the public-key states for `dk`, one per register block."""
        raise NotImplementedError

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng: np.random.Generator):
        raise NotImplementedError

    def decrypt(self, dk: DecryptionKey, ct, rng: np.random.Generator | None = None) -> str:
        raise NotImplementedError

    def check_message(self, message: str) -> str:
        return check_bits(message)


class OwfScheme(QpkeScheme):
    """PRF-based scheme with classical ciphertexts and perfect correctness."""

    name = "owf"
    supports_encryption_oracle = True

    def __init__(self, security_param, prf_output_width=None, prf=prf_eval, ske=None):
        super().__init__(security_param)
        self.prf_output_width = prf_output_width or security_param
        self.prf = prf
        self.ske = ske or StreamSke()
        if security_param + self.prf_output_width > sim.q_max():
            raise sim.CapacityError("public key exceeds qubit capacity")

    def _x_range(self) -> WireRange:
        return WireRange(self.prf_output_width, self.security_param)

    def _y_range(self) -> WireRange:
        return WireRange(0, self.prf_output_width)

    def _public_states(self, dk: DecryptionKey) -> tuple:
        base = sim.tensor(
            sim.uniform_superposition(self.security_param),
            sim.basis_state(self.prf_output_width, "0" * self.prf_output_width),
        )
        f = lambda x: self.prf(dk.bits, x, self.prf_output_width)
        return (sim.apply_function_oracle(base, f, self._x_range(), self._y_range()),)

    def _ciphertext_for(self, y: str, x: str, message: str, rng) -> Scheme1Ciphertext:
        # shared by encrypt (post-measurement) and exhaustive correctness runs
        return Scheme1Ciphertext(self.security_param, x, self.ske.encrypt(y, message, rng))

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng):
        self.check_message(message)
        if qpk.residue is None:
            state = qpk.states[0]
            outcome, _post = sim.measure_computational(state, state.full_range(), rng)
            lam = self.security_param
            qpk.residue = (outcome[:lam], outcome[lam:])
        x, y = qpk.residue
        return qpk, self._ciphertext_for(y, x, message, rng)

    def decrypt(self, dk, ct, rng=None):
        if not isinstance(ct, Scheme1Ciphertext):
            raise SchemeError("ciphertext does not belong to this scheme")
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
        if security_param + prfspd.params.output_qubits > sim.q_max():
            raise sim.CapacityError("slot state exceeds qubit capacity")

    def _public_states(self, dk: DecryptionKey) -> tuple:
        lam = self.security_param
        n = self.prfspd.params.output_qubits
        amps = np.zeros(1 << (lam + n), dtype=np.complex128)
        scale = (1 << lam) ** -0.5
        for xv in range(1 << lam):
            psi = self.prfspd.gen(dk.bits, int_to_bits(xv, lam))
            amps[xv << n : (xv + 1) << n] = scale * psi.amplitudes
        return (PureState(lam + n, amps),) * lam

    def _measure_slots(self, qpk: QuantumPublicKey, rng):
        lam = self.security_param
        n = self.prfspd.params.output_qubits
        residue = []
        for slot in qpk.states:
            x, post = sim.measure_computational(slot, WireRange(n, lam), rng)
            block = post.amplitudes[int(x, 2) << n : (int(x, 2) + 1) << n]
            proof = self.prfspd.delete(PureState(n, block), rng)
            residue.append((x, proof.bits))
        qpk.residue = tuple(residue)

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng):
        self.check_message(message)
        if qpk.residue is None:
            self._measure_slots(qpk, rng)
        lam = self.security_param
        c = self.prfspd.params.proof_width
        k = random_bits(lam, rng)
        slots = []
        for i, (x, y) in enumerate(qpk.residue):
            y_tilde = random_bits(c, rng) if k[i] == "0" else y
            slots.append((x, y_tilde))
        body = self.ske.encrypt(k, message, rng)
        return qpk, Scheme2Ciphertext(lam, body, tuple(slots))

    def decrypt(self, dk, ct, rng=None):
        if not isinstance(ct, Scheme2Ciphertext):
            raise SchemeError("ciphertext does not belong to this scheme")
        k = "".join(
            str(self.prfspd.verify(dk.bits, x, PrfspdProof(y_tilde)))
            for x, y_tilde in ct.slots
        )
        return self.ske.decrypt(k, ct.body)


class PrfsScheme(QpkeScheme):
    """Function-like-state scheme: quantum ciphertexts, one-bit single-shot."""

    name = "prfs"
    supports_encryption_oracle = False

    def __init__(self, security_param, prfs: PhasePrfs):
        super().__init__(security_param)
        if prfs.params.key_width != security_param:
            raise SchemeError("family key width must equal the security parameter")
        self.prfs = prfs
        d = prfs.params.input_width
        n = prfs.params.output_qubits
        if d + n > sim.q_max():
            raise sim.CapacityError("public key exceeds qubit capacity")

    def check_message(self, message: str) -> str:
        if message not in ("0", "1"):
            raise SchemeError("message must be a single bit")
        return message

    def _public_states(self, dk: DecryptionKey) -> tuple:
        d = self.prfs.params.input_width
        return (self.prfs.oracle_isometry(dk.bits, sim.uniform_superposition(d)),)

    def encrypt(self, qpk: QuantumPublicKey, message: str, rng, mixed_as_density=False):
        """Single-shot encryption of one bit.

        For message 1 the payload is maximally mixed: a sampled uniform basis
        state by default (ensemble-equivalent, keeps game runs pure), or the
        explicit density matrix when `mixed_as_density` is set.
        """
        self.check_message(message)
        if qpk.consumed:
            raise KeyConsumedError("public key already used; the scheme is single-shot")
        d = self.prfs.params.input_width
        n = self.prfs.params.output_qubits
        state = qpk.states[0]
        x, post = sim.measure_computational(state, WireRange(n, d), rng)
        if message == "0":
            block = post.amplitudes[int(x, 2) << n : (int(x, 2) + 1) << n]
            payload = PureState(n, block)
        elif mixed_as_density:
            payload = DensityMatrix.maximally_mixed(n)
        else:
            payload = sim.basis_state(n, random_bits(n, rng))
        qpk.consumed = True
        return qpk, Scheme3Ciphertext(x, payload)

    def decrypt(self, dk, ct, rng=None):
        if not isinstance(ct, Scheme3Ciphertext):
            raise SchemeError("ciphertext does not belong to this scheme")
        if rng is None:
            raise SchemeError("decryption is probabilistic and needs an rng")
        accept = self.prfs.test(dk.bits, ct.x, ct.payload, rng)
        return "0" if accept else "1"

    def decrypt_error_exact(self, dk: DecryptionKey, x: str) -> float:
        """Exact probability of decrypting the mixed (message 1) payload as 0."""
        mixed = DensityMatrix.maximally_mixed(self.prfs.params.output_qubits)
        return self.prfs.test_exact(dk.bits, x, mixed)


# --- classical ciphertext wire format -------------------------------------
#
# tag byte (1 = owf, 2 = prfspd), u16 big-endian security parameter, then
# bitstring fields, each a u16 big-endian bit length followed by the bits
# packed MSB-first. Scheme 1: x, nonce, body. Scheme 2: nonce, body, u16 slot
# count, then per slot x and y~.


def _put_bits(parts: list, s: str):
    parts.append(struct.pack(">H", len(s)))
    parts.append(pack_bits(s))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u16(self) -> int:
        (v,) = struct.unpack_from(">H", self.data, self.pos)
        self.pos += 2
        return v

    def bits(self) -> str:
        width = self.u16()
        nbytes = (width + 7) // 8
        s = unpack_bits(self.data[self.pos : self.pos + nbytes], width)
        self.pos += nbytes
        return s


def serialize_ciphertext(ct) -> bytes:
    parts: list = []
    if isinstance(ct, Scheme1Ciphertext):
        parts.append(b"\x01")
        parts.append(struct.pack(">H", ct.security_param))
        _put_bits(parts, ct.x)
        _put_bits(parts, ct.body.nonce)
        _put_bits(parts, ct.body.body)
    elif isinstance(ct, Scheme2Ciphertext):
        parts.append(b"\x02")
        parts.append(struct.pack(">H", ct.security_param))
        _put_bits(parts, ct.body.nonce)
        _put_bits(parts, ct.body.body)
        parts.append(struct.pack(">H", len(ct.slots)))
        for x, y_tilde in ct.slots:
            _put_bits(parts, x)
            _put_bits(parts, y_tilde)
    else:
        raise SchemeError("only classical ciphertexts serialize to bytes")
    return b"".join(parts)


def deserialize_ciphertext(data: bytes):
    if not data:
        raise SchemeError("empty ciphertext")
    reader = _Reader(data[1:])
    tag = data[0]
    if tag == 1:
        lam = reader.u16()
        x = reader.bits()
        nonce = reader.bits()
        body = reader.bits()
        return Scheme1Ciphertext(lam, x, SkeCiphertext(nonce, body))
    if tag == 2:
        lam = reader.u16()
        nonce = reader.bits()
        body = reader.bits()
        count = reader.u16()
        slots = tuple((reader.bits(), reader.bits()) for _ in range(count))
        return Scheme2Ciphertext(lam, SkeCiphertext(nonce, body), slots)
    raise SchemeError(f"unknown ciphertext tag {tag}")
