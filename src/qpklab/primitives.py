"""Toy classical and quantum primitives consumed by the encryption schemes.

Nothing here is secure against real adversaries. The PRF is a counter-mode
construction over SHA-256 chosen for determinism and easy cross-checking, the
symmetric cipher is the textbook nonce + PRF-pad XOR scheme, the function-like
state generator produces binary phase states, and the proof-of-destruction
family is a deliberately simple instantiation that satisfies the syntax and
correctness contracts exactly while staying enumerable at tiny widths.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from . import sim
from .bits import bits_to_int, check_bits, int_to_bits, random_bits, xor_bits
from .sim import PureState, WireRange


def _sha_bits(label: str, want: int) -> str:
    """First `want` bits of the counter-mode SHA-256 stream for `label`."""
    if want <= 0:
        return ""
    blocks = -(-want // 256)
    stream = b"".join(hashlib.sha256(f"{label}:{counter}".encode()).digest()
                      for counter in range(blocks))
    return format(int.from_bytes(stream, "big") >> (256 * blocks - want), f"0{want}b")


def prf_eval(key: str, x: str, out_width: int) -> str:
    """Keyed pseudorandom function: deterministic `out_width`-bit output.

    Derivation (normative for cross-implementation checks): the output is the
    first out_width bits of SHA-256("qpklab-prf|<key>|<x>:<counter>") for
    counter = 0, 1, ..., each digest read MSB-first.
    """
    check_bits(key)
    check_bits(x)
    return _sha_bits(f"qpklab-prf|{key}|{x}", out_width)


def _keystream(key: str, nonce: str, width: int) -> str:
    return _sha_bits(f"qpklab-ske|{key}|{nonce}", width)


class RandomFunctionTable:
    """Lazy random function bitstring -> bitstring with a fixed output width.

    Each fresh input gets an i.i.d. uniform output on first query; repeat
    queries always return the stored value. First queries are serialized so
    concurrent callers agree on a single value.
    """

    def __init__(self, out_width: int, rng: np.random.Generator):
        self.out_width = out_width
        self._rng = rng
        self._table: dict[str, str] = {}
        self._lock = threading.Lock()

    def __call__(self, x: str) -> str:
        check_bits(x)
        with self._lock:
            if x not in self._table:
                self._table[x] = random_bits(self.out_width, self._rng)
            return self._table[x]

    def known_entries(self) -> dict[str, str]:
        with self._lock:
            return dict(self._table)


@dataclass(frozen=True)
class SkeCiphertext:
    nonce: str
    body: str


class StreamSke:
    """Symmetric encryption: ct = (r, pad_key(r) XOR m) with a fresh uniform nonce."""

    def __init__(self, nonce_width: int | None = None):
        self.nonce_width = nonce_width

    def _nonce(self, key: str, rng: np.random.Generator) -> str:
        width = self.nonce_width if self.nonce_width is not None else len(key)
        return random_bits(width, rng)

    def encrypt(self, key: str, message: str, rng: np.random.Generator) -> SkeCiphertext:
        check_bits(key)
        check_bits(message)
        if not key:
            raise ValueError("empty symmetric key")
        nonce = self._nonce(key, rng)
        pad = _keystream(key, nonce, len(message))
        return SkeCiphertext(nonce, xor_bits(pad, message))

    def decrypt(self, key: str, ct: SkeCiphertext) -> str:
        check_bits(key)
        pad = _keystream(key, ct.nonce, len(ct.body))
        return xor_bits(pad, ct.body)


class FixedNonceSke(StreamSke):
    """Broken variant for mutation testing: the nonce is always all-zero."""

    def _nonce(self, key, rng):
        width = self.nonce_width if self.nonce_width is not None else len(key)
        return "0" * width


@dataclass(frozen=True)
class PrfsParams:
    """Widths for a function-like state family."""

    key_width: int
    input_width: int
    output_qubits: int
    # records whether the configured input width is meant to scale
    # super-logarithmically in the security parameter
    superlogarithmic_input: bool = True

    def __post_init__(self):
        if self.output_qubits < 1:
            raise ValueError("output size must be at least one qubit")


class PhasePrfs:
    """Binary phase-state family: |psi_{k,x}> = 2^{-n/2} sum_y (-1)^{f_k(x||y)} |y>.

    The tester is the exact projective measurement onto the generated state,
    possible because the simulator holds full statevectors, so its one-sided
    error is zero here.
    """

    def __init__(self, params: PrfsParams):
        self.params = params
        self._cache: dict[tuple[str, str], PureState] = {}

    def _phase_bit(self, key: str, x: str, y: str) -> int:
        return int(prf_eval(key, x + y, 1))

    def gen(self, key: str, x: str) -> PureState:
        check_bits(key, self.params.key_width)
        check_bits(x, self.params.input_width)
        cached = self._cache.get((key, x))
        if cached is not None:
            return cached
        if len(self._cache) > 8192:
            self._cache.clear()
        n = self.params.output_qubits
        dim = 1 << n
        amps = np.empty(dim, dtype=np.complex128)
        scale = dim ** -0.5
        for v in range(dim):
            sign = -1.0 if self._phase_bit(key, x, int_to_bits(v, n)) else 1.0
            amps[v] = sign * scale
        state = PureState(n, amps)
        self._cache[(key, x)] = state
        return state

    def oracle_isometry(self, key: str, state: PureState) -> PureState:
        """sum_x a_x |x>  ->  sum_x a_x |x>|psi_{k,x}>, input register on d qubits."""
        d = self.params.input_width
        n = self.params.output_qubits
        if state.qubit_count != d:
            raise sim.DimensionMismatchError("input register width does not match d")
        if d + n > sim.q_max():
            raise sim.CapacityError("isometry output exceeds qubit capacity")
        out = np.zeros(1 << (d + n), dtype=np.complex128)
        for xv in range(1 << d):
            a = state.amplitudes[xv]
            if a == 0:
                continue
            psi = self.gen(key, int_to_bits(xv, d))
            out[xv << n : (xv << n) + (1 << n)] = a * psi.amplitudes
        return PureState(d + n, out)

    def test_exact(self, key: str, x: str, candidate) -> float:
        """Acceptance probability of the tester: fidelity with the generated state."""
        return sim.fidelity(self.gen(key, x), candidate)

    def test(self, key: str, x: str, candidate, rng: np.random.Generator) -> int:
        accept, _post = sim.project_onto(candidate, self.gen(key, x), rng)
        return accept


class TablePrfs(PhasePrfs):
    """Phase-state family whose phase bits come from a lazy random function.

    Isolates information-theoretic structure: used where proofs replace the
    PRF with a truly random function.
    """

    def __init__(self, params: PrfsParams, rng: np.random.Generator):
        super().__init__(params)
        self._table = RandomFunctionTable(1, rng)

    def _phase_bit(self, key, x, y):
        return int(self._table(x + y))


class ConstantPrfs(PhasePrfs):
    """Broken variant for mutation testing: every (k, x) yields the same state."""

    def _phase_bit(self, key, x, y):
        return 0


@dataclass(frozen=True)
class PrfspdParams:
    """Widths for the proof-of-destruction family.

    The state has n = measured_width + tag_width qubits; a proof is the
    measured_width-bit measured half followed by the tag, c = n bits total.
    """

    key_width: int
    input_width: int
    measured_width: int
    tag_width: int

    @property
    def output_qubits(self) -> int:
        return self.measured_width + self.tag_width

    @property
    def proof_width(self) -> int:
        return self.measured_width + self.tag_width


@dataclass(frozen=True)
class PrfspdProof:
    bits: str


class ToyPrfspd:
    """Function-like states with proofs of destruction, toy instantiation.

    Gen(k, x) = 2^{-m/2} sum_y |y>|f_k(x||y)>; Del measures everything in the
    computational basis and outputs the transcript (y, z) as the proof;
    Ver(k, x, (y, z)) accepts iff z = f_k(x||y). Correctness is exact, and a
    uniformly random proof verifies with probability 2^{-tag_width}.
    """

    def __init__(self, params: PrfspdParams, prf=prf_eval):
        self.params = params
        self._prf = prf
        self._cache: dict[tuple[str, str], PureState] = {}

    def _tag(self, key: str, x: str, y: str) -> str:
        return self._prf(key, x + y, self.params.tag_width)

    def gen(self, key: str, x: str) -> PureState:
        check_bits(key, self.params.key_width)
        check_bits(x, self.params.input_width)
        cached = self._cache.get((key, x))
        if cached is not None:
            return cached
        if len(self._cache) > 8192:
            self._cache.clear()
        m, t = self.params.measured_width, self.params.tag_width
        amps = np.zeros(1 << (m + t), dtype=np.complex128)
        scale = (1 << m) ** -0.5
        for yv in range(1 << m):
            zv = bits_to_int(self._tag(key, x, int_to_bits(yv, m)))
            amps[(yv << t) | zv] = scale
        state = PureState(m + t, amps)
        self._cache[(key, x)] = state
        return state

    def delete(self, state: PureState, rng: np.random.Generator) -> PrfspdProof:
        if state.qubit_count != self.params.output_qubits:
            raise sim.DimensionMismatchError("state width does not match the family")
        outcome, _post = sim.measure_computational(state, state.full_range(), rng)
        return PrfspdProof(outcome)

    def verify(self, key: str, x: str, proof: PrfspdProof) -> int:
        check_bits(proof.bits, self.params.proof_width)
        m = self.params.measured_width
        y, z = proof.bits[:m], proof.bits[m:]
        return int(z == self._tag(key, x, y))

    def accepting_density(self) -> float:
        """Probability that a uniformly random proof verifies (any key, input)."""
        return 2.0 ** -self.params.tag_width


@dataclass(frozen=True)
class PrimitiveConfig:
    """Serializable width configuration shared by the CLI and reports."""

    security_param: int
    input_width: int
    output_qubits: int
    measured_width: int
    proof_width: int
    instantiation: str

    FIELDS = ("security_param", "input_width", "output_qubits",
              "measured_width", "proof_width", "instantiation")

    def to_text(self) -> str:
        return "".join(f"{name}={getattr(self, name)}\n" for name in self.FIELDS)

    @classmethod
    def from_text(cls, text: str) -> "PrimitiveConfig":
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            name, _, raw = line.partition("=")
            values[name] = raw
        kwargs = {name: (values[name] if name == "instantiation" else int(values[name]))
                  for name in cls.FIELDS}
        return cls(**kwargs)
