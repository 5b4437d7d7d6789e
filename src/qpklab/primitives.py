"""Toy classical and quantum primitives consumed by the encryption schemes.

Nothing here is secure against real adversaries. The PRF is a counter-mode
construction over SHA-256 chosen for determinism and easy cross-checking, the
symmetric cipher is the textbook nonce + PRF-pad XOR scheme, the function-like
state generator produces binary phase states, and the proof-of-destruction
family is a deliberately simple instantiation that satisfies the syntax and
correctness contracts exactly while staying enumerable at tiny widths.

`prf_eval` maps one bitstring to one bitstring; `prf_table` gives the same
values for a whole integer array of inputs at once, with the key checked and
its hash prefix computed once. The graph-state keys (the OWF key and the
PRFSPD slot state) take their cells from such tables: the OWF key one table
per key, the PRFSPD slot state one 2^m-point table per block it builds
(`ToyPrfspd.graph`). The `prfs` challenge ensemble takes its key states from
one table per key as well (`PhasePrfs.uniform_isometry`), while `gen` still
calls the PRF once per phase bit. An injected PRF callable is still called
once per point and its outputs checked. `PrfspdScheme.decrypt` verifies its
proofs under one key the same way (`ToyPrfspd._verify_slots`): one keyed
prefix, one digest per proof.

Both state families take their PRF as `prf=` (default `prf_eval`), as
`schemes.OwfScheme` does: the random-function hybrid passes a
`RandomFunctionTable`, and a mutation passes a broken PRF such as
`lambda key, x, w: "0" * w`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sim
from .bits import bits_to_int, check_bits, int_to_bits, random_bits, xor_bits
from .sim import PureState


def _sha_int(prefix, label: str, want: int) -> int:
    """First `want` bits of the counter-mode SHA-256 stream of `label`, as an integer.

    `prefix` is a hash object that has already absorbed what precedes the
    label; block i of the stream is the digest of prefix + label + ":<i>".
    """
    blocks = -(-want // 256)
    stream = b""
    for counter in range(blocks):
        block = prefix.copy()
        block.update(f"{label}:{counter}".encode())
        stream += block.digest()
    return int.from_bytes(stream, "big") >> (256 * blocks - want)


def _sha_bits(label: str, want: int) -> str:
    """First `want` bits of the counter-mode SHA-256 stream for `label`."""
    if want <= 0:
        return ""
    return format(_sha_int(hashlib.sha256(), label, want), f"0{want}b")


def prf_eval(key: str, x: str, out_width: int) -> str:
    """Keyed pseudorandom function: deterministic `out_width`-bit output.

    Derivation (normative for cross-implementation checks): the output is the
    first out_width bits of SHA-256("qpklab-prf|<key>|<x>:<counter>") for
    counter = 0, 1, ..., each digest read MSB-first.
    """
    check_bits(key)
    check_bits(x)
    return _sha_bits(f"qpklab-prf|{key}|{x}", out_width)


def _keyed_prefix(key: str):
    """The key checked, and the "qpklab-prf|<key>|" part of `prf_eval`'s labels hashed."""
    check_bits(key)
    return hashlib.sha256(f"qpklab-prf|{key}|".encode())


def prf_table(key: str, inputs, in_width: int, out_width: int, prf=prf_eval) -> np.ndarray:
    """`prf_eval` at every input of an integer array, as integers of the same shape.

    Input v stands for the `in_width`-bit string of v. The key is checked and
    the "qpklab-prf|<key>|" prefix hashed once; each point then costs one
    SHA-256 digest per 256 output bits, with the normative labels of
    `prf_eval`. An injected `prf` (any callable other than `prf_eval` as this
    module names it at call time) is called once per point instead, and each
    output must be an `out_width`-bit string. The table is int64, or object
    for outputs wider than 63 bits.
    """
    keyed = _keyed_prefix(key)
    if in_width < 0 or out_width < 0:
        raise ValueError(f"PRF widths must be nonnegative, got in {in_width}, out {out_width}")
    inputs = np.asarray(inputs, dtype=np.int64)
    if inputs.size and (inputs.min() < 0 or int(inputs.max()) >> in_width):
        raise ValueError(f"PRF input does not fit in {in_width} bits")
    dtype = np.int64 if out_width <= 63 else object
    if prf is not prf_eval:
        out = [bits_to_int(check_bits(prf(key, int_to_bits(v, in_width), out_width), out_width))
               for v in inputs.ravel().tolist()]
        return np.array(out, dtype=dtype).reshape(inputs.shape)
    spec = f"0{in_width}b"
    out = [_sha_int(keyed, format(v, spec) if in_width else "", out_width)
           for v in inputs.ravel().tolist()]
    return np.array(out, dtype=dtype).reshape(inputs.shape)


def _keystream(key: str, nonce: str, width: int) -> str:
    return _sha_bits(f"qpklab-ske|{key}|{nonce}", width)


class RandomFunctionTable:
    """Lazy random function bitstring -> bitstring with a fixed output width.

    Called like `prf_eval` so it can stand in for the PRF: the key is ignored,
    and `out_width` must be the table's own. Each fresh input gets an i.i.d.
    uniform output on first query; repeat queries always return the stored value.
    """

    def __init__(self, out_width: int, rng: np.random.Generator):
        self.out_width = out_width
        self._rng = rng
        self._table: dict[str, str] = {}

    def __call__(self, key: str, x: str, out_width: int) -> str:
        if out_width != self.out_width:
            raise ValueError(f"random function outputs {self.out_width} bits, asked for {out_width}")
        check_bits(x)
        if x not in self._table:
            self._table[x] = random_bits(self.out_width, self._rng)
        return self._table[x]

    def known_entries(self) -> dict[str, str]:
        return dict(self._table)


@dataclass(frozen=True)
class SkeCiphertext:
    nonce: str
    body: str


class StreamSke:
    """Symmetric encryption: ct = (r, pad_key(r) XOR m) with a fresh uniform len(key)-bit nonce."""

    def _nonce(self, key: str, rng: np.random.Generator) -> str:
        return random_bits(len(key), rng)

    def nonce_space(self, width: int) -> list[str]:
        """The nonces `_nonce` draws, each equally likely, for a `width`-bit key: all, ascending."""
        return [int_to_bits(v, width) for v in range(1 << width)]

    def encrypt(self, key: str, message: str, rng: np.random.Generator) -> SkeCiphertext:
        check_bits(key)
        check_bits(message)
        if not key:
            raise ValueError("empty symmetric key")
        return self.seal(key, self._nonce(key, rng), message)

    def seal(self, key: str, nonce: str, message: str) -> SkeCiphertext:
        """The ciphertext of `message` under a given nonce; `encrypt` draws the nonce."""
        return SkeCiphertext(nonce, xor_bits(_keystream(key, nonce, len(message)), message))

    def decrypt(self, key: str, ct: SkeCiphertext) -> str:
        check_bits(key)
        pad = _keystream(key, ct.nonce, len(ct.body))
        return xor_bits(pad, ct.body)


class FixedNonceSke(StreamSke):
    """Broken variant for mutation testing: the nonce is always all-zero."""

    def _nonce(self, key, rng):
        return "0" * len(key)

    def nonce_space(self, width):
        return ["0" * width]


@dataclass(frozen=True)
class PrfsParams:
    """Widths for a function-like state family."""

    key_width: int
    input_width: int
    output_qubits: int

    def __post_init__(self):
        if self.output_qubits < 1:
            raise ValueError("output size must be at least one qubit")


class _StateFamily:
    """Keyed family of pure states |psi_{k,x}> on `params.output_qubits` qubits.

    Subclasses supply only the amplitudes of one state, from the keyed
    function `prf` (called like `prf_eval`); passing another callable swaps
    the PRF for, e.g., a `RandomFunctionTable`. `gen` checks the widths and
    caches every state it builds, with read-only amplitudes, emptying the
    cache once it holds more than 8192. `oracle_isometry` builds its blocks
    through `gen` unless a family writes the whole state itself (`ToyPrfspd`).
    """

    def __init__(self, params, prf=prf_eval):
        self.params = params
        self._prf = prf
        self._cache: dict[tuple[str, str], PureState] = {}

    def _amplitudes(self, key: str, x: str) -> np.ndarray:
        raise NotImplementedError

    def gen(self, key: str, x: str) -> PureState:
        check_bits(key, self.params.key_width)
        check_bits(x, self.params.input_width)
        cached = self._cache.get((key, x))
        if cached is not None:
            return cached
        if len(self._cache) > 8192:
            self._cache.clear()
        state = PureState(self.params.output_qubits, self._amplitudes(key, x))
        state.amplitudes.setflags(write=False)  # every later caller gets this object
        self._cache[(key, x)] = state
        return state

    def oracle_isometry(self, key: str, state: PureState) -> PureState:
        """sum_x a_x |x>  ->  sum_x a_x |x>|psi_{k,x}>, input register on d qubits."""
        if state.qubit_count != self.params.input_width:
            raise sim.DimensionMismatchError("input register width does not match d")
        return self._isometry(key, state)

    def _isometry(self, key: str, state: PureState) -> PureState:
        return sim.controlled_state(state, self.params.output_qubits,
                                    lambda x: self.gen(key, x).amplitudes)


class PhasePrfs(_StateFamily):
    """Binary phase-state family: |psi_{k,x}> = 2^{-n/2} sum_y (-1)^{f_k(x||y)} |y>.

    Each phase bit of a `gen` state is one call of the family's PRF. The
    tester is the exact projective measurement onto the generated state,
    possible because the simulator holds full statevectors, so its one-sided
    error is zero here.
    """

    def _amplitudes(self, key, x):
        n = self.params.output_qubits
        dim = 1 << n
        amps = np.empty(dim, dtype=np.complex128)
        scale = dim ** -0.5
        for v in range(dim):
            sign = -1.0 if int(self._prf(key, x + int_to_bits(v, n), 1)) else 1.0
            amps[v] = sign * scale
        return amps

    def uniform_isometry(self, key: str) -> np.ndarray:
        """The amplitudes of `oracle_isometry(key, uniform_superposition(d))`, from one
        PRF table over the 2^(d+n) points x||y, in ascending order as `gen` queries them.

        Each amplitude is the product (2^d)^(-1/2) * (+-(2^n)^(-1/2)) that the
        isometry forms from `_amplitudes`, with the same sign rule, so the two
        builders agree bit for bit; neither `gen` nor its cache is used.
        """
        check_bits(key, self.params.key_width)
        d, n = self.params.input_width, self.params.output_qubits
        phases = prf_table(key, np.arange(1 << (d + n)), d + n, 1, self._prf)
        scale = (1 << n) ** -0.5
        blocks = np.where(phases == 1, -scale, scale).astype(np.complex128)
        return (1 << d) ** -0.5 * blocks

    def test_exact(self, key: str, x: str, candidate) -> float:
        """Acceptance probability of the tester: fidelity with the generated state."""
        return sim.fidelity(self.gen(key, x), candidate)

    def test(self, key: str, x: str, candidate, rng: np.random.Generator) -> int:
        accept, _post = sim.project_onto(candidate, self.gen(key, x), rng)
        return accept


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

    def __post_init__(self):
        if self.measured_width < 0:
            raise ValueError(f"measured width must be nonnegative, got {self.measured_width}")
        if self.tag_width < 1:
            raise ValueError(f"tag width must be at least one bit, got {self.tag_width}")

    @property
    def output_qubits(self) -> int:
        return self.measured_width + self.tag_width

    @property
    def proof_width(self) -> int:
        return self.measured_width + self.tag_width


class ToyPrfspd(_StateFamily):
    """Function-like states with proofs of destruction, toy instantiation.

    Gen(k, x) = 2^{-m/2} sum_y |y>|f_k(x||y)>; Del measures everything in the
    computational basis and outputs the transcript (y, z) as the proof;
    Ver(k, x, (y, z)) accepts iff z = f_k(x||y). Correctness is exact, and a
    uniformly random proof verifies with probability 2^{-tag_width}. A proof
    is the c-bit outcome string.
    """

    def _cells(self, key: str, xs: np.ndarray) -> np.ndarray:
        """Basis indices of the terms |y>|f_k(x||y)> of |psi_{k,x}>: one row of 2^m per x.

        `xs` holds input values; the tags of all of them come from one PRF table.
        """
        d, m, t = self.params.input_width, self.params.measured_width, self.params.tag_width
        ys = np.arange(1 << m)
        tags = prf_table(key, (xs[:, None] << m) | ys, d + m, t, self._prf)
        return (ys << t) | tags

    def _amplitudes(self, key, x):
        amps = np.zeros(1 << self.params.output_qubits, dtype=np.complex128)
        cells = self._cells(key, np.array([bits_to_int(x)]))
        amps[cells] = (1 << self.params.measured_width) ** -0.5
        return amps

    def graph(self, key: str, control: PureState) -> sim.GraphState:
        """sum_x a_x |x>|psi_{k,x}> for control = sum_x a_x |x>, as the recipe of the
        graph of (x, y) -> f_k(x||y): no PRF point is evaluated until a block or
        the whole state is built, and neither `gen` nor its cache is used."""
        if control.qubit_count != self.params.input_width:
            raise sim.DimensionMismatchError("input register width does not match d")
        return sim.GraphState(control, self.params.output_qubits, partial(self._cells, key))

    def _isometry(self, key, state):
        return self.graph(key, state).materialize()

    def delete(self, state: PureState, rng: np.random.Generator) -> str:
        if state.qubit_count != self.params.output_qubits:
            raise sim.DimensionMismatchError("state width does not match the family")
        return sim.sample_outcome(state, state.full_range(), rng)

    def verify(self, key: str, x: str, proof: str) -> int:
        """1 iff the proof (y, z) of input x verifies: z = f_k(x||y)."""
        check_bits(x)
        check_bits(proof, self.params.proof_width)
        return int(self._verify_slots(key, ((x, proof),)))

    def _verify_slots(self, key: str, slots) -> str:
        """`verify(key, x, proof)` for each (x, proof) of `slots`, as one verdict bit each.

        The slots must already be checked: bitstrings, proofs of c bits
        (`verify` and `PrfspdScheme.decrypt` check them). The key is checked
        and its PRF prefix hashed once; each slot then costs one SHA-256
        digest per 256 tag bits, with the normative label x||y of `prf_eval`.
        An injected PRF (any callable other than `prf_eval` as this module
        names it at call time) is called once per slot.
        """
        m, t = self.params.measured_width, self.params.tag_width
        if self._prf is not prf_eval:
            return "".join("1" if proof[m:] == self._prf(key, x + proof[:m], t) else "0"
                           for x, proof in slots)
        keyed = _keyed_prefix(key)
        return "".join("1" if int(proof[m:], 2) == _sha_int(keyed, x + proof[:m], t) else "0"
                       for x, proof in slots)

    def accepting_density(self) -> float:
        """Probability that a uniformly random proof verifies (any key, input)."""
        return 2.0 ** -self.params.tag_width
