"""Dense pure-state / density-matrix simulator.

Every quantum object in the package lives here: statevectors over the
computational basis of q qubits, small density matrices, classical-function
oracles, computational-basis measurement with projection, puncturing, and the
standard distance measures. Amplitudes are dense complex vectors; there is no
gate set and no noise model, only what the constructions actually use.

Bit order is little-endian: qubit 0 is the least significant bit of the basis
index. A register of width w at offset o holds the bits (index >> o) & (2^w-1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .bits import bits_to_int, check_bits, int_to_bits

ATOL_ALGEBRA = 1e-10
ATOL_EXACT = 1e-12

DEFAULT_Q_MAX = 20


def q_max() -> int:
    """Qubit capacity; override with the QPKLAB_QMAX environment variable."""
    raw = os.environ.get("QPKLAB_QMAX")
    return int(raw) if raw else DEFAULT_Q_MAX


class CapacityError(ValueError):
    """Requested object does not fit in the configured qubit capacity."""


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class EmptyProjectionError(ValueError):
    """A projection removed all amplitude mass."""


@dataclass(frozen=True)
class WireRange:
    """Contiguous register inside a state: wires [offset, offset + width)."""

    offset: int
    width: int

    def __post_init__(self):
        if self.offset < 0 or self.width < 0:
            raise ValueError("negative wire range")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def overlaps(self, other: "WireRange") -> bool:
        return self.offset < other.offset + other.width and other.offset < self.offset + self.width

    def check_fits(self, qubit_count: int):
        if self.offset + self.width > qubit_count:
            raise ValueError(
                f"wire range [{self.offset}, {self.offset + self.width}) exceeds {qubit_count} qubits"
            )

    def extract(self, index: int) -> int:
        return (index >> self.offset) & self.mask


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the basis of `qubit_count` qubits."""

    qubit_count: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 1 <= self.qubit_count <= q_max():
            raise CapacityError(f"qubit count {self.qubit_count} out of range [1, {q_max()}]")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.qubit_count,):
            raise ValueError("amplitude vector length does not match qubit count")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > ATOL_ALGEBRA:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.qubit_count

    def full_range(self) -> WireRange:
        return WireRange(0, self.qubit_count)

    def dump(self) -> str:
        """Debug dump: one `(index, re, im)` line per nonzero amplitude.

        Little-endian contract: qubit 0 is the least significant bit of the
        basis index.
        """
        lines = []
        for i, a in enumerate(self.amplitudes):
            if abs(a) > ATOL_EXACT:
                lines.append(f"{i} {a.real:.12e} {a.imag:.12e}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix over the basis of `qubit_count` qubits."""

    qubit_count: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = 1 << self.qubit_count
        if mat.shape != (dim, dim):
            raise ValueError("matrix shape does not match qubit count")
        if not np.allclose(mat, mat.conj().T, atol=ATOL_ALGEBRA):
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL_ALGEBRA:
            raise ValueError("matrix trace is not 1")
        if np.linalg.eigvalsh(mat).min() < -ATOL_ALGEBRA:
            raise ValueError("matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return 1 << self.qubit_count

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return cls(state.qubit_count, np.outer(state.amplitudes, state.amplitudes.conj()))

    @classmethod
    def maximally_mixed(cls, qubit_count: int) -> "DensityMatrix":
        dim = 1 << qubit_count
        return cls(qubit_count, np.eye(dim) / dim)


def basis_state(qubit_count: int, bits: str) -> PureState:
    """Computational basis state |bits> (big-endian bitstring)."""
    check_bits(bits, qubit_count)
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[bits_to_int(bits)] = 1.0
    return PureState(qubit_count, amps)


def uniform_superposition(qubit_count: int) -> PureState:
    """Equal superposition over all basis states, amplitude 2^{-q/2} each."""
    if not 1 <= qubit_count <= q_max():
        raise CapacityError(f"qubit count {qubit_count} out of range [1, {q_max()}]")
    dim = 1 << qubit_count
    return PureState(qubit_count, np.full(dim, dim ** -0.5, dtype=np.complex128))


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; `a` becomes the high wires, `b` the low wires.

    tensor(|x>, |z>) == |xz>: the combined basis index is ia * 2^qb + ib.
    """
    q = a.qubit_count + b.qubit_count
    if q > q_max():
        raise CapacityError(f"tensor product needs {q} qubits, capacity is {q_max()}")
    return PureState(q, np.kron(a.amplitudes, b.amplitudes))


def apply_function_oracle(state, f, in_range: WireRange, out_range: WireRange) -> PureState:
    """XOR-oracle for a classical function: |x>|z> -> |x>|z XOR f(x)>.

    `f` maps bitstrings of width in_range.width to bitstrings of width
    out_range.width, evaluated once per input value. Unitary, so the norm is
    preserved.
    """
    in_range.check_fits(state.qubit_count)
    out_range.check_fits(state.qubit_count)
    if in_range.overlaps(out_range):
        raise ValueError("input and output wire ranges overlap")
    fx = np.empty(1 << in_range.width, dtype=np.int64)
    for v in range(1 << in_range.width):
        y = f(int_to_bits(v, in_range.width))
        check_bits(y, out_range.width)
        fx[v] = bits_to_int(y)
    idx = np.arange(state.dim, dtype=np.int64)
    xvals = (idx >> in_range.offset) & in_range.mask
    zvals = (idx >> out_range.offset) & out_range.mask
    new_z = zvals ^ fx[xvals]
    new_idx = (idx & ~(out_range.mask << out_range.offset)) | (new_z << out_range.offset)
    amps = np.zeros_like(state.amplitudes)
    amps[new_idx] = state.amplitudes
    return PureState(state.qubit_count, amps)


def apply_phase_oracle(state: PureState, g) -> PureState:
    """Multiply the amplitude of |y> by (-1)^g(y) for a classical predicate g."""
    signs = np.empty(state.dim)
    for v in range(state.dim):
        bit = g(int_to_bits(v, state.qubit_count))
        if bit not in (0, 1):
            raise ValueError("phase predicate must return 0 or 1")
        signs[v] = -1.0 if bit else 1.0
    return PureState(state.qubit_count, state.amplitudes * signs)


def _register_view(vec: np.ndarray, wires: WireRange) -> np.ndarray:
    """`vec` viewed as (bits above, register value, bits below) for `wires`."""
    return vec.reshape(len(vec) >> (wires.offset + wires.width), 1 << wires.width,
                       1 << wires.offset)


def born_probabilities(state: PureState, wires: WireRange) -> np.ndarray:
    """Marginal outcome probabilities for measuring `wires` in the computational basis."""
    wires.check_fits(state.qubit_count)
    weights = np.abs(state.amplitudes) ** 2
    return _register_view(weights, wires).sum(axis=(0, 2))


def project(state: PureState, wires: WireRange, outcome: str):
    """Project `wires` onto |outcome>; returns (probability, renormalized post-state).

    The post-state is None when the probability is zero.
    """
    wires.check_fits(state.qubit_count)
    check_bits(outcome, wires.width)
    target = bits_to_int(outcome)
    amps = np.zeros_like(state.amplitudes)
    _register_view(amps, wires)[:, target] = _register_view(state.amplitudes, wires)[:, target]
    prob = float(np.vdot(amps, amps).real)
    if prob <= ATOL_EXACT**2:
        return 0.0, None
    return prob, PureState(state.qubit_count, amps / np.sqrt(prob))


def measure_computational(state: PureState, wires: WireRange, rng: np.random.Generator):
    """Born-rule measurement of `wires`; returns (outcome bitstring, post-state)."""
    probs = born_probabilities(state, wires)
    total = probs.sum()
    assert abs(total - 1.0) < 1e-8
    outcome_val = int(rng.choice(len(probs), p=probs / total))
    outcome = int_to_bits(outcome_val, wires.width)
    prob, post = project(state, wires, outcome)
    assert post is not None, "sampled outcome has zero projection"
    return outcome, post


def puncture(state: PureState, marked: str, wires: WireRange) -> PureState:
    """Zero out all amplitudes whose `wires` value equals `marked`, renormalize."""
    wires.check_fits(state.qubit_count)
    check_bits(marked, wires.width)
    amps = state.amplitudes.copy()
    _register_view(amps, wires)[:, bits_to_int(marked)] = 0.0
    norm2 = float(np.vdot(amps, amps).real)
    if norm2 <= ATOL_EXACT**2:
        raise EmptyProjectionError("puncturing removed all amplitude mass")
    return PureState(state.qubit_count, amps / np.sqrt(norm2))


def _check_same_qubits(a, b):
    if a.qubit_count != b.qubit_count:
        raise DimensionMismatchError(
            f"operands act on {a.qubit_count} and {b.qubit_count} qubits"
        )


def fidelity(a, b) -> float:
    """|<a|b>|^2 for pure states, <a|rho|a> for pure/mixed, Uhlmann for mixed/mixed."""
    _check_same_qubits(a, b)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(a, PureState):
        return float(np.real(a.amplitudes.conj() @ b.matrix @ a.amplitudes))
    if isinstance(b, PureState):
        return fidelity(b, a)
    root = _psd_sqrt(a.matrix)
    inner = np.linalg.eigvalsh(root @ b.matrix @ root)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix; rounding-negative eigenvalues count as 0."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def trace_distance(a, b) -> float:
    """sqrt(1 - F) for pure states; half the trace norm of the difference otherwise."""
    _check_same_qubits(a, b)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(np.sqrt(max(0.0, 1.0 - fidelity(a, b))))
    ra = a.matrix if isinstance(a, DensityMatrix) else DensityMatrix.from_pure(a).matrix
    rb = b.matrix if isinstance(b, DensityMatrix) else DensityMatrix.from_pure(b).matrix
    eigs = np.linalg.eigvalsh(ra - rb)
    return float(0.5 * np.abs(eigs).sum())


def swap_test(a: PureState, b: PureState, rng: np.random.Generator) -> int:
    """Equality test: returns 1 ("same") with probability (1 + |<a|b>|^2) / 2."""
    _check_same_qubits(a, b)
    p_accept = 0.5 * (1.0 + fidelity(a, b))
    return int(rng.random() < p_accept)


def project_onto(state, reference: PureState, rng: np.random.Generator):
    """Binary projective measurement {|ref><ref|, 1 - |ref><ref|} on `state`.

    Accepts with probability fidelity(reference, state). Returns
    (accept bit, post-state); for a PureState input the post-state is the
    reference on accept and the renormalized orthogonal component otherwise.
    For a DensityMatrix input the post-state is omitted (None).
    """
    _check_same_qubits(state, reference)
    p_accept = fidelity(reference, state)
    accept = int(rng.random() < p_accept)
    if isinstance(state, DensityMatrix):
        return accept, None
    if accept:
        return 1, reference
    overlap = np.vdot(reference.amplitudes, state.amplitudes)
    residual = state.amplitudes - overlap * reference.amplitudes
    norm2 = float(np.vdot(residual, residual).real)
    if norm2 <= ATOL_EXACT**2:
        # fidelity 1 up to rounding; rejection cannot produce a state
        return 1, reference
    return 0, PureState(state.qubit_count, residual / np.sqrt(norm2))


def haar_random_state(qubit_count: int, rng: np.random.Generator) -> PureState:
    """State drawn from the Haar measure: normalized complex Gaussian vector."""
    if qubit_count > q_max():
        raise CapacityError(f"qubit count {qubit_count} exceeds capacity {q_max()}")
    dim = 1 << qubit_count
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(qubit_count, vec / np.linalg.norm(vec))
