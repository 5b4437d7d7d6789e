"""Dense pure-state simulator.

Every quantum object in the package lives here: statevectors over the
computational basis of q qubits, classical-function oracles,
computational-basis measurement with projection, puncturing, and the standard
distance measures. Amplitudes are dense complex vectors; there is no gate set
and no noise model, only what the constructions actually use. A mixed state
is held as an ensemble of pure states, which callers sample or enumerate.

Bit order is little-endian: qubit 0 is the least significant bit of the basis
index. A register of width w at offset o holds the bits (index >> o) & (2^w-1).

Every public key in the package is a controlled state sum_x a_x |x>|phi_x>:
the control register x sits on the high wires and the block phi_x on the
wires below it, so the block of x is the contiguous slice of amplitudes
[x * 2^b, (x + 1) * 2^b) for a b-qubit block. `controlled_state` builds one
block by block. A `GraphState` is the graph of a classical function,
sum_x a_x |x> sum_y c |y>|f(x||y)>, held as its recipe (the control state and
a map from x to the cells of its block); the OWF key and the PRFSPD slot
state are such graph states. `GraphState.materialize` writes the dense state
from one table of function values that its caller computes in one call for
all x. `measure_control` measures x on any number of copies of one controlled
state from one control marginal, and renormalizes each outcome's block alone,
with no full-size post-measurement vector: sliced out of a dense state, or
built from a graph state's recipe, so measuring the lambda-copy PRFSPD slot
state builds lambda blocks and never the 2^(lambda+m+t) amplitudes.

A computational-basis draw (`sample_outcome`, `measure_control`) cumulates the
Born probabilities of the nonzero outcomes only, and gives the bits that
`rng.choice` gives over all of them: a graph-state key has 2^lambda nonzero
amplitudes among 2^(lambda+n).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bits import bits_to_int, check_bits, int_to_bits

ATOL_ALGEBRA = 1e-10
ATOL_EXACT = 1e-12

DEFAULT_Q_MAX = 20


def q_max() -> int:
    """Qubit capacity; override with the QPKLAB_QMAX environment variable."""
    raw = os.environ.get("QPKLAB_QMAX")
    try:
        return int(raw) if raw else DEFAULT_Q_MAX
    except ValueError:
        raise ValueError(f"QPKLAB_QMAX must be an integer, got {raw!r}") from None


class CapacityError(ValueError):
    """Requested object does not fit in the configured qubit capacity."""


def check_capacity(qubit_count: int, what: str) -> None:
    """Raise `CapacityError`, before any allocation, unless `qubit_count` is in [1, q_max()]."""
    if not 1 <= qubit_count <= q_max():
        raise CapacityError(f"{what} needs {qubit_count} qubits, outside [1, {q_max()}]")


def check_entries(entries: int) -> None:
    """Key states, Gram blocks and enumerations hold no more entries than a q_max-qubit state."""
    if entries > 1 << q_max():
        raise CapacityError(f"exact oracle needs at least {entries} entries, more than 2^{q_max()}")


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


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the basis of `qubit_count` qubits."""

    qubit_count: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_capacity(self.qubit_count, "state")
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


def basis_state(qubit_count: int, bits: str) -> PureState:
    """Computational basis state |bits> (big-endian bitstring)."""
    check_bits(bits, qubit_count)
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[bits_to_int(bits)] = 1.0
    return PureState(qubit_count, amps)


def uniform_superposition(qubit_count: int) -> PureState:
    """Equal superposition over all basis states, amplitude 2^{-q/2} each."""
    check_capacity(qubit_count, "uniform superposition")
    dim = 1 << qubit_count
    return PureState(qubit_count, np.full(dim, dim ** -0.5, dtype=np.complex128))


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; `a` becomes the high wires, `b` the low wires.

    tensor(|x>, |z>) == |xz>: the combined basis index is ia * 2^qb + ib.
    """
    q = a.qubit_count + b.qubit_count
    check_capacity(q, "tensor product")
    return PureState(q, np.kron(a.amplitudes, b.amplitudes))


def controlled_state(control: PureState, block_qubits: int, block_of) -> PureState:
    """sum_x a_x |x>|block_of(x)> for control = sum_x a_x |x>, control on the high wires.

    `block_of` maps a control value x (a bitstring) to the amplitude vector
    of its `block_qubits`-qubit block, and is called only where a_x != 0.
    """
    q = control.qubit_count + block_qubits
    check_capacity(q, "controlled state")
    amps = np.zeros((control.dim, 1 << block_qubits), dtype=np.complex128)
    for xv in np.flatnonzero(control.amplitudes).tolist():
        amps[xv] = control.amplitudes[xv] * block_of(int_to_bits(xv, control.qubit_count))
    return PureState(q, amps.reshape(-1))


@dataclass(frozen=True)
class GraphState:
    """sum_x a_x |x> sum_{j in cells(x)} c |j> for control = sum_x a_x |x>, control high.

    The graph of a classical function, held as its recipe: no amplitude of
    the joint state exists until `materialize` writes them all, and
    `measure_control` builds only the blocks it draws. `cells_of` maps an
    integer array of control values x with a_x != 0 to the block's basis
    indices that carry amplitude c: one row of indices per x (or one index
    per x), the same number k for every x. c = k^(-1/2), the one size for
    which the state is a unit vector. Each amplitude is the product a_x * c
    that `controlled_state` gives for the same block.
    """

    control: PureState
    block_qubits: int
    cells_of: object = field(repr=False)

    @property
    def qubit_count(self) -> int:
        return self.control.qubit_count + self.block_qubits

    def _cells(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(self.cells_of(rows), dtype=np.int64).reshape(len(rows), -1)

    def materialize(self) -> PureState:
        """The dense state. `cells_of` is called once, after the capacity check,
        with every x where a_x != 0, so the caller can build its whole table in
        one pass; the table is written at once and no block is built as a state."""
        check_capacity(self.qubit_count, "graph state")
        rows = np.flatnonzero(self.control.amplitudes)
        cells = self._cells(rows)
        amps = np.zeros((self.control.dim, 1 << self.block_qubits), dtype=np.complex128)
        amps[rows[:, None], cells] = self.control.amplitudes[rows, None] * cells.shape[1] ** -0.5
        return PureState(self.qubit_count, amps.reshape(-1))

    def _block(self, xv: int) -> np.ndarray:
        """The amplitudes of x = `xv`'s block as `materialize` writes them, not
        renormalized: one call of `cells_of`, for x alone."""
        amps = np.zeros(1 << self.block_qubits, dtype=np.complex128)
        cells = self._cells(np.array([xv]))[0]
        amps[cells] = self.control.amplitudes[xv] * len(cells) ** -0.5
        return amps


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


def _register_block(vec: np.ndarray, wires: WireRange, value: int) -> np.ndarray:
    """Amplitudes of `vec` with `wires` fixed to `value`, as a flat vector.

    The register's wires are dropped: wires below it keep their offsets and
    wires above it move down by its width. Not renormalized.
    """
    return _register_view(vec, wires)[:, value, :].reshape(-1)


def born_probabilities(state: PureState, wires: WireRange) -> np.ndarray:
    """Marginal outcome probabilities for measuring `wires` in the computational basis."""
    wires.check_fits(state.qubit_count)
    probs = np.abs(state.amplitudes)
    view = _register_view(np.square(probs, out=probs), wires)
    # a sum over a size-1 axis copies the array the slow way; skip those axes
    spread = tuple(axis for axis in (0, 2) if view.shape[axis] > 1)
    return view.sum(axis=spread).reshape(-1) if spread else view.reshape(-1)


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


def _born_cdf(state: PureState, wires: WireRange):
    """Outcomes of `wires` with nonzero probability, and their normalised CDF.

    Returns (support, cdf): `support[cdf.searchsorted(rng.random(),
    side="right")]` draws what `rng.choice(len(p), p=p)` draws, without that
    call's validation passes. Only the support is cumulated, and the draw is
    the same bits: adding an exact 0.0 leaves a sequential running sum as it
    is, and the first CDF entry above u always sits at a jump, which is a
    support index.
    """
    probs = born_probabilities(state, wires)
    total = probs.sum()
    assert abs(total - 1.0) < 1e-8
    # nonzero() of the boolean mask is several times faster than flatnonzero
    support = (probs != 0).nonzero()[0]
    cdf = probs[support]
    cdf /= total
    cdf.cumsum(out=cdf)
    cdf /= cdf[-1]
    return support, cdf


def sample_outcome(state: PureState, wires: WireRange, rng: np.random.Generator) -> str:
    """Born-rule outcome of measuring `wires`, for callers that discard the post-state.

    One `rng.random()` looked up in the CDF over the nonzero outcomes: the
    draw of `rng.choice(len(p), p=p)`.
    """
    support, cdf = _born_cdf(state, wires)
    return int_to_bits(int(support[cdf.searchsorted(rng.random(), side="right")]), wires.width)


def measure_computational(state: PureState, wires: WireRange, rng: np.random.Generator):
    """Born-rule measurement of `wires`; returns (outcome bitstring, post-state)."""
    outcome = sample_outcome(state, wires, rng)
    prob, post = project(state, wires, outcome)
    assert post is not None, "sampled outcome has zero projection"
    return outcome, post


def measure_control(state: PureState | GraphState, control_width: int,
                    rng: np.random.Generator, copies: int = 1):
    """Measure the control register of `copies` copies of a controlled state.

    Yields (x, block) once per copy, lazily: each copy draws one
    `rng.random()` when it is requested, so a caller may interleave its own
    draws and still get what `copies` single-copy measurements would give.
    The control marginal and its CDF over the nonzero outcomes are computed
    once, for all copies. The block is the renormalized state left on the
    wires below the control, with no full-size post-measurement state: sliced
    out of a `PureState`'s amplitudes, or built alone from a `GraphState`'s
    recipe, whose control marginal is its control state's Born rule.
    Single-copy callers take `next(...)`.
    """
    if isinstance(state, GraphState):
        if control_width != state.control.qubit_count:
            raise ValueError(f"graph state has a {state.control.qubit_count}-qubit control, "
                             f"not {control_width}")
        support, cdf = _born_cdf(state.control, state.control.full_range())
        block_of = state._block
    else:
        wires = WireRange(state.qubit_count - control_width, control_width)
        support, cdf = _born_cdf(state, wires)
        block_of = partial(_register_block, state.amplitudes, wires)
    for _ in range(copies):
        xv = int(support[cdf.searchsorted(rng.random(), side="right")])
        block = block_of(xv)
        prob = float(np.vdot(block, block).real)
        assert prob > ATOL_EXACT**2, "sampled outcome has zero projection"
        yield (int_to_bits(xv, control_width),
               PureState(state.qubit_count - control_width, block / np.sqrt(prob)))


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


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2."""
    if a.qubit_count != b.qubit_count:
        raise DimensionMismatchError(f"operands act on {a.qubit_count} and {b.qubit_count} qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# 1 - F below which `trace_distance` sums the residual instead of sqrt(1 - F)
_RESIDUAL_CUT = 1e-4
_RESIDUAL_CHUNK = 1 << 12


def trace_distance(a: PureState, b: PureState) -> float:
    """The trace distance of two pure states: sqrt(1 - F).

    Near F = 1 that form loses digits to the rounding of F (it gives 1.5e-8
    for a state and itself), so where 1 - F is below `_RESIDUAL_CUT` the same
    distance is taken as the norm of a's component orthogonal to b,
    ||a - c b|| / ||a|| with c = <b|a> / <b|b>. The residual is summed in
    chunks, so no full-size temporary is allocated.
    """
    f = fidelity(a, b)
    if 1.0 - f >= _RESIDUAL_CUT:
        return float(np.sqrt(1.0 - f))
    va, vb = a.amplitudes, b.amplitudes
    c = np.vdot(vb, va) / np.vdot(vb, vb).real
    residual2 = 0.0
    for start in range(0, len(va), _RESIDUAL_CHUNK):
        r = va[start:start + _RESIDUAL_CHUNK] - c * vb[start:start + _RESIDUAL_CHUNK]
        residual2 += np.vdot(r, r).real
    return float(np.sqrt(residual2 / np.vdot(va, va).real))


def swap_test(a: PureState, b: PureState, rng: np.random.Generator) -> int:
    """Equality test: returns 1 ("same") with probability (1 + |<a|b>|^2) / 2."""
    p_accept = 0.5 * (1.0 + fidelity(a, b))
    return int(rng.random() < p_accept)


def project_onto(state: PureState, reference: PureState, rng: np.random.Generator):
    """Binary projective measurement {|ref><ref|, 1 - |ref><ref|} on `state`.

    Accepts with probability fidelity(reference, state). Returns
    (accept bit, post-state): the reference on accept and the renormalized
    orthogonal component otherwise.
    """
    p_accept = fidelity(reference, state)
    if rng.random() < p_accept:
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
    check_capacity(qubit_count, "Haar-random state")
    dim = 1 << qubit_count
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(qubit_count, vec / np.linalg.norm(vec))
