"""Exact and brute-force oracles for the proof quantities at tiny parameters.

Each function turns one step of the hybrid argument into a checkable number:
the commuting-measurement equality, the punctured-key trace distance, the
real-vs-fresh-key distribution identity, and the Helstrom bound on any
adversary's distinguishing advantage. The `prfs` random-function mode replaces
the keyed function with a truly random one so its value reflects
information-theoretic structure only. The commuting, random-key and Helstrom
oracles return a `Check` record: the value, its reference if any, and the
verdict.

Every value is exact; each oracle works only on the support that carries
amplitude or rank:

- the punctured-key cross-check tensors p copies of the key's 2^lam support
  amplitudes, 2^(p*lam) entries in place of 2^(p(lam+n)); its capacity guard
  stays at the p(lam+n) qubits of the dense copies it stands for;
- the commuting check tensors p+1 copies of the same 2^lam support
  amplitudes, (p+1)*lam qubits in place of (p+1)(lam+n), with the same
  dense-qubit guard, and measures one register at a time over every branch
  at once, by slicing that keeps only the measured register's blocks, never
  a zero-padded full-size vector;
- Helstrom values solve the schemes' `challenge_ensemble` from Gram
  matrices: p key copies are the power C^p of the key-state overlaps, one
  block per label (x* or (x*, r, body)), blocks of one size solved as one
  stack, each block's eigenvalues below 1e-12 times its largest dropped;
- the `prfs` random-function Helstrom value uses rho1 = w*I and the spectrum
  of rho0, whose x* blocks are permutations of one another: of block 0,
  only the 2^(2n) rows that differ from w*I are built and solved, so the
  cost does not depend on lam.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import sim
from .bits import check_bits, int_to_bits
from .primitives import PhasePrfs, PrfsParams, StreamSke
from .schemes import ChallengeEnsemble, DecryptionKey, OwfScheme, PrfsScheme
from .sim import PureState, WireRange


@dataclass(frozen=True)
class Check:
    """The value of `check` at `case`, and its verdict: it fails when `reference`
    lies farther than `tolerance` from an EXACT value, or outside an EMPIRICAL
    rate's Wilson `interval`. With no reference yet it never fails."""

    check: str
    case: str
    value: float
    details: str
    flag: str = "EXACT"
    reference: float | None = None
    tolerance: float = 0.0
    interval: tuple[float, float] | None = None
    fmt: str = ".9f"  # how the value is printed

    def __post_init__(self):
        assert -1e-12 <= self.value <= 1 + 1e-12

    @property
    def failed(self) -> bool:
        lo, hi = self.interval or (self.value - self.tolerance, self.value + self.tolerance)
        return self.reference is not None and not lo <= self.reference <= hi


def _check_sizes(lam: int, copies: int = 0, queries: int = 0, output_width: int = 1) -> None:
    """Raise ValueError, before anything is built, for a size that has no meaning."""
    if lam < 1:
        raise ValueError(f"security parameter {lam} is below 1")
    if output_width < 1:
        raise ValueError(f"output width {output_width} is below 1")
    if copies < 0:
        raise ValueError("copy count must be nonnegative")
    if queries < 0:
        raise ValueError("query count must be nonnegative")


# --- punctured-key trace distance -----------------------------------------


def _on_key_support(lam: int, qpk: PureState, *others: PureState) -> list[PureState]:
    """`qpk` and `others` restricted to the key's support S: the 2^lam cells
    (x, f_dk(x)) of the OWF key `qpk`, in order of x, so each restricted state
    is a lam-qubit register holding the input x.

    Restricting is checked: `qpk` must have 2^lam nonzero cells, and every
    restricted vector unit norm, so a state with mass off S raises ValueError.
    """
    support = np.flatnonzero(qpk.amplitudes)
    if len(support) != 1 << lam:
        raise ValueError(f"key has {len(support)} nonzero cells, expected {1 << lam}")
    return [PureState(lam, state.amplitudes[support]) for state in (qpk, *others)]


def punctured_key_distance(lam: int, copies: int) -> float:
    """Closed form sqrt(1 - (1 - 2^-lam)^p) for p copies of the punctured key."""
    _check_sizes(lam, copies)
    return float(np.sqrt(max(0.0, 1.0 - (1.0 - 2.0**-lam) ** copies)))


def punctured_key_distance_explicit(lam: int, copies: int, prf_output_width: int = 2,
                                    dk_bits: str | None = None,
                                    x_star: str | None = None) -> float:
    """Cross-check path: build the key and its punctured version explicitly.

    Takes the OWF scheme's public key |qpk> = sum_x |x>|f_dk(x)> and the
    renormalized state with x* projected out, and returns the trace distance
    of p copies of each. Both states are zero off the key's support S, the
    2^lam cells (x, f_dk(x)), so the copies are tensored on S alone: the
    inner product over S^p is the one over the full 2^(p(lam+n)) entries.
    Restricting to S is itself checked (`_on_key_support`), so mass off S
    raises. The capacity guard stays at the p(lam+n) qubits of the state
    this check stands for.
    """
    _check_sizes(lam, copies, output_width=prf_output_width)
    dk_bits = dk_bits if dk_bits is not None else "0" * lam
    check_bits(dk_bits, lam)
    if copies == 0:
        return 0.0
    x_star = x_star if x_star is not None else "0" * lam
    n = prf_output_width
    sim.check_capacity(copies * (lam + n), "explicit tensor construction")
    qpk = OwfScheme(lam, prf_output_width=n).qpk_gen(DecryptionKey(dk_bits)).state
    punctured = sim.puncture(qpk, x_star, WireRange(n, lam))
    key, key_punct = _on_key_support(lam, qpk, punctured)
    full = reduce(sim.tensor, [key] * copies)
    full_punct = reduce(sim.tensor, [key_punct] * copies)
    return sim.trace_distance(full, full_punct)


# --- commuting-measurement check (measure-first vs measure-last) ----------


def _joint_distribution(state: PureState, labelled_ranges):
    """Exact outcome distribution for measuring the given registers in order.

    `labelled_ranges` is a sequence of (label, WireRange); the result maps
    label-sorted outcome tuples to probabilities so different measurement
    orders are directly comparable. One register is measured at a time, over
    every surviving branch at once: each branch's amplitudes are sliced into
    the blocks of the register's values (the block `sim._register_block`
    takes), the measured register's wires dropped and the registers above it
    moved down by its width, so no branch builds a full-size vector. Each
    block's probability is its own `np.vdot`, and a kept block is divided by
    the square root of it as the branch of the next register; the last
    register's blocks are never renormalized: their probabilities go
    straight into the distribution. Branches stay in depth-first order, so
    every value and every key's position are those of measuring one branch
    at a time.
    """
    # where each register sits once the registers measured before it are dropped
    levels, rest = [], list(labelled_ranges)
    while rest:
        (label, wires), rest = rest[0], rest[1:]
        levels.append((label, wires))
        rest = [(other, WireRange(w.offset - wires.width, w.width)
                 if w.offset > wires.offset else w) for other, w in rest]
    if not levels:
        return {(): 1.0}
    # one row per branch: its renormalized amplitudes, outcome so far and probability
    branches, outcomes, probs = state.amplitudes[None], [()], np.ones(1)
    for depth, (label, wires) in enumerate(levels):
        size = 1 << wires.width
        # (branch, above, value, below) -> one row per (branch, value), in that order
        tiles = branches.reshape(len(branches), -1, size, 1 << wires.offset).transpose(0, 2, 1, 3)
        blocks = tiles.reshape(len(branches) * size, -1)
        # a register on the lowest wires leaves each block a strided view, as
        # `sim._register_block` slices it, and BLAS sums a strided vector in
        # another order than a contiguous one: each vdot reads the block as laid out there
        laid_out = (row for tile in tiles[..., 0] for row in tile) if wires.offset == 0 else blocks
        p = np.array([np.vdot(block, block).real for block in laid_out])
        kept = np.flatnonzero(p > sim.ATOL_EXACT**2)
        values = [int_to_bits(v, wires.width) for v in range(size)]
        outcomes = [outcomes[i // size] + ((label, values[i % size]),) for i in kept.tolist()]
        probs = probs[kept // size] * p[kept]
        if depth + 1 < len(levels):
            # numpy divides complex by real as a product with the
            # reciprocal, so this real product keeps every bit of block / sqrt(p)
            floats = blocks[kept].view(np.float64) * (1.0 / np.sqrt(p[kept]))[:, None]
            branches = floats.view(np.complex128)
    dist: dict = {}
    for outcome, prob in zip(outcomes, probs.tolist()):
        key = tuple(sorted(outcome))
        dist[key] = dist.get(key, 0.0) + prob
    return dist


def total_variation(dist_a: dict, dist_b: dict) -> float:
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


def _uniform_over(outcomes) -> dict:
    """Distribution of a uniformly drawn entry of an enumeration (repeats count)."""
    dist: dict = {}
    count = 0
    for outcome in outcomes:
        dist[outcome] = dist.get(outcome, 0.0) + 1.0
        count += 1
    return {k: v / count for k, v in dist.items()}


def _joint_key_state(lam: int, copies: int, dk_bits: str):
    """|qpk>^(copies+1) on the key's support and its labelled input registers,
    challenger first.

    Each copy is restricted to its 2^lam cells (x, f_dk(x)) (`_on_key_support`)
    before tensoring: measuring x leaves the output register in |f_dk(x)>, a
    product factor, so the input outcomes have the dense copies' distribution.
    Copy j is the lam-qubit register at offset (copies - j)*lam, so the
    challenger's sits on the highest wires. The capacity guard counts the
    (copies+1)(lam+n) qubits, n = lam, of the dense copies this state stands for.
    """
    sim.check_capacity((copies + 1) * 2 * lam, "joint state")
    (key,) = _on_key_support(lam, OwfScheme(lam).qpk_gen(DecryptionKey(dk_bits)).state)
    joint = reduce(sim.tensor, [key] * (copies + 1))
    return joint, [("challenger" if j == 0 else f"copy{j}", WireRange((copies - j) * lam, lam))
                   for j in range(copies + 1)]


def commuting_measurement_check(lam: int, copies: int = 2,
                                dk_bits: str | None = None) -> Check:
    """Measure-before vs measure-after equality for the PRF-based public key.

    Tensors p+1 copies of the key on its support (challenger's copy plus p
    adversary copies, `_joint_key_state`), (p+1)*lam qubits, and compares the
    exact joint distribution of all input-register outcomes when the
    challenger measures last versus first, by sequential sliced projections
    (see `_joint_distribution`); the record judges the total-variation
    distance of the two orderings against 0, to 1e-12. The capacity guard
    counts the (p+1)(lam+n) qubits of the dense copies, and lam > 3 raises.
    """
    _check_sizes(lam, copies)
    if lam > 3:
        raise sim.CapacityError("exhaustive enumeration is limited to lam <= 3")
    dk_bits = dk_bits if dk_bits is not None else "0" * lam
    check_bits(dk_bits, lam)
    joint, ranges = _joint_key_state(lam, copies, dk_bits)
    measure_last = _joint_distribution(joint, ranges[1:] + ranges[:1])
    measure_first = _joint_distribution(joint, ranges)
    tv = total_variation(measure_last, measure_first)
    return Check("commuting", f"lam={lam}", tv, "H0-H1", reference=0.0, tolerance=1e-12,
                 fmt=".3e")


# --- real key vs fresh random key -----------------------------------------


def random_key_indistinguishability_check(lam: int, queries: int = 3) -> Check:
    """Exact H(x*)-as-key vs fresh-z-as-key distribution comparison.

    The function is a uniformly random one-bit table. The adversary sees the
    punctured key (determined by the table off x*), x*, and the bodies of the
    oracle answers to the message "10". Enumerates every table, key value, and
    nonce draw (the cipher's `nonce_space`), once their count fits the entry
    budget; the record holds the total-variation distance between the two
    visible-data distributions, judged against 0 to 1e-12.
    """
    _check_sizes(lam, queries=queries)
    # x*, the table off x*, h*, z and q nonces: 2^(lam + 2^lam + 1 + q) tuples, counted
    # up to twice the budget (2^lam up to 2^6), so no size makes a big integer
    tuples_log2 = lam + (1 << min(lam, 6)) + 1 + queries
    sim.check_entries(1 << min(tuples_log2, sim.q_max() + 1))
    message = "10"
    xs_all = [int_to_bits(v, lam) for v in range(1 << lam)]
    vals = ["0", "1"]
    nonces = StreamSke().nonce_space(1)

    # the answers depend only on the key and the nonces: tabulate them once
    bodies_of = {(key, r): StreamSke().seal(key, r, message).body for key in vals for r in nonces}
    answers_of = {key: [tuple((r, bodies_of[key, r]) for r in drawn)
                        for drawn in itertools.product(nonces, repeat=queries)]
                  for key in vals}

    def visible(key_from_table: bool):
        for x_star in xs_all:
            others = [x for x in xs_all if x != x_star]
            for rest in itertools.product(vals, repeat=len(others)):
                for h_star in vals:
                    for z in vals:
                        for answers in answers_of[h_star if key_from_table else z]:
                            yield x_star, rest, answers

    tv = total_variation(_uniform_over(visible(True)), _uniform_over(visible(False)))
    return Check("random-key", f"lam={lam},queries={queries}", tv, "H3-H4",
                 reference=0.0, tolerance=1e-12, fmt=".3e")


# --- Helstrom bound on the distinguishing advantage -----------------------

# Relative cut for a Gram block's eigenvalues: blocks are rank-deficient (at
# p=0 always), and the square root of their rounding noise would reach the value.
_RANK_TOL = 1e-12


# Gram blocks of one size are solved as (blocks, r, r) stacks of at most this
# many entries, or of one block where that is larger: memory follows a stack,
# not all the blocks of a size.
_STACK_ENTRIES = 1 << 16


def _stack_distance(grams: np.ndarray, weights: np.ndarray) -> float:
    """Sum over a stack of blocks of half the trace norm of V S V^dagger, given
    only G = V^dagger V.

    `grams` is (blocks, r, r) and `weights` (blocks, r): S = diag(weights)
    holds the signed weights of V's columns. From `eigh`, G = L L^dagger;
    each block's eigenvalues below _RANK_TOL times its largest are dropped by
    zeroing their columns of L, which adds only zero eigenvalues to
    L^dagger S L, whose nonzero spectrum is that of V S V^dagger. A stack
    with no imaginary part (phase states and one-hot keys have real
    amplitudes) is solved in real arithmetic, which is faster.
    """
    if not grams.imag.any():
        grams = grams.real
    vals, vecs = np.linalg.eigh(grams)
    keep = vals > _RANK_TOL * vals[:, -1:]
    factor = vecs * np.sqrt(np.where(keep, vals, 0.0))[:, None, :]
    eigs = np.linalg.eigvalsh((factor.conj().transpose(0, 2, 1) * weights[:, None, :]) @ factor)
    return float(0.5 * np.abs(eigs).sum())


def _gram_distance(ensemble: ChallengeEnsemble, copies: int) -> float:
    """Trace distance of the two challenge ensembles for `copies` key copies.

    Inner products factor as C[k,k']^p * delta_label * <payload|payload'>
    with C the key-state overlaps, so each label is a block; blocks of one
    row count are solved together (`_stack_distance`) in order of first term.
    """
    overlap = (ensemble.key_states.conj() @ ensemble.key_states.T) ** copies
    _, first, inverse = np.unique(ensemble.labels, axis=0, return_index=True, return_inverse=True)
    block = np.argsort(np.argsort(first))[inverse.ravel()]
    terms, sizes = np.argsort(block, kind="stable"), np.bincount(block)
    total = 0.0
    for size in dict.fromkeys(sizes.tolist()):  # in order of first block
        rows = terms[sizes[block[terms]] == size].reshape(-1, size)
        per_stack = max(1, _STACK_ENTRIES // size**2)
        for start in range(0, len(rows), per_stack):
            stack = rows[start:start + per_stack]
            keys, payloads = ensemble.keys[stack], ensemble.payloads[stack]
            grams = (overlap[keys[:, :, None], keys[:, None, :]]
                     * (payloads.conj() @ payloads.transpose(0, 2, 1)))
            total += _stack_distance(grams, ensemble.weights[stack])
    return total


def _prfs_random_distance(lam, output_qubits, copies) -> float:
    """Exact Helstrom value with a truly random phase function.

    The expectation over the random function of a product of amplitude phases
    is 1 when every queried point appears an even number of times and 0
    otherwise (the parity rule). The message-1 ensemble keeps no coherence:
    rho1 = w*I with w = 1/dim, so ||rho0 - rho1||_1 = sum_i |lambda_i(rho0) - w|
    and only the spectrum of rho0 is needed. rho0 is block-diagonal in the
    classical x* register; each block is built from the three pairings of
    the four queried points (k=b, 3=4), (k=3, b=4), (k=4, b=3), and all
    blocks share one spectrum. Within block 0, only the 2^(2n) rows whose key
    point has x = 0 differ from w*I, so only that sub-block is built and
    solved: the value is 2^-(d+2n+1) times a sum that depends on n alone.
    """
    d, n = lam, output_qubits
    if copies not in (0, 1):
        raise ValueError("random-function mode supports 0 or 1 key copies")
    if copies == 0:
        # no copy: the mixed payload and the averaged pure payload coincide
        return 0.0
    rows = 1 << (2 * n)
    sim.check_entries(rows * rows)
    w = 2.0 ** -(2 * (d + n))
    # An x* block has rows (k, y3) and columns (b, y4): k and b are the key
    # copy's points (x, y), 3 = (x*, y3) and 4 = (x*, y4) the payload's.
    # The identity is k=b with 3=4, `own` on both sides is k=3 with b=4, and
    # `crossed` is k=4 with b=3. Relabelling x -> x xor x* in all four points
    # keeps which of them coincide, and it maps block x* onto block 0 by one
    # permutation of rows and columns; so the 2^d blocks have the spectrum
    # of block 0, whose payload points are (0, y3) and (0, y4). `own` and
    # `crossed` need a key point with x = 0, so every other row of block 0
    # is a row of w*I: its eigenvalue w adds |w - w| = 0, and it is left out.
    idx = np.arange(rows)
    point, y = idx >> n, idx & ((1 << n) - 1)
    own = point == y
    crossed = (point[:, None] == y[None, :]) & (y[:, None] == point[None, :])
    block = w * (np.eye(rows, dtype=bool) | (own[:, None] & own[None, :]) | crossed)
    return float(0.5 * (1 << d) * np.abs(np.linalg.eigvalsh(block) - w).sum())


def optimal_advantage(scheme: str, lam: int, copies: int, messages,
                      output_qubits: int = 2, mode: str = "prf") -> Check:
    """Helstrom bound: trace distance between the two challenge ensembles.

    The value upper-bounds any adversary's game advantage (win probability
    at most (1 + value) / 2) for an adversary holding `copies` public-key
    copies plus the challenge ciphertext. The scheme enumerates both
    ensembles (the `owf` nonces are its cipher's `nonce_space`) and
    `_gram_distance` solves them; the `prfs` random mode solves the 2^(2n)-row
    nontrivial sub-block of one x* block of rho0 against rho1 = w*I, the
    other blocks being permutations of it. Modes are "prf" for both schemes
    and "random" for `prfs`; any other pair raises ValueError before anything
    is built. The record has no reference yet.
    """
    kind = {("prfs", "prf"): PrfsScheme, ("prfs", "random"): PrfsScheme,
            ("owf", "prf"): OwfScheme}.get((scheme, mode))
    if kind is None:
        raise ValueError(f"no exact-advantage oracle for scheme {scheme!r} in mode {mode!r}")
    _check_sizes(lam, copies, output_width=output_qubits)
    m0, m1 = messages
    kind.check_messages(m0, m1)
    if m0 == m1:
        value = 0.0
    elif mode == "random":
        value = _prfs_random_distance(lam, output_qubits, copies)
    elif scheme == "prfs":
        prfs = PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, output_qubits)))
        value = _gram_distance(prfs.challenge_ensemble(m0, m1), copies)
    else:
        value = _gram_distance(OwfScheme(lam, output_qubits).challenge_ensemble(m0, m1), copies)
    return Check("helstrom", f"lam={lam},p={copies}", value, f"mode={mode}")
