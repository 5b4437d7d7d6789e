"""Exact and brute-force oracles for the proof quantities at tiny parameters.

Each function turns one step of the hybrid argument into a checkable number:
the commuting-measurement equality, the punctured-key trace distance, the
real-vs-fresh-key distribution identity, and the Helstrom bound on any
adversary's distinguishing advantage. Random-function modes replace the keyed
function with a truly random one so the results reflect information-theoretic
structure only.

Every value is exact; each oracle works only on the support that carries
amplitude or rank:

- the punctured-key cross-check tensors p copies of the key's 2^lam support
  amplitudes, 2^(p*lam) entries in place of 2^(p(lam+n)); its capacity guard
  stays at the p(lam+n) qubits of the dense copies it stands for;
- the commuting check measures by sequential projections that keep only the
  measured register's block, never a zero-padded full-size vector;
- Helstrom values solve the schemes' `challenge_ensemble` from Gram
  matrices: p key copies are the power C^p of the key-state overlaps, one
  block per label (x* or (x*, r, body)), blocks of one size solved as one
  stack, each block's eigenvalues below 1e-12 times its largest dropped;
- the `prfs` random-function Helstrom value uses rho1 = w*I and the spectrum
  of rho0, whose x* blocks are permutations of one another: block 0 is
  built and solved once.
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
class HybridReport:
    pair: str
    metric: str
    value: float
    params: dict

    def __post_init__(self):
        assert -1e-12 <= self.value <= 1 + 1e-12


@dataclass(frozen=True)
class EnsembleAdvantage:
    scheme: str
    security_param: int
    copies: int
    value: float
    exact: bool
    mode: str


# --- punctured-key trace distance -----------------------------------------


def punctured_key_distance(lam: int, copies: int) -> float:
    """Closed form sqrt(1 - (1 - 2^-lam)^p) for p copies of the punctured key."""
    if copies < 0:
        raise ValueError("copy count must be nonnegative")
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
    Restricting to S is itself checked: the restricted vectors must have
    2^lam entries and unit norm, so mass off S raises. The capacity guard
    stays at the p(lam+n) qubits of the state this check stands for.
    """
    if copies < 0:
        raise ValueError("copy count must be nonnegative")
    dk_bits = dk_bits if dk_bits is not None else "0" * lam
    check_bits(dk_bits, lam)
    if copies == 0:
        return 0.0
    x_star = x_star if x_star is not None else "0" * lam
    n = prf_output_width
    sim.check_capacity(copies * (lam + n), "explicit tensor construction")
    qpk = OwfScheme(lam, prf_output_width=n).qpk_gen(DecryptionKey(dk_bits)).state
    punctured = sim.puncture(qpk, x_star, WireRange(n, lam))
    support = np.flatnonzero(qpk.amplitudes)
    key, key_punct = (PureState(lam, state.amplitudes[support]) for state in (qpk, punctured))
    full = reduce(sim.tensor, [key] * copies)
    full_punct = reduce(sim.tensor, [key_punct] * copies)
    return sim.trace_distance(full, full_punct)


# --- commuting-measurement check (measure-first vs measure-last) ----------


def _joint_distribution(state: PureState, labelled_ranges):
    """Exact outcome distribution for measuring the given registers in order.

    `labelled_ranges` is a sequence of (label, WireRange); the result maps
    label-sorted outcome tuples to probabilities so different measurement
    orders are directly comparable. Each projection keeps only the block of
    its outcome: the measured register's wires are dropped and the registers
    above it move down by its width, so no branch builds a full-size vector.
    The last register's blocks are never renormalized: their probabilities
    go straight into the distribution.
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
    dist: dict = {}

    def recurse(amps, depth, acc, prob):
        label, wires = levels[depth]
        for v in range(1 << wires.width):
            block = sim._register_block(amps, wires, v)
            p = float(np.vdot(block, block).real)
            if p <= sim.ATOL_EXACT**2:
                continue
            outcome = acc + [(label, int_to_bits(v, wires.width))]
            if depth + 1 == len(levels):
                key = tuple(sorted(outcome))
                dist[key] = dist.get(key, 0.0) + prob * p
            else:
                # numpy divides complex by real as a product with the
                # reciprocal, so this real product keeps every bit of block / sqrt(p)
                floats = np.ascontiguousarray(block).view(np.float64) * (1.0 / np.sqrt(p))
                recurse(floats.view(np.complex128), depth + 1, outcome, prob * p)

    recurse(state.amplitudes, 0, [], 1.0)
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
    """|qpk>^(copies+1) and its labelled input registers, challenger first.

    The challenger's factor sits on the highest wires.
    """
    n = lam
    block = lam + n
    total = block * (copies + 1)
    sim.check_capacity(total, "joint state")
    qpk = OwfScheme(lam).qpk_gen(DecryptionKey(dk_bits)).state
    joint = reduce(sim.tensor, [qpk] * (copies + 1))
    ranges = []
    for j in range(copies + 1):
        block_start = total - (j + 1) * block
        label = "challenger" if j == 0 else f"copy{j}"
        ranges.append((label, WireRange(block_start + n, lam)))
    return joint, ranges


def commuting_measurement_check(lam: int, copies: int = 2,
                                dk_bits: str | None = None) -> HybridReport:
    """Measure-before vs measure-after equality for the PRF-based public key.

    Builds |qpk>^(p+1) explicitly (challenger's copy plus p adversary copies)
    and compares the exact joint distribution of all input-register outcomes
    when the challenger measures last versus first, by sequential sliced
    projections (see `_joint_distribution`). The two orderings must
    coincide; the report carries their total-variation distance.
    """
    if copies < 0:
        raise ValueError("copy count must be nonnegative")
    if lam > 3:
        raise sim.CapacityError("exhaustive enumeration is limited to lam <= 3")
    dk_bits = dk_bits if dk_bits is not None else "0" * lam
    check_bits(dk_bits, lam)
    joint, ranges = _joint_key_state(lam, copies, dk_bits)
    measure_last = _joint_distribution(joint, ranges[1:] + ranges[:1])
    measure_first = _joint_distribution(joint, ranges)
    tv = total_variation(measure_last, measure_first)
    return HybridReport(
        "H0-H1", "total-variation", tv, {"lam": lam, "copies": copies}
    )


# --- real key vs fresh random key -----------------------------------------


def random_key_indistinguishability_check(lam: int, queries: int = 3) -> HybridReport:
    """Exact H(x*)-as-key vs fresh-z-as-key distribution comparison.

    The function is a uniformly random one-bit table. The adversary sees the
    punctured key (determined by the table off x*), x*, and the bodies of the
    oracle answers to the message "10". Enumerates every table, key value, and
    nonce draw; returns the total-variation distance between the two
    visible-data distributions.
    """
    if lam > 3:
        raise sim.CapacityError("exhaustive enumeration is limited to lam <= 3")
    message = "10"
    xs_all = [int_to_bits(v, lam) for v in range(1 << lam)]
    vals = ["0", "1"]

    # the answers depend only on the key and the nonces: tabulate them once
    bodies_of = {(key, r): StreamSke().seal(key, r, message).body for key in vals for r in vals}
    answers_of = {key: [tuple((r, bodies_of[key, r]) for r in nonces)
                        for nonces in itertools.product(vals, repeat=queries)]
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
    return HybridReport("H3-H4", "total-variation", tv,
                        {"lam": lam, "queries": queries})


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
    blocks share one spectrum, so only block 0 is built and solved.
    """
    d, n = lam, output_qubits
    if copies not in (0, 1):
        raise ValueError("random-function mode supports 0 or 1 key copies")
    if copies == 0:
        # no copy: the mixed payload and the averaged pure payload coincide
        return 0.0
    rows = 1 << (d + 2 * n)
    sim.check_entries(rows * rows)
    w = 2.0 ** -(2 * (d + n))
    # An x* block has rows (k, y3) and columns (b, y4): k and b are the key
    # copy's points (x, y), 3 = (x*, y3) and 4 = (x*, y4) the payload's.
    # The identity is k=b with 3=4, `own` on both sides is k=3 with b=4, and
    # `crossed` is k=4 with b=3. Relabelling x -> x xor x* in all four points
    # keeps which of them coincide, and it maps block x* onto block 0 by one
    # permutation of rows and columns; so the 2^d blocks have the spectrum
    # of block 0, whose payload points are (0, y3) and (0, y4).
    idx = np.arange(rows)
    point, y = idx >> n, idx & ((1 << n) - 1)
    own = point == y
    crossed = (point[:, None] == y[None, :]) & (y[:, None] == point[None, :])
    block = w * (np.eye(rows, dtype=bool) | (own[:, None] & own[None, :]) | crossed)
    return float(0.5 * (1 << d) * np.abs(np.linalg.eigvalsh(block) - w).sum())


def optimal_advantage(scheme: str, lam: int, copies: int, messages,
                      output_qubits: int = 2, mode: str = "prf") -> EnsembleAdvantage:
    """Helstrom bound: trace distance between the two challenge ensembles.

    The value upper-bounds any adversary's game advantage (win probability
    at most (1 + value) / 2) for an adversary holding `copies` public-key
    copies plus the challenge ciphertext. The scheme enumerates both
    ensembles (`owf` random mode: the keyless `random_function_ensemble`) and
    `_gram_distance` solves them; the `prfs` random mode solves one x* block
    of rho0 against rho1 = w*I, the others being permutations of it.
    """
    if copies < 0:
        raise ValueError("copy count must be nonnegative")
    m0, m1 = messages
    kind = {"prfs": PrfsScheme, "owf": OwfScheme}.get(scheme)
    if kind is not None:
        kind.check_messages(m0, m1)
    if m0 == m1:
        value = 0.0
    elif kind is None or mode not in ("prf", "random"):
        raise ValueError(f"no exact-advantage oracle for scheme {scheme!r} in mode {mode!r}")
    elif (scheme, mode) == ("prfs", "random"):
        value = _prfs_random_distance(lam, output_qubits, copies)
    elif scheme == "prfs":
        prfs = PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, output_qubits)))
        value = _gram_distance(prfs.challenge_ensemble(m0, m1), copies)
    elif mode == "prf":
        value = _gram_distance(OwfScheme(lam, output_qubits).challenge_ensemble(m0, m1), copies)
    elif copies != 0:
        raise ValueError("random-function mode for this scheme supports 0 copies")
    else:
        value = _gram_distance(OwfScheme.random_function_ensemble(lam, m0, m1), copies)
    return EnsembleAdvantage(scheme, lam, copies, value, True, mode)
