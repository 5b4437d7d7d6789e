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
- keyed Helstrom values work from Gram matrices: p key copies are the power
  C^p of the key-state overlaps, one block per classical label (x* or (x*, r,
  body)), blocks of one size solved as one stack, and each block's
  eigenvalues below 1e-12 times its largest are dropped;
- the random-function Helstrom value uses rho1 = w*I and the spectrum of
  rho0, whose x* blocks are permutations of one another: block 0 is built
  and solved once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import sim
from .bits import check_bits, int_to_bits, xor_bits
from .primitives import PhasePrfs, PrfsParams, _keystream, prf_table
from .schemes import DecryptionKey, OwfScheme
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
    bodies_of = {(key, r): xor_bits(_keystream(key, r, len(message)), message)
                 for key in vals for r in vals}
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


def _check_gram_budget(entries: int) -> None:
    """Key states and Gram blocks may hold no more entries than a q_max-qubit state."""
    if entries > 1 << sim.q_max():
        raise sim.CapacityError(f"Gram path needs {entries} entries, more than 2^{sim.q_max()}")


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


def _gram_distance(key_states: np.ndarray, copies: int, terms0, terms1) -> float:
    """Trace distance of two mixtures of |qpk_k>^p (x) |label> (x) |payload>.

    The terms are (label, weight, k, payload) with k a row of `key_states`.
    Inner products factor as C[k,k']^p * delta_label * <payload|payload'>
    with C the key-state overlaps: the copies are an exponent on C, and each
    classical label is a block of its own. Blocks with the same row count
    are solved together (`_stack_distance`).
    """
    overlap = (key_states.conj() @ key_states.T) ** copies
    blocks: dict = {}
    for sign, terms in ((1.0, terms0), (-1.0, terms1)):
        for label, weight, k, payload in terms:
            blocks.setdefault(label, []).append((sign * weight, k, payload))
    by_size: dict = {}
    for rows in blocks.values():
        by_size.setdefault(len(rows), []).append(rows)
    total = 0.0
    for size, group in by_size.items():
        per_stack = max(1, _STACK_ENTRIES // size**2)
        for start in range(0, len(group), per_stack):
            stack = group[start:start + per_stack]
            # (blocks, rows) weights and key rows, (blocks, rows, dim) payloads
            weights, keys, payloads = (np.array(col)
                                       for col in zip(*(zip(*rows) for rows in stack)))
            grams = (overlap[keys[:, :, None], keys[:, None, :]]
                     * (payloads.conj() @ payloads.transpose(0, 2, 1)))
            total += _stack_distance(grams, weights)
    return total


def _prfs_keyed_distance(lam, copies, output_qubits, m0, m1) -> float:
    """Keyed `prfs` ensembles: |qpk_k>^p (x) |x*> (x) payload(m) over all k, x*, one
    block per x*. The message-0 payload |psi_{k,x*}> is block x* of the key
    state, renormalized, as `PrfsScheme.encrypt` sends it; the mixed payload
    I/2^n of message 1 is 2^n basis terms."""
    d, n = lam, output_qubits
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    rows = len(keys) * sum(1 if m == "0" else 1 << n for m in (m0, m1))
    _check_gram_budget((1 << d) * rows * rows + len(keys) * (1 << (d + n)))
    prfs = PhasePrfs(PrfsParams(lam, d, n))
    key_states = np.array([prfs.oracle_isometry(key, sim.uniform_superposition(d)).amplitudes
                           for key in keys])
    states = key_states.reshape(len(keys), 1 << d, 1 << n)
    states = states / np.linalg.norm(states, axis=2, keepdims=True)
    weight = 1.0 / (len(keys) << d)

    def terms(message):
        for xv in range(1 << d):
            for k in range(len(keys)):
                if message == "0":
                    yield xv, weight, k, states[k, xv]
                else:
                    for y in np.eye(1 << n):
                        yield xv, weight / (1 << n), k, y

    return _gram_distance(key_states, copies, terms(m0), terms(m1))


def _owf_keyed_distance(lam, copies, m0, m1, n) -> float:
    """Keyed `owf` ensembles: |qpk_k>^p (x) |x*, r, body> over key, x* and the
    n-bit nonce, with the classical (x*, r, body) as block label and 1 as every
    payload."""
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    # each (x*, r) splits its 2 * 2^lam rows among its bodies' blocks
    _check_gram_budget((1 << (lam + n)) * (2 << lam) ** 2 + len(keys) * (1 << (lam + n)))
    scheme = OwfScheme(lam, prf_output_width=n)
    key_states = np.array([scheme.qpk_gen(DecryptionKey(key)).state.amplitudes
                           for key in keys])
    images = [prf_table(key, np.arange(1 << lam), lam, n) for key in keys]
    weight = 1.0 / (len(keys) << (lam + n))

    def terms(message):
        for k in range(len(keys)):
            for xv in range(1 << lam):
                y = int_to_bits(int(images[k][xv]), n)
                for rv in range(1 << n):
                    body = xor_bits(_keystream(y, int_to_bits(rv, n), len(m0)), message)
                    yield (xv, rv, body), weight, k, np.ones(1)

    return _gram_distance(key_states, copies, terms(m0), terms(m1))


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
    _check_gram_budget(rows * rows)
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
    copies plus the challenge ciphertext. Keyed modes enumerate every key and
    work from Gram matrices (`_gram_distance`): the copies are an elementwise
    exponent on the key-state overlaps C, each classical label (x* for
    `prfs`, (x*, r, body) for `owf`) is a block, the blocks of one size are
    solved as one stack, and each block's eigenvalues below 1e-12 times its
    largest are dropped. Their cost does not depend on `copies`; key states
    and blocks must fit the entries of a q_max-qubit state. The random mode
    of `prfs` uses rho1 = w*I and solves one x* block of rho0, because the
    others are permutations of it.

    `prfs` messages must be single bits and `owf` messages bitstrings of one
    width, as the schemes encrypt; anything else raises ValueError before any
    key is built.
    """
    if copies < 0:
        raise ValueError("copy count must be nonnegative")
    m0, m1 = messages
    if scheme == "prfs" and not {m0, m1} <= {"0", "1"}:
        raise ValueError(f"prfs encrypts single bits, got messages {m0!r} and {m1!r}")
    if scheme == "owf" and len(check_bits(m0)) != len(check_bits(m1)):
        raise ValueError(f"owf messages must have one width, got {m0!r} and {m1!r}")
    if m0 == m1:
        value = 0.0
    elif (scheme, mode) == ("prfs", "prf"):
        value = _prfs_keyed_distance(lam, copies, output_qubits, m0, m1)
    elif (scheme, mode) == ("prfs", "random"):
        value = _prfs_random_distance(lam, output_qubits, copies)
    elif (scheme, mode) == ("owf", "prf"):
        value = _owf_keyed_distance(lam, copies, m0, m1, output_qubits)
    elif (scheme, mode) == ("owf", "random"):
        if copies != 0:
            raise ValueError("random-function mode for this scheme supports 0 copies")
        # one-time-pad body under a fresh uniform key: enumerate the
        # classical visible data (x*, body) for both messages
        width = len(m0)
        value = total_variation(*(
            _uniform_over((xv, xor_bits(int_to_bits(zv, width), m))
                          for xv in range(1 << lam) for zv in range(1 << width))
            for m in (m0, m1)))
    elif scheme in ("prfs", "owf"):
        raise ValueError(f"unknown mode {mode!r}")
    else:
        raise ValueError(f"no exact-advantage oracle for scheme {scheme!r}")
    return EnsembleAdvantage(scheme, lam, copies, value, True, mode)
