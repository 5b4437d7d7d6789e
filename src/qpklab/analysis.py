"""Exact and brute-force oracles for the proof quantities at tiny parameters.

Each function turns one step of the hybrid argument into a checkable number:
the commuting-measurement equality, the punctured-key trace distance, the
real-vs-fresh-key distribution identity, and the Helstrom bound on any
adversary's distinguishing advantage. Random-function modes replace the keyed
function with a truly random one so the results reflect information-theoretic
structure only.

Every value is exact; each oracle works only on the support that carries
amplitude or rank:

- the commuting check measures by sequential projections that keep only the
  measured register's block, never a zero-padded full-size vector;
- keyed Helstrom values treat each ensemble as a weighted mixture of pure
  states and solve R S R^dagger from a reduced QR of the stacked vectors, an
  eigenproblem the size of the number of terms;
- the random-function Helstrom value uses rho1 = w*I and the spectrum of
  rho0, built and solved one x* block at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import sim
from .bits import int_to_bits, xor_bits
from .primitives import PhasePrfs, PrfsParams, _keystream, prf_eval
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
    renormalized state with x* projected out, tensors p copies of each, and
    returns their trace distance.
    """
    if copies < 1:
        return 0.0
    dk_bits = dk_bits if dk_bits is not None else "0" * lam
    x_star = x_star if x_star is not None else "0" * lam
    n = prf_output_width
    if copies * (lam + n) > sim.q_max():
        raise sim.CapacityError("explicit tensor construction exceeds qubit capacity")
    qpk = OwfScheme(lam, prf_output_width=n).qpk_gen(DecryptionKey(dk_bits)).states[0]
    punctured = sim.puncture(qpk, x_star, WireRange(n, lam))
    full = reduce(sim.tensor, [qpk] * copies)
    full_punct = reduce(sim.tensor, [punctured] * copies)
    return sim.trace_distance(full, full_punct)


# --- commuting-measurement check (measure-first vs measure-last) ----------


def _joint_distribution(state: PureState, labelled_ranges):
    """Exact outcome distribution for measuring the given registers in order.

    `labelled_ranges` is a sequence of (label, WireRange); the result maps
    label-sorted outcome tuples to probabilities so different measurement
    orders are directly comparable. Each projection keeps only the block of
    its outcome: the measured register's wires are dropped and the registers
    above it move down by its width, so no branch builds a full-size vector.
    """
    dist: dict = {}

    def recurse(amps, ranges, acc, prob):
        if not ranges:
            key = tuple(sorted(acc))
            dist[key] = dist.get(key, 0.0) + prob
            return
        (label, wires), rest = ranges[0], ranges[1:]
        rest = [(other, WireRange(w.offset - wires.width, w.width)
                 if w.offset > wires.offset else w) for other, w in rest]
        for v in range(1 << wires.width):
            block = sim._register_block(amps, wires, v)
            p = float(np.vdot(block, block).real)
            if p > sim.ATOL_EXACT**2:
                recurse(block / np.sqrt(p), rest,
                        acc + [(label, int_to_bits(v, wires.width))], prob * p)

    recurse(state.amplitudes, list(labelled_ranges), [], 1.0)
    return dist


def total_variation(dist_a: dict, dist_b: dict) -> float:
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


def _joint_key_state(lam: int, copies: int, dk_bits: str):
    """|qpk>^(copies+1) and its labelled input registers, challenger first.

    The challenger's factor sits on the highest wires.
    """
    n = lam
    block = lam + n
    total = block * (copies + 1)
    if total > sim.q_max():
        raise sim.CapacityError("joint state exceeds qubit capacity")
    qpk = OwfScheme(lam).qpk_gen(DecryptionKey(dk_bits)).states[0]
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
    joint, ranges = _joint_key_state(lam, copies, dk_bits)
    measure_last = _joint_distribution(joint, ranges[1:] + ranges[:1])
    measure_first = _joint_distribution(joint, ranges)
    tv = total_variation(measure_last, measure_first)
    return HybridReport(
        "H0-H1", "total-variation", tv, {"lam": lam, "copies": copies}
    )


# --- real key vs fresh random key -----------------------------------------


def random_key_indistinguishability_check(lam: int, queries: int = 3,
                                          out_width: int = 1,
                                          message: str = "10") -> HybridReport:
    """Exact H(x*)-as-key vs fresh-z-as-key distribution comparison.

    The function is a uniformly random table. The adversary sees the punctured
    key (determined by the table off x*), x*, and the bodies of the oracle
    answers. Enumerates every table, key value, and nonce draw; returns the
    total-variation distance between the two visible-data distributions.
    """
    if lam > 3:
        raise sim.CapacityError("exhaustive enumeration is limited to lam <= 3")
    xs_all = [int_to_bits(v, lam) for v in range(1 << lam)]
    n = out_width
    vals = [int_to_bits(v, n) for v in range(1 << n)]

    def visible_distribution(key_from_table: bool) -> dict:
        dist: dict = {}
        count = 0
        for x_star in xs_all:
            others = [x for x in xs_all if x != x_star]
            for rest in itertools.product(vals, repeat=len(others)):
                for h_star in vals:
                    for z in vals:
                        key = h_star if key_from_table else z
                        for nonces in itertools.product(vals, repeat=queries):
                            bodies = tuple(
                                (r, xor_bits(_keystream(key, r, len(message)), message))
                                for r in nonces
                            )
                            visible = (x_star, rest, bodies)
                            dist[visible] = dist.get(visible, 0.0) + 1.0
                            count += 1
        return {k: v / count for k, v in dist.items()}

    tv = total_variation(visible_distribution(True), visible_distribution(False))
    return HybridReport(
        "H3-H4", "total-variation", tv,
        {"lam": lam, "queries": queries, "out_width": out_width},
    )


# --- Helstrom bound on the distinguishing advantage -----------------------

_DENSITY_QUBIT_CAP = 11


def _mixture_distance(terms0, terms1) -> float:
    """Half the trace norm of rho0 - rho1, each rho = sum_i w_i |v_i><v_i|.

    `terms0` and `terms1` yield (weight, vector) pairs. With the vectors as
    the columns of V and the signed weights on the diagonal of S,
    rho0 - rho1 = V S V^dagger. A reduced QR, V = QR, leaves its nonzero
    spectrum in R S R^dagger, whose size is the number of terms (or the
    dimension, if that is smaller) instead of the dimension.
    """
    weights, vectors = [], []
    for sign, terms in ((1.0, terms0), (-1.0, terms1)):
        for weight, vec in terms:
            weights.append(sign * weight)
            vectors.append(vec)
    r = np.linalg.qr(np.column_stack(vectors), mode="r")
    eigs = np.linalg.eigvalsh((r * np.array(weights)) @ r.conj().T)
    return float(0.5 * np.abs(eigs).sum())


def _basis_vector(width: int, value: int) -> np.ndarray:
    vec = np.zeros(1 << width, dtype=np.complex128)
    vec[value] = 1.0
    return vec


def _tensor_power(vec: np.ndarray, copies: int) -> np.ndarray:
    return reduce(np.kron, [vec] * copies, np.ones(1, dtype=np.complex128))


def _prfs_terms(lam, copies, output_qubits, message):
    """Keyed-mode ensemble of the function-like-state scheme, as (weight, vector) terms.

    Averages |qpk><qpk|^p (x) |x*><x*| (x) payload(m) exactly over all keys
    and measurement outcomes. The mixed payload I/2^n of message 1 is 2^n
    basis terms of weight 2^-n each.
    """
    d, n = lam, output_qubits
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    weight = 1.0 / (len(keys) * (1 << d))
    for key in keys:
        prfs = PhasePrfs(PrfsParams(lam, d, n))
        qpk = prfs.oracle_isometry(key, sim.uniform_superposition(d))
        qpk_p = _tensor_power(qpk.amplitudes, copies)
        for xv in range(1 << d):
            head = np.kron(qpk_p, _basis_vector(d, xv))
            if message == "0":
                yield weight, np.kron(head, prfs.gen(key, int_to_bits(xv, d)).amplitudes)
            else:
                for yv in range(1 << n):
                    yield weight / (1 << n), np.kron(head, _basis_vector(n, yv))


def _prfs_random_distance(lam, output_qubits, copies) -> float:
    """Exact Helstrom value with a truly random phase function.

    The expectation over the random function of a product of amplitude phases
    is 1 when every queried point appears an even number of times and 0
    otherwise (the parity rule). The message-1 ensemble keeps no coherence:
    rho1 = w*I with w = 1/dim, so ||rho0 - rho1||_1 = sum_i |lambda_i(rho0) - w|
    and only the spectrum of rho0 is needed. rho0 is block-diagonal in the
    classical x* register; each block is built from the three pairings of
    the four queried points (k=b, 3=4), (k=3, b=4), (k=4, b=3) and solved on
    its own.
    """
    d, n = lam, output_qubits
    if copies not in (0, 1):
        raise ValueError("random-function mode supports 0 or 1 key copies")
    if copies == 0:
        # no copy: the mixed payload and the averaged pure payload coincide
        return 0.0
    w = 2.0 ** -(2 * (d + n))
    # An x* block has rows (k, y3) and columns (b, y4): k and b are the key
    # copy's points (x, y), 3 = (x*, y3) and 4 = (x*, y4) the payload's.
    # `same` is k=b with 3=4, `own` on both sides is k=3 with b=4, and
    # `crossed` is k=4 with b=3.
    idx = np.arange(1 << (d + 2 * n))
    point, y = idx >> n, idx & ((1 << n) - 1)
    same = np.eye(len(idx), dtype=bool)
    total = 0.0
    for xs in range(1 << d):
        payload_point = (xs << n) | y
        own = point == payload_point
        crossed = ((point[:, None] == payload_point[None, :])
                   & (payload_point[:, None] == point[None, :]))
        block = w * (same | (own[:, None] & own[None, :]) | crossed)
        total += np.abs(np.linalg.eigvalsh(block) - w).sum()
    return float(0.5 * total)


def optimal_advantage(scheme: str, lam: int, copies: int, messages,
                      output_qubits: int = 2, mode: str = "prf",
                      nonce_width: int | None = None) -> EnsembleAdvantage:
    """Helstrom bound: trace distance between the two challenge ensembles.

    The value upper-bounds any adversary's game advantage (win probability
    at most (1 + value) / 2) for an adversary holding `copies` public-key
    copies plus the challenge ciphertext. Keyed modes enumerate every key and
    solve a rank-sized eigenproblem (`_mixture_distance`); the random mode of
    `prfs` uses rho1 = w*I and solves rho0 one x* block at a time.
    """
    m0, m1 = messages
    if m0 == m1:
        return EnsembleAdvantage(scheme, lam, copies, 0.0, True, mode)
    if scheme == "prfs":
        if mode == "prf":
            if lam > 3:
                raise sim.CapacityError("exact key enumeration is limited to lam <= 3")
            if (copies + 1) * (lam + output_qubits) > _DENSITY_QUBIT_CAP:
                raise sim.CapacityError("density-matrix path exceeds capacity")
            value = _mixture_distance(_prfs_terms(lam, copies, output_qubits, m0),
                                      _prfs_terms(lam, copies, output_qubits, m1))
            return EnsembleAdvantage(scheme, lam, copies, value, True, mode)
        if mode == "random":
            value = _prfs_random_distance(lam, output_qubits, copies)
            return EnsembleAdvantage(scheme, lam, copies, value, True, mode)
        raise ValueError(f"unknown mode {mode!r}")
    if scheme == "owf":
        if mode == "random":
            if copies != 0:
                raise ValueError("random-function mode for this scheme supports 0 copies")
            # one-time-pad body under a fresh uniform key: enumerate the
            # classical visible data (x*, body) for both messages
            width = len(m0)
            dists = []
            for m in (m0, m1):
                dist: dict = {}
                count = 0
                for xv in range(1 << lam):
                    for zv in range(1 << width):
                        z = int_to_bits(zv, width)
                        visible = (xv, xor_bits(z, m))
                        dist[visible] = dist.get(visible, 0.0) + 1.0
                        count += 1
                dists.append({k: v / count for k, v in dist.items()})
            return EnsembleAdvantage(scheme, lam, copies,
                                     total_variation(*dists), True, mode)
        if mode == "prf":
            return _owf_prf_advantage(lam, copies, m0, m1, output_qubits, nonce_width)
        raise ValueError(f"unknown mode {mode!r}")
    raise ValueError(f"no exact-advantage oracle for scheme {scheme!r}")


def _owf_prf_advantage(lam, copies, m0, m1, prf_output_width, nonce_width):
    """Keyed-mode ensemble bound for the PRF scheme with the stream cipher.

    Each ensemble is a mixture over key, x* and nonce of
    |qpk>^p (x) |x*, r, body>; `_mixture_distance` takes their trace distance.
    """
    n = prf_output_width
    r_width = nonce_width if nonce_width is not None else n
    width = len(m0)
    total = copies * (lam + n) + lam + r_width + width
    if total > _DENSITY_QUBIT_CAP:
        raise sim.CapacityError("density-matrix path exceeds capacity")

    scheme = OwfScheme(lam, prf_output_width=n)

    def terms(message):
        keys = [int_to_bits(v, lam) for v in range(1 << lam)]
        weight = 1.0 / (len(keys) * (1 << lam) * (1 << r_width))
        for key in keys:
            qpk = scheme.qpk_gen(DecryptionKey(key)).states[0]
            qpk_p = _tensor_power(qpk.amplitudes, copies)
            for xv in range(1 << lam):
                x = int_to_bits(xv, lam)
                y = prf_eval(key, x, n)
                for rv in range(1 << r_width):
                    r = int_to_bits(rv, r_width)
                    body = xor_bits(_keystream(y, r, width), message)
                    tail = (xv << (r_width + width)) | (rv << width) | int(body, 2)
                    yield weight, np.kron(qpk_p, _basis_vector(lam + r_width + width, tail))

    value = _mixture_distance(terms(m0), terms(m1))
    return EnsembleAdvantage("owf", lam, copies, value, True, "prf")
