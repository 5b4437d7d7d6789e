"""40-digit references for the keyed Helstrom values of `analysis.optimal_advantage`.

The float64 oracle works from Gram matrices and drops eigenvalues below 1e-12
times a block's largest. These references build the same Gram blocks from
exact overlaps, straight from `prf_eval`: a key overlap is an integer over
2^(lambda+n) for `prfs` (phase states) and over 2^lambda for `owf` (one-hot
graph states), so every overlap is exact before the eigensolve. Half the
trace norm of V S V^dagger, given G = V^dagger V and the signed weights S, is
half the absolute spectrum of G^1/2 S G^1/2, which `eigsy` solves at 40
digits with no rank cut.

mpmath is a test dependency only; without it, only this file fails to collect.
"""

import mpmath
import pytest

from qpklab.analysis import optimal_advantage
from qpklab.bits import int_to_bits, xor_bits
from qpklab.primitives import _keystream, prf_eval

mp = mpmath.MPContext()
mp.dps = 40


def _half_trace_norm(gram, weights) -> mpmath.mpf:
    """Half the trace norm of V S V^dagger from its Gram matrix G = V^dagger V."""
    vals, vecs = mp.eigsy(mp.matrix(gram))
    # G is PSD; its null eigenvalues may come out as -1e-40 and are clipped
    root = vecs * mp.diag([mp.sqrt(max(v, 0)) for v in vals]) * vecs.T
    inner = root * mp.diag(weights) * root
    return mp.fsum(abs(e) for e in mp.eigsy(inner, eigvals_only=True)) / 2


def _blocks_distance(blocks, overlap) -> mpmath.mpf:
    """Sum of the blocks' half trace norms. A block lists (weight, key, payload)
    rows; its Gram entries are C[k, k'] times <payload|payload'>."""
    total = mp.mpf(0)
    for rows in blocks.values():
        gram = [[overlap(k, k2) * mp.fsum(a * b for a, b in zip(pa, pb)) for _w2, k2, pb in rows]
                for _w, k, pa in rows]
        total += _half_trace_norm(gram, [w for w, _k, _p in rows])
    return total


def prfs_keyed_reference(lam, n, copies) -> mpmath.mpf:
    """Keyed `prfs` value for messages ("0", "1"): the phase state of x* against
    the maximally mixed payload, one block per x*, input width lam."""
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    xs = [int_to_bits(v, lam) for v in range(1 << lam)]
    # signs[k][x][v] = (-1)^f_k(x||v); the phase amplitudes are signs / 2^(n/2)
    signs = [[[1 - 2 * int(prf_eval(key, x + int_to_bits(v, n), 1)) for v in range(1 << n)]
              for x in xs] for key in keys]
    key_overlap = [[mp.mpf(sum(a * b for xa, xb in zip(sk, sk2) for a, b in zip(xa, xb)))
                    / 2 ** (lam + n) for sk2 in signs] for sk in signs]
    weight = mp.mpf(1) / 2 ** (2 * lam)
    amp = 1 / mp.sqrt(2**n)
    blocks = {}
    for x in range(len(xs)):
        rows = blocks.setdefault(x, [])
        rows += [(weight, k, [s * amp for s in signs[k][x]]) for k in range(len(keys))]
        for k in range(len(keys)):
            for y in range(1 << n):
                basis = [mp.mpf(int(v == y)) for v in range(1 << n)]
                rows.append((-weight / 2**n, k, basis))
    return _blocks_distance(blocks, lambda k, k2: key_overlap[k][k2] ** copies)


def owf_keyed_reference(lam, n, copies, messages) -> mpmath.mpf:
    """Keyed `owf` value: the classical (x*, r, body) is the block label and every
    payload is the number 1, so a block's Gram matrix is C^p on its keys."""
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    xs = [int_to_bits(v, lam) for v in range(1 << lam)]
    table = [[prf_eval(key, x, n) for x in xs] for key in keys]
    key_overlap = [[mp.mpf(sum(a == b for a, b in zip(table[k], table[k2]))) / 2**lam
                    for k2 in range(len(keys))] for k in range(len(keys))]
    weight = mp.mpf(1) / 2 ** (2 * lam + n)
    blocks = {}
    for sign, message in zip((1, -1), messages):
        for k in range(len(keys)):
            for x in range(len(xs)):
                for rv in range(1 << n):
                    r = int_to_bits(rv, n)
                    body = xor_bits(_keystream(table[k][x], r, len(message)), message)
                    blocks.setdefault((x, r, body), []).append((sign * weight, k, [mp.mpf(1)]))
    return _blocks_distance(blocks, lambda k, k2: key_overlap[k][k2] ** copies)


@pytest.mark.parametrize("lam,n,copies", [(2, 1, 1), (2, 2, 1), (2, 2, 3)])
def test_prfs_keyed_value_matches_40_digit_reference(lam, n, copies):
    exact = prfs_keyed_reference(lam, n, copies)
    value = optimal_advantage("prfs", lam, copies, ("0", "1"), output_qubits=n).value
    assert abs(value - exact) <= 1e-13


@pytest.mark.parametrize("copies", [0, 1])
def test_owf_keyed_value_matches_40_digit_reference(copies):
    exact = owf_keyed_reference(2, 2, copies, ("00", "11"))
    value = optimal_advantage("owf", 2, copies, ("00", "11"), output_qubits=2).value
    assert abs(value - exact) <= 1e-13
