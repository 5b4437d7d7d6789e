import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpklab import analysis, primitives, schemes, sim
from qpklab.bits import int_to_bits, xor_bits
from qpklab.primitives import PhasePrfs, PrfsParams, _keystream, prf_eval
from qpklab.schemes import DecryptionKey, OwfScheme
from qpklab.sim import WireRange


# --- dense references -------------------------------------------------------
# Full-size builders of the oracles' objects, kept as cross-checks for the
# sliced and rank-reduced paths in `analysis`.


def _dense_distance(rho0, rho1):
    eigs = np.linalg.eigvalsh(rho0 - rho1)
    return float(0.5 * np.abs(eigs).sum())


def _dense_prfs_rho(lam, copies, output_qubits, message):
    d, n = lam, output_qubits
    dim = 1 << (copies * (d + n) + d + n)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    weight = 1.0 / (len(keys) * (1 << d))
    for key in keys:
        prfs = PhasePrfs(PrfsParams(lam, d, n))
        qpk = prfs.oracle_isometry(key, sim.uniform_superposition(d))
        qpk_p = np.array([1.0], dtype=np.complex128)
        for _ in range(copies):
            qpk_p = np.kron(qpk_p, qpk.amplitudes)
        for xv in range(1 << d):
            ex = np.zeros(1 << d, dtype=np.complex128)
            ex[xv] = 1.0
            head = np.kron(qpk_p, ex)
            if message == "0":
                psi = prfs.gen(key, int_to_bits(xv, d))
                vec = np.kron(head, psi.amplitudes)
                rho += weight * np.outer(vec, vec.conj())
            else:
                rho += weight * np.kron(
                    np.outer(head, head.conj()), np.eye(1 << n) / (1 << n)
                )
    return rho


def _dense_owf_rho(lam, copies, message, n, r_width):
    width = len(message)
    dim = 1 << (copies * (lam + n) + lam + r_width + width)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    weight = 1.0 / (len(keys) * (1 << lam) * (1 << r_width))
    for key in keys:
        base = sim.tensor(sim.uniform_superposition(lam), sim.basis_state(n, "0" * n))
        f = lambda x: prf_eval(key, x, n)
        qpk = sim.apply_function_oracle(base, f, WireRange(n, lam), WireRange(0, n))
        qpk_p = np.array([1.0], dtype=np.complex128)
        for _ in range(copies):
            qpk_p = np.kron(qpk_p, qpk.amplitudes)
        for xv in range(1 << lam):
            x = int_to_bits(xv, lam)
            y = prf_eval(key, x, n)
            for rv in range(1 << r_width):
                r = int_to_bits(rv, r_width)
                body = xor_bits(_keystream(y, r, width), message)
                tail = np.zeros(1 << (lam + r_width + width), dtype=np.complex128)
                tail[(xv << (r_width + width)) | (rv << width) | int(body, 2)] = 1.0
                vec = np.kron(qpk_p, tail)
                rho += weight * np.outer(vec, vec.conj())
    return rho


def _dense_prfs_random_rho_pair(lam, output_qubits):
    d, n = lam, output_qubits
    dim = (1 << (d + n)) * (1 << d) * (1 << n)
    w = (2.0 ** -d) * (2.0 ** -(d + n)) * (2.0 ** -n)

    def index(xc, yc, xs, yp):
        return ((xc << n | yc) << d | xs) << n | yp

    rho1 = np.zeros((dim, dim))
    for i in range(dim):
        rho1[i, i] = w

    rho0 = np.zeros((dim, dim))
    for xk in range(1 << d):
        for yk in range(1 << n):
            for xb in range(1 << d):
                for yb in range(1 << n):
                    for xs in range(1 << d):
                        for y3 in range(1 << n):
                            for y4 in range(1 << n):
                                points = ((xk, yk), (xb, yb), (xs, y3), (xs, y4))
                                if all(points.count(pt) % 2 == 0 for pt in points):
                                    rho0[index(xk, yk, xs, y3),
                                         index(xb, yb, xs, y4)] = w
    return rho0, rho1


def _qr_mixture_distance(terms0, terms1):
    """Half the trace norm of rho0 - rho1 from a reduced QR of the stacked terms.

    Each rho = sum_i w_i |v_i><v_i| is given as (weight, vector) pairs. With
    V = QR, rho0 - rho1 = V S V^dagger has the nonzero spectrum of R S R^dagger.
    """
    weights, vectors = [], []
    for sign, terms in ((1.0, terms0), (-1.0, terms1)):
        for weight, vec in terms:
            weights.append(sign * weight)
            vectors.append(vec)
    r = np.linalg.qr(np.column_stack(vectors), mode="r")
    eigs = np.linalg.eigvalsh((r * np.array(weights)) @ r.conj().T)
    return float(0.5 * np.abs(eigs).sum())


def _basis_vector(width, value):
    vec = np.zeros(1 << width, dtype=np.complex128)
    vec[value] = 1.0
    return vec


def _tensor_power(vec, copies):
    return reduce(np.kron, [vec] * copies, np.ones(1, dtype=np.complex128))


def _qr_prfs_terms(lam, copies, output_qubits, message):
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


def _qr_owf_terms(lam, copies, message, n, r_width):
    width = len(message)
    scheme = OwfScheme(lam, prf_output_width=n)
    keys = [int_to_bits(v, lam) for v in range(1 << lam)]
    weight = 1.0 / (len(keys) * (1 << lam) * (1 << r_width))
    for key in keys:
        qpk = scheme.qpk_gen(DecryptionKey(key)).state
        qpk_p = _tensor_power(qpk.amplitudes, copies)
        for xv in range(1 << lam):
            y = prf_eval(key, int_to_bits(xv, lam), n)
            for rv in range(1 << r_width):
                r = int_to_bits(rv, r_width)
                body = xor_bits(_keystream(y, r, width), message)
                tail = (xv << (r_width + width)) | (rv << width) | int(body, 2)
                yield weight, np.kron(qpk_p, _basis_vector(lam + r_width + width, tail))


def _enumerated_random_key_distributions(lam, queries, out_width=1, message="10"):
    """The real-key and fresh-key visible distributions, one keystream call per tuple."""
    xs_all = [int_to_bits(v, lam) for v in range(1 << lam)]
    vals = [int_to_bits(v, out_width) for v in range(1 << out_width)]

    def visible_distribution(key_from_table):
        dist = {}
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

    return visible_distribution(True), visible_distribution(False)


def _renormalizing_joint_distribution(state, labelled_ranges):
    """`_joint_distribution` as a recursion that renormalizes every block it
    measures, the last register's too, and shifts the ranges at every branch."""
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


def _random_mode_every_block(d, n):
    """The random-mode value with each of the 2^d x* blocks built and solved."""
    w = 2.0 ** -(2 * (d + n))
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


def _complex_block_distance(gram, weights):
    """One Gram block solved in complex arithmetic, its rank cut by dropping
    columns: the reference for `analysis._stack_distance`."""
    vals, vecs = np.linalg.eigh(gram.astype(np.complex128))
    keep = vals > analysis._RANK_TOL * vals[-1]
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    eigs = np.linalg.eigvalsh((factor.conj().T * weights) @ factor)
    return float(0.5 * np.abs(eigs).sum())


def _complex_stack_distance(grams, weights):
    return sum(_complex_block_distance(g, w) for g, w in zip(grams, weights))


def _count_prf_eval_calls(monkeypatch):
    """Record every `prf_eval` call, through each name and default argument
    that binds it in the package."""
    original = primitives.prf_eval
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (primitives, schemes, analysis):
        if getattr(module, "prf_eval", None) is original:
            monkeypatch.setattr(module, "prf_eval", counting)
    for func in (primitives.prf_table, primitives._StateFamily.__init__,
                 schemes.OwfScheme.__init__):
        monkeypatch.setattr(func, "__defaults__",
                            tuple(counting if d is original else d for d in func.__defaults__))
    return calls


def _projected_joint_distribution(state, labelled_ranges):
    dist: dict = {}

    def recurse(st, i, acc, prob):
        if i == len(labelled_ranges):
            key = tuple(sorted(acc))
            dist[key] = dist.get(key, 0.0) + prob
            return
        label, wires = labelled_ranges[i]
        for v in range(1 << wires.width):
            bits = int_to_bits(v, wires.width)
            p, post = sim.project(st, wires, bits)
            if p > 0.0:
                recurse(post, i + 1, acc + [(label, bits)], prob * p)

    recurse(state, 0, [], 1.0)
    return dist


# --- punctured-key trace distance -------------------------------------------


def test_punctured_closed_form_values():
    assert abs(analysis.punctured_key_distance(4, 1) - 0.25) < 1e-12
    assert analysis.punctured_key_distance(4, 0) == 0.0
    expected = math.sqrt(1 - (15 / 16) ** 2)
    assert abs(analysis.punctured_key_distance(4, 2) - expected) < 1e-12
    assert abs(expected - 0.34798527267) < 1e-9
    with pytest.raises(ValueError):
        analysis.punctured_key_distance(4, -1)


@pytest.mark.parametrize("lam,copies", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_punctured_explicit_cross_check(lam, copies):
    closed = analysis.punctured_key_distance(lam, copies)
    explicit = analysis.punctured_key_distance_explicit(lam, copies)
    assert abs(closed - explicit) < 1e-9


def test_punctured_explicit_capacity():
    # the guard counts the p(lam + n) qubits of the dense copies, not the p*lam
    # of the support the check tensors
    for lam in range(2, 7):
        for copies in range(1, 5):
            if copies * (lam + 2) > sim.q_max():
                with pytest.raises(sim.CapacityError):
                    analysis.punctured_key_distance_explicit(lam, copies)
            else:
                analysis.punctured_key_distance_explicit(lam, copies)


def test_punctured_explicit_input_checks():
    assert analysis.punctured_key_distance_explicit(3, 0) == 0.0
    with pytest.raises(ValueError):
        analysis.punctured_key_distance_explicit(3, -2)
    for dk_bits in ("1", "1010", "12"):
        with pytest.raises(ValueError):
            analysis.punctured_key_distance_explicit(3, 2, dk_bits=dk_bits)
        with pytest.raises(ValueError):
            analysis.punctured_key_distance_explicit(3, 0, dk_bits=dk_bits)


def _dense_punctured_distance(lam, copies, n, dk_bits, x_star):
    qpk = OwfScheme(lam, prf_output_width=n).qpk_gen(DecryptionKey(dk_bits)).state
    punctured = sim.puncture(qpk, x_star, WireRange(n, lam))
    q = copies * (lam + n)
    return sim.trace_distance(sim.PureState(q, _tensor_power(qpk.amplitudes, copies)),
                              sim.PureState(q, _tensor_power(punctured.amplitudes, copies)))


def test_punctured_explicit_matches_dense_copies():
    rng = np.random.default_rng(17)
    for lam, copies, n in itertools.product(range(1, 7), range(1, 5), (1, 2, 3)):
        if copies * (lam + n) > 16:
            continue
        for _ in range(3):
            dk_bits, x_star = (int_to_bits(int(v), lam) for v in rng.integers(1 << lam, size=2))
            got = analysis.punctured_key_distance_explicit(lam, copies, n, dk_bits, x_star)
            dense = _dense_punctured_distance(lam, copies, n, dk_bits, x_star)
            assert abs(got - dense) <= 1e-13, (lam, copies, n, dk_bits, x_star)


def test_punctured_explicit_stays_on_the_support():
    # 4 copies of a 5-qubit key are 2^20 dense amplitudes (16 MB), 4096 on the support
    tracemalloc.start()
    try:
        analysis.punctured_key_distance_explicit(3, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_punctured_explicit_rejects_mass_off_the_support(monkeypatch):
    lam, n = 3, 2
    puncture = sim.puncture

    def leaky_puncture(state, marked, wires):
        amps = puncture(state, marked, wires).amplitudes.copy()
        cell = int(np.flatnonzero(amps)[0])
        # half of one support cell's mass moves to (x, y ^ 1), where y = f(x)
        amps[cell] /= np.sqrt(2.0)
        amps[cell ^ 1] = amps[cell]
        return sim.PureState(state.qubit_count, amps)

    monkeypatch.setattr(sim, "puncture", leaky_puncture)
    with pytest.raises(ValueError, match="not normalized"):
        analysis.punctured_key_distance_explicit(lam, 2, n)


def test_punctured_explicit_key_independent():
    a = analysis.punctured_key_distance_explicit(3, 2, dk_bits="000", x_star="000")
    b = analysis.punctured_key_distance_explicit(3, 2, dk_bits="110", x_star="101")
    assert abs(a - b) < 1e-9


# --- commuting-measurement check --------------------------------------------


@pytest.mark.parametrize("lam", [1, 2])
def test_commuting_check_zero(lam):
    report = analysis.commuting_measurement_check(lam)
    assert report.pair == "H0-H1"
    assert report.metric == "total-variation"
    assert report.value < 1e-12


def test_commuting_single_copy():
    report = analysis.commuting_measurement_check(1, copies=1)
    assert report.value < 1e-12


@pytest.mark.parametrize("lam", [1, 2, 3])
@pytest.mark.parametrize("ones", [False, True])
def test_joint_distribution_matches_projections(lam, ones):
    dk_bits = ("1" if ones else "0") * lam
    joint, ranges = analysis._joint_key_state(lam, 2, dk_bits)
    for order in (ranges, ranges[1:] + ranges[:1]):
        sliced = analysis._joint_distribution(joint, order)
        projected = _projected_joint_distribution(joint, order)
        assert set(sliced) == set(projected)
        for key, prob in projected.items():
            assert abs(sliced[key] - prob) <= 1e-15


@pytest.mark.parametrize("lam", [1, 2, 3])
@pytest.mark.parametrize("copies", [1, 2])
def test_joint_distribution_keeps_the_bits_of_the_renormalizing_recursion(lam, copies):
    for dk_bits in ("0" * lam, "1" * lam, ("10" * lam)[:lam]):
        joint, ranges = analysis._joint_key_state(lam, copies, dk_bits)
        for order in (ranges, ranges[1:] + ranges[:1]):
            assert (analysis._joint_distribution(joint, order)
                    == _renormalizing_joint_distribution(joint, order))


def test_commuting_check_rejects_a_key_of_the_wrong_width():
    for dk_bits in ("1", "101"):
        with pytest.raises(ValueError):
            analysis.commuting_measurement_check(2, dk_bits=dk_bits)


@pytest.mark.parametrize("copies", [-1, -2])
def test_commuting_check_rejects_negative_copies(monkeypatch, copies):
    def fail(*args, **kwargs):
        raise AssertionError("state built before the copy count was checked")

    monkeypatch.setattr(OwfScheme, "qpk_gen", fail)
    with pytest.raises(ValueError, match="copy count must be nonnegative"):
        analysis.commuting_measurement_check(2, copies=copies)


def test_commuting_capacity():
    with pytest.raises(sim.CapacityError):
        analysis.commuting_measurement_check(4)


# --- real-vs-fresh key check ------------------------------------------------


@pytest.mark.parametrize("queries", [0, 1])
def test_random_key_check_zero(queries):
    report = analysis.random_key_indistinguishability_check(2, queries=queries)
    assert report.pair == "H3-H4"
    assert report.value < 1e-12


@pytest.mark.parametrize(
    "lam,queries",
    [(lam, queries) for lam in (1, 2) for queries in range(4)] + [(3, 1)],
)
def test_random_key_check_matches_enumeration(lam, queries, monkeypatch):
    # the distance is 0 whatever the bodies are, so the two distributions
    # themselves are compared too
    total_variation = analysis.total_variation
    seen = []
    monkeypatch.setattr(analysis, "total_variation",
                        lambda a, b: seen.append((a, b)) or total_variation(a, b))
    report = analysis.random_key_indistinguishability_check(lam, queries=queries)
    expected = _enumerated_random_key_distributions(lam, queries)
    assert seen == [expected]
    assert report.value == total_variation(*expected)


def test_random_key_capacity():
    with pytest.raises(sim.CapacityError):
        analysis.random_key_indistinguishability_check(4)


def test_total_variation():
    a = {"x": 0.5, "y": 0.5}
    b = {"x": 1.0}
    assert abs(analysis.total_variation(a, b) - 0.5) < 1e-12
    assert analysis.total_variation(a, a) == 0.0


# --- ensemble advantage -----------------------------------------------------


def test_identical_messages_zero_advantage():
    adv = analysis.optimal_advantage("prfs", 2, 1, ("0", "0"))
    assert adv.value == 0.0


def test_advantage_symmetric_in_messages():
    a = analysis.optimal_advantage("prfs", 2, 1, ("0", "1"), output_qubits=2)
    b = analysis.optimal_advantage("prfs", 2, 1, ("1", "0"), output_qubits=2)
    assert abs(a.value - b.value) < 1e-12
    assert a.exact and a.mode == "prf"


@pytest.mark.parametrize(
    "d,n",
    [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)],
)
def test_random_mode_closed_form(d, n):
    adv = analysis.optimal_advantage("prfs", d, 1, ("0", "1"), output_qubits=n, mode="random")
    expected = (1 - 2.0**-n) * (1 + 2.0 ** (1 - n)) / 2.0 ** (d + 1)
    assert abs(adv.value - expected) < 1e-10


def test_random_mode_decreases_past_two_qubits():
    values = [
        analysis.optimal_advantage("prfs", 2, 1, ("0", "1"), output_qubits=n, mode="random").value
        for n in (2, 3, 4)
    ]
    assert values[0] > values[1] > values[2] > 0


def test_advantage_monotone_in_security_param():
    # the information-theoretic (random-function) ensemble shrinks with the
    # security parameter; the keyed mode at toy widths reflects the concrete
    # keyed function's small-domain quirks and carries no such guarantee
    values = [
        analysis.optimal_advantage("prfs", lam, 1, ("0", "1"), output_qubits=2, mode="random").value
        for lam in (1, 2, 3)
    ]
    assert values[0] >= values[1] >= values[2]


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_random_mode_one_block_matches_every_block(d, n):
    adv = analysis.optimal_advantage("prfs", d, 1, ("0", "1"), output_qubits=n, mode="random")
    assert abs(adv.value - _random_mode_every_block(d, n)) <= 1e-15


def test_random_mode_budget_checked_before_the_block_is_built():
    # the (d, n) = (4, 4) block is 4096 x 4096: 16 MB as booleans, 128 MB as floats
    tracemalloc.start()
    try:
        with pytest.raises(sim.CapacityError):
            analysis.optimal_advantage("prfs", 4, 1, ("0", "1"), output_qubits=4, mode="random")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_random_mode_no_copies():
    adv = analysis.optimal_advantage("prfs", 2, 0, ("0", "1"), mode="random")
    assert adv.value == 0.0
    with pytest.raises(ValueError):
        analysis.optimal_advantage("prfs", 2, 2, ("0", "1"), mode="random")


def test_owf_random_mode_no_copies_zero():
    adv = analysis.optimal_advantage("owf", 2, 0, ("00", "11"), mode="random")
    assert adv.value < 1e-12
    with pytest.raises(ValueError):
        analysis.optimal_advantage("owf", 2, 1, ("00", "11"), mode="random")


def test_owf_random_mode_checks_its_budget_before_enumerating():
    tracemalloc.start()
    try:
        with pytest.raises(sim.CapacityError):
            analysis.optimal_advantage("owf", 2, 0, ("0" * 70, "1" * 70), mode="random")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 2^18 labels of two rows each: 2^20 entries, the default budget exactly
    adv = analysis.optimal_advantage("owf", 2, 0, ("0" * 16, "1" * 16), mode="random")
    assert adv.value <= 1e-12


def test_owf_keyed_numbers_bodies_wider_than_an_int64():
    adv = analysis.optimal_advantage("owf", 2, 1, ("0" * 70, "1" * 70), output_qubits=2)
    assert adv.value == 0.9999999999999998


def test_owf_prf_mode_bound_sane():
    adv = analysis.optimal_advantage("owf", 2, 1, ("00", "11"), output_qubits=2)
    assert 0.0 < adv.value <= 1.0
    assert adv.exact


def test_advantage_errors():
    with pytest.raises(ValueError):
        analysis.optimal_advantage("prfs", 2, 1, ("0", "1"), mode="bogus")
    with pytest.raises(ValueError):
        analysis.optimal_advantage("unknown", 2, 1, ("0", "1"))
    with pytest.raises(sim.CapacityError):
        analysis.optimal_advantage("prfs", 10, 1, ("0", "1"))
    with pytest.raises(sim.CapacityError):
        analysis.optimal_advantage("prfs", 6, 1, ("0", "1"))


@pytest.mark.parametrize("scheme,messages", [
    ("prfs", ("00", "11")),
    ("prfs", ("0", "11")),
    ("prfs", ("1", "")),
    ("owf", ("00", "1")),
    ("owf", ("0a", "11")),
    ("owf", ("01", "0 ")),
])
@pytest.mark.parametrize("mode", ["prf", "random"])
def test_advantage_rejects_messages_the_scheme_does_not_encrypt(monkeypatch, scheme, messages,
                                                                mode):
    def fail(*args, **kwargs):
        raise AssertionError("key state built before the messages were checked")

    monkeypatch.setattr(PhasePrfs, "oracle_isometry", fail)
    monkeypatch.setattr(OwfScheme, "qpk_gen", fail)
    with pytest.raises(ValueError):
        analysis.optimal_advantage(scheme, 2, 1, messages, mode=mode)


def test_advantage_rejects_negative_copies():
    # a negative exponent on the key overlaps would divide by them
    for scheme, messages in (("prfs", ("0", "1")), ("owf", ("00", "11"))):
        with pytest.raises(ValueError):
            analysis.optimal_advantage(scheme, 2, -1, messages)


def test_helstrom_bound_on_density_pair():
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    vectors = np.array([zero, zero, one])
    value = analysis._stack_distance((vectors @ vectors.T)[None],
                                     np.array([[1.0, -0.5, -0.5]]))
    assert abs(value - 0.5) < 1e-12


@pytest.mark.parametrize("scheme,lam,copies,messages,n", [
    ("prfs", 3, 1, ("0", "1"), 2),
    ("prfs", 2, 3, ("0", "1"), 2),
    ("prfs", 4, 1, ("0", "1"), 1),
    ("owf", 2, 1, ("00", "11"), 2),
    ("owf", 2, 2, ("01", "10"), 2),
    ("owf", 3, 1, ("0", "1"), 1),
])
def test_real_gram_blocks_match_the_complex_solve(monkeypatch, scheme, lam, copies, messages, n):
    dtypes = []
    eigh = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        dtypes.append(matrix.dtype)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    value = analysis.optimal_advantage(scheme, lam, copies, messages, output_qubits=n).value
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
    dtypes.clear()
    monkeypatch.setattr(analysis, "_stack_distance", _complex_stack_distance)
    reference = analysis.optimal_advantage(scheme, lam, copies, messages, output_qubits=n).value
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}
    assert abs(value - reference) <= 1e-15


def test_complex_gram_block_keeps_the_complex_solve():
    rng = np.random.default_rng(4)
    vectors = np.array([sim.haar_random_state(3, rng).amplitudes for _ in range(5)])
    gram = vectors.conj() @ vectors.T
    weights = np.array([0.3, 0.2, -0.25, -0.15, -0.1])
    assert gram.imag.any()
    assert abs(analysis._stack_distance(gram[None], weights[None])
               - _complex_block_distance(gram, weights)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8),
       blocks=st.lists(st.tuples(st.integers(1, 8), st.booleans()), min_size=1, max_size=5))
def test_stacked_solve_matches_a_complex_solve_per_block(seed, rows, blocks):
    # each block is the Gram matrix of `rows` unit vectors spanning `rank`
    # dimensions, real or complex, with signed weights of total mass 1
    rng = np.random.default_rng(seed)
    grams, weights = [], []
    for rank, is_complex in blocks:
        shape = (rows, min(rank, rows))
        basis = rng.normal(size=shape) + (1j * rng.normal(size=shape) if is_complex else 0)
        vectors = basis @ rng.normal(size=(shape[1], rows))
        vectors /= np.linalg.norm(vectors, axis=0)
        grams.append(vectors.conj().T @ vectors)
        signed = rng.normal(size=rows)
        weights.append(signed / np.abs(signed).sum())
    grams, weights = np.array(grams, dtype=np.complex128), np.array(weights)
    assert abs(analysis._stack_distance(grams, weights)
               - _complex_stack_distance(grams, weights)) <= 1e-13


def test_owf_keyed_solves_each_block_size_once_and_calls_no_prf_eval(monkeypatch):
    lam, n, messages = 2, 2, ("00", "11")
    # the (x*, r, body) blocks and their row counts, enumerated here with prf_eval
    sizes: dict = {}
    for m in messages:
        for key in (int_to_bits(v, lam) for v in range(1 << lam)):
            for xv in range(1 << lam):
                y = prf_eval(key, int_to_bits(xv, lam), n)
                for rv in range(1 << n):
                    body = xor_bits(_keystream(y, int_to_bits(rv, n), len(m)), m)
                    sizes[xv, rv, body] = sizes.get((xv, rv, body), 0) + 1
    prf_calls = _count_prf_eval_calls(monkeypatch)
    solves = {"eigh": [], "eigvalsh": []}
    for name, shapes in solves.items():
        def recording(matrix, *args, _solve=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(matrix.shape)
            return _solve(matrix, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    analysis.optimal_advantage("owf", lam, 1, messages, output_qubits=n)
    assert prf_calls == []
    eigh_rows = [shape[-1] for shape in solves["eigh"]]
    assert sorted(eigh_rows) == sorted(set(sizes.values()))
    assert [shape[-1] for shape in solves["eigvalsh"]] == eigh_rows


def test_prfs_keyed_takes_the_payloads_from_the_key_states(monkeypatch):
    calls = []
    gen = PhasePrfs.gen
    monkeypatch.setattr(PhasePrfs, "gen", lambda self, *args: calls.append(args) or gen(self, *args))
    analysis.optimal_advantage("prfs", 3, 1, ("0", "1"), output_qubits=2)
    # one call per (key, x) while the 8 key states are built, none afterwards
    assert len(calls) == 64 == len(set(calls))


@pytest.mark.parametrize(
    "lam,n,copies",
    [(lam, n, copies) for lam in (1, 2, 3) for n in (1, 2) for copies in (0, 1)]
    + [(1, 1, 2), (1, 2, 2)],
)
def test_prfs_keyed_matches_dense(lam, n, copies):
    adv = analysis.optimal_advantage("prfs", lam, copies, ("0", "1"), output_qubits=n)
    dense = _dense_distance(_dense_prfs_rho(lam, copies, n, "0"),
                            _dense_prfs_rho(lam, copies, n, "1"))
    assert abs(adv.value - dense) <= 1e-12


@pytest.mark.parametrize("messages", [("00", "11"), ("01", "10"), ("0", "1")])
def test_owf_keyed_matches_dense(messages):
    adv = analysis.optimal_advantage("owf", 2, 1, messages, output_qubits=2)
    dense = _dense_distance(*(_dense_owf_rho(2, 1, m, 2, 2) for m in messages))
    assert abs(adv.value - dense) <= 1e-12


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_random_mode_matches_dense(d, n):
    adv = analysis.optimal_advantage("prfs", d, 1, ("0", "1"), output_qubits=n, mode="random")
    dense = _dense_distance(*_dense_prfs_random_rho_pair(d, n))
    assert abs(adv.value - dense) <= 1e-12


@pytest.mark.parametrize("lam,n", [(lam, n) for lam in (1, 2, 3) for n in (1, 2)])
def test_prfs_gram_matches_qr_without_copies(lam, n):
    # every block is rank-deficient here: G has rank at most 2^n
    adv = analysis.optimal_advantage("prfs", lam, 0, ("0", "1"), output_qubits=n)
    qr = _qr_mixture_distance(_qr_prfs_terms(lam, 0, n, "0"), _qr_prfs_terms(lam, 0, n, "1"))
    assert abs(adv.value - qr) <= 1e-12


@pytest.mark.parametrize(
    "lam,n,copies",
    [(lam, n, copies) for copies in (2, 3) for lam in (1, 2, 3) for n in (1, 2, 3)
     if (copies + 1) * (lam + n) <= 12],
)
def test_prfs_gram_matches_qr_with_copies(lam, n, copies):
    adv = analysis.optimal_advantage("prfs", lam, copies, ("0", "1"), output_qubits=n)
    qr = _qr_mixture_distance(_qr_prfs_terms(lam, copies, n, "0"),
                              _qr_prfs_terms(lam, copies, n, "1"))
    assert abs(adv.value - qr) <= 1e-12


@pytest.mark.parametrize("lam,n,copies", [(2, 2, 0), (2, 2, 1), (1, 1, 0), (1, 1, 1),
                                          (1, 1, 2), (1, 1, 3)])
def test_owf_gram_matches_qr(lam, n, copies):
    messages = ("00", "11")
    adv = analysis.optimal_advantage("owf", lam, copies, messages, output_qubits=n)
    qr = _qr_mixture_distance(*(_qr_owf_terms(lam, copies, m, n, n) for m in messages))
    assert abs(adv.value - qr) <= 1e-12


@pytest.mark.parametrize("copies,expected", [(2, 0.748389982086), (3, 0.749849067531)])
def test_prfs_keyed_many_copies(copies, expected):
    adv = analysis.optimal_advantage("prfs", 3, copies, ("0", "1"), output_qubits=2)
    assert abs(adv.value - expected) <= 1e-12


def test_prfs_keyed_curve_over_copies():
    # with enough copies the toy key is determined: the value climbs to the
    # message-0 vs message-1 distance 1 - 2^-n and stays below it
    n = 2
    limit = 1 - 2.0**-n
    values = [analysis.optimal_advantage("prfs", 3, p, ("0", "1"), output_qubits=n).value
              for p in range(17)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert max(values) <= limit + 1e-12
    assert abs(values[16] - limit) <= 1e-9


def test_gram_budget_checked_before_any_key_is_built(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("key state built before the budget check")

    monkeypatch.setattr(PhasePrfs, "oracle_isometry", fail)
    monkeypatch.setattr(OwfScheme, "qpk_gen", fail)
    for scheme, messages in (("prfs", ("0", "1")), ("owf", ("00", "11"))):
        with pytest.raises(sim.CapacityError):
            analysis.optimal_advantage(scheme, 6, 1, messages)
    monkeypatch.setenv("QPKLAB_QMAX", "8")
    with pytest.raises(sim.CapacityError):
        analysis.optimal_advantage("prfs", 2, 1, ("0", "1"))


def test_hybrid_report_validation():
    with pytest.raises(AssertionError):
        analysis.HybridReport("H0-H1", "total-variation", 1.5, {})
