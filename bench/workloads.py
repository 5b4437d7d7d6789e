"""The benchmark's four workloads, their generated inputs and exact-value checks.

Every workload drives qpklab only through its public API and receives only
inputs the benchmark generates from a `np.random.Generator`. A job is the
unit a user waits for: a fixed batch of trials on freshly built scheme
objects (so program caches start cold, as in every CLI invocation), or one
pass over the fixed oracle set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qpklab import adversaries, analysis, games, primitives, schemes, sim

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# Two-sided Wilson interval at z = 5 (tail mass ~6e-7): the rate checks must
# not fail a correct program across the hundreds of runs a comparison makes.
WILSON_Z = 5.0

HELSTROM_TOL = 1e-9
ZERO_TOL = 1e-12
PUNCTURED_TOL = 1e-9


class ConfigError(Exception):
    """The environment cannot run the workload as defined."""


@dataclass
class TrialResult:
    """What one trial did and whether its outputs were correct."""

    attempted: int = 1
    failed: int = 0
    events: int = 0  # Bernoulli successes the rate check counts
    draws: int = 0  # Bernoulli draws behind `events`
    games: int = 0
    games_valid: int = 0
    reasons: list = field(default_factory=list)
    oracle_s: dict = field(default_factory=dict)
    outcome: tuple = ()  # summary that traced and untraced replays must share


def random_bitstring(rng: np.random.Generator, width: int) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=width))


def wilson_interval(successes: int, n: int, z: float = WILSON_Z):
    if n == 0:
        return 0.0, 1.0
    z2 = z * z
    centre = (successes + z2 / 2) / (n + z2)
    half = z * math.sqrt(successes * (n - successes) / n + z2 / 4) / (n + z2)
    return centre - half, centre + half


def _failed_trial(attempted: int, exc: Exception) -> TrialResult:
    return TrialResult(attempted, attempted, reasons=[f"raised {exc!r}"],
                       outcome=("raised", type(exc).__name__))


class Workload:
    name = ""
    job_trials = 1
    qubits = 1  # qubit cap the workload needs
    max_qubits = None  # cap above which the workload would change (None: any)
    exact_rate = None  # exact probability behind TrialResult.events / draws
    rate_label = ""
    # qpklab functions (dotted) that a long trial calls many times; in untimed
    # runs the clock may pause to calibrate before each call
    checkpoint_targets = ()

    def build(self):
        raise NotImplementedError

    def trial(self, ctx, rng: np.random.Generator, checkpoint) -> TrialResult:
        """One trial. `checkpoint()` marks a point where the timing clock may
        pause to calibrate; the runner also calls it between trials."""
        raise NotImplementedError


def _game_result(transcript) -> TrialResult:
    valid = bool(transcript.valid)
    return TrialResult(
        attempted=1, failed=0 if valid else 1, events=int(transcript.win), draws=1,
        games=1, games_valid=int(valid),
        reasons=[] if valid else ["protocol-invalid transcript"],
        outcome=(valid, transcript.win, transcript.guess),
    )


class OwfCopies(Workload):
    """OwfScheme lambda=8, 8-bit PRF output; cpa-eo against copy-measure(8)."""

    name = "owf-copies"
    lam = 8
    copies = 8
    job_trials = 32
    qubits = 16
    rate_label = "win rate"
    exact_rate = 0.5 + (1.0 - (1.0 - 2.0 ** -lam) ** copies) / 2

    def build(self):
        return schemes.OwfScheme(self.lam, prf_output_width=8)

    def trial(self, scheme, rng, checkpoint):
        try:
            adversary = adversaries.CopyMeasureAdversary(copies=self.copies)
            return _game_result(games.run_ind_cpa_eo(scheme, adversary, rng))
        except Exception as exc:  # a raising trial is a failed operation
            return _failed_trial(1, exc)


class PrfsCompare(Workload):
    """The README's `game --scheme prfs --game cpa --adversary state-compare
    --lambda 6 --n 4 --trials 2000` command, run through the library."""

    name = "prfs-compare"
    lam = 6
    n = 4
    job_trials = 2000
    qubits = lam + n
    rate_label = "win rate"
    exact_rate = REFERENCE["prfs_compare_win"]

    def build(self):
        prfs = primitives.PhasePrfs(primitives.PrfsParams(self.lam, self.lam, self.n))
        return schemes.PrfsScheme(self.lam, prfs)

    def trial(self, scheme, rng, checkpoint):
        try:
            adversary = adversaries.StateComparisonAdversary()
            return _game_result(games.run_ind_cpa(scheme, adversary, rng))
        except Exception as exc:
            return _failed_trial(1, exc)


class PrfspdRoundtrip(Workload):
    """PrfspdScheme lambda=8 with ToyPrfspd m=1, t=6: one key per trial, then a
    chain of encryptions on the recycled key, each through the wire format
    and decrypted."""

    name = "prfspd-roundtrip"
    lam = 8
    m = 1
    t = 6
    messages = 16
    message_bits = 256
    job_trials = 96
    qubits = lam + m + t
    rate_label = "message error rate"
    exact_rate = 1.0 - (1.0 - 2.0 ** -(t + 1)) ** lam

    def build(self):
        params = primitives.PrfspdParams(self.lam, self.lam, self.m, self.t)
        return schemes.PrfspdScheme(self.lam, primitives.ToyPrfspd(params))

    def trial(self, scheme, rng, checkpoint):
        try:
            dk = scheme.gen(rng)
            qpk = scheme.qpk_gen(dk)
            result = TrialResult(attempted=self.messages)
            decrypted = []
            for _ in range(self.messages):
                message = random_bitstring(rng, self.message_bits)
                qpk, ct = scheme.encrypt(qpk, message, rng)
                back = schemes.deserialize_ciphertext(schemes.serialize_ciphertext(ct))
                if back != ct:
                    result.failed += 1
                    result.reasons.append("wire round trip changed the ciphertext")
                    continue
                plain = scheme.decrypt(dk, back)
                result.draws += 1
                result.events += int(plain != message)
                decrypted.append(plain == message)
            result.outcome = tuple(decrypted)
            return result
        except Exception as exc:
            return _failed_trial(self.messages, exc)


class Oracles(Workload):
    """One pass over a fixed set of exact oracle calls."""

    name = "oracles"
    job_trials = 1
    # The punctured sweep is defined at the default 20-qubit cap: it builds a
    # 20-qubit state at lambda=3, p=4, and the pairs beyond the cap are
    # expected to raise CapacityError. A larger cap would allocate 2^32 vectors.
    qubits = sim.DEFAULT_Q_MAX
    max_qubits = sim.DEFAULT_Q_MAX
    # Single oracle calls take up to 5 s, longer than the host keeps one speed,
    # so the clock also gets a chance to calibrate inside them.
    checkpoint_targets = (
        "qpklab.sim.project",
        "qpklab.primitives.prf_eval",
        "qpklab.primitives.PhasePrfs.gen",
        "qpklab.primitives.PhasePrfs.oracle_isometry",
        "numpy.linalg.eigvalsh",
    )
    punctured_lams = range(2, 7)
    punctured_copies = range(1, 5)
    punctured_prf_width = 2

    def build(self):
        return None

    def trial(self, _ctx, rng, checkpoint):
        result = TrialResult(attempted=0)
        flags = []

        def op(label, fn):
            checkpoint()
            result.attempted += 1
            start = perf_counter()
            try:
                ok, why = fn()
            except Exception as exc:
                ok, why = False, f"raised {exc!r}"
            result.oracle_s[label] = result.oracle_s.get(label, 0.0) + perf_counter() - start
            flags.append(ok)
            if not ok:
                result.failed += 1
                result.reasons.append(f"{label}: {why}")

        ref = REFERENCE["helstrom"]
        op("helstrom_prfs_keyed", lambda: _near(
            analysis.optimal_advantage("prfs", 3, 1, ("0", "1"), output_qubits=2).value,
            ref["prfs_keyed_lam3_n2"], HELSTROM_TOL))
        op("helstrom_prfs_random", lambda: _near(
            analysis.optimal_advantage("prfs", 2, 1, ("0", "1"), output_qubits=3,
                                       mode="random").value,
            ref["prfs_random_lam2_n3"], HELSTROM_TOL))
        op("helstrom_owf_keyed", lambda: _near(
            analysis.optimal_advantage("owf", 2, 1, ("00", "11"), output_qubits=2).value,
            ref["owf_keyed_lam2_n2"], HELSTROM_TOL))
        dk = random_bitstring(rng, 3)
        op("commuting", lambda: _near(
            analysis.commuting_measurement_check(3, dk_bits=dk).value, 0.0, ZERO_TOL))
        for lam in self.punctured_lams:
            for copies in self.punctured_copies:
                dk, x_star = random_bitstring(rng, lam), random_bitstring(rng, lam)
                op("punctured", lambda: self._punctured(lam, copies, dk, x_star))
        op("random_key", lambda: _near(
            analysis.random_key_indistinguishability_check(2, queries=3).value, 0.0, ZERO_TOL))
        result.outcome = tuple(flags)
        return result

    def _punctured(self, lam, copies, dk, x_star):
        exact = math.sqrt(1.0 - (1.0 - 2.0 ** -lam) ** copies)
        closed = analysis.punctured_key_distance(lam, copies)
        if abs(closed - exact) > PUNCTURED_TOL:
            return False, f"closed form {closed!r} != {exact!r} at lam={lam}, p={copies}"
        expect_capacity = copies * (lam + self.punctured_prf_width) > sim.q_max()
        try:
            explicit = analysis.punctured_key_distance_explicit(
                lam, copies, self.punctured_prf_width, dk_bits=dk, x_star=x_star)
        except sim.CapacityError:
            if expect_capacity:
                return True, ""
            return False, f"unexpected CapacityError at lam={lam}, p={copies}"
        if expect_capacity:
            return False, f"expected CapacityError at lam={lam}, p={copies}"
        return _near(explicit, exact, PUNCTURED_TOL)


def _near(value, reference, tol):
    if abs(value - reference) <= tol:
        return True, ""
    return False, f"value {value!r} misses reference {reference!r} by more than {tol}"


WORKLOADS = {w.name: w for w in (OwfCopies(), PrfsCompare(), PrfspdRoundtrip(), Oracles())}


def check_capacity(workload: Workload) -> int:
    """Fail fast when the configured qubit cap cannot run the workload as defined."""
    try:
        cap = sim.q_max()
    except ValueError as exc:
        raise ConfigError(f"QPKLAB_QMAX is not an integer: {exc}")
    if cap < workload.qubits:
        raise ConfigError(f"{workload.name} needs a qubit cap of {workload.qubits}, "
                          f"QPKLAB_QMAX gives {cap}")
    if workload.max_qubits is not None and cap > workload.max_qubits:
        raise ConfigError(f"{workload.name} is defined at a qubit cap of "
                          f"{workload.max_qubits}, QPKLAB_QMAX gives {cap}")
    return cap


def setup(workload: Workload):
    """Everything before the first timed operation: BLAS start-up and construction."""
    np.linalg.eigvalsh(np.eye(4) + 1j * np.eye(4))
    return workload.build()


def job_rng(seed: int, job: int) -> np.random.Generator:
    """Job 0 draws exactly what the CLI draws for `--seed seed`; later jobs differ."""
    return np.random.default_rng(seed if job == 0 else [seed, job])
