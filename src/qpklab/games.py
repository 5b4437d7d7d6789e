"""Executable security games: challengers, transcripts, advantage estimation.

The challenger drives a synchronous adversary object through the game's turn
structure, and this module is the one boundary around adversary code: every
callback runs through `_adversary`. Anything adversary code raises, any blown
budget and any malformed message never escape as exceptions: the transcript
is marked invalid and counted as a loss, so estimators stay total. A scheme
exception other than a `SchemeError` is a fault of the scheme, not of the
adversary, and propagates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bits import check_bits, random_bits
from .primitives import ToyPrfspd
from .schemes import CapabilityError, QpkeScheme, SchemeError

HARD_QUERY_CAP = 64

# The two-sided 95% normal quantile as Cephes' ndtri(0.975) returns it: one ulp
# below the nearest double, 1.9599639845400543, and two ulps above what
# statistics.NormalDist returns. This float keeps the printed intervals' bytes.
Z_95 = 1.959963984540054


class ProtocolViolation(Exception):
    pass


@dataclass
class GameTranscript:
    """Full record of one game run."""

    game: str
    security_param: int
    dk_bits: str = ""
    challenge_bit: int | None = None
    guess: int | None = None
    win: bool = False
    valid: bool = True
    queries: list = field(default_factory=list)
    challenge: tuple | None = None
    events: list = field(default_factory=list)

    def add_event(self, phase: str, actor: str, payload: str):
        self.events.append((phase, actor, payload))

    def to_lines(self) -> str:
        """Line-delimited record: one `phase actor payload-hex` event per line."""
        return "\n".join(
            f"{phase} {actor} {payload.encode().hex()}" for phase, actor, payload in self.events
        )


@dataclass(frozen=True)
class AdvantageEstimate:
    trials: int
    wins: int
    estimate: float
    interval: tuple

    def __post_init__(self):
        lo, hi = self.interval
        assert lo - 1e-12 <= self.estimate <= hi + 1e-12


def _adversary(call, *args):
    """Run adversary code: `call(*args)`. A `ProtocolViolation` (a blown budget
    or a malformed submission, judged in the code it runs) passes through;
    anything else it raises becomes one, so no adversary stops an estimate."""
    try:
        return call(*args)
    except ProtocolViolation:
        raise
    except Exception as exc:  # the game's boundary around code it does not trust
        raise ProtocolViolation(f"adversary raised {exc!r}") from exc


def _check_count(count: int, budget: int, what: str) -> int:
    """`count`, if the adversary may have that many: an integer in [0, min(budget, cap)]."""
    if not 0 <= count <= min(budget, HARD_QUERY_CAP):
        raise ProtocolViolation(f"{what} count {count!r} is outside the budget")
    return count


def _challenge_pair(adversary) -> tuple:
    """The adversary's two challenge messages; any other shape is its fault."""
    m0, m1 = adversary.choose_challenge()
    return m0, m1


def _query_phase(scheme, adversary, qpk, rng, transcript):
    """Drain one encryption-query phase; the adversary stops with None."""
    while True:
        message = _adversary(adversary.encryption_query)
        if message is None:
            return qpk
        _check_count(len(transcript.queries) + 1, adversary.query_budget, "encryption-query")
        qpk, ct = scheme.encrypt(qpk, message, rng)
        transcript.queries.append(message)
        transcript.add_event("query", "adversary", message)
        _adversary(adversary.receive_ciphertext, ct)


def _run_challenger(scheme, adversary, rng, game, chains, challenges, queries):
    """The one challenger loop: `chains` fresh key chains under one decryption
    key, `challenges` challenge rounds per chain, one challenge bit for the
    whole run. With `queries`, an encryption-query phase runs before and after
    every challenge on the evolving chain."""
    transcript = GameTranscript(game, scheme.security_param)
    dk = scheme.gen(rng)
    transcript.dk_bits = dk.bits
    try:
        _adversary(adversary.begin, scheme, rng)
        b = transcript.challenge_bit = int(rng.integers(2))
        copies = _adversary(lambda: operator.index(adversary.num_key_copies()))
        for _ in range(_check_count(copies, adversary.key_copy_budget, "key-copy")):
            _adversary(adversary.receive_public_key_copy, scheme.qpk_gen(dk))
            transcript.add_event("setup", "challenger", "qpk-copy")
        for _chain in range(chains):
            qpk = scheme.qpk_gen(dk)
            for _challenge in range(challenges):
                if queries:
                    qpk = _query_phase(scheme, adversary, qpk, rng, transcript)
                m0, m1 = _adversary(_challenge_pair, adversary)
                scheme.check_messages(m0, m1)
                transcript.challenge = (m0, m1)
                transcript.add_event("challenge", "adversary", f"{m0},{m1}")
                qpk, ct = scheme.encrypt(qpk, (m0, m1)[b], rng)
                _adversary(adversary.receive_challenge, ct)
                transcript.add_event("challenge", "challenger", "ct*")
                if queries:
                    qpk = _query_phase(scheme, adversary, qpk, rng, transcript)
        guess = _adversary(lambda: operator.index(adversary.guess()))
        if guess not in (0, 1):
            raise ProtocolViolation(f"guess {guess} is not a bit")
    except (ProtocolViolation, SchemeError):
        transcript.valid = False
        return transcript
    transcript.guess = guess
    transcript.win = guess == b
    transcript.add_event("guess", "adversary", str(guess))
    return transcript


def run_ind_cpa(scheme: QpkeScheme, adversary, rng: np.random.Generator) -> GameTranscript:
    """Single-challenge indistinguishability game without an encryption oracle.

    The adversary gets fresh public-key copies (oracle access to key
    generation), picks two same-length messages, and must guess which one was
    encrypted under a fresh key copy.
    """
    return _run_challenger(scheme, adversary, rng, "cpa", 1, 1, queries=False)


def run_ind_cpa_eo(scheme, adversary, rng, multi=False, inner_rounds=2, outer_rounds=2):
    """Indistinguishability game with an encryption oracle on the evolving key chain.

    Single-challenge by default; with `multi`, the challenge rounds repeat on
    the evolving chain (inner loop) and over fresh key chains under the same
    decryption key (outer loop), with one challenge bit for the whole run.
    Schemes without recycled-key semantics are rejected with a capability
    error.
    """
    if not scheme.supports_encryption_oracle:
        raise CapabilityError(f"scheme {scheme.name!r} does not support the encryption oracle game")
    game = "cpa-eo-multi" if multi else "cpa-eo"
    rounds = (outer_rounds, inner_rounds) if multi else (1, 1)
    return _run_challenger(scheme, adversary, rng, game, *rounds, queries=True)


def run_prfspd_cloning(prfspd: ToyPrfspd, adversary, rng) -> GameTranscript:
    """Proof-cloning game: produce one more distinct verifying proof than
    generator queries for some input.

    An input or a proof of the wrong width, queried or submitted, is a
    protocol violation, as is a blown query budget. A violation, or a cloner
    that raises, marks the transcript invalid and lost."""
    transcript = GameTranscript("cloning", prfspd.params.key_width)
    key = random_bits(prfspd.params.key_width, rng)
    transcript.dk_bits = key
    counts: dict[str, int] = {}
    budgets = {"gen": 0, "ver": 0}

    def well_formed(x, *proofs):
        try:
            check_bits(x, prfspd.params.input_width)
            for proof in proofs:
                check_bits(proof, prfspd.params.proof_width)
        except ValueError as exc:
            raise ProtocolViolation(str(exc)) from exc

    def judge_query(oracle, budget, x, *proofs):
        """Count and check one oracle query. The checks run inside the cloner's
        own code, so a violation marks the transcript at once: a cloner that
        catches it still loses."""
        budgets[oracle] += 1
        try:
            _check_count(budgets[oracle], budget, f"{oracle}-query")
            well_formed(x, *proofs)
        except ProtocolViolation:
            transcript.valid = False
            raise

    def gen_oracle(x):
        judge_query("gen", adversary.gen_budget, x)
        counts[x] = counts.get(x, 0) + 1
        transcript.add_event("query", "adversary", f"gen:{x}")
        return prfspd.gen(key, x)

    def ver_oracle(x, proof_bits):
        judge_query("ver", adversary.ver_budget, x, proof_bits)
        transcript.add_event("query", "adversary", f"ver:{x}")
        return prfspd.verify(key, x, proof_bits)

    def submission():
        x, proofs = adversary.run(gen_oracle, ver_oracle, rng)
        proofs = tuple(proofs)
        well_formed(x, *proofs)
        return x, proofs

    try:
        x, proofs = _adversary(submission)
    except ProtocolViolation:
        transcript.valid = False
    if not transcript.valid:
        return transcript
    t = counts.get(x, 0)
    transcript.challenge = (x, proofs)
    transcript.add_event("output", "adversary", f"{x}:{len(proofs)}")
    if len(proofs) != t + 1 or len(set(proofs)) != len(proofs):
        transcript.win = False
        return transcript
    transcript.win = all(prfspd.verify(key, x, p) for p in proofs)
    return transcript


def estimate_advantage(runner, trials: int, rng: np.random.Generator) -> AdvantageEstimate:
    """Run `runner(child_rng) -> GameTranscript` over independent seeded trials.

    Reports the win fraction with a 95% Wilson binomial confidence interval.
    Each trial runs on the next child stream spawned from the master
    generator, so results are reproducible bit-exactly under a fixed seed.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful estimate")
    wins = 0
    for _ in range(trials):
        # spawned as it runs: the streams of rng.spawn(trials), without holding them all
        wins += int(runner(rng.spawn(1)[0]).win)
    estimate = wins / trials
    return AdvantageEstimate(trials, wins, estimate, wilson_interval(wins, trials, Z_95))


def wilson_interval(successes: int, trials: int, z: float) -> tuple:
    """Wilson score interval for a binomial rate at `z` standard errors.

    Newcombe (1998) without continuity correction, closed at 0 and 1 when the
    empirical rate attains them. The expressions are evaluated in the order of
    the reference implementation that `tests/test_games.py` compares against,
    so the bounds agree with it bit for bit at the same z.
    """
    p = successes / trials
    q = 1 - p
    denom = 2 * (trials + z**2)
    center = (2 * trials * p + z**2) / denom
    delta = z / denom * math.sqrt(4 * trials * p * q + z**2)
    lo = 0.0 if successes == 0 else center - delta
    hi = 1.0 if successes == trials else center + delta
    return lo, hi
