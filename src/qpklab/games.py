"""Executable security games: challengers, transcripts, advantage estimation.

The challenger drives a synchronous adversary object through the game's turn
structure. Protocol violations (mismatched challenge messages, blown budgets)
never escape as exceptions: the transcript is marked invalid and counted as a
loss, so estimators stay total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import random_bits
from .primitives import PrfspdProof, ToyPrfspd
from .schemes import CapabilityError, QpkeScheme, SchemeError

HARD_QUERY_CAP = 64


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
    seed_info: str = ""
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
    confidence: float
    interval: tuple

    def __post_init__(self):
        lo, hi = self.interval
        assert lo - 1e-12 <= self.estimate <= hi + 1e-12


def _finish(transcript: GameTranscript, adversary, b: int) -> GameTranscript:
    try:
        guess = int(adversary.guess())
    except Exception:
        transcript.valid = False
        transcript.win = False
        return transcript
    if guess not in (0, 1):
        transcript.valid = False
        transcript.win = False
        return transcript
    transcript.guess = guess
    transcript.win = transcript.valid and guess == b
    transcript.add_event("guess", "adversary", str(guess))
    return transcript


def _give_key_copies(scheme, dk, adversary, transcript):
    copies = min(int(adversary.num_key_copies()), adversary.key_copy_budget, HARD_QUERY_CAP)
    for _ in range(copies):
        adversary.receive_public_key_copy(scheme.qpk_gen(dk))
        transcript.add_event("setup", "challenger", "qpk-copy")


def _challenge_pair(scheme, adversary):
    m0, m1 = adversary.choose_challenge()
    scheme.check_message(m0)
    scheme.check_message(m1)
    if len(m0) != len(m1):
        raise ProtocolViolation("challenge messages differ in length")
    return m0, m1


def run_ind_cpa(scheme: QpkeScheme, adversary, rng: np.random.Generator) -> GameTranscript:
    """Single-challenge indistinguishability game without an encryption oracle.

    The adversary gets fresh public-key copies (oracle access to key
    generation), picks two same-length messages, and must guess which one was
    encrypted under a fresh key copy.
    """
    transcript = GameTranscript("cpa", scheme.security_param)
    dk = scheme.gen(rng)
    transcript.dk_bits = dk.bits
    adversary.begin(scheme, rng)
    b = int(rng.integers(2))
    transcript.challenge_bit = b
    try:
        _give_key_copies(scheme, dk, adversary, transcript)
        m0, m1 = _challenge_pair(scheme, adversary)
        transcript.challenge = (m0, m1)
        transcript.add_event("challenge", "adversary", f"{m0},{m1}")
        qpk = scheme.qpk_gen(dk)
        _qpk, ct = scheme.encrypt(qpk, (m0, m1)[b], rng)
        adversary.receive_challenge(ct)
        transcript.add_event("challenge", "challenger", "ct*")
    except (ProtocolViolation, SchemeError, KeyError, IndexError):
        transcript.valid = False
        return transcript
    return _finish(transcript, adversary, b)


def _query_phase(scheme, adversary, qpk, rng, transcript, budget_state):
    """Drain one encryption-query phase; the adversary stops with None."""
    while True:
        message = adversary.encryption_query()
        if message is None:
            return qpk
        budget_state[0] += 1
        if budget_state[0] > min(adversary.query_budget, HARD_QUERY_CAP):
            raise ProtocolViolation("encryption-query budget exceeded")
        scheme.check_message(message)
        qpk, ct = scheme.encrypt(qpk, message, rng)
        transcript.queries.append(message)
        transcript.add_event("query", "adversary", message)
        adversary.receive_ciphertext(ct)


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
    transcript = GameTranscript("cpa-eo-multi" if multi else "cpa-eo", scheme.security_param)
    dk = scheme.gen(rng)
    transcript.dk_bits = dk.bits
    adversary.begin(scheme, rng)
    b = int(rng.integers(2))
    transcript.challenge_bit = b
    budget_state = [0]
    try:
        _give_key_copies(scheme, dk, adversary, transcript)
        for _outer in range(outer_rounds if multi else 1):
            qpk = scheme.qpk_gen(dk)
            for _inner in range(inner_rounds if multi else 1):
                qpk = _query_phase(scheme, adversary, qpk, rng, transcript, budget_state)
                m0, m1 = _challenge_pair(scheme, adversary)
                transcript.challenge = (m0, m1)
                transcript.add_event("challenge", "adversary", f"{m0},{m1}")
                qpk, ct = scheme.encrypt(qpk, (m0, m1)[b], rng)
                adversary.receive_challenge(ct)
                transcript.add_event("challenge", "challenger", "ct*")
                qpk = _query_phase(scheme, adversary, qpk, rng, transcript, budget_state)
    except (ProtocolViolation, SchemeError, KeyError, IndexError):
        transcript.valid = False
        return transcript
    return _finish(transcript, adversary, b)


def run_prfspd_cloning(prfspd: ToyPrfspd, adversary, rng) -> GameTranscript:
    """Proof-cloning game: produce one more distinct verifying proof than
    generator queries for some input."""
    transcript = GameTranscript("cloning", prfspd.params.key_width)
    key = random_bits(prfspd.params.key_width, rng)
    transcript.dk_bits = key
    counts: dict[str, int] = {}
    budgets = {"gen": 0, "ver": 0}

    def gen_oracle(x):
        budgets["gen"] += 1
        if budgets["gen"] > min(adversary.gen_budget, HARD_QUERY_CAP):
            raise ProtocolViolation("generator-query budget exceeded")
        counts[x] = counts.get(x, 0) + 1
        transcript.add_event("query", "adversary", f"gen:{x}")
        return prfspd.gen(key, x)

    def ver_oracle(x, proof_bits):
        budgets["ver"] += 1
        if budgets["ver"] > min(adversary.ver_budget, HARD_QUERY_CAP):
            raise ProtocolViolation("verifier-query budget exceeded")
        transcript.add_event("query", "adversary", f"ver:{x}")
        return prfspd.verify(key, x, PrfspdProof(proof_bits))

    try:
        x, proofs = adversary.run(gen_oracle, ver_oracle, rng)
    except ProtocolViolation:
        transcript.valid = False
        return transcript
    t = counts.get(x, 0)
    transcript.challenge = (x, tuple(proofs))
    transcript.add_event("output", "adversary", f"{x}:{len(proofs)}")
    if len(proofs) != t + 1 or len(set(proofs)) != len(proofs):
        transcript.win = False
        return transcript
    transcript.win = all(
        prfspd.verify(key, x, PrfspdProof(p)) for p in proofs
    )
    return transcript


def estimate_advantage(runner, trials: int, rng: np.random.Generator,
                       confidence: float = 0.95) -> AdvantageEstimate:
    """Run `runner(child_rng) -> GameTranscript` over independent seeded trials.

    Reports the win fraction with a Wilson binomial confidence interval.
    Trials use rng streams split from the master generator, merged by trial
    index, so results are reproducible bit-exactly under a fixed seed.
    """
    from scipy.stats import binomtest  # slow to import; nothing else needs scipy.stats

    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful estimate")
    wins = 0
    for child in rng.spawn(trials):
        transcript = runner(child)
        wins += int(transcript.win)
    estimate = wins / trials
    ci = binomtest(wins, trials).proportion_ci(confidence_level=confidence, method="wilson")
    return AdvantageEstimate(trials, wins, estimate, confidence, (ci.low, ci.high))
