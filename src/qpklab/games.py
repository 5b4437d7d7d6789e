"""Executable security games: challengers, transcripts, advantage estimation.

The challenger drives a synchronous adversary object through the game's turn
structure. Protocol violations (malformed or mismatched messages, blown
budgets) never escape as exceptions: the transcript is marked invalid and
counted as a loss, so estimators stay total.
"""

from __future__ import annotations

import math
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


def _query_phase(scheme, adversary, qpk, rng, transcript, budget_state):
    """Drain one encryption-query phase; the adversary stops with None."""
    while True:
        message = adversary.encryption_query()
        if message is None:
            return qpk
        budget_state[0] += 1
        if budget_state[0] > min(adversary.query_budget, HARD_QUERY_CAP):
            raise ProtocolViolation("encryption-query budget exceeded")
        qpk, ct = scheme.encrypt(qpk, message, rng)
        transcript.queries.append(message)
        transcript.add_event("query", "adversary", message)
        adversary.receive_ciphertext(ct)


def _run_challenger(scheme, adversary, rng, game, chains, challenges, queries):
    """The one challenger loop: `chains` fresh key chains under one decryption
    key, `challenges` challenge rounds per chain, one challenge bit for the
    whole run. With `queries`, an encryption-query phase runs before and after
    every challenge on the evolving chain."""
    transcript = GameTranscript(game, scheme.security_param)
    dk = scheme.gen(rng)
    transcript.dk_bits = dk.bits
    adversary.begin(scheme, rng)
    b = int(rng.integers(2))
    transcript.challenge_bit = b
    budget_state = [0]
    try:
        _give_key_copies(scheme, dk, adversary, transcript)
        for _chain in range(chains):
            qpk = scheme.qpk_gen(dk)
            for _challenge in range(challenges):
                if queries:
                    qpk = _query_phase(scheme, adversary, qpk, rng, transcript, budget_state)
                m0, m1 = adversary.choose_challenge()
                scheme.check_messages(m0, m1)
                transcript.challenge = (m0, m1)
                transcript.add_event("challenge", "adversary", f"{m0},{m1}")
                qpk, ct = scheme.encrypt(qpk, (m0, m1)[b], rng)
                adversary.receive_challenge(ct)
                transcript.add_event("challenge", "challenger", "ct*")
                if queries:
                    qpk = _query_phase(scheme, adversary, qpk, rng, transcript, budget_state)
    except (ProtocolViolation, SchemeError, KeyError, IndexError):
        transcript.valid = False
        return transcript
    return _finish(transcript, adversary, b)


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
    protocol violation."""
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

    def gen_oracle(x):
        budgets["gen"] += 1
        if budgets["gen"] > min(adversary.gen_budget, HARD_QUERY_CAP):
            raise ProtocolViolation("generator-query budget exceeded")
        well_formed(x)
        counts[x] = counts.get(x, 0) + 1
        transcript.add_event("query", "adversary", f"gen:{x}")
        return prfspd.gen(key, x)

    def ver_oracle(x, proof_bits):
        budgets["ver"] += 1
        if budgets["ver"] > min(adversary.ver_budget, HARD_QUERY_CAP):
            raise ProtocolViolation("verifier-query budget exceeded")
        well_formed(x, proof_bits)
        transcript.add_event("query", "adversary", f"ver:{x}")
        return prfspd.verify(key, x, proof_bits)

    try:
        x, proofs = adversary.run(gen_oracle, ver_oracle, rng)
        proofs = tuple(proofs)
        well_formed(x, *proofs)
    except ProtocolViolation:
        transcript.valid = False
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
    Trials use rng streams split from the master generator, merged by trial
    index, so results are reproducible bit-exactly under a fixed seed.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful estimate")
    wins = 0
    for child in rng.spawn(trials):
        transcript = runner(child)
        wins += int(transcript.win)
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
