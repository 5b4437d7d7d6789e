"""Built-in adversary strategies for the security games.

Baselines (random guess, constant guess), the honest-but-curious copy
measurers, and one attack per deliberately broken primitive for the mutation
suite. Adversaries are synchronous callback objects driven by the challenger;
they see only what the game hands them.
"""

from __future__ import annotations

import numpy as np

from . import sim
from .bits import random_bits, xor_bits
from .schemes import PrfsScheme


class AdversaryStrategy:
    """Callback interface the challengers drive; subclass and override.

    The base keeps the challenge pair (`pair`, the scheme's default unless a
    strategy sets one) and the last challenge ciphertext (`challenge_ct`).
    """

    # the schemes whose keys and ciphertexts the strategy can read
    supported_schemes = ("owf", "prfspd", "prfs")
    key_copy_budget = 16
    query_budget = 16
    pair = None
    challenge_ct = None

    def begin(self, scheme, rng: np.random.Generator):
        self.scheme = scheme
        self.rng = rng

    def num_key_copies(self) -> int:
        return 0

    def receive_public_key_copy(self, qpk):
        pass

    def encryption_query(self):
        return None

    def receive_ciphertext(self, ct):
        pass

    def choose_challenge(self):
        if self.pair is None:
            self.pair = ("0", "1") if isinstance(self.scheme, PrfsScheme) else ("0" * 8, "1" * 8)
        return self.pair

    def receive_challenge(self, ct):
        self.challenge_ct = ct

    def guess(self) -> int:
        raise NotImplementedError

    def _guess_plaintext(self, message) -> int:
        """The index of `message` in the challenge pair, else one fair coin."""
        if message in self.pair:
            return self.pair.index(message)
        return int(self.rng.integers(2))


class RandomGuessAdversary(AdversaryStrategy):
    """Ignores everything and flips a coin, after one all-zero encryption query
    where the game has an encryption oracle."""

    queried = False

    def encryption_query(self):
        if self.queried or not self.scheme.supports_encryption_oracle:
            return None
        self.queried = True
        return "0" * 8

    def guess(self):
        return int(self.rng.integers(2))


class AlwaysZeroAdversary(AdversaryStrategy):
    """Constant guess; wins exactly when the challenge bit is 0."""

    def guess(self):
        return 0


class StateComparisonAdversary(AdversaryStrategy):
    """Single-shot-scheme attack: compare the challenge payload with a reference
    extracted from an own public-key copy.

    Measures the input register of its copy, keeps the residual function-like
    state as reference, and compares it with the challenge payload. With
    `amplified` set (default) the comparison is the binary projective
    measurement — the many-reference-copy limit of the swap test, accepting
    with probability equal to the fidelity; with it unset the comparison is a
    single physical swap test on the one reference actually held. Breaks any
    generator whose output ignores the input; nearly blind against an honest
    family.
    """

    supported_schemes = ("prfs",)

    def __init__(self, amplified: bool = True):
        self.amplified = amplified
        self.copy = None

    def num_key_copies(self):
        return 1

    def receive_public_key_copy(self, qpk):
        self.copy = qpk.state

    def guess(self):
        payload = self.challenge_ct.payload
        _x, reference = next(sim.measure_control(self.copy, self.scheme.prfs.params.input_width,
                                                 self.rng))
        if self.amplified:
            accepted, _ = sim.project_onto(payload, reference, self.rng)
        else:
            accepted = sim.swap_test(reference, payload, self.rng)
        return 0 if accepted else 1


class CopyMeasureAdversary(AdversaryStrategy):
    """Measures its public-key copies and hopes to collide with the challenger's
    measurement outcome; decrypts the challenge directly on a collision."""

    supported_schemes = ("owf",)

    def __init__(self, copies: int = 8, pair=None):
        self.copies = copies
        self.seen: dict[str, str] = {}
        self.pair = pair

    def num_key_copies(self):
        return self.copies

    def receive_public_key_copy(self, qpk):
        outcome = sim.sample_outcome(qpk.state, qpk.state.full_range(), self.rng)
        lam = self.scheme.security_param
        self.seen[outcome[:lam]] = outcome[lam:]

    def guess(self):
        ct = self.challenge_ct
        key = self.seen.get(ct.x)
        return self._guess_plaintext(None if key is None else self.scheme.ske.decrypt(key, ct.body))


class PadReuseAdversary(AdversaryStrategy):
    """Exploits keystream reuse: with a pinned nonce, an oracle query and the
    challenge share the pad, so XOR of the bodies reveals the plaintext."""

    supported_schemes = ("owf", "prfspd")
    pair = ("0" * 8, "1" * 8)
    query_body = None
    queried = False

    def encryption_query(self):
        if self.queried:
            return None
        self.queried = True
        return self.pair[0]

    def receive_ciphertext(self, ct):
        self.query_body = ct.body.body

    def guess(self):
        if self.query_body is None:
            return int(self.rng.integers(2))
        recovered = xor_bits(self.query_body, self.challenge_ct.body.body)
        return 0 if recovered == self.pair[0] else 1


class KeyReadoutAdversary(AdversaryStrategy):
    """Exploits predictable destruction proofs: when the tag half of a real
    proof is constant, the slot pattern leaks the symmetric key bit-by-bit."""

    supported_schemes = ("prfspd",)

    def guess(self):
        ct = self.challenge_ct
        m = self.scheme.prfspd.params.measured_width
        tag_width = self.scheme.prfspd.params.tag_width
        key = "".join(
            "1" if y_tilde[m:] == "0" * tag_width else "0" for _x, y_tilde in ct.slots
        )
        return self._guess_plaintext(self.scheme.ske.decrypt(key, ct.body))


# --- cloning-game adversaries ---------------------------------------------


class CloningAdversary:
    gen_budget = 16
    ver_budget = 16

    def run(self, gen_oracle, ver_oracle, rng):
        raise NotImplementedError


class HonestPlusRandomCloner(CloningAdversary):
    """Measures t honest copies for t proofs and guesses one extra at random."""

    def __init__(self, prfspd_params, copies: int = 2):
        self.params = prfspd_params
        self.copies = copies

    def run(self, gen_oracle, ver_oracle, rng):
        x = "0" * self.params.input_width
        proofs = []
        for _ in range(self.copies):
            state = gen_oracle(x)
            outcome = sim.sample_outcome(state, state.full_range(), rng)
            proofs.append(outcome)
        proofs.append(random_bits(self.params.proof_width, rng))
        return x, proofs


class DuplicateCloner(CloningAdversary):
    """Returns the same honest proof twice; always rejected as non-distinct."""

    def __init__(self, prfspd_params):
        self.params = prfspd_params

    def run(self, gen_oracle, ver_oracle, rng):
        x = "0" * self.params.input_width
        state = gen_oracle(x)
        outcome = sim.sample_outcome(state, state.full_range(), rng)
        return x, [outcome, outcome]


class LuckyCloner(CloningAdversary):
    """Makes no generator queries and submits one uniformly random proof."""

    def __init__(self, prfspd_params):
        self.params = prfspd_params

    def run(self, gen_oracle, ver_oracle, rng):
        return "0" * self.params.input_width, [random_bits(self.params.proof_width, rng)]


ADVERSARIES = {
    "random-guess": RandomGuessAdversary,
    "always-zero": AlwaysZeroAdversary,
    "state-compare": StateComparisonAdversary,
    "copy-measure": CopyMeasureAdversary,
    "pad-reuse": PadReuseAdversary,
    "key-readout": KeyReadoutAdversary,
}
