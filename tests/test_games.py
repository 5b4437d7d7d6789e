import math

import numpy as np
import pytest
from scipy.stats import binomtest, chisquare

from qpklab.adversaries import (
    ADVERSARIES,
    AdversaryStrategy,
    AlwaysZeroAdversary,
    CloningAdversary,
    DuplicateCloner,
    HonestPlusRandomCloner,
    LuckyCloner,
    PadReuseAdversary,
    RandomGuessAdversary,
)
from qpklab.bits import random_bits
from qpklab.cli import build_scheme
from qpklab.primitives import PhasePrfs, PrfsParams, PrfspdParams, ToyPrfspd
from qpklab.schemes import CapabilityError, OwfScheme, PrfsScheme, PrfspdScheme
from qpklab.games import (
    Z_95,
    AdvantageEstimate,
    estimate_advantage,
    run_ind_cpa,
    run_ind_cpa_eo,
    run_prfspd_cloning,
    wilson_interval,
)


def make_prfs_scheme(lam=3, n=2):
    return PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, n)))


# --- single-challenge game --------------------------------------------------


def test_always_zero_wins_iff_bit_zero(rng):
    scheme = make_prfs_scheme()
    for _ in range(30):
        t = run_ind_cpa(scheme, AlwaysZeroAdversary(), rng)
        assert t.valid
        assert t.win == (t.challenge_bit == 0)
        assert t.guess == 0


def test_random_guess_near_half(rng):
    scheme = make_prfs_scheme()
    est = estimate_advantage(lambda c: run_ind_cpa(scheme, RandomGuessAdversary(), c), 1000, rng)
    sigma = math.sqrt(0.25 / 1000)
    assert abs(est.estimate - 0.5) < 4 * sigma


def test_transcript_structure(rng):
    scheme = make_prfs_scheme()
    t = run_ind_cpa(scheme, AlwaysZeroAdversary(), rng)
    assert t.game == "cpa" and t.security_param == 3
    assert len(t.dk_bits) == 3
    assert t.challenge == ("0", "1")
    lines = t.to_lines().splitlines()
    assert lines, "transcript must record events"
    for line in lines:
        phase, actor, payload = line.split()
        assert phase in ("setup", "query", "challenge", "guess", "output")
        bytes.fromhex(payload)  # payload is hex-encoded


def test_challenger_fidelity_chi_squared(rng):
    # challenge bit and measured x* are jointly uniform at lambda=2
    scheme = OwfScheme(2, prf_output_width=2)

    class Recorder(AlwaysZeroAdversary):
        def choose_challenge(self):
            return "0" * 8, "1" * 8

        def receive_challenge(self, ct):
            self.x = ct.x

    counts = {}
    trials = 2000
    for _ in range(trials):
        adv = Recorder()
        t = run_ind_cpa(scheme, adv, rng)
        counts[(t.challenge_bit, adv.x)] = counts.get((t.challenge_bit, adv.x), 0) + 1
    observed = [counts.get((b, format(x, "02b")), 0) for b in (0, 1) for x in range(4)]
    assert chisquare(observed).pvalue > 0.01


# --- protocol violations ----------------------------------------------------


class MismatchedChallenge(AlwaysZeroAdversary):
    def choose_challenge(self):
        return "0", "11"


class GreedyQuerier(AdversaryStrategy):
    query_budget = 4

    def encryption_query(self):
        return "0" * 8

    def choose_challenge(self):
        return "0" * 8, "1" * 8

    def guess(self):
        return 0


class CrashingGuesser(AlwaysZeroAdversary):
    def guess(self):
        raise RuntimeError("adversary bug")


class NonBitGuesser(AlwaysZeroAdversary):
    def guess(self):
        return 2


@pytest.mark.parametrize("adversary_cls", [MismatchedChallenge, CrashingGuesser, NonBitGuesser])
def test_violations_counted_as_loss(rng, adversary_cls):
    scheme = make_prfs_scheme()
    t = run_ind_cpa(scheme, adversary_cls(), rng)
    assert not t.valid and not t.win


def test_query_budget_enforced(rng):
    scheme = OwfScheme(3)
    t = run_ind_cpa_eo(scheme, GreedyQuerier(), rng)
    assert not t.valid and not t.win


class MalformedQuery(AlwaysZeroAdversary):
    def encryption_query(self):
        return "abc"


class MalformedChallenge(AlwaysZeroAdversary):
    def choose_challenge(self):
        return "0a", "11"


@pytest.mark.parametrize("adversary_cls", [MalformedQuery, MalformedChallenge])
@pytest.mark.parametrize("make_scheme", [
    lambda: OwfScheme(3),
    lambda: PrfspdScheme(3, ToyPrfspd(PrfspdParams(3, 3, 1, 2))),
], ids=["owf", "prfspd"])
def test_malformed_messages_mark_the_transcript_invalid(rng, make_scheme, adversary_cls):
    t = run_ind_cpa_eo(make_scheme(), adversary_cls(), rng)
    assert not t.valid and not t.win


class DistinctQuerier(AlwaysZeroAdversary):
    def __init__(self):
        self.remaining = 3

    def encryption_query(self):
        if self.remaining:
            self.remaining -= 1
            return "01" * 4
        return None


def test_each_query_is_checked_once(rng, monkeypatch):
    checked = []
    check = OwfScheme.check_message

    def counting_check(message):
        checked.append(message)
        return check(message)

    monkeypatch.setattr(OwfScheme, "check_message", staticmethod(counting_check))
    t = run_ind_cpa_eo(OwfScheme(3), DistinctQuerier(), rng)
    assert t.valid
    assert checked.count("01" * 4) == 3


def test_prfs_scheme_rejected_in_eo_game(rng):
    with pytest.raises(CapabilityError):
        run_ind_cpa_eo(make_prfs_scheme(), RandomGuessAdversary(), rng)


# --- the adversary boundary ------------------------------------------------


class _Exercises(AlwaysZeroAdversary):
    """Takes one key copy and makes one query, so every callback runs."""

    queried = False

    def num_key_copies(self):
        return 1

    def encryption_query(self):
        if self.queried:
            return None
        self.queried = True
        return "0" * 8


def _raising_in(callback):
    def bug(self, *args):
        raise RuntimeError(f"adversary bug in {callback}")

    return type("RaisesIn", (_Exercises,), {callback: bug})()


_CPA_CALLBACKS = ["begin", "num_key_copies", "receive_public_key_copy", "choose_challenge",
                  "receive_challenge", "guess"]
_EO_CALLBACKS = _CPA_CALLBACKS + ["encryption_query", "receive_ciphertext"]


@pytest.mark.parametrize("game, callback",
                         [(run_ind_cpa, c) for c in _CPA_CALLBACKS]
                         + [(run_ind_cpa_eo, c) for c in _EO_CALLBACKS])
def test_an_adversary_that_raises_loses_an_invalid_game(rng, game, callback):
    scheme = OwfScheme(3)
    assert game(scheme, _Exercises(), rng).valid
    t = game(scheme, _raising_in(callback), rng)
    assert t.valid is False and t.win is False
    est = estimate_advantage(lambda c: game(scheme, _raising_in(callback), c), 100, rng)
    assert est.wins == 0


@pytest.mark.parametrize("copies", ["many", -5, 17, 1000, 2.7])
def test_a_key_copy_count_outside_the_budget_is_a_violation(rng, copies):
    class Asks(AlwaysZeroAdversary):
        def num_key_copies(self):
            return copies

    t = run_ind_cpa(OwfScheme(3), Asks(), rng)
    assert t.valid is False and t.win is False
    assert "qpk-copy" not in t.to_lines()


@pytest.mark.parametrize("guess", [0.9, "1"])
def test_a_guess_that_is_not_an_integer_is_a_violation(rng, guess):
    class Guesses(AlwaysZeroAdversary):
        def guess(self):
            return guess

    t = run_ind_cpa(OwfScheme(3), Guesses(), rng)
    assert t.valid is False and t.win is False


def test_a_numpy_integer_key_copy_count_is_accepted(rng):
    class Asks(AlwaysZeroAdversary):
        def num_key_copies(self):
            return np.int64(2)

    t = run_ind_cpa(OwfScheme(3), Asks(), rng)
    assert t.valid
    assert [e for e in t.events if e[0] == "setup"] == [("setup", "challenger", "qpk-copy")] * 2


def test_key_copies_up_to_the_budget_are_given(rng):
    class AsksAll(AlwaysZeroAdversary):
        def num_key_copies(self):
            return self.key_copy_budget

    t = run_ind_cpa(OwfScheme(3), AsksAll(), rng)
    assert t.valid
    assert [e for e in t.events if e[0] == "setup"] == [("setup", "challenger", "qpk-copy")] * 16


def test_a_scheme_fault_that_is_not_a_scheme_error_propagates(rng, monkeypatch):
    def broken_encrypt(self, qpk, message, rng):
        raise KeyError("scheme bug")

    monkeypatch.setattr(OwfScheme, "encrypt", broken_encrypt)
    with pytest.raises(KeyError, match="scheme bug"):
        run_ind_cpa(OwfScheme(3), AlwaysZeroAdversary(), rng)


def _pairings():
    for name, adv_cls in sorted(ADVERSARIES.items()):
        for scheme_name in adv_cls.supported_schemes:
            yield name, scheme_name, "cpa"
            if build_scheme(scheme_name, 2, 0, 1).supports_encryption_oracle:
                yield name, scheme_name, "cpa-eo"
                yield name, scheme_name, "cpa-eo-multi"


@pytest.mark.parametrize("name, scheme_name, game", list(_pairings()))
def test_every_built_in_adversary_plays_its_schemes_validly(rng, name, scheme_name, game):
    scheme = build_scheme(scheme_name, 2, 0, 1)
    for child in rng.spawn(30):
        adversary = ADVERSARIES[name]()
        if game == "cpa":
            t = run_ind_cpa(scheme, adversary, child)
        else:
            t = run_ind_cpa_eo(scheme, adversary, child, multi=game == "cpa-eo-multi")
        assert t.valid, (name, scheme_name, game)


# --- encryption-oracle game -------------------------------------------------


class ChainRecorder(AdversaryStrategy):
    """Issues a few queries and records every ciphertext's measured input."""

    def __init__(self, queries=2):
        self.remaining = queries
        self.xs = []

    def encryption_query(self):
        if self.remaining > 0:
            self.remaining -= 1
            return "0" * 8
        return None

    def receive_ciphertext(self, ct):
        self.xs.append(ct.x)

    def choose_challenge(self):
        return "0" * 8, "1" * 8

    def receive_challenge(self, ct):
        self.xs.append(ct.x)

    def guess(self):
        return 0


def test_eo_chain_shares_measurement(rng):
    scheme = OwfScheme(4)
    adv = ChainRecorder()
    t = run_ind_cpa_eo(scheme, adv, rng)
    assert t.valid
    assert len(adv.xs) == 3
    assert len(set(adv.xs)) == 1  # one chain, one measured x*


def test_multi_game_runs_all_rounds(rng):
    scheme = OwfScheme(4)
    adv = ChainRecorder(queries=1)
    t = run_ind_cpa_eo(scheme, adv, rng, multi=True, inner_rounds=2, outer_rounds=3)
    assert t.valid
    # 1 query + 6 challenges; fresh chains may measure different x values
    assert len(adv.xs) == 7
    assert t.game == "cpa-eo-multi"


def test_pad_reuse_needs_broken_nonce(rng):
    scheme = OwfScheme(6)
    wins = sum(run_ind_cpa_eo(scheme, PadReuseAdversary(), c).win for c in rng.spawn(300))
    assert wins / 300 < 0.65


# --- cloning game -----------------------------------------------------------


def test_duplicate_cloner_always_loses(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 3))
    for c in rng.spawn(50):
        assert not run_prfspd_cloning(pd, DuplicateCloner(pd.params), c).win


def test_lucky_cloner_wins_at_accepting_density(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 3))
    trials = 3000
    wins = sum(run_prfspd_cloning(pd, LuckyCloner(pd.params), c).win for c in rng.spawn(trials))
    density = pd.accepting_density()
    sigma = math.sqrt(density * (1 - density) / trials)
    assert abs(wins / trials - density) < 3 * sigma


def test_honest_cloner_bounded_by_density(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 2, 3))
    trials = 1500
    wins = sum(
        run_prfspd_cloning(pd, HonestPlusRandomCloner(pd.params), c).win for c in rng.spawn(trials)
    )
    density = pd.accepting_density()
    assert wins / trials <= density + 3 * math.sqrt(density * (1 - density) / trials)


def test_cloning_budget_enforced(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 3))

    class Greedy(CloningAdversary):
        gen_budget = 4

        def run(self, gen_oracle, ver_oracle, rng):
            for _ in range(10):
                gen_oracle("000")
            return "000", []

    t = run_prfspd_cloning(pd, Greedy(), rng)
    assert not t.valid and not t.win


@pytest.mark.parametrize("queries", [
    lambda gen_oracle, ver_oracle: [gen_oracle("000") for _ in range(5)],
    lambda gen_oracle, ver_oracle: gen_oracle("0"),
], ids=["over-budget", "malformed"])
def test_a_cloner_that_catches_its_violation_still_loses(rng, queries):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 2))

    class Swallows(CloningAdversary):
        gen_budget = 1

        def run(self, gen_oracle, ver_oracle, rng):
            try:
                queries(gen_oracle, ver_oracle)
            except Exception:
                pass
            return "000", ["000", "001"]

    t = run_prfspd_cloning(pd, Swallows(), rng)
    assert t.valid is False and t.win is False


def test_cloning_ver_oracle_available(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 3))

    class VerUser(CloningAdversary):
        def run(self, gen_oracle, ver_oracle, rng):
            bits = random_bits(pd.params.proof_width, rng)
            assert ver_oracle("000", bits) in (0, 1)
            return "000", [bits]

    t = run_prfspd_cloning(pd, VerUser(), rng)
    assert t.valid


class _Submits(CloningAdversary):
    """Runs `queries` against the oracles, then submits (x, proofs)."""

    def __init__(self, x, proofs, queries=lambda gen_oracle, ver_oracle: None):
        self.x, self.proofs, self.queries = x, proofs, queries

    def run(self, gen_oracle, ver_oracle, rng):
        self.queries(gen_oracle, ver_oracle)
        return self.x, self.proofs


@pytest.mark.parametrize("adversary", [
    _Submits("000", ["01"]),
    _Submits("000", ["001"], lambda gen_oracle, ver_oracle: ver_oracle("000", "1")),
    _Submits("000", ["001"], lambda gen_oracle, ver_oracle: gen_oracle("0")),
    _Submits("0000", ["001"]),
], ids=["short-proof", "short-verifier-query", "short-generator-query", "long-input"])
def test_cloning_input_of_the_wrong_width_is_invalid(rng, adversary):
    # the family expects 3-bit inputs and 3-bit proofs
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 2))
    t = run_prfspd_cloning(pd, adversary, rng)
    assert not t.valid and not t.win


def test_a_cloner_submitting_a_malformed_proof_list_is_invalid(rng):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 2))
    t = run_prfspd_cloning(pd, _Submits("000", 5), rng)
    assert t.valid is False and t.win is False


class _Raises(CloningAdversary):
    def run(self, gen_oracle, ver_oracle, rng):
        raise RuntimeError("cloner bug")


class _WritesToOracleAnswer(CloningAdversary):
    def run(self, gen_oracle, ver_oracle, rng):
        gen_oracle("000").amplitudes[:] = 0.0
        return "000", []


@pytest.mark.parametrize("adversary", [_Raises(), _WritesToOracleAnswer()],
                         ids=["raises", "writes-oracle-answer"])
def test_cloning_with_a_raising_cloner_is_invalid(rng, adversary):
    pd = ToyPrfspd(PrfspdParams(3, 3, 1, 2))
    t = run_prfspd_cloning(pd, adversary, rng)
    assert not t.valid and not t.win
    # the family's cached state survives the attempted write
    assert np.count_nonzero(pd.gen(t.dk_bits, "000").amplitudes) == 2


# --- estimator --------------------------------------------------------------


def test_estimator_requires_enough_trials(rng):
    with pytest.raises(ValueError):
        estimate_advantage(lambda c: None, 50, rng)


def test_estimator_deterministic_win(rng):
    scheme = make_prfs_scheme()

    def runner(child):
        t = run_ind_cpa(scheme, AlwaysZeroAdversary(), child)
        t.win = True  # deterministic-win game stub
        return t

    est = estimate_advantage(runner, 200, rng)
    assert est.estimate == 1.0
    assert est.interval[1] == 1.0
    assert est.interval[0] <= 1.0


def test_estimator_reproducible():
    scheme = make_prfs_scheme()

    def run(seed):
        return estimate_advantage(
            lambda c: run_ind_cpa(scheme, RandomGuessAdversary(), c),
            300,
            np.random.default_rng(seed),
        )

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_estimator_runs_the_streams_of_one_up_front_spawn():
    scheme = make_prfs_scheme()

    def runner(child):
        return run_ind_cpa(scheme, RandomGuessAdversary(), child)

    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    est = estimate_advantage(runner, 200, rng)
    assert est.wins == sum(runner(child).win for child in reference.spawn(200))
    assert rng.random() == reference.random()
    assert rng.spawn(1)[0].random() == reference.spawn(1)[0].random()


def test_estimate_invariants(rng):
    scheme = make_prfs_scheme()
    est = estimate_advantage(lambda c: run_ind_cpa(scheme, RandomGuessAdversary(), c), 150, rng)
    assert isinstance(est, AdvantageEstimate)
    assert 0.0 <= est.interval[0] <= est.estimate <= est.interval[1] <= 1.0
    assert est.wins == round(est.estimate * est.trials)


# --- Wilson interval ---------------------------------------------------------


def _scipy_wilson(k, n, level):
    # the interval does not depend on the hypothesised p; p = k/n only spares
    # binomtest most of its two-sided p-value search
    ci = binomtest(k, n, p=k / n).proportion_ci(confidence_level=level, method="wilson")
    return ci.low, ci.high


def test_wilson_interval_matches_scipy_bit_for_bit_at_95_percent():
    cases = [(k, n) for n in (100, 150, 200, 300, 500) for k in range(n + 1)]
    cases += [(k, n) for n in (1000, 2000) for k in (0, 1, n // 2, n - 1, n)]
    for k, n in cases:
        assert wilson_interval(k, n, Z_95) == _scipy_wilson(k, n, 0.95), (k, n)


def test_wilson_interval_at_five_standard_errors_matches_scipy():
    level = math.erf(5.0 / math.sqrt(2.0))
    for n in (100, 300, 1000):
        for k in range(0, n + 1, 7):
            lo, hi = wilson_interval(k, n, 5.0)
            ref_lo, ref_hi = _scipy_wilson(k, n, level)
            assert abs(lo - ref_lo) <= 1e-9 and abs(hi - ref_hi) <= 1e-9, (k, n)


@pytest.mark.parametrize("z", [Z_95, 5.0])
@pytest.mark.parametrize("n", [1, 100, 2000])
def test_wilson_interval_closed_at_the_ends(n, z):
    lo, hi = wilson_interval(0, n, z)
    assert lo == 0.0 and 0.0 < hi < 1.0
    lo, hi = wilson_interval(n, n, z)
    assert 0.0 < lo < 1.0 and hi == 1.0
