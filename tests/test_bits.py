import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpklab.bits import (
    bits_to_int,
    check_bits,
    int_to_bits,
    pack_bits,
    random_bits,
    unpack_bits,
    xor_bits,
)

bitstrings = st.text(alphabet="01", min_size=0, max_size=40)


def test_check_bits_accepts_and_rejects():
    assert check_bits("0101") == "0101"
    assert check_bits("", None) == ""
    with pytest.raises(ValueError):
        check_bits("012")
    with pytest.raises(ValueError):
        check_bits(b"01")
    with pytest.raises(ValueError):
        check_bits("01", 3)


def test_int_round_trip():
    assert bits_to_int("101") == 5
    assert int_to_bits(5, 3) == "101"
    assert int_to_bits(0, 0) == ""
    with pytest.raises(ValueError):
        int_to_bits(8, 3)
    with pytest.raises(ValueError):
        int_to_bits(-1, 3)


@given(bitstrings)
def test_bits_int_inverse(s):
    assert int_to_bits(bits_to_int(s), len(s)) == s


def test_xor():
    assert xor_bits("1100", "1010") == "0110"
    with pytest.raises(ValueError):
        xor_bits("10", "100")


@given(bitstrings)
def test_xor_self_annihilates(s):
    assert xor_bits(s, s) == "0" * len(s)


def test_random_bits_width_and_determinism():
    a = random_bits(32, np.random.default_rng(7))
    b = random_bits(32, np.random.default_rng(7))
    assert len(a) == 32 and set(a) <= {"0", "1"}
    assert a == b


@given(bitstrings)
def test_pack_unpack_round_trip(s):
    assert unpack_bits(pack_bits(s), len(s)) == s


def test_unpack_short_buffer():
    with pytest.raises(ValueError):
        unpack_bits(b"\x00", 9)


# --- the char-wise helpers the integer-native ones replaced, kept as references


def reference_xor_bits(a, b):
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def reference_random_bits(width, rng):
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=width))


def reference_pack_bits(s):
    padded = s + "0" * (-len(s) % 8)
    return bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))


def reference_unpack_bits(data, width):
    return "".join(format(byte, "08b") for byte in data)[:width]


def equal_length_pair(n):
    same_width = st.text(alphabet="01", min_size=n, max_size=n)
    return st.tuples(same_width, same_width)


@given(st.integers(0, 300).flatmap(equal_length_pair))
def test_xor_matches_reference(pair):
    assert xor_bits(*pair) == reference_xor_bits(*pair)


@given(st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_random_bits_match_reference_and_draw_the_same_numbers(width, seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_bits(width, rng) == reference_random_bits(width, rng_ref)
    assert rng.random() == rng_ref.random()


@given(st.text(alphabet="01", min_size=0, max_size=300))
def test_pack_matches_reference(s):
    assert pack_bits(s) == reference_pack_bits(s)


@given(st.binary(max_size=40), st.integers(0, 320))
def test_unpack_matches_reference(data, width):
    if width > 8 * len(data):
        with pytest.raises(ValueError):
            unpack_bits(data, width)
    else:
        assert unpack_bits(data, width) == reference_unpack_bits(data, width)


def reference_check_bits(s):
    return isinstance(s, str) and set(s) <= {"0", "1"}


# with the characters int(s, 2) tolerates, which the count test must still reject
@given(st.text(alphabet="01_ +-b2", max_size=80))
def test_check_bits_matches_the_set_definition(s):
    if reference_check_bits(s):
        assert check_bits(s) == s
    else:
        with pytest.raises(ValueError, match="not a bitstring"):
            check_bits(s)


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 2**32 - 1))
@example(0, 0, 1)
@example(7, 0, 1)
@example(3, 5, 1)
def test_two_draws_equal_one_draw_of_their_total_width(a, b, seed):
    # encryption draws all its decoy proofs at once and cuts them; this pins
    # that numpy's int64 draws concatenate, later rng state included
    split, whole = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_bits(a, split) + random_bits(b, split) == random_bits(a + b, whole)
    assert split.bit_generator.state == whole.bit_generator.state
