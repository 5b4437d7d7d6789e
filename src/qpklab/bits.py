"""Bitstring helpers shared across the package.

Bitstrings are plain ``str`` over ``'0'``/``'1'``. The integer value of a
bitstring is its big-endian reading, ``int(s, 2)``. When a register holds a
bitstring inside a statevector, the register's least significant bit sits at
the register's wire offset; qubit 0 is the least significant bit of the basis
index (little-endian, normative across the package).
"""

from __future__ import annotations

import numpy as np


def check_bits(s: str, width: int | None = None) -> str:
    if not isinstance(s, str) or s.count("0") + s.count("1") != len(s):
        raise ValueError(f"not a bitstring: {s!r}")
    if width is not None and len(s) != width:
        raise ValueError(f"bitstring {s!r} has length {len(s)}, expected {width}")
    return s


def bits_to_int(s: str) -> int:
    check_bits(s)
    return int(s, 2) if s else 0


def int_to_bits(v: int, width: int) -> str:
    if v < 0 or v >= (1 << width):
        raise ValueError(f"value {v} does not fit in {width} bits")
    return format(v, f"0{width}b") if width else ""


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ValueError("xor of bitstrings with different lengths")
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b") if a else ""


_BIT_CHAR_OF = bytes.maketrans(b"\x00\x01", b"01")


def random_bits(width: int, rng: np.random.Generator) -> str:
    draw = rng.integers(0, 2, size=width)
    return draw.astype(np.uint8).tobytes().translate(_BIT_CHAR_OF).decode("ascii")


def pack_bits(s: str) -> bytes:
    """Pack a bitstring MSB-first into bytes, zero-padded at the tail."""
    check_bits(s)
    return (int(s or "0", 2) << (-len(s) % 8)).to_bytes((len(s) + 7) // 8, "big")


def unpack_bits(data: bytes, width: int) -> str:
    """The first `width` bits of `data`, read MSB-first (the inverse of `pack_bits`)."""
    if not 0 <= width <= 8 * len(data):
        raise ValueError(f"cannot unpack {width} bits from {len(data)} bytes")
    value = int.from_bytes(data, "big") >> (8 * len(data) - width)
    return bin(value)[2:].zfill(width) if width else ""
