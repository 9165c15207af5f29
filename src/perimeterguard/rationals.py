"""Helpers for exact rational arithmetic on top of fractions.Fraction.

All solver-facing quantities are Fractions; floats never enter here.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError

RationalLike = int | str | Fraction

# An optional minus, ASCII digits, then an optional nonzero "/den" or ".digits".
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")


def to_fraction(value: RationalLike, where: str = "value") -> Fraction:
    """Coerce an int, Fraction, or string to a Fraction.

    Strings hold an integer ("3"), a ratio ("5/4") or a decimal ("2.25"),
    each with an optional leading "-", in ASCII digits and nothing else: no
    "+", spaces, underscores, bare-dot decimals (".5", "5.") or exponent
    forms ("1e5"; a few characters of exponent can ask for an integer of
    unbounded size).  Floats are rejected too: callers that want a float
    quantized must do so explicitly (see perimeter.from_polygon).
    """
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ParseError(f"{where}: exponent forms are not accepted, got {value!r}")
        if not _RATIONAL.fullmatch(value):
            raise ParseError(f"{where}: cannot parse rational from {value!r}")
        try:
            return Fraction(value)
        except ValueError as exc:   # more digits than CPython converts
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: expected int or 'num/den' string, got {type(value).__name__}")


def format_fraction(value: Fraction) -> int | str:
    """Serialize a Fraction: integers stay ints, everything else is 'num/den'."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def common_denominator(values: Iterable[Fraction]) -> int:
    """lcm of all denominators; scaling by it makes every value an integer."""
    d = 1
    for v in values:
        d = math.lcm(d, v.denominator)
    return d


def ceil_fraction(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational in the closed interval [lo, hi].

    Stern-Brocot / continued-fraction descent; requires 0 <= lo <= hi.
    Among equal denominators the numerator is minimal, so the result is
    unique and deterministic.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    n = ceil_fraction(lo)
    if n <= hi:
        return Fraction(n)
    # Now floor(lo) == floor(hi) and the interval contains no integer.
    f = n - 1  # common integer part
    inner = simplest_between(1 / (hi - f), 1 / (lo - f))
    return f + 1 / inner


def scaled_ints(values: Sequence[Fraction], scale: int) -> list[int]:
    """Multiply exact rationals by a scale known to clear the denominators."""
    out = []
    for v in values:
        n = v.numerator * scale
        d = v.denominator
        q, r = divmod(n, d)
        if r:
            raise ValueError("scale does not clear denominator")
        out.append(q)
    return out
