"""The rational and integer literals that documents and the API accept.

An int, a Fraction, or a string in a narrow ASCII syntax (to_fraction);
never a float.  Arithmetic on them is Fraction's and the math module's.
to_fraction's callers: Perimeter (lengths), build_polygon_spec
(coordinates), ratio_certificate (objective), and documents (budget, the
objective, each arc's start and length).  to_threshold reads an lr
ratio, which must be positive: documents' ell, the lr decision
functions, coverage_table and the oracles.  check_ints is the integer
rule of FleetLR, TypesMC, gen_random, the reduction specs, documents,
presolve, sol, the segment, allocation and perimeter indices, run_suite.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import GuardingError, ParseError, ValidationError

RationalLike = int | str | Fraction

# An optional minus, ASCII digits, then an optional nonzero "/den" or ".digits".
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")


def to_fraction(value: RationalLike, where: str = "value") -> Fraction:
    """Coerce an int, Fraction, or string to a Fraction; a Fraction comes back unchanged.

    Strings hold an integer ("3"), a ratio ("5/4") or a decimal ("2.25"),
    each with an optional leading "-", in ASCII digits and nothing else: no
    "+", spaces, underscores, bare-dot decimals (".5", "5.") or exponent
    forms ("1e5"; a few characters of exponent can ask for an integer of
    unbounded size).  Floats are rejected too, since 0.1 is not 1/10.
    """
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f'{where}: floats are inexact, write the value as a string like "5/2"')
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


def to_threshold(value: RationalLike, where: str) -> Fraction:
    """to_fraction for a ratio threshold, refusing one that is not positive."""
    ratio = to_fraction(value, where)
    if ratio <= 0:
        raise ValidationError(f"{where}: threshold must be positive")
    return ratio


def check_ints(values, where: str, least: int | None, error: type[GuardingError],
               most: int | None = None) -> None:
    """Raise `error` unless every value is an int, not a bool, in least..most (None: open).

    "{k}" in `where` becomes the failing value's position, formatted only on
    failure, so a whole column costs one call.  An int subclass counts as
    not an int, which refuses a bool with one type test per value.
    """
    for k, v in enumerate(values):
        if type(v) is not int or least is not None and v < least or most is not None and v > most:
            if most is not None and type(v) is int:
                raise error(f"{where.format(k=k)} {v} outside {least}..{most}")
            bound = "" if least is None else f" >= {least}"
            raise error(f"{where.format(k=k)} must be an integer{bound}, got {v!r}")
