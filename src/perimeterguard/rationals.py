"""The literals, integers, argument classes and sequences the API accepts.

to_fraction reads an int, a Fraction or a string in a narrow ASCII syntax, never a float;
arithmetic on them is Fraction's and the math module's.  Its callers: Perimeter (lengths),
build_polygon_spec (coordinates), ratio_certificate (objective), and documents (budget, the
objective, each arc's start and length).  to_threshold reads an lr ratio, which must be
positive: documents' ell, the lr decision functions, coverage_table and the oracles.
check_ints is the integer rule of FleetLR, TypesMC, gen_random, the reduction specs,
documents, presolve, sol, the segment, allocation and perimeter indices, run_suite.
check_class is the class rule of the solvers' and oracles' fleet, types, per, lookup and
table, the reduction generators' and edge_lengths' spec, documents' and validate's documents
and solutions, perimeter_list's elements and build_polygon_spec's flags.  check_seq is the
sequence rule of Perimeter, build_polygon_spec, build_fleet_lr, build_types_mc, FleetLR,
TypesMC, the reduction specs, the allocation index, perimeter_list and time_cell."""
from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Set
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


def check_class(value, cls: type, where: str):
    """Return value if it is a cls, else raise ValidationError naming `where`."""
    if not isinstance(value, cls):
        a = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{where}: expected {a} {cls.__name__}, got {type(value).__name__}")
    return value


def check_seq(value, where: str, error=ValidationError, size: int | None = None, k=None) -> tuple:
    """Return value as a tuple of `size` items (None: any) if it is any iterable but a str,
    bytes, bytearray, mapping or set, else raise `error`.  A tuple or list skips the ABC tests,
    and "{k}" in `where` becomes k only on failure, as in check_ints, so a column of pairs is cheap."""
    if type(value) is not tuple:
        if type(value) is not list and (isinstance(value, (str, bytes, bytearray, Mapping, Set))
                                        or not isinstance(value, Iterable)):
            raise error(f"{where.format(k=k)}: expected a sequence, got {type(value).__name__}")
        value = tuple(value)
    if size is not None and len(value) != size:
        raise error(f"{where.format(k=k)}: expected {size} items, got {len(value)}")
    return value
