"""Serialization helpers shared by reports and the command line.

Exact values travel as strings: integers in decimal, rationals as "p/q".
Decimal renderings carry 12 significant digits.  Counts here routinely
exceed Python's default integer-to-string conversion limit, so it is raised
once at import.
"""

from __future__ import annotations

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

DECIMAL_DIGITS = 12

if hasattr(sys, "set_int_max_str_digits"):
    if sys.get_int_max_str_digits() < 10_000_000:
        sys.set_int_max_str_digits(10_000_000)


def fraction_str(value: Fraction | int) -> str:
    """Exact rendering: "p/q" for non-integers, plain decimal digits otherwise."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def decimal_str(value: Fraction | int, digits: int = DECIMAL_DIGITS) -> str:
    """Round ``value`` to ``digits`` significant digits, as a decimal string."""
    f = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(f.numerator) / Decimal(f.denominator)
    return str(d)


def exact(name: str, value: Fraction | int) -> dict[str, str]:
    """The pair every report prints for an exact value: ``name`` as "p/q" and
    ``name``_decimal to 12 significant digits."""
    return {name: fraction_str(value), f"{name}_decimal": decimal_str(value)}
