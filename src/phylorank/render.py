"""Serialization helpers shared by reports and the command line.

Exact values travel as strings, as ``str(Fraction(value))`` writes them:
integers in decimal, other rationals as "p/q".  Decimal renderings carry
``DECIMAL_DIGITS`` (12) significant digits.  Counts here routinely exceed
Python's default integer-to-string conversion limit, so it is raised once at
import.
"""

from __future__ import annotations

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

DECIMAL_DIGITS = 12

if hasattr(sys, "set_int_max_str_digits"):
    if sys.get_int_max_str_digits() < 10_000_000:
        sys.set_int_max_str_digits(10_000_000)


def decimal_str(value: Fraction | int) -> str:
    """Round ``value`` to ``DECIMAL_DIGITS`` significant digits, as a decimal string."""
    f = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        d = Decimal(f.numerator) / Decimal(f.denominator)
    return str(d)


def exact(name: str, value: Fraction | int) -> dict[str, str]:
    """The pair every report prints for an exact value: ``name`` as "p/q" and
    ``name``_decimal to 12 significant digits."""
    return {name: str(Fraction(value)), f"{name}_decimal": decimal_str(value)}
