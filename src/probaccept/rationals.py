"""The package's one reader of an exact rational.

A leaf module: it imports nothing from the package, so a command that
reads a rational (``stat binom``'s options, ``lottery``'s weights) loads
this module, not the worlds and formula machinery around it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

__all__ = ["as_fraction"]

# The one grammar of a rational read from text: ``p/q`` or an integer in
# ASCII digits, with optional ASCII spaces around it and the slash; no
# decimal point, exponent, underscore or other script's digits or spaces.
_RATIONAL_RE = re.compile(r"\s*(?P<p>[+-]?\d+)(?:\s*/\s*(?P<q>\d+))?\s*", re.ASCII)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and ``p/q``-or-integer strings in ASCII digits
    (``_RATIONAL_RE``): the package's one reader of a rational, whatever
    its source (an argument, a file's weight or a CLI option).  Floats are
    rejected because they silently corrupt boundary comparisons.  A zero
    denominator raises ``ValueError`` "zero denominator in '1/0'" (for the
    text ``1/0``), and any other value it cannot read, a bool included,
    "expected a rational p/q or integer, got ...": one message per fault."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"refusing inexact weight {value!r}; use p/q rationals")
    if isinstance(value, int) and not isinstance(value, bool):  # True is no number here
        return Fraction(value)
    if isinstance(value, str) and (m := _RATIONAL_RE.fullmatch(value)):
        if m["q"] is not None and int(m["q"]) == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(int(m["p"]), int(m["q"] or 1))
    raise ValueError(f"expected a rational p/q or integer, got {value!r}")


def _past_digit_limit(base: int, exponent: int = 1) -> int:
    """The interpreter's digit limit when ``base**exponent`` has more
    digits than it allows, else 0, also when there is no limit.  Bit
    lengths settle most calls: ``10**digits``, and then the power, are
    built only when they leave the answer open."""
    digits = sys.get_int_max_str_digits()
    # base**exponent lies in [2**low, 2**high); 10**digits has more
    # than 3 * digits bits
    high = base.bit_length() * exponent
    if not digits or high <= 3 * digits:
        return 0
    bound = 10**digits
    low = high - exponent
    return digits if low >= bound.bit_length() or base**exponent >= bound else 0
