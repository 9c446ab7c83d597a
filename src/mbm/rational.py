"""Exact rational arithmetic.

Every quantity in this package (shares, money, bids, prices, probabilities,
utilities) is an exact rational in canonical reduced form: positive
denominator, gcd(|numerator|, denominator) = 1. There is one exact type,
``fractions.Fraction``; the hot paths work on its integer parts, and so does
the one printer, ``_lowest_str``, which has no digit limit. ``rational_str``
and ``decimal_approx`` read a rational's integer parts; ``ratio_str`` and
``ratio_pair`` take them as ints.

Floats are rejected everywhere: a binary float would smuggle rounding into
arithmetic that the rest of the package treats as exact. Plain ASCII numerals
("5", "0.3", "3/10") are read on integers, other text through ``Fraction``.
"""

from __future__ import annotations

import math
import numbers
import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from decimal import DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction

from .errors import InvalidNumeral, NumeralOutOfBounds

Rational = Fraction
# the name ``mbm --version`` and the benchmark's metadata print
BACKEND = "fractions"
# (numerator, denominator) of a rational, denominator positive
as_ratio = Fraction.as_integer_ratio

ZERO = Rational(0)
ONE = Rational(1)

# numeral text bounds, so that a parsed numeral has at most about 2,000 digits
MAX_NUMERAL_CHARS = 1000
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)
# ASCII p, p.q or p/q (at most 801 characters); p/0 is left to Fraction's error
_PLAIN = re.compile(r"([0-9]{1,400})(?:([./])([0-9]{1,400}))?")


def parse_ratio(text: str) -> tuple:
    """(p, q), q positive and not reduced, with p / q the value of numeral ``text``:
    plain ASCII "p", "p.q" and "p/q" read on integers, other text through
    ``Fraction``. Refusals are ``rational``'s."""
    stripped = text.strip()
    plain = _PLAIN.fullmatch(stripped)
    if plain:
        p, sep, q = plain.groups("")
        den = int(q) if sep == "/" else 10 ** len(q)
        if den:
            return (int(p + q) if sep == "." else int(p)), den
    if len(stripped) > MAX_NUMERAL_CHARS:
        raise NumeralOutOfBounds(f"numeral longer than {MAX_NUMERAL_CHARS} characters")
    exponent = _EXPONENT.search(stripped)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise NumeralOutOfBounds(f"exponent {exponent[1]} outside -{MAX_EXPONENT}..{MAX_EXPONENT}")
    try:
        return Fraction(stripped).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidNumeral(f"not a rational literal: {text!r}") from exc


def rational(value) -> Rational:
    """Coerce ``value`` to an exact rational.

    Accepts ints, rationals (any ``numbers.Rational``), and strings in fraction
    ("3/10"), integer ("5"), or decimal ("0.3", "2.5e-3") notation, read by
    ``parse_ratio``; decimal text converts exactly via powers of ten. Floats
    raise TypeError. Text longer than ``MAX_NUMERAL_CHARS`` or with a
    decimal exponent beyond ``MAX_EXPONENT`` raises NumeralOutOfBounds, and
    other text that is not a rational literal InvalidNumeral; both are
    ValueErrors. A value that is already a ``Rational`` comes back as it is.
    """
    if type(value) is Rational:
        return value
    if isinstance(value, str):
        return Rational(*parse_ratio(value))
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: floats are inexact, pass a string or rational"
        )
    if isinstance(value, numbers.Rational):
        return Rational(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rational_str(value) -> str:
    """Canonical lossless text form: "p/q", or "p" when q = 1."""
    return _lowest_str(*as_ratio(value))


def ratio_str(p: int, q: int) -> str:
    """``rational_str(Rational(p, q))`` for ints p and q > 0, with no rational made."""
    g = math.gcd(p, q)
    return _lowest_str(p // g, q // g)


def ratio_pair(p: int, q: int) -> tuple:
    """(``ratio_str(p, q)``, ``decimal_approx`` of p / q) for ints p and q > 0,
    both off one gcd: the division takes the reduced ints."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return _lowest_str(p, q), _divide(p, q, 20)


def _lowest_str(p: int, q: int) -> str:
    """"p/q", or "p" when q = 1, for any int p and q > 0 in lowest terms. Past
    ``sys.int_max_str_digits``, where ``str`` refuses, the digits come from
    ``Decimal``, which converts an int exactly without that limit."""
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:
        p, q = (format(Decimal(x), "f") for x in (p, q))
        return p if q == "1" else f"{p}/{q}"


def _approx_context(digits: int) -> Context:
    return Context(
        prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
        clamp=0, traps=[InvalidOperation, DivisionByZero, Overflow], flags=[],
    )


# one per precision the reports print; a division only sets flags, which no result reads
_APPROX_CONTEXTS = {digits: _approx_context(digits) for digits in (20, 6)}


def decimal_approx(value, digits: int = 20) -> str:
    """Decimal approximation to ``digits`` significant digits.

    For human eyes only; the "p/q" form is the value of record. The division
    rounds half to even in a private context with every field set, kept per
    precision the reports print (20, 6), so neither the caller's context nor
    ``decimal.DefaultContext`` can change the digits or raise.
    """
    return _divide(value.numerator, value.denominator, digits)


def _divide(p: int, q: int, digits: int) -> str:
    ctx = _APPROX_CONTEXTS.get(digits) or _approx_context(digits)
    return ctx.to_sci_string(ctx.divide(Decimal(p), Decimal(q)))
