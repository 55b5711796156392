"""precision.nstr against an exact reference: the digits are rounded
half-up from the exact real with Fractions and integer square roots, and
mpmath.nstr serves only for the layout of those digits.

mpmath cannot give the digits itself: it rounds in too few bits, so a real
just above a decimal half can come out rounded down.  45/999999917260 =
4.50000037...e-11 gives '4.0e-11' from mpmath.nstr at n = 1; the half-up
rounding is '5.0e-11'."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspnorm.precision import nstr

# Decimal approximates the real to this many digits; with n <= 60 kept,
# its rounding is exact unless the real is within 10^-60 of a tie.
REF_DPS = 120

digits = st.integers(1, 60)
shifts = st.integers(-80, 80)
signs = st.sampled_from((1, -1))


def _off_2_and_5(den: int) -> int:
    for p in (2, 5):
        while den % p == 0:
            den //= p
    return den


def _reference(sign: int, square: Fraction, n: int) -> str:
    """The layout of sign * sqrt(square) rounded half-up to n significant
    digits.  The digits are exact: with 100^e <= square < 100^(e + 1) and
    k = e - n + 1, they are floor(sqrt(X) + 1/2) = (isqrt(floor(4 X)) + 1) // 2
    for X = square / 100^k.  mpmath then lays out the real m * 10^k, which
    already has n digits, so its rounding cannot move them."""
    e = (len(str(square.numerator)) - len(str(square.denominator)) + 1) // 2 + 1
    while square < Fraction(100) ** e:
        e -= 1
    k = e - n + 1
    x4 = 4 * square / Fraction(100) ** k
    m = (isqrt(x4.numerator // x4.denominator) + 1) // 2
    with mpmath.workdps(REF_DPS):
        return mpmath.nstr(sign * mpmath.mpf(f"{m}e{k}"), n)


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 10**6), shifts, signs, digits)
def test_nstr_matches_mpmath_on_square_roots(k, t, sign, n):
    # sqrt(k) * 10^t for a non-square k is irrational, so never a decimal tie
    assume(isqrt(k) ** 2 != k)
    with localcontext(Context(prec=REF_DPS)):
        dec = sign * Decimal(k).sqrt().scaleb(t)
    assert nstr(dec, n) == _reference(sign, k * Fraction(100) ** t, n)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**12), st.integers(1, 10**12), shifts, signs, digits)
@example(45, 999_999_917_260, 0, 1, 1)  # 4.50000037e-11: mpmath.nstr gives '4.0e-11'
def test_nstr_matches_mpmath_on_quotients(p, q, t, sign, n):
    # a reduced denominator with a prime factor other than 2 and 5 gives a
    # non-terminating expansion, so never a decimal tie
    exact = sign * Fraction(p, q) * Fraction(10) ** t
    assume(_off_2_and_5(exact.denominator) > 1)
    with localcontext(Context(prec=REF_DPS)):
        dec = Decimal(exact.numerator) / exact.denominator
    assert nstr(dec, n) == _reference(sign, exact * exact, n)


@pytest.mark.parametrize("text, n, expected", [
    ("0", 15, "0.0"),
    ("1e50", 15, "1.0e+50"),
    ("1.2345e-5", 15, "1.2345e-5"),  # e = -5 = min(-(15 // 3), -5): exponent form
    ("1.2345e-4", 15, "0.00012345"),
    ("1.5e-20", 60, "1.5e-20"),  # e = -20 = -(60 // 3)
    ("1.5e-19", 60, "0.00000000000000000015"),
    ("123", 3, "123.0"),  # e = n - 1: fixed point
    ("1230", 3, "1.23e+3"),  # e = n
    ("99.96", 3, "100.0"),  # rounding carries into a new leading digit
    ("-999.96", 4, "-1000.0"),
    ("0.125", 2, "0.13"),  # exact binary ties round half-up in both
    ("-2.5", 1, "-3.0"),
    ("1.875", 3, "1.88"),
])
def test_nstr_layout(text, n, expected):
    assert nstr(Decimal(text), n) == expected
    with mpmath.workdps(REF_DPS):
        assert mpmath.nstr(mpmath.mpf(text), n) == expected
