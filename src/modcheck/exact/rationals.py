"""Exact rational arithmetic with prime valuations and localizations.

Values are fractions.Fraction: valuations, extended gcd, membership in the
localization ℤ_(p) (denominator coprime to p), and the decomposition
x = p^m · q^(−n) · t/s used by the partial lifting construction.

An element of ℤ_(p) is a plain Fraction.  Its membership is checked
once, by the RElement or UElement that holds it (through ``_checked``),
and by ``divide``, whose quotient can leave the ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import (
    CertificateFailed,
    NonPrime,
    ShapeMismatch,
    UnresolvedDivision,
    WrongBranch,
    ZeroInput,
)


def as_fraction(x) -> Fraction:
    """Accept Fraction, int, or a 'num/den' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise ShapeMismatch(f"not an exact rational: {x!r}")


def valuation(x, prime: int) -> int:
    """Exponent of ``prime`` in x (negative when it divides the denominator).

    A prime below 2 raises NonPrime: the stripping loops below would
    never end at 1 and would divide by zero at 0."""
    if prime < 2:
        raise NonPrime(f"{prime} is not a prime")
    x = as_fraction(x)
    if x == 0:
        raise ZeroInput("valuation of zero is undefined")
    v = 0
    num = abs(x.numerator)
    while num % prime == 0:
        num //= prime
        v += 1
    den = x.denominator
    while den % prime == 0:
        den //= prime
        v -= 1
    return v


def xgcd(a: int, b: int) -> tuple:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def in_localization(x, prime: int) -> bool:
    """True when x ∈ ℤ_(prime), i.e. the denominator is coprime to prime."""
    return as_fraction(x).denominator % prime != 0


def _checked(x, prime: int) -> Fraction:
    """x as a Fraction, checked to lie in ℤ_(prime): the membership check
    that RElement and UElement run on every component they are built with."""
    if not isinstance(x, Fraction):
        x = as_fraction(x)
    if x.denominator % prime == 0:
        raise ShapeMismatch(f"{x} is not in Z_({prime}): denominator divisible by {prime}")
    return x


def divide(a, d, prime: int) -> Fraction:
    """Exact division a / d of ℤ_(prime) elements, inside ℤ_(prime).

    Raises UnresolvedDivision when the quotient leaves the ring, i.e.
    when the divisor's extra power of the prime cannot be cancelled.
    """
    a, d = as_fraction(a), as_fraction(d)
    if d == 0:
        raise UnresolvedDivision(f"{a} / 0 in Z_({prime})")
    quotient = a / d
    if quotient.denominator % prime == 0:
        raise UnresolvedDivision(f"{a} / {d} = {quotient} leaves Z_({prime})")
    return quotient


def decompose_x(x, p: int, q: int) -> tuple:
    """Split x ∈ ℤ_(p) with v_q(x) < 0 as (m, n, t, s): x = p^m · q^(−n) · t/s.

    m = v_p(x) ≥ 0, n = −v_q(x) ≥ 1, and t, s carry the remaining unit
    part with p, q dividing neither.
    """
    x = as_fraction(x)
    if x == 0:
        raise ZeroInput("cannot decompose zero")
    if not in_localization(x, p):
        raise WrongBranch(f"{x} is not in Z_({p})")
    vq = valuation(x, q)
    if vq >= 0:
        raise WrongBranch(f"v_{q}({x}) = {vq} >= 0: x is in Z_({q})")
    m = valuation(x, p)
    n = -vq
    rest = x / Fraction(p) ** m * Fraction(q) ** n
    t, s = rest.numerator, rest.denominator
    if gcd(t, p * q) != 1 or gcd(s, p * q) != 1:
        raise CertificateFailed(f"{t}/{s} is not a unit at {p} and {q}")
    if Fraction(p) ** m * Fraction(t, s) / Fraction(q) ** n != x:
        raise CertificateFailed(f"{p}^{m} * {q}^(-{n}) * {t}/{s} does not reconstruct {x}")
    return m, n, t, s
