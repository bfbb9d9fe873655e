"""Exact rational arithmetic with prime valuations and localizations.

Values are fractions.Fraction: valuations, extended gcd, membership in the
localization ℤ_(p) (denominator coprime to p), and the decomposition
x = p^m · q^(−n) · t/s used by the partial lifting construction.

Membership in ℤ_(p) is validated where a rational enters: the public
LocalizedRational constructor, every operation with a raw rational
operand (``a * Fraction``), and ``divide``, whose quotient can leave the
ring.  ℤ_(p) is closed under +, − and ×, so sums, differences, products
and negatives of two LocalizedRationals at the same prime skip that check
through ``_localized``; mixing primes still raises ShapeMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ..errors import (
    CertificateFailed,
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
    """Exponent of ``prime`` in x (negative when it divides the denominator)."""
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


@dataclass(frozen=True)
class LocalizedRational:
    """A rational constrained to ℤ_(prime)."""

    value: Fraction
    prime: int

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if self.value.denominator % self.prime == 0:
            raise ShapeMismatch(
                f"{self.value} is not in Z_({self.prime}): denominator divisible by {self.prime}"
            )

    def __add__(self, other):
        if isinstance(other, LocalizedRational):
            return _localized(self.value + self._same_prime(other), self.prime)
        return LocalizedRational(self.value + as_fraction(other), self.prime)

    def __sub__(self, other):
        if isinstance(other, LocalizedRational):
            return _localized(self.value - self._same_prime(other), self.prime)
        return LocalizedRational(self.value - as_fraction(other), self.prime)

    def __neg__(self):
        return _localized(-self.value, self.prime)

    def __mul__(self, other):
        if isinstance(other, LocalizedRational):
            return _localized(self.value * self._same_prime(other), self.prime)
        return LocalizedRational(self.value * as_fraction(other), self.prime)

    def _same_prime(self, other: "LocalizedRational") -> Fraction:
        if other.prime != self.prime:
            raise ShapeMismatch("localizations at different primes")
        return other.value

    def _coerce(self, other) -> Fraction:
        if isinstance(other, LocalizedRational):
            return self._same_prime(other)
        return as_fraction(other)

    def divide(self, other) -> "LocalizedRational":
        """Exact division inside ℤ_(prime).

        Raises UnresolvedDivision when the quotient leaves the ring, i.e.
        when the divisor's extra power of the prime cannot be cancelled.
        """
        d = self._coerce(other)
        if d == 0:
            raise UnresolvedDivision(f"{self.value} / 0 in Z_({self.prime})")
        quotient = self.value / d
        if quotient.denominator % self.prime == 0:
            raise UnresolvedDivision(
                f"{self.value} / {d} = {quotient} leaves Z_({self.prime})"
            )
        return LocalizedRational(quotient, self.prime)

    def is_unit(self) -> bool:
        return self.value != 0 and valuation(self.value, self.prime) == 0

    def is_zero(self) -> bool:
        return self.value == 0


def _localized(value: Fraction, prime: int) -> LocalizedRational:
    """A LocalizedRational built without __post_init__, for a value already
    known to be a Fraction in ℤ_(prime): the ring's own +, − and ×."""
    obj = object.__new__(LocalizedRational)
    fields = obj.__dict__
    fields["value"] = value
    fields["prime"] = prime
    return obj


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
