"""Canonical arithmetic in the Prüfer quotient ℚ/ℤ_(q).

Every class has a unique representative k/q^n with n ≥ 0, 0 ≤ k < q^n
and q ∤ k unless k = 0 (in which case n = 0).  Addition, negation, and
multiplication by elements of ℤ_(q) work on the stored integers k mod q^n
and cancel factors of q, so equality is plain field-by-field comparison.
Those results come out of ``_reduced`` canonical by construction and skip
the constructor's check; the public constructor still validates.  A
scalar of ℤ_(q) is a plain Fraction or int, and ``scale`` refuses one
with a q-denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import NonPrime, ShapeMismatch
from .rationals import as_fraction


def _reduced(q: int, n: int, k: int) -> "PrueferElement":
    """The class of k/q^n: reduce k mod q^n, then cancel common factors of q."""
    k %= q**n
    while k and k % q == 0:
        k //= q
        n -= 1
    if not k:
        n = 0
    obj = object.__new__(PrueferElement)
    fields = obj.__dict__
    fields["q"] = q
    fields["n"] = n
    fields["k"] = k
    return obj


@dataclass(frozen=True)
class PrueferElement:
    """A class in ℚ/ℤ_(q), stored as the canonical k/q^n representative."""

    q: int
    n: int
    k: int

    def __post_init__(self):
        ok = (self.n == 0 and self.k == 0) or (
            self.n > 0 and 0 < self.k < self.q**self.n and self.k % self.q != 0
        )
        if not ok:
            raise ShapeMismatch(f"{self.k}/{self.q}^{self.n} is not canonical")

    @classmethod
    def from_rational(cls, q: int, x) -> "PrueferElement":
        """The class of x; the only place a rational becomes a class.
        A q below 2 raises NonPrime, as ``valuation`` does."""
        if q < 2:
            raise NonPrime(f"{q} is not a prime")
        x = as_fraction(x)
        den, n = x.denominator, 0
        while den % q == 0:
            den //= q
            n += 1
        # x = num / (den·q^n) with gcd(den, q) = 1, so the class only
        # depends on num·den⁻¹ mod q^n.
        return _reduced(q, n, x.numerator * pow(den, -1, q**n))

    @classmethod
    def zero(cls, q: int) -> "PrueferElement":
        return cls(q, 0, 0)

    def representative(self) -> Fraction:
        return Fraction(self.k, self.q**self.n)

    def is_zero(self) -> bool:
        return self.n == 0

    def order(self) -> int:
        """Additive order q^n of the class."""
        return self.q**self.n

    def __add__(self, other: "PrueferElement") -> "PrueferElement":
        if self.q != other.q:
            raise ShapeMismatch("Prüfer elements at different primes")
        n = max(self.n, other.n)
        q = self.q
        return _reduced(q, n, self.k * q ** (n - self.n) + other.k * q ** (n - other.n))

    def __sub__(self, other: "PrueferElement") -> "PrueferElement":
        return self + (-other)

    def __neg__(self) -> "PrueferElement":
        return _reduced(self.q, self.n, -self.k)

    def scale(self, c) -> "PrueferElement":
        """Multiply by c ∈ ℤ_(q); well defined since c has no q-denominator."""
        c = as_fraction(c)
        if self.is_zero():
            return self
        if c.denominator % self.q == 0:
            raise ShapeMismatch(f"scaling by {c} is not defined on Q/Z_({self.q})")
        inverse = pow(c.denominator, -1, self.q**self.n)
        return _reduced(self.q, self.n, self.k * c.numerator * inverse)
