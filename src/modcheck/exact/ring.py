"""The triangular localization ring R and its cyclic quotient module U.

R is the upper-triangular matrix ring [[ℤ_(p), ℚ], [0, ℤ_(q)]], written
as triples (a, b, c).  U = R/L for the right ideal L = [[0, ℤ_(q)],
[0, ℤ_(q)]]: a coset is pinned down by its (1,1) entry together with the
class of its (1,2) entry in ℚ/ℤ_(q), so U elements are pairs
(a, β) ∈ ℤ_(p) × ℚ/ℤ_(q) with the action

    (a, β) · (a', b', c') = (a·a', [a·b'] + β·c').

The generator ē = (1, 0) is the coset of the matrix unit e₁₁; U = ē·R.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..errors import ShapeMismatch
from .pruefer import PrueferElement
from .rationals import LocalizedRational, as_fraction

SAMPLE_SEED = 20240
SAMPLE_SIZE = 32


@dataclass(frozen=True)
class RElement:
    """(a, b, c) with a ∈ ℤ_(p), b ∈ ℚ, c ∈ ℤ_(q)."""

    p: int
    q: int
    a: LocalizedRational
    b: Fraction
    c: LocalizedRational

    def __post_init__(self):
        if self.a.prime != self.p or self.c.prime != self.q:
            raise ShapeMismatch("components localized at the wrong primes")
        object.__setattr__(self, "b", as_fraction(self.b))

    @classmethod
    def of(cls, p: int, q: int, a, b, c) -> "RElement":
        return cls(
            p, q, LocalizedRational(as_fraction(a), p), as_fraction(b),
            LocalizedRational(as_fraction(c), q),
        )

    @classmethod
    def one(cls, p: int, q: int) -> "RElement":
        return cls.of(p, q, 1, 0, 1)

    @classmethod
    def zero(cls, p: int, q: int) -> "RElement":
        return cls.of(p, q, 0, 0, 0)

    def __add__(self, other: "RElement") -> "RElement":
        self._check(other)
        return RElement(self.p, self.q, self.a + other.a, self.b + other.b, self.c + other.c)

    def __mul__(self, other: "RElement") -> "RElement":
        """Upper-triangular 2×2 matrix product."""
        self._check(other)
        return RElement(
            self.p,
            self.q,
            self.a * other.a,
            self.a.value * other.b + self.b * other.c.value,
            self.c * other.c,
        )

    def __neg__(self) -> "RElement":
        return RElement(self.p, self.q, -self.a, -self.b, -self.c)

    def _check(self, other):
        if (self.p, self.q) != (other.p, other.q):
            raise ShapeMismatch("ring elements over different prime pairs")


@dataclass(frozen=True)
class UElement:
    """A coset in U = R/L: (a, β) ∈ ℤ_(p) × ℚ/ℤ_(q)."""

    p: int
    q: int
    a: LocalizedRational
    beta: PrueferElement

    def __post_init__(self):
        if self.a.prime != self.p or self.beta.q != self.q:
            raise ShapeMismatch("components localized at the wrong primes")

    @classmethod
    def of(cls, p: int, q: int, a, beta_rational=0) -> "UElement":
        return cls(
            p, q, LocalizedRational(as_fraction(a), p),
            PrueferElement.from_rational(q, beta_rational),
        )

    @classmethod
    def generator(cls, p: int, q: int) -> "UElement":
        """ē: the coset of the matrix unit e₁₁."""
        return cls.of(p, q, 1, 0)

    @classmethod
    def zero(cls, p: int, q: int) -> "UElement":
        return cls.of(p, q, 0, 0)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.beta.is_zero()

    def __add__(self, other: "UElement") -> "UElement":
        self._check(other)
        return _uelement(self.p, self.q, self.a + other.a, self.beta + other.beta)

    def __sub__(self, other: "UElement") -> "UElement":
        self._check(other)
        return _uelement(self.p, self.q, self.a - other.a, self.beta - other.beta)

    def __neg__(self) -> "UElement":
        return _uelement(self.p, self.q, -self.a, -self.beta)

    def scale(self, f) -> "UElement":
        """f·(a, β) = (f·a, [f·β]); ShapeMismatch when f·a leaves ℤ_(p) or
        f carries a q-denominator onto a nonzero β."""
        return _uelement(self.p, self.q, self.a * f, self.beta.scale(f))

    def act(self, r: RElement) -> "UElement":
        """Right action (a, β)·(a', b', c') = (a·a', [a·b'] + β·c')."""
        if (self.p, self.q) != (r.p, r.q):
            raise ShapeMismatch("acting by an element of a different ring")
        new_a = self.a * r.a
        carried = PrueferElement.from_rational(self.q, self.a.value * r.b)
        return _uelement(self.p, self.q, new_a, carried + self.beta.scale(r.c))

    def _check(self, other):
        if (self.p, self.q) != (other.p, other.q):
            raise ShapeMismatch("module elements over different prime pairs")


def _uelement(p: int, q: int, a: LocalizedRational, beta: PrueferElement) -> UElement:
    """A UElement built without __post_init__, for the results of UElement
    operations: their components come from the ℤ_(p) and ℚ/ℤ_(q)
    operations of elements already checked to share (p, q), so they sit
    at the right primes by construction.  A raw rational operand (as in
    ``scale``) is validated by those component operations."""
    obj = object.__new__(UElement)
    fields = obj.__dict__
    fields["p"] = p
    fields["q"] = q
    fields["a"] = a
    fields["beta"] = beta
    return obj


# The samples are pure in (p, q, seed) and hold frozen values, so a
# small bounded memo shares them across every case that asks again.
@lru_cache(maxsize=32)
def sample_relements(p: int, q: int, seed: int = SAMPLE_SEED) -> tuple:
    """Deterministic R sample spanning a range of p- and q-valuations."""
    rng = random.Random(seed)
    units = (1, -1, 5, -5, 7, 11, -7)
    out = [RElement.one(p, q), RElement.zero(p, q)]
    while len(out) < SAMPLE_SIZE:
        ua, ub, uc = (rng.choice(units) for _ in range(3))
        a = Fraction(p ** rng.randint(0, 3) * ua)
        if rng.random() < 0.5:
            a /= q ** rng.randint(0, 2)
        b = Fraction(ub * p ** rng.randint(0, 2), q ** rng.randint(0, 3))
        c = Fraction(q ** rng.randint(0, 3) * uc)
        if rng.random() < 0.5:
            c /= p ** rng.randint(0, 2)
        out.append(RElement.of(p, q, a, b, c))
    return tuple(out)


@lru_cache(maxsize=32)
def sample_uelements(p: int, q: int, seed: int = SAMPLE_SEED) -> tuple:
    """Deterministic U sample spanning a range of p- and q-valuations."""
    rng = random.Random(seed + 1)
    units = (1, -1, 5, -5, 7, 11, -7)
    out = [UElement.generator(p, q), UElement.zero(p, q)]
    while len(out) < SAMPLE_SIZE:
        a = Fraction(p ** rng.randint(0, 3) * rng.choice(units))
        if rng.random() < 0.5:
            a /= q ** rng.randint(0, 2)
        beta = Fraction(rng.randint(0, q**3 - 1), q ** rng.randint(0, 3))
        out.append(UElement.of(p, q, a, beta))
    return tuple(out)
