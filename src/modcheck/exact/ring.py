"""The triangular localization ring R and its cyclic quotient module U.

R is the upper-triangular matrix ring [[ℤ_(p), ℚ], [0, ℤ_(q)]], written
as triples (a, b, c).  U = R/L for the right ideal L = [[0, ℤ_(q)],
[0, ℤ_(q)]]: a coset is pinned down by its (1,1) entry together with the
class of its (1,2) entry in ℚ/ℤ_(q), so U elements are pairs
(a, β) ∈ ℤ_(p) × ℚ/ℤ_(q) with the action

    (a, β) · (a', b', c') = (a·a', [a·b'] + β·c').

The generator ē = (1, 0) is the coset of the matrix unit e₁₁; U = ē·R.

The ℤ_(p) and ℤ_(q) entries are plain Fractions.  The RElement and
UElement constructors coerce them and check their membership, and every
operation builds its result through those constructors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..errors import NonPrime, ShapeMismatch
from ..field import _is_prime
from .pruefer import PrueferElement
from .rationals import _checked, as_fraction

SAMPLE_SEED = 20240
SAMPLE_SIZE = 32


@dataclass(frozen=True)
class RElement:
    """(a, b, c) with a ∈ ℤ_(p), b ∈ ℚ, c ∈ ℤ_(q), all Fractions."""

    p: int
    q: int
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _checked(self.a, self.p))
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "c", _checked(self.c, self.q))

    @classmethod
    def one(cls, p: int, q: int) -> "RElement":
        return cls(p, q, 1, 0, 1)

    @classmethod
    def zero(cls, p: int, q: int) -> "RElement":
        return cls(p, q, 0, 0, 0)

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
            self.a * other.b + self.b * other.c,
            self.c * other.c,
        )

    def __neg__(self) -> "RElement":
        return RElement(self.p, self.q, -self.a, -self.b, -self.c)

    def _check(self, other):
        if (self.p, self.q) != (other.p, other.q):
            raise ShapeMismatch("ring elements over different prime pairs")


@dataclass(frozen=True)
class UElement:
    """A coset in U = R/L: (a, β) with a ∈ ℤ_(p) a Fraction, β ∈ ℚ/ℤ_(q)."""

    p: int
    q: int
    a: Fraction
    beta: PrueferElement

    def __post_init__(self):
        object.__setattr__(self, "a", _checked(self.a, self.p))
        if self.beta.q != self.q:
            raise ShapeMismatch("components localized at the wrong primes")

    @classmethod
    def of(cls, p: int, q: int, a, beta_rational=0) -> "UElement":
        """(a, [β]): the class of the rational β in ℚ/ℤ_(q)."""
        return cls(p, q, a, PrueferElement.from_rational(q, beta_rational))

    @classmethod
    def generator(cls, p: int, q: int) -> "UElement":
        """ē: the coset of the matrix unit e₁₁."""
        return cls.of(p, q, 1, 0)

    @classmethod
    def zero(cls, p: int, q: int) -> "UElement":
        return cls.of(p, q, 0, 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.beta.is_zero()

    def __add__(self, other: "UElement") -> "UElement":
        self._check(other)
        return UElement(self.p, self.q, self.a + other.a, self.beta + other.beta)

    def __sub__(self, other: "UElement") -> "UElement":
        self._check(other)
        return UElement(self.p, self.q, self.a - other.a, self.beta - other.beta)

    def __neg__(self) -> "UElement":
        return UElement(self.p, self.q, -self.a, -self.beta)

    def scale(self, f) -> "UElement":
        """f·(a, β) = (f·a, [f·β]); ShapeMismatch when f·a leaves ℤ_(p) or
        f carries a q-denominator onto a nonzero β, in that order."""
        a = _checked(self.a * f, self.p)
        return UElement(self.p, self.q, a, self.beta.scale(f))

    def act(self, r: RElement) -> "UElement":
        """Right action (a, β)·(a', b', c') = (a·a', [a·b'] + β·c')."""
        if (self.p, self.q) != (r.p, r.q):
            raise ShapeMismatch("acting by an element of a different ring")
        carried = PrueferElement.from_rational(self.q, self.a * r.b)
        return UElement(self.p, self.q, self.a * r.a, carried + self.beta.scale(r.c))

    def _check(self, other):
        if (self.p, self.q) != (other.p, other.q):
            raise ShapeMismatch("module elements over different prime pairs")


def _check_pair(p: int, q: int) -> None:
    """Refuse a pair (p, q) that is not two distinct primes: the example,
    and every sample drawn for it, needs both localizations at primes."""
    for n in (p, q):
        if not _is_prime(n):
            raise NonPrime(f"{n} is not a prime")
    if p == q:
        raise ShapeMismatch(f"p = q = {p}: the example needs two distinct primes")


# The samples are pure in (p, q, seed) and hold frozen values, so a
# small bounded memo shares them across every case that asks again.
@lru_cache(maxsize=32)
def sample_relements(p: int, q: int, seed: int = SAMPLE_SEED) -> tuple:
    """Deterministic R sample spanning a range of p- and q-valuations."""
    _check_pair(p, q)
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
        out.append(RElement(p, q, a, b, c))
    return tuple(out)


@lru_cache(maxsize=32)
def sample_uelements(p: int, q: int, seed: int = SAMPLE_SEED) -> tuple:
    """Deterministic U sample spanning a range of p- and q-valuations."""
    _check_pair(p, q)
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
