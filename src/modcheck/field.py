"""Prime fields F_p with exact modular arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonPrime

_MAX_MODULUS = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers mod a prime p.

    Elements are plain ints in range(p); the class only carries the
    modulus, which keeps vectors and matrices as cheap int tuples.
    """

    p: int

    def __post_init__(self):
        if not (2 <= self.p <= _MAX_MODULUS) or not _is_prime(self.p):
            raise NonPrime(f"{self.p} is not a prime in range")

    def __repr__(self):
        return f"F{self.p}"

