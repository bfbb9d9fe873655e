"""Endomorphism rings of finite modules and the locality test.

The ring is stored by an F_p-basis of End(M) (from the hom-space solver).
With r basis elements, element e (0 <= e < p^r) has the base-p digits of e,
least significant first, as its coordinates over that basis, and it is a
unit exactly when its matrix is invertible.  The ring keeps one bool per
element, built in chunks of CHUNK elements: each chunk's matrices come
from one product with the basis and are tested by one batched elimination.

is_local asks whether the non-units are closed under addition.  Over F_p a
nonempty subset closed under addition holds 0 = p·a and -a = (p-1)·a, so
it is an additive subgroup and hence a subspace.  The non-units are
therefore closed exactly when they span nothing else: p^rank of their span
equals their count.  The test is exact at every ring size, and only the
unit mask grows with the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import TooLarge
from .homs import DEFAULT_CAP_HOM, hom_space
from .linalg import identity, invertible_mask, lin_comb, point_coords, rref_array, solve_row
from .modules import RepModule

CHUNK = 1 << 14


@dataclass(frozen=True)
class EndRing:
    module: RepModule
    basis: tuple  # matrices
    identity_coords: tuple
    size: int
    unit_mask: np.ndarray = field(compare=False, repr=False)  # by element index

    @property
    def p(self) -> int:
        return self.module.field.p

    def elements(self):
        return product(range(self.p), repeat=len(self.basis))

    def matrix_of(self, coords) -> tuple:
        n = self.module.dim
        return lin_comb(coords, self.basis, n, n, self.p)

    def is_unit(self, coords) -> bool:
        p = self.p
        return bool(self.unit_mask[sum(c % p * p**j for j, c in enumerate(coords))])


def _chunks(size: int, r: int, p: int):
    """(first index, coordinate rows) for consecutive runs of ring elements."""
    for start in range(0, size, CHUNK):
        yield start, point_coords(np.arange(start, min(start + CHUNK, size)), r, p)


def endomorphism_ring(M: RepModule, cap: int = DEFAULT_CAP_HOM) -> EndRing:
    """End(M) with its unit mask; TooLarge when p^dim exceeds the cap."""
    p = M.field.p
    n = M.dim
    basis = hom_space(M, M)
    r = len(basis)
    size = p**r
    if size > cap:
        raise TooLarge("endomorphism ring size", size, cap)
    flat = tuple(tuple(x for row in B for x in row) for B in basis)
    flat_arr = np.array(flat, dtype=np.int64).reshape(r, n * n)
    mask = np.concatenate([
        invertible_mask((coords @ flat_arr % p).reshape(len(coords), n, n), p)
        for _, coords in _chunks(size, r, p)
    ])
    ident = solve_row(flat, tuple(x for row in identity(n) for x in row), p)
    return EndRing(M, basis, ident, size, mask)


def is_local(E: EndRing) -> bool:
    """Non-units closed under addition (one maximal right ideal)."""
    p = E.p
    count = E.size - int(np.count_nonzero(E.unit_mask))
    span = np.zeros((0, len(E.basis)), dtype=np.int64)
    for start, coords in _chunks(E.size, len(E.basis), p):
        nonunits = coords[~E.unit_mask[start : start + len(coords)]]
        span, _ = rref_array(np.concatenate([span, nonunits]), p)
    # the zero ring has no non-units, so they are closed vacuously
    return count == 0 or p ** len(span) == count
