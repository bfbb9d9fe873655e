"""Endomorphism rings of finite modules and the locality test.

The ring is stored by an F_p-basis of End(M) (from the hom-space solver).
Its elements run in the order of homs.span_stack, product(range(p),
repeat=r) over that basis: element e (0 <= e < p^r) has the base-p digits
of e, most significant first, as its coordinates, and it is a unit
exactly when its matrix is invertible.  The ring keeps one bool per
element, read off span_stack's chunks by one batched elimination each.

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

from .homs import DEFAULT_CAP_HOM, hom_from_coords, hom_space, span_stack
from .linalg import identity, invertible_mask, point_coords, rref_array, solve_row
from .modules import RepModule

CHUNK = 1 << 14  # ring elements per is_local reduction


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
        return hom_from_coords(self.module, self.module, self.basis, coords).matrix

    def is_unit(self, coords) -> bool:
        index = 0
        for c in coords:
            index = index * self.p + c % self.p
        return bool(self.unit_mask[index])


def endomorphism_ring(M: RepModule, cap: int = DEFAULT_CAP_HOM) -> EndRing:
    """End(M) with its unit mask; TooLarge when p^dim exceeds the cap."""
    p, n = M.field.p, M.dim
    basis = hom_space(M, M)
    mask = np.concatenate([invertible_mask(mats, p) for mats in span_stack(basis, n, n, p, cap)])
    flat = tuple(tuple(x for row in B for x in row) for B in basis)
    ident = solve_row(flat, tuple(x for row in identity(n) for x in row), p)
    return EndRing(M, basis, ident, p ** len(basis), mask)


def is_local(E: EndRing) -> bool:
    """Non-units closed under addition (one maximal right ideal)."""
    p, r = E.p, len(E.basis)
    count = E.size - int(np.count_nonzero(E.unit_mask))
    span = np.zeros((0, r), dtype=np.int64)
    for start in range(0, E.size, CHUNK):
        # point_coords gives element e its digits least significant first,
        # the reverse of its coordinates; reversing every row permutes the
        # columns, which leaves the rank of their span as it is
        coords = point_coords(np.arange(start, min(start + CHUNK, E.size)), r, p)
        nonunits = coords[~E.unit_mask[start : start + len(coords)]]
        span, _ = rref_array(np.concatenate([span, nonunits]), p)
    # the zero ring has no non-units, so they are closed vacuously
    return count == 0 or p ** len(span) == count
