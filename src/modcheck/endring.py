"""Endomorphism rings of finite modules and the locality test.

The ring is stored by an F_p-basis of End(M) (from the hom-space solver)
with its multiplication table; elements are coefficient tuples over that
basis.  A coefficient tuple is a unit exactly when the assembled matrix
is invertible.

is_local asks whether the non-units are closed under addition.  Over a
prime field a subset containing 0 that is closed under addition is an
additive subgroup and hence an F_p-subspace, so the closure test used for
large rings is "the non-units span exactly themselves"; small rings are
scanned pairwise, and the suite checks the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import TooLarge
from .homs import hom_space
from .linalg import express, identity, lin_comb, mat_mul, rank, rref, rref_array
from .modules import RepModule

DEFAULT_CAP_END = 1 << 20
_PAIRWISE_LIMIT = 512


@dataclass(frozen=True)
class EndRing:
    module: RepModule
    basis: tuple  # matrices
    mult_table: tuple  # mult_table[i][j] = coords of basis[i] @ basis[j]
    identity_coords: tuple
    units: frozenset  # coefficient tuples
    size: int

    @property
    def p(self) -> int:
        return self.module.field.p

    def elements(self):
        return product(range(self.p), repeat=len(self.basis))

    def matrix_of(self, coords) -> tuple:
        n = self.module.dim
        return lin_comb(coords, self.basis, n, n, self.p)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        r = len(self.basis)
        out = [0] * r
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in enumerate(self.mult_table[i][j]):
                    out[k] = (out[k] + ai * bj * c) % self.p
        return tuple(out)

    def is_unit(self, coords) -> bool:
        return tuple(x % self.p for x in coords) in self.units


def endomorphism_ring(M: RepModule, cap: int = DEFAULT_CAP_END) -> EndRing:
    """End(M) with its unit set; TooLarge when p^dim exceeds the cap."""
    p = M.field.p
    basis = hom_space(M, M)
    r = len(basis)
    size = p**r
    if size > cap:
        raise TooLarge("endomorphism ring size", size, cap)
    n = M.dim
    flat_basis = tuple(tuple(x for row in B for x in row) for B in basis)
    flat_red, flat_piv = rref(flat_basis, p) if flat_basis else ((), ())
    # hom_space returns the echelon basis already, so expressing against it
    # gives exact structure constants for composition
    assert flat_red == flat_basis

    def coords_of_matrix(mat):
        flat = tuple(x for row in mat for x in row)
        co = express(flat, flat_red, flat_piv, p)
        assert co is not None
        return co

    table = tuple(
        tuple(coords_of_matrix(mat_mul(basis[i], basis[j], p)) for j in range(r))
        for i in range(r)
    )
    ident = coords_of_matrix(identity(n)) if n else (0,) * r

    units = _unit_set(basis, n, p, size)
    return EndRing(M, basis, table, ident, units, size)


def _unit_set(basis, n: int, p: int, size: int) -> frozenset:
    r = len(basis)
    if r == 0:
        # End(0) is the zero ring; its only element is a unit (1 = 0)
        return frozenset({()})
    coeffs = np.arange(size, dtype=np.int64)
    digits = np.empty((size, r), dtype=np.int64)
    for j in range(r):
        digits[:, j] = coeffs % p
        coeffs //= p
    flat = np.array([[x for row in B for x in row] for B in basis], dtype=np.int64)
    mats = digits @ flat % p  # (size, n*n)
    units = set()
    if p == 2 and n <= 62:
        packed = mats.reshape(size, n, n) @ (1 << np.arange(n, dtype=np.int64))
        for e in range(size):
            if _rank_bits(list(map(int, packed[e])), n) == n:
                units.add(tuple(int(x) for x in digits[e]))
    else:
        for e in range(size):
            mat = tuple(
                tuple(int(x) for x in mats[e, i * n : (i + 1) * n]) for i in range(n)
            )
            if rank(mat, p) == n:
                units.add(tuple(int(x) for x in digits[e]))
    return frozenset(units)


def _rank_bits(rows: list, n: int) -> int:
    """Rank over F₂ of rows packed as integers (bit j = column j)."""
    rk = 0
    for c in range(n):
        bit = 1 << c
        pivot = next((i for i in range(rk, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i] & bit:
                rows[i] ^= rows[rk]
        rk += 1
    return rk


def is_local(E: EndRing) -> bool:
    """Non-units closed under addition (one maximal right ideal)."""
    if E.size <= _PAIRWISE_LIMIT:
        nonunits = [c for c in E.elements() if c not in E.units]
        nset = set(nonunits)
        for a in nonunits:
            for b in nonunits:
                if E.add(a, b) not in nset:
                    return False
        return True
    return _is_local_by_span(E)


def _is_local_by_span(E: EndRing) -> bool:
    """Closure via the subgroup = subspace equivalence over F_p."""
    p = E.p
    count = E.size - len(E.units)
    nonunit_rows = np.array([c for c in E.elements() if c not in E.units], dtype=np.int64)
    _, pivots = rref_array(nonunit_rows, p)
    return p ** len(pivots) == count
