"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension d over F_p is stored as the full multiplication
table of its basis: ``constants[i][j]`` is the coordinate vector of
``e_i * e_j``.  Construction always verifies associativity on every basis
triple and that the designated unity is a two-sided identity, so an
`Algebra` value in hand is guaranteed consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import NoUnity, NotAssociative, NotClosed, NotUnital, ShapeMismatch
from .field import PrimeField
from .linalg import Vec


@dataclass(frozen=True)
class Algebra:
    field: PrimeField
    dim: int
    constants: tuple  # constants[i][j] = coords of e_i * e_j, a length-dim tuple
    unity: Vec
    # for algebras realized inside a matrix ring: the n x n matrix of each
    # basis element, used by row_module.  None for abstract algebras.
    matrix_units: tuple | None = dc_field(default=None, compare=False)
    matrix_size: int | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        p = self.field.p
        d = self.dim
        if d < 1:
            raise ShapeMismatch("algebra dimension must be >= 1")
        if len(self.constants) != d or any(
            len(row) != d or any(len(v) != d for v in row) for row in self.constants
        ):
            raise ShapeMismatch("structure constants must be d x d x d")
        if len(self.unity) != d:
            raise ShapeMismatch("unity must have d coordinates")
        e = [tuple(1 if t == i else 0 for t in range(d)) for i in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self.mul(self.constants[i][j], e[k])
                    right = self.mul(e[i], self.constants[j][k])
                    if left != right:
                        raise NotAssociative(
                            f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})"
                        )
        for i in range(d):
            if self.mul(self.unity, e[i]) != e[i] or self.mul(e[i], self.unity) != e[i]:
                raise NotUnital(f"unity fails on basis element e{i}")

    def mul(self, x: Vec, y: Vec) -> Vec:
        """Product of two elements given by coordinate vectors."""
        out = [0] * self.dim
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        for k, c in enumerate(self.constants[i][j]):
                            out[k] += a * b * c
        return tuple(v % self.field.p for v in out)

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field})"


def algebra_from_structure_constants(field: PrimeField, dim: int, constants, unity) -> Algebra:
    """General input path: build and validate an algebra from raw tables."""
    consts = tuple(
        tuple(tuple(int(x) % field.p for x in vec) for vec in row) for row in constants
    )
    return Algebra(field, dim, consts, tuple(int(x) % field.p for x in unity))


def shaped_matrix_algebra(field: PrimeField, shape) -> Algebra:
    """Subalgebra of n x n matrices supported on the 1-entries of `shape`.

    The basis is the set of matrix units E_ij with shape[i][j] == 1, in
    row-major order; the unity is the sum of the diagonal units.  Requires
    the diagonal to be present and the set of supported positions to be
    closed under matrix multiplication: E_ij E_jl = E_il must land back in
    the shape whenever (i,j) and (j,l) are supported.
    """
    n = len(shape)
    if any(len(row) != n for row in shape):
        raise ShapeMismatch("shape must be square")
    positions = [(i, j) for i in range(n) for j in range(n) if shape[i][j]]
    pos_index = {pos: t for t, pos in enumerate(positions)}
    for i in range(n):
        if (i, i) not in pos_index:
            raise NoUnity(f"diagonal entry ({i},{i}) missing from shape")
    d = len(positions)
    zero = (0,) * d
    constants = []
    for (i, j) in positions:
        row = []
        for (k, l) in positions:
            if j != k:
                row.append(zero)
            elif (i, l) in pos_index:
                row.append(tuple(1 if t == pos_index[(i, l)] else 0 for t in range(d)))
            else:
                raise NotClosed(
                    f"E{i}{j} * E{k}{l} = E{i}{l} falls outside the shape"
                )
        constants.append(tuple(row))
    unity = tuple(1 if positions[t][0] == positions[t][1] else 0 for t in range(d))
    units = tuple(
        tuple(tuple(1 if (r, c) == pos else 0 for c in range(n)) for r in range(n))
        for pos in positions
    )
    return Algebra(field, d, tuple(constants), unity, matrix_units=units, matrix_size=n)
