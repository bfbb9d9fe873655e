"""Right modules over a finite-dimensional algebra, their submodules and homs.

A module of dimension n is a tuple of n x n action matrices, one per
algebra basis element, acting on row vectors on the right.  Construction
verifies the representation identities (action of a product = composed
actions, unity acts as the identity), so module values are trustworthy
once built.  Modules the program derives from validated ones (direct
sums, quotients, submodules as modules) are built by a trusted
constructor that skips those checks, and so are the homs that are homs
by construction (injections, projections, embeddings and combinations of
a hom-space basis).

Submodules are stored by their reduced-row-echelon basis, which is
canonical: two submodules are equal iff their bases are equal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import Algebra
from .errors import AlgebraMismatch, ShapeMismatch
from .linalg import (
    Mat,
    Vec,
    express,
    identity,
    in_span,
    inverse,
    lin_comb,
    mat_mul,
    rref,
    vec_mat,
    zeros,
)


@dataclass(frozen=True)
class RepModule:
    algebra: Algebra
    dim: int
    actions: tuple  # one dim x dim matrix per algebra basis element
    label: str = dc_field(default="", compare=False)

    def __post_init__(self):
        alg = self.algebra
        p = alg.field.p
        n = self.dim
        if len(self.actions) != alg.dim:
            raise ShapeMismatch("need one action matrix per algebra basis element")
        for A in self.actions:
            if len(A) != n or any(len(row) != n for row in A):
                raise ShapeMismatch("action matrices must be dim x dim")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = mat_mul(self.actions[i], self.actions[j], p)
                rhs = lin_comb(alg.constants[i][j], self.actions, n, n, p)
                if lhs != rhs:
                    raise ShapeMismatch(
                        f"actions violate the product rule on basis pair ({i},{j})"
                    )
        if lin_comb(alg.unity, self.actions, n, n, p) != identity(n):
            raise ShapeMismatch("unity does not act as the identity")

    @classmethod
    def _trusted(cls, algebra: Algebra, dim: int, actions: tuple) -> "RepModule":
        """A module whose actions satisfy the representation identities by
        construction.

        For modules the program builds from validated ones (direct sums,
        quotients, submodules in their own coordinates, the blocks of a
        block-diagonal module); skips the product-rule and unity checks of
        the validating constructor.  The test suite rebuilds every such
        module through that constructor.
        """
        module = object.__new__(cls)
        object.__setattr__(module, "algebra", algebra)
        object.__setattr__(module, "dim", dim)
        object.__setattr__(module, "actions", actions)
        object.__setattr__(module, "label", "")
        return module

    @property
    def field(self):
        return self.algebra.field

    def act(self, v: Vec, i: int) -> Vec:
        """v * e_i for the i-th algebra basis element."""
        return vec_mat(v, self.actions[i], self.field.p)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"RepModule(dim={self.dim}, algebra_dim={self.algebra.dim}{tag})"


@dataclass(frozen=True)
class Submodule:
    parent: RepModule
    basis: Mat  # reduced row echelon form, the canonical representative

    def __post_init__(self):
        p = self.parent.field.p
        red, pivots = rref(self.basis, p) if self.basis else ((), ())
        if red != self.basis:
            raise ShapeMismatch("submodule basis must be in reduced echelon form")
        if any(len(row) != self.parent.dim for row in self.basis):
            raise ShapeMismatch("basis vectors must live in the parent module")
        for v in self.basis:
            for i in range(self.parent.algebra.dim):
                if not in_span(self.parent.act(v, i), self.basis, pivots, p):
                    raise ShapeMismatch("row space is not closed under the action")
        # kept on the instance, outside the dataclass fields, so equality
        # and hashing are unaffected
        object.__setattr__(self, "_pivots", pivots)

    @classmethod
    def _trusted(cls, parent: RepModule, basis: Mat, pivots: tuple) -> "Submodule":
        """A submodule whose basis is already reduced and action-closed.

        For bases that come out of the lattice's stack reductions, which
        span closed sets by construction; skips the re-reduction and the
        per-vector closure check of the validating constructor.  The test
        suite rebuilds every lattice member through that constructor.
        """
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "basis", basis)
        object.__setattr__(sub, "_pivots", pivots)
        return sub

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        return self._pivots

    def contains(self, v: Vec) -> bool:
        return in_span(v, self.basis, self.pivots, self.parent.field.p)

    def contains_submodule(self, other: "Submodule") -> bool:
        return all(self.contains(v) for v in other.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def sort_key(self):
        return (self.dim, self.basis)

    def as_module(self) -> RepModule:
        """The submodule as a module in its own right (basis coordinates).

        Built once per instance and kept on it, outside the dataclass
        fields, so equality and hashing are unaffected.
        """
        module = self.__dict__.get("_as_module")
        if module is None:
            module = _restricted_module(self.parent, self.basis, self.pivots)
            object.__setattr__(self, "_as_module", module)
        return module

    def embedding(self) -> "ModuleHom":
        """Inclusion into the parent, from intrinsic coordinates."""
        return ModuleHom._trusted(self.as_module(), self.parent, self.basis)

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.parent.dim})"


def _restricted_module(parent: RepModule, basis: Mat, pivots) -> RepModule:
    p = parent.field.p
    actions = []
    for i in range(parent.algebra.dim):
        rows = []
        for v in basis:
            coeffs = express(parent.act(v, i), basis, pivots, p)
            assert coeffs is not None  # construction validated closure
            rows.append(coeffs)
        actions.append(tuple(rows))
    return RepModule._trusted(parent.algebra, len(basis), tuple(actions))


def make_submodule(parent: RepModule, rows) -> Submodule:
    """Canonicalize a generating set of vectors that is already action-closed."""
    red, _ = rref(tuple(tuple(v) for v in rows), parent.field.p) if rows else ((), ())
    return Submodule(parent, red)


def zero_submodule(parent: RepModule) -> Submodule:
    return Submodule(parent, ())


def submodule_generated(M: RepModule, vectors) -> Submodule:
    """Smallest submodule containing the given vectors.

    One pass suffices: the span of {v * e_i} over all generators v and all
    algebra basis elements e_i is v * (the whole algebra), which is already
    action closed because the algebra is closed under products, and it
    contains v because the algebra is unital.  Idempotent by canonicity.
    """
    p = M.field.p
    vecs = [tuple(int(x) % p for x in v) for v in vectors]
    for v in vecs:
        if len(v) != M.dim:
            raise ShapeMismatch("generator does not live in the module")
    rows = [M.act(v, i) for v in vecs for i in range(M.algebra.dim)]
    basis, _ = rref(rows, p) if rows else ((), ())
    return Submodule(M, basis)


# -- homomorphisms ------------------------------------------------------------

def _as_rep(x) -> RepModule:
    return x.as_module() if isinstance(x, Submodule) else x


@dataclass(frozen=True)
class ModuleHom:
    """A linear map commuting with the algebra action.

    `matrix` has shape (source dim x target dim) in the intrinsic
    coordinates of source and target; submodule endpoints use their
    canonical basis coordinates.  Row convention: h(v) = v @ matrix.
    """

    source: object  # RepModule or Submodule
    target: object
    matrix: Mat

    def __post_init__(self):
        src = _as_rep(self.source)
        tgt = _as_rep(self.target)
        p = src.field.p
        if src.algebra != tgt.algebra:
            raise AlgebraMismatch("hom endpoints live over different algebras")
        if len(self.matrix) != src.dim or any(len(r) != tgt.dim for r in self.matrix):
            raise ShapeMismatch(
                f"hom matrix must be {src.dim} x {tgt.dim}"
            )
        for i in range(src.algebra.dim):
            if mat_mul(src.actions[i], self.matrix, p) != mat_mul(
                self.matrix, tgt.actions[i], p
            ):
                raise ShapeMismatch(f"matrix does not commute with action {i}")

    @classmethod
    def _trusted(cls, source, target, matrix: Mat) -> "ModuleHom":
        """A hom whose matrix commutes with the action by construction.

        For the injections and projections of a direct sum, the projection
        onto a quotient, submodule embeddings and F_p-combinations of a
        hom_space basis; skips the shape and commutation checks of the
        validating constructor.  The test suite rebuilds every such hom
        through that constructor.
        """
        hom = object.__new__(cls)
        object.__setattr__(hom, "source", source)
        object.__setattr__(hom, "target", target)
        object.__setattr__(hom, "matrix", matrix)
        return hom

    @property
    def source_module(self) -> RepModule:
        return _as_rep(self.source)

    @property
    def target_module(self) -> RepModule:
        return _as_rep(self.target)

    def apply(self, v: Vec) -> Vec:
        return vec_mat(v, self.matrix, self.source_module.field.p)

    def is_zero(self) -> bool:
        return all(not any(row) for row in self.matrix)

    def __repr__(self):
        return f"ModuleHom({self.source_module.dim} -> {self.target_module.dim})"


def zero_hom(A, B) -> ModuleHom:
    return ModuleHom(A, B, zeros(_as_rep(A).dim, _as_rep(B).dim))


# -- quotients and direct sums ------------------------------------------------

def quotient_module(M: RepModule, X: Submodule):
    """The quotient M/X with its natural projection.

    Coordinates on the quotient come from completing X's echelon basis by
    the standard vectors at the non-pivot columns; the projection is the
    corresponding coordinate map, a surjective hom with kernel exactly X.
    """
    if X.parent != M:
        raise ShapeMismatch("submodule belongs to a different module")
    p = M.field.p
    n = M.dim
    k = X.dim
    piv = set(X.pivots)
    complement_rows = tuple(
        tuple(1 if t == j else 0 for t in range(n)) for j in range(n) if j not in piv
    )
    C = tuple(X.basis) + complement_rows
    Cinv = inverse(C, p)
    assert Cinv is not None
    proj = tuple(row[k:] for row in Cinv)  # n x (n-k)
    q_actions = tuple(
        mat_mul(mat_mul(complement_rows, M.actions[i], p), proj, p)
        for i in range(M.algebra.dim)
    )
    Q = RepModule._trusted(M.algebra, n - k, q_actions)
    pi = ModuleHom._trusted(M, Q, proj)
    return Q, pi


@dataclass(frozen=True)
class DirectSum:
    """A ⊕ B with its injections and projections as honest homs."""

    module: RepModule
    left: RepModule
    right: RepModule
    inj1: ModuleHom
    inj2: ModuleHom
    proj1: ModuleHom
    proj2: ModuleHom

    def left_copy(self) -> Submodule:
        """A x 0 as a submodule of the sum, built once per direct sum."""
        return self._copy("_left_copy", self.inj1)

    def right_copy(self) -> Submodule:
        """0 x B as a submodule of the sum, built once per direct sum."""
        return self._copy("_right_copy", self.inj2)

    def _copy(self, name: str, inj: ModuleHom) -> Submodule:
        # kept on the instance, outside the dataclass fields, so equality
        # and hashing are unaffected
        copy = self.__dict__.get(name)
        if copy is None:
            copy = make_submodule(self.module, inj.matrix)
            object.__setattr__(self, name, copy)
        return copy


def direct_sum(A: RepModule, B: RepModule) -> DirectSum:
    if A.algebra != B.algebra:
        raise AlgebraMismatch("summands live over different algebras")
    na, nb = A.dim, B.dim
    n = na + nb
    actions = []
    for i in range(A.algebra.dim):
        Ai, Bi = A.actions[i], B.actions[i]
        rows = [tuple(Ai[r]) + (0,) * nb for r in range(na)]
        rows += [(0,) * na + tuple(Bi[r]) for r in range(nb)]
        actions.append(tuple(rows))
    M = RepModule._trusted(A.algebra, n, tuple(actions))
    i1 = tuple(tuple(1 if t == r else 0 for t in range(n)) for r in range(na))
    i2 = tuple(tuple(1 if t == na + r else 0 for t in range(n)) for r in range(nb))
    p1 = tuple(tuple(1 if (r < na and t == r) else 0 for t in range(na)) for r in range(n))
    p2 = tuple(tuple(1 if (r >= na and t == r - na) else 0 for t in range(nb)) for r in range(n))
    return DirectSum(
        M,
        A,
        B,
        ModuleHom._trusted(A, M, i1),
        ModuleHom._trusted(B, M, i2),
        ModuleHom._trusted(M, A, p1),
        ModuleHom._trusted(M, B, p2),
    )


def row_module(algebra: Algebra, k: int) -> RepModule:
    """Row vectors of width k under right multiplication by a matrix algebra.

    Only available for algebras realized inside a matrix ring (built by
    shaped_matrix_algebra); k must match the matrix size.  k = 0 yields
    the zero module.
    """
    if k == 0:
        empty = tuple(() for _ in range(algebra.dim))
        return RepModule(algebra, 0, empty)
    if algebra.matrix_units is None:
        raise ShapeMismatch("algebra carries no matrix realization")
    if k != algebra.matrix_size:
        raise ShapeMismatch(
            f"row width {k} does not match matrix size {algebra.matrix_size}"
        )
    return RepModule(algebra, k, algebra.matrix_units)
