"""Hom-space computation and elementary operations on module maps.

hom_space solves the commuting-matrix equations A_i H = H B_i exactly,
returning a basis of the solution space.  span_stack is the one walk
over the F_p-span of such a basis and the one place a walk checks the
hom cap (the count is p^dim): hom_stack, End(M)'s unit mask and the
square criteria read their homs from it as int64 stacks, and
enumerate_homs reads hom_stack one ModuleHom at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, TooLarge
from .linalg import POINT_CHUNK, left_kernel, lin_comb, mat_mul, point_coords, rank
from .modules import ModuleHom, RepModule, Submodule, _as_rep, make_submodule

DEFAULT_CAP_HOM = 1 << 20  # largest hom count a sweep walks unless a caller raises it


def hom_space(A, B) -> tuple:
    """Basis of Hom(A, B) as a tuple of matrices, canonically ordered.

    Unknown entries of H are flattened row-major; each algebra basis
    element contributes the linear conditions A_i H - H B_i = 0.  The
    basis is the reduced echelon basis of the solution space, so the
    result is deterministic for fixed inputs.
    """
    src = _as_rep(A)
    tgt = _as_rep(B)
    if src.algebra != tgt.algebra:
        raise ShapeMismatch("hom endpoints live over different algebras")
    p = src.field.p
    na, nb = src.dim, tgt.dim
    if na == 0 or nb == 0:
        return ()
    n_unknowns = na * nb
    n_equations = src.algebra.dim * na * nb
    # coeff[u][e]: coefficient of unknown u in equation e, so solutions
    # are the left kernel of this matrix.
    coeff = [[0] * n_equations for _ in range(n_unknowns)]
    e = 0
    for i in range(src.algebra.dim):
        Ai = src.actions[i]
        Bi = tgt.actions[i]
        for r in range(na):
            for c in range(nb):
                # (A_i H)[r][c] - (H B_i)[r][c] = 0
                for s in range(na):
                    if Ai[r][s]:
                        coeff[s * nb + c][e] = (coeff[s * nb + c][e] + Ai[r][s]) % p
                for t in range(nb):
                    if Bi[t][c]:
                        coeff[r * nb + t][e] = (coeff[r * nb + t][e] - Bi[t][c]) % p
                e += 1
    sols = left_kernel(tuple(tuple(row) for row in coeff), p)
    basis = []
    for flat in sols:
        basis.append(tuple(tuple(flat[r * nb + c] for c in range(nb)) for r in range(na)))
    return tuple(basis)


def enumerate_homs(A, B, cap: int = DEFAULT_CAP_HOM):
    """Yield every hom A -> B, in hom_stack order.

    Raises TooLarge when p^dim exceeds cap, on the first next().
    """
    for chunk in hom_stack(A, B, cap):
        for H in chunk.tolist():
            yield ModuleHom._trusted(A, B, tuple(map(tuple, H)))


def hom_stack(A, B, cap: int | None = DEFAULT_CAP_HOM):
    """Every hom A -> B as (N, dim A, dim B) int64 chunks: span_stack over
    the hom_space basis.  When either end is zero the one hom is the zero
    map."""
    src = _as_rep(A)
    tgt = _as_rep(B)
    return span_stack(hom_space(A, B), src.dim, tgt.dim, src.field.p, cap)


def span_stack(basis: tuple, rows: int, cols: int, p: int, cap: int | None):
    """Every F_p-combination of a basis of rows x cols matrices, as
    (N, rows, cols) int64 chunks, N <= POINT_CHUNK.

    This is the one walk over a hom space.  The coordinates run through
    product(range(p), repeat=d), the last coordinate fastest, so the k-th
    matrix walked has the base-p digits of k, most significant first, as
    its coordinates.  Raises TooLarge when p^d exceeds cap, at the call,
    before any chunk is built; cap None leaves the count unbounded.
    """
    count = p ** len(basis)
    if cap is not None and count > cap:
        raise TooLarge("hom enumeration", count, cap)
    flat = np.array(basis, dtype=np.int64).reshape(len(basis), rows * cols)
    return _span_chunks(flat, count, rows, cols, p)


def _span_chunks(flat: np.ndarray, count: int, rows: int, cols: int, p: int):
    for start in range(0, count, POINT_CHUNK):
        # point_coords puts the least significant digit first, while
        # product() varies the last coordinate fastest
        coeffs = point_coords(np.arange(start, min(start + POINT_CHUNK, count)), len(flat), p)
        yield (coeffs[:, ::-1] @ flat % p).reshape(len(coeffs), rows, cols)


def hom_from_coords(A, B, basis: tuple, coeffs) -> ModuleHom:
    """Assemble the hom with the given coordinates in a hom_space basis."""
    src = _as_rep(A)
    return ModuleHom._trusted(
        A, B, lin_comb(coeffs, basis, src.dim, _as_rep(B).dim, src.field.p)
    )


def kernel(h: ModuleHom) -> Submodule:
    """Kernel as a submodule of the source (in intrinsic coordinates)."""
    p = h.source_module.field.p
    null_rows = left_kernel(h.matrix, p)
    return make_submodule(h.source_module, null_rows)


def image(h: ModuleHom) -> Submodule:
    """Image as a submodule of the target (in intrinsic coordinates)."""
    return make_submodule(h.target_module, h.matrix)


def is_mono(h: ModuleHom) -> bool:
    return rank(h.matrix, h.source_module.field.p) == h.source_module.dim


def is_epi(h: ModuleHom) -> bool:
    return rank(h.matrix, h.source_module.field.p) == h.target_module.dim


def is_iso(h: ModuleHom) -> bool:
    return h.source_module.dim == h.target_module.dim and is_mono(h)


def compose(g: ModuleHom, f: ModuleHom) -> ModuleHom:
    """g after f.  Endpoints must match as values, not just dimensions."""
    if f.target != g.source:
        raise ShapeMismatch("cannot compose: inner endpoints differ")
    p = f.source_module.field.p
    return ModuleHom(f.source, g.target, mat_mul(f.matrix, g.matrix, p))


def restrict(h: ModuleHom, N: Submodule) -> ModuleHom:
    """Restriction to a submodule of the source."""
    if not isinstance(h.source, RepModule) or N.parent != h.source:
        raise ShapeMismatch("restriction domain is not a submodule of the source")
    rows = tuple(h.apply(b) for b in N.basis)
    return ModuleHom(N, h.target, rows)
