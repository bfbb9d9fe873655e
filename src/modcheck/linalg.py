"""Exact linear algebra over prime fields.

Everything here is exact arithmetic mod p.  Module elements are row
vectors and maps act on the right (``v -> v @ A``), matching the
right-module convention used by the rest of the package.

There are two routes, chosen by the shape of the work.  Single small
matrices (a basis, a hom system, a solve) are immutable row-major tuples
of tuples of ints in ``range(p)``, reduced by the scalar loop in ``rref``,
whose reduced echelon form is the canonical basis of a row space.  Many
matrices at once go through ``rref_stack``, one F_p kernel over an
(N, r, n) int64 stack that reduces a column of every matrix per numpy
pass; ``rref_array`` is its N = 1 case.  Inverses there are Fermat powers
x^(p-2), and entries below p <= 2**31 - 1 keep every product below 2**62,
so one code path serves every prime ``PrimeField`` accepts.  Reduced
echelon form is unique for a row space, so both routes return the same
basis.  ``invertible_mask`` keeps its own fraction-free elimination: to
decide invertibility it needs no back substitution and no inverses, and
on End(M) unit masks it runs 1.5 to 2 times faster than the kernel.
"""

from __future__ import annotations

import numpy as np

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


def zeros(rows: int, cols: int) -> Mat:
    return tuple((0,) * cols for _ in range(rows))


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A: Mat, B: Mat, p: int) -> Mat:
    """Product A @ B mod p.  A is (m x k), B is (k x n)."""
    if A and B and len(A[0]) != len(B):
        raise ValueError(f"shape mismatch: {len(A[0])} vs {len(B)}")
    if not B:
        return tuple(() for _ in A)
    cols = list(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
        for row in A
    )


def vec_mat(v: Vec, A: Mat, p: int) -> Vec:
    return mat_mul((v,), A, p)[0]


def lin_comb(coeffs, mats, rows: int, cols: int, p: int) -> Mat:
    """sum coeffs[i] * mats[i] mod p, a rows x cols matrix (zero if empty)."""
    out = [[0] * cols for _ in range(rows)]
    for c, B in zip(coeffs, mats):
        if c % p:
            for r in range(rows):
                for s in range(cols):
                    out[r][s] = (out[r][s] + c * B[r][s]) % p
    return tuple(tuple(row) for row in out)


def rref(rows, p: int) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form over F_p.

    Returns the nonzero rows (a canonical basis of the row space) and the
    pivot columns.  Two generating sets of the same subspace always reduce
    to identical output, which is what makes submodule bases canonical.
    """
    work = [list(r) for r in rows if any(x % p for x in r)]
    for row in work:
        for j, x in enumerate(row):
            row[j] = x % p
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(inv * x) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise x^(p-2) mod p, the inverse of every nonzero entry.

    Square and multiply over the bits of p - 2.  Entries stay below
    p <= 2**31 - 1, so every product stays below 2**62, inside int64.
    """
    out = np.ones_like(x)
    base = x
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def rref_stack(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p of every matrix of an (N, r, n) stack.

    One pass over the columns serves the whole stack.  Each matrix keeps
    the index of its next pivot row; in column c a matrix with a nonzero
    entry at or below that row moves the first such row up, scales it by
    the inverse of its leading entry and clears column c in every other
    row.  Returns the reduced stack, with the zero rows below the pivot
    rows, and the rank of each matrix.  The input is not modified.
    """
    A = np.asarray(A, dtype=np.int64) % p  # a new array: the input stays as it is
    N, r, n = A.shape
    ranks = np.zeros(N, dtype=np.int64)
    below = np.arange(r)
    for c in range(n):
        eligible = (A[:, :, c] != 0) & (below >= ranks[:, None])
        hs = np.flatnonzero(eligible.any(axis=1))  # the matrices with a pivot in c
        if not hs.size:
            continue
        top = ranks[hs]
        pivot = eligible[hs].argmax(axis=1)
        row = A[hs, pivot]
        A[hs, pivot] = A[hs, top]
        row = row * _inverse_mod(row[:, c], p)[:, None] % p
        A[hs, top] = row
        factor = A[hs, :, c]
        factor[np.arange(hs.size), top] = 0
        # only rows with a nonzero entry in c change, and only from column
        # c on: the pivot row is zero left of c
        m, i = np.nonzero(factor)
        A[hs[m], i, c:] = (A[hs[m], i, c:] - factor[m, i, None] * row[m, c:]) % p
        ranks[hs] += 1
    return A, ranks


def rref_array(A: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p of one integer array: rref_stack at N = 1.

    Returns the nonzero rows of the reduced array and the pivot columns;
    the input is not modified.
    """
    red, ranks = rref_stack(np.asarray(A)[None], p)
    red = red[0, : ranks[0]]
    return red, tuple(int(np.flatnonzero(row)[0]) for row in red)


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[0])


def invertible_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """One bool per matrix of an (N, n, n) integer stack: invertible mod p?

    Fraction-free forward elimination over the whole stack at once.  Each
    step moves the first row with a nonzero entry in the leading column to
    the top, then replaces every other row by row * pivot - row[0] *
    pivot_row and drops the leading row and column.  That needs no modular
    inverses, and since entries stay below p <= 2**31 every product stays
    below 2**62, inside int64.  A matrix with no pivot in some step is
    singular.
    """
    A = np.asarray(mats, dtype=np.int64) % p
    ok = np.ones(len(A), dtype=bool)
    stack = np.arange(len(A))
    while A.shape[1]:
        nonzero = A[:, :, 0] != 0
        ok &= nonzero.any(axis=1)
        pivot = nonzero.argmax(axis=1)
        top = A[stack, pivot]
        A[stack, pivot] = A[:, 0]  # the old leading row takes the pivot row's place
        A = (A[:, 1:, 1:] * top[:, None, :1] - A[:, 1:, :1] * top[:, None, 1:]) % p
    return ok


def in_span(v: Vec, basis: Mat, pivots, p: int) -> bool:
    return express(v, basis, pivots, p) is not None


def express(v: Vec, basis: Mat, pivots, p: int):
    """Coefficients c with c @ basis == v, or None if v is not in the span."""
    w = list(x % p for x in v)
    coeffs = []
    for row, c in zip(basis, pivots):
        f = w[c]
        coeffs.append(f)
        if f:
            w = [(x - f * y) % p for x, y in zip(w, row)]
    if any(w):
        return None
    return tuple(coeffs)


def left_kernel(A: Mat, p: int) -> Mat:
    """Canonical basis of {v : v @ A == 0}."""
    m = len(A)
    if m == 0:
        return ()
    aug = tuple(tuple(A[i]) + tuple(1 if j == i else 0 for j in range(m)) for i in range(m))
    red, _ = rref(aug, p)
    ncols = len(A[0])
    ker = [row[ncols:] for row in red if not any(row[:ncols])]
    # rows of the augmented rref with zero left part are already independent,
    # but re-reduce for the canonical form.
    return rref(ker, p)[0] if ker else ()


def intersect_rows(A: Mat, B: Mat, p: int) -> Mat:
    """Canonical basis of rowspace(A) ∩ rowspace(B).

    A vector in both spaces is x @ A = -y @ B for some (x, y) in the left
    kernel of the stacked matrix, so the kernel rows hand over a spanning
    set of the intersection directly.
    """
    if not A or not B:
        return ()
    stacked = tuple(A) + tuple(B)
    ker = left_kernel(stacked, p)
    na = len(A)
    spanning = [
        tuple(sum(row[i] * A[i][j] for i in range(na)) % p for j in range(len(A[0])))
        for row in ker
    ]
    return rref(spanning, p)[0] if spanning else ()


def solve_row(A: Mat, b: Vec, p: int):
    """One solution x of x @ A == b, or None.

    The full solution set is x + left_kernel(A).
    """
    m = len(A)
    if m == 0:
        return () if not any(x % p for x in b) else None
    aug = tuple(tuple(A[i]) + tuple(1 if j == i else 0 for j in range(m)) for i in range(m))
    red, pivots = rref(aug, p)
    ncols = len(A[0])
    w = list(x % p for x in b)
    coeffs = [0] * len(red)
    for i, (row, c) in enumerate(zip(red, pivots)):
        if c >= ncols:
            break  # this row and all below it have a zero left part
        f = w[c]
        coeffs[i] = f
        if f:
            w = [(x - f * y) % p for x, y in zip(w, row[:ncols])]
    if any(w):
        return None
    x = [0] * m
    for f, row in zip(coeffs, red):
        if f:
            for j in range(m):
                x[j] = (x[j] + f * row[ncols + j]) % p
    return tuple(x)


def inverse(A: Mat, p: int) -> Mat | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(A)
    if n == 0:
        return ()
    aug = tuple(tuple(A[i]) + tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    red, pivots = rref(aug, p)
    if len(red) < n or pivots[:n] != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red)


# -- point enumeration -------------------------------------------------------

POINT_CHUNK = 1 << 10  # points or matrices per stack pass, so memory stays flat in p^n


def point_coords(indices: np.ndarray, k: int, p: int) -> np.ndarray:
    """Coordinates of points in F_p^k by index, one row per index.

    The coordinates of index i are its k base-p digits, least significant
    first, so ``point_coords(idx, k, p) @ p ** arange(k) == idx``.
    """
    powers = p ** np.arange(k, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[:, None] // powers % p


def span_point_bits(basis: Mat, n: int, p: int) -> int:
    """Bitset (python int) of the point indices of the span of `basis`.

    Bit i is set iff the vector with index i lies in the row space.  Used
    as the canonical identity of a subspace during lattice work: subset
    and intersection of subspaces become bit operations.
    """
    npoints = p ** n
    k = len(basis)
    if k == 0:
        return 1  # just the zero vector, index 0
    pts = point_coords(np.arange(p**k), k, p) @ np.array(basis, dtype=np.int64) % p
    powers = p ** np.arange(n, dtype=np.int64)
    idx = pts @ powers
    mask = np.zeros(npoints, dtype=bool)
    mask[idx] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
