"""Brute-force oracles, deliberately independent of the engine's internals.

These recompute the same answers the engine produces, but from first
principles: submodules as literal point sets closed under addition and
the action, hom spaces as filtered scans over every matrix, smallness
and essentiality straight from their quantifier definitions, and ring
locality from pairwise sums of non-units with invertibility decided by
an exact integer determinant.  They exist to pin golden values and to
back the agreement tests; they are only expected to be fast on the
small corpus instances (dims ≤ 4, p ∈ {2, 3}).

The exchange oracles are the literal scans the engine's table lookups
replace: every tuple of a product, filtered afterwards, with containment
and sums taken from the point sets (brute_join), not from the engine's
containment matrix or join table.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import TooLarge
from .modules import RepModule

BRUTE_HOM_CAP = 1 << 20


def _add(v, w, p):
    return tuple((a + b) % p for a, b in zip(v, w))


def closure(M: RepModule, seed) -> frozenset:
    """Smallest point set containing ``seed`` closed under + and the action."""
    p = M.algebra.field.p
    zero = tuple(0 for _ in range(M.dim))
    points = set(seed)
    points.add(zero)
    changed = True
    while changed:
        changed = False
        current = list(points)
        for v in current:
            for i in range(M.algebra.dim):
                u = M.act(v, i)
                if u not in points:
                    points.add(u)
                    changed = True
            for w in current:
                u = _add(v, w, p)
                if u not in points:
                    points.add(u)
                    changed = True
    return frozenset(points)


def brute_submodules(M: RepModule) -> tuple:
    """Every submodule of M as a point set, by closing unions to a fixed point.

    Starts from the cyclic closures of single points and repeatedly closes
    pairwise unions until nothing new appears.  Sorted by (size, points).
    """
    p = M.algebra.field.p
    if p**M.dim > 1 << 12:
        raise TooLarge("brute submodule scan", p**M.dim, 1 << 12)
    all_points = [tuple(v) for v in product(range(p), repeat=M.dim)]
    found = {closure(M, [pt]) for pt in all_points}
    while True:
        fresh = set()
        pool = list(found)
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                u = closure(M, pool[i] | pool[j])
                if u not in found:
                    fresh.add(u)
        if not fresh:
            break
        found |= fresh
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def sumset(a: frozenset, b: frozenset, p: int) -> frozenset:
    return frozenset(_add(v, w, p) for v in a for w in b)


def brute_is_small(M: RepModule, n_points: frozenset, subs=None) -> bool:
    """N + X ≠ M for every proper submodule X, by literal sumsets."""
    p = M.algebra.field.p
    subs = brute_submodules(M) if subs is None else subs
    full = subs[-1]
    for x in subs:
        if x == full:
            continue
        if sumset(n_points, x, p) == full:
            return False
    return True


def brute_is_essential(M: RepModule, n_points: frozenset, subs=None) -> bool:
    """N meets every nonzero submodule in a nonzero point."""
    subs = brute_submodules(M) if subs is None else subs
    for x in subs:
        if len(x) == 1:
            continue
        if len(n_points & x) == 1:
            return False
    return True


def brute_is_hollow(M: RepModule, subs=None) -> bool:
    """Nonzero, and every proper submodule is small (all by point sets)."""
    subs = brute_submodules(M) if subs is None else subs
    if len(subs[-1]) == 1:
        return False
    return all(brute_is_small(M, x, subs) for x in subs[:-1])


def brute_is_uniform(M: RepModule, subs=None) -> bool:
    """Nonzero, and every pair of nonzero submodules intersects nontrivially."""
    subs = brute_submodules(M) if subs is None else subs
    if len(subs[-1]) == 1:
        return False
    nonzero = [x for x in subs if len(x) > 1]
    return all(len(a & b) > 1 for a in nonzero for b in nonzero)


def brute_is_uniserial(M: RepModule, subs=None) -> bool:
    """The submodule point sets form a chain under inclusion."""
    subs = brute_submodules(M) if subs is None else subs
    return all(a <= b or b <= a for a in subs for b in subs)


def brute_hom_matrices(source: RepModule, target: RepModule, cap: int = BRUTE_HOM_CAP) -> tuple:
    """All matrices H with A_i·H = H·B_i for every action pair, by scanning.

    Returns the full set (not a basis), sorted, as tuples of row tuples.
    """
    p = source.algebra.field.p
    n, m = source.dim, target.dim
    total = p ** (n * m)
    if total > cap:
        raise TooLarge("brute hom scan", total, cap)
    if n == 0 or m == 0:
        return (tuple(tuple() for _ in range(n)),) if total >= 1 else ()
    coords = np.arange(total, dtype=np.int64)
    digits = np.empty((total, n * m), dtype=np.int64)
    for k in range(n * m):
        digits[:, k] = coords % p
        coords //= p
    mats = digits.reshape(total, n, m)
    keep = np.ones(total, dtype=bool)
    for i in range(source.algebra.dim):
        A = np.array(source.actions[i], dtype=np.int64)
        B = np.array(target.actions[i], dtype=np.int64)
        lhs = np.einsum("rs,tsm->trm", A, mats) % p
        rhs = (mats @ B) % p
        keep &= np.all(lhs == rhs, axis=(1, 2))
    out = [
        tuple(tuple(int(x) for x in row) for row in mats[t])
        for t in np.flatnonzero(keep)
    ]
    return tuple(sorted(out))


def _bareiss_det(rows) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def brute_is_invertible(matrix, p: int) -> bool:
    return _bareiss_det(matrix) % p != 0


def brute_is_local(matrices, p: int, dim: int) -> bool:
    """Non-units closed under addition, decided pairwise from determinants."""
    nonunits = [m for m in matrices if not brute_is_invertible(m, p)]
    for a in nonunits:
        for b in nonunits:
            s = tuple(
                tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
            if brute_is_invertible(s, p):
                return False
    return True


def brute_join(lat, i: int, j: int) -> int:
    """The sum of members i and j, by a scan of the point sets: members are
    ordered by dimension, so the first one whose point set contains the
    union is the smallest submodule containing both."""
    bits = lat.bits
    union = bits[i] | bits[j]
    return next(k for k in range(max(i, j), len(bits)) if union | bits[k] == bits[k])


class PointSetTables:
    """Dimensions, members below each member and sums of one lattice, read
    off its point sets on first use and then remembered.  Callers that run
    the exchange oracles over many pairs of one lattice create one and
    pass it to each call."""

    def __init__(self, lat):
        self.lat = lat
        self.dims = [m.dim for m in lat.members]
        self._below = {}
        self._joins = {}

    def below(self, j: int) -> list:
        if j not in self._below:
            bits = self.lat.bits
            self._below[j] = [m for m, b in enumerate(bits) if b | bits[j] == bits[j]]
        return self._below[j]

    def join(self, i: int, j: int) -> int:
        if (i, j) not in self._joins:
            self._joins[(i, j)] = brute_join(self.lat, i, j)
        return self._joins[(i, j)]


def _direct_join(tables, start: int, rest) -> int | None:
    """Fold joins over ``rest``; None as soon as dimensions stop adding up."""
    dims = tables.dims
    acc = start
    acc_dim = dims[start]
    for i in rest:
        acc = tables.join(acc, i)
        acc_dim += dims[i]
        if dims[acc] != acc_dim:
            return None
    return acc


def brute_decompositions(lat, n: int, tables: PointSetTables | None = None) -> tuple:
    """Ordered n-part internal direct sums of the lattice's module, as index
    tuples: every n-tuple of nonzero summands, in product order, whose
    dimensions add up to the module's and whose running joins are direct.

    The product is walked in its own order, and a prefix is cut as soon as
    its dimensions overshoot or its running join stops being direct: every
    tuple that extends such a prefix fails the same test."""
    dim = lat.module.dim
    if n == 1:
        return ((lat.full_index,),) if dim > 0 else ()
    tables = tables or PointSetTables(lat)
    dims = tables.dims
    candidates = [i for i in lat.summand_indices() if dims[i] > 0]
    out = []

    def walk(prefix, acc, acc_dim):
        if len(prefix) == n:
            if acc_dim == dim:
                out.append(prefix)
            return
        for i in candidates:
            total = acc_dim + dims[i]
            if total > dim:
                continue
            join = tables.join(acc, i) if prefix else i
            if dims[join] == total:
                walk(prefix + (i,), join, total)

    walk((), None, 0)
    return tuple(out)


def brute_exchange_choice(
    lat, x: int, decomp: tuple, tables: PointSetTables | None = None
) -> tuple | None:
    """First tuple (M_i' ≤ M_i) in product order with M = X ⊕ (⊕ M_i'), or None."""
    tables = tables or PointSetTables(lat)
    dims = tables.dims
    need = lat.module.dim - dims[x]
    for choice in product(*map(tables.below, decomp)):
        if sum(map(dims.__getitem__, choice)) != need:
            continue
        if _direct_join(tables, x, choice) is not None:
            return choice
    return None
