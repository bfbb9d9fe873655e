"""Shared helpers for the test suite (not collected by pytest)."""

from itertools import product

from modcheck.linalg import inverse, mat_mul
from modcheck.modules import RepModule


def point_set(member, M):
    """All points of a lattice member, as the point-set oracles represent them."""
    p = M.algebra.field.p
    pts = set()
    for coeffs in product(range(p), repeat=member.dim):
        v = [0] * M.dim
        for c, row in zip(coeffs, member.basis):
            for j in range(M.dim):
                v[j] = (v[j] + c * row[j]) % p
        pts.add(tuple(v))
    return frozenset(pts)


def rebased(M, rng):
    """M in a seeded random basis: actions P A P^-1 for an invertible P."""
    p, n = M.field.p, M.dim
    while True:
        P = tuple(map(tuple, rng.integers(0, p, size=(n, n)).tolist()))
        Pinv = inverse(P, p)
        if Pinv is not None:
            break
    actions = tuple(mat_mul(mat_mul(P, A, p), Pinv, p) for A in M.actions)
    return RepModule(M.algebra, n, actions)
