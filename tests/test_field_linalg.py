"""Field and linear-algebra kernel: canonical forms and solver laws."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcheck.errors import NonPrime
from modcheck.field import PrimeField
from modcheck.linalg import (
    in_span,
    intersect_rows,
    inverse,
    invertible_mask,
    left_kernel,
    mat_mul,
    rank,
    rref,
    rref_array,
    rref_stack,
    solve_row,
)


def test_prime_field_rejects_composites():
    PrimeField(2)
    PrimeField(13)
    for n in (0, 1, 4, 9, 15):
        with pytest.raises(NonPrime):
            PrimeField(n)


matrices = st.integers(2, 3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        ),
    )
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_rref_is_idempotent_and_canonical(pm):
    p, rows = pm
    rows = tuple(tuple(r) for r in rows)
    red, piv = rref(rows, p)
    again, piv2 = rref(red, p)
    assert red == again and piv == piv2
    # every pivot column has a single 1
    for r, c in enumerate(piv):
        col = [row[c] for row in red]
        assert red[r][c] == 1
        assert sum(col) == 1


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_left_kernel_annihilates(pm):
    p, rows = pm
    rows = tuple(tuple(r) for r in rows)
    ker = left_kernel(rows, p)
    for v in ker:
        out = [sum(x * rows[i][j] for i, x in enumerate(v)) % p for j in range(4)]
        assert not any(out)
    assert len(ker) == len(rows) - rank(rows, p)


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_solve_row_finds_members_of_the_row_space(pm):
    p, rows = pm
    rows = tuple(tuple(r) for r in rows)
    # b = sum of all rows is always solvable
    b = tuple(sum(r[j] for r in rows) % p for j in range(4))
    x = solve_row(rows, b, p)
    assert x is not None
    out = [sum(c * rows[i][j] for i, c in enumerate(x)) % p for j in range(4)]
    assert tuple(out) == b


def test_solve_row_refuses_targets_outside_a_dependent_row_space():
    # dependent rows: the reduced augmented system has a row with zero left
    # part, and every b off the line spanned by (1, 2, 0) is unsolvable
    p = 3
    rows = ((1, 2, 0), (2, 1, 0), (0, 0, 0))
    line = {tuple(c * x % p for x in (1, 2, 0)) for c in range(p)}
    for b in product(range(p), repeat=3):
        x = solve_row(rows, b, p)
        assert (x is not None) == (b in line), b
        if x is not None:
            assert tuple(sum(c * r[j] for c, r in zip(x, rows)) % p for j in range(3)) == b


def test_intersect_rows_matches_set_intersection_f2():
    p = 2
    A = ((1, 0, 0), (0, 1, 0))
    B = ((0, 1, 0), (0, 0, 1))
    meet = intersect_rows(A, B, p)
    assert meet == ((0, 1, 0),)

    def span(rows):
        from itertools import product

        out = set()
        for coeffs in product(range(p), repeat=len(rows)):
            v = tuple(
                sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(3)
            )
            out.add(v)
        return out

    meet_set = span(A) & span(B)
    assert span(meet) == meet_set


@given(matrices, matrices)
@settings(max_examples=60, deadline=None)
def test_intersect_rows_is_contained_in_both(pm1, pm2):
    p = pm1[0]
    A = tuple(tuple(r) for r in pm1[1])
    B = tuple(tuple(r) for r in pm2[1])
    meet = intersect_rows(A, B, p)
    ra, pa = rref(A, p)
    rb, pb = rref(B, p)
    for v in meet:
        assert in_span(v, ra, pa, p)
        assert in_span(v, rb, pb, p)


def test_inverse_round_trip_f5():
    p = 5
    A = ((2, 1, 0), (0, 1, 3), (1, 0, 2))  # det = 7, a unit mod 5
    Ainv = inverse(A, p)
    eye = mat_mul(A, Ainv, p)
    assert eye == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    singular = ((1, 2, 0), (0, 1, 3), (4, 0, 1))  # det = 25
    assert inverse(singular, p) is None


def test_rank_agrees_with_numpy_over_rationals_when_unimodular():
    # triangular with unit diagonal: rank is full over any field
    A = ((1, 4, 2), (0, 1, 7), (0, 0, 1))
    for p in (2, 3, 5):
        assert rank(A, p) == 3
    assert np.linalg.matrix_rank(np.array(A)) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
def test_invertible_mask_equals_full_rank_on_seeded_stacks(p):
    rng = np.random.default_rng(p % 1009)
    for n in range(1, 7):
        mats = rng.integers(0, p, size=(48, n, n), dtype=np.int64)
        # small entries make singular matrices common for every p
        mats[24:] = rng.integers(0, 2, size=(24, n, n))
        mats[0] = 0
        mats[1, n - 1] = mats[1, 0]  # repeated row (n = 1: unchanged)
        mats[2, n - 1] = mats[2, 0] * (p - 1) % p  # a multiple of another row
        before = mats.copy()
        want = [rank(tuple(map(tuple, m.tolist())), p) == n for m in mats]
        assert invertible_mask(mats, p).tolist() == want, (p, n)
        assert (mats == before).all()
        assert not want[0] and (n == 1 or not (want[1] or want[2]))


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
def test_rref_stack_equals_scalar_rref_on_seeded_stacks(p):
    rng = np.random.default_rng(p % 1013)
    for r, n in ((2, 5), (3, 7), (5, 2), (7, 3), (4, 4), (6, 6), (1, 1)):
        mats = rng.integers(0, p, size=(40, r, n), dtype=np.int64)
        # small entries make dependent rows common for every p
        mats[20:] = rng.integers(0, 2, size=(20, r, n))
        mats[0] = 0
        mats[1, r - 1] = mats[1, 0]  # repeated row (r = 1: unchanged)
        mats[2, r - 1] = mats[2, 0] * (p - 1) % p  # a multiple of another row
        before = mats.copy()
        red, ranks = rref_stack(mats, p)
        assert (mats == before).all()
        assert red.shape == mats.shape and ranks.shape == (40,)
        for m, got, k in zip(mats, red, ranks):
            want, _ = rref(tuple(map(tuple, m.tolist())), p)
            assert k == len(want), (p, r, n)
            assert tuple(map(tuple, got[:k].tolist())) == want, (p, r, n)
            assert not got[k:].any(), (p, r, n)  # zero rows sit below the pivots
        assert ranks[0] == 0 and (r == 1 or ranks[1] < r and ranks[2] < r)
        one, pivots = rref_array(mats[3], p)
        assert (one == red[3, : ranks[3]]).all()
        assert pivots == rref(tuple(map(tuple, mats[3].tolist())), p)[1]
