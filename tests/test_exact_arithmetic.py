"""Exact layer: ℤ_(p) entries as Fractions, Prüfer components, and the ring R."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from modcheck.errors import (
    CertificateFailed,
    ShapeMismatch,
    UnresolvedDivision,
    WrongBranch,
    ZeroInput,
)
from modcheck.exact import rationals as rationals_module
from modcheck.exact.counterexample import representing_r
from modcheck.exact.endos import MultEndo, endo_is_unit
from modcheck.exact.pruefer import PrueferElement
from modcheck.exact.rationals import (
    as_fraction,
    decompose_x,
    divide,
    in_localization,
    valuation,
    xgcd,
)
from modcheck.exact.ring import RElement, UElement, sample_relements, sample_uelements

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=60
)
nonzero_rationals = rationals.filter(lambda x: x != 0)


@given(nonzero_rationals, st.sampled_from((2, 3, 5)))
@settings(max_examples=200, deadline=None)
def test_valuation_strips_exactly(x, p):
    v = valuation(x, p)
    reduced = x / Fraction(p) ** v
    assert valuation(reduced, p) == 0
    assert reduced.numerator % p != 0 and reduced.denominator % p != 0


@given(nonzero_rationals, nonzero_rationals, st.sampled_from((2, 3)))
@settings(max_examples=150, deadline=None)
def test_valuation_is_additive_on_products(x, y, p):
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_valuation_of_zero_is_an_error():
    with pytest.raises(ZeroInput):
        valuation(Fraction(0), 2)


@given(st.integers(1, 500), st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_xgcd_bezout_identity(a, b):
    g, u, v = xgcd(a, b)
    assert u * a + v * b == g
    assert a % g == 0 and b % g == 0


def test_in_localization():
    assert in_localization(Fraction(3, 5), 2)
    assert not in_localization(Fraction(3, 4), 2)
    assert in_localization(Fraction(0), 7)


def test_localized_division_certifies_or_refuses():
    with pytest.raises(UnresolvedDivision, match=r"^unresolved: 1 / 2 = 1/2 leaves Z_\(2\)$"):
        divide(Fraction(1), Fraction(2), 2)  # 1/2 leaves Z_(2)
    with pytest.raises(UnresolvedDivision, match=r"^unresolved: 1 / 0 in Z_\(2\)$"):
        divide(Fraction(1), Fraction(0), 2)
    assert divide(Fraction(1), Fraction(5), 2) == Fraction(1, 5)
    assert type(divide(1, 5, 2)) is Fraction


def test_localized_rational_rejects_foreign_denominators():
    for build in (
        lambda: RElement(2, 3, Fraction(1, 2), 0, 1),
        lambda: RElement(2, 3, 1, 0, Fraction(1, 3)),
        lambda: UElement.of(2, 3, Fraction(1, 2)),
    ):
        with pytest.raises(ShapeMismatch, match="denominator divisible by"):
            build()
    # ints are coerced: every component is stored as a Fraction
    r = RElement(2, 3, 1, 0, 1)
    assert all(type(x) is Fraction for x in (r.a, r.b, r.c, UElement.of(2, 3, 1).a))


@given(nonzero_rationals)
@settings(max_examples=200, deadline=None)
def test_decompose_x_reconstructs(x):
    p, q = 2, 3
    if not in_localization(x, p) or valuation(x, q) >= 0:
        return
    m, n, t, s = decompose_x(x, p, q)
    assert x == Fraction(p) ** m * Fraction(t, s) / Fraction(q) ** n
    assert m >= 0 and n > 0
    for part in (t, s):
        assert part % p != 0 and part % q != 0


def test_decompose_x_rejects_the_direct_branch():
    with pytest.raises(WrongBranch):
        decompose_x(Fraction(3, 5), 2, 3)  # v_3 >= 0: no q-denominator to clear
    with pytest.raises(WrongBranch):
        decompose_x(Fraction(1, 2), 2, 3)  # not even in Z_(2)
    with pytest.raises(ZeroInput):
        decompose_x(Fraction(0), 2, 3)


def test_decompose_x_checks_raise_rather_than_assert(monkeypatch):
    # Explicit raises, so the reconstruction check also runs under python -O.
    real = rationals_module.valuation
    monkeypatch.setattr(
        rationals_module, "valuation", lambda x, prime: real(x, prime) + (prime == 2)
    )
    with pytest.raises(CertificateFailed):
        decompose_x(Fraction(4, 3), 2, 3)


# -- Prüfer component ---------------------------------------------------------


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_pruefer_addition_matches_rational_addition(x, y):
    q = 3
    a = PrueferElement.from_rational(q, x)
    b = PrueferElement.from_rational(q, y)
    assert a + b == PrueferElement.from_rational(q, x + y)
    assert (a - a).is_zero()


@given(rationals)
@settings(max_examples=150, deadline=None)
def test_pruefer_representative_differs_by_a_localized_rational(x):
    q = 2
    a = PrueferElement.from_rational(q, x)
    diff = x - a.representative()
    assert diff == 0 or valuation(diff, q) >= 0
    rep = a.representative()
    assert 0 <= rep < 1


def test_pruefer_canonical_form_and_order():
    a = PrueferElement.from_rational(3, Fraction(5, 9))
    assert (a.n, a.k) == (2, 5)
    assert a.order() == 9
    b = PrueferElement.from_rational(3, Fraction(1, 3))
    assert a + b == PrueferElement.from_rational(3, Fraction(8, 9))
    # 5/9 + 4/9 = 1 vanishes in the quotient
    assert (a + PrueferElement.from_rational(3, Fraction(4, 9))).is_zero()
    with pytest.raises(ShapeMismatch):
        PrueferElement(3, 2, 6)  # 6/9 is not in lowest canonical form


def test_pruefer_scale_respects_localization():
    a = PrueferElement.from_rational(3, Fraction(1, 9))
    assert a.scale(Fraction(5)) == PrueferElement.from_rational(3, Fraction(5, 9))
    assert a.scale(Fraction(9)).is_zero()
    with pytest.raises(ShapeMismatch):
        a.scale(Fraction(1, 3))
    zero = PrueferElement.zero(3)
    assert zero.scale(Fraction(1, 3)).is_zero()  # 0 scales by anything


# Fraction oracle for the integer arithmetic on k/q^n: every operation must
# land on the class that from_rational gives for the rational result.

primes_q = st.sampled_from((2, 3, 5, 7))


@st.composite
def q_and_rationals(draw, count):
    """q and rationals whose denominators carry q^0 .. q^6 times a cofactor."""
    q = draw(primes_q)
    xs = [
        Fraction(
            draw(st.integers(-(q**7), q**7)),
            q ** draw(st.integers(0, 6)) * draw(st.integers(1, 12)),
        )
        for _ in range(count)
    ]
    return (q, *xs)


def q_units(q):
    """c ∈ ℤ_(q): the denominator is coprime to q."""
    return st.builds(
        lambda num, j, r: Fraction(num, q * j + r),
        st.integers(-(q**7), q**7),
        st.integers(0, 6),
        st.integers(1, q - 1),
    )


@given(q_and_rationals(2))
@settings(max_examples=300, deadline=None)
def test_pruefer_negation_and_difference_match_fractions(args):
    q, x, y = args
    a = PrueferElement.from_rational(q, x)
    b = PrueferElement.from_rational(q, y)
    assert -a == PrueferElement.from_rational(q, -x)
    assert a - b == PrueferElement.from_rational(q, x - y)
    assert a + b == PrueferElement.from_rational(q, x + y)


@given(st.data(), q_and_rationals(1))
@settings(max_examples=300, deadline=None)
def test_pruefer_scale_matches_fractions(data, args):
    q, x = args
    c = data.draw(q_units(q))
    a = PrueferElement.from_rational(q, x)
    assert a.scale(c) == PrueferElement.from_rational(q, x * c)


@given(primes_q)
def test_pruefer_zero_scales_by_anything(q):
    zero = PrueferElement.zero(q)
    assert zero.scale(Fraction(1, q)).is_zero()
    with pytest.raises(ShapeMismatch):
        PrueferElement.from_rational(q, Fraction(1, q)).scale(Fraction(1, q))


def test_pruefer_refuses_non_canonical_pairs():
    for n, k in ((2, 6), (1, 3), (1, 0), (0, 1), (2, 9), (-1, 0)):
        with pytest.raises(ShapeMismatch):
            PrueferElement(3, n, k)


@given(st.data(), st.sampled_from(((2, 3), (3, 2), (2, 5), (5, 3))))
@settings(max_examples=300, deadline=None)
def test_uelement_scale_matches_fractions_or_refuses(data, pq):
    p, q = pq
    a = data.draw(st.fractions(max_denominator=60).filter(lambda v: in_localization(v, p)))
    beta = Fraction(data.draw(st.integers(0, q**4)), q ** data.draw(st.integers(0, 4)))
    f = data.draw(q_units(q))
    u = UElement.of(p, q, a, beta)
    if in_localization(a * f, p):
        assert u.scale(f) == UElement.of(p, q, a * f, beta * f)
    else:
        with pytest.raises(ShapeMismatch):
            u.scale(f)


def test_uelement_scale_refuses_leaving_the_localizations():
    with pytest.raises(ShapeMismatch):
        UElement.generator(2, 3).scale(Fraction(1, 2))  # 1/2 leaves Z_(2)
    with pytest.raises(ShapeMismatch):
        UElement.of(2, 3, 0, Fraction(1, 3)).scale(Fraction(1, 3))  # q-denominator on β
    assert UElement.of(2, 3, 2).scale(Fraction(1, 2)) == UElement.generator(2, 3)
    assert UElement.of(2, 3, 0).scale(Fraction(1, 3)).is_zero()


# The Prüfer operations build their results through ``_reduced``, past the
# validating constructor, and the ring operations through the RElement and
# UElement constructors.  Every such result must equal its rebuild through
# the public constructors, with every ℤ_(p) and ℤ_(q) component a Fraction,
# and a raw rational operand must still be checked.

prime_pairs = st.sampled_from(((2, 3), (3, 2), (2, 5), (5, 3)))


def localized_at(p):
    """x ∈ ℤ_(p): the denominator is coprime to p."""
    return st.builds(
        lambda num, j, r: Fraction(num, p * j + r),
        st.integers(-(p**6), p**6),
        st.integers(0, 8),
        st.integers(1, p - 1),
    )


def pruefer_rationals(q):
    return st.builds(
        lambda k, n, c: Fraction(k, q**n * c),
        st.integers(-(q**5), q**5),
        st.integers(0, 4),
        st.integers(1, 6),
    )


def revalidated(e):
    """e rebuilt through the public, validating constructors."""
    if isinstance(e, PrueferElement):
        return PrueferElement(e.q, e.n, e.k)
    if isinstance(e, RElement):
        return RElement(e.p, e.q, e.a, e.b, e.c)
    return UElement(e.p, e.q, e.a, revalidated(e.beta))


def localized_components(e):
    """The ℤ_(p) and ℤ_(q) components of a ring or module element."""
    return (e.a, e.c) if isinstance(e, RElement) else (e.a,)


@seed(20240)
@given(st.data(), prime_pairs)
@settings(max_examples=300, deadline=None)
def test_closed_operations_equal_their_validated_rebuilds(data, pq):
    p, q = pq
    a, b = (data.draw(localized_at(p)) for _ in range(2))
    c, d = (data.draw(localized_at(q)) for _ in range(2))
    beta, gamma = (
        PrueferElement.from_rational(q, data.draw(pruefer_rationals(q))) for _ in range(2)
    )
    u = UElement(p, q, a, beta)
    v = UElement(p, q, b, gamma)
    r = RElement(p, q, b, data.draw(pruefer_rationals(q)), c)
    s = RElement(p, q, a, data.draw(pruefer_rationals(q)), d)
    # f ∈ ℤ_(p) ∩ ℤ_(q), so u·f is defined on both components
    f = Fraction(
        data.draw(st.integers(-(p**4), p**4)), data.draw(st.sampled_from((1, 7, 11, 77)))
    )
    pruefer_results = (
        beta + gamma, beta - gamma, -beta, beta.scale(c),
        PrueferElement.from_rational(q, data.draw(pruefer_rationals(q))),
    )
    ring_results = (u + v, u - v, -u, u.act(r), u.scale(f), r + s, r * s, -r)
    for e in pruefer_results + ring_results:
        assert e == revalidated(e)
    for e in ring_results:
        assert all(type(x) is Fraction for x in localized_components(e))


@seed(20241)
@given(st.data(), prime_pairs)
@settings(max_examples=200, deadline=None)
def test_raw_rational_operands_are_still_validated(data, pq):
    p, q = pq
    a = data.draw(localized_at(p))
    beta = data.draw(pruefer_rationals(q))
    u = UElement.of(p, q, a, beta)
    if in_localization(a / p, p):
        assert u.scale(Fraction(1, p)) == UElement.of(p, q, a / p, beta / p)
    else:
        with pytest.raises(ShapeMismatch, match=rf"not in Z_\({p}\)"):
            u.scale(Fraction(1, p))
    if u.beta.is_zero():
        assert u.scale(Fraction(1, q)) == UElement.of(p, q, a / q)
    else:
        with pytest.raises(ShapeMismatch, match=rf"not defined on Q/Z_\({q}\)"):
            u.scale(Fraction(1, q))
        with pytest.raises(ShapeMismatch, match=rf"not defined on Q/Z_\({q}\)"):
            u.beta.scale(Fraction(1, q))
    # f·a is checked before β: 1/(p·q) fails on both, and the ℤ_(p) error wins
    w = UElement.of(p, q, 1, Fraction(1, q))
    with pytest.raises(ShapeMismatch, match=rf"not in Z_\({p}\)"):
        w.scale(Fraction(1, p * q))
    c = data.draw(localized_at(q))
    for leaves in (
        lambda: RElement(p, q, a + Fraction(1, p), 0, c),
        lambda: RElement(p, q, a - Fraction(1, p), 0, c),
        lambda: RElement(p, q, a, 0, c + Fraction(1, q)),
        lambda: UElement.of(p, q, a + Fraction(1, p)),
    ):
        with pytest.raises(ShapeMismatch):
            leaves()  # a ± 1/p always has p in its denominator, c + 1/q has q
    with pytest.raises(ShapeMismatch):
        u + UElement.of(q, p, 1)  # elements over different prime pairs


# -- the ring R and the module U ----------------------------------------------


def test_relement_multiplication_is_associative_on_samples():
    rs = sample_relements(2, 3)[:6]
    for a in rs:
        for b in rs:
            for c in rs:
                assert (a * b) * c == a * (b * c)


def test_relement_one_is_neutral_and_addition_commutes():
    p, q = 2, 3
    one = RElement.one(p, q)
    rs = sample_relements(p, q)
    for r in rs:
        assert one * r == r and r * one == r
        for s in rs[:4]:
            assert r + s == s + r
            assert (r + s) * rs[2] == r * rs[2] + s * rs[2]


def test_uelement_action_is_a_module_action_on_samples():
    p, q = 2, 3
    us = sample_uelements(p, q)[:5]
    rs = sample_relements(p, q)[:5]
    for u in us:
        for r in rs:
            for s in rs:
                assert u.act(r).act(s) == u.act(r * s)
                assert u.act(r + s) == u.act(r) + u.act(s)
    one = RElement.one(p, q)
    for u in us:
        assert u.act(one) == u


def test_uelement_generator_reaches_every_sample():
    p, q = 2, 3
    gen = UElement.generator(p, q)
    for u in sample_uelements(p, q):
        r = representing_r(u)
        assert gen.act(r) == u


def test_mixed_prime_pairs_are_rejected():
    with pytest.raises(ShapeMismatch):
        RElement.one(2, 3) + RElement.one(2, 5)
    with pytest.raises(ShapeMismatch):
        UElement.generator(2, 3).act(RElement.one(3, 2))


def test_as_fraction_accepts_strings_and_integers():
    assert as_fraction("7/5") == Fraction(7, 5)
    assert as_fraction(4) == Fraction(4)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ShapeMismatch):
        as_fraction(1.5)


# -- identities of u ↦ u·x that the exact backend uses without re-checking ----
#
# For x ∈ ℤ_(p) ∩ ℤ_(q), u ↦ u·x is right multiplication by the central
# scalar diag(x, x) of R.  The engine builds MultEndo(p, q, x) and certifies
# units by valuations alone, so these identities are checked here, once.


def central_scalars(p, q):
    """x ∈ ℤ_(p) ∩ ℤ_(q): the denominator is coprime to p·q."""
    return st.builds(
        Fraction,
        st.integers(-((p * q) ** 4), (p * q) ** 4),
        st.integers(1, 200).filter(lambda d: gcd(d, p * q) == 1),
    )


def uelements(p, q):
    return st.builds(
        lambda a, beta: UElement.of(p, q, a, beta), localized_at(p), pruefer_rationals(q)
    )


def relements(p, q):
    return st.builds(
        lambda a, b, c: RElement(p, q, a, b, c),
        localized_at(p),
        pruefer_rationals(q),
        localized_at(q),
    )


@st.composite
def mult_endo_cases(draw):
    """(p, q, x, u, v, r): a scalar x, two elements of U and one of R."""
    p, q = draw(prime_pairs)
    u, v = draw(uelements(p, q)), draw(uelements(p, q))
    return p, q, draw(central_scalars(p, q)), u, v, draw(relements(p, q))


@seed(20242)
@given(mult_endo_cases())
@settings(max_examples=300, deadline=None)
def test_mult_endo_is_r_linear_and_additive(case):
    p, q, x, u, v, r = case
    h = MultEndo(p, q, x)
    assert h.apply(u.act(r)) == h.apply(u).act(r), "h(u·r) != h(u)·r"
    assert h.apply(u + v) == h.apply(u) + h.apply(v), "h(u + v) != h(u) + h(v)"


@seed(20243)
@given(mult_endo_cases())
@settings(max_examples=200, deadline=None)
def test_complementary_scalars_sum_to_the_identity(case):
    # the non-local witness checks x + y = 1 and nothing more
    p, q, x, u, _, _ = case
    assert MultEndo(p, q, x).apply(u) + MultEndo(p, q, 1 - x).apply(u) == u


@seed(20244)
@given(nonzero_rationals, prime_pairs)
@settings(max_examples=300, deadline=None)
def test_valuation_of_the_inverse_is_the_negative(x, pq):
    for prime in pq:
        assert valuation(1 / x, prime) == -valuation(x, prime)


@seed(20245)
@given(mult_endo_cases())
@settings(max_examples=200, deadline=None)
def test_a_unit_scalar_is_undone_by_its_inverse(case):
    p, q, x, u, _, _ = case
    if x == 0 or valuation(x, p) or valuation(x, q):
        return
    h = MultEndo(p, q, x)
    assert endo_is_unit(h).is_unit
    assert MultEndo(p, q, 1 / x).apply(h.apply(u)) == u
