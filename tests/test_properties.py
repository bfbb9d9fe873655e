"""Property verdicts against their literal definitions on the whole corpus.

The smallness and essentiality scans are checked for every (module,
submodule) pair the lattice produces, against the sumset/intersection
oracles that know nothing about radicals or socles.
"""

import pytest

from modcheck import oracles
from modcheck.errors import ZeroModule
from modcheck.corpus import truncated_poly_algebra, truncated_poly_module
from modcheck.modules import make_submodule, quotient_module, row_module
from modcheck.properties import (
    is_coessential,
    is_essential,
    is_extending,
    is_hollow,
    is_lifting,
    is_small,
    is_uniform,
    is_uniserial,
    lattice_of,
    property_report,
    radical,
    socle,
)
from helpers import point_set


def test_small_and_essential_agree_with_sumset_oracle_on_all_pairs(base_fixtures):
    for fx in base_fixtures:
        M = fx.module
        lat = lattice_of(M)
        subs = oracles.brute_submodules(M)
        for member in lat.members:
            pts = point_set(member, M)
            assert is_small(member, M) == oracles.brute_is_small(M, pts, subs), (
                fx.name,
                member.basis,
            )
            assert is_essential(member, M) == oracles.brute_is_essential(
                M, pts, subs
            ), (fx.name, member.basis)


def test_coessential_agrees_with_smallness_in_the_literal_quotient(fixtures):
    """The correspondence route against the literal quotient M/X.

    For every summand X <= N of every corpus module with at most 120
    submodules, is_coessential(X, N, M) must equal the smallness of N/X in
    the quotient module built by quotient_module: by the definitional scan
    on the quotient's own lattice, and by the sumset oracle wherever the
    quotient has at most 729 points (all pairs but the 74 of tri4_f3_sq
    with X = 0, whose quotient has 6561).
    """
    pairs = brute = 0
    for fx in fixtures:
        M = fx.module
        lat = lattice_of(M)
        if len(lat.members) > 120:
            continue
        for x in lat.summand_indices():
            X = lat.members[x]
            Q, pi = quotient_module(M, X)
            use_brute = Q.field.p**Q.dim <= 729
            if use_brute:
                subs = tuple(point_set(m, Q) for m in lattice_of(Q).members)
            for N in lat.members:
                if not N.contains_submodule(X):
                    continue
                image = make_submodule(Q, [pi.apply(b) for b in N.basis])
                literal = is_small(image, Q)
                if use_brute:
                    assert literal == oracles.brute_is_small(Q, point_set(image, Q), subs)
                    brute += 1
                assert is_coessential(X, N, M) == literal, (fx.name, X.basis, N.basis)
                pairs += 1
    assert (pairs, brute) == (905, 831)


def test_radical_is_largest_small_and_socle_smallest_essential(base_fixtures):
    for fx in base_fixtures:
        M = fx.module
        lat = lattice_of(M)
        rad = radical(M)
        soc = socle(M)
        assert is_small(rad, M), fx.name
        assert is_essential(soc, M), fx.name
        for member in lat.members:
            if is_small(member, M):
                assert rad.contains_submodule(member), fx.name
            if is_essential(member, M):
                assert member.contains_submodule(soc), fx.name


def test_hollow_uniform_uniserial_match_oracles_and_expected(base_fixtures):
    for fx in base_fixtures:
        M = fx.module
        subs = oracles.brute_submodules(M)
        hollow = is_hollow(M)
        uniform = is_uniform(M)
        uniserial = is_uniserial(M)
        assert hollow == oracles.brute_is_hollow(M, subs), fx.name
        assert uniform == oracles.brute_is_uniform(M, subs), fx.name
        assert uniserial == oracles.brute_is_uniserial(M, subs), fx.name
        for prop, value in (
            ("hollow", hollow),
            ("uniform", uniform),
            ("uniserial", uniserial),
        ):
            if prop in fx.expected:
                assert value == fx.expected_value(prop), (fx.name, prop)


def test_zero_module_conventions():
    from modcheck.algebra import shaped_matrix_algebra
    from modcheck.field import PrimeField

    alg = shaped_matrix_algebra(PrimeField(2), ((1, 1), (0, 1)))
    Z = row_module(alg, 0)
    with pytest.raises(ZeroModule):
        is_hollow(Z)
    with pytest.raises(ZeroModule):
        is_uniform(Z)
    # lifting and extending hold vacuously
    assert is_lifting(Z).verdict
    assert is_extending(Z).verdict
    assert is_uniserial(Z)


def test_semisimple_fixtures_are_lifting_and_extending(fixtures_by_name):
    for name in ("semisimple2_f2", "semisimple3_f2"):
        M = fixtures_by_name[name].module
        assert is_lifting(M).verdict
        assert is_extending(M).verdict
        assert not is_hollow(M)
        assert not is_uniform(M)


def test_uniserial_chain_is_hollow_uniform_lifting_extending():
    alg = truncated_poly_algebra(3, 4)
    for k in (1, 2, 3, 4):
        C = truncated_poly_module(alg, k)
        assert is_uniserial(C)
        assert is_hollow(C) and is_uniform(C)
        assert is_lifting(C).verdict and is_extending(C).verdict


def test_property_report_records_cap_errors_not_silence():
    alg = truncated_poly_algebra(2, 4)
    M = truncated_poly_module(alg, 4)
    report = property_report(M, subject="chain", cap_dim=2)
    assert "lifting" in report.errors and "hollow" in report.errors
    assert report.errors["hollow"]["error"] == "TooLarge"
    assert "end_local" in report.verdicts  # hom caps are separate
    text = report.to_text()
    assert "skipped" in text


def test_property_report_caps_and_marks_fiep_witnesses(fixtures_by_name):
    from modcheck.summands import FIEP_WITNESS_LIMIT

    fiep = property_report(fixtures_by_name["chain_f2_k2_sq"].module).witnesses["fiep"]
    assert fiep["pairs_checked"] == 200
    assert len(fiep["witnesses"]) == FIEP_WITNESS_LIMIT == 100
    assert fiep["witnesses_truncated_to"] == FIEP_WITNESS_LIMIT

    fiep = property_report(fixtures_by_name["mat2_simple_f2_sq"].module).witnesses["fiep"]
    assert len(fiep["witnesses"]) == fiep["pairs_checked"] <= FIEP_WITNESS_LIMIT
    assert "witnesses_truncated_to" not in fiep


def test_chain_pairs_lift_exactly_when_lengths_are_adjacent():
    """C_a ⊕ C_b over F_p[x]/(x⁴) is lifting (and extending) iff |a-b| ≤ 1.

    The failing cases must also surface the violating submodule in the
    report, so a red verdict is inspectable.
    """
    from modcheck.modules import direct_sum

    for p in (2, 3):
        alg = truncated_poly_algebra(p, 4)
        for ka, kb in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
            M = direct_sum(
                truncated_poly_module(alg, ka), truncated_poly_module(alg, kb)
            ).module
            expected = abs(ka - kb) <= 1
            for rep in (is_lifting(M), is_extending(M)):
                assert rep.verdict == expected, (p, ka, kb, rep.property_name)
                if not rep.verdict:
                    assert rep.violating_basis is not None
