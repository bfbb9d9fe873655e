"""Property verdicts against their literal definitions on the whole corpus.

The smallness and essentiality scans are checked for every (module,
submodule) pair the lattice produces, against the sumset/intersection
oracles that know nothing about radicals or socles.
"""

import hashlib
import json

import pytest

from modcheck import oracles
from modcheck.errors import ZeroModule
from modcheck.corpus import truncated_poly_algebra, truncated_poly_module
from modcheck.modules import make_submodule, quotient_module, row_module
from modcheck.properties import (
    hollow_scan,
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
    uniform_scan,
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


def test_interval_reads_equal_the_scans_of_each_members_own_lattice(fixtures):
    # the submodules of a member are the members below it; every proper
    # summand of every square, and every nonzero member of the smaller ones
    verdicts = []
    for fx in fixtures:
        if not fx.name.endswith("_sq"):
            continue
        lat = lattice_of(fx.module)
        summands = set(lat.summand_indices()) - {lat.zero_index, lat.full_index}
        for i in range(1, len(lat)):
            if i in summands or fx.module.dim <= 6:
                piece = lattice_of(lat.members[i].as_module())
                hollow, uniform = hollow_scan(lat, i), uniform_scan(lat, i)
                assert (hollow, uniform) == (hollow_scan(piece), uniform_scan(piece)), (fx.name, i)
                verdicts.append((i in summands, hollow, uniform))
        with pytest.raises(ZeroModule):
            hollow_scan(lat, lat.zero_index)
        with pytest.raises(ZeroModule):
            uniform_scan(lat, lat.zero_index)
    assert verdicts.count((True, True, True)) == 215
    assert {v[1:] for v in verdicts} == {(True, True), (False, False)}


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


def _scan_pin_modules(fixtures):
    """Every corpus fixture, the zero module and the failing chain pairs of
    test_chain_pairs_lift_exactly_when_lengths_are_adjacent, by name."""
    from modcheck.algebra import shaped_matrix_algebra
    from modcheck.field import PrimeField
    from modcheck.modules import direct_sum

    modules = {fx.name: fx.module for fx in fixtures}
    modules["zero"] = row_module(shaped_matrix_algebra(PrimeField(2), ((1, 1), (0, 1))), 0)
    for p in (2, 3):
        alg = truncated_poly_algebra(p, 4)
        for ka, kb in ((1, 3), (2, 4)):
            modules[f"chain_pair_f{p}_{ka}_{kb}"] = direct_sum(
                truncated_poly_module(alg, ka), truncated_poly_module(alg, kb)
            ).module
    return modules


def _scan_pin_doc(lat):
    from modcheck.properties import (
        extending_scan,
        hollow_scan,
        indecomposable_scan,
        lifting_scan,
        uniform_scan,
        uniserial_scan,
    )

    def verdict(scan):
        try:
            return scan(lat)
        except ZeroModule:
            return "ZeroModule"

    return {
        "lifting": lifting_scan(lat).to_json(),
        "extending": extending_scan(lat).to_json(),
        "radical": lat.radical_index(),
        "socle": lat.socle_index(),
        "complements": [lat.complement_index(i) for i in range(len(lat))],
        "hollow": verdict(hollow_scan),
        "uniform": verdict(uniform_scan),
        "uniserial": uniserial_scan(lat),
        "indecomposable": indecomposable_scan(lat),
    }


# sha256 of json.dumps(_scan_pin_doc(lat), sort_keys=True): the lifting and
# extending reports with their witnesses, radical, socle, first complements
# and the hollow/uniform/uniserial/indecomposable verdicts
SCAN_PIN_SHA256 = {
    "chain_f2_k1": "2b47e1dda78793ada848282bcdb5afa5ef060b5e14b55dbff0540a76d27afceb",
    "chain_f2_k1_sq": "de7fdf3c8b12bf1490792c49a50110012691f6a6e79f1fc2b4d3b03336c905da",
    "chain_f2_k2": "7f624a91435d5c255368bd14df80345b4c217eecf2bfc37c94eee738e8990d18",
    "chain_f2_k2_sq": "755924340d76f8623255b4f8b0daa28899f98d22b50431ae0fbba21dabb20d9d",
    "chain_f2_k3": "93d7f5e838303ed1c7743f768a983a55181fa992f29a195e1dabaa1d23174551",
    "chain_f2_k3_sq": "0b98720c7f18ee83b5cf4e6bb856e481b3233f38930c2034c1d29da61fe87c07",
    "chain_f2_k4": "32db1cf0ece9eb576dbe1d02abd443ecf2bb082d6524d6fa0b28a700e0bc1eb4",
    "chain_f2_k4_sq": "8113c611ddfeff53695fb4e817994561e91efb916a8a9624189a90b33dae1bdf",
    "chain_f3_k1": "2b47e1dda78793ada848282bcdb5afa5ef060b5e14b55dbff0540a76d27afceb",
    "chain_f3_k1_sq": "4fa9aa3e6477623941aadbe03c62a7014cc1be1ff0d70561ff05448a1bef8825",
    "chain_f3_k2": "7f624a91435d5c255368bd14df80345b4c217eecf2bfc37c94eee738e8990d18",
    "chain_f3_k2_sq": "1ac0b6fcdf71850f6b699fe184a2e0feb011825d06379f29181028b74726ea20",
    "chain_f3_k3": "93d7f5e838303ed1c7743f768a983a55181fa992f29a195e1dabaa1d23174551",
    "chain_f3_k3_sq": "9ea8a3f8482b3e258d83e8939a646c4626048e1e97f7419b0b6ba3201bedaa56",
    "chain_f3_k4": "32db1cf0ece9eb576dbe1d02abd443ecf2bb082d6524d6fa0b28a700e0bc1eb4",
    "chain_f3_k4_sq": "5d5bb91a0309c97339c74dec57709ace3deb75a4cc85735d472abb9358acf04d",
    "chain_pair_f2_1_3": "72387cfe5b8f5acef82d7441e93ac300fe7a7ad290dabbd9587c44b7418970c8",
    "chain_pair_f2_2_4": "f888f09631f3362e14005dca91f64972395d98b31e3b849f603353a866a5c564",
    "chain_pair_f3_1_3": "a92d46945680642c270e52f1ddbffe5fae1fd0bb3b15870d42d22b3fe62677fc",
    "chain_pair_f3_2_4": "fa5a9901a79834eb9018708a288dc1d6a1644217daa90d5b2792fec9a20a1fd6",
    "mat2_simple_f2": "2b47e1dda78793ada848282bcdb5afa5ef060b5e14b55dbff0540a76d27afceb",
    "mat2_simple_f2_sq": "de7fdf3c8b12bf1490792c49a50110012691f6a6e79f1fc2b4d3b03336c905da",
    "semisimple2_f2": "7b0e336af6d870dc5493017ffbfead94aec2fa6a64dd8cc064a69c54846e1470",
    "semisimple3_f2": "2b0be26966eeec33c0e57be04ac50403a40e8009cc920acf6a5266e95c5c8ce3",
    "tri4_f2": "95b55a27b9ba3ad0c3269a0381b9c9ff4937568c6a482c1297294033c0006edc",
    "tri4_f2_sq": "51de67c67d4aaaf8a9697bd84f806716358939834f80dd2b758a95677ba6e236",
    "tri4_f3": "95b55a27b9ba3ad0c3269a0381b9c9ff4937568c6a482c1297294033c0006edc",
    "tri4_f3_sq": "7fd533075dc8bb595137d13ba17f2d636d0976f2652d6253fa732e9b62ec682d",
    "zero": "74208d9c056b3c15010cfe2eae8bf68b4e3ad593121ce5a0b5880b1847a3d7eb",
}


def test_scan_witnesses_are_pinned(fixtures):
    modules = _scan_pin_modules(fixtures)
    assert set(modules) == set(SCAN_PIN_SHA256)
    for name, M in modules.items():
        doc = json.dumps(_scan_pin_doc(lattice_of(M)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == SCAN_PIN_SHA256[name], name
