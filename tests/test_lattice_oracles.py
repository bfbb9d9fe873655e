"""Lattice enumeration against the point-set oracles, plus lattice laws."""

import hashlib
import json
from collections import OrderedDict

import numpy as np
import pytest
from helpers import point_set, rebased

from modcheck import lattice, oracles
from modcheck.corpus import truncated_poly_algebra, truncated_poly_module
from modcheck.errors import TooLarge
from modcheck.modules import RepModule, Submodule, direct_sum
from modcheck.properties import lattice_of, property_report
from modcheck.verify import VerifyConfig, verify_claims


def test_lattice_members_equal_brute_submodules_everywhere(base_fixtures):
    for fx in base_fixtures:
        lat = lattice_of(fx.module)
        brute = oracles.brute_submodules(fx.module)
        engine = {point_set(m, fx.module) for m in lat.members}
        assert engine == set(brute), fx.name
        assert len(lat.members) == fx.expected_value("submodule_count"), fx.name


def test_hasse_edges_are_covers(fixtures_by_name):
    for name in ("tri4_f2", "tri4_f3", "chain_f2_k4", "semisimple3_f2"):
        M = fixtures_by_name[name].module
        lat = lattice_of(M)
        for i, j in lat.hasse_edges:
            assert lat.leq(i, j) and i != j
            between = [
                k
                for k in range(len(lat.members))
                if k not in (i, j) and lat.leq(i, k) and lat.leq(k, j)
            ]
            assert not between, (name, i, j)


def test_join_is_the_smallest_containing_member(fixtures_by_name):
    for name in ("tri4_f3", "chain_f2_k4", "semisimple3_f2"):
        lat = lattice_of(fixtures_by_name[name].module)
        n = len(lat.members)
        for i in range(n):
            for j in range(n):
                k = lat.join(i, j)
                assert lat.leq(i, k) and lat.leq(j, k)
                smaller = [
                    t
                    for t in range(n)
                    if t != k and lat.leq(i, t) and lat.leq(j, t) and lat.leq(t, k)
                ]
                assert not smaller, (name, i, j)


def test_lattice_cap_is_enforced():
    from modcheck.corpus import fixture_by_name

    M = fixture_by_name("tri4_f2").module
    with pytest.raises(TooLarge):
        lattice_of(M, cap_dim=2)


def test_submodule_counts_for_squares_match_golden(fixtures_by_name):
    # frozen counts double as a regression net for the lattice walker
    known = {
        "chain_f2_k1_sq": 5,
        "chain_f3_k1_sq": 6,
        "mat2_simple_f2_sq": 5,
    }
    for name, count in known.items():
        lat = lattice_of(fixtures_by_name[name].module)
        assert len(lat.members) == count, name


@pytest.fixture
def enumerations(monkeypatch):
    """Record the module of every enumeration, on an empty lattice memo,
    with the memo size seen at each one."""
    calls, sizes = [], []
    enumerate_submodules = lattice.enumerate_submodules

    def counting(M, *args, **kwargs):
        calls.append(M)
        sizes.append(len(lattice._memo))
        return enumerate_submodules(M, *args, **kwargs)

    monkeypatch.setattr(lattice, "enumerate_submodules", counting)
    monkeypatch.setattr(lattice, "_memo", OrderedDict())
    return calls, sizes


def test_each_module_is_enumerated_once(enumerations, fixtures_by_name):
    calls, sizes = enumerations
    # the square's lattice is built from its component's by Goursat's lemma
    square, component = (fixtures_by_name[n].module for n in ("chain_f2_k3_sq", "chain_f2_k3"))
    property_report(square)
    assert calls == [square, component]

    # exchange-property revisits the squares summand-closure enumerated
    lattice._memo.clear()
    calls.clear()
    verify_claims(VerifyConfig(only=("summand-closure", "exchange-property")))
    assert len(calls) == len(set(calls)) > 24
    assert max(sizes + [len(lattice._memo)]) <= lattice.LATTICE_MEMO_SIZE


def test_lattice_memo_is_bounded_and_caps_come_first(enumerations, monkeypatch, fixtures):
    calls, sizes = enumerations
    monkeypatch.setattr(lattice, "LATTICE_MEMO_SIZE", 3)
    modules = [fx.module for fx in fixtures if not fx.name.endswith("_sq")][:6]
    for M in modules:
        lattice_of(M)
    assert len(lattice._memo) == 3 and max(sizes) <= 3
    assert list(lattice._memo) == modules[-3:]  # least recently used dropped first

    lattice_of(modules[-1])  # a hit
    lattice_of(modules[0])  # dropped earlier, so enumerated again
    assert calls == modules + [modules[0]]

    with pytest.raises(TooLarge):  # memoized, yet still refused under a smaller cap
        lattice_of(modules[0], cap_dim=modules[0].dim - 1)


# sha256 of json.dumps(lattice.to_json(), sort_keys=True): members and
# Hasse edges, as the scalar per-point enumeration produced them
LATTICE_JSON_SHA256 = {
    "chain_f2_k1": "4a077639c4b59c7cd3910f598c816067f477cdbf173e137325b085ba44109d45",
    "chain_f2_k1_sq": "85aeefcee9e4047aba48690e98a5ad679a86753ea31d1d59827c1b57885818ca",
    "chain_f2_k2": "ccb063485ed6db5db822c6ee6092381fb0ded2a0fb2fbf55d8982c49fbd81616",
    "chain_f2_k2_sq": "e61cf06fe0ca4adbfa3dfc3967c613d79f08e122474cc600712b6c5c809b4a43",
    "chain_f2_k3": "a00f3825d0c84f44736900227bc24d15ca01b6a40925bcda4b0cbc234d294bc7",
    "chain_f2_k3_sq": "9dc8800f791e930538e5f64340de018c1b4d49cb01dfafa12a8a26d2387b0139",
    "chain_f2_k4": "229c1177f04476d6cb25e391207729b1dd103bf91d8aed38d5e0f173239e38e2",
    "chain_f2_k4_sq": "911b1b8a837781a84ad3af1436b83cacad1fa4e54c9e52cdf8553fad9ee2a1b7",
    "chain_f3_k1": "4a077639c4b59c7cd3910f598c816067f477cdbf173e137325b085ba44109d45",
    "chain_f3_k1_sq": "40b11171a5db1a33b53f40647ab8f45d6a3ad0b37f8212501911902dc39b45af",
    "chain_f3_k2": "ccb063485ed6db5db822c6ee6092381fb0ded2a0fb2fbf55d8982c49fbd81616",
    "chain_f3_k2_sq": "c9f0683bb0f7805a9bdb39a7b378b77469a8333a88175d99ccf864d895426a91",
    "chain_f3_k3": "a00f3825d0c84f44736900227bc24d15ca01b6a40925bcda4b0cbc234d294bc7",
    "chain_f3_k3_sq": "daaa2f986df1445fc8044b888e04c576cfefd2378ed5d5a7ce2afe401c7c1233",
    "chain_f3_k4": "229c1177f04476d6cb25e391207729b1dd103bf91d8aed38d5e0f173239e38e2",
    "chain_f3_k4_sq": "5ad38a4fbe3c899cab3972838f4580746b75ac7156f16801d62721f1f4a0238a",
    "mat2_simple_f2": "1b859d34b0124cba01c680240579e5d782be41dcb7a822d85cf72fd515eca2d6",
    "mat2_simple_f2_sq": "6aa4afc295ab58f8353bd49f87cb1444e242cb52be33f27c8fe6d4be309269a0",
    "semisimple2_f2": "a8dc69e620a5d9133dce9b632c1b92ca1aa1937f4878d5093c0bafc70e8c4372",
    "semisimple3_f2": "49c6db417534dd361848b8d27891ffec2698c50d81d5d10a198259758c34e66f",
    "tri4_f2": "0ceb0ba04b4092c5cf65b78d3cddcf889b99e2290e30332a63aca1263ee78820",
    "tri4_f2_sq": "6f2b5bcbc4b436d9538ec92343b6460344706c78409cf3673f08d61bbb735c71",
    "tri4_f3": "0ceb0ba04b4092c5cf65b78d3cddcf889b99e2290e30332a63aca1263ee78820",
    "tri4_f3_sq": "34a148429733522349f9f2871717f883827377e4dcab3988bc10997897712f6f",
}


def test_lattice_json_is_pinned_on_every_fixture(fixtures):
    assert {fx.name for fx in fixtures} == set(LATTICE_JSON_SHA256)
    for fx in fixtures:
        doc = json.dumps(lattice_of(fx.module).to_json(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == LATTICE_JSON_SHA256[fx.name], fx.name


def test_lattices_of_basis_changes_equal_brute_submodules(fixtures):
    # every corpus module of dimension at most 4: the brute scan of the
    # larger squares runs for seconds to minutes (tri4_f2_sq: 54 members,
    # about 110 s)
    rng = np.random.default_rng(2020)
    checked = 0
    for fx in fixtures:
        if fx.module.dim > 4:
            continue
        M = rebased(fx.module, rng)
        lat = lattice.enumerate_submodules(M)
        engine = {point_set(m, M) for m in lat.members}
        assert engine == set(oracles.brute_submodules(M)), fx.name
        assert len(lat) == len(lattice_of(fx.module)), fx.name
        checked += 1
    assert checked == 18


def test_joins_equal_the_point_set_join_on_every_lattice(fixtures):
    # and the order matrices read off containment equal their point-set
    # definitions: meeting in the zero point, joining to the full member
    for fx in fixtures:
        lat = lattice_of(fx.module)
        n = len(lat)
        engine = lat.joins(*np.indices((n, n)))
        dims = [m.dim for m in lat.members]
        for i in range(n):
            for j in range(i, n):
                k = oracles.brute_join(lat, i, j)
                assert engine[i, j] == engine[j, i] == k, (fx.name, i, j)
                disjoint = lat.bits[i] & lat.bits[j] == 1
                assert lat.disjoint[i, j] == lat.disjoint[j, i] == disjoint, (fx.name, i, j)
                cospan = k == lat.full_index
                assert lat.cospan[i, j] == lat.cospan[j, i] == cospan, (fx.name, i, j)
                complement = disjoint and dims[i] + dims[j] == fx.module.dim
                assert lat.complement[i, j] == lat.complement[j, i] == complement, (fx.name, i, j)


def test_lattice_over_a_large_prime_crosses_point_chunks():
    # F_65521 as a module over itself: 65,521 points, just under the point
    # cap, reduced in several chunks through Fermat inverses of large entries
    p = 65521
    M = truncated_poly_module(truncated_poly_algebra(p, 1), 1)
    assert p > lattice.POINT_CHUNK and p <= lattice.DEFAULT_CAP_POINTS
    lat = lattice.enumerate_submodules(M)
    assert [m.basis for m in lat.members] == [(), ((1,),)]
    assert lat.hasse_edges == ((0, 1),)


def generated_sums(fixtures) -> list:
    """Every A ⊕ B of two different corpus base modules over one algebra,
    of dimension at most 6, and one triple sum (A ⊕ B) ⊕ C."""
    base = [fx.module for fx in fixtures if not fx.name.endswith("_sq")]
    sums = [
        direct_sum(A, B).module
        for A in base
        for B in base
        if A != B and A.algebra == B.algebra and A.dim + B.dim <= 6
    ]
    by_name = {fx.name: fx.module for fx in fixtures}
    A, B, C = (by_name[n] for n in ("chain_f3_k2", "chain_f3_k1", "chain_f3_k2"))
    return sums + [direct_sum(direct_sum(A, B).module, C).module]


def test_goursat_route_equals_the_general_route(fixtures):
    squares = [fx.module for fx in fixtures if fx.name.endswith("_sq")]
    sums = generated_sums(fixtures)
    assert len(squares) == 11 and len(sums) == 21
    for M in squares + sums:
        assert lattice._block_split(M) is not None
        goursat = lattice.enumerate_submodules(M)
        general = lattice._enumerate_general(M)
        assert goursat.to_json() == general.to_json(), M
        assert goursat.bits == general.bits, M
        assert (goursat.containment == general.containment).all(), M


def test_basis_changes_of_squares_take_the_general_route(fixtures, monkeypatch):
    def refuse(*args):
        raise AssertionError("Goursat route taken by a module that is not block-diagonal")

    monkeypatch.setattr(lattice, "_enumerate_goursat", refuse)
    rng = np.random.default_rng(11)
    # the squares of dimension 2 have scalar actions in every basis
    for fx in fixtures:
        if fx.name.endswith("_sq") and 2 < fx.module.dim <= 6:
            M = rebased(fx.module, rng)
            assert lattice._block_split(M) is None, fx.name
            assert len(lattice.enumerate_submodules(M)) == len(lattice_of(fx.module)), fx.name


def test_caps_refuse_a_square_before_any_component_lattice(enumerations, fixtures_by_name):
    calls, _ = enumerations
    M = fixtures_by_name["chain_f3_k4_sq"].module
    for caps in ({"cap_dim": M.dim - 1}, {"cap_points": 3**M.dim - 1}):
        with pytest.raises(TooLarge):
            lattice_of(M, **caps)
        with pytest.raises(TooLarge):
            lattice.enumerate_submodules(M, **caps)
        assert calls == [M] and not lattice._memo, caps
        calls.clear()


def test_every_member_rebuilds_through_the_validating_constructor(fixtures):
    # members come out of the stack reductions through the trusted
    # constructor; the validating one re-reduces and re-checks closure
    modules = [fx.module for fx in fixtures] + generated_sums(fixtures)
    for M in modules:
        for member in lattice_of(M).members:
            rebuilt = Submodule(M, member.basis)
            assert rebuilt == member and rebuilt.pivots == member.pivots, (M, member.basis)


def test_every_derived_module_rebuilds_through_the_validating_constructor(
    fixtures, monkeypatch
):
    # direct sums, quotients, submodules as modules and the Goursat route's
    # component blocks come from the trusted constructor; the validating one
    # re-checks the product rule and the unity.  With an empty lattice memo
    # every fixture lattice, component lattice and interval quotient is
    # built afresh and recorded.
    built = []
    trusted = RepModule._trusted

    def recording(algebra, dim, actions):
        built.append(trusted(algebra, dim, actions))
        return built[-1]

    monkeypatch.setattr(RepModule, "_trusted", staticmethod(recording))
    monkeypatch.setattr(lattice, "_memo", OrderedDict())
    by_name = {fx.name: fx.module for fx in fixtures}
    squares = [name for name in by_name if name.endswith("_sq")]
    assert len(squares) == 11
    for name in squares:
        base = by_name[name.removesuffix("_sq")]
        assert direct_sum(base, base).module == by_name[name]
    for M in list(by_name.values()) + generated_sums(fixtures):
        for member in lattice_of(M).members:
            member.as_module()
    assert {by_name[name] for name in squares} <= set(built)
    for M in set(built):
        assert RepModule(M.algebra, M.dim, M.actions) == M


def test_containment_equals_the_scalar_subset_test(fixtures, monkeypatch):
    for fx in fixtures:
        lat = lattice_of(fx.module)
        bits = lat.bits
        scalar = [[bits[i] & ~bits[j] == 0 for j in range(len(bits))] for i in range(len(bits))]
        assert lat.containment.tolist() == scalar, fx.name
    # one row per broadcast block
    monkeypatch.setattr(lattice, "CONTAINMENT_WORDS", 1)
    M = fixtures[-1].module
    lat = lattice_of(M)
    assert (lattice._containment(lat.bits, M.field.p**M.dim) == lat.containment).all()
