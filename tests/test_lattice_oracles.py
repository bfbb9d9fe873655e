"""Lattice enumeration against the point-set oracles, plus lattice laws."""

from collections import OrderedDict

import pytest
from helpers import point_set

from modcheck import lattice, oracles
from modcheck.errors import TooLarge
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
    property_report(fixtures_by_name["chain_f2_k3_sq"].module)
    assert len(calls) == len(set(calls)) == 1

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
