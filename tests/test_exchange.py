"""The table-lookup exchange scan against the literal product scans in oracles."""

import dataclasses
import hashlib
import random
import tracemalloc
from itertools import chain, product
from operator import itemgetter

import numpy as np
import pytest
from helpers import rebased

from modcheck.lattice import enumerate_submodules, lattice_of
from modcheck.oracles import (
    PointSetTables,
    _direct_join,
    brute_decompositions,
    brute_exchange_choice,
)
from modcheck import summands
from modcheck.summands import (
    DECOMP_SAMPLE_CAP,
    ExchangeWitnesses,
    FiepReport,
    _decomposition_index_tuples,
    fiep_scan,
)
from modcheck.verify import VerifyConfig, verify_claims

# witness_digest of each exchange-property check under the default
# VerifyConfig, frozen from the literal product scan.  The digest covers
# pairs_checked, the witness count and the sampled flag, so a scan that
# checks fewer pairs (orbit reduction, say) must change this table on
# purpose.
EXCHANGE_DIGESTS = {
    "exchange-property/chain_f2_k1": (
        "00e5f0c9f17eee7e8e5c4f4029fb7aac1a28cfa93f77048b8f2f6963691401cc"
    ),
    "exchange-property/chain_f2_k1_sq": (
        "1556584ef21fb8fbe81304dbd22e1eb6a477ef093070c7d8e4a6e395a1b6ff75"
    ),
    "exchange-property/chain_f2_k2": (
        "a15c23183b1ceee42376131e53feae5fff4698bb40ce2e4c9af8118a86beab8d"
    ),
    "exchange-property/chain_f2_k2_sq": (
        "07d065da5ce776c21b2583021e5082106695cf1bb1ff3614e617f89ac192d069"
    ),
    "exchange-property/chain_f2_k3": (
        "5bd4e978d98bed8e666a0635a54795b9d9f29e1a7ba66452e9c16eb79b65c677"
    ),
    "exchange-property/chain_f2_k3_sq": (
        "17aebf1f579623dfa64d6d3582f072a6f16b07573e69048d3d7caec9e105cfb8"
    ),
    "exchange-property/chain_f2_k4": (
        "c44d7847b5b69a5622f9cda38e0fc9b1d7140efa3e679588eb8765c62b23b86b"
    ),
    "exchange-property/chain_f2_k4_sq": (
        "76a3c844d33be905da953c4098c59c1c77e37eb5073df0470d4b89e5c01aef12"
    ),
    "exchange-property/chain_f3_k1": (
        "35dc61209698063aa624ea7edfc6baae7a9369b4162da5463329260a43c080dc"
    ),
    "exchange-property/chain_f3_k1_sq": (
        "6223774fa717759bc8b5ac7f9618f2418f6ba4c1f28eb73f766996e3988509b6"
    ),
    "exchange-property/chain_f3_k2": (
        "dd48718e6d7ed6c0889db0a88e252df884e115d2c4df35a9b7d877c1d3b5a0bb"
    ),
    "exchange-property/chain_f3_k2_sq": (
        "40f54b08eab2b2de93bf4e6bcc999c550acd080619d69b2666fca088e60e93a6"
    ),
    "exchange-property/chain_f3_k3": (
        "dbfbb1a1e7ba388122a0ee1e397d0fbd8bdd9ca0a23fd4167449a4997f93dac8"
    ),
    "exchange-property/chain_f3_k3_sq": (
        "3248c56c719a878706b97e578458dfb5752b7fe8bec7ae37218d2e00490b1507"
    ),
    "exchange-property/chain_f3_k4": (
        "ccc6931a0bec576be3260867632515e3573d123a2dc5704f879cf738a41a02a9"
    ),
    "exchange-property/chain_f3_k4_sq": (
        "835bcc376b41d2da43aebd376c861adc90a6a1bc683271c815ad48d836c4f2bd"
    ),
    "exchange-property/mat2_simple_f2": (
        "71f0259575e0d143f77ab34dbddd1aef8aaa9fe064c6c1994ceb5eef7cdc382f"
    ),
    "exchange-property/mat2_simple_f2_sq": (
        "f606d14fe4bba3b4f0ad0015c9bc4c0fc7ce3d50a355667e983534edf3b48a99"
    ),
    "exchange-property/semisimple2_f2": (
        "8e4425baa755bff7ec3f4123db952e35fb1fc583de2b0f09cb77fac5a290d4fa"
    ),
    "exchange-property/semisimple3_f2": (
        "63b9b73aa95249a38f1322f1e7f1cfb9bbc97191f483f029086ad882316feb93"
    ),
    "exchange-property/tri4_f2": (
        "af6e2c7d8442c6affa9f6f91a60ce4d1e14dd1c47c5485038b63712d346bfb20"
    ),
    "exchange-property/tri4_f2_sq": (
        "32edf27dc3b3c53c1b3ab30874c605a632846d6371b2bf7662fed16f152bc45b"
    ),
    "exchange-property/tri4_f3": (
        "01e68279b34dc3a47735f8174f7965c1917527d6349438586bf0c0e4cbfa6867"
    ),
    "exchange-property/tri4_f3_sq": (
        "eb7ab16b0f8d911ae823b0ccd2b6c08a54cc14f5d3f3bd16925af7347a4ed00f"
    ),
}


def oracle_report(lat, n_max=3, seed=1789, sample_cap=DECOMP_SAMPLE_CAP) -> FiepReport:
    """The exchange scan rebuilt from the oracles, pair by pair."""
    tables = PointSetTables(lat)
    families = []
    sampled = False
    for n in range(1, n_max + 1):
        family = list(brute_decompositions(lat, n, tables))
        if n >= 3 and len(family) > sample_cap:
            family = random.Random(seed).sample(family, sample_cap)
            sampled = True
        families.append(family)
    witnesses = []
    pairs = 0
    for x in lat.summand_indices():
        for family in families:
            for decomp in family:
                pairs += 1
                choice = brute_exchange_choice(lat, x, decomp, tables)
                if choice is None:
                    return FiepReport(
                        False, n_max, pairs, tuple(witnesses), sampled, seed, (x, decomp)
                    )
                witnesses.append((x, decomp, choice))
    return FiepReport(True, n_max, pairs, tuple(witnesses), sampled, seed, None)


def test_decompositions_match_the_product_filter(fixtures):
    for fx in fixtures:
        lat = lattice_of(fx.module)
        for n in (1, 2, 3):
            assert _decomposition_index_tuples(lat, n) == brute_decompositions(lat, n), (
                fx.name,
                n,
            )


def literal_decompositions(lat, n: int, tables) -> tuple:
    """The n-tuples of nonzero summands in product order, filtered afterwards."""
    dims = tables.dims
    candidates = [i for i in lat.summand_indices() if dims[i] > 0]
    return tuple(
        idxs
        for idxs in product(candidates, repeat=n)
        if sum(map(dims.__getitem__, idxs)) == lat.module.dim
        and _direct_join(tables, idxs[0], idxs[1:]) is not None
    )


def test_pruned_decompositions_equal_the_literal_product(fixtures):
    checked = 0
    for fx in fixtures:
        lat = lattice_of(fx.module)
        tables = PointSetTables(lat)
        n_summands = sum(1 for i in lat.summand_indices() if tables.dims[i] > 0)
        for n in (2, 3, 4):
            if n_summands**n <= 100_000:
                literal = literal_decompositions(lat, n, tables)
                assert brute_decompositions(lat, n, tables) == literal, (fx.name, n)
                checked += 1
    assert checked == 68


def test_fiep_scan_matches_the_oracle_report(fixtures):
    for fx in fixtures:
        if fx.name == "chain_f3_k4_sq":
            continue  # 962,390 literal searches; sampled in the next test
        lat = lattice_of(fx.module)
        assert fiep_scan(lat) == oracle_report(lat), fx.name


# witness_digest of all 962,390 witnesses of fiep_scan(chain_f3_k4_sq) at the
# defaults, recorded from the memoized search the table lookups replaced
LARGEST_SQUARE_WITNESS_SHA256 = "075f2444976ab69d41807c10e3299398b84745982d72d38666c15485e4eb7375"


def witness_digest(witnesses) -> str:
    """sha256 over the summands, then the lengths and entries of the
    decompositions, then those of the choices."""
    column = [tuple(map(itemgetter(k), witnesses)) for k in range(3)]
    h = hashlib.sha256(np.array(column[0], dtype=np.int64).tobytes())
    for tuples in column[1:]:
        h.update(np.fromiter(map(len, tuples), dtype=np.int64).tobytes())
        h.update(np.fromiter(chain.from_iterable(tuples), dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def largest_square(fixtures_by_name):
    lat = lattice_of(fixtures_by_name["chain_f3_k4_sq"].module)
    return lat, fiep_scan(lat)


def test_fiep_scan_witnesses_on_the_largest_square(largest_square):
    lat, rep = largest_square
    assert rep.verdict and not rep.sampled and rep.failure is None
    assert rep.pairs_checked == len(rep.witnesses) == 962390
    tables = PointSetTables(lat)
    for x, decomp, choice in rep.witnesses[::1000]:
        assert choice == brute_exchange_choice(lat, x, decomp, tables), (x, decomp)


def test_every_witness_on_the_largest_square_is_pinned(largest_square):
    lat, rep = largest_square
    assert witness_digest(rep.witnesses) == LARGEST_SQUARE_WITNESS_SHA256
    assert len(set(map(itemgetter(2), rep.witnesses))) == 8969
    # the witnesses stay arrays until read: on the warm lattice the scan
    # peaks far below the 80 MB that 962,390 witness tuples took
    tracemalloc.start()
    try:
        fiep_scan(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000


def assert_view_reads_as_its_tuple(rep):
    """Indexing, slicing, equality and hashing of the witness view agree
    with the tuple of its witnesses."""
    view = rep.witnesses
    listed = list(view)
    assert isinstance(view, ExchangeWitnesses) and len(view) == len(listed)
    for k in range(0, len(listed), max(1, len(listed) // 500)):
        assert view[k] == listed[k] and view[-k - 1] == listed[-k - 1], k
    n = len(listed)
    stride = max(1, n // 10_000)  # about 10,000 rows per slice at most
    for s in (
        slice(None, None, stride),
        slice(1, -1, 3 * stride),
        slice(None, None, -stride),
        slice(-2, 1, -5 * stride),
        slice(n // 2, n // 2),
        slice(-n - 5, n + 5, max(1, n // 7)),
    ):
        assert view[s] == tuple(listed[s]) and type(view[s]) is tuple, s
    assert view == tuple(listed) and tuple(listed) == view
    assert view != listed and view != tuple(listed) + ((0, (0,), (0,)),)
    assert hash(rep) == hash(dataclasses.replace(rep, witnesses=tuple(listed)))
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            view[k]


def test_witness_view_reads_as_its_tuple_on_every_fixture(fixtures, largest_square):
    for fx in fixtures:
        if fx.name == "chain_f3_k4_sq":
            assert_view_reads_as_its_tuple(largest_square[1])
        else:
            assert_view_reads_as_its_tuple(fiep_scan(lattice_of(fx.module)))


@pytest.mark.parametrize("settings", [{}, {"n_max": 4, "sample_cap": 2}])
def test_fiep_scan_matches_the_oracle_report_on_basis_changes(fixtures, settings):
    # one seeded P^-1 A P per corpus module; n_max=4 with sample_cap=2
    # subsamples the 3-part family of semisimple3_f2
    rng = np.random.default_rng(2006)
    sampled = []
    for fx in fixtures:
        if fx.name == "chain_f3_k4_sq":
            continue  # 962,390 literal searches
        lat = enumerate_submodules(rebased(fx.module, rng))
        rep = fiep_scan(lat, **settings)
        assert rep == oracle_report(lat, **settings), fx.name
        if rep.sampled:
            sampled.append(fx.name)
    assert sampled == (["semisimple3_f2"] if settings else [])


def test_first_pair_without_a_choice_ends_the_scan(fixtures_by_name, monkeypatch):
    # no finite-length module fails the exchange scan, so one pair's choice
    # is taken away to reach the failure path
    lat = lattice_of(fixtures_by_name["chain_f2_k3_sq"].module)
    full = fiep_scan(lat)
    k = len(full.witnesses) // 2
    x, decomp, _ = full.witnesses[k]
    position = _decomposition_index_tuples(lat, len(decomp)).index(decomp)
    real = summands._first_choices

    def without_choice(lat_, x_, *block):
        rows = real(lat_, x_, *block)
        if x_ == x and rows.shape[1] == len(decomp):
            rows[position] = -1
        return rows

    monkeypatch.setattr(summands, "_first_choices", without_choice)
    cut = fiep_scan(lat)
    assert cut == FiepReport(False, 3, k + 1, full.witnesses[:k], False, 1789, (x, decomp))
    assert_view_reads_as_its_tuple(cut)


def test_a_failure_on_the_first_pair_of_a_family_leaves_an_empty_chunk(
    fixtures_by_name, monkeypatch
):
    # the scan fails on the first 2-part decomposition of the second
    # summand, so the view holds a chunk with no rows between full ones
    lat = lattice_of(fixtures_by_name["chain_f2_k3_sq"].module)
    full = fiep_scan(lat)
    x = lat.summand_indices()[1]
    k = next(i for i, (s, d, _) in enumerate(full.witnesses) if s == x and len(d) == 2)
    real = summands._first_choices

    def without_choice(lat_, x_, *block):
        rows = real(lat_, x_, *block)
        if x_ == x and rows.shape[1] == 2:
            rows[0] = -1
        return rows

    monkeypatch.setattr(summands, "_first_choices", without_choice)
    cut = fiep_scan(lat)
    decomp = full.witnesses[k][1]
    assert cut == FiepReport(False, 3, k + 1, full.witnesses[:k], False, 1789, (x, decomp))
    assert len(cut.witnesses._chunks[-1][2]) == 0
    assert_view_reads_as_its_tuple(cut)


@pytest.mark.parametrize("members_per_pass", [0, 4])
@pytest.mark.parametrize(
    "name, settings",
    [("chain_f3_k3_sq", {}), ("semisimple3_f2", {"n_max": 4, "sample_cap": 5})],
)
def test_array_passes_cut_small_give_the_same_scan(
    fixtures_by_name, monkeypatch, name, settings, members_per_pass
):
    # a budget of 1 cell puts every prefix in a block of its own and every
    # decomposition prefix in an array pass of its own; 4 lattice sizes put
    # a few prefixes in each block
    lat = lattice_of(fixtures_by_name[name].module)
    whole = [_decomposition_index_tuples(lat, n) for n in (2, 3, 4)]
    rep = fiep_scan(lat, **settings)
    monkeypatch.setattr(summands, "PASS_CELLS", max(1, members_per_pass * len(lat)))
    assert [_decomposition_index_tuples(lat, n) for n in (2, 3, 4)] == whole
    assert fiep_scan(lat, **settings) == rep


@pytest.mark.parametrize("n_max", [0, -1])
def test_fiep_scan_refuses_a_width_below_one(fixtures_by_name, n_max):
    # a scan of no decomposition width would check no pair and pass
    lat = lattice_of(fixtures_by_name["chain_f2_k2_sq"].module)
    with pytest.raises(ValueError, match="n_max"):
        fiep_scan(lat, n_max=n_max)


def test_families_past_the_module_length_add_no_witnesses(fixtures_by_name):
    # semisimple3_f2 has length 3, so every family past 3 parts is empty
    lat = lattice_of(fixtures_by_name["semisimple3_f2"].module)
    assert fiep_scan(lat, n_max=20) == dataclasses.replace(fiep_scan(lat), n_max=20)


@pytest.mark.parametrize("n_max", [3, 4])
@pytest.mark.parametrize("sample_cap", [1, 2, 5])
def test_sampled_fiep_scan_matches_the_oracle_report(fixtures_by_name, n_max, sample_cap):
    lat = lattice_of(fixtures_by_name["semisimple3_f2"].module)
    rep = fiep_scan(lat, n_max=n_max, sample_cap=sample_cap)
    assert rep.sampled
    assert rep == oracle_report(lat, n_max=n_max, sample_cap=sample_cap)


def test_exchange_digests_are_pinned():
    manifest = verify_claims(VerifyConfig(only=("exchange-property",)))
    assert manifest.passed
    assert {c.check_id: c.witness_digest for c in manifest.checks} == EXCHANGE_DIGESTS
