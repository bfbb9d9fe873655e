"""Summand enumeration, exchange scans, and the graph-submodule laws."""

import json
from itertools import product

import numpy as np
import pytest
from helpers import rebased

from modcheck import homs
from modcheck.corpus import truncated_poly_algebra, truncated_poly_module
from modcheck.endring import endomorphism_ring
from modcheck.errors import (
    CardinalityVacuous,
    NotEpi,
    NotHollowUniform,
    ShapeMismatch,
    TooLarge,
)
from modcheck.graphs import GraphLawSweep, graph_complement, graph_law_sweep, graph_laws, graph_of
from modcheck.homs import enumerate_homs, hom_space, hom_from_coords, hom_stack, restrict
from modcheck.linalg import lin_comb, rank
from modcheck.modules import ModuleHom, direct_sum, make_submodule, zero_hom
from modcheck.properties import lattice_of, radical
from modcheck.theorems import square_extending_criterion, square_lifting_criterion
from modcheck.summands import (
    Decomposition,
    all_decompositions,
    all_summands,
    has_fiep,
    is_direct_summand,
)
from modcheck.verify import GRAPH_LAW_PAIRS


def _identity_hom(M):
    return ModuleHom(
        M, M, tuple(tuple(int(i == j) for j in range(M.dim)) for i in range(M.dim))
    )


def test_summands_satisfy_the_definition(fixtures_by_name):
    for name in ("semisimple3_f2", "chain_f2_k3", "tri4_f3", "mat2_simple_f2_sq"):
        M = fixtures_by_name[name].module
        lat = lattice_of(M)
        summands = set(lat.summand_indices())
        p = M.algebra.field.p
        for i in range(len(lat.members)):
            has_complement = any(
                lat.members[i].dim + lat.members[j].dim == M.dim
                and lat.bits[i] & lat.bits[j] == 1
                and rank(lat.members[i].basis + lat.members[j].basis, p) == M.dim
                for j in range(len(lat.members))
            )
            assert (i in summands) == has_complement, (name, i)


def test_uniserial_modules_have_only_trivial_summands(fixtures_by_name):
    for name in ("chain_f2_k4", "chain_f3_k3", "mat2_simple_f2"):
        M = fixtures_by_name[name].module
        summands = all_summands(M)
        assert sorted(s.dim for s in summands) == [0, M.dim], name


def test_decomposition_validation():
    alg = truncated_poly_algebra(2, 4)
    M = direct_sum(
        truncated_poly_module(alg, 2), truncated_poly_module(alg, 2)
    ).module
    left = make_submodule(M, ((1, 0, 0, 0), (0, 1, 0, 0)))
    right = make_submodule(M, ((0, 0, 1, 0), (0, 0, 0, 1)))
    Decomposition(M, (left, right))
    with pytest.raises(ShapeMismatch):
        Decomposition(M, (left, left))
    with pytest.raises(ShapeMismatch):
        Decomposition(M, (left,))


def test_all_decompositions_counts_on_a_semisimple_square(fixtures_by_name):
    M = fixtures_by_name["semisimple2_f2"].module
    decomps = all_decompositions(M, 2)
    # S1 ⊕ S2 in two orders is the only nontrivial splitting
    assert len([d for d in decomps if len(d) == 2]) == 2


def test_has_fiep_is_deterministic_and_true_on_small_corpus(fixtures_by_name):
    for name in ("semisimple2_f2", "chain_f2_k3", "tri4_f2", "chain_f3_k2_sq"):
        M = fixtures_by_name[name].module
        rep1 = has_fiep(M, n_max=3, seed=1789)
        rep2 = has_fiep(M, n_max=3, seed=1789)
        assert rep1.verdict and rep2.verdict, name
        assert rep1.witnesses == rep2.witnesses
        assert rep1.pairs_checked == rep2.pairs_checked


def test_fiep_witnesses_reconstruct_direct_sums(fixtures_by_name):
    M = fixtures_by_name["semisimple3_f2"].module
    lat = lattice_of(M)
    rep = has_fiep(M, n_max=2)
    assert rep.verdict
    p = M.algebra.field.p
    for summand_idx, decomp, choice in rep.witnesses[:50]:
        rows = tuple(lat.members[summand_idx].basis)
        total = lat.members[summand_idx].dim
        for c in choice:
            rows += tuple(lat.members[c].basis)
            total += lat.members[c].dim
        assert total == M.dim
        assert rank(rows, p) == M.dim, (summand_idx, decomp, choice)


def test_graph_of_zero_hom_is_the_source_copy(fixtures_by_name):
    A = fixtures_by_name["chain_f2_k2"].module
    ds = direct_sum(A, A)
    g = graph_of(ds, zero_hom(A, A))
    assert g == ds.left_copy()


def test_graph_laws_across_full_hom_sweeps(fixtures_by_name):
    checked = 0
    for an, bn in (
        ("chain_f3_k2", "chain_f3_k2"),
        ("chain_f2_k3", "chain_f2_k3"),
        ("chain_f2_k4", "chain_f2_k2"),
        ("tri4_f2", "tri4_f2"),
    ):
        A, B = fixtures_by_name[an].module, fixtures_by_name[bn].module
        ds = direct_sum(A, B)
        for h in enumerate_homs(A, B):
            laws = graph_laws(ds, h)
            assert laws["kernel_law"] and laws["summand_law"] and laws["sum_law"]
            checked += 1
    assert checked > 20


def test_graph_laws_hold_for_partial_sources(fixtures_by_name):
    A = fixtures_by_name["chain_f2_k4"].module
    ds = direct_sum(A, A)
    rad = radical(A)
    basis = hom_space(A, A)
    for coeffs in ((1,) + (0,) * (len(basis) - 1), (1,) * len(basis)):
        h = restrict(hom_from_coords(A, A, basis, coeffs), rad)
        laws = graph_laws(ds, h)
        assert laws["kernel_law"] and laws["summand_law"] and laws["sum_law"]
        assert not laws["total"]


def _sweep_against_graph_laws(A, B) -> int:
    """Assert that the sweep equals graph_laws on every case of A ⊕ B, in
    the same types; returns the number of sources swept."""
    ds = direct_sum(A, B)
    rad = radical(A)
    sweep = graph_law_sweep(ds, 1 << 20, rad)
    sources = 2 if 0 < rad.dim < A.dim else 1
    swept = list(enumerate_homs(A, B))
    assert len(sweep) == sources * len(swept)
    for e, h in enumerate(swept):
        for s, case in enumerate((h, restrict(h, rad))[:sources]):
            assert json.dumps(sweep.case(e, s)) == json.dumps(graph_laws(ds, case)), (e, s)
    assert sweep.first_failure() is None
    return sources


def test_graph_law_sweep_equals_graph_laws_on_every_case(fixtures_by_name):
    sources = [
        _sweep_against_graph_laws(fixtures_by_name[an].module, fixtures_by_name[bn].module)
        for an, bn in GRAPH_LAW_PAIRS
    ]
    assert 1 in sources and 2 in sources


@pytest.mark.parametrize("seed", [3, 29])
def test_graph_law_sweep_equals_graph_laws_on_basis_changes(fixtures_by_name, seed):
    # P·A·P⁻¹ for a seeded P per side: modules outside the corpus, whose
    # hom spaces and radicals have no echelon shape to lean on
    rng = np.random.default_rng(seed)
    sources = [
        _sweep_against_graph_laws(
            rebased(fixtures_by_name[an].module, rng), rebased(fixtures_by_name[bn].module, rng)
        )
        for an, bn in GRAPH_LAW_PAIRS
    ]
    assert 1 in sources and 2 in sources


def test_graph_law_sweep_reports_the_first_failing_case(fixtures_by_name):
    A = fixtures_by_name["chain_f3_k4"].module
    sweep = graph_law_sweep(direct_sum(A, A), 1 << 20, radical(A))
    columns = {name: col.copy() for name, col in sweep.columns.items()}
    columns["sum_law"][5, 0] = False
    columns["kernel_law"][3, 1] = False
    doctored = GraphLawSweep(columns)
    assert doctored.first_failure() == doctored.case(3, 1)
    assert doctored.first_failure()["kernel_law"] is False


def _literal_homs(A, B) -> list:
    """Every hom A -> B by the literal walk over its hom_space coordinates."""
    p, basis = A.field.p, hom_space(A, B)
    return [lin_comb(c, basis, A.dim, B.dim, p) for c in product(range(p), repeat=len(basis))]


def test_hom_stack_yields_the_homs_in_enumerate_homs_order(fixtures_by_name, monkeypatch):
    pairs = [
        (fixtures_by_name[an].module, fixtures_by_name[bn].module) for an, bn in GRAPH_LAW_PAIRS
    ]
    whole = [graph_law_sweep(direct_sum(A, B), 1 << 20, radical(A)).columns for A, B in pairs]
    monkeypatch.setattr(homs, "POINT_CHUNK", 7)
    for (A, B), columns in zip(pairs, whole):
        chunks = list(hom_stack(A, B))
        assert all(c.dtype == np.int64 and c.shape[1:] == (A.dim, B.dim) for c in chunks)
        assert all(len(c) <= 7 for c in chunks)
        stacked = [tuple(map(tuple, m)) for c in chunks for m in c.tolist()]
        assert stacked == _literal_homs(A, B)
        assert [h.matrix for h in enumerate_homs(A, B)] == stacked
        # a sweep over many chunks joins their columns in the same order
        chunked = graph_law_sweep(direct_sum(A, B), 1 << 20, radical(A)).columns
        assert all((chunked[name] == columns[name]).all() for name in columns)


def test_hom_stack_yields_the_zero_hom_when_an_end_is_zero():
    from modcheck.algebra import shaped_matrix_algebra
    from modcheck.field import PrimeField
    from modcheck.modules import row_module

    alg = shaped_matrix_algebra(PrimeField(2), ((1, 1), (0, 1)))
    Z, M = row_module(alg, 0), row_module(alg, 2)
    for A, B in ((Z, Z), (Z, M), (M, Z)):
        assert [c.shape for c in hom_stack(A, B)] == [(1, A.dim, B.dim)]
        assert [h.matrix for h in enumerate_homs(A, B)] == _literal_homs(A, B)


def test_graph_law_sweep_refuses_like_enumerate_homs(fixtures_by_name):
    A = fixtures_by_name["chain_f3_k4"].module  # 3^4 = 81 endomorphisms
    ds = direct_sum(A, A)
    with pytest.raises(TooLarge) as enumerated:
        next(enumerate_homs(A, A, cap=80))
    with pytest.raises(TooLarge) as stacked:
        hom_stack(A, A, cap=80)  # at the call, before any chunk is built
    with pytest.raises(TooLarge) as swept:
        graph_law_sweep(ds, 80, radical(A))
    assert str(swept.value) == str(stacked.value) == str(enumerated.value)
    assert str(stacked.value) == "hom enumeration: size 81 exceeds cap 80"
    # End(M) and both square criteria walk their homs through the same cap
    for walk in (
        lambda: endomorphism_ring(A, cap=80),
        lambda: square_lifting_criterion(A, cap_hom=80),
        lambda: square_extending_criterion(A, cap_hom=80),
    ):
        with pytest.raises(TooLarge) as refused:
            walk()
        assert str(refused.value) == str(stacked.value)
    assert len(graph_law_sweep(ds, 81, radical(A))) == 2 * 81


def test_graph_complement_of_an_automorphism():
    alg = truncated_poly_algebra(3, 4)
    U = truncated_poly_module(alg, 3)
    ds = direct_sum(U, U)
    comp = graph_complement(ds, _identity_hom(U))
    assert comp.case == "full-source"
    assert comp.complement == ds.right_copy()
    assert [part.dim for part in comp.decomposition.parts] == [3, 3]


def test_graph_complement_rejects_non_epis_and_partial_sources():
    alg = truncated_poly_algebra(2, 4)
    U = truncated_poly_module(alg, 3)
    ds = direct_sum(U, U)
    with pytest.raises(NotEpi):
        graph_complement(ds, zero_hom(U, U))
    rad = radical(U)
    partial = restrict(_identity_hom(U), rad)
    with pytest.raises(CardinalityVacuous):
        graph_complement(ds, partial)


def test_graph_complement_requires_hollow_uniform_component(fixtures_by_name):
    S2 = fixtures_by_name["semisimple2_f2"].module
    ds = direct_sum(S2, S2)
    with pytest.raises(NotHollowUniform):
        graph_complement(ds, _identity_hom(S2))
