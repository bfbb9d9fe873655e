"""Hom spaces against the full matrix scan, endomorphism rings, locality."""

from itertools import product

from modcheck import oracles
from modcheck.corpus import truncated_poly_algebra, truncated_poly_module
from modcheck.endring import endomorphism_ring, is_local
from modcheck.errors import TooLarge
from modcheck.homs import (
    compose,
    enumerate_homs,
    hom_from_coords,
    hom_space,
    image,
    is_epi,
    is_iso,
    is_mono,
    kernel,
)
from modcheck.lattice import lattice_of
from modcheck.modules import ModuleHom, RepModule, direct_sum, quotient_module


def _span_matrices(basis, p, dim_src, dim_tgt):
    out = set()
    for coeffs in product(range(p), repeat=len(basis)):
        H = [[0] * dim_tgt for _ in range(dim_src)]
        for c, B in zip(coeffs, basis):
            if c:
                for r in range(dim_src):
                    for s in range(dim_tgt):
                        H[r][s] = (H[r][s] + c * B[r][s]) % p
        out.add(tuple(tuple(r) for r in H))
    return out


def test_hom_space_equals_matrix_scan_on_f2_corpus_pairs(base_fixtures):
    pairs = 0
    for fa in base_fixtures:
        for fb in base_fixtures:
            A, B = fa.module, fb.module
            if A.algebra != B.algebra or A.algebra.field.p != 2:
                continue
            if A.dim > 4 or B.dim > 4 or A.dim * B.dim == 0:
                continue
            basis = hom_space(A, B)
            brute = set(oracles.brute_hom_matrices(A, B))
            assert _span_matrices(basis, 2, A.dim, B.dim) == brute, (fa.name, fb.name)
            pairs += 1
    assert pairs >= 10


def test_hom_space_equals_matrix_scan_f3_chains():
    alg = truncated_poly_algebra(3, 4)
    A = truncated_poly_module(alg, 3)
    B = truncated_poly_module(alg, 2)
    basis = hom_space(A, B)
    brute = set(oracles.brute_hom_matrices(A, B))
    assert _span_matrices(basis, 3, A.dim, B.dim) == brute


def test_enumerate_homs_counts_the_span():
    alg = truncated_poly_algebra(2, 4)
    A = truncated_poly_module(alg, 2)
    homs = list(enumerate_homs(A, A))
    assert len(homs) == 2 ** len(hom_space(A, A))
    assert len({h.matrix for h in homs}) == len(homs)


def test_every_trusted_hom_rebuilds_through_the_validating_constructor(fixtures, monkeypatch):
    # direct-sum injections and projections, quotient projections,
    # submodule embeddings and hom_space combinations come from the trusted
    # constructor; the validating one re-checks shapes and commutation
    built = []
    trusted = ModuleHom._trusted

    def recording(source, target, matrix):
        built.append(trusted(source, target, matrix))
        return built[-1]

    monkeypatch.setattr(ModuleHom, "_trusted", staticmethod(recording))
    for fx in fixtures:
        M = fx.module
        direct_sum(M, M)
        basis = hom_space(M, M)
        if M.field.p ** len(basis) <= 1 << 8:
            list(enumerate_homs(M, M))
        for coeffs in product(range(M.field.p), repeat=min(len(basis), 2)):
            hom_from_coords(M, M, basis, coeffs + (1,) * (len(basis) - len(coeffs)))
        for member in lattice_of(M).members:
            member.embedding()
            quotient_module(M, member)
    assert len(built) > 2000
    for h in built:
        assert ModuleHom(h.source, h.target, h.matrix) == h


def test_kernel_image_mono_epi_consistency():
    alg = truncated_poly_algebra(2, 4)
    A = truncated_poly_module(alg, 3)
    B = truncated_poly_module(alg, 2)
    for h in enumerate_homs(A, B):
        k = kernel(h)
        im = image(h)
        assert k.dim + im.dim == A.dim
        assert is_mono(h) == (k.dim == 0)
        assert is_epi(h) == (im.dim == B.dim)


def test_composition_acts_like_matrix_product():
    alg = truncated_poly_algebra(3, 4)
    A = truncated_poly_module(alg, 3)
    B = truncated_poly_module(alg, 2)
    fs = list(enumerate_homs(A, B))
    gs = list(enumerate_homs(B, B))
    for f in fs[:9]:
        for g in gs[:9]:
            gf = compose(g, f)
            for v in ((1, 0, 0), (0, 1, 2), (2, 2, 1)):
                assert gf.apply(v) == g.apply(f.apply(v))


def test_endomorphism_ring_locality_matches_pairwise_scan(base_fixtures):
    checked = 0
    for fx in base_fixtures:
        M = fx.module
        p = M.algebra.field.p
        if p ** (M.dim * M.dim) > oracles.BRUTE_HOM_CAP:
            continue
        ring = endomorphism_ring(M)
        mats = oracles.brute_hom_matrices(M, M)
        assert is_local(ring) == oracles.brute_is_local(mats, p, M.dim), fx.name
        if "end_local" in fx.expected:
            assert is_local(ring) == fx.expected_value("end_local"), fx.name
        checked += 1
    assert checked >= 10


def test_identity_is_a_unit_and_ring_size_matches():
    alg = truncated_poly_algebra(2, 4)
    M = truncated_poly_module(alg, 4)
    ring = endomorphism_ring(M)
    assert ring.size == 2 ** len(ring.basis) == 16
    assert ring.is_unit(ring.identity_coords)
    assert ring.matrix_of(ring.identity_coords) == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )


def test_unit_mask_matches_determinants_on_corpus_rings(fixtures):
    checked = 0
    for fx in fixtures:
        M = fx.module
        p = M.algebra.field.p
        try:
            ring = endomorphism_ring(M, cap=6561)
        except TooLarge:
            continue
        for k, c in enumerate(ring.elements()):
            unit = oracles.brute_is_invertible(ring.matrix_of(c), p)
            assert ring.is_unit(c) == unit, (fx.name, c)
            assert ring.unit_mask[k] == unit, (fx.name, k)
        checked += ring.size
    assert checked > 11_000


def test_unit_mask_and_locality_across_chunks():
    # End(F_p) = F_p over a large prime: 65,521 elements in several chunks
    p = 65521
    M = truncated_poly_module(truncated_poly_algebra(p, 1), 1)
    ring = endomorphism_ring(M)
    assert ring.size == p
    assert ring.unit_mask.tolist() == [e != 0 for e in range(p)]
    assert int(ring.unit_mask.sum()) == p - 1
    assert ring.is_unit((p - 1,)) and not ring.is_unit((0,)) and not ring.is_unit((p,))
    assert is_local(ring)
    # End(F_3[x]/(x^10)) = F_3[x]/(x^10): local, units are the elements with
    # a nonzero constant term, and the non-units fill a 9-dimensional ideal
    # that the first chunk's non-units do not span
    M = truncated_poly_module(truncated_poly_algebra(3, 10), 10)
    ring = endomorphism_ring(M)
    assert ring.size == 3**10
    assert int(ring.unit_mask.sum()) == 2 * 3**9
    assert is_local(ring)


def test_locality_matches_pairwise_oracle_on_larger_rings(fixtures_by_name):
    modules = [
        truncated_poly_module(truncated_poly_algebra(5, 4), 4),  # 625 elements, local
        truncated_poly_module(truncated_poly_algebra(3, 6), 6),  # 729 elements, local
        fixtures_by_name["chain_f2_k3_sq"].module,  # 4,096 elements, not local
        RepModule(truncated_poly_algebra(2, 2), 0, ((), ())),  # the zero ring
    ]
    expected = []
    for M in modules:
        p = M.algebra.field.p
        ring = endomorphism_ring(M)
        mats = [ring.matrix_of(c) for c in ring.elements()]
        assert is_local(ring) == oracles.brute_is_local(mats, p, M.dim)
        expected.append(is_local(ring))
    assert expected == [True, True, False, True]
