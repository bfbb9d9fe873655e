"""Square criteria: the case-analysis sweep versus the definition."""

import hashlib
import json

import pytest

from modcheck.algebra import algebra_from_structure_constants
from modcheck.corpus import truncated_poly_algebra, truncated_poly_module
from modcheck.errors import NotHollowUniform
from modcheck.field import PrimeField
from modcheck.lattice import lattice_of
from modcheck.modules import RepModule, direct_sum
from modcheck.properties import is_extending, is_lifting, uniserial_scan
from modcheck.theorems import square_extending_criterion, square_lifting_criterion


def test_criteria_agree_with_definitional_scan_on_small_bases(fixtures_by_name):
    for name in ("chain_f2_k2", "chain_f3_k2", "mat2_simple_f2", "tri4_f2"):
        U = fixtures_by_name[name].module
        square = direct_sum(U, U).module
        assert is_lifting(square).verdict == square_lifting_criterion(U).verdict, name
        assert is_extending(square).verdict == square_extending_criterion(U).verdict, name


def test_criteria_reject_components_that_are_not_hollow_uniform(fixtures_by_name):
    S = fixtures_by_name["semisimple2_f2"].module
    with pytest.raises(NotHollowUniform):
        square_lifting_criterion(S)
    with pytest.raises(NotHollowUniform):
        square_extending_criterion(S)


def test_criterion_outcomes_name_their_branches():
    alg = truncated_poly_algebra(2, 4)
    U = truncated_poly_module(alg, 2)
    rep = square_lifting_criterion(U)
    assert rep.verdict
    assert rep.outcomes  # at least the zero triple is discharged
    assert all(o.branch == "i" for o in rep.outcomes)
    assert rep.failing() is None


def _a_mod_ya(p):
    """U = A/yA for A = F_p⟨x, y⟩/(x², y², yx) on the basis (1, x, y, xy).

    The only nonzero product among x, y, xy is x·y = xy.  U has the basis
    (ū, x̄, x̄y) and is uniserial, hence hollow and uniform, but ū ↦ x̄ in
    Hom(U, U/soc U) lifts to no endomorphism (any lift sends ū to some v
    with v·y = 0, and x̄·y ≠ 0), so U ⊕ U is neither lifting nor extending.
    """
    F = PrimeField(p)
    e = [tuple(int(t == i) for t in range(4)) for i in range(4)]
    zero = (0,) * 4
    constants = [[e[j] if i == 0 else e[i] if j == 0 else zero for j in range(4)] for i in range(4)]
    constants[1][2] = e[3]
    A = algebra_from_structure_constants(F, 4, constants, e[0])
    one = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    x = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    y = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    xy = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    return RepModule(A, 3, (one, x, y, xy), label=f"A/yA over F_{p}")


# sha256 of json.dumps(report.to_json(), sort_keys=True): the variant-"b"
# reports of the implementation that still took a variant, with its
# "variant" key dropped (the "c" reports differed only in that key).  The
# digests it pinned were recorded when branch (ii) still ran on every
# "none" triple (2 of 11 per criterion for p = 2, 6 of 22 for p = 3).
A_MOD_YA_REPORT_DIGESTS = {
    (2, "lifting"): "828258837aaf36dff3ca7b437714113a97049577f0850ff7c4de155987bf78e0",
    (2, "extending"): "00c3d05ad3c70adbf97e878e983c48d2e43d2ffb29725b22d1b2da459ee54daf",
    (3, "lifting"): "f92c24bc450dcf2ec494b1d7bed888d77465b8c0b1747ea8e1862103b3095617",
    (3, "extending"): "d686751d8f2d384a8fe6f435bcdf7ed5df2a69c499cc949819aac35acdd08db0",
}


@pytest.mark.parametrize("p, triples, refuting", [(2, 11, 2), (3, 22, 6)])
def test_criteria_refute_the_square_of_a_mod_ya(p, triples, refuting):
    U = _a_mod_ya(p)
    lat = lattice_of(U)
    assert len(lat.members) == 4 and uniserial_scan(lat)
    square = direct_sum(U, U).module
    definitional = {"lifting": is_lifting(square).verdict, "extending": is_extending(square).verdict}
    assert definitional == {"lifting": False, "extending": False}
    criteria = {"lifting": square_lifting_criterion, "extending": square_extending_criterion}
    for theorem, criterion in criteria.items():
        rep = criterion(U)
        assert rep.verdict is definitional[theorem] is False
        assert rep.failing() is not None
        branches = [o.branch for o in rep.outcomes]
        assert (len(branches), branches.count("none")) == (triples, refuting)
        assert set(branches) == {"i", "none"}
        digest = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()
        assert digest == A_MOD_YA_REPORT_DIGESTS[(p, theorem)]
