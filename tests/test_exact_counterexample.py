"""End-to-end checks of the localization example: U² lifting, End(U) not local."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import modcheck
from modcheck.errors import (
    CertificateFailed,
    NonPrime,
    NotWellDefined,
    ShapeMismatch,
    UnresolvedDivision,
    WrongBranch,
    ZeroInput,
)
from modcheck.exact.counterexample import (
    default_x_submodule,
    f_of,
    fiep_failure_report,
    verify_direct_case,
    verify_graph_decomposition,
    verify_partial_case,
)
from modcheck.exact import endos
from modcheck.exact.endos import (
    MultEndo,
    PartialHom,
    certified_witness,
    endo_is_unit,
    nonlocal_witness,
)
from modcheck.exact.rationals import decompose_x
from modcheck.exact.ring import (
    SAMPLE_SEED,
    RElement,
    UElement,
    sample_relements,
    sample_uelements,
)
from modcheck.exact.zext import brute_route_scan, z_extension_routes

import test_exact_arithmetic as arithmetic

DIRECT_XS = (Fraction(1), Fraction(3, 5), Fraction(7, 5))
PARTIAL_XS = (Fraction(4, 3), Fraction(10, 9), Fraction(8, 3))


@pytest.mark.parametrize("x", DIRECT_XS, ids=str)
def test_direct_case_verifies(x):
    report = verify_direct_case(x, 2, 3)
    assert report.case == "direct"
    assert bool(report) and not report.unresolved
    assert all(ok for (_, ok, _) in report.checks)


@pytest.mark.parametrize("x", PARTIAL_XS, ids=str)
def test_partial_case_verifies(x):
    report = verify_partial_case(x, 2, 3)
    assert report.case == "partial"
    assert bool(report) and not report.unresolved
    names = [n for (n, _, _) in report.checks]
    assert "h_epi_samples" in names and "fh_equals_projection_on_samples" in names


@pytest.mark.parametrize("x", PARTIAL_XS, ids=str)
def test_graph_decomposition_verifies(x):
    report = verify_graph_decomposition(x, 2, 3)
    assert report.case == "graph"
    assert bool(report) and not report.unresolved


# Fault injection into the graph scan.  For x = 4/3 at (p, q) = (2, 3) the
# scan pairs u₁ = w·(16ē)·r₁ over the first 8 default samples r₁ with
# u₂ = w·(16ē)·r₂ over the first 8 samples of the seed + 7 family, and checks
# the intersection on the first 12 default samples.


def _graph_scan(monkeypatch, fault):
    """The checks of verify_graph_decomposition(4/3, 2, 3) with UElement.scale
    replaced by fault(self, f, original, setup) wherever that returns non-None."""
    p, q, x = 2, 3, Fraction(4, 3)
    m, n, t, s = decompose_x(x, p, q)
    y = Fraction(q**n * s, t)
    w = 1 - y**2 / Fraction(p) ** (2 * m)
    setup = {
        "w": w,
        "base": UElement.of(p, q, Fraction(p) ** (2 * m)),
        "left": sample_relements(p, q),
        "right": sample_relements(p, q, seed=SAMPLE_SEED + 7),
    }
    original = UElement.scale

    def scale(self, f):
        out = fault(self, f, original, setup)
        return original(self, f) if out is None else out

    monkeypatch.setattr(UElement, "scale", scale)
    report = verify_graph_decomposition(x, p, q)
    return {name: (ok, detail) for name, ok, detail in report.checks}


@pytest.mark.parametrize("side", ["left", "right"])
def test_graph_scan_counts_a_rescaling_that_leaves_u_as_bad(monkeypatch, side):
    def fault(u, f, original, setup):
        w = setup["w"]
        if f == 1 / w and u == original(setup["base"].act(setup[side][3]), w):
            raise ShapeMismatch("w⁻¹·u leaves U")

    ok, detail = _graph_scan(monkeypatch, fault)["sampled_sum_decomposition"]
    assert not ok and detail == "56 sampled pairs decomposed exactly"


@pytest.mark.parametrize("side", ["left", "right"])
def test_graph_scan_catches_a_wrong_rescaling_on_either_side(monkeypatch, side):
    bump = UElement.of(2, 3, 0, Fraction(1, 3))

    def fault(u, f, original, setup):
        w = setup["w"]
        if f == 1 / w and u == original(setup["base"].act(setup[side][5]), w):
            return original(u, f) + bump

    checks = _graph_scan(monkeypatch, fault)
    assert checks["sampled_sum_decomposition"][0] is False
    assert checks["graph_intersection_trivial"][0] is True


def test_graph_intersection_catches_a_vanishing_w_multiple(monkeypatch):
    def fault(u, f, original, setup):
        if f == setup["w"] and u == setup["base"].act(setup["left"][10]):
            return UElement.zero(2, 3)

    checks = _graph_scan(monkeypatch, fault)
    assert checks["graph_intersection_trivial"][0] is False
    assert checks["sampled_sum_decomposition"][0] is True


def test_branch_routing_is_strict():
    with pytest.raises(WrongBranch):
        verify_direct_case(Fraction(4, 3), 2, 3)  # v_3 < 0 belongs to partial
    with pytest.raises(WrongBranch):
        verify_direct_case(Fraction(1, 2), 2, 3)  # not in Z_(2) at all
    with pytest.raises(WrongBranch):
        verify_partial_case(Fraction(3, 5), 2, 3)  # v_3 >= 0 belongs to direct


def test_case_report_serialization_contract():
    doc = verify_direct_case(Fraction(3, 5), 2, 3).to_json()
    assert doc["case"] == "direct" and doc["x"] == "3/5"
    assert doc["verdict"] is True and doc["unresolved"] == []
    assert {"name", "passed", "detail"} <= set(doc["checks"][0])


def test_f_is_additive_modulo_x():
    p, q = 2, 3
    X = default_x_submodule(p, q)
    us = sample_uelements(p, q)[:8]
    for x in (Fraction(7, 5), Fraction(4, 3)):
        for u in us:
            for v in us:
                diff = f_of(x, u + v) - f_of(x, u) - f_of(x, v)
                member, _ = X.contains(diff)
                assert member


def test_membership_solver_on_the_standing_x():
    p, q = 2, 3
    X = default_x_submodule(p, q)
    ok, detail = X.contains(UElement.of(p, q, 4, Fraction(5, 9)))
    assert ok and "r_a" in detail
    ok, _ = X.contains(UElement.of(p, q, 0, Fraction(1, 27)))
    assert ok  # a nonzero first-component generator reaches every class
    ok, detail = X.contains(UElement.generator(p, q))
    assert not ok and "outside the reachable ideal" in detail
    ok, _ = X.contains(UElement.zero(p, q))
    assert ok


def test_mult_endo_requires_both_localizations():
    with pytest.raises(NotWellDefined):
        MultEndo(2, 3, Fraction(1, 2))
    with pytest.raises(NotWellDefined):
        MultEndo(2, 3, Fraction(4, 3))
    h = MultEndo(2, 3, Fraction(3, 5))
    u = UElement.of(2, 3, 2, Fraction(1, 9))
    assert h.apply(u) == UElement.of(2, 3, Fraction(6, 5), Fraction(1, 15))


def _perturbed_apply(monkeypatch, target):
    """Make MultEndo.apply wrong on the single element ``target``."""
    original = MultEndo.apply
    bump = UElement.of(target.p, target.q, 0, Fraction(1, target.q))

    def apply(self, u):
        image = original(self, u)
        return image + bump if u == target else image

    monkeypatch.setattr(MultEndo, "apply", apply)


# The engine relies on u ↦ u·x being R-linear and additive without
# re-checking it; the property test in test_exact_arithmetic is what checks
# it, so a map broken on one element must make that test's body fail.
linearity_property = arithmetic.test_mult_endo_is_r_linear_and_additive.hypothesis.inner_test


def test_mult_endo_catches_a_map_that_is_not_r_linear(monkeypatch):
    p, q = 2, 3
    u, zero = sample_uelements(p, q)[2], UElement.zero(p, q)
    r = next(r for r in sample_relements(p, q) if u.act(r) not in (u, zero))
    linearity_property((p, q, Fraction(3, 5), u, zero, r))
    _perturbed_apply(monkeypatch, u.act(r))
    with pytest.raises(AssertionError, match=r"h\(u·r\) != h\(u\)·r"):
        linearity_property((p, q, Fraction(3, 5), u, zero, r))


def test_mult_endo_catches_a_map_that_is_not_additive(monkeypatch):
    p, q = 2, 3
    u, v = sample_uelements(p, q)[2:4]
    one = RElement.one(p, q)
    linearity_property((p, q, Fraction(3, 5), u, v, one))
    _perturbed_apply(monkeypatch, u + v)
    with pytest.raises(AssertionError, match=r"h\(u \+ v\) != h\(u\) \+ h\(v\)"):
        linearity_property((p, q, Fraction(3, 5), u, v, one))


def test_unit_certificate_checks_raise_rather_than_assert(monkeypatch):
    # Explicit raises, so the checks also run under python -O.
    monkeypatch.setattr(MultEndo, "apply", lambda self, u: u)
    with pytest.raises(CertificateFailed, match="kernel element"):
        endo_is_unit(MultEndo(2, 3, Fraction(3)))
    monkeypatch.undo()
    monkeypatch.setattr(endos, "xgcd", lambda a, b: (1, 0, 0))
    with pytest.raises(CertificateFailed, match="does not sum to 1"):
        certified_witness(2, 3)


def test_unit_certificates_carry_element_evidence():
    cert = endo_is_unit(MultEndo(2, 3, Fraction(5)))
    assert cert.is_unit and cert.missed_element is None and cert.kernel_element is None

    cert = endo_is_unit(MultEndo(2, 3, Fraction(2)))
    assert not cert.is_unit and cert.vp == 1
    assert cert.missed_element == UElement.generator(2, 3)

    e = MultEndo(2, 3, Fraction(3))
    cert = endo_is_unit(e)
    assert not cert.is_unit and cert.vq == 1
    assert cert.kernel_element is not None
    assert not cert.kernel_element.is_zero()
    assert e.apply(cert.kernel_element).is_zero()

    cert = endo_is_unit(MultEndo(2, 3, Fraction(0)))
    assert not cert.is_unit
    assert cert.missed_element is not None and cert.kernel_element is not None


def test_nonlocal_witness_sums_to_identity():
    x, y = nonlocal_witness(2, 3)
    assert x + y == 1
    hx, hy = MultEndo(2, 3, x), MultEndo(2, 3, y)
    assert not endo_is_unit(hx).is_unit and not endo_is_unit(hy).is_unit
    for u in sample_uelements(2, 3):
        assert hx.apply(u) + hy.apply(u) == u


def test_nonlocal_witness_other_prime_pairs():
    for p, q in ((2, 5), (3, 5), (5, 7)):
        x, y = nonlocal_witness(p, q)
        assert x + y == 1
        assert not endo_is_unit(MultEndo(p, q, x)).is_unit
        assert not endo_is_unit(MultEndo(p, q, y)).is_unit


def test_partial_hom_certificates():
    # image must be killed by the annihilator of the source generator
    with pytest.raises(CertificateFailed):
        PartialHom(2, 3, 1, UElement.of(2, 3, 0, Fraction(1, 9)))
    # valuation shortfall in the preimage solve surfaces, never guesses
    h = PartialHom(2, 3, 1, UElement.of(2, 3, 4))
    with pytest.raises(UnresolvedDivision):
        h.preimage_of(UElement.generator(2, 3))


def test_partial_hom_preimage_round_trip():
    h = PartialHom(2, 3, 1, UElement.of(2, 3, Fraction(9, 5)))
    for target in sample_uelements(2, 3)[:12]:
        r = h.preimage_of(target)
        assert h.apply_to_multiple(r) == target
        assert h.in_source(h.source_generator().act(r))


@pytest.mark.parametrize(
    "p, q, error",
    [(4, 3, NonPrime), (9, 2, NonPrime), (-3, 2, NonPrime), (4, 9, NonPrime), (3, 3, ShapeMismatch)],
)
def test_cases_and_witness_refuse_a_bad_prime_pair(p, q, error):
    with pytest.raises(error):
        verify_direct_case(1, p, q)
    with pytest.raises(error):
        verify_partial_case("4/3", p, q)
    with pytest.raises(error):
        verify_graph_decomposition("4/3", p, q)
    with pytest.raises(error):
        fiep_failure_report(p, q)
    with pytest.raises(error):
        sample_uelements(p, q)
    with pytest.raises(error):
        sample_relements(p, q)


PRIME_BELOW_TWO_CALLS = """
from modcheck.errors import NonPrime
from modcheck.exact import PrueferElement, valuation, verify_direct_case, verify_partial_case
calls = (
    lambda: verify_direct_case(1, 2, 1),
    lambda: verify_partial_case(4, 2, 1),
    lambda: valuation(3, 1),
    lambda: valuation(3, 0),
    lambda: PrueferElement.from_rational(1, 3),
)
for call in calls:
    try:
        call()
    except NonPrime:
        print("NonPrime")
    else:
        print("returned")
"""


def test_a_prime_below_two_is_refused_rather_than_looped_on():
    # At prime 1 valuation's stripping loop never ends, so the calls run in a
    # subprocess: a hang fails here at the timeout instead of stalling the suite.
    src = str(Path(modcheck.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", PRIME_BELOW_TWO_CALLS],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=10,
    )
    assert run.stdout.split() == ["NonPrime"] * 5


def test_fiep_failure_report_is_premise_checked_and_labeled():
    report = fiep_failure_report(2, 3)
    assert "does not satisfy the finite internal exchange property" in report.verdict
    assert report.label == "CITED-IMPLICATION"
    assert report.citation  # the implication is quoted, not re-proved
    x, y = report.witness_pair
    assert x + y == 1
    assert all(not c.is_unit for c in report.certificates)
    doc = report.to_json()
    assert doc["premise"] == "End(U) is not local"
    assert doc["label"] == "CITED-IMPLICATION"
    assert len(doc["certificates"]) == 2


def test_z_routes_for_the_headline_pair():
    report = z_extension_routes(2, 3)
    assert report.neither
    assert "does not divide" in report.i_certificate
    assert "does not divide" in report.ii_certificate


def test_z_routes_divisibility_table():
    assert z_extension_routes(2, 4).i_holds and not z_extension_routes(2, 4).ii_holds
    assert z_extension_routes(4, 2).ii_holds and not z_extension_routes(4, 2).i_holds
    both = z_extension_routes(3, 3)
    assert both.i_holds and both.ii_holds
    with pytest.raises(ZeroInput):
        z_extension_routes(0, 5)
    with pytest.raises(ZeroInput):
        brute_route_scan(5, 0)


def test_z_routes_agree_with_brute_scan():
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0:
                continue
            report = z_extension_routes(a, b)
            assert (report.i_holds, report.ii_holds) == brute_route_scan(a, b)
