"""Acceptance gate: the ten contract criteria, one verdict line each.

Every test prints "criterion N (<label>): PASS/FAIL" plus its runtime, then
asserts.  Runtime bounds are part of the contract and asserted too.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from modcheck import (
    direct_sum,
    has_fiep,
    hollow_uniform_fixtures,
    hom_from_coords,
    hom_space,
    graph_laws,
    is_essential,
    is_extending,
    is_hollow,
    is_lifting,
    is_small,
    is_uniform,
    is_uniserial,
    lattice_of,
    square_extending_criterion,
    square_lifting_criterion,
    verify_claims,
)
from modcheck.exact import (
    MultEndo,
    brute_route_scan,
    endo_is_unit,
    fiep_failure_report,
    nonlocal_witness,
    verify_direct_case,
    verify_partial_case,
    z_extension_routes,
)
from modcheck.oracles import BRUTE_HOM_CAP, brute_hom_matrices
from modcheck.verify import CLAIMS, EXAMPLE_SUBMODULE_BASES


def report(num, label, ok, t0, bound, detail=""):
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d} ({label}): {verdict} ({elapsed:.2f}s / {bound:.0f}s){suffix}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.2f}s)"


def same_algebra_pairs(members):
    return [
        (a, b)
        for a, b in combinations_with_replacement(members, 2)
        if a.module.algebra == b.module.algebra
    ]


def all_homs(A, B):
    basis = hom_space(A, B)
    p = A.algebra.field.p
    for coeffs in product(range(p), repeat=len(basis)):
        yield hom_from_coords(A, B, basis, coeffs)


def test_criterion_01_running_example(fixtures_by_name):
    t0 = time.perf_counter()
    ok = True
    for name in ("tri4_f2", "tri4_f3"):
        M = fixtures_by_name[name].module
        lat = lattice_of(M)
        ok = ok and {m.basis for m in lat.members} == EXAMPLE_SUBMODULE_BASES
        ok = ok and len(lat.members) == 6
        ok = ok and is_hollow(M) and is_uniform(M) and not is_uniserial(M)
    report(1, "running example", ok, t0, 1.0)


def test_criterion_02_summands_of_sums(fixtures):
    t0 = time.perf_counter()
    pairs = same_algebra_pairs(hollow_uniform_fixtures(fixtures))
    violations = []
    checked = 0
    for a, b in pairs:
        M = direct_sum(a.module, b.module).module
        lat = lattice_of(M)
        for i in lat.summand_indices():
            X = lat.members[i]
            if X.dim in (0, M.dim):
                continue
            checked += 1
            part = X.as_module()
            if not (is_hollow(part) and is_uniform(part)):
                violations.append((a.name, b.name, X.basis))
    ok = not violations and len(pairs) >= 10 and checked > 0
    report(2, "summands of sums", ok, t0, 30.0, f"{len(pairs)} pairs, {checked} summands")


def test_criterion_03_graph_laws(base_fixtures):
    t0 = time.perf_counter()
    violations = []
    cases = 0
    for a, b in same_algebra_pairs(base_fixtures):
        for src, tgt in ((a.module, b.module), (b.module, a.module)):
            p = src.algebra.field.p
            if p ** len(hom_space(src, tgt)) > 256:
                continue
            ds = direct_sum(src, tgt)
            for h in all_homs(src, tgt):
                laws = graph_laws(ds, h)
                cases += 1
                if not (laws["kernel_law"] and laws["summand_law"] and laws["sum_law"]):
                    violations.append((a.name, b.name, laws))
    ok = not violations and cases > 100
    report(3, "graph laws", ok, t0, 60.0, f"{cases} homs")


def _square_agreement(fixtures, definitional, criterion):
    disagreements = []
    subjects = 0
    for fx in hollow_uniform_fixtures(fixtures):
        U = fx.module
        if 2 * U.dim > 8:
            continue
        subjects += 1
        M = direct_sum(U, U).module
        scan = definitional(M).verdict
        swept = criterion(U).verdict
        if scan != swept:
            disagreements.append((fx.name, scan, swept))
    return subjects, disagreements


def test_criterion_04_lifting_equivalence(fixtures):
    t0 = time.perf_counter()
    subjects, bad = _square_agreement(fixtures, is_lifting, square_lifting_criterion)
    report(4, "square lifting criterion", not bad and subjects >= 10, t0, 300.0,
           f"{subjects} squares")


def test_criterion_05_extending_equivalence(fixtures):
    t0 = time.perf_counter()
    subjects, bad = _square_agreement(fixtures, is_extending, square_extending_criterion)
    report(5, "square extending criterion", not bad and subjects >= 10, t0, 300.0,
           f"{subjects} squares")


def test_criterion_06_finite_exchange(fixtures):
    t0 = time.perf_counter()
    failures = []
    for fx in fixtures:
        rep = has_fiep(fx.module, n_max=3, seed=1789)
        if not (rep.verdict and rep.witnesses and rep.pairs_checked == len(rep.witnesses)):
            failures.append(fx.name)
    report(6, "finite exchange sanity", not failures, t0, 120.0,
           f"{len(fixtures)} modules")


def test_criterion_07_integer_routes():
    t0 = time.perf_counter()
    headline = z_extension_routes(2, 3)
    ok = headline.neither
    ok = ok and "does not divide" in headline.i_certificate
    ok = ok and "does not divide" in headline.ii_certificate
    mismatches = 0
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 or b == 0:
                continue
            rep = z_extension_routes(a, b)
            if (rep.i_holds, rep.ii_holds) != brute_route_scan(a, b):
                mismatches += 1
    report(7, "integer extension routes", ok and mismatches == 0, t0, 60.0,
           "1600 pairs cross-checked")


def test_criterion_08_exact_counterexample():
    t0 = time.perf_counter()
    ok = True
    unresolved = []
    for x in ("1", "3/5", "7/5"):
        rep = verify_direct_case(Fraction(x), 2, 3)
        ok = ok and bool(rep)
        unresolved.extend(rep.unresolved)
    for x in ("4/3", "10/9", "8/3"):
        rep = verify_partial_case(Fraction(x), 2, 3)
        ok = ok and bool(rep)
        unresolved.extend(rep.unresolved)
    wx, wy = nonlocal_witness(2, 3)
    ok = ok and wx + wy == 1
    ok = ok and not endo_is_unit(MultEndo(2, 3, wx)).is_unit
    ok = ok and not endo_is_unit(MultEndo(2, 3, wy)).is_unit
    failure = fiep_failure_report(2, 3)
    ok = ok and failure.label == "CITED-IMPLICATION" and bool(failure.citation)
    ok = ok and "does not satisfy the finite internal exchange property" in failure.verdict
    ok = ok and all(not c.is_unit for c in failure.certificates)
    report(8, "exact counterexample", ok and not unresolved, t0, 10.0,
           f"{len(unresolved)} unresolved")


def test_criterion_09_oracle_agreements(fixtures, base_fixtures):
    t0 = time.perf_counter()
    disagreements = []
    pairs = 0
    for fx in fixtures:
        M = fx.module
        lat = lattice_of(M)
        ri, si = lat.radical_index(), lat.socle_index()
        for i, N in enumerate(lat.members):
            pairs += 1
            if is_small(N, M) != lat.leq(i, ri):
                disagreements.append((fx.name, "small", i))
            if is_essential(N, M) != lat.leq(si, i):
                disagreements.append((fx.name, "essential", i))

    hom_checks = 0
    for a, b in same_algebra_pairs([f for f in base_fixtures if f.module.algebra.field.p == 2]):
        A, B = a.module, b.module
        if A.dim > 4 or B.dim > 4 or 2 ** (A.dim * B.dim) > BRUTE_HOM_CAP:
            continue
        brute = set(brute_hom_matrices(A, B, BRUTE_HOM_CAP))
        spanned = set()
        for h in all_homs(A, B):
            spanned.add(h.matrix)
        if spanned != brute:
            disagreements.append((a.name, b.name, "hom_space"))
        hom_checks += 1
    ok = not disagreements and pairs > 100 and hom_checks >= 10
    report(9, "oracle agreements", ok, t0, 120.0,
           f"{pairs} lattice pairs, {hom_checks} hom spaces")


def test_criterion_10_verify_run():
    t0 = time.perf_counter()
    manifest = verify_claims()
    ok = manifest.passed

    ids = [c.check_id for c in manifest.checks]
    for anchor in CLAIMS:
        ok = ok and any(i.startswith(anchor + "/") for i in ids)
    for i in ids:
        ok = ok and any(i.startswith(anchor + "/") for anchor in CLAIMS)

    def stripped(m):
        doc = m.to_json()
        for c in doc["checks"]:
            c.pop("duration_ms")
        return doc

    ok = ok and stripped(manifest) == stripped(verify_claims())
    report(10, "end-to-end verify manifest", ok, t0, 600.0,
           f"{len(ids)} checks")
