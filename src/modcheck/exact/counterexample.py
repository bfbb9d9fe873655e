"""Element-level verification that U² is lifting while End(U) is not local.

U = R/L is cyclic with generator ē, and every nonzero hom f: U → U/X is
determined by f(ē) = x·ē + X for some x ∈ ℤ_(p).  Since u = ē·r has the
explicit representation r_u = (u_a, rep(β), 0), f evaluates as
f(u) = (x·ē)·r_u + X, which stays defined even when v_q(x) < 0 and x·u
itself would not make sense on the Prüfer component.  Two cases:

  direct case   v_q(x) ≥ 0: h = MultEndo(x), u ↦ x·u, is a global
                endomorphism with π∘h = f.
  partial case  v_q(x) < 0: write x = p^m · q^(−n) · t/s, put
                N = (p^m·ē)R and h: N → U with h(p^m·ē) = q^n·(s/t)·ē;
                then h is epi and f∘h = π|_N.

Both identities are checked exactly on the generator and on the sample
drawn at SAMPLE_SEED, with equality in U/X decided by membership solving
against X's generator.  Divisions that would leave a localization
surface as UNRESOLVED outcomes instead of silent guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count, islice

from ..errors import (
    CertificateFailed,
    ShapeMismatch,
    UnresolvedDivision,
    WrongBranch,
)
from .endos import MultEndo, PartialHom, certified_witness
from .rationals import as_fraction, decompose_x, divide, valuation
from .ring import (
    RElement,
    UElement,
    SAMPLE_SEED,
    _check_pair,
    sample_relements,
    sample_uelements,
)


@dataclass(frozen=True)
class GeneratedSubmodule:
    """X = g·R ≤ U for one generator g with a nonzero first component.

    Membership is decided by a triangular solve.  Such a generator
    reaches every Prüfer class (the b'-entry of the acting ring element
    sweeps ℚ), so the first component alone decides membership through
    its p-valuation.
    """

    p: int
    q: int
    generator: UElement

    def __post_init__(self):
        g = self.generator
        if (g.p, g.q) != (self.p, self.q) or g.a == 0:
            raise ShapeMismatch("X needs a generator of U with a nonzero first component")

    def contains(self, u: UElement) -> tuple:
        """(member: bool, detail: str).  Exact; never guesses.

        A division that leaves ℤ_(p) here is a valuation shortfall
        against the reachable ideal p^v·ℤ_(p), so it converts into a
        certified non-membership rather than an UNRESOLVED outcome.
        """
        if u.is_zero():
            return True, "zero element"
        g = self.generator
        b = u.beta.representative() / g.a
        if u.a == 0:
            r, detail = RElement(self.p, self.q, 0, b, 0), f"u = g·(0, {b}, 0)"
        else:
            try:
                r_a = divide(u.a, g.a, self.p)
            except UnresolvedDivision:
                return False, (
                    f"v_{self.p}({u.a}) < v_{self.p}({g.a}): "
                    "first component outside the reachable ideal"
                )
            r = RElement(self.p, self.q, r_a, b, 0)
            detail = f"u = g·r with r_a = {r_a}, b' = {b}"
        if g.act(r) != u:
            raise CertificateFailed(f"membership witness failed for {u}")
        return True, detail


def default_xs(p: int, q: int) -> tuple:
    """The default test values at (p, q): (direct xs, partial xs), as strings.

    With r < s the two smallest primes not dividing pq, the direct values
    1, q/r, s/r lie in ℤ_(p) with v_q ≥ 0, and the partial values p²/q,
    p·r/q², p³/q lie in ℤ_(p) with v_q < 0.  At (2, 3) they are 1, 3/5,
    7/5 and 4/3, 10/9, 8/3.
    """
    primes = (n for n in count(2) if all(n % d for d in range(2, n)))
    r, s = islice((n for n in primes if (p * q) % n), 2)
    direct = (Fraction(1), Fraction(q, r), Fraction(s, r))
    partial = (Fraction(p * p, q), Fraction(p * r, q * q), Fraction(p**3, q))
    return tuple(map(str, direct)), tuple(map(str, partial))


def default_x_submodule(p: int, q: int) -> GeneratedSubmodule:
    """The standing choice X = (p·ē)·R: nonzero, proper, and it absorbs
    every Prüfer class, so f(ē) = x·ē + X is well defined for any
    x ∈ ℤ_(p)."""
    return GeneratedSubmodule(p, q, UElement.of(p, q, p))


def representing_r(u: UElement) -> RElement:
    """r_u with ē·r_u = u: the canonical (u_a, rep(β), 0)."""
    return RElement(u.p, u.q, u.a, u.beta.representative(), 0)


def f_of(x: Fraction, u: UElement) -> UElement:
    """The coset representative (x·ē)·r_u of f(u); add X to read it in U/X."""
    x_gen = UElement.of(u.p, u.q, x)
    return x_gen.act(representing_r(u))


@dataclass(frozen=True)
class CaseReport:
    """Outcome of one verification run against explicit checks."""

    case: str
    p: int
    q: int
    x: Fraction
    verdict: bool
    checks: tuple  # (name, passed: bool, detail)
    unresolved: tuple  # equations from UnresolvedDivision

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "p": self.p,
            "q": self.q,
            "x": str(self.x),
            "verdict": self.verdict,
            "checks": [
                {"name": n, "passed": ok, "detail": d} for (n, ok, d) in self.checks
            ],
            "unresolved": list(self.unresolved),
        }


def _check_f_well_defined(x: Fraction, X: GeneratedSubmodule, checks: list) -> None:
    """f(u) = (x·ē)·r_u + X is independent of the representation r_u iff
    (x·ē)·r'' ∈ X for every r'' killing ē; ann(ē) = {(0, b', c') : b' ∈ ℤ_(q)}
    is generated by (0, 1, 0) and (0, 0, 1)."""
    p, q = X.p, X.q
    x_gen = UElement.of(p, q, x)
    ok = True
    details = []
    for ann in (RElement(p, q, 0, 1, 0), RElement(p, q, 0, 0, 1)):
        member, detail = X.contains(x_gen.act(ann))
        ok = ok and member
        details.append(detail)
    checks.append(("f_well_defined_mod_X", ok, "; ".join(details)))


def verify_direct_case(x, p: int, q: int) -> CaseReport:
    """x ∈ ℤ_(p) ∩ ℤ_(q): h = MultEndo(x) satisfies π∘h = f."""
    _check_pair(p, q)
    x = as_fraction(x)
    X = default_x_submodule(p, q)
    if x != 0 and valuation(x, p) < 0:
        raise WrongBranch(f"{x} is not in Z_({p})")
    if x != 0 and valuation(x, q) < 0:
        raise WrongBranch(f"v_{q}({x}) < 0: this is the partial case")
    checks = []
    unresolved = []
    h = MultEndo(p, q, x)
    checks.append(
        (
            "h_central_scalar",
            True,
            "x ∈ ℤ_(p) ∩ ℤ_(q) acts as the central scalar diag(x, x) of R, "
            "so u ↦ u·x is R-linear",
        )
    )
    _check_f_well_defined(x, X, checks)

    x_gen = UElement.of(p, q, x)  # f(u) = x_gen·r_u, built once for the case
    gen = UElement.generator(p, q)
    diff = h.apply(gen) - x_gen.act(representing_r(gen))
    member, _ = X.contains(diff)
    checks.append(
        ("identity_on_generator", member and diff.is_zero(), "π(h(ē)) = f(ē) exactly")
    )
    samples = sample_uelements(p, q)
    bad = 0
    for u in samples:
        try:
            diff = h.apply(u) - x_gen.act(representing_r(u))
            member, _ = X.contains(diff)
            if not member:
                bad += 1
        except UnresolvedDivision as e:
            unresolved.append(e.equation)
    checks.append(
        ("identity_on_samples", bad == 0, f"{len(samples)} sampled elements, {bad} failures")
    )
    verdict = all(ok for (_, ok, _) in checks) and not unresolved
    return CaseReport("direct", p, q, x, verdict, tuple(checks), tuple(unresolved))


def verify_partial_case(x, p: int, q: int) -> CaseReport:
    """v_q(x) < 0: the partial hom h(p^m·ē) = q^n·(s/t)·ē is epi with f∘h = π|_N."""
    _check_pair(p, q)
    x = as_fraction(x)
    X = default_x_submodule(p, q)
    m, n, t, s = decompose_x(x, p, q)
    checks = []
    unresolved = []
    checks.append(
        (
            "decomposition_reconstructs",
            Fraction(p) ** m * Fraction(t, s) / Fraction(q) ** n == x,
            f"x = {p}^{m} * {q}^(-{n}) * {t}/{s}",
        )
    )
    y = Fraction(q**n * s, t)
    h = PartialHom(p, q, m, UElement.of(p, q, y))
    checks.append(("annihilator_certificate", True, "ann(p^m·ē) kills the image generator"))
    _check_f_well_defined(x, X, checks)

    # Surjectivity: ē has an explicit preimage, as do all sampled targets.
    try:
        r = h.preimage_of(UElement.generator(p, q))
        checks.append(("h_epi_generator", True, f"h(p^{m}·ē·r) = ē with r_a = {r.a}"))
    except UnresolvedDivision as e:
        unresolved.append(e.equation)
    missed = 0
    for target in sample_uelements(p, q):
        try:
            h.preimage_of(target)
        except UnresolvedDivision as e:
            missed += 1
            unresolved.append(e.equation)
    checks.append(("h_epi_samples", missed == 0, "preimages found for all sampled targets"))

    # f∘h = π|_N: on the generator, f(h(p^m·ē)) = f(y·ē) = x·y·ē + X and
    # x·y = p^m exactly.
    exact = x * y == Fraction(p) ** m
    checks.append(("fh_equals_projection_on_generator", exact, f"x·y = {x * y} = {p}^{m}"))
    gen_n = h.source_generator()
    x_gen = UElement.of(p, q, x)
    bad = 0
    for rr in sample_relements(p, q):
        u_n = gen_n.act(rr)
        if not h.in_source(u_n):
            bad += 1
            continue
        lhs = x_gen.act(representing_r(h.apply_to_multiple(rr)))
        try:
            member, _ = X.contains(lhs - u_n)
            if not member:
                bad += 1
        except UnresolvedDivision as e:
            unresolved.append(e.equation)
    checks.append(
        (
            "fh_equals_projection_on_samples",
            bad == 0,
            "f(h(p^m·ē·r)) = p^m·ē·r + X on every sampled r",
        )
    )
    verdict = all(ok for (_, ok, _) in checks) and not unresolved
    return CaseReport("partial", p, q, x, verdict, tuple(checks), tuple(unresolved))


def verify_graph_decomposition(x, p: int, q: int) -> CaseReport:
    """Check the two-graph decomposition identities behind U² = ⟨h₁⟩ ⊕ ⟨h₂⟩.

    h₁: N₁ → U₂ is the partial-case epimorphism and h₂ its coordinate
    swap.  For w = 1 − y²/p^(2m) (a q-unit), any pair (u₁, u₂) with
    uᵢ ∈ w·(p^(2m)·ē)R decomposes exactly as

        (u₁, u₂) = (z₁, h₁(z₁)) + (h₂(z₂), z₂)

    with z₁ = x₁ − h₂(x₂), z₂ = x₂ − h₁(x₁) and xᵢ = w⁻¹·uᵢ, and a
    common element of both graphs must satisfy w·z = 0, which forces
    z = 0.  Full surjectivity onto all of U² is the infinite claim and
    is not sampled here; the sample family is the one on which the
    solves close inside the localization.
    """
    _check_pair(p, q)
    x = as_fraction(x)
    m, n, t, s = decompose_x(x, p, q)
    y = Fraction(q**n * s, t)
    h1 = PartialHom(p, q, m, UElement.of(p, q, y))
    w = 1 - y**2 / Fraction(p) ** (2 * m)
    checks = []
    unresolved = []
    checks.append(("w_nonzero", w != 0, f"w = {w}"))
    checks.append(("w_is_q_unit", valuation(w, q) == 0, f"v_{q}(w) = {valuation(w, q)}"))

    factor = y / Fraction(p) ** m

    def h_apply(u: UElement) -> UElement:
        """h(u) for u = p^m·ē·r: equals y·ē·r = (y/p^m)·u."""
        if not h1.in_source(u):
            raise ShapeMismatch(f"{u} is outside the source N")
        return u.scale(factor)

    # w has v_p(w) = −2m, so w·u only lands in U because the first
    # component of every u below carries at least p^(2m); v_q(w) = 0
    # handles β.
    base = UElement.of(p, q, Fraction(p) ** (2 * m))
    inv_w = 1 / w
    rs = sample_relements(p, q)
    sides = (rs[:12], sample_relements(p, q, seed=SAMPLE_SEED + 7)[:8])

    # Per-sample values of the pair scan below, keyed by (side, index).
    # Each is computed the first time the pair loop needs it and reused
    # for every later pair, so the scan evaluates exactly what a per-pair
    # recomputation would, in the same order, once.
    @cache
    def multiple(side: int, i: int) -> UElement:
        return base.act(sides[side][i])

    @cache
    def u_at(side: int, i: int) -> UElement:
        return multiple(side, i).scale(w)

    @cache
    def x_at(side: int, i: int) -> UElement | None:
        """w⁻¹·u, or None when it leaves U (the pair counts as bad)."""
        try:
            return u_at(side, i).scale(inv_w)
        except ShapeMismatch:
            return None

    @cache
    def hx_at(side: int, i: int) -> UElement:
        return h_apply(x_at(side, i))

    bad = 0
    checked = 0
    for i in range(8):
        for j in range(len(sides[1])):
            u1 = u_at(0, i)
            u2 = u_at(1, j)
            x1 = x_at(0, i)
            if x1 is None:
                bad += 1
                continue
            x2 = x_at(1, j)
            if x2 is None:
                bad += 1
                continue
            checked += 1
            z1 = x1 - hx_at(1, j)
            z2 = x2 - hx_at(0, i)
            if z1 + h_apply(z2) != u1 or h_apply(z1) + z2 != u2:
                bad += 1
    checks.append(
        (
            "sampled_sum_decomposition",
            bad == 0 and checked > 0,
            f"{checked} sampled pairs decomposed exactly",
        )
    )

    survived = 0
    tested = 0
    for i in range(len(sides[0])):
        if multiple(0, i).is_zero():
            continue
        tested += 1
        if u_at(0, i).is_zero():
            survived += 1
    checks.append(
        (
            "graph_intersection_trivial",
            survived == 0 and tested > 0,
            "w·z ≠ 0 for every nonzero sampled z, so a common graph element is 0",
        )
    )
    verdict = all(ok for (_, ok, _) in checks) and not unresolved
    return CaseReport("graph", p, q, x, verdict, tuple(checks), tuple(unresolved))


def case_runners(x: Fraction, q: int) -> tuple:
    """The (name, runner) pairs that verify x, in report order: the
    partial case and the graph decomposition when v_q(x) < 0, else the
    direct case.  ``modcheck exact`` and ``verify`` both route x here."""
    if x != 0 and valuation(x, q) < 0:
        return (("partial", verify_partial_case), ("graph", verify_graph_decomposition))
    return (("direct", verify_direct_case),)


CITATION = "[AF, Proposition 12.10]"


@dataclass(frozen=True)
class FiepFailureReport:
    """Premise-verified, citation-labeled verdict that U² fails the
    finite internal exchange property.

    The machine-checked part is the premise: End(U) is not local,
    witnessed by two certified non-units summing to the identity.  The
    implication premise → failure is quoted from the literature, not
    re-proved here, and the label says so.
    """

    p: int
    q: int
    witness_pair: tuple  # (x, y) with x + y = 1
    certificates: tuple  # UnitCertificate for x and y
    verdict: str
    label: str
    citation: str

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "witness_pair": [str(v) for v in self.witness_pair],
            "certificates": [c.to_json() for c in self.certificates],
            "premise": "End(U) is not local",
            "verdict": self.verdict,
            "label": self.label,
            "citation": self.citation,
        }


def fiep_failure_report(p: int, q: int) -> FiepFailureReport:
    pair, certificates = certified_witness(p, q)
    return FiepFailureReport(
        p=p,
        q=q,
        witness_pair=pair,
        certificates=certificates,
        verdict="U^2 does not satisfy the finite internal exchange property",
        label="CITED-IMPLICATION",
        citation=CITATION,
    )
