"""Endomorphisms of U given by multiplication, their unit certificates,
and the two-non-units-summing-to-one witness that End(U) is not local.

A rational x with v_p(x) ≥ 0 and v_q(x) ≥ 0 acts on U componentwise;
that is exactly when u ↦ x·u is well defined.  Such an endomorphism is
a unit iff both valuations are zero, and each failure direction has an
element-level certificate:

  v_p(x) > 0: ē = (1, 0) has no preimage, because x·(a, β) would need
              a = 1/x on the first component and v_p(1/x) < 0.
  v_q(x) > 0: (0, 1/q) is a nonzero kernel element, because x/q ∈ ℤ_(q).

u ↦ x·u is right multiplication by the central scalar diag(x, x) of R,
so it is R-linear and additive by construction, and x + y = 1 makes
u ↦ x·u + y·u the identity.  tests/test_exact_arithmetic.py checks these
identities of the arithmetic; the checks here are evidence about the
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import CertificateFailed, NotWellDefined, ShapeMismatch
from .rationals import as_fraction, divide, valuation, xgcd
from .ring import RElement, UElement, _check_pair


@dataclass(frozen=True)
class MultEndo:
    """u ↦ x·u on U, for x with v_p(x) ≥ 0 and v_q(x) ≥ 0: right
    multiplication by the central scalar diag(x, x), so R-linear."""

    p: int
    q: int
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_fraction(self.x))
        if self.x != 0:
            if valuation(self.x, self.p) < 0:
                raise NotWellDefined(f"v_{self.p}({self.x}) < 0")
            if valuation(self.x, self.q) < 0:
                raise NotWellDefined(f"v_{self.q}({self.x}) < 0")

    def apply(self, u: UElement) -> UElement:
        if (u.p, u.q) != (self.p, self.q):
            raise ShapeMismatch("element from a different module")
        return u.scale(self.x)


@dataclass(frozen=True)
class UnitCertificate:
    """Verdict on one endomorphism with element-level evidence."""

    x: Fraction
    is_unit: bool
    vp: int | None
    vq: int | None
    missed_element: UElement | None  # not surjective: no preimage of this
    kernel_element: UElement | None  # not injective: this maps to zero

    def to_json(self) -> dict:
        return {
            "x": str(self.x),
            "is_unit": self.is_unit,
            "v_p": self.vp,
            "v_q": self.vq,
            "missed_element": None
            if self.missed_element is None
            else str(self.missed_element.a),
            "kernel_element": None
            if self.kernel_element is None
            else f"{self.kernel_element.beta.k}/{self.kernel_element.beta.q}^{self.kernel_element.beta.n}",
        }


def endo_is_unit(e: MultEndo) -> UnitCertificate:
    """Unit ⟺ v_p(x) = v_q(x) = 0, with certified failure directions."""
    p, q, x = e.p, e.q, e.x
    if x == 0:
        gen = UElement.generator(p, q)
        ker = UElement.of(p, q, 1)
        return UnitCertificate(x, False, None, None, gen, ker)
    vp = valuation(x, p)
    vq = valuation(x, q)
    missed = None
    kernel = None
    if vp > 0:
        # x·(a, β) has first component x·a with v_p ≥ vp > 0, so ē is missed.
        missed = UElement.generator(p, q)
    if vq > 0:
        kernel = UElement.of(p, q, 0, Fraction(1, q))
        if kernel.is_zero() or not e.apply(kernel).is_zero():
            raise CertificateFailed(f"(0, 1/{q}) is not a nonzero kernel element of x={x}")
    # Both valuations zero: u ↦ u/x is well defined and inverts e.
    return UnitCertificate(x, vp == 0 and vq == 0, vp, vq, missed, kernel)


def nonlocal_witness(p: int, q: int) -> tuple:
    """Two certified non-unit endomorphisms of U summing to the identity.

    Bézout gives u·p + v·q = 1; x = u·p kills surjectivity on the ℤ_(p)
    component and y = v·q kills injectivity on the Prüfer component, so
    the non-units of End(U) are not closed under addition.
    """
    return certified_witness(p, q)[0]


def certified_witness(p: int, q: int) -> tuple:
    """((x, y), (cert_x, cert_y)): the non-local witness pair together
    with the unit certificates that rule out both members."""
    _check_pair(p, q)  # two distinct primes, so xgcd's g is 1
    _, u, v = xgcd(p, q)
    x = Fraction(u * p)
    y = Fraction(v * q)
    if x + y != 1:
        raise CertificateFailed(f"Bézout pair ({x}, {y}) does not sum to 1")
    cx = endo_is_unit(MultEndo(p, q, x))
    cy = endo_is_unit(MultEndo(p, q, y))
    if cx.is_unit or cy.is_unit:
        raise CertificateFailed(f"witness pair ({x}, {y}) contains a unit")
    return (x, y), (cx, cy)


@dataclass(frozen=True)
class PartialHom:
    """h: N = (p^m·ē)R → U with h(p^m·ē) = image_of_generator.

    Well-definedness certificate: every generator of the annihilator of
    p^m·ē in R must kill the image too.  ann(p^m·ē) is generated by
    (0, p^(−m), 0) and (0, 0, 1), since (p^m, 0)·(a', b', c') =
    (p^m·a', [p^m·b']).
    """

    p: int
    q: int
    m: int
    image_of_generator: UElement

    def __post_init__(self):
        if self.m < 0:
            raise ShapeMismatch("negative exponent")
        gen_img = self.image_of_generator
        if (gen_img.p, gen_img.q) != (self.p, self.q):
            raise ShapeMismatch("image element from a different module")
        for ann in self.annihilator_generators():
            img = gen_img.act(ann)
            if not img.is_zero():
                raise CertificateFailed(
                    f"annihilator generator {ann} does not kill the image"
                )

    def annihilator_generators(self) -> tuple:
        p, q = self.p, self.q
        return (
            RElement(p, q, 0, Fraction(1, self.p**self.m), 0),
            RElement(p, q, 0, 0, 1),
        )

    def source_generator(self) -> UElement:
        return UElement.of(self.p, self.q, self.p**self.m)

    def apply_to_multiple(self, r: RElement) -> UElement:
        """h(p^m·ē · r) = image_of_generator · r."""
        return self.image_of_generator.act(r)

    def in_source(self, u: UElement) -> bool:
        """Membership in N = (p^m·ē)R: v_p of the first component ≥ m.

        With a generator whose first component is p^m, the b'-entry of the
        acting ring element sweeps the whole Prüfer component, so only the
        p-valuation constrains membership.
        """
        if u.a == 0:
            return True
        return valuation(u.a, self.p) >= self.m

    def preimage_of(self, target: UElement) -> RElement:
        """Some r with h(p^m·ē·r) = target.

        Solves target = img·r with c' = 0: the first component forces
        r_a = target_a / img_a (an ℤ_(p) division, which raises
        UnresolvedDivision on a valuation shortfall), and b' is then free
        to hit the Prüfer part exactly.
        """
        img = self.image_of_generator
        r_a = divide(target.a, img.a, self.p)
        want = target.beta - img.beta.scale(r_a)
        b = want.representative() / img.a
        r = RElement(self.p, self.q, r_a, b, 0)
        if self.apply_to_multiple(r) != target:
            raise CertificateFailed(f"preimage solve failed for {target}")
        return r
