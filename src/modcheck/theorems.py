"""Executable forms of the square characterizations of lifting and
extending for a hollow-and-uniform module U, M = U₁ ⊕ U₂ with both
components a copy of U.

Finiteness of the quantifiers.  The characterizations quantify over an
arbitrary module X with an epimorphism g: U₂ → X (lifting side) or a
monomorphism g: X → U₁ (extending side).  Replacing (X, g, f) by an
isomorphic triple changes nothing, and every epimorphism out of U₂ is
isomorphic to a natural projection U₂ → U₂/K while every monomorphism
into U₁ is isomorphic to a submodule inclusion X ↪ U₁.  So the sweeps
below range over the canonical family only: K over the submodule lattice
with g = π (lifting), X over the lattice with g = inclusion (extending),
and f over the whole finite hom space in each case.

Branch (ii) is vacuous on finite modules.  Each triple is discharged by
branch (i), some h ∈ End(U) with f = g∘h (lifting) or f = h∘g
(extending), or by the variant's branch (ii).  Branch (ii) asks for an
epimorphism onto a copy of U or a monomorphism out of one, and a finite
module only surjects onto U from a submodule of at least U's size, and
only embeds U into a quotient of at least U's size:

- lifting (b) and extending (c) need an epimorphism h: N → U with N ≤ U,
  so N = U and h is invertible in End(U).  Lifting (b) reads f∘h = π,
  so f = π∘h⁻¹ with h⁻¹ ∈ End(U); extending (c) reads f = h∘g, branch
  (i)'s own equation.
- lifting (c) and extending (b) need a monomorphism h from U into U/K′
  (K′ ≤ K) or U/K, so the submodule is 0 and h is an isomorphism onto
  U/0, whose projection π₀: U → U/0 is an isomorphism too.  Lifting (c)
  reads f = g′∘h for the induced g′: U/0 → U/K, so f = π∘(π₀⁻¹∘h);
  extending (b) reads h∘f = π₀∘g, so f = (h⁻¹∘π₀)∘g.  Both bracketed
  maps lie in End(U).

Either way branch (ii) discharges only triples branch (i) already
discharges, so the sweep emits "i" or "none" per triple and its one
report decides both variants.  The exact-arithmetic backend is where
branch (ii) matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotHollowUniform
from .homs import DEFAULT_CAP_HOM, hom_from_coords, hom_space, hom_stack
from .lattice import lattice_of
from .linalg import mat_mul, solve_row
from .modules import RepModule, quotient_module
from .properties import hollow_scan, uniform_scan


@dataclass(frozen=True)
class TripleOutcome:
    """One canonical test triple and how it was discharged.

    ``anchor_basis`` is the submodule defining the triple (K for the
    lifting sweep, X for the extending sweep); ``branch`` is "i", with
    the endomorphism h as witness, or "none" when the triple refutes the
    condition.  Branch (ii) adds nothing on a finite module (see the
    module docstring).
    """

    anchor_basis: tuple
    f_matrix: tuple
    branch: str
    witness: dict

    def to_json(self) -> dict:
        return {
            "anchor": [list(r) for r in self.anchor_basis],
            "f": [list(r) for r in self.f_matrix],
            "branch": self.branch,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    verdict: bool
    outcomes: tuple

    def __bool__(self):
        return self.verdict

    def failing(self):
        return next((o for o in self.outcomes if o.branch == "none"), None)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "triples": [o.to_json() for o in self.outcomes],
        }


def _flatten(M) -> tuple:
    return tuple(x for row in M for x in row)


def _sweep(theorem: str, U: RepModule, system) -> TheoremReport:
    """Branch (i) over every canonical triple of one criterion.

    ``system(member)`` returns the triple's f as hom_stack chunks (which
    refuse past the hom cap) and ``image``, the composite of an
    endomorphism E with g (E·P for lifting, B_X·E for extending).  A
    triple holds when Σ cᵢ·image(Eᵢ) = F has a solution c over the basis
    Eᵢ of End(U); the witness is h = Σ cᵢ·Eᵢ.
    """
    lat = lattice_of(U)
    if U.dim == 0 or not (hollow_scan(lat) and uniform_scan(lat)):
        raise NotHollowUniform("the component module must be hollow and uniform")
    p = U.field.p
    end_basis = hom_space(U, U)
    outcomes = []
    for member in lat.members:
        fs, image = system(member)
        A = tuple(_flatten(image(E)) for E in end_basis)
        for F in (tuple(map(tuple, m)) for chunk in fs for m in chunk.tolist()):
            sol = solve_row(A, _flatten(F), p)
            if sol is None:
                outcomes.append(TripleOutcome(member.basis, F, "none", {}))
            else:
                h = hom_from_coords(U, U, end_basis, sol).matrix
                outcomes.append(
                    TripleOutcome(member.basis, F, "i", {"h": [list(r) for r in h]})
                )
    verdict = all(o.branch == "i" for o in outcomes)
    return TheoremReport(theorem, verdict, tuple(outcomes))


def square_lifting_criterion(U: RepModule, cap_hom: int = DEFAULT_CAP_HOM) -> TheoremReport:
    """Decide the lifting condition for M = U², variants (b) and (c) alike.

    Canonical triple family: X = U₂/K for K over the lattice of U,
    g = natural projection, f over Hom(U₁, U₂/K).  A triple holds when
    some h: U₁ → U₂ has f = g∘h, the system E·P = F for the projection
    matrix P.  The branch (ii) of either variant adds nothing on a
    finite module.
    """
    p = U.field.p

    def system(K):
        Q, pi = quotient_module(U, K)
        return hom_stack(U, Q, cap_hom), lambda E: mat_mul(E, pi.matrix, p)

    return _sweep("lifting", U, system)


def square_extending_criterion(U: RepModule, cap_hom: int = DEFAULT_CAP_HOM) -> TheoremReport:
    """Decide the extending condition for M = U², variants (b) and (c) alike.

    Canonical triple family: X over the lattice of U₁, g = inclusion,
    f over Hom(X, U₂).  A triple holds when some h: U₁ → U₂ has
    f = h∘g, the system B_X·E = F for X's basis B_X.  The branch (ii) of
    either variant adds nothing on a finite module.
    """
    p = U.field.p

    def system(X):
        return hom_stack(X, U, cap_hom), lambda E: mat_mul(X.basis, E, p)

    return _sweep("extending", U, system)
