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

Inside the (ii) branches the existential candidates are prefiltered by a
plain rank fact: a surjective linear map needs a source of at least the
target's dimension and an injective one needs a target at least as large
as the source.  Candidates failing the count admit no witness of any
kind, module structure aside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import NotHollowUniform, TooLarge
from .homs import hom_space
from .lattice import SubmoduleLattice, lattice_of
from .linalg import inverse, left_kernel, lin_comb, mat_mul, rank, solve_row
from .modules import RepModule, quotient_module
from .properties import hollow_scan, uniform_scan

DEFAULT_CAP_SWEEP = 1 << 20


@dataclass(frozen=True)
class TripleOutcome:
    """One canonical test triple and how it was discharged.

    ``anchor_basis`` is the submodule defining the triple (K for the
    lifting sweep, X for the extending sweep); ``branch`` is "i", "ii",
    or "none" when the triple refutes the condition.
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
    variant: str
    verdict: bool
    outcomes: tuple

    def __bool__(self):
        return self.verdict

    def failing(self):
        return next((o for o in self.outcomes if o.branch == "none"), None)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "variant": self.variant,
            "verdict": self.verdict,
            "triples": [o.to_json() for o in self.outcomes],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _require_hollow_uniform(lat: SubmoduleLattice) -> None:
    if lat.module.dim == 0 or not (hollow_scan(lat) and uniform_scan(lat)):
        raise NotHollowUniform("the component module must be hollow and uniform")


def _quotients(lat: SubmoduleLattice):
    """Lookup k -> (U/K, projection matrix, basis of Hom(U, U/K)) for the
    member K = k, each quotient built once per criterion call."""
    table = {}

    def quotient(k: int):
        if k not in table:
            Q, pi = quotient_module(lat.module, lat.members[k])
            table[k] = (Q, pi.matrix, hom_space(lat.module, Q))
        return table[k]

    return quotient


def _flatten(M) -> tuple:
    return tuple(x for row in M for x in row)


def _affine_solutions(A_rows, b, p):
    """All x with x @ A == b, as (particular, kernel basis); None if empty."""
    if not A_rows:
        return ((), ()) if not any(v % p for v in b) else None
    part = solve_row(A_rows, b, p)
    if part is None:
        return None
    return part, left_kernel(A_rows, p)


def _iter_affine(part, kernel, p):
    for coeffs in product(range(p), repeat=len(kernel)):
        x = list(part)
        for c, krow in zip(coeffs, kernel):
            if c:
                for j in range(len(x)):
                    x[j] = (x[j] + c * krow[j]) % p
        yield tuple(x)


def square_lifting_criterion(
    U: RepModule, variant: str = "b", cap_sweep: int = DEFAULT_CAP_SWEEP
) -> TheoremReport:
    """Decide the lifting condition for M = U², variant (b) or (c).

    Canonical triple family: X = U₂/K for K over the lattice of U,
    g = natural projection, f over Hom(U₁, U₂/K).  Per triple:

    branch (i), both variants: some h: U₁ → U₂ with f = g∘h.
    branch (ii), variant b: a submodule N ≤ U₂ and an epimorphism
      h: N → U₁ with g|_N = f∘h.
    branch (ii), variant c: a submodule K' ≤ Ker g and a monomorphism
      h: U₁ → U₂/K' with g'∘h = f, g' the map induced by g.
    """
    if variant not in ("b", "c"):
        raise ValueError("variant must be 'b' or 'c'")
    lat = lattice_of(U)
    _require_hollow_uniform(lat)
    p = U.field.p
    n = U.dim
    quotient = _quotients(lat)
    end_basis = hom_space(U, U)
    outcomes = []
    verdict = True
    for k, K in enumerate(lat.members):
        Q, P, fam = quotient(k)
        if p ** len(fam) > cap_sweep:
            raise TooLarge("lifting sweep", p ** len(fam), cap_sweep)
        # branch (i) system: coefficients c with sum c_i (E_i P) = F
        A_i = tuple(_flatten(mat_mul(E, P, p)) for E in end_basis)
        for coeffs in product(range(p), repeat=len(fam)):
            F = lin_comb(coeffs, fam, n, Q.dim, p)
            sol = solve_row(A_i, _flatten(F), p) if A_i else (
                () if not any(_flatten(F)) else None
            )
            if sol is not None:
                h = lin_comb(sol, end_basis, n, n, p)
                outcomes.append(
                    TripleOutcome(K.basis, F, "i", {"h": [list(r) for r in h]})
                )
                continue
            wit = (
                _lifting_branch_b(lat, K, F, P, end_basis, p, n)
                if variant == "b"
                else _lifting_branch_c(lat, quotient, K, F, P, p, n)
            )
            if wit is None:
                verdict = False
                outcomes.append(TripleOutcome(K.basis, F, "none", {}))
            else:
                outcomes.append(TripleOutcome(K.basis, F, "ii", wit))
    return TheoremReport("lifting", variant, verdict, tuple(outcomes))


def _lifting_branch_b(lat, K, F, P, end_basis, p, n):
    """Epimorphism h: N → U₁ with g|_N = f∘h, N over the lattice of U₂."""
    for N in lat.members:
        if N.dim < n:
            continue  # too small to surject onto U₁
        # N is all of U₂ here; unknown h ranges over End(U) as matrices,
        # the condition g|_N = f h reads H F = P.
        A = tuple(_flatten(mat_mul(E, F, p)) for E in end_basis)
        sols = _affine_solutions(A, _flatten(P), p)
        if sols is None:
            continue
        part, ker = sols
        for x in _iter_affine(part, ker, p):
            H = lin_comb(x, end_basis, n, n, p)
            if rank(H, p) == n:
                return {
                    "N": [list(r) for r in N.basis],
                    "h": [list(r) for r in H],
                }
    return None


def _lifting_branch_c(lat, quotient, K, F, P, p, n):
    """Monomorphism h: U₁ → U₂/K' with g'h = f, K' ≤ Ker g = K."""
    k_idx = lat.index_of(K)
    for kp_idx in range(len(lat.members)):
        Kp = lat.members[kp_idx]
        if not lat.leq(kp_idx, k_idx):
            continue
        if n - Kp.dim < n:
            continue  # U₂/K' too small to receive a monomorphism from U₁
        Qp, Pp, fam = quotient(kp_idx)
        # g' : U₂/K' -> U₂/K with g'(pi'(u)) = pi(u); pi' is onto, so a
        # linear section S (S pi' = id) gives the matrix G = S P.
        S = inverse(Pp, p) if Qp.dim == n else None
        if S is None:
            continue
        G = mat_mul(S, P, p)
        A = tuple(_flatten(mat_mul(E, G, p)) for E in fam)
        sols = _affine_solutions(A, _flatten(F), p)
        if sols is None:
            continue
        part, ker = sols
        for x in _iter_affine(part, ker, p):
            H = lin_comb(x, fam, n, Qp.dim, p)
            if rank(H, p) == n:
                return {
                    "K_prime": [list(r) for r in Kp.basis],
                    "h": [list(r) for r in H],
                }
    return None


def square_extending_criterion(
    U: RepModule, variant: str = "b", cap_sweep: int = DEFAULT_CAP_SWEEP
) -> TheoremReport:
    """Decide the extending condition for M = U², variant (b) or (c).

    Canonical triple family: X over the lattice of U₁, g = inclusion,
    f over Hom(X, U₂).  Per triple:

    branch (i), both variants: some h: U₁ → U₂ with f = h∘g.
    branch (ii), variant b: a submodule K ≤ U₁ and a monomorphism
      h: U₂ → U₁/K with h∘f = π∘g.
    branch (ii), variant c: a submodule N ≤ U₁ containing im g and an
      epimorphism h: N → U₂ with f = h∘g.
    """
    if variant not in ("b", "c"):
        raise ValueError("variant must be 'b' or 'c'")
    lat = lattice_of(U)
    _require_hollow_uniform(lat)
    p = U.field.p
    n = U.dim
    quotient = _quotients(lat)
    end_basis = hom_space(U, U)
    outcomes = []
    verdict = True
    for X in lat.members:
        Xmod = X.as_module()
        fam = hom_space(Xmod, U) if X.dim else ()
        if p ** len(fam) > cap_sweep:
            raise TooLarge("extending sweep", p ** len(fam), cap_sweep)
        B = X.basis
        A_i = tuple(_flatten(mat_mul(B, E, p)) for E in end_basis)
        for coeffs in product(range(p), repeat=len(fam)):
            F = lin_comb(coeffs, fam, X.dim, n, p)
            flatF = _flatten(F)
            sol = solve_row(A_i, flatF, p) if A_i else (() if not any(flatF) else None)
            if sol is not None:
                h = lin_comb(sol, end_basis, n, n, p)
                outcomes.append(
                    TripleOutcome(X.basis, F, "i", {"h": [list(r) for r in h]})
                )
                continue
            wit = (
                _extending_branch_b(lat, quotient, X, F, p, n)
                if variant == "b"
                else _extending_branch_c(lat, X, F, end_basis, p, n)
            )
            if wit is None:
                verdict = False
                outcomes.append(TripleOutcome(X.basis, F, "none", {}))
            else:
                outcomes.append(TripleOutcome(X.basis, F, "ii", wit))
    return TheoremReport("extending", variant, verdict, tuple(outcomes))


def _extending_branch_b(lat, quotient, X, F, p, n):
    """Monomorphism h: U₂ → U₁/K with h∘f = π∘g, K over the lattice of U₁."""
    for k, K in enumerate(lat.members):
        if n - K.dim < n:
            continue  # U₁/K too small to receive a monomorphism from U₂
        Q, P, fam = quotient(k)
        target = mat_mul(X.basis, P, p)  # π∘g on X's basis
        A = tuple(_flatten(mat_mul(F, E, p)) for E in fam)
        sols = _affine_solutions(A, _flatten(target), p)
        if sols is None:
            continue
        part, ker = sols
        for x in _iter_affine(part, ker, p):
            H = lin_comb(x, fam, n, Q.dim, p)
            if rank(H, p) == n:
                return {"K": [list(r) for r in K.basis], "h": [list(r) for r in H]}
    return None


def _extending_branch_c(lat, X, F, end_basis, p, n):
    """Epimorphism h: N → U₂ with f = h∘g, N over members containing X."""
    x_idx = lat.index_of(X)
    for n_idx in range(len(lat.members)):
        N = lat.members[n_idx]
        if not lat.leq(x_idx, n_idx):
            continue
        if N.dim < n:
            continue  # too small to surject onto U₂
        # N is all of U₁; h ranges over End(U), the condition reads B_X H = F.
        A = tuple(_flatten(mat_mul(X.basis, E, p)) for E in end_basis)
        sols = _affine_solutions(A, _flatten(F), p)
        if sols is None:
            continue
        part, ker = sols
        for x in _iter_affine(part, ker, p):
            H = lin_comb(x, end_basis, n, n, p)
            if rank(H, p) == n:
                return {"N": [list(r) for r in N.basis], "h": [list(r) for r in H]}
    return None
