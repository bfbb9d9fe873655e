"""Decision procedures for submodule and module properties.

Every predicate here is decided by scanning the exhaustive submodule
lattice, so the verdicts are proofs by inspection rather than heuristics.
The scans take the lattice, which callers build once with their caps; the
predicates that take a module are thin wrappers over lattice_of(M).

Each scan is an array expression over the lattice's order matrices:
``containment`` (X ≤ Y), ``disjoint`` (X ∩ Y = 0), ``cospan`` (X + Y = M)
and ``complement`` (M = X ⊕ Y).  Every pair the definition quantifies
over is still inspected; the matrices only hold the answers in one place.

Smallness has a closed form at finite length (containment in the radical)
and so has essentiality (containment of the socle); the scans never use
them, and the acceptance suite checks the scans against both on the
whole corpus.  Coessentiality is decided on M's own lattice through the
correspondence theorem rather than on a literal quotient; the test suite
checks it against the brute-force oracle on literal quotients.

Convention for the zero module: hollow and uniform raise ZeroModule
(both notions presuppose a nonzero module), while lifting and extending
hold vacuously.  Report assembly maps the ZeroModule error to a false
verdict so reports stay total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .endring import endomorphism_ring, is_local
from .errors import ShapeMismatch, TooLarge, ZeroModule
from .homs import DEFAULT_CAP_HOM
from .lattice import DEFAULT_CAP_DIM, SubmoduleLattice, lattice_of
from .modules import RepModule, Submodule
from .summands import DEFAULT_N_MAX, DEFAULT_SEED, fiep_scan

PROPERTY_NAMES = (
    "small",
    "essential",
    "hollow",
    "uniform",
    "uniserial",
    "indecomposable",
    "lifting",
    "extending",
    "fiep",
    "end_local",
)


def radical(M: RepModule) -> Submodule:
    """Intersection of the maximal submodules (M itself if there are none)."""
    lat = lattice_of(M)
    return lat.members[lat.radical_index()]


def socle(M: RepModule) -> Submodule:
    """Sum of the minimal submodules (zero if there are none)."""
    lat = lattice_of(M)
    return lat.members[lat.socle_index()]


# -- small / essential / coessential ------------------------------------------

def _member_index(lat: SubmoduleLattice, N: Submodule) -> int:
    if N.parent != lat.module:
        raise ShapeMismatch("submodule belongs to a different module")
    return lat.index_of(N)


def _small_over(lat: SubmoduleLattice, k: int, n: int) -> bool:
    """Is N/K small in M/K, for members K = k <= N = n?

    By the correspondence theorem the submodules of M/K are the members
    Y >= K, so the test is N + Y != M for every proper member Y >= K.
    K = 0 gives plain smallness.
    """
    return not (lat.containment[k, :-1] & lat.cospan[n, :-1]).any()


def _essential_index(lat: SubmoduleLattice, i: int) -> bool:
    """Member i meets every nonzero member nontrivially."""
    return not lat.disjoint[i, 1:].any()


def is_small(N: Submodule, M: RepModule) -> bool:
    """N + X != M for every proper submodule X, by scanning all X."""
    lat = lattice_of(M)
    return _small_over(lat, lat.zero_index, _member_index(lat, N))


def is_essential(N: Submodule, M: RepModule) -> bool:
    """N meets every nonzero submodule nontrivially, by scanning all of them."""
    lat = lattice_of(M)
    return _essential_index(lat, _member_index(lat, N))


def is_coessential(K: Submodule, N: Submodule, M: RepModule) -> bool:
    """K is coessential in N (within M): N/K is small in M/K.

    Requires K <= N <= M; decided on the lattice of M (see _small_over).
    """
    if K.parent != M or N.parent != M:
        raise ShapeMismatch("submodules belong to a different module")
    if not N.contains_submodule(K):
        raise ShapeMismatch("coessential test needs K contained in N")
    lat = lattice_of(M)
    return _small_over(lat, lat.index_of(K), lat.index_of(N))


# -- module-level predicates ---------------------------------------------------

def hollow_scan(lat: SubmoduleLattice, i: int | None = None) -> bool:
    """Member i (M by default) is nonzero and every proper submodule of it
    is small in it.

    Equivalent scan: no two proper submodules of i sum to i.  They are the
    members below i, with the same sums as in M, and a sum below i is
    proper exactly when some lower cover of i contains both summands; so
    every pair below i must share a cover, one boolean product.
    """
    i = lat.full_index if i is None else i
    if i == lat.zero_index:
        raise ZeroModule("hollow is undefined for the zero module")
    covers = [a for a, b in lat.hasse_edges if b == i]
    below = lat.containment[:, covers][lat.containment[:, i]][:-1]  # i itself is the last
    return bool((below @ below.T).all())


def uniform_scan(lat: SubmoduleLattice, i: int | None = None) -> bool:
    """Member i (M by default) is nonzero and every nonzero submodule of it
    is essential in it.

    Equivalent scan: intersections are the same in i as in M, so no two
    nonzero members below i may be disjoint.
    """
    i = lat.full_index if i is None else i
    if i == lat.zero_index:
        raise ZeroModule("uniform is undefined for the zero module")
    below = np.flatnonzero(lat.containment[1:, i]) + 1
    return not lat.disjoint[np.ix_(below, below)].any()


def uniserial_scan(lat: SubmoduleLattice) -> bool:
    """Submodules totally ordered by inclusion."""
    return bool((lat.containment | lat.containment.T).all())


def indecomposable_scan(lat: SubmoduleLattice) -> bool:
    """No pair of nonzero submodules with zero intersection spanning M."""
    return not lat.complement[1:, 1:].any()


def is_hollow(M: RepModule) -> bool:
    return hollow_scan(lattice_of(M))


def is_uniform(M: RepModule) -> bool:
    return uniform_scan(lattice_of(M))


def is_uniserial(M: RepModule) -> bool:
    return uniserial_scan(lattice_of(M))


def is_indecomposable(M: RepModule) -> bool:
    return indecomposable_scan(lattice_of(M))


# -- lifting / extending --------------------------------------------------------

@dataclass(frozen=True)
class CoverReport:
    """Outcome of a lifting or extending scan.

    ``witness_by_member`` maps each lattice index to the index of the
    direct summand that serves it (first in canonical order); on failure
    the scan stops at the first violating submodule, recorded with its
    basis so the report is meaningful without the lattice at hand.
    """

    property_name: str
    verdict: bool
    witness_by_member: tuple
    violating_index: int | None
    violating_basis: tuple | None

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "verdict": self.verdict,
            "witness_by_member": list(self.witness_by_member),
            "violating_index": self.violating_index,
            "violating_basis": [list(r) for r in self.violating_basis]
            if self.violating_basis is not None
            else None,
        }


def _cover_report(lat: SubmoduleLattice, name: str, serves: np.ndarray) -> CoverReport:
    """``serves[s, i]``: does the s-th direct summand serve member i?

    Each member's witness is the first summand that serves it; the scan
    stops at the first member that none serves.
    """
    summands = np.array(lat.summand_indices())
    served = serves.any(axis=0)
    stop = len(lat) if served.all() else int(np.argmin(served))
    witnesses = tuple(summands[serves[:, :stop].argmax(axis=0)].tolist())
    if stop == len(lat):
        return CoverReport(name, True, witnesses, None, None)
    return CoverReport(name, False, witnesses, stop, lat.members[stop].basis)


def lifting_scan(lat: SubmoduleLattice) -> CoverReport:
    """Every submodule N contains a direct summand coessential in it.

    For each lattice member N the scan tries the direct summands X <= N in
    canonical order and asks whether N/X is small in M/X, that is whether
    no proper member Y >= X has N + Y = M.  A miss for every X is a
    counterexample to lifting.
    """
    leq = lat.containment[list(lat.summand_indices())]
    cospanned = leq[:, :-1] @ lat.cospan[:, :-1].T
    return _cover_report(lat, "lifting", leq & ~cospanned)


def extending_scan(lat: SubmoduleLattice) -> CoverReport:
    """Every submodule is essential in some direct summand.

    Essentiality of N in a candidate X is scanned inside the lattice:
    every nonzero member contained in X must meet N nontrivially.
    """
    above = lat.containment[:, list(lat.summand_indices())].T
    # missed[x, i]: some nonzero member below summand x meets member i in zero
    missed = above[:, 1:] @ lat.disjoint[1:]
    return _cover_report(lat, "extending", above & ~missed)


def is_lifting(M: RepModule) -> CoverReport:
    return lifting_scan(lattice_of(M))


def is_extending(M: RepModule) -> CoverReport:
    return extending_scan(lattice_of(M))


# -- aggregate report ------------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    """All property verdicts for one module, with witnesses and errors.

    The submodule-relative properties report their canonical instances:
    ``small`` is the verdict for the radical (the largest small submodule
    at finite length) and ``essential`` for the socle (the smallest
    essential one); the witness entry records which submodule was tested.
    Properties that exceed a cap land in ``errors`` instead of being
    silently dropped.
    """

    subject: str
    verdicts: dict
    witnesses: dict
    errors: dict

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "subject": self.subject,
            "verdicts": {k: self.verdicts[k] for k in PROPERTY_NAMES if k in self.verdicts},
            "witnesses": self.witnesses,
            "errors": self.errors,
        }

    def to_text(self) -> str:
        lines = [f"module: {self.subject}"]
        for name in PROPERTY_NAMES:
            if name in self.verdicts:
                lines.append(f"  {name:15s} {str(self.verdicts[name]).lower()}")
            elif name in self.errors:
                err = self.errors[name]
                lines.append(f"  {name:15s} skipped ({err['error']}: {err['detail']})")
        return "\n".join(lines)


def property_report(
    M: RepModule,
    subject: str = "",
    cap_dim: int = DEFAULT_CAP_DIM,
    cap_hom: int = DEFAULT_CAP_HOM,
    n_max: int = DEFAULT_N_MAX,
    seed: int = DEFAULT_SEED,
) -> PropertyReport:
    verdicts: dict = {}
    witnesses: dict = {}
    errors: dict = {}
    subject = subject or (M.label or f"module-dim-{M.dim}")

    lattice_props = (
        "small",
        "essential",
        "hollow",
        "uniform",
        "uniserial",
        "indecomposable",
        "lifting",
        "extending",
        "fiep",
    )
    try:
        lat = lattice_of(M, cap_dim=cap_dim)
    except TooLarge as exc:
        lat = None
        for name in lattice_props:
            errors[name] = {"error": "TooLarge", "detail": str(exc)}

    if lat is not None:
        rad, soc = lat.radical_index(), lat.socle_index()
        verdicts["small"] = _small_over(lat, lat.zero_index, rad)
        verdicts["essential"] = _essential_index(lat, soc)
        for name, i, role in (("small", rad, "radical"), ("essential", soc, "socle")):
            witnesses[name] = {"submodule": [list(r) for r in lat.members[i].basis], "role": role}
        for name, scan in (("hollow", hollow_scan), ("uniform", uniform_scan)):
            try:
                verdicts[name] = scan(lat)
            except ZeroModule:
                verdicts[name] = False
                witnesses[name] = {"note": "zero module"}
        verdicts["uniserial"] = uniserial_scan(lat)
        verdicts["indecomposable"] = indecomposable_scan(lat)
        for name, scan in (("lifting", lifting_scan), ("extending", extending_scan)):
            rep = scan(lat)
            verdicts[name] = rep.verdict
            witnesses[name] = rep.to_json()
        fiep = fiep_scan(lat, n_max=n_max, seed=seed)
        verdicts["fiep"] = fiep.verdict
        witnesses["fiep"] = fiep.to_json()

    try:
        ring = endomorphism_ring(M, cap=cap_hom)
        verdicts["end_local"] = is_local(ring)
        witnesses["end_local"] = {"end_dim": len(ring.basis), "end_size": ring.size}
    except TooLarge as exc:
        errors["end_local"] = {"error": "TooLarge", "detail": str(exc)}

    return PropertyReport(subject, verdicts, witnesses, errors)
