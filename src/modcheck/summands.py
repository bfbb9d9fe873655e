"""Direct summands, internal direct-sum decompositions, and the finite
internal exchange property.

A member X of the lattice is a direct summand when some member Y has
X ∩ Y = 0 and X + Y = M; over a field both conditions reduce to one
dimension count plus one intersection bitset test.  Decompositions are
ordered tuples of nonzero parts whose stacked bases have full rank.

has_fiep is an exhaustive scan: for every summand X and every
decomposition M = ⊕ M_i it searches submodules M_i' ≤ M_i making
M = X ⊕ (⊕ M_i').  On finite-length modules this must come back true
(exchange follows from local endomorphism rings of the indecomposable
pieces), so a false verdict here flags an implementation bug, not a
mathematical discovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import ShapeMismatch
from .lattice import SubmoduleLattice, lattice_of
from .linalg import rank
from .modules import RepModule, Submodule

DECOMP_SAMPLE_CAP = 10**4


@dataclass(frozen=True)
class Decomposition:
    """Ordered internal direct sum M = X₁ ⊕ … ⊕ X_n with nonzero parts."""

    module: RepModule
    parts: tuple  # Submodule tuple

    def __post_init__(self):
        if any(p.is_zero() for p in self.parts):
            raise ShapeMismatch("decomposition parts must be nonzero")
        total = sum(p.dim for p in self.parts)
        if total != self.module.dim:
            raise ShapeMismatch("part dimensions do not add up to the module")
        stacked = tuple(row for p in self.parts for row in p.basis)
        if rank(stacked, self.module.field.p) != self.module.dim:
            raise ShapeMismatch("parts are not independent")

    def __len__(self):
        return len(self.parts)


def summand_indices(lat: SubmoduleLattice) -> tuple:
    """Indices of all direct summands, ascending canonical order."""
    return lat.summand_indices()


def is_direct_summand(X: Submodule, M: RepModule):
    """First complement of X in canonical lattice order, or None."""
    if X.parent != M:
        raise ShapeMismatch("submodule belongs to a different module")
    lat = lattice_of(M)
    j = lat.complement_index(lat.index_of(X))
    return lat.members[j] if j is not None else None


def all_summands(M: RepModule) -> tuple:
    lat = lattice_of(M)
    return tuple(lat.members[i] for i in lat.summand_indices())


def all_decompositions(M: RepModule, n: int) -> tuple:
    """All ordered internal direct sums of M into n nonzero parts."""
    lat = lattice_of(M)
    return tuple(
        Decomposition(M, tuple(lat.members[i] for i in idxs))
        for idxs in _decomposition_index_tuples(lat, n)
    )


def _decomposition_index_tuples(lat: SubmoduleLattice, n: int) -> tuple:
    dim = lat.module.dim
    if n == 1:
        return ((lat.full_index,),) if dim > 0 else ()
    candidates = [i for i in lat.summand_indices() if lat.members[i].dim > 0]
    dims = [m.dim for m in lat.members]
    out = []
    for idxs in product(candidates, repeat=n):
        if sum(dims[i] for i in idxs) != dim:
            continue
        if _independent_join(lat, dims, idxs[0], idxs[1:]) is not None:
            out.append(idxs)
    return tuple(out)


def _independent_join(lat: SubmoduleLattice, dims: list, start: int, rest) -> int | None:
    """Fold joins over ``rest``; None as soon as dimensions stop adding up.

    dim(A + B) = dim A + dim B exactly when the sum is direct, so the
    telescoped joins certify an internal direct sum without any rank
    computation (joins are memoized on the lattice).
    """
    acc = start
    acc_dim = dims[start]
    for i in rest:
        acc = lat.join(acc, i)
        acc_dim += dims[i]
        if dims[acc] != acc_dim:
            return None
    return acc


@dataclass(frozen=True)
class FiepReport:
    """Exchange-scan outcome with the witnesses the definition demands.

    ``witnesses`` holds one entry per (summand, decomposition) pair that
    was tested: the chosen indices of the M_i'.  When the ternary family
    was subsampled, ``sampled`` is true and the seed is recorded so the
    run is reproducible.
    """

    verdict: bool
    n_max: int
    pairs_checked: int
    witnesses: tuple  # (summand_idx, decomposition_idx_tuple, choice_idx_tuple)
    sampled: bool
    seed: int
    failure: tuple | None  # (summand_idx, decomposition_idx_tuple) with no choice

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_max": self.n_max,
            "pairs_checked": self.pairs_checked,
            "sampled": self.sampled,
            "seed": self.seed,
            "witnesses": [
                {"summand": s, "decomposition": list(d), "choice": list(c)}
                for (s, d, c) in self.witnesses
            ],
            "failure": list(self.failure) if self.failure else None,
        }


def has_fiep(
    M: RepModule,
    n_max: int = 3,
    seed: int = 1789,
    sample_cap: int = DECOMP_SAMPLE_CAP,
) -> FiepReport:
    return fiep_scan(lattice_of(M), n_max=n_max, seed=seed, sample_cap=sample_cap)


def fiep_scan(
    lat: SubmoduleLattice,
    n_max: int = 3,
    seed: int = 1789,
    sample_cap: int = DECOMP_SAMPLE_CAP,
) -> FiepReport:
    """Scan the finite internal exchange property up to n_max parts.

    Decomposition families are exhaustive for n ≤ 2; at n = 3 the family
    is subsampled deterministically when it exceeds sample_cap, and the
    report says so.
    """
    decomp_families = []
    sampled = False
    for n in range(1, n_max + 1):
        family = list(_decomposition_index_tuples(lat, n))
        if n >= 3 and len(family) > sample_cap:
            rng = random.Random(seed)
            family = rng.sample(family, sample_cap)
            sampled = True
        decomp_families.append(family)

    below = {}
    for family in decomp_families:
        for decomp in family:
            for part in decomp:
                if part not in below:
                    below[part] = [
                        m for m in range(len(lat.members)) if lat.leq(m, part)
                    ]

    witnesses = []
    pairs = 0
    dims = [m.dim for m in lat.members]
    for x in lat.summand_indices():
        for family in decomp_families:
            for decomp in family:
                pairs += 1
                choice = _exchange_choice(lat, x, decomp, below, dims)
                if choice is None:
                    return FiepReport(
                        False, n_max, pairs, tuple(witnesses), sampled, seed, (x, decomp)
                    )
                witnesses.append((x, decomp, choice))
    return FiepReport(True, n_max, pairs, tuple(witnesses), sampled, seed, None)


def _exchange_choice(
    lat: SubmoduleLattice, x: int, decomp: tuple, below: dict, dims: list
) -> tuple | None:
    """First tuple (M_i') with M = X ⊕ (⊕ M_i'), in canonical index order.

    ``below[part]`` lists the members contained in each part.
    """
    need = lat.module.dim - dims[x]
    for choice in product(*(below[part] for part in decomp)):
        if sum(dims[m] for m in choice) != need:
            continue
        if _independent_join(lat, dims, x, choice) is not None:
            return choice
    return None
