"""Direct summands, internal direct-sum decompositions, and the finite
internal exchange property.

A member X of the lattice is a direct summand when some member Y has
X ∩ Y = 0 and X + Y = M; over a field both conditions reduce to one
dimension count plus one intersection bitset test.  Decompositions are
ordered tuples of nonzero parts whose stacked bases have full rank; they
are enumerated by a depth-first walk that drops a prefix as soon as its
sum stops being direct or its dimension overshoots.

fiep_scan is an exhaustive scan: for every summand X and every
decomposition M = ⊕ M_i it finds submodules M_i' ≤ M_i making
M = X ⊕ (⊕ M_i').  The witness is the first such tuple in product order,
found by a depth-first search over running direct sums that is memoized
on (running sum, parts left) within one scan; it is the tuple the literal
product scan (oracles.brute_exchange_choice) returns.  On finite-length
modules the scan must come back true (exchange follows from local
endomorphism rings of the indecomposable pieces), so a false verdict here
flags an implementation bug, not a mathematical discovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ShapeMismatch
from .lattice import SubmoduleLattice, lattice_of
from .linalg import rank
from .modules import RepModule, Submodule

DECOMP_SAMPLE_CAP = 10**4
FIEP_WITNESS_LIMIT = 100


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
    """Ordered n-part decompositions as index tuples, in lexicographic order.

    A depth-first walk over the nonzero summands extends a prefix only
    while its join stays direct (dim(A + B) = dim A + dim B exactly when
    the sum is direct) and its dimension leaves room for the parts still
    to come, so it yields the tuples of product(candidates, repeat=n)
    that pass both tests, in the same order, without visiting the rest.
    """
    dim = lat.module.dim
    if n == 1:
        return ((lat.full_index,),) if dim > 0 else ()
    # members are sorted by dimension, so candidates are too
    candidates = [i for i in lat.summand_indices() if lat.members[i].dim > 0]
    dims = [m.dim for m in lat.members]
    out = []

    def extend(prefix: tuple, acc: int, acc_dim: int) -> None:
        left = n - len(prefix) - 1  # parts still to place after this one
        for i in candidates:
            d = acc_dim + dims[i]
            if d + left > dim:
                break
            j = lat.join(acc, i)
            if dims[j] != d:
                continue
            if left:
                extend(prefix + (i,), j, d)
            elif d == dim:
                out.append(prefix + (i,))

    extend((), lat.zero_index, 0)
    return tuple(out)


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
        """The report as JSON data.  Only the first ``FIEP_WITNESS_LIMIT``
        witnesses are serialized, and a cut list is marked with
        ``witnesses_truncated_to``: chain_f3_k4_sq alone has 962,390."""
        doc = {
            "verdict": self.verdict,
            "n_max": self.n_max,
            "pairs_checked": self.pairs_checked,
            "sampled": self.sampled,
            "seed": self.seed,
            "witnesses": [
                {"summand": s, "decomposition": list(d), "choice": list(c)}
                for (s, d, c) in self.witnesses[:FIEP_WITNESS_LIMIT]
            ],
            "failure": list(self.failure) if self.failure else None,
        }
        if len(self.witnesses) > FIEP_WITNESS_LIMIT:
            doc["witnesses_truncated_to"] = FIEP_WITNESS_LIMIT
        return doc


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

    Every (summand X, decomposition M = ⊕ M_i) pair is checked, and its
    witness is the first tuple (M_i') in product order over the members
    below each M_i with M = X ⊕ (⊕ M_i').  A tuple qualifies exactly when
    each running sum X + M_1' + … + M_k' is direct and the last one is M,
    so a depth-first search that extends the running sum J by one M_i' at
    a time, skipping any M_i' that meets J, returns that same first
    tuple.  What remains to be found depends only on J and the parts still
    to fill, so the search below the top level is memoized on that pair
    and shared by every pair of the scan.  The tables live for this call
    only.
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

    bits = lat.bits
    full = lat.full_index
    below = {}  # part -> members contained in it, ascending
    steps = {}  # (J, part) -> ((m, J + m) for m ≤ part with J ∩ m = 0)
    memo = {}  # (J, parts) -> first choice completing J over parts, or None
    interned = {}  # equal choice tuples share one object
    unseen = object()

    def extensions(J: int, part: int) -> tuple:
        key = (J, part)
        out = steps.get(key)
        if out is None:
            if part not in below:
                below[part] = [m for m in range(len(lat.members)) if lat.leq(m, part)]
            out = steps[key] = tuple(
                (m, lat.join(J, m)) for m in below[part] if bits[J] & bits[m] == 1
            )
        return out

    def first(J: int, parts: tuple):
        rest = parts[1:]
        for m, Jm in extensions(J, parts[0]):
            if rest:
                tail = memo.get((Jm, rest), unseen)
                if tail is unseen:
                    tail = memo[(Jm, rest)] = first(Jm, rest)
            else:
                tail = () if Jm == full else None
            if tail is not None:
                return (m,) + tail
        return None

    witnesses = []
    pairs = 0
    for x in lat.summand_indices():
        for family in decomp_families:
            for decomp in family:
                pairs += 1
                choice = first(x, decomp)
                if choice is None:
                    return FiepReport(
                        False, n_max, pairs, tuple(witnesses), sampled, seed, (x, decomp)
                    )
                witnesses.append((x, decomp, interned.setdefault(choice, choice)))
    return FiepReport(True, n_max, pairs, tuple(witnesses), sampled, seed, None)
