"""Exhaustive submodule lattices for small modules.

Every submodule over a finite ring is a sum of cyclic submodules, so the
general route first finds every cyclic closure and then closes the member
set under member + cyclic sums; a single worklist pass reaches everything.
Both phases run on the stack kernel ``rref_stack``.  The cyclic phase
multiplies all p^n points by the action matrices in one product and
reduces the generating sets in stack passes of POINT_CHUNK points, so
memory does not grow with p^n.  The closure phase makes one stack pass
per worklist member, with the member's basis on top of every zero-padded
cyclic basis.  Reduced echelon form is canonical, so the bytes of a
reduced basis identify its submodule.

A module whose action matrices are all block-diagonal at one split, as
``direct_sum`` and the corpus squares build them, takes the Goursat route
instead.  By Goursat's lemma (É. Goursat, Ann. Sci. ÉNS 6, 1889) every
submodule of A ⊕ B is (A₁ ⊕ B₁) + {a + θ(a)} for exactly one choice of
A₁ ≤ A₂ ≤ A, B₁ ≤ B₂ ≤ B and isomorphism θ: A₂/A₁ → B₂/B₁.  The route
takes the lattices of A and B from lattice_of, so a sum of three pieces
recurses, and for every pair of intervals with equal quotient dimension
it stacks the hom space of the two quotients, keeps the invertible
matrices and reduces each graph together with A₁ ⊕ B₁ in stack passes of
POINT_CHUNK matrices.  Its search follows the intervals and their
isomorphisms, not the p^n points.  The caps are checked before either
route starts, so the route reaches no module the general one refuses.

A stack reduction of a set that spans a submodule yields its reduced
basis, so members of either route are built without the validating
constructor's closure check; the test suite rebuilds every member
through that constructor.  Likewise the Goursat route builds its
components A and B, diagonal blocks of M's actions, without re-checking
the product rule.

Each member carries a bitset of the point indices it contains.  The
N×N containment matrix is built from those bitsets once, packed as
uint64 words, as subset tests over blocks of rows, and kept as
``containment``.  The lattice order is by (dimension, basis), so indices
are stable across runs and both routes give the same lattice.  The Hasse
diagram is read from the containment matrix, and so is every other order
question:

- join reads a row of the join table, built from that matrix on first
  use: row i holds, for every j, the first member above both i and j,
  which is their sum because members are sorted by dimension.  Whole
  arrays of joins are one gather from the same rows (``joins``).
- ``disjoint[i, j]``: members i and j meet in zero.  A nonzero
  intersection contains an atom, so this is one boolean product over the
  atom rows of ``containment``.
- ``cospan[i, j]``: members i and j sum to M.  A proper sum lies in a
  maximal member, so this is one boolean product over the maximal
  columns.
- ``complement[i, j]``: disjoint with dimensions adding up to dim M,
  which over a field means M = i ⊕ j.

The lattice is the per-module context of every scan: besides the order
matrices it keeps the data the scans share (maximal and minimal members,
radical and socle, direct summands with their first complements), each
read off those matrices on first use and then stored.  lattice_of hands
out lattices from one bounded memo keyed on the module.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import TooLarge
from .homs import hom_stack
from .linalg import POINT_CHUNK, invertible_mask, point_coords, rref_stack, span_point_bits
from .modules import RepModule, Submodule, make_submodule, quotient_module

DEFAULT_CAP_DIM = 8
DEFAULT_CAP_POINTS = 1 << 16
LATTICE_MEMO_SIZE = 128  # lattices lattice_of keeps, least recently used dropped first
CONTAINMENT_WORDS = 1 << 16  # uint64 words one containment broadcast holds


@dataclass(frozen=True)
class SubmoduleLattice:
    module: RepModule
    members: tuple  # Submodule, sorted by (dim, basis); [0] is zero, [-1] is full
    bits: tuple  # point-index bitsets, aligned with members
    hasse_edges: tuple  # (i, j) with member i covered by member j
    _index_by_basis: dict = dc_field(compare=False, repr=False, default=None)
    # containment[i, j]: is member i contained in member j?
    containment: np.ndarray = dc_field(compare=False, repr=False, default=None)

    def __len__(self):
        return len(self.members)

    def index_of(self, sub: Submodule) -> int:
        return self._index_by_basis[sub.basis]

    @property
    def zero_index(self) -> int:
        return 0

    @property
    def full_index(self) -> int:
        return len(self.members) - 1

    def leq(self, i: int, j: int) -> bool:
        """Is member i contained in member j?"""
        return bool(self.containment[i, j])

    def join(self, i: int, j: int) -> int:
        """Index of the sum: the smallest member containing both."""
        return int(self.joins(i, j))

    def joins(self, i, j) -> np.ndarray:
        """Indices of the sums of members i and j, elementwise over arrays."""
        i = np.asarray(i)
        table = self._join_table
        leq = self.containment
        # the first member above both is the sum: every other upper bound
        # contains the sum, so it has larger dimension and a later index
        for r in np.unique(i[table[i, 0] < 0]):
            table[r] = np.argmax(leq & leq[r], axis=1)
        return table[i, j]

    def maximal_indices(self) -> tuple:
        return self._maximal

    def atom_indices(self) -> tuple:
        return self._atoms

    def sum_is_proper(self, i: int, j: int) -> bool:
        """Is member i + member j a proper submodule?"""
        return not self.cospan[i, j]

    def radical_index(self) -> int:
        """Intersection of the maximal members (the top if there are none)."""
        return self._radical

    def socle_index(self) -> int:
        """Sum of the minimal members (zero if there are none)."""
        return self._socle

    def complement_index(self, i: int) -> int | None:
        """First complement of member i in canonical order, or None."""
        return self._complements[i]

    def summand_indices(self) -> tuple:
        """Indices of all direct summands, ascending canonical order."""
        return self._summands

    @cached_property
    def dims(self) -> np.ndarray:
        """Dimension of each member."""
        return np.array([m.dim for m in self.members])

    @cached_property
    def disjoint(self) -> np.ndarray:
        """disjoint[i, j]: do members i and j meet in zero?"""
        # a nonzero intersection contains an atom
        atoms = self.containment[list(self._atoms)]
        return ~(atoms.T @ atoms)

    @cached_property
    def cospan(self) -> np.ndarray:
        """cospan[i, j]: do members i and j sum to M?"""
        # a proper sum lies in a maximal member
        below = self.containment[:, list(self._maximal)]
        return ~(below @ below.T)

    @cached_property
    def complement(self) -> np.ndarray:
        """complement[i, j]: is M = member i ⊕ member j?"""
        # over a field, X ∩ Y = 0 plus complementary dimensions gives X ⊕ Y = M
        dims = self.dims
        return self.disjoint & (dims[:, None] + dims[None, :] == self.module.dim)

    @cached_property
    def _join_table(self) -> np.ndarray:
        # rows are filled on first use; join(i, 0) = i, so -1 there marks a
        # row not built yet
        return np.full((len(self.members),) * 2, -1, dtype=np.int64)

    @cached_property
    def _maximal(self) -> tuple:
        return tuple(i for (i, j) in self.hasse_edges if j == self.full_index)

    @cached_property
    def _atoms(self) -> tuple:
        return tuple(j for (i, j) in self.hasse_edges if i == self.zero_index)

    @cached_property
    def _radical(self) -> int:
        # the last member below every maximal member is their intersection
        below = self.containment[:, list(self._maximal)].all(axis=1)
        return int(np.flatnonzero(below)[-1])

    @cached_property
    def _socle(self) -> int:
        # the first member above every atom is their sum
        return int(np.argmax(self.containment[list(self._atoms)].all(axis=0)))

    @cached_property
    def _complements(self) -> tuple:
        return tuple(int(row.argmax()) if row.any() else None for row in self.complement)

    @cached_property
    def _summands(self) -> tuple:
        return tuple(i for i, c in enumerate(self._complements) if c is not None)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "nodes": [
                {"index": i, "dim": s.dim, "basis": [list(r) for r in s.basis]}
                for i, s in enumerate(self.members)
            ],
            "edges": [list(e) for e in self.hasse_edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph lattice {", "  rankdir=BT;"]
        lines += [f'  n{i} [label="dim {s.dim}"];' for i, s in enumerate(self.members)]
        lines += [f"  n{i} -> n{j};" for i, j in self.hasse_edges]
        lines.append("}")
        return "\n".join(lines)


def _check_caps(M: RepModule, cap_dim: int, cap_points: int) -> None:
    if M.dim > cap_dim:
        raise TooLarge("module dimension", M.dim, cap_dim)
    n_points = M.field.p**M.dim
    if n_points > cap_points:
        raise TooLarge("point count", n_points, cap_points)


_memo: OrderedDict = OrderedDict()  # RepModule -> SubmoduleLattice, oldest use first


def lattice_of(
    M: RepModule,
    cap_dim: int = DEFAULT_CAP_DIM,
    cap_points: int = DEFAULT_CAP_POINTS,
) -> SubmoduleLattice:
    """The lattice of M, shared by every scan over M.

    Memoized on M alone and bounded by LATTICE_MEMO_SIZE.  The caps are
    checked on every call before the lookup, so a lattice built under
    larger caps is never handed to a caller with smaller ones.
    """
    _check_caps(M, cap_dim, cap_points)
    lat = _memo.pop(M, None)
    if lat is None:
        lat = enumerate_submodules(M, cap_dim=cap_dim, cap_points=cap_points)
    _memo[M] = lat
    if len(_memo) > LATTICE_MEMO_SIZE:
        _memo.popitem(last=False)
    return lat


def enumerate_submodules(
    M: RepModule,
    cap_dim: int = DEFAULT_CAP_DIM,
    cap_points: int = DEFAULT_CAP_POINTS,
) -> SubmoduleLattice:
    """Every submodule of M, with the full containment order.

    Raises TooLarge when the module dimension or the point count p^dim
    exceeds the caps; raise the caps explicitly to push further.  A module
    whose action matrices are all block-diagonal at one split takes the
    Goursat route, every other module the general one.
    """
    _check_caps(M, cap_dim, cap_points)
    k = _block_split(M)
    if k is None:
        return _enumerate_general(M)
    return _enumerate_goursat(M, k, cap_dim, cap_points)


def _block_split(M: RepModule) -> int | None:
    """The first k at which every action matrix is block-diagonal, or None."""
    n = M.dim
    actions = np.array(M.actions, dtype=np.int64).reshape(M.algebra.dim, n, n)
    return next(
        (k for k in range(1, n) if not actions[:, :k, k:].any() and not actions[:, k:, :k].any()),
        None,
    )


def _member(M: RepModule, rows: np.ndarray) -> Submodule:
    """The submodule with these reduced rows as its basis.

    Only for rows out of a stack reduction of a generating set that spans
    a submodule, so the validating constructor is skipped.
    """
    pivots = tuple(int(row.argmax()) for row in rows != 0)
    return Submodule._trusted(M, tuple(map(tuple, rows.tolist())), pivots)


def _enumerate_general(M: RepModule) -> SubmoduleLattice:
    """Every submodule of M as a sum of cyclic submodules (any module)."""
    p = M.field.p
    n = M.dim
    actions = np.array(M.actions, dtype=np.int64).reshape(M.algebra.dim, n, n)

    # cyclic phase: the closure of v is the span of {v . e_i}, so each
    # point's generators come from one product with the action stack and
    # one stack reduction gives every closure; distinct closures are
    # told apart by their reduced bytes
    seen = {}
    for start in range(0, p**n, POINT_CHUNK):
        pts = point_coords(np.arange(start, min(start + POINT_CHUNK, p**n)), n, p)
        red, ranks = rref_stack(np.einsum("mj,djk->mdk", pts, actions), p)
        for rows, k in zip(red, ranks):
            key = rows[:k].tobytes()
            if key not in seen:
                seen[key] = _member(M, rows[:k])
    cyclics = [c for c in seen.values() if c.dim]

    # closure phase: every member is a sum of nonzero cyclics, so one stack
    # pass per worklist member puts its basis on top of every zero-padded
    # cyclic basis and keeps the sums not seen before
    pad = np.zeros((len(cyclics), max((c.dim for c in cyclics), default=0), n), dtype=np.int64)
    for k, c in enumerate(cyclics):
        pad[k, : c.dim] = c.basis
    queue = list(cyclics)
    out = 0
    while out < len(queue):
        member = queue[out]
        out += 1
        top = np.array(member.basis, dtype=np.int64).reshape(1, member.dim, n)
        red, ranks = rref_stack(np.concatenate([top.repeat(len(pad), axis=0), pad], axis=1), p)
        # a sum no larger than the member is the member itself
        for i in np.flatnonzero(ranks > member.dim):
            key = red[i, : ranks[i]].tobytes()
            if key not in seen:
                s = _member(M, red[i, : ranks[i]])
                seen[key] = s
                queue.append(s)
    return _ordered_lattice(M, seen.values())


def _enumerate_goursat(M: RepModule, k: int, cap_dim: int, cap_points: int) -> SubmoduleLattice:
    """Every submodule of M = A ⊕ B, split at coordinate k, by Goursat's lemma.

    Each member is the span of A₁ ⊕ B₁ and the graph {a + θ(a)} of one
    isomorphism θ: A₂/A₁ → B₂/B₁, over every pair of intervals with equal
    quotient dimension.  The generating sets are stacked by member
    dimension and reduced to their canonical bases in stack passes.
    """
    p = M.field.p
    n = M.dim
    actions_a, actions_b = _block_actions(M, 0, k), _block_actions(M, k, n)
    A = RepModule._trusted(M.algebra, k, actions_a)
    intervals_a = _intervals(lattice_of(A, cap_dim, cap_points))
    if actions_b == actions_a:  # a square A ⊕ A
        intervals_b = intervals_a
    else:
        B = RepModule._trusted(M.algebra, n - k, actions_b)
        intervals_b = _intervals(lattice_of(B, cap_dim, cap_points))
    isomorphisms = {}  # (A₂/A₁, B₂/B₁) -> stack of every isomorphism
    stacks = defaultdict(list)  # member dimension -> stacks of generating sets
    for d in intervals_a.keys() & intervals_b.keys():
        for low_a, lift_a, quot_a in intervals_a[d]:
            for low_b, lift_b, quot_b in intervals_b[d]:
                # A₁ ⊕ B₁, the rows every graph of this pair of intervals shares
                fixed = np.zeros((len(low_a) + len(low_b), n), dtype=np.int64)
                fixed[: len(low_a), :k] = low_a
                fixed[len(low_a) :, k:] = low_b
                if d == 0:
                    stacks[len(fixed)].append(fixed[None])
                    continue
                if (quot_a, quot_b) not in isomorphisms:
                    isomorphisms[quot_a, quot_b] = _isomorphisms(quot_a, quot_b)
                isos = isomorphisms[quot_a, quot_b]
                graphs = np.zeros((len(isos), len(fixed) + d, n), dtype=np.int64)
                graphs[:, : len(fixed)] = fixed
                graphs[:, len(fixed) :, :k] = lift_a
                graphs[:, len(fixed) :, k:] = isos @ lift_b % p
                stacks[len(fixed) + d].append(graphs)
    members = []
    for parts in stacks.values():
        stack = np.concatenate(parts)
        for start in range(0, len(stack), POINT_CHUNK):
            red, _ = rref_stack(stack[start : start + POINT_CHUNK], p)
            members.extend(_member(M, rows) for rows in red)
    return _ordered_lattice(M, members)


def _block_actions(M: RepModule, lo: int, hi: int) -> tuple:
    """The action matrices on coordinates lo..hi-1 of a block-diagonal M."""
    return tuple(tuple(row[lo:hi] for row in A[lo:hi]) for A in M.actions)


def _intervals(lat: SubmoduleLattice) -> dict:
    """Every interval A₁ ≤ A₂ of a lattice, by quotient dimension d.

    Each is (basis of A₁, lift of the basis of A₂/A₁ into A, A₂/A₁), the
    quotient None where d = 0.
    """
    n = lat.module.dim
    out = defaultdict(list)
    for hi, top in enumerate(lat.members):
        for lo in np.flatnonzero(lat.containment[:, hi]):
            bottom = lat.members[lo]
            low = np.array(bottom.basis, dtype=np.int64).reshape(bottom.dim, n)
            if lo == hi:
                out[0].append((low, np.zeros((0, n), dtype=np.int64), None))
                continue
            # A₁ in the basis coordinates of A₂: a reduced basis vector's
            # coordinate is the entry at its pivot column
            inner = make_submodule(
                top.as_module(), [[v[c] for c in top.pivots] for v in bottom.basis]
            )
            quot, _ = quotient_module(top.as_module(), inner)
            # quotient_module's basis of A₂/A₁ is the image of A₂'s basis
            # vectors at the non-pivot columns of A₁
            lift = np.array(
                [row for j, row in enumerate(top.basis) if j not in inner.pivots], dtype=np.int64
            )
            out[quot.dim].append((low, lift, quot))
    return out


def _isomorphisms(Q: RepModule, R: RepModule) -> np.ndarray:
    """Every isomorphism Q → R, as a (K, d, d) stack of matrices.

    The hom count is not capped: lattice calls take no hom cap.
    """
    p = Q.field.p
    return np.concatenate([mats[invertible_mask(mats, p)] for mats in hom_stack(Q, R, cap=None)])


def _ordered_lattice(M: RepModule, members) -> SubmoduleLattice:
    """The lattice on M's complete member set: canonical order, point
    bitsets, containment and Hasse edges."""
    p = M.field.p
    n = M.dim
    members = tuple(sorted(members, key=lambda s: s.sort_key()))
    bits = tuple(span_point_bits(s.basis, n, p) for s in members)

    N = len(members)
    leq = _containment(bits, p**n)
    # strict containment with something in between, via one boolean product;
    # covers are the strict containments without a middle member
    proper = leq & ~np.eye(N, dtype=bool)
    through = proper @ proper
    covers = proper & ~through
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(covers))]

    return SubmoduleLattice(
        module=M,
        members=members,
        bits=bits,
        hasse_edges=tuple(sorted(edges)),
        _index_by_basis={s.basis: i for i, s in enumerate(members)},
        containment=leq,
    )


def _containment(bits: tuple, n_points: int) -> np.ndarray:
    """leq[i, j]: is bitset i a subset of bitset j?

    The bitsets are packed as rows of uint64 words; each broadcast tests a
    block of rows against every row, CONTAINMENT_WORDS words at a time.
    """
    N = len(bits)
    width = 8 * -(-n_points // 64)
    words = np.frombuffer(
        b"".join(b.to_bytes(width, "little") for b in bits), dtype="<u8"
    ).reshape(N, -1)
    outside = ~words
    block = max(1, CONTAINMENT_WORDS // words.size)
    leq = np.empty((N, N), dtype=bool)
    for start in range(0, N, block):
        rows = words[start : start + block, None]
        leq[start : start + block] = ((rows & outside[None]) == 0).all(axis=2)
    return leq
