"""Graph submodules {a + h(a)} inside a direct sum, and the complement
construction for epimorphism graphs in squares of hollow-and-uniform
modules.

The general complement branch (an epimorphism from a proper submodule
onto the second component) cannot occur for finite modules: a proper
submodule has strictly fewer elements than the target, so no surjection
exists.  graph_complement reports that branch as CardinalityVacuous
instead of pretending to cover it; the exact-arithmetic backend is where
that branch is actually exercised.

graph_laws checks the graph identities for one hom, through validated
submodules.  graph_law_sweep checks them for every hom of a pair at once,
on int64 stacks from hom_stack: every subspace graph_laws builds comes out
of an rref_stack pass, so each hom costs array work instead of Python
objects.  graph_laws stays as the reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CardinalityVacuous, NotEpi, NotHollowUniform, ShapeMismatch
from .homs import hom_stack, kernel
from .linalg import intersect_rows, mat_mul, rank, rref_stack
from .modules import DirectSum, ModuleHom, RepModule, Submodule, make_submodule, zero_hom
from .summands import Decomposition


def _source_in(ds_component: RepModule, h: ModuleHom):
    """(embedding rows into the component, full-source flag)."""
    if h.source == ds_component:
        from .linalg import identity

        return identity(ds_component.dim), True
    if isinstance(h.source, Submodule) and h.source.parent == ds_component:
        return h.source.basis, h.source.dim == ds_component.dim
    raise ShapeMismatch("hom source does not live in the expected component")


def _target_rows(ds_component: RepModule, h: ModuleHom):
    if h.target == ds_component:
        from .linalg import identity

        return identity(ds_component.dim)
    if isinstance(h.target, Submodule) and h.target.parent == ds_component:
        return h.target.basis
    raise ShapeMismatch("hom target does not live in the expected component")


def graph_of(ds: DirectSum, h: ModuleHom) -> Submodule:
    """⟨h⟩ = {a + h(a)} as a submodule of the direct sum, for h from (a
    submodule of) the left component into the right one.  The result is
    action closed because h commutes with the action, and Submodule
    validates that on construction.
    """
    p = ds.module.field.p
    src_rows, _ = _source_in(ds.left, h)
    # intrinsic -> component coords
    img_rows = mat_mul(h.matrix, _target_rows(ds.right, h), p)
    rows = tuple(
        tuple(
            (a + b) % p
            for a, b in zip(
                mat_mul((src_rows[i],), ds.inj1.matrix, p)[0],
                mat_mul((img_rows[i],), ds.inj2.matrix, p)[0],
            )
        )
        for i in range(len(src_rows))
    )
    return make_submodule(ds.module, rows)


def graph_laws(ds: DirectSum, h: ModuleHom) -> dict:
    """The three graph identities, each checked literally on the sum.

    kernel_law:   (source copy) ∩ ⟨h⟩ equals Ker h pushed into the sum.
    summand_law:  ⟨h⟩ ⊕ (other copy) = M exactly when h is total on the
                  component.
    sum_law:      (source copy) + ⟨h⟩ = M exactly when h is epi onto the
                  other component.

    Returns per-law booleans plus the data they were decided from.
    """
    p = ds.module.field.p
    graph = graph_of(ds, h)
    src_copy, other_copy = ds.left_copy(), ds.right_copy()
    src_rows, total = _source_in(ds.left, h)
    ambient_image = mat_mul(h.matrix, _target_rows(ds.right, h), p)
    epi = rank(ambient_image, p) == ds.right.dim

    ker = kernel(h)  # intrinsic coordinates of h's source
    ker_in_comp = mat_mul(ker.basis, src_rows, p) if ker.basis else ()
    ker_in_sum = make_submodule(
        ds.module, mat_mul(ker_in_comp, ds.inj1.matrix, p) if ker_in_comp else ()
    )
    meet = make_submodule(
        ds.module, intersect_rows(src_copy.basis, graph.basis, p)
    )
    kernel_law = meet == ker_in_sum

    decomposes = (
        graph.dim + other_copy.dim == ds.module.dim
        and rank(graph.basis + other_copy.basis, p) == ds.module.dim
    )
    summand_law = decomposes == total

    spans = rank(src_copy.basis + graph.basis, p) == ds.module.dim
    sum_law = spans == epi

    return {
        "kernel_law": kernel_law,
        "summand_law": summand_law,
        "sum_law": sum_law,
        "graph_dim": graph.dim,
        "kernel_dim": ker.dim,
        "total": total,
        "epi": epi,
    }


LAW_FIELDS = ("kernel_law", "summand_law", "sum_law", "graph_dim", "kernel_dim", "total", "epi")


@dataclass(frozen=True, eq=False)
class GraphLawSweep:
    """graph_laws for every case of a sweep, as columns.

    ``columns`` maps each field of graph_laws' dict to a (homs, sources)
    array: row e is the e-th hom in enumerate_homs order, column s its
    restriction to the s-th source (the whole component, then the proper
    submodule, if any).
    """

    columns: dict

    def __len__(self) -> int:
        return self.columns["total"].size

    def case(self, e: int, s: int) -> dict:
        """The dict graph_laws returns for hom e on source s."""
        return {name: self.columns[name][e, s].item() for name in LAW_FIELDS}

    def first_failure(self) -> dict | None:
        """The first case, hom by hom and each hom's sources in order, where
        a law fails, or None."""
        c = self.columns
        failed = np.flatnonzero(~(c["kernel_law"] & c["summand_law"] & c["sum_law"]))
        if not failed.size:
            return None
        return self.case(*np.unravel_index(failed[0], c["total"].shape))


def graph_law_sweep(ds: DirectSum, cap: int, sub: Submodule) -> GraphLawSweep:
    """graph_laws for every hom h: A → B of ds = A ⊕ B, in stack passes.

    The sources are A itself and, when it is proper and nonzero, the
    submodule ``sub`` of A, on which each h is restricted; a source with
    basis S (rows in A) sends it to F = S·H.  For each chunk of homs from
    hom_stack and each source, rref_stack reduces the graph [S | F], the
    left kernel of F (from [F | I]), the kernel pushed into the sum, the
    meet of the graph with A ⊕ 0 (from [A ⊕ 0; graph | I]), and the graph
    stacked on 0 ⊕ B.  The kernel law compares the reduced meet with the
    reduced pushed kernel entry by entry, a literal subspace equality; epi
    and the summand and sum laws come from ranks.  Raises TooLarge, like
    enumerate_homs, when the hom count exceeds cap.
    """
    p = ds.module.field.p
    na, nb = ds.left.dim, ds.right.dim
    sources = [np.eye(na, dtype=np.int64)]
    if 0 < sub.dim < na:
        sources.append(np.array(sub.basis, dtype=np.int64))
    parts = [[] for _ in sources]
    for H in hom_stack(ds.left, ds.right, cap):
        for s, S in enumerate(sources):
            parts[s].append(_source_laws(S, H, na, nb, p))
    columns = {
        name: np.stack([np.concatenate([laws[name] for laws in chunks]) for chunks in parts], 1)
        for name in LAW_FIELDS
    }
    return GraphLawSweep(columns)


def _source_laws(S: np.ndarray, H: np.ndarray, na: int, nb: int, p: int) -> dict:
    """graph_laws' fields for each hom of the stack H restricted to the
    source rows S."""
    N, k = len(H), len(S)
    n = na + nb

    def side_by_side(*blocks):
        """(N, rows, ·) blocks joined along columns; a 2-d block is shared by
        all N homs."""
        return np.concatenate([np.broadcast_to(b, (N,) + b.shape[-2:]) for b in blocks], axis=2)

    F = S @ H % p  # the image of each source row, in B
    graph, graph_dim = rref_stack(side_by_side(S, F), p)

    # the left kernel of F: the identity part of the rows of [F | I] whose
    # F part reduces to zero
    reduced, _ = rref_stack(side_by_side(F, np.eye(k, dtype=np.int64)), p)
    in_kernel = ~reduced[:, :, :nb].any(axis=2)
    kernel_rows = np.where(in_kernel[:, :, None], reduced[:, :, nb:], 0)
    pushed, _ = rref_stack(side_by_side(kernel_rows @ S % p, np.zeros((k, nb), np.int64)), p)
    kernel_dim = in_kernel.sum(axis=1)

    # (A ⊕ 0) ∩ graph: each row (x, y) of the left kernel of [A ⊕ 0; graph]
    # gives the vector x·(A ⊕ 0) = -y·graph of both, and these span the meet
    both = np.concatenate([np.broadcast_to(np.eye(na, n, dtype=np.int64), (N, na, n)), graph], 1)
    reduced, _ = rref_stack(side_by_side(both, np.eye(na + k, dtype=np.int64)), p)
    in_meet = ~reduced[:, :, :n].any(axis=2)
    meet_rows = np.where(in_meet[:, :, None], reduced[:, :, n : n + na], 0)
    meet, _ = rref_stack(side_by_side(meet_rows, np.zeros((na + k, nb), np.int64)), p)
    kernel_law = (meet[:, :k] == pushed).all(axis=(1, 2)) & ~meet[:, k:].any(axis=(1, 2))

    spans = na + k - in_meet.sum(axis=1) == n  # the rank of [A ⊕ 0; graph]
    right = np.broadcast_to(np.eye(nb, n, na, dtype=np.int64), (N, nb, n))
    _, summand_rank = rref_stack(np.concatenate([graph, right], 1), p)
    decomposes = (graph_dim + nb == n) & (summand_rank == n)
    total = np.full(N, k == na)
    epi = k - kernel_dim == nb
    return {
        "kernel_law": kernel_law,
        "summand_law": decomposes == total,
        "sum_law": spans == epi,
        "graph_dim": graph_dim,
        "kernel_dim": kernel_dim,
        "total": total,
        "epi": epi,
    }


@dataclass(frozen=True)
class GraphComplement:
    """Outcome of the complement search for an epimorphism graph."""

    graph: Submodule
    complement: Submodule
    h2: ModuleHom
    decomposition: Decomposition
    case: str  # "full-source" in the finite backend


def graph_complement(ds: DirectSum, h1: ModuleHom) -> GraphComplement:
    """Complement of ⟨h₁⟩ in M = U ⊕ U for an epimorphism h₁ onto the
    right component.

    Finite backend coverage: only the total-source case is realizable
    (the proof's immediate case, complement = the right component, taken
    as the graph of the zero map); an epimorphism from a proper submodule
    would need |N₁| ≥ |U₂| and is refused as CardinalityVacuous.
    """
    from .properties import is_hollow, is_uniform

    if ds.left != ds.right:
        raise ShapeMismatch("graph complement expects a square U ⊕ U")
    U = ds.left
    if U.dim == 0 or not (is_hollow(U) and is_uniform(U)):
        raise NotHollowUniform("the component must be hollow and uniform")
    _, full_source = _source_in(U, h1)
    if not full_source:
        raise CardinalityVacuous(
            "no epimorphism from a proper submodule exists on finite modules; "
            "this branch is exercised in the exact backend"
        )
    p = ds.module.field.p
    ambient_image = mat_mul(h1.matrix, _target_rows(U, h1), p)
    if rank(ambient_image, p) != U.dim:
        raise NotEpi("h1 must be an epimorphism onto the second component")
    graph = graph_of(ds, h1)
    complement = ds.right_copy()
    h2 = zero_hom(U, U)
    stacked = graph.basis + complement.basis
    if rank(stacked, p) != ds.module.dim or len(stacked) != ds.module.dim:
        raise ShapeMismatch("graph and complement do not decompose the sum")
    decomp = Decomposition(ds.module, (graph, complement))
    return GraphComplement(graph, complement, h2, decomp, "full-source")
