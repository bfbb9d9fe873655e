"""Graph submodules {a + h(a)} inside a direct sum, and the complement
construction for epimorphism graphs in squares of hollow-and-uniform
modules.

The general complement branch (an epimorphism from a proper submodule
onto the second component) cannot occur for finite modules: a proper
submodule has strictly fewer elements than the target, so no surjection
exists.  graph_complement reports that branch as CardinalityVacuous
instead of pretending to cover it; the exact-arithmetic backend is where
that branch is actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CardinalityVacuous, NotEpi, NotHollowUniform, ShapeMismatch
from .linalg import intersect_rows, mat_mul, rank
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
    from .homs import kernel

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
