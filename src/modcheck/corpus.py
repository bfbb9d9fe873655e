"""The fixture corpus every verification sweep and agreement test runs over.

Each fixture pairs a module with a JSON definition (the same document a
user could feed the CLI) and a map of expected property values.  Values
tagged ``known`` are part of the input contract for that fixture; values
tagged ``definition`` follow from the construction (a semisimple module
is trivially lifting); values tagged ``oracle:<name>`` were computed by
the named brute-force routine and frozen into the committed golden file
(regenerate with ``modcheck verify --regen-golden``).

The chain fixtures deliberately share one algebra per prime, so the
corpus contains same-algebra pairs whose direct sums the summand sweeps
can form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .algebra import algebra_from_structure_constants, shaped_matrix_algebra
from .field import PrimeField
from .io import SCHEMA_VERSION, module_from_json, module_to_json
from .modules import RepModule, direct_sum, row_module

TRIANGULAR_SHAPE = ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1))
GOLDEN_RESOURCE = "expected.json"


@dataclass(frozen=True)
class Fixture:
    name: str
    module: RepModule
    doc: dict
    expected: dict  # property -> {"value": ..., "provenance": ...}

    def expected_value(self, prop: str):
        return self.expected[prop]["value"]


def truncated_poly_algebra(p: int, dim: int = 4):
    """F_p[x] / (x^dim) on the basis 1, x, ..., x^(dim-1)."""
    constants = [
        [[1 if i + j == k else 0 for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    return algebra_from_structure_constants(
        PrimeField(p), dim, constants, (1,) + (0,) * (dim - 1)
    )


def truncated_poly_module(algebra, k: int) -> RepModule:
    """The quotient chain module of length k: x acts as a truncated shift."""
    actions = []
    for i in range(algebra.dim):
        A = [[0] * k for _ in range(k)]
        for r in range(k):
            if r + i < k:
                A[r][r + i] = 1
        actions.append(tuple(tuple(row) for row in A))
    return RepModule(algebra, k, tuple(actions))


def _shaped_doc(name: str, p: int, shape, width: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "field": {"p": p},
        "algebra": {"kind": "shaped_matrix", "shape": [list(r) for r in shape]},
        "module": {"kind": "row", "row": width},
    }


def _known(value):
    return {"value": value, "provenance": "known"}


def _definition(value):
    return {"value": value, "provenance": "definition"}


def _base_fixtures() -> list:
    """(name, module, doc, inline expected) before golden values are merged."""
    out = []

    for p in (2, 3):
        name = f"tri4_f{p}"
        alg = shaped_matrix_algebra(PrimeField(p), TRIANGULAR_SHAPE)
        M = row_module(alg, 4)
        expected = {
            "submodule_count": _known(6),
            "hollow": _known(True),
            "uniform": _known(True),
            "uniserial": _known(False),
        }
        out.append((name, M, _shaped_doc(name, p, TRIANGULAR_SHAPE, 4), expected))

    for p in (2, 3):
        alg = truncated_poly_algebra(p, 4)
        for k in range(1, 5):
            name = f"chain_f{p}_k{k}"
            M = truncated_poly_module(alg, k)
            # uniserial by construction (the ideals of a chain are a chain),
            # and a nonzero uniserial module is both hollow and uniform
            expected = {
                "submodule_count": _definition(k + 1),
                "uniserial": _definition(True),
                "hollow": _definition(True),
                "uniform": _definition(True),
            }
            out.append((name, M, module_to_json(M, name), expected))

    for blocks in (2, 3):
        name = f"semisimple{blocks}_f2"
        shape = tuple(
            tuple(1 if i == j else 0 for j in range(blocks)) for i in range(blocks)
        )
        alg = shaped_matrix_algebra(PrimeField(2), shape)
        M = row_module(alg, blocks)
        expected = {
            "submodule_count": _definition(2**blocks),
            "lifting": _definition(True),
            "extending": _definition(True),
            "hollow": _definition(False),
            "uniform": _definition(False),
        }
        out.append((name, M, _shaped_doc(name, 2, shape, blocks), expected))

    name = "mat2_simple_f2"
    shape = ((1, 1), (1, 1))
    alg = shaped_matrix_algebra(PrimeField(2), shape)
    M = row_module(alg, 2)
    expected = {
        "submodule_count": _definition(2),
        "hollow": _definition(True),
        "uniform": _definition(True),
        "uniserial": _definition(True),
    }
    out.append((name, M, _shaped_doc(name, 2, shape, 2), expected))

    return out


def _load_golden() -> dict:
    path = resources.files("modcheck.data.golden").joinpath(GOLDEN_RESOURCE)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return {}
    return json.loads(text).get("fixtures", {})


def _merge(inline: dict, golden: dict) -> dict:
    merged = dict(golden)
    merged.update(inline)  # inline contract values win over frozen oracle values
    return merged


def corpus(golden: dict | None = None) -> tuple:
    """All fixtures, squares of the hollow-and-uniform ones included.

    ``golden`` overrides the packaged golden file (mainly for tests and
    for regeneration, where the file does not exist yet).
    """
    golden = _load_golden() if golden is None else golden
    fixtures = []
    for name, M, doc, inline in _base_fixtures():
        expected = _merge(inline, golden.get(name, {}))
        doc = dict(doc, expected=expected)
        fixtures.append(Fixture(name, M, doc, expected))

    for base in list(fixtures):
        exp = base.expected
        if not (exp.get("hollow", {}).get("value") and exp.get("uniform", {}).get("value")):
            continue
        name = f"{base.name}_sq"
        M = direct_sum(base.module, base.module).module
        expected = _merge({}, golden.get(name, {}))
        doc = dict(module_to_json(M, name), expected=expected)
        fixtures.append(Fixture(name, M, doc, expected))

    return tuple(fixtures)


def fixture_by_name(name: str, fixtures=None) -> Fixture:
    fixtures = corpus() if fixtures is None else fixtures
    for f in fixtures:
        if f.name == name:
            return f
    raise KeyError(name)


def hollow_uniform_fixtures(fixtures=None) -> tuple:
    """The base fixtures whose squares feed the lifting/extending sweeps."""
    fixtures = corpus() if fixtures is None else fixtures
    return tuple(
        f
        for f in fixtures
        if not f.name.endswith("_sq")
        and f.expected.get("hollow", {}).get("value")
        and f.expected.get("uniform", {}).get("value")
    )


def roundtrip_module(fixture: Fixture) -> RepModule:
    """Rebuild the module from the fixture's own JSON definition."""
    doc = {k: v for k, v in fixture.doc.items() if k != "expected"}
    return module_from_json(dict(doc, expected=fixture.doc.get("expected", {})))


# -- golden generation -------------------------------------------------------


def _brute_expected(M: RepModule) -> dict:
    from . import oracles

    subs = oracles.brute_submodules(M)
    tag = "oracle:submodule-closure"
    return {
        "submodule_count": {"value": len(subs), "provenance": tag},
        "hollow": {"value": oracles.brute_is_hollow(M, subs), "provenance": tag},
        "uniform": {"value": oracles.brute_is_uniform(M, subs), "provenance": tag},
        "uniserial": {"value": oracles.brute_is_uniserial(M, subs), "provenance": tag},
    }


def _end_local_expected(M: RepModule) -> dict | None:
    """Locality of End(M): matrix scan when feasible, span scan otherwise.

    The matrix scan is fully independent (every matrix is tested against
    the commutation equations).  The span scan trusts the solver for the
    basis of End(M) but still decides locality by literal pairwise sums
    of non-units; it is quadratic in the ring size, so it gets a much
    smaller cap.  Past both caps the golden file simply has no entry.
    """
    from . import oracles
    from .endring import endomorphism_ring
    from .homs import hom_space

    span_cap = 256
    p = M.algebra.field.p
    if p ** (M.dim * M.dim) <= oracles.BRUTE_HOM_CAP:
        mats = oracles.brute_hom_matrices(M, M)
        value = oracles.brute_is_local(mats, p, M.dim)
        return {"value": value, "provenance": "oracle:matrix-scan"}
    basis = hom_space(M, M)
    if p ** len(basis) > span_cap:
        return None
    ring = endomorphism_ring(M, cap=oracles.BRUTE_HOM_CAP)
    mats = tuple(ring.matrix_of(c) for c in ring.elements())
    value = oracles.brute_is_local(mats, p, M.dim)
    return {"value": value, "provenance": "oracle:span-scan"}


def _square_expected(M: RepModule) -> dict:
    """Frozen regression values for the dim-doubled fixtures.

    Lifting, extending and the exchange property on the squares come from
    the lattice scan itself; their independent verification is the pair
    of equivalence sweeps in the verify run, so these entries exist to
    pin the outcomes, not to re-derive them.
    """
    from .properties import is_extending, is_lifting
    from .summands import has_fiep

    tag = "oracle:lattice-scan"
    out = {
        "lifting": {"value": is_lifting(M).verdict, "provenance": tag},
        "extending": {"value": is_extending(M).verdict, "provenance": tag},
        "fiep": {"value": has_fiep(M).verdict, "provenance": "oracle:exchange-scan"},
    }
    return out


def generate_golden(names=None) -> dict:
    """Recompute every oracle-backed expected value; deterministic."""
    fixtures = corpus(golden={})
    result = {}
    for f in fixtures:
        if names is not None and f.name not in names:
            continue
        if f.name.endswith("_sq"):
            entry = _square_expected(f.module)
        else:
            entry = _brute_expected(f.module)
        local = _end_local_expected(f.module)
        if local is not None:
            entry["end_local"] = local
        result[f.name] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "modcheck verify --regen-golden",
        "fixtures": result,
    }
