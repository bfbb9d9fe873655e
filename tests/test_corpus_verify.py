"""Fixture corpus integrity and the verification manifest contract."""

import json
from importlib import resources

import pytest

from modcheck.corpus import (
    corpus,
    fixture_by_name,
    generate_golden,
    hollow_uniform_fixtures,
    roundtrip_module,
)
from modcheck.verify import (
    CLAIMS,
    RUN_ORDER,
    Manifest,
    VerifyConfig,
    verify_claims,
)

REQUIRED_FIXTURES = {
    "tri4_f2",
    "tri4_f3",
    "chain_f2_k1",
    "chain_f2_k2",
    "chain_f2_k3",
    "chain_f2_k4",
    "chain_f3_k1",
    "chain_f3_k2",
    "chain_f3_k3",
    "chain_f3_k4",
    "semisimple2_f2",
    "semisimple3_f2",
    "mat2_simple_f2",
}


def test_corpus_contains_the_required_families(fixtures):
    names = {f.name for f in fixtures}
    assert REQUIRED_FIXTURES <= names
    # every hollow-and-uniform base has its square alongside it
    for base in hollow_uniform_fixtures(fixtures):
        assert f"{base.name}_sq" in names
    assert "semisimple2_f2_sq" not in names  # not hollow, so no square


def test_expected_entries_have_values_and_provenance(fixtures):
    for f in fixtures:
        assert f.expected, f.name
        for prop, entry in f.expected.items():
            assert set(entry) >= {"value", "provenance"}, (f.name, prop)
            tag = entry["provenance"]
            assert tag in ("known", "definition") or tag.startswith("oracle:"), (
                f.name,
                prop,
                tag,
            )


def test_expected_value_accessor_and_lookup(fixtures):
    tri = fixture_by_name("tri4_f2", fixtures)
    assert tri.expected_value("submodule_count") == 6
    assert tri.expected["submodule_count"]["provenance"] == "known"
    with pytest.raises(KeyError):
        fixture_by_name("no_such_fixture", fixtures)


def test_hollow_uniform_selection(fixtures):
    names = {f.name for f in hollow_uniform_fixtures(fixtures)}
    assert "tri4_f2" in names and "chain_f3_k4" in names
    assert "semisimple2_f2" not in names
    assert not any(n.endswith("_sq") for n in names)


def test_fixture_files_on_disk_match_the_corpus(fixtures):
    data = resources.files("modcheck.data")
    for f in fixtures:
        text = data.joinpath(f"fixtures/{f.name}.json").read_text()
        assert json.loads(text) == f.doc, f.name


def test_golden_regeneration_reproduces_the_frozen_values(fixtures):
    subset = ("tri4_f2", "chain_f3_k2", "semisimple2_f2", "mat2_simple_f2_sq")
    regenerated = generate_golden(names=subset)["fixtures"]
    stored = json.loads(
        resources.files("modcheck.data.golden").joinpath("expected.json").read_text()
    )["fixtures"]
    for name in subset:
        assert regenerated[name] == stored[name], name


def test_corpus_accepts_a_golden_override():
    fixtures = corpus(golden={})
    tri = fixture_by_name("tri4_f2", fixtures)
    assert "end_local" not in tri.expected  # oracle values come from the file
    assert tri.expected_value("submodule_count") == 6  # contract values stay inline
    assert roundtrip_module(tri).dim == 4


# -- manifest ------------------------------------------------------------------


def test_claim_tables_cover_each_other():
    assert tuple(CLAIMS) == RUN_ORDER
    for anchor, (statement, checks) in CLAIMS.items():
        assert statement and callable(checks), anchor
        # a check id starts with anchor + "/", which then names one anchor only
        assert "/" not in anchor, anchor


def test_manifest_is_deterministic_modulo_durations():
    cfg = VerifyConfig(only=("integer-routes", "localization-counterexample"))

    def stripped(manifest: Manifest) -> dict:
        doc = manifest.to_json()
        for check in doc["checks"]:
            check.pop("duration_ms")
        return doc

    first = stripped(verify_claims(cfg))
    second = stripped(verify_claims(cfg))
    assert first == second
    assert first["passed"] is True
    assert first["schema_version"] == 1
    ids = [c["check_id"] for c in first["checks"]]
    assert ids == sorted(ids)


def test_localization_checks_share_one_failure_report(monkeypatch):
    import modcheck.verify as verify

    built = []
    real = verify.fiep_failure_report

    def counted(p, q):
        built.append((p, q))
        return real(p, q)

    monkeypatch.setattr(verify, "fiep_failure_report", counted)
    manifest = verify_claims(VerifyConfig(only=("localization-counterexample",)))
    assert manifest.passed and built == [(2, 3)]
    digests = {c.check_id: c.witness_digest for c in manifest.checks}
    assert digests["localization-counterexample/nonlocal-witness"] == (
        "e9082ed2e51d1045b13d759c4b341b790988f2ef519c9ebdeaecc4f70ae098c5"
    )
    assert digests["localization-counterexample/exchange-failure"] == (
        "3a2b92993d1eb318cf939c12a6edc4520d80cf55a581f5dace1fbb63e76e73d5"
    )


def test_manifest_attaches_witnesses_only_on_failure():
    cfg = VerifyConfig(cap_dim=2, only=("running-example",))
    manifest = verify_claims(cfg)
    assert not manifest.passed
    failed = [c for c in manifest.checks if not c.passed]
    assert failed and all(c.error.startswith("TooLarge") for c in failed)

    passing = verify_claims(VerifyConfig(only=("integer-routes",)))
    for check in passing.checks:
        doc = check.to_json()
        assert "witness" not in doc and "error" not in doc
        assert len(doc["witness_digest"]) == 64


def test_cap_hom_reaches_the_graph_law_sweep():
    manifest = verify_claims(VerifyConfig(cap_hom=2, only=("graph-laws",)))
    refused = [c for c in manifest.checks if c.error and c.error.startswith("TooLarge")]
    assert refused and not manifest.passed
    # a hom space with at most cap_hom elements is still swept
    assert any(c.passed for c in manifest.checks)


def test_verify_claims_rejects_unknown_anchors():
    with pytest.raises(ValueError):
        verify_claims(VerifyConfig(only=("no-such-anchor",)))


def test_config_round_trip_fields():
    cfg = VerifyConfig(p=2, q=3, seed=7)
    doc = cfg.to_json()
    assert doc["seed"] == 7 and doc["p"] == 2 and doc["q"] == 3
    assert "cap_dim" in doc and "n_max" in doc
