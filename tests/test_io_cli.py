"""JSON round trips, schema rejection paths, and the CLI exit-code contract."""

import json
import sys
from importlib import resources

import pytest

from modcheck.cli import FIEP_WITNESS_LIMIT, build_parser, main
from modcheck.corpus import roundtrip_module, truncated_poly_algebra, truncated_poly_module
from modcheck.errors import SchemaError
from modcheck.io import (
    load_module,
    module_from_json,
    module_to_json,
    save_module,
    validate_module_json,
)


def fixture_path(name: str) -> str:
    return str(resources.files("modcheck.data").joinpath(f"fixtures/{name}.json"))


# -- io round trips ------------------------------------------------------------


def test_every_fixture_round_trips_exactly(fixtures):
    for fx in fixtures:
        M = roundtrip_module(fx)
        again = module_from_json(module_to_json(M, name=fx.name))
        assert again.dim == M.dim
        assert again.actions == M.actions
        assert again.algebra.constants == M.algebra.constants
        assert again.algebra.unity == M.algebra.unity


def test_save_and_load_round_trip(tmp_path, fixtures_by_name):
    M = roundtrip_module(fixtures_by_name["tri4_f3"])
    path = tmp_path / "m.json"
    save_module(M, str(path), name="tri4_f3")
    loaded, doc = load_module(str(path))
    assert loaded.actions == M.actions and doc["name"] == "tri4_f3"


def test_schema_rejections_carry_paths():
    with pytest.raises(SchemaError) as e:
        validate_module_json({"schema_version": 1})
    assert "required" in str(e.value)

    good = json.loads(
        resources.files("modcheck.data").joinpath("fixtures/chain_f2_k2.json").read_text()
    )
    bad = json.loads(json.dumps(good))
    bad["field"]["p"] = 0
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path and "field" in e.value.path

    bad = json.loads(json.dumps(good))
    bad["module"]["actions"] = bad["module"]["actions"][:-1]
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == ["module", "actions"]


def test_load_module_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError) as e:
        load_module(str(path))
    assert "not valid JSON" in str(e.value)


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# subcommand -> its required arguments and the shared flags it honours
CLI_FLAGS = {
    "report": (("m.json",), ("--cap-dim", "--cap-hom", "--n-max", "--seed", "--format", "--out")),
    "lattice": (("m.json",), ("--cap-dim", "--format", "--out")),
    "fiep": (("m.json",), ("--cap-dim", "--n-max", "--seed", "--out")),
    "summands": (("m.json",), ("--cap-dim", "--out")),
    "homs": (("a.json", "b.json"), ("--out",)),
    "exact": ((), ("--p", "--q", "--out")),
    "zext": (("--a", "2", "--b", "3"), ("--out",)),
    "verify": ((), ("--cap-dim", "--cap-hom", "--n-max", "--seed", "--p", "--q", "--out")),
}
FLAG_VALUES = {
    "--cap-dim": 9, "--cap-hom": 5, "--n-max": 2, "--seed": 7, "--p": 5, "--q": 7, "--out": "copy.json"
}
FORMATS = {"report": "text", "lattice": "dot"}


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_cli_subcommands_take_only_the_flags_they_honour(capsys, command):
    positionals, kept = CLI_FLAGS[command]
    values = dict(FLAG_VALUES, **{"--format": FORMATS.get(command, "text")})
    for flag in kept:
        args = build_parser().parse_args([command, *positionals, flag, str(values[flag])])
        assert getattr(args, flag[2:].replace("-", "_")) == values[flag]
    for flag in values.keys() - set(kept):
        assert main([command, *positionals, f"{flag}={values[flag]}"]) == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err
    assert sum(len(flags) for _, flags in CLI_FLAGS.values()) == 27


def test_cli_report_json_and_text(capsys):
    code, out, _ = run_cli(capsys, "report", fixture_path("tri4_f2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["hollow"] is True and doc["verdicts"]["uniserial"] is False

    code, out, _ = run_cli(capsys, "report", fixture_path("tri4_f2"), "--format", "text")
    assert code == 0 and "hollow" in out


def test_cli_lattice_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "lattice", fixture_path("tri4_f2"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 6 and len(doc["edges"]) == 6

    code, out, _ = run_cli(capsys, "lattice", fixture_path("mat2_simple_f2"), "--format", "dot")
    assert code == 0 and out.startswith("digraph") and "n0 -> n1" in out


def test_cli_cap_exceeded_exits_3(capsys):
    code, _, err = run_cli(capsys, "lattice", fixture_path("tri4_f2"), "--cap-dim", "2")
    assert code == 3 and "error" in err


@pytest.fixture
def chain9_path(tmp_path):
    """A dimension-9 chain module: one past the default --cap-dim."""
    path = tmp_path / "chain9.json"
    save_module(truncated_poly_module(truncated_poly_algebra(2, 9), 9), str(path), name="chain9")
    return str(path)


def test_cli_cap_dim_reaches_every_report_scan(capsys, chain9_path):
    code, out, err = run_cli(capsys, "report", chain9_path, "--cap-dim", "9")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["errors"] == {}
    assert doc["verdicts"]["uniserial"] is True and doc["verdicts"]["lifting"] is True

    # below the module's dimension the report records the refusal per property
    code, out, _ = run_cli(capsys, "report", chain9_path, "--cap-dim", "8")
    assert code == 0
    errors = json.loads(out)["errors"]
    assert errors["lifting"]["error"] == "TooLarge"
    assert "exceeds cap 8" in errors["fiep"]["detail"]


def test_cli_cap_dim_reaches_the_exchange_scan(capsys, chain9_path):
    code, out, err = run_cli(capsys, "fiep", chain9_path, "--cap-dim", "9")
    assert code == 0, err
    assert json.loads(out)["verdict"] is True

    code, _, err = run_cli(capsys, "fiep", chain9_path, "--cap-dim", "8")
    assert code == 3 and "size 9 exceeds cap 8" in err


def test_cli_lattice_into_a_closed_pipe_exits_cleanly(capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    saved = sys.stdout
    sys.stdout = ClosedPipe()
    try:
        code = main(["lattice", fixture_path("chain_f2_k4_sq")])
    finally:
        sys.stdout = saved
    assert code == 0
    assert capsys.readouterr().err == ""


def test_cli_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "missing.json"))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}')
    code, _, err = run_cli(capsys, "report", str(bad))
    assert code == 2 and "error" in err

    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_cli_fiep_reports_and_truncates(capsys):
    code, out, _ = run_cli(capsys, "fiep", fixture_path("chain_f2_k2_sq"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["witnesses_truncated_to"] == FIEP_WITNESS_LIMIT
    assert len(doc["witnesses"]) == FIEP_WITNESS_LIMIT
    assert doc["pairs_checked"] > FIEP_WITNESS_LIMIT

    code, out, _ = run_cli(capsys, "fiep", fixture_path("mat2_simple_f2_sq"))
    doc = json.loads(out)
    assert code == 0 and "witnesses_truncated_to" not in doc


def test_cli_summands(capsys):
    code, out, _ = run_cli(capsys, "summands", fixture_path("mat2_simple_f2"))
    assert code == 0
    doc = json.loads(out)
    dims = sorted(s["dim"] for s in doc["summands"])
    assert dims == [0, 2]  # simple module: only the trivial summands


def test_cli_homs(capsys):
    code, out, _ = run_cli(
        capsys, "homs", fixture_path("chain_f2_k2"), fixture_path("chain_f2_k3")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["source_dim"] == 2 and doc["target_dim"] == 3
    assert doc["hom_dim"] == len(doc["basis"]) == 2


def test_cli_exact_cases_contract(capsys):
    code, out, _ = run_cli(capsys, "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["example"] == "localization-counterexample"
    assert doc["verdict"] == "pass" and doc["unresolved"] == []
    cases = [c.get("case") for c in doc["certificates"]]
    # 3 direct + 3 partial with their graph companions + 2 witness certs + 1 report
    assert cases.count("direct") == 3
    assert cases.count("partial") == 3 and cases.count("graph") == 3
    assert cases.count("nonlocal-witness") == 2
    assert any(c.get("label") == "CITED-IMPLICATION" for c in doc["certificates"])


def test_cli_exact_single_x_and_zext(capsys):
    code, out, _ = run_cli(capsys, "exact", "--x", "4/3")
    assert code == 0
    doc = json.loads(out)
    assert [c.get("case") for c in doc["certificates"][:2]] == ["partial", "graph"]
    # --x is read as a rational, so 8/6 certifies x = 4/3 with the same bytes
    assert run_cli(capsys, "exact", "--x", "8/6") == (code, out, "")
    assert {c["x"] for c in doc["certificates"][:2]} == {"4/3"}

    code, out, _ = run_cli(capsys, "zext", "--a", "2", "--b", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["neither"] is True

    for argv in (["zext"], ["zext", "--a", "2"], ["zext", "--a", "0", "--b", "3"]):
        assert main(argv) == 2, argv  # --a/--b are required and nonzero
        capsys.readouterr()
    # the integer routes are their own command: exact takes none of their flags
    for argv in (["exact", "zext", "--a", "2", "--b", "3"], ["exact", "--a", "2"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err, argv


@pytest.mark.parametrize(
    "argv, named",
    [
        (["exact", "--cap-dim", "2"], "unrecognized arguments: --cap-dim"),
        (["exact", "--cap-dim=2"], "unrecognized arguments: --cap-dim=2"),
        (["exact", "--seed", "1"], "unrecognized arguments: --seed"),
        (["exact", "bogus"], "unrecognized arguments: bogus"),
        (["exact", "--x", "abc"], "argument --x: not a rational number: 'abc'"),
        (["exact", "--x", "1/0"], "argument --x: not a rational number: '1/0'"),
    ],
)
def test_cli_exact_names_the_argument_it_rejects(capsys, argv, named):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and named in err


@pytest.mark.parametrize(
    "p, q, named",
    [
        ("4", "3", "argument --p: not a prime: '4'"),
        ("9", "2", "argument --p: not a prime: '9'"),
        ("-3", "2", "argument --p: not a prime: '-3'"),
        ("4", "9", "argument --p: not a prime: '4'"),
        ("2", "9", "argument --q: not a prime: '9'"),
        ("3", "3", "--p and --q must be distinct primes"),
    ],
)
@pytest.mark.parametrize("command", ["exact", "verify"])
def test_cli_exact_and_verify_refuse_a_bad_prime_pair(capsys, command, p, q, named):
    code, out, err = run_cli(
        capsys, command, "--p", p, "--q", q, "--only", "localization-counterexample"
    ) if command == "verify" else run_cli(capsys, command, "--p", p, "--q", q)
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fiep", "{chain}", "--n-max", "0"],
        ["report", "{chain}", "--n-max", "0"],
        ["verify", "--n-max", "-1", "--only", "exchange-property"],
        ["verify", "--n-max", "two", "--only", "exchange-property"],
    ],
)
def test_cli_n_max_takes_a_positive_integer(capsys, argv):
    argv = [a.format(chain=fixture_path("chain_f2_k2_sq")) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "argument --n-max: not a positive integer" in err


@pytest.mark.parametrize("p, q", [(3, 2), (2, 5), (5, 3)])
def test_cli_exact_and_verify_pass_at_other_primes(capsys, p, q):
    # the default x values follow --p/--q
    code, out, _ = run_cli(capsys, "exact", "--p", str(p), "--q", str(q))
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass" and doc["unresolved"] == []
    cases = [c.get("case") for c in doc["certificates"]]
    assert cases.count("direct") == cases.count("partial") == cases.count("graph") == 3

    code, out, _ = run_cli(
        capsys, "verify", "--p", str(p), "--q", str(q), "--only", "localization-counterexample"
    )
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert len(doc["checks"]) == 11
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_cli_verify_only_anchor(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "integer-routes")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["check_id"] for c in doc["checks"]] == ["integer-routes/a2-b3"]
    assert "PASS" in err


def test_cli_verify_cap_failure_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--only", "running-example", "--cap-dim", "2"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert any(c.get("error", "").startswith("TooLarge") for c in doc["checks"])


def test_cli_config_file_defaults_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99, "only": ["integer-routes"]}))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 99
    assert [c["check_id"] for c in doc["checks"]] == ["integer-routes/a2-b3"]

    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--seed", "5")
    doc = json.loads(out)
    assert doc["config"]["seed"] == 5  # explicit flag beats the config file

    cfg.write_text(json.dumps({"unknown_knob": 1}))
    assert main(["verify", "--config", str(cfg)]) == 2
    capsys.readouterr()

    cfg.write_text("[1, 2]")
    assert main(["verify", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_cli_config_file_loses_to_abbreviated_flags_and_types_its_values(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n-max": 1, "only": ["integer-routes"]}))
    for argv in (["--n-m", "2"], ["--n-m=2"], ["--n-max", "2"]):
        code, out, _ = run_cli(capsys, "verify", *argv, "--config", str(cfg))
        assert code == 0 and json.loads(out)["config"]["n_max"] == 2, argv
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0 and json.loads(out)["config"]["n_max"] == 1
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--on", "running-example")
    assert code == 0 and json.loads(out)["config"]["only"] == ["running-example"]

    # values go through their flag's type, so a mistyped one is a usage error
    for bad in ({"cap-dim": "x"}, {"cap_dim": 2.5}, {"only": ["no-such-anchor"]}):
        cfg.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "Traceback" not in err, bad
    cfg.write_text(json.dumps({"cap-dim": "6", "regen-golden": False, "only": "integer-routes"}))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0 and json.loads(out)["config"]["cap_dim"] == 6


def test_cli_out_writes_a_copy(capsys, tmp_path):
    out_path = tmp_path / "lat.json"
    code, out, _ = run_cli(
        capsys, "lattice", fixture_path("chain_f2_k2"), "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)
