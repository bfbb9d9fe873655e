"""Command-line surface: property reports, lattice export, hom and summand
queries, exact-arithmetic verification, and the orchestrated verify run.

Exit codes form the machine contract: 0 success, 1 a check came back
false, 2 usage or schema problems, 3 a cap was exceeded.  JSON output is
stable (schema_version fields everywhere); text output is for humans and
may change.  All configuration arrives via flags plus one optional JSON
config file; the environment is never consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import ModcheckError, SchemaError, TooLarge, UnresolvedDivision, ZeroInput
from .field import _is_prime
from .io import load_module
from .homs import DEFAULT_CAP_HOM, hom_space
from .lattice import DEFAULT_CAP_DIM, lattice_of
from .properties import property_report
from .summands import DEFAULT_N_MAX, DEFAULT_SEED, FIEP_WITNESS_LIMIT, fiep_scan
from .verify import DEFAULT_PQ, RUN_ORDER, VerifyConfig, verify_claims

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit(doc, args) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
            f.write("\n")


def _load(path: str):
    module, doc = load_module(path)
    return module


def _int_type(accepts, what: str):
    """An argparse type: an int that ``accepts`` takes, or a usage error
    saying the value is not ``what``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or not accepts(n):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return n

    return parse


_prime = _int_type(_is_prime, "a prime")

# the flags several subcommands share, declared once
SHARED_FLAGS = {
    "--cap-dim": dict(type=int, default=DEFAULT_CAP_DIM, help="largest module dimension for lattice scans"),
    "--cap-hom": dict(type=int, default=DEFAULT_CAP_HOM, help="largest hom/endomorphism sweep size"),
    "--n-max": dict(
        type=_int_type(lambda n: n >= 1, "a positive integer"), default=DEFAULT_N_MAX,
        help="largest decomposition width for exchange scans",
    ),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="seed for the documented deterministic subsamples"),
    "--p": dict(type=_prime, default=DEFAULT_PQ[0], help="the prime p of the localization example"),
    "--q": dict(type=_prime, default=DEFAULT_PQ[1], help="the prime q of the localization example, not p"),
    "--out": dict(help="also write the output to this file"),
}
# subcommand -> the shared flags it honours, and its --format choices (default first)
COMMAND_FLAGS = {
    "report": (("--cap-dim", "--cap-hom", "--n-max", "--seed", "--out"), ("json", "text")),
    "lattice": (("--cap-dim", "--out"), ("json", "dot")),
    "fiep": (("--cap-dim", "--n-max", "--seed", "--out"), None),
    "summands": (("--cap-dim", "--out"), None),
    "homs": (("--out",), None),
    "exact": (("--p", "--q", "--out"), None),
    "zext": (("--out",), None),
    "verify": (("--cap-dim", "--cap-hom", "--n-max", "--seed", "--p", "--q", "--out"), None),
}


def _rational(text: str) -> Fraction:
    """An argparse type: Fraction(text), or a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _command(sub, name: str, fn, help: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, holding the shared flags it honours."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(fn=fn)
    flags, formats = COMMAND_FLAGS[name]
    for flag in flags:
        parser.add_argument(flag, **SHARED_FLAGS[flag])
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0])
    return parser


def cmd_report(args) -> int:
    M = _load(args.module)
    report = property_report(
        M,
        subject=args.module,
        cap_dim=args.cap_dim,
        cap_hom=args.cap_hom,
        n_max=args.n_max,
        seed=args.seed,
    )
    if args.format == "text":
        _emit(report.to_text(), args)
    else:
        _emit(report.to_json(), args)
    return EXIT_OK


def cmd_lattice(args) -> int:
    lat = lattice_of(_load(args.module), cap_dim=args.cap_dim)
    _emit(lat.to_dot() if args.format == "dot" else lat.to_json(), args)
    return EXIT_OK


def cmd_fiep(args) -> int:
    lat = lattice_of(_load(args.module), cap_dim=args.cap_dim)
    report = fiep_scan(lat, n_max=args.n_max, seed=args.seed)
    doc = report.to_json()
    doc["schema_version"] = 1
    _emit(doc, args)
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def cmd_summands(args) -> int:
    M = _load(args.module)
    lat = lattice_of(M, cap_dim=args.cap_dim)
    idxs = lat.summand_indices()
    doc = {
        "schema_version": 1,
        "module_dim": M.dim,
        "summands": [
            {"index": i, "dim": lat.members[i].dim, "basis": [list(r) for r in lat.members[i].basis]}
            for i in idxs
        ],
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_homs(args) -> int:
    A = _load(args.source)
    B = _load(args.target)
    basis = hom_space(A, B)
    doc = {
        "schema_version": 1,
        "source_dim": A.dim,
        "target_dim": B.dim,
        "hom_dim": len(basis),
        "basis": [[list(r) for r in h] for h in basis],
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_exact(args) -> int:
    from .exact import case_runners, default_xs, fiep_failure_report

    xs = args.x or [Fraction(x) for xs in default_xs(args.p, args.q) for x in xs]
    certificates = []
    unresolved = []
    all_pass = True
    for x in xs:
        for _, runner in case_runners(x, args.q):
            rep = runner(x, args.p, args.q)
            certificates.append(rep.to_json())
            unresolved.extend(rep.unresolved)
            all_pass = all_pass and bool(rep.verdict)

    failure = fiep_failure_report(args.p, args.q)
    for cert in failure.certificates:
        certificates.append({"case": "nonlocal-witness", **cert.to_json()})
        all_pass = all_pass and not cert.is_unit
    certificates.append(failure.to_json())

    doc = {
        "schema_version": 1,
        "example": "localization-counterexample",
        "p": args.p,
        "q": args.q,
        "certificates": certificates,
        "verdict": "pass" if all_pass and not unresolved else "fail",
        "unresolved": unresolved,
    }
    _emit(doc, args)
    return EXIT_OK if doc["verdict"] == "pass" else EXIT_CHECK_FAILED


def cmd_zext(args) -> int:
    from .exact import z_extension_routes

    doc = z_extension_routes(args.a, args.b).to_json()
    doc["schema_version"] = 1
    _emit(doc, args)
    return EXIT_OK


def _regen_golden() -> int:
    """Recompute the golden expected values and fixture files in place."""
    from importlib import resources

    from .corpus import GOLDEN_RESOURCE, corpus, generate_golden

    golden = generate_golden()
    data = resources.files("modcheck.data")
    golden_path = data.joinpath("golden").joinpath(GOLDEN_RESOURCE)
    with golden_path.open("w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    fixtures = corpus(golden=golden["fixtures"])
    for fx in fixtures:
        with data.joinpath("fixtures").joinpath(f"{fx.name}.json").open("w") as f:
            json.dump(fx.doc, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"regenerated golden values for {len(fixtures)} fixtures")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.regen_golden:
        return _regen_golden()
    cfg = VerifyConfig(
        p=args.p,
        q=args.q,
        cap_dim=args.cap_dim,
        cap_hom=args.cap_hom,
        n_max=args.n_max,
        seed=args.seed,
        only=tuple(args.only) if args.only else None,
    )
    manifest = verify_claims(cfg)
    _emit(manifest.to_json(), args)
    print(manifest.summary(), file=sys.stderr)
    return EXIT_OK if manifest.passed else EXIT_CHECK_FAILED


def _with_config_file(parser, argv: list, args) -> list:
    """argv with the config file's values put in as flags right after the
    subcommand.  argparse then parses each value by its flag, and every
    explicit flag, which comes later, overrides it."""
    try:
        with open(args.config) as f:
            values = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"cannot read config file: {e}")
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object")
    flags = []
    for key, value in values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key: {key}")
        if isinstance(getattr(args, attr), list):
            continue  # a repeatable flag the command line gave: its list wins
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is True:
                flags.append(flag)
            elif item is not False:
                flags += [flag, str(item)]
    at = argv.index(args.command) + 1
    return argv[:at] + flags + argv[at:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help in (
        ("report", cmd_report, "all property verdicts for a module file"),
        ("lattice", cmd_lattice, "submodule lattice as json or dot"),
        ("fiep", cmd_fiep, "finite internal exchange scan"),
        ("summands", cmd_summands, "direct summands of a module file"),
    ):
        _command(sub, name, fn, help).add_argument("module")

    p_homs = _command(sub, "homs", cmd_homs, "basis of Hom(A, B) for two module files")
    p_homs.add_argument("source")
    p_homs.add_argument("target")

    p_exact = _command(
        sub, "exact", cmd_exact, "exact-arithmetic verification of the localization example"
    )
    p_exact.add_argument("--x", action="append", type=_rational, help="rational test value, repeatable")

    p_zext = _command(sub, "zext", cmd_zext, "extension routes of a·n ↦ b·n along aℤ ⊆ ℤ")
    p_zext.add_argument("--a", type=int, required=True, help="source multiplier")
    p_zext.add_argument("--b", type=int, required=True, help="image multiplier")

    p_verify = _command(sub, "verify", cmd_verify, "run the full verification manifest")
    p_verify.add_argument("--only", action="append", choices=RUN_ORDER, help="restrict to one claim anchor, repeatable")
    p_verify.add_argument("--config", help="JSON file with flag defaults")
    p_verify.add_argument("--regen-golden", action="store_true", help="recompute golden expected values and fixture files")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(_with_config_file(parser, argv, args))
        if getattr(args, "p", None) is not None and args.p == args.q:
            parser.error(f"--p and --q must be distinct primes, both are {args.p}")
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (modcheck lattice … | head)
        _stdout_to_devnull()
        return EXIT_OK
    except TooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, ZeroInput) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UnresolvedDivision as e:
        print(f"error: unresolved exact division: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ModcheckError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so the flush at interpreter exit cannot
    hit the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
