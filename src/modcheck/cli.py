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
from .io import load_module
from .lattice import lattice_of
from .properties import property_report
from .summands import FIEP_WITNESS_LIMIT, fiep_scan
from .verify import RUN_ORDER, VerifyConfig, verify_claims

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit(doc, args) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text)
            f.write("\n")


def _load(path: str):
    module, doc = load_module(path)
    return module


def _add_common(sub, fmt=("json", "text")) -> None:
    sub.add_argument("--cap-dim", type=int, default=8, help="largest module dimension for lattice scans")
    sub.add_argument("--cap-hom", type=int, default=1 << 20, help="largest hom/endomorphism sweep size")
    sub.add_argument("--n-max", type=int, default=3, help="largest decomposition width for exchange scans")
    sub.add_argument("--seed", type=int, default=1789, help="seed for the documented deterministic subsamples")
    sub.add_argument("--format", choices=fmt, default=fmt[0])
    sub.add_argument("--out", help="also write the output to this file")


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
    from .homs import hom_space

    A = _load(args.source)
    B = _load(args.target)
    basis = hom_space(A, B)
    p = A.algebra.field.p
    if p ** len(basis) > args.cap_hom:
        raise TooLarge("hom space", p ** len(basis), args.cap_hom)
    doc = {
        "schema_version": 1,
        "source_dim": A.dim,
        "target_dim": B.dim,
        "hom_dim": len(basis),
        "basis": [[list(r) for r in h] for h in basis],
    }
    _emit(doc, args)
    return EXIT_OK


def _route_x(x: Fraction, args):
    from .exact import verify_direct_case, verify_graph_decomposition, verify_partial_case
    from .exact.rationals import valuation

    if x != 0 and valuation(x, args.q) < 0:
        reports = [
            verify_partial_case(x, p=args.p, q=args.q, seed=args.seed),
            verify_graph_decomposition(x, p=args.p, q=args.q, seed=args.seed),
        ]
    else:
        reports = [verify_direct_case(x, p=args.p, q=args.q, seed=args.seed)]
    return reports


def cmd_exact(args) -> int:
    from .exact import default_xs, fiep_failure_report, z_extension_routes

    if args.mode == "zext":
        if args.a is None or args.b is None:
            raise SchemaError("zext mode needs --a and --b", path=[])
        report = z_extension_routes(args.a, args.b)
        doc = report.to_json()
        doc["schema_version"] = 1
        _emit(doc, args)
        return EXIT_OK

    xs = args.x or [x for xs in default_xs(args.p, args.q) for x in xs]
    certificates = []
    unresolved = []
    all_pass = True
    for raw in xs:
        x = Fraction(raw)
        for rep in _route_x(x, args):
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


def _apply_config_file(args: argparse.Namespace) -> None:
    """Config file supplies defaults; explicit flags already won at parse."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as f:
            values = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read config file: {e}", path=[]) from e
    if not isinstance(values, dict):
        raise SchemaError("config file must hold a JSON object", path=[])
    for key, value in values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise SchemaError(f"unknown config key: {key}", path=[key])
        if attr not in args._explicit:
            setattr(args, attr, value)


class _TrackingParser(argparse.ArgumentParser):
    """Remembers which dests were set on the command line, so a config
    file can fill in the rest without overriding explicit flags."""

    def parse_args(self, argv=None, namespace=None):
        args = super().parse_args(argv, namespace)
        explicit = set()
        argv = sys.argv[1:] if argv is None else list(argv)
        for token in argv:
            if token.startswith("--"):
                explicit.add(token.lstrip("-").split("=")[0].replace("-", "_"))
        args._explicit = explicit
        return args


def build_parser() -> _TrackingParser:
    parser = _TrackingParser(prog="modcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="all property verdicts for a module file")
    p_report.add_argument("module")
    _add_common(p_report)
    p_report.set_defaults(fn=cmd_report)

    p_lat = sub.add_parser("lattice", help="submodule lattice as json or dot")
    p_lat.add_argument("module")
    _add_common(p_lat, fmt=("json", "dot"))
    p_lat.set_defaults(fn=cmd_lattice)

    p_fiep = sub.add_parser("fiep", help="finite internal exchange scan")
    p_fiep.add_argument("module")
    _add_common(p_fiep)
    p_fiep.set_defaults(fn=cmd_fiep)

    p_sum = sub.add_parser("summands", help="direct summands of a module file")
    p_sum.add_argument("module")
    _add_common(p_sum)
    p_sum.set_defaults(fn=cmd_summands)

    p_homs = sub.add_parser("homs", help="basis of Hom(A, B) for two module files")
    p_homs.add_argument("source")
    p_homs.add_argument("target")
    _add_common(p_homs)
    p_homs.set_defaults(fn=cmd_homs)

    p_exact = sub.add_parser(
        "exact", help="exact-arithmetic verification of the localization example"
    )
    p_exact.add_argument(
        "mode", nargs="?", default="cases", choices=("cases", "zext"),
        help="'cases' verifies the endomorphism example, 'zext' the integer routes",
    )
    p_exact.add_argument("--p", type=int, default=2)
    p_exact.add_argument("--q", type=int, default=3)
    p_exact.add_argument("--x", action="append", help="rational test value, repeatable")
    p_exact.add_argument("--a", type=int, help="zext: source multiplier")
    p_exact.add_argument("--b", type=int, help="zext: image multiplier")
    _add_common(p_exact)
    p_exact.set_defaults(fn=cmd_exact)

    p_verify = sub.add_parser("verify", help="run the full verification manifest")
    p_verify.add_argument("--p", type=int, default=2)
    p_verify.add_argument("--q", type=int, default=3)
    p_verify.add_argument("--only", action="append", choices=RUN_ORDER, help="restrict to one claim anchor, repeatable")
    p_verify.add_argument("--config", help="JSON file with flag defaults")
    p_verify.add_argument("--regen-golden", action="store_true", help="recompute golden expected values and fixture files")
    _add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        _apply_config_file(args)
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
