"""The orchestrated verification run: every tracked claim, one manifest.

Each manifest entry is one (claim, fixture) pair, so a failure pinpoints
both the statement and the instance that broke it.  The CLAIMS table
after the check groups maps each claim anchor to its statement and its
check group, in run order; every check id starts with its anchor and a
slash.  It is the coverage contract: every claim anchor must own at
least one manifest entry under the default config, and the tests enforce
that against a fresh run.

Entries record a sha256 digest of their witness data; the witness itself
is attached only on failure (success witnesses can be regenerated, a
failure must be inspectable from the manifest alone).  Manifests are
deterministic for a fixed config up to the duration fields.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain

from .corpus import corpus, hollow_uniform_fixtures
from .errors import ModcheckError
from .exact import (
    brute_route_scan,
    case_runners,
    default_xs,
    fiep_failure_report,
    z_extension_routes,
)
from .graphs import graph_complement, graph_law_sweep
from .homs import DEFAULT_CAP_HOM
from .lattice import DEFAULT_CAP_DIM, lattice_of
from .modules import ModuleHom, direct_sum
from .properties import extending_scan, hollow_scan, lifting_scan, uniform_scan, uniserial_scan
from .summands import DEFAULT_N_MAX, DEFAULT_SEED, fiep_scan
from .theorems import square_extending_criterion, square_lifting_criterion

GRAPH_LAW_PAIRS = (
    ("chain_f2_k2", "chain_f2_k2"),
    ("chain_f2_k3", "chain_f2_k2"),
    ("chain_f2_k2", "chain_f2_k3"),
    ("chain_f2_k4", "chain_f2_k3"),
    ("chain_f3_k3", "chain_f3_k2"),
    ("chain_f3_k4", "chain_f3_k4"),
    ("tri4_f2", "tri4_f2"),
    ("tri4_f3", "tri4_f3"),
    ("mat2_simple_f2", "mat2_simple_f2"),
)

EXAMPLE_SUBMODULE_BASES = frozenset(
    {
        (),
        ((0, 0, 0, 1),),
        ((0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    }
)


# the prime pair (p, q) of the localization example, unless --p/--q say otherwise
DEFAULT_PQ = (2, 3)


@dataclass(frozen=True)
class VerifyConfig:
    p: int = DEFAULT_PQ[0]
    q: int = DEFAULT_PQ[1]
    cap_dim: int = DEFAULT_CAP_DIM
    cap_hom: int = DEFAULT_CAP_HOM
    n_max: int = DEFAULT_N_MAX
    seed: int = DEFAULT_SEED
    only: tuple | None = None  # anchors to run; None = all

    def to_json(self) -> dict:
        d = asdict(self)
        d["only"] = list(d["only"]) if d["only"] is not None else None
        # the x values the localization checks run, fixed by (p, q)
        d["direct_xs"], d["partial_xs"] = map(list, default_xs(self.p, self.q))
        return d


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    verdict: str  # "pass" | "fail"
    witness_digest: str
    duration: float
    witness: dict | None = None  # attached on failure only
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "check_id": self.check_id,
            "claim": self.claim,
            "verdict": self.verdict,
            "witness_digest": self.witness_digest,
            "duration_ms": round(self.duration * 1000, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class Manifest:
    config: VerifyConfig
    checks: tuple  # CheckResult, ordered by check id

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config.to_json(),
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.verdict.upper():4s} {c.check_id}")
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)"
        )
        return "\n".join(lines)


def _digest(witness: dict) -> str:
    blob = json.dumps(witness, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_check(check_id: str, claim: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, witness = fn()
        error = None
    except ModcheckError as exc:
        ok, witness = False, {"input": check_id}
        error = f"{type(exc).__name__}: {exc}"
    duration = time.perf_counter() - start
    return CheckResult(
        check_id,
        claim,
        "pass" if ok else "fail",
        _digest(witness),
        duration,
        witness=None if ok else witness,
        error=error,
    )


# -- check groups, in run order ----------------------------------------------


def _checks_running_example(cfg: VerifyConfig, fixtures, claim: str) -> list:
    out = []
    for fx in fixtures:
        if not fx.name.startswith("tri4_f") or fx.name.endswith("_sq"):
            continue

        def check(fx=fx):
            lat = lattice_of(fx.module, cap_dim=cfg.cap_dim)
            bases = frozenset(m.basis for m in lat.members)
            witness = {
                "submodules": sorted(
                    [list(r) for r in b] for b in bases
                ),
                "count": len(lat.members),
                "hollow": hollow_scan(lat),
                "uniform": uniform_scan(lat),
                "uniserial": uniserial_scan(lat),
            }
            ok = (
                bases == EXAMPLE_SUBMODULE_BASES
                and witness["count"] == 6
                and witness["hollow"]
                and witness["uniform"]
                and not witness["uniserial"]
            )
            return ok, witness

        out.append(_run_check(f"running-example/{fx.name}", claim, check))
    return out


def _checks_summand_closure(cfg: VerifyConfig, fixtures, claim: str) -> list:
    out = []
    for fx in fixtures:
        if not fx.name.endswith("_sq"):
            continue

        def check(fx=fx):
            lat = lattice_of(fx.module, cap_dim=cfg.cap_dim)
            checked = 0
            for i in lat.summand_indices():
                part = lat.members[i]
                if part.dim == 0 or part.dim == fx.module.dim:
                    continue
                if not (hollow_scan(lat, i) and uniform_scan(lat, i)):
                    return False, {
                        "fixture": fx.name,
                        "summand_basis": [list(r) for r in part.basis],
                    }
                checked += 1
            return checked > 0, {"fixture": fx.name, "summands_checked": checked}

        out.append(_run_check(f"summand-closure/{fx.name}", claim, check))
    return out


def _checks_graph_laws(cfg: VerifyConfig, fixtures, claim: str) -> list:
    by_name = {f.name: f for f in fixtures}
    out = []
    for an, bn in GRAPH_LAW_PAIRS:
        if an not in by_name or bn not in by_name:
            continue

        def check(an=an, bn=bn):
            A, B = by_name[an].module, by_name[bn].module
            ds = direct_sum(A, B)
            lat = lattice_of(A, cap_dim=cfg.cap_dim)
            sweep = graph_law_sweep(ds, cfg.cap_hom, lat.members[lat.radical_index()])
            failure = sweep.first_failure()
            if failure is not None:
                return False, {"pair": [an, bn], "laws": failure}
            witness = {"pair": [an, bn], "homs_checked": len(sweep)}
            if an == bn:
                ident = ModuleHom(
                    A, B, tuple(tuple(int(i == j) for j in range(A.dim)) for i in range(A.dim))
                )
                comp = graph_complement(ds, ident)
                witness["complement_parts"] = [q.dim for q in comp.decomposition.parts]
            return True, witness

        out.append(_run_check(f"graph-laws/{an}--{bn}", claim, check))
    return out


def _checks_square_criteria(cfg: VerifyConfig, fixtures, claim: str, which: str) -> list:
    scan = lifting_scan if which == "lifting" else extending_scan
    criterion = (
        square_lifting_criterion if which == "lifting" else square_extending_criterion
    )
    out = []
    for fx in hollow_uniform_fixtures(fixtures):
        if 2 * fx.module.dim > cfg.cap_dim:
            continue

        def check(fx=fx):
            square = direct_sum(fx.module, fx.module).module
            definitional = scan(lattice_of(square, cap_dim=cfg.cap_dim)).verdict
            # branch (ii) adds nothing on a finite module, so one sweep
            # decides both variants (see theorems)
            swept = criterion(fx.module, cap_hom=cfg.cap_hom).verdict
            witness = {
                "fixture": fx.name,
                "definitional": definitional,
                "variant_b": swept,
                "variant_c": swept,
            }
            return definitional == swept, witness

        out.append(_run_check(f"square-{which}/{fx.name}", claim, check))
    return out


def _checks_exchange(cfg: VerifyConfig, fixtures, claim: str) -> list:
    out = []
    for fx in fixtures:

        def check(fx=fx):
            lat = lattice_of(fx.module, cap_dim=cfg.cap_dim)
            rep = fiep_scan(lat, n_max=cfg.n_max, seed=cfg.seed)
            witness = {
                "fixture": fx.name,
                "pairs_checked": rep.pairs_checked,
                "witnesses": len(rep.witnesses),
                "sampled": rep.sampled,
            }
            if rep.failure is not None:
                witness["failure"] = rep.failure
            return rep.verdict, witness

        out.append(_run_check(f"exchange-property/{fx.name}", claim, check))
    return out


def _checks_integer_routes(cfg: VerifyConfig, fixtures, claim: str) -> list:

    def check():
        report = z_extension_routes(2, 3)
        brute = brute_route_scan(2, 3)
        witness = {
            "routes": report.to_json(),
            "brute": brute,
        }
        ok = (
            not report.i_holds
            and not report.ii_holds
            and brute == (report.i_holds, report.ii_holds)
        )
        return ok, witness

    return [_run_check("integer-routes/a2-b3", claim, check)]


def _checks_localization(cfg: VerifyConfig, fixtures, claim: str) -> list:
    p, q = cfg.p, cfg.q
    out = []
    for x in chain(*default_xs(p, q)):
        for name, runner in case_runners(Fraction(x), q):

            def check(x=x, runner=runner):
                report = runner(Fraction(x), p, q)
                return bool(report.verdict) and not report.unresolved, report.to_json()

            out.append(_run_check(f"localization-counterexample/{name}/x={x}", claim, check))

    # one failure report serves both checks below; an error while building
    # it is not cached, so it still fails each check on its own
    failure_report = functools.cache(lambda: fiep_failure_report(p, q))

    def witness_check():
        report = failure_report()
        x, y = report.witness_pair
        cert_x, cert_y = report.certificates
        ok = x + y == 1 and not cert_x.is_unit and not cert_y.is_unit
        return ok, {"x": cert_x.to_json(), "y": cert_y.to_json()}

    out.append(
        _run_check(
            "localization-counterexample/nonlocal-witness", claim, witness_check
        )
    )

    def failure_check():
        report = failure_report()
        doc = report.to_json()
        ok = (
            "does not satisfy the finite internal exchange property"
            in report.verdict
            and report.label == "CITED-IMPLICATION"
            and bool(report.citation)
        )
        return ok, doc

    out.append(
        _run_check(
            "localization-counterexample/exchange-failure", claim, failure_check
        )
    )
    return out


# claim anchor -> (statement, check group), in run order; a check group
# takes (cfg, fixtures, statement) and returns its CheckResults, each with a
# check id that starts with the anchor and a slash
CLAIMS = {
    "running-example": (
        "the width-4 row module over the 9-dimensional triangular shape "
        "algebra has exactly six submodules and is hollow and uniform but "
        "not uniserial",
        _checks_running_example,
    ),
    "summand-closure": (
        "every nonzero proper direct summand of a direct sum of hollow "
        "(resp. uniform) modules is hollow (resp. uniform)",
        _checks_summand_closure,
    ),
    "graph-laws": (
        "the graph of a homomorphism into the second component meets the "
        "first copy exactly in the kernel, complements the second copy "
        "exactly when the map is total, and fills the sum with the first "
        "copy exactly when the map is epi",
        _checks_graph_laws,
    ),
    "square-lifting": (
        "for hollow and uniform U the definitional lifting scan on U ⊕ U "
        "agrees with both case-analysis variants of the square criterion",
        functools.partial(_checks_square_criteria, which="lifting"),
    ),
    "square-extending": (
        "for hollow and uniform U the definitional extending scan on U ⊕ U "
        "agrees with both case-analysis variants of the square criterion",
        functools.partial(_checks_square_criteria, which="extending"),
    ),
    "exchange-property": (
        "every finite-length corpus module satisfies the finite internal "
        "exchange property",
        _checks_exchange,
    ),
    "integer-routes": (
        "a partial endomorphism a·n ↦ b·n of the integers extends along "
        "route (i) exactly when a divides b and along route (ii) exactly "
        "when b divides a; for (a, b) = (2, 3) neither applies",
        _checks_integer_routes,
    ),
    "localization-counterexample": (
        "over the two-prime localization pair the pullback module U has a "
        "non-local endomorphism ring, U ⊕ U is lifting by explicit case "
        "analysis, and U ⊕ U fails the finite internal exchange property",
        _checks_localization,
    ),
}

RUN_ORDER = tuple(CLAIMS)


def verify_claims(config: VerifyConfig | None = None) -> Manifest:
    """Run every selected check group in order and assemble the manifest."""
    cfg = config or VerifyConfig()
    selected = RUN_ORDER if cfg.only is None else tuple(cfg.only)
    unknown = [a for a in selected if a not in CLAIMS]
    if unknown:
        raise ValueError(f"unknown check anchors: {unknown}")
    fixtures = corpus()
    results = []
    for anchor, (claim, checks) in CLAIMS.items():
        if anchor in selected:
            results += checks(cfg, fixtures, claim)
    results.sort(key=lambda c: c.check_id)
    return Manifest(cfg, tuple(results))
