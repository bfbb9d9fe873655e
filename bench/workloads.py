"""The three workloads: seeded inputs, the calls into modcheck, and the checks.

Inputs come only from the ``seed`` argument, through ``random.Random``, so
one seed always gives the same inputs.  modcheck receives only the
generated inputs.  Correctness is decided from verdicts and values, never
from witness digests: a digest covers witness sizes (such as
``pairs_checked``) that an optimisation is allowed to shrink.

A plan is a list of work items.  Each item makes one call into the
program and checks what comes back; it returns ``(output_id, ok, detail)``
triples.  ``after`` is an optional check made once the timed loop has ended.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

# verify_claims check-id prefixes, in manifest run order
VERIFY_ANCHORS = (
    "running-example",
    "summand-closure",
    "graph-laws",
    "square-lifting",
    "square-extending",
    "exchange-property",
    "integer-routes",
    "localization-counterexample",
)

# Left out of report-rebased for run length only: one report takes 43 s
# and 21 s.  Their End(M) and FIEP costs are measured by the other modules
# of this workload and by verify-manifest.
REPORT_EXCLUDED = ("chain_f3_k3_sq", "chain_f3_k4_sq")
REPORT_EXPECTED_KEYS = (
    "submodule_count",
    "hollow",
    "uniform",
    "uniserial",
    "lifting",
    "extending",
    "fiep",
    "end_local",
)

EXACT_PAIRS = ((2, 3), (3, 2), (2, 5), (5, 3))
EXACT_X_PER_CASE = 40  # per (p, q) pair: this many direct and this many partial x
EXACT_ROUTE_PAIRS = 40
ROUTE_BOUND = 30  # |a|, |b| <= 30 keeps brute_route_scan near a millisecond


@dataclass
class Plan:
    items: list  # (item name, callable returning [(output_id, ok, detail)])
    inputs: object  # JSON-able description of the generated inputs
    after: object = None  # callable with the same return shape, run untimed
    anchor_times: dict = field(default_factory=dict)  # verify only

    def input_digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- seeded generators ----------------------------------------------------------


def _inverse_mod_p(P, p: int):
    """Inverse of P over F_p by Gauss-Jordan elimination, or None if singular."""
    n = len(P)
    aug = [list(P[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def random_invertible(n: int, p: int, rng: random.Random):
    """(P, P⁻¹) over F_p, P drawn uniformly and redrawn until invertible."""
    while True:
        P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        P_inv = _inverse_mod_p(P, p)
        if P_inv is not None:
            return P, P_inv


def _matmul(A, B, p: int):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


def conjugate(A, P, P_inv, p: int):
    """P⁻¹·A·P as a tuple-of-tuples matrix."""
    return tuple(tuple(row) for row in _matmul(_matmul(P_inv, A, p), P, p))


def random_x(p: int, q: int, partial: bool, rng: random.Random):
    """(x, n) with x = ±p^m·u / (q^n·u′), u and u′ coprime to pq.

    m ≥ 0 keeps x in Z_(p).  n = −v_q(x) is drawn from 1..3 for the
    partial case (v_q(x) < 0) and from -1..0 for the direct case.
    """

    def unit():
        while True:
            u = rng.randint(1, 99)
            if gcd(u, p * q) == 1:
                return u

    m = rng.randint(0, 3)
    n = rng.randint(1, 3) if partial else rng.randint(-1, 0)
    sign = rng.choice((1, -1))
    x = Fraction(sign * p**m * unit(), unit()) / Fraction(q) ** n
    return x, n


def random_route_pair(rng: random.Random):
    def nonzero():
        return rng.choice((1, -1)) * rng.randint(1, ROUTE_BOUND)

    return nonzero(), nonzero()


# -- workloads --------------------------------------------------------------------


def verify_manifest(mc, fixtures, seed: int) -> Plan:
    """The full claim manifest, as ``modcheck verify`` runs it."""
    anchor_times: dict = {}

    def run():
        manifest = mc.verify_claims(mc.VerifyConfig(seed=seed))
        out = []
        for check in manifest.checks:
            anchor = check.check_id.split("/", 1)[0]
            anchor_times[anchor] = anchor_times.get(anchor, 0.0) + check.duration
            ok = check.verdict == "pass" and check.error is None
            out.append((check.check_id, ok, check.error or check.verdict))
        return out

    return Plan([("verify_claims", run)], {"seed": seed}, anchor_times=anchor_times)


def report_rebased(mc, fixtures, seed: int) -> Plan:
    """property_report on each corpus module, moved to a seeded random basis.

    Every expected value of a fixture is invariant under isomorphism, so
    the rebased report must reproduce it.  The submodule count is read
    from ``lattice_of`` after the timed loop, so the check adds no work
    to the measured region.
    """
    rng = random.Random(seed)
    items, inputs, rebased = [], {}, {}
    for fx in fixtures:
        if fx.name in REPORT_EXCLUDED:
            continue
        M = fx.module
        p = M.field.p
        P, P_inv = random_invertible(M.dim, p, rng)
        actions = tuple(conjugate(A, P, P_inv, p) for A in M.actions)
        inputs[fx.name] = P
        module = mc.RepModule(M.algebra, M.dim, actions, label=fx.name)
        rebased[fx.name] = module
        expected = {k: v["value"] for k, v in fx.expected.items() if k in REPORT_EXPECTED_KEYS}

        def run(name=fx.name, module=module, expected=expected):
            rep = mc.property_report(module, subject=name)
            bad = [
                f"{k}: got {rep.verdicts.get(k)!r}, expected {v!r}"
                for k, v in expected.items()
                if k != "submodule_count" and rep.verdicts.get(k) != v
            ]
            bad += [f"{k}: {e['error']} {e['detail']}" for k, e in rep.errors.items()]
            return [(name, not bad, "; ".join(bad) or "matches frozen values")]

        items.append((fx.name, run))

    def count_check():
        out = []
        for fx in fixtures:
            want = fx.expected.get("submodule_count", {}).get("value")
            if fx.name not in rebased or want is None:
                continue
            got = len(mc.lattice_of(rebased[fx.name]).members)
            out.append((fx.name, got == want, f"submodule_count: got {got}, expected {want}"))
        return out

    return Plan(items, inputs, after=count_check)


def exact_sweep(mc, fixtures, seed: int) -> Plan:
    """Seeded x ∈ Z_(p), routed as ``modcheck exact`` routes them, plus the
    non-local witness, the FIEP failure report and integer routes."""
    ex = mc.exact
    rng = random.Random(seed)
    items, inputs = [], {"x": {}, "routes": []}

    def case_outputs(reports):
        return [
            (
                f"{r.case}:p={r.p},q={r.q},x={r.x}",
                bool(r.verdict) and not r.unresolved,
                "certified" if r.verdict else "verdict false",
            )
            for r in reports
        ]

    for p, q in EXACT_PAIRS:
        xs = [random_x(p, q, i % 2 == 1, rng) for i in range(2 * EXACT_X_PER_CASE)]
        inputs["x"][f"{p},{q}"] = [str(x) for x, _ in xs]
        for x, n in xs:
            if n > 0:  # v_q(x) < 0

                def run(x=x, p=p, q=q):
                    return case_outputs(
                        [
                            ex.verify_partial_case(x, p=p, q=q),
                            ex.verify_graph_decomposition(x, p=p, q=q),
                        ]
                    )

            else:

                def run(x=x, p=p, q=q):
                    return case_outputs([ex.verify_direct_case(x, p=p, q=q)])

            items.append((f"x={x}", run))

        def witness(p=p, q=q):
            x, y = ex.nonlocal_witness(p, q)
            return [(f"nonlocal-witness:p={p},q={q}", x + y == 1, f"x={x}, y={y}")]

        def failure(p=p, q=q):
            rep = ex.fiep_failure_report(p, q)
            ok = (
                "does not satisfy the finite internal exchange property" in rep.verdict
                and rep.label == "CITED-IMPLICATION"
                and sum(rep.witness_pair) == 1
                and not any(c.is_unit for c in rep.certificates)
            )
            return [(f"exchange-failure:p={p},q={q}", ok, rep.label)]

        items += [(f"nonlocal-witness:{p},{q}", witness), (f"exchange-failure:{p},{q}", failure)]

    for _ in range(EXACT_ROUTE_PAIRS):
        a, b = random_route_pair(rng)
        inputs["routes"].append([a, b])

        def route(a=a, b=b):
            rep = ex.z_extension_routes(a, b)
            brute = ex.brute_route_scan(a, b)
            got = (rep.i_holds, rep.ii_holds)
            return [(f"routes:a={a},b={b}", got == brute, f"routes {got}, brute {brute}")]

        items.append((f"routes:{a},{b}", route))

    return Plan(items, inputs)


WORKLOADS = {
    "verify-manifest": verify_manifest,
    "report-rebased": report_rebased,
    "exact-sweep": exact_sweep,
}
