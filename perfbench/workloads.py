"""The three workloads: inputs made from a seed, one timed round, and the checks.

A workload has four parts:

* ``build(seed)`` makes the inputs through ``families.generate`` and
  ``ArithSet``; it is the set-up that ``setup_s`` times;
* ``expect(inputs)`` works out every expected output with :mod:`oracle`,
  once per run and outside any timed region;
* ``run(inputs)`` is one round: the fixed batch of library calls that
  ``wall_s`` times.  It calls the library through module attributes, so
  that the traced run goes through the span wrappers;
* ``judge(inputs, expected, outputs)`` gives one verdict per operation:
  ``ok``, ``failed`` (one of the two counted faults, see the README) or a
  string saying what is wrong.

Every round attempts the same operations, so the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import oracle
from sumprodlab import families, report, sets, solvers, verify

OK = "ok"
FAILED = "failed"

#: Default ceilings of the library, restated so that the benchmark predicts
#: from its own size arithmetic which rows must read ``ceiling``.
ELEMENT_CEILING = 2_000_000
PAIR_CEILING = 100_000_000
BRUTE_CEILING = 5_000_000


def _ceiling(requested: int, ceiling: int):
    return (requested, ceiling) if requested > ceiling else None


def predicted_ceiling(claim: str, a: oracle.Ints, counts: dict):
    """(requested, ceiling) of the first default ceiling the claim exceeds, or None."""
    n = len(a)
    if claim == "sextuple_count":
        return _ceiling(n**6, BRUTE_CEILING)
    if claim == "grid_triples":
        m = n * n
        return _ceiling(m * (m - 1) // 2, PAIR_CEILING)
    if claim == "mult_energy_plus":
        return _ceiling(n * n, ELEMENT_CEILING) or _ceiling(counts["sumset"] ** 2, ELEMENT_CEILING)
    if claim == "ratio_energy":
        return (
            _ceiling(n * n, ELEMENT_CEILING)
            or _ceiling(counts["product_set"] * n, ELEMENT_CEILING)
            or _ceiling(counts["quotient_set"] ** 2, ELEMENT_CEILING)
        )
    return None


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got!r}, expected {want!r}"


# -- claim rows ---------------------------------------------------------------


@dataclass
class RowExpectation:
    """What one (instance, claim) row must show."""

    claim: str
    verdict: str | None = None  # required verdict, None when only values are checked
    lhs: object = None
    size_b: int | None = None
    details: dict | None = None  # required detail values
    ceiling: tuple | None = None  # (requested, ceiling) when a default ceiling is exceeded
    undefined: bool = False  # the containment graph has no edge
    lhs_at_most_rhs: bool = False
    witness_of: object = None  # decomposition: the set B + C must equal


def check_closed_forms(label: str, counts: dict, closed: dict) -> None:
    """The oracle's counts must agree with the closed forms known for the family."""
    for key, value in closed.items():
        if counts[key] != value:
            raise RuntimeError(f"{label}: oracle {key} = {counts[key]}, closed form {value}")


def claim_expectation(claim: str, a, counts: dict) -> RowExpectation:
    """Expected row of ``claim`` on ``a``, from the oracle counts of ``a``."""
    ints = counts["ints"]
    ceiling = predicted_ceiling(claim, ints, counts)
    if ceiling is not None:
        verdict = "ceiling" if claim != "sextuple_count" else None
        return RowExpectation(claim, verdict=verdict, ceiling=ceiling)
    if claim in ("popular_ratios", "basis_chain") and counts["edges"] == 0:
        return RowExpectation(claim, undefined=True)
    if claim == "stats":
        return RowExpectation(
            claim, verdict="info", details={k: counts[k] for k in counts["stats"]}
        )
    if claim == "ratio_energy":
        return RowExpectation(
            claim, verdict="info", lhs=counts["quotient_energy"], size_b=counts["quotient_set"]
        )
    if claim == "mult_energy_plus":
        return RowExpectation(
            claim, verdict="info", lhs=counts["sumset_mult_energy"], size_b=counts["sumset"]
        )
    if claim == "shift_bound":
        worst = counts["max_overlap"]
        # overlap^3 <= M^4 |A|^2 with M = |AA| / |A|, in integers.
        holds = worst**3 * len(ints) ** 2 <= counts["product_set"] ** 4
        return RowExpectation(
            claim,
            verdict="pass" if holds else "fail",
            lhs=worst,
            size_b=counts["difference_set"] - 1,
        )
    if claim == "popular_ratios":
        return RowExpectation(
            claim,
            verdict="pass",
            details={"collision_count": counts["collisions"]},
            lhs_at_most_rhs=True,
        )
    if claim == "basis_chain":
        return RowExpectation(claim, verdict="pass", lhs=counts["ratio_product_energy"])
    if claim == "difference_count":
        return RowExpectation(
            claim,
            verdict="info",
            lhs=counts["sigma"],
            details={"hypothesis_ok": counts["in_difference_set"]},
        )
    if claim == "ratio_set_bounds":
        return RowExpectation(
            claim,
            verdict="pass",
            details={
                "x_size": counts["directed_ratios"],
                "y_size": counts["directed_ratios"],
                "triples_bbc": counts["triples_negated"],
                "triples_ccb": counts["triples_negated"],
            },
        )
    if claim == "grid_triples":
        return RowExpectation(claim, verdict="info", lhs=counts["triples"])
    if claim == "sextuple_count":
        return RowExpectation(claim, verdict="pass", lhs=counts["triples"])
    if claim == "identities":
        return RowExpectation(claim, verdict="pass", lhs=20_000)
    if claim == "exponent_chain":
        # 1/2 + 1/442 = 111/221, the paper's headline exponent.
        return RowExpectation(claim, verdict="pass", lhs="111/221")
    if claim == "decomposition":
        if counts["sidon"]:
            return RowExpectation(claim, verdict="info", details={"reducible": False})
        return RowExpectation(claim, verdict="pass", details={"reducible": True}, witness_of=a)
    raise ValueError(f"no expectation for claim {claim!r}")


def instance_counts(a, claims) -> dict:
    """Every oracle count the claims in ``claims`` need for instance ``a``."""
    ints = oracle.Ints.of(a)
    base = oracle.stats(ints)
    counts = dict(base)
    counts["ints"] = ints
    counts["stats"] = tuple(base)
    counts["edges"] = oracle.edges(ints)
    if "ratio_energy" in claims:
        counts["quotient_energy"] = oracle.add_energy(
            oracle.scale_keys(oracle.quotient_keys(ints), ints.p)
        )
    if "mult_energy_plus" in claims:
        plus = oracle.sums(ints)
        if len(plus) ** 2 <= ELEMENT_CEILING:
            counts["sumset_mult_energy"] = oracle.mul_energy(plus)
    if "shift_bound" in claims:
        counts["max_overlap"] = max(oracle.difference_counts(ints).values())
    if counts["edges"]:
        if "popular_ratios" in claims:
            counts["collisions"] = oracle.collision_count(ints)
        if "basis_chain" in claims:
            counts["ratio_product_energy"] = oracle.product_with_ratios_energy(ints)
    if "difference_count" in claims:
        counts["sigma"] = oracle.sigma_minus(ints)
        diffs = {ints.red(u - v) for u in ints.vals for v in ints.vals}
        counts["in_difference_set"] = all(x in diffs for x in ints.vals)
    if "ratio_set_bounds" in claims:
        counts["directed_ratios"] = oracle.directed_ratio_size(ints, ints)
        counts["triples_negated"] = oracle.collinear_triples(ints, ints, oracle.negated(ints))
    if "grid_triples" in claims or "sextuple_count" in claims:
        m = len(ints) ** 2
        if m * (m - 1) // 2 <= PAIR_CEILING:
            counts["triples"] = oracle.collinear_triples(ints, ints, ints)
    if "decomposition" in claims:
        counts["sidon"] = oracle.is_sidon(ints)
    return counts


def witness_ok(a, left, right) -> bool:
    """|B|, |C| >= 2 and B + C = A, by the benchmark's own sumset."""
    whole, left, right = oracle.common(a, left, right)
    return (
        len(left) >= 2
        and len(right) >= 2
        and oracle.sumset_ints(left.vals, right.vals) == set(whole.vals)
    )


def judge_row(want: RowExpectation, record) -> str:
    """One verdict for a claim's output: a CheckRecord, a report row or an exception."""
    if isinstance(record, ValueError):
        # Counted fault: lk_profile raises on an edgeless containment graph.
        if want.undefined and "(L, K) profile is undefined" in str(record):
            return FAILED
        return f"{want.claim}: raised {record!r}"
    if isinstance(record, dict):
        verdict, lhs, rhs = record["verdict"], record["lhs"], record["rhs"]
        size_b, details = record["card_b"], record["details"]
    else:
        verdict, lhs, rhs = record.verdict, record.lhs, record.rhs
        size_b, details = record.size_b, record.details
    if want.undefined:
        return OK if verdict == "undefined" else _mismatch(want.claim, verdict, "undefined")
    if want.ceiling is not None:
        if verdict == "ceiling":
            return OK if (lhs, rhs) == want.ceiling else _mismatch(want.claim, (lhs, rhs), want.ceiling)
        # Counted fault: sextuple_check catches CeilingExceeded as a RuntimeError.
        error = str(details.get("error", ""))
        if want.claim == "sextuple_count" and verdict == "fail" and (
            f"would need {want.ceiling[0]} items" in error
        ):
            return FAILED
        return _mismatch(want.claim, verdict, "ceiling")
    if want.verdict is not None and verdict != want.verdict:
        return _mismatch(want.claim, verdict, want.verdict)
    if want.lhs is not None and lhs != want.lhs:
        return _mismatch(f"{want.claim} lhs", lhs, want.lhs)
    if want.size_b is not None and size_b != want.size_b:
        return _mismatch(f"{want.claim} card_b", size_b, want.size_b)
    for key, value in (want.details or {}).items():
        if details.get(key) != value:
            return _mismatch(f"{want.claim} {key}", details.get(key), value)
    if want.lhs_at_most_rhs and not lhs <= rhs:
        return f"{want.claim}: lhs {lhs} > rhs {rhs}"
    if want.witness_of is not None and not witness_ok(
        want.witness_of, details["witness_left"], details["witness_right"]
    ):
        return f"{want.claim}: witness B + C != A"
    return OK


# -- report-q -----------------------------------------------------------------

#: The 13 instance claims; the F_p claims below are a subset.
Q_CLAIMS = (
    "stats",
    "ratio_energy",
    "mult_energy_plus",
    "shift_bound",
    "popular_ratios",
    "basis_chain",
    "difference_count",
    "ratio_set_bounds",
    "grid_triples",
    "sextuple_count",
    "identities",
    "decomposition",
    "exponent_chain",
)
Q_GP_SIZES = (12, 14, 16)


def gp_closed_forms(n: int) -> dict:
    """Counts of gp(2, n) in closed form; (AA)/A is gp(2, 3n - 2) up to dilation."""
    m = 3 * n - 2
    return {
        "product_set": 2 * n - 1,
        "additive_energy": 2 * n * n - n,
        "multiplicative_energy": (2 * n**3 + n) // 3,
        "quotient_set": m,
        "quotient_energy": 2 * m * m - m,
    }


class ReportQ:
    name = "report-q"

    def __init__(self, root: Path):
        self.out_dir = root / "perfbench" / "out" / "report-q"

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        specs = [families.parse_family(f"gp:q=2,n={n}") for n in Q_GP_SIZES]
        # The reducible family: a sumset B + B of three seeded integers whose
        # containment graph has an edge (see the README on the lk_profile fault).
        while True:
            spec = families.parse_family(
                f"sumset_of_random:n=3,lo=1,hi=30,seed={rng.randrange(1, 10**6)}"
            )
            a = families.generate(spec)
            if len(a) == 6 and oracle.edges(oracle.Ints.of(a)):
                break
        specs.append(spec)
        return {
            "specs": specs,
            "instances": {s.label(): families.generate(s) for s in specs},
            "options": {"seed": rng.randrange(1, 10**6)},
        }

    def expect(self, inputs: dict) -> dict:
        expected = {}
        for spec in inputs["specs"]:
            label = spec.label()
            a = inputs["instances"][label]
            counts = instance_counts(a, Q_CLAIMS)
            if spec.kind == "gp":
                check_closed_forms(label, counts, gp_closed_forms(len(a)))
            for claim in Q_CLAIMS:
                expected[(label, claim)] = claim_expectation(claim, a, counts)
        return expected

    def run(self, inputs: dict):
        rows, summary = report.run_suite(inputs["specs"], list(Q_CLAIMS), inputs["options"])
        paths = report.write_report(rows, summary, self.out_dir)
        return rows, summary, paths

    def judge(self, inputs: dict, expected: dict, outputs) -> tuple[list[str], list[str]]:
        rows, summary, (csv_path, json_path) = outputs
        verdicts = []
        by_key = {(row["instance"], row["claim_id"]): row for row in rows}
        for key, want in expected.items():
            row = by_key.get(key)
            verdicts.append(judge_row(want, row) if row else f"{key}: row missing")
        problems = []
        if len(rows) != len(expected):
            problems.append(f"report has {len(rows)} rows, expected {len(expected)}")
        with open(csv_path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        if table[0] != list(report.CSV_FIELDS) or len(table) != len(rows) + 1:
            problems.append("report.csv does not hold one line per row under its header")
        elif [r[7] for r in table[1:]] != [row["verdict"] for row in rows]:
            problems.append("report.csv verdicts differ from the rows")
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if len(payload["rows"]) != len(rows) or payload["summary"]["rows"] != len(rows):
            problems.append("report.json does not hold every row")
        return verdicts, problems


# -- verify-fp ----------------------------------------------------------------

FP_CLAIMS = (
    "stats",
    "ratio_energy",
    "difference_count",
    "mult_energy_plus",
    "grid_triples",
    "popular_ratios",
    "basis_chain",
    "sextuple_count",
)
#: (p, order) of the multiplicative subgroups H of F_p*.
FP_SUBGROUPS = ((1009, 28), (10009, 139), (10009, 278), (31, 5))


class VerifyFp:
    name = "verify-fp"

    def build(self, seed: int) -> dict:
        # Each subgroup H is dilated by a seeded x: every count these claims
        # make is the same on x H as on H, while the residues hashed differ.
        rng = random.Random(seed)
        ops = []
        for p, order in FP_SUBGROUPS:
            h = families.generate(families.FamilySpec("subgroup", {"p": p, "d": order}))
            x = rng.randrange(2, p)
            a = sets.dilate(h, x)
            label = f"subgroup:p={p},d={order}*{x}"
            ops.extend((label, a, claim) for claim in FP_CLAIMS)
        return {"ops": ops}

    def expect(self, inputs: dict) -> list[RowExpectation]:
        counts_of = {}
        expected = []
        for label, a, claim in inputs["ops"]:
            if label not in counts_of:
                counts = counts_of[label] = instance_counts(a, FP_CLAIMS)
                d = len(a)
                # A coset x H of a subgroup of order d: |HH| = |H/H| = d, E_x = d^3.
                closed = {"product_set": d, "ratio_set": d, "quotient_set": d}
                closed["multiplicative_energy"] = d**3
                check_closed_forms(label, counts, closed)
            expected.append(claim_expectation(claim, a, counts_of[label]))
        return expected

    def run(self, inputs: dict) -> list:
        out = []
        for _label, a, claim in inputs["ops"]:
            try:
                out.append(verify.run_claim(claim, a))
            except ValueError as exc:
                out.append(exc)
        return out

    def judge(self, inputs: dict, expected: list, outputs: list) -> tuple[list[str], list[str]]:
        return [judge_row(want, got) for want, got in zip(expected, outputs)], []


# -- search -------------------------------------------------------------------

BATTERY_UNIVERSE = 13
BATTERY_SIZE = 150
SUMSET_COUNT = 20
INTERVAL = 12
INTERVAL_K = 5


class Search:
    name = "search"

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        # min_basis runs the same search tree on every positive dilate of a
        # set (the default universe dilates with it), so an odd seeded factor
        # changes the values while the node count stays fixed.
        factor = rng.randrange(3, 200, 2)
        ops = []
        for text in ("gp:q=2,n=8", "random:n=8,lo=1,hi=60,seed=1"):
            ops.append(("min_basis", sets.dilate(families.generate(families.parse_family(text)), factor), None))
        universe = sets.ArithSet(range(BATTERY_UNIVERSE))
        for _ in range(BATTERY_SIZE):
            k = rng.randint(3, 8)
            ops.append(("min_basis", sets.ArithSet(rng.sample(range(BATTERY_UNIVERSE), k)), universe))
        for n in (8, 12, 16):
            gp = families.generate(families.parse_family(f"gp:q=2,n={n}"))
            ops.append(("decompose", sets.dilate(gp, factor), None))
        for _ in range(SUMSET_COUNT):
            b = rng.sample(range(40), 3)
            c = rng.sample(range(40), 3)
            ops.append(("decompose", sets.ArithSet({x + y for x in b for y in c}), None))
        for comb in combinations(range(INTERVAL), INTERVAL_K):
            ops.append(("decompose", sets.ArithSet(comb), None))
        return {"ops": ops}

    def expect(self, inputs: dict) -> list[dict]:
        table = oracle.min_basis_table(BATTERY_UNIVERSE)
        expected = []
        for kind, a, universe in inputs["ops"]:
            ints = oracle.Ints.of(a)
            want = {"kind": kind}
            if kind == "min_basis":
                want["floor"] = oracle.counting_floor(len(a))
                if universe is not None:
                    want["size"] = table[sum(1 << v for v in ints.vals)]
            elif oracle.is_sidon(ints):
                want["reducible"] = False
            else:
                want["reducible"] = oracle.reducible(ints.vals)
            expected.append(want)
        return expected

    def run(self, inputs: dict) -> list:
        out = []
        for kind, a, universe in inputs["ops"]:
            if kind == "min_basis":
                out.append(solvers.min_basis(a, universe))
            else:
                out.append(solvers.decompose(a))
        return out

    def judge(self, inputs: dict, expected: list, outputs: list) -> tuple[list[str], list[str]]:
        verdicts = []
        for (_kind, a, _universe), want, got in zip(inputs["ops"], expected, outputs):
            if want["kind"] == "min_basis":
                whole, basis = oracle.common(a, got.basis)
                if not set(whole.vals) <= oracle.sumset_ints(basis.vals, basis.vals):
                    verdicts.append("min_basis: B + B does not cover A")
                elif got.size != len(basis.vals) or got.size < want["floor"]:
                    verdicts.append(_mismatch("min_basis size vs floor", got.size, want["floor"]))
                elif "size" in want and got.size != want["size"]:
                    verdicts.append(_mismatch("min_basis size", got.size, want["size"]))
                else:
                    verdicts.append(OK)
                continue
            if got.reducible != want["reducible"]:
                verdicts.append(_mismatch("decompose reducible", got.reducible, want["reducible"]))
            elif got.reducible:
                ok = witness_ok(a, *got.parts())
                verdicts.append(OK if ok else "decompose: witness B + C != A")
            else:
                verdicts.append(OK)
        return verdicts, []


def make(name: str, root: Path):
    if name == "report-q":
        return ReportQ(root)
    if name == "verify-fp":
        return VerifyFp()
    if name == "search":
        return Search()
    raise KeyError(name)
