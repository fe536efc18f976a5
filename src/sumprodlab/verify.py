"""The verification suite: every check the workbench knows how to run.

Verdict model.  Checks that are exact inequalities or identities (the
Cauchy-Schwarz chain, the difference-representation injection, the
quadruple-generator floor, the two ratio identities, route agreement
between counting paths) are PASS/FAIL, decided in exact arithmetic.
Asymptotically phrased claims cannot be pass/fail on one instance, so
they emit exact ratios per instance plus fitted log-log slopes across
families, with thresholds defaulting to the claimed exponent plus 0.2
slack.  High-precision (113-bit) evaluation is confined to report-only
columns such as fractional-power bounds; every verdict that can be
exact is exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .field import CeilingExceeded, OutsideDomain
from .sets import (
    DEFAULT_ELEMENT_CEILING,
    ArithSet,
    aa_over_a,
    difference_set,
    multiplicative_doubling,
    negate,
    product_set,
    ratio_set,
    sumset,
)
from .energy import (
    additive_energy,
    multiplicative_energy,
    ratio_quotient_energy,
    representation_function,
    shift_bound_report,
)
from .graph import build_containment_graph, gowers_extract, lk_profile
from .incidence import (
    RouteDisagreement,
    collinear_triples,
    grid_triples_bound_check,
    sextuple_collinearity_count,
)
from .popdiff import (
    build_popular_ratios,
    build_ratio_sets,
    quadruple_energy_bound,
    ratio_product_identity_holds,
    shift_ratio_identity_holds,
)
from .solvers import decomposition_report

#: Largest admissible exponent gain in the ledger chain.
MAX_GAIN = Fraction(1, 26)
#: Slack added to claimed exponents when judging fitted slopes.
SLOPE_SLACK = 0.2


def _hp(fn) -> float:
    """Evaluate a report-only quantity at 113-bit precision."""
    with mpmath.workprec(113):
        return float(fn(mpmath))


def _mpf(x, ctx):
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.mpf(x)


@dataclass(frozen=True)
class ExponentLedger:
    """Exact exponent bookkeeping for the basis-size chain.

    From a gain c the chain yields the basis exponent 1/2 + c/17; the
    admissible range is 0 < c <= 1/26, and the boundary value reproduces
    the headline 1/2 + 1/442 exactly.
    """

    gain: Fraction
    popular_ratio_exponents: tuple[int, int]
    chain_exponents: tuple[int, int]
    basis_exponent: Fraction
    at_boundary: bool


def exponent_ledger(gain) -> ExponentLedger:
    gain = Fraction(gain)
    if not 0 < gain <= MAX_GAIN:
        raise ValueError(f"gain must lie in (0, {MAX_GAIN}]")
    return ExponentLedger(
        gain=gain,
        popular_ratio_exponents=(8, 14),
        chain_exponents=(10, 17),
        basis_exponent=Fraction(1, 2) + gain / 17,
        at_boundary=(gain == MAX_GAIN),
    )


@dataclass
class CheckRecord:
    """One claim evaluated on one instance."""

    claim: str
    provenance: str
    size_a: int
    size_b: int
    lhs: object
    rhs: object
    ratio: float | None
    verdict: str  # "pass" | "fail" | "info" | "ceiling" | "undefined"
    details: dict = field(default_factory=dict)


def stats_record(a: ArithSet, ceiling: int | None = DEFAULT_ELEMENT_CEILING) -> CheckRecord:
    """All headline statistics of one set, exactly."""
    details: dict = {"size": len(a)}
    details["sumset"] = len(sumset(a, a, ceiling))
    details["difference_set"] = len(difference_set(a, a, ceiling))
    details["product_set"] = len(product_set(a, a, ceiling))
    m = Fraction(details["product_set"], len(a))
    details["doubling"] = m
    if not a.contains_zero():
        details["ratio_set"] = len(ratio_set(a, a, ceiling))
        details["quotient_set"] = len(aa_over_a(a, ceiling))
    details["additive_energy"] = additive_energy(a, ceiling)
    details["multiplicative_energy"] = multiplicative_energy(a, ceiling)
    if len(a) > 1:
        details["doubling_exponent"] = math.log(details["product_set"]) / math.log(len(a))
    return CheckRecord(
        claim="stats",
        provenance="energy.additive_energy",
        size_a=len(a),
        size_b=0,
        lhs=details["product_set"],
        rhs=len(a),
        ratio=float(m),
        verdict="info",
        details=details,
    )


def ratio_energy_check(a: ArithSet, ceiling: int | None = DEFAULT_ELEMENT_CEILING) -> CheckRecord:
    """E_+((AA)/A) against the |A|^{5/2} shape (ratio-only)."""
    energy, quotient = ratio_quotient_energy(a, ceiling)
    bound = _hp(lambda ctx: ctx.mpf(len(a)) ** ctx.mpf("2.5"))
    return CheckRecord(
        claim="ratio_energy",
        provenance="energy.ratio_quotient_energy",
        size_a=len(a),
        size_b=len(quotient),
        lhs=energy,
        rhs=bound,
        ratio=energy / bound,
        verdict="info",
        details={"quotient_size": len(quotient)},
    )


def sumset_energy_check(
    b: ArithSet, sign: str = "plus", ceiling: int | None = DEFAULT_ELEMENT_CEILING
) -> CheckRecord:
    """E_x(B +- B) against |B|^6 (ratio-only, with the instance exponent)."""
    x = sumset(b, b, ceiling) if sign == "plus" else difference_set(b, b, ceiling)
    energy = multiplicative_energy(x, ceiling)
    rhs = len(b) ** 6
    details = {"sign": sign, "sumset_size": len(x)}
    if len(b) > 1:
        details["exponent"] = math.log(energy) / math.log(len(b))
    return CheckRecord(
        claim=f"mult_energy_{sign}",
        provenance="energy.multiplicative_energy",
        size_a=len(b),
        size_b=len(x),
        lhs=energy,
        rhs=rhs,
        ratio=energy / rhs,
        verdict="info",
        details=details,
    )


def doubling_energy_check(
    a: ArithSet,
    ratio_threshold: float | None = None,
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
) -> CheckRecord:
    """E_+(A) against M^{14/13} |A|^{32/13} ln^{71/65} |A|.

    The bound is evaluated at high precision for the report; a verdict is
    only assigned when the caller supplies an explicit ratio threshold.
    """
    if len(a) < 2:
        return CheckRecord(
            claim="doubling_energy",
            provenance="energy.additive_energy",
            size_a=len(a),
            size_b=0,
            lhs=1,
            rhs=1.0,
            ratio=1.0,
            verdict="info",
            details={"trivial": True},
        )
    energy = additive_energy(a, ceiling)
    m = multiplicative_doubling(a)

    def bound(ctx):
        n = ctx.mpf(len(a))
        return (
            _mpf(m, ctx) ** (ctx.mpf(14) / 13)
            * n ** (ctx.mpf(32) / 13)
            * ctx.log(n) ** (ctx.mpf(71) / 65)
        )

    rhs = _hp(bound)
    ratio = energy / rhs
    verdict = "info"
    if ratio_threshold is not None:
        verdict = "pass" if ratio <= ratio_threshold else "fail"
    return CheckRecord(
        claim="doubling_energy",
        provenance="energy.additive_energy",
        size_a=len(a),
        size_b=0,
        lhs=energy,
        rhs=rhs,
        ratio=ratio,
        verdict=verdict,
        details={"doubling": m},
    )


def _certificate(a, b, epsilon, tau, ceiling):
    """The popular-ratio certificate of B (default A) against A, with the
    graph, (L, K) profile and extract it was built from."""
    if a.contains_zero():
        raise OutsideDomain("popular ratios need 0 not in the target set")
    if b is None:
        b = a
    graph = build_containment_graph(b, a)
    profile = lk_profile(graph)
    extract = gowers_extract(graph, epsilon)
    if tau is None:
        tau = profile.richness_threshold()
    cert = build_popular_ratios(graph, extract.subset, tau, ceiling)
    return graph, profile, extract, cert


def basis_chain_check(
    a: ArithSet,
    b: ArithSet | None = None,
    epsilon=Fraction(1, 100),
    tau: int | None = None,
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
) -> CheckRecord:
    """The full pipeline from a partial basis to the energy floor.

    Exact links (PASS/FAIL): the Cauchy-Schwarz chain of the popular-ratio
    certificate, and E_+((AA)/A) >= N |A| |R| via the quadruple generator
    with X = A/A, Y = A.  Asymptotic links are reported as ratios only:
    N against e^2/|B|^3, the assembled floor e^10 |A| / |B|^17, and
    (L^10 K^17)^2 against |A|^{2c}.
    """
    graph, profile, extract, cert = _certificate(a, b, epsilon, tau, ceiling)
    b = graph.basis
    x = cert.target_ratios
    if x is None:
        x = ratio_set(a, a, ceiling)
    bound = quadruple_energy_bound(a, x, cert.ratios, ceiling=ceiling)
    n_floor = bound.solutions_floor

    e = graph.edges
    threshold_exact = Fraction(e * e, len(b) ** 3)
    assembled_floor = Fraction(e**10 * len(a), len(b) ** 17)
    chain_sq = Fraction(len(a) ** 3 * len(b) ** 34, e**20)  # (L^10 K^17)^2
    target_sq = _hp(
        lambda ctx: ctx.mpf(len(a)) ** (2 * _mpf(MAX_GAIN, ctx))
    )
    exact_ok = (
        bound.holds
        and cert.cauchy_schwarz_ok
        and cert.conservation_ok
        and cert.within_target_ratios
        and bound.distinct_quadruples == bound.expected_quadruples
    )
    return CheckRecord(
        claim="basis_chain",
        provenance="popdiff.quadruple_energy_bound",
        size_a=len(a),
        size_b=len(b),
        lhs=bound.energy,
        rhs=bound.floor,
        ratio=(bound.energy / bound.floor) if bound.floor else None,
        verdict="pass" if exact_ok else "fail",
        details={
            "edges": e,
            "density": profile.density,
            "l_value": profile.l_value,
            "k_squared": profile.k_squared,
            "extract_success": extract.success,
            "extract_size": len(extract.subset),
            "tau": cert.tau,
            "ratio_count": len(cert.ratios),
            "solution_floor": n_floor,
            "threshold_exact": threshold_exact,
            "assembled_floor": assembled_floor,
            "chain_squared": chain_sq,
            "chain_target_squared": target_sq,
            "cauchy_schwarz_ok": cert.cauchy_schwarz_ok,
        },
    )


def popular_ratio_check(
    a: ArithSet,
    b: ArithSet | None = None,
    tau: int | None = None,
    epsilon=Fraction(1, 100),
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
) -> CheckRecord:
    """Certificate-only check: conservation and Cauchy-Schwarz, exactly."""
    graph, _profile, _extract, cert = _certificate(a, b, epsilon, tau, ceiling)
    total = cert.multiplicity_sum
    ok = cert.conservation_ok and cert.cauchy_schwarz_ok and cert.within_target_ratios
    return CheckRecord(
        claim="popular_ratios",
        provenance="popdiff.build_popular_ratios",
        size_a=len(a),
        size_b=len(graph.basis),
        lhs=total * total,
        rhs=len(cert.ratios) * cert.collision_count,
        ratio=None,
        verdict="pass" if ok else "fail",
        details={
            "tau": cert.tau,
            "ratio_count": len(cert.ratios),
            "collision_count": cert.collision_count,
            "skipped_triples": cert.skipped_triples,
        },
    )


def sextuple_check(a: ArithSet, ceiling: int | None = None) -> CheckRecord:
    """Sextuple-equation count against the line-grouping route, exactly."""
    kwargs = {} if ceiling is None else {"ceiling": ceiling}
    try:
        # The count is cross-checked against collinear_triples inside.
        total, nondeg = sextuple_collinearity_count(a, **kwargs)
    except RouteDisagreement as exc:
        return CheckRecord(
            claim="sextuple_count",
            provenance="incidence.sextuple_collinearity_count",
            size_a=len(a),
            size_b=0,
            lhs=0,
            rhs=0,
            ratio=None,
            verdict="fail",
            details={"error": str(exc)},
        )
    details = {"total": total, "nondegenerate": nondeg}
    if len(a) > 1:
        details["shape_ratio"] = total / (len(a) ** 4 * math.log(len(a)))
    return CheckRecord(
        claim="sextuple_count",
        provenance="incidence.sextuple_collinearity_count",
        size_a=len(a),
        size_b=0,
        lhs=nondeg,
        rhs=nondeg,
        ratio=None,
        verdict="pass",
        details=details,
    )


def grid_triples_check(a: ArithSet, second: ArithSet | None = None) -> CheckRecord:
    """T(C, C, B) against the |B|^{4/3}|C|^{8/3} log^2 shape (ratio-only)."""
    c = second if second is not None else a
    rep = grid_triples_bound_check(c, a)
    return CheckRecord(
        claim="grid_triples",
        provenance="incidence.collinear_triples",
        size_a=len(a),
        size_b=len(c),
        lhs=rep.triples,
        rhs=rep.bound,
        ratio=rep.ratio,
        verdict="info",
        details={"hypothesis_ok": rep.hypothesis_ok},
    )


def shift_bound_check(a: ArithSet) -> CheckRecord:
    """Shift overlap bound over every nonzero difference, exactly.

    |A ∩ (A+α)| = r_{A-A}(α), so one histogram gives every overlap; the
    bound M^{4/3}|A|^{2/3} does not depend on α, so the bound holds for
    every α exactly when it holds for the largest overlap.  The worst α is
    the first of largest overlap in canonical order.
    """
    overlaps = representation_function(a, a, "minus", ceiling=None)
    worst_alpha = None
    checked = 0
    for alpha in difference_set(a, a):
        if not alpha:
            continue
        checked += 1
        if worst_alpha is None or overlaps[alpha] > overlaps[worst_alpha]:
            worst_alpha = alpha
    if worst_alpha is None:
        raise OutsideDomain("no nonzero shift exists (singleton set)")
    worst = shift_bound_report(
        a, worst_alpha, overlaps[worst_alpha], multiplicative_doubling(a)
    )
    return CheckRecord(
        claim="shift_bound",
        provenance="energy.shift_intersection_report",
        size_a=len(a),
        size_b=checked,
        lhs=worst.overlap,
        rhs=worst.bound_ceiling,
        ratio=worst.overlap / worst.bound_float,
        verdict="pass" if worst.holds else "fail",
        details={"worst_alpha": worst.alpha, "doubling": worst.doubling},
    )


def difference_count_check(
    a: ArithSet, b: ArithSet | None = None, gain: Fraction = MAX_GAIN
) -> CheckRecord:
    """sigma_A(B) against |B|^2 |A|^{-c/10} (ratio-only, hypothesis-flagged)."""
    if b is None:
        b = a
    # sigma_A(B) = sum over A of r_{B-B}; the same histogram says whether
    # A lies inside B - B.
    differences = representation_function(b, b, "minus", ceiling=None)
    hypothesis_ok = all(x in differences for x in a)
    value = sum(differences.get(x, 0) for x in a)
    rhs = _hp(
        lambda ctx: ctx.mpf(len(b)) ** 2
        * ctx.mpf(len(a)) ** (-_mpf(gain, ctx) / 10)
    )
    return CheckRecord(
        claim="difference_count",
        provenance="energy.sigma",
        size_a=len(a),
        size_b=len(b),
        lhs=value,
        rhs=rhs,
        ratio=value / rhs,
        verdict="info",
        details={"hypothesis_ok": hypothesis_ok, "gain": gain},
    )


def ratio_set_bounds_check(b: ArithSet, c: ArithSet | None = None) -> CheckRecord:
    """Sizes of the directed ratio sets against their collinearity bounds.

    Exact part: the Cauchy-Schwarz inequality (sum n)^2 <= |X| Q_X where
    n and Q_X are tuple multiplicities/collisions over nondegenerate
    generating tuples.  Ratio part: |X| T(B,B,-C) / (|B|^4 |C|^2) and the
    symmetric quantity for Y.
    """
    if c is None:
        c = b
    # Line hashing guards its pair ceiling up front, so counting the triples
    # first refuses an oversized instance before the B^3 walk.
    t_bbc = collinear_triples(b, b, negate(c))
    t_ccb = t_bbc if c == b else collinear_triples(c, c, negate(b))
    ratios = build_ratio_sets(b, c)
    total_x, q_x = ratios.total_x, ratios.collisions_x
    total_y, q_y = ratios.total_y, ratios.collisions_y
    cs_x = total_x * total_x <= len(ratios.x_set) * q_x if total_x else True
    cs_y = total_y * total_y <= len(ratios.y_set) * q_y if total_y else True
    ratio_x = (
        len(ratios.x_set) * t_bbc / (len(b) ** 4 * len(c) ** 2) if t_bbc else None
    )
    ratio_y = (
        len(ratios.y_set) * t_ccb / (len(c) ** 4 * len(b) ** 2) if t_ccb else None
    )
    return CheckRecord(
        claim="ratio_set_bounds",
        provenance="popdiff.build_ratio_sets",
        size_a=len(b),
        size_b=len(c),
        lhs=total_x * total_x,
        rhs=len(ratios.x_set) * q_x,
        ratio=ratio_x,
        verdict="pass" if (cs_x and cs_y) else "fail",
        details={
            "x_size": len(ratios.x_set),
            "y_size": len(ratios.y_set),
            "triples_bbc": t_bbc,
            "triples_ccb": t_ccb,
            "ratio_y": ratio_y,
        },
    )


def identity_battery(seed: int = 7, trials: int = 10_000) -> CheckRecord:
    """Both ratio identities on seeded random rational tuples, exactly."""
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    passed = 0
    done_shift = 0
    while done_shift < trials:
        b1, b2, b, alt = (draw() for _ in range(4))
        if not b1 + b:
            continue
        done_shift += 1
        if shift_ratio_identity_holds(b1, b2, b, alt):
            passed += 1
    done_product = 0
    while done_product < trials:
        b1, b2, c, alt = (draw() for _ in range(4))
        if not (b2 + c) or not (b2 + alt):
            continue
        done_product += 1
        if ratio_product_identity_holds(b1, b2, c, alt):
            passed += 1
    total = done_shift + done_product
    return CheckRecord(
        claim="identities",
        provenance="popdiff.shift_ratio_identity_holds",
        size_a=0,
        size_b=0,
        lhs=passed,
        rhs=total,
        ratio=None,
        verdict="pass" if passed == total else "fail",
        details={"seed": seed, "trials_each": trials},
    )


def decomposition_check(a: ArithSet) -> CheckRecord:
    """Decomposition verdict with its exact follow-up assertions."""
    rep = decomposition_report(a)
    if rep["reducible"]:
        exact_ok = rep["containment_ok"] and rep.get("shift_bound_ok") is not False
        lhs = min(rep["left_size"], rep["right_size"])
        verdict = "pass" if exact_ok else "fail"
        rhs = rep["cube_root_of_size"]
        ratio = lhs / rhs
    else:
        lhs, rhs, ratio, verdict = 0, 0.0, None, "info"
    return CheckRecord(
        claim="decomposition",
        provenance="solvers.decompose",
        size_a=len(a),
        size_b=0,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        verdict=verdict,
        details=rep,
    )


def exponent_chain_check(gain=MAX_GAIN) -> CheckRecord:
    """Exact rational exponent bookkeeping; boundary reproduces 1/2 + 1/442."""
    ledger = exponent_ledger(gain)
    expected = Fraction(1, 2) + Fraction(gain) / 17
    ok = ledger.basis_exponent == expected
    if ledger.at_boundary:
        ok = ok and ledger.basis_exponent == Fraction(1, 2) + Fraction(1, 442)
    return CheckRecord(
        claim="exponent_chain",
        provenance="verify.exponent_ledger",
        size_a=0,
        size_b=0,
        lhs=str(ledger.basis_exponent),
        rhs=str(expected),
        ratio=None,
        verdict="pass" if ok else "fail",
        details={
            "gain": ledger.gain,
            "at_boundary": ledger.at_boundary,
            "popular_ratio_exponents": ledger.popular_ratio_exponents,
            "chain_exponents": ledger.chain_exponents,
        },
    )


def fit_loglog_slope(sizes, values) -> dict:
    """Least-squares slope of ln(value) against ln(size)."""
    points = [
        (math.log(s), math.log(v))
        for s, v in zip(sizes, values)
        if s > 1 and v > 0
    ]
    if len(points) < 2:
        return {"slope": None, "intercept": None, "max_residual": None}
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0:
        return {"slope": None, "intercept": None, "max_residual": None}
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    max_residual = max(abs(y - (slope * x + intercept)) for x, y in points)
    return {"slope": slope, "intercept": intercept, "max_residual": max_residual}


#: Claims runnable per instance by the report runner.  Each callable takes
#: (instance set, options dict) and returns a CheckRecord.
CLAIMS = {
    "stats": lambda a, o: stats_record(a, o.get("ceiling", DEFAULT_ELEMENT_CEILING)),
    "ratio_energy": lambda a, o: ratio_energy_check(a, o.get("ceiling", DEFAULT_ELEMENT_CEILING)),
    "mult_energy_plus": lambda a, o: sumset_energy_check(a, "plus", o.get("ceiling", DEFAULT_ELEMENT_CEILING)),
    "mult_energy_minus": lambda a, o: sumset_energy_check(a, "minus", o.get("ceiling", DEFAULT_ELEMENT_CEILING)),
    "doubling_energy": lambda a, o: doubling_energy_check(a, o.get("ratio_threshold")),
    "basis_chain": lambda a, o: basis_chain_check(a, o.get("basis"), o.get("epsilon", Fraction(1, 100)), o.get("tau")),
    "popular_ratios": lambda a, o: popular_ratio_check(a, o.get("basis"), o.get("tau"), o.get("epsilon", Fraction(1, 100))),
    "sextuple_count": lambda a, o: sextuple_check(a, o.get("brute_ceiling")),
    "grid_triples": lambda a, o: grid_triples_check(a, o.get("second")),
    "shift_bound": lambda a, o: shift_bound_check(a),
    "difference_count": lambda a, o: difference_count_check(a, o.get("basis"), o.get("gain", MAX_GAIN)),
    "ratio_set_bounds": lambda a, o: ratio_set_bounds_check(a, o.get("second")),
    "identities": lambda a, o: identity_battery(o.get("seed", 7), o.get("trials", 10_000)),
    "decomposition": lambda a, o: decomposition_check(a),
    "exponent_chain": lambda a, o: exponent_chain_check(o.get("gain", MAX_GAIN)),
}

#: Claims whose record does not depend on the instance; the report runner
#: evaluates each of them once per suite and reuses the record.
INSTANCE_FREE = frozenset({"identities", "exponent_chain"})

#: Families of claims with a meaningful log-log slope, and the slope
#: threshold used in summaries (claimed exponent + slack).
SLOPE_TARGETS = {
    "ratio_energy": 2.5 + SLOPE_SLACK,
    "mult_energy_plus": 6.0 + SLOPE_SLACK,
    "mult_energy_minus": 6.0 + SLOPE_SLACK,
    "grid_triples": 4.0 + SLOPE_SLACK,
    "doubling_energy": 32.0 / 13.0 + 14.0 / 13.0 + SLOPE_SLACK,
}


def _unanswered(
    claim: str, a: ArithSet | None, verdict: str, exc, lhs=None, rhs=None
) -> CheckRecord:
    """A record that carries no exact answer; its anchor names the verdict."""
    return CheckRecord(
        claim=claim,
        provenance=verdict,
        size_a=len(a) if a is not None else 0,
        size_b=0,
        lhs=lhs,
        rhs=rhs,
        ratio=None,
        verdict=verdict,
        details={"error": str(exc)},
    )


def run_claim(claim: str, a: ArithSet | None, options: dict | None = None) -> CheckRecord:
    """Run one claim, converting capacity aborts into 'ceiling' records and
    an instance outside the claim's domain (an edgeless containment graph,
    0 in A for the ratio claims, a prime-field decomposition, a singleton
    where a claim needs two elements) into an 'undefined' record."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known: {sorted(CLAIMS)}")
    options = options or {}
    try:
        return CLAIMS[claim](a, options)
    except CeilingExceeded as exc:
        return _unanswered(claim, a, "ceiling", exc, exc.requested, exc.ceiling)
    except OutsideDomain as exc:
        return _unanswered(claim, a, "undefined", exc)
