"""Claim records, the exponent ledger, slope fits, and report output."""

import decimal
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from sumprodlab import incidence, popdiff, sets, verify
from sumprodlab.field import ModeMismatchError
from sumprodlab.sets import ArithSet
from sumprodlab.families import FamilySpec, generate, parse_family
from sumprodlab.report import (
    exit_code,
    jsonable,
    rows_to_csv,
    run_suite,
    write_report,
)
from sumprodlab.verify import (
    CLAIMS,
    basis_chain_check,
    difference_count_check,
    doubling_energy_check,
    exponent_chain_check,
    exponent_ledger,
    fit_loglog_slope,
    identity_battery,
    popular_ratio_check,
    ratio_energy_check,
    ratio_set_bounds_check,
    run_claim,
    sextuple_check,
    shift_bound_check,
    stats_record,
    sumset_energy_check,
)


def fset(*xs):
    return ArithSet(xs)


def gp(n, q=2):
    return ArithSet([Fraction(q) ** i for i in range(n)])


def test_exponent_ledger_boundary():
    ledger = exponent_ledger(Fraction(1, 26))
    assert ledger.basis_exponent == Fraction(1, 2) + Fraction(1, 442)
    assert ledger.at_boundary
    assert ledger.popular_ratio_exponents == (8, 14)
    assert ledger.chain_exponents == (10, 17)


def test_exponent_ledger_interior_values():
    assert exponent_ledger(Fraction(13, 442)).basis_exponent == Fraction(1, 2) + Fraction(1, 578)
    small = exponent_ledger(Fraction(1, 1000))
    assert small.basis_exponent == Fraction(1, 2) + Fraction(1, 17000)
    for bad in (0, Fraction(1, 25), -1):
        with pytest.raises(ValueError):
            exponent_ledger(bad)


def test_exponent_chain_check_passes():
    rec = exponent_chain_check()
    assert rec.verdict == "pass"
    assert rec.lhs == "111/221"  # 1/2 + 1/442 in lowest terms


def test_stats_record_worked():
    rec = stats_record(fset(1, 2, 4))
    d = rec.details
    assert d["sumset"] == 6
    assert d["product_set"] == 5
    assert d["doubling"] == Fraction(5, 3)
    assert d["additive_energy"] == 15
    assert d["multiplicative_energy"] == 19
    assert d["quotient_set"] == 7
    single = stats_record(fset(9))
    assert single.details["additive_energy"] == 1


def test_ratio_energy_check_gp_closed_form():
    rec = ratio_energy_check(gp(8))
    m = 3 * 8 - 2  # quotient set of a ratio-2 progression
    assert rec.size_b == m
    assert rec.lhs == 2 * m * m - m
    assert rec.verdict == "info"


def test_sumset_energy_check():
    rec = sumset_energy_check(fset(0, 1), "plus")
    assert rec.lhs == 31  # E_x({0,1,2}): five zero products alone give 25 quadruples
    assert rec.rhs == 64
    rec = sumset_energy_check(ArithSet(range(8)), "minus")
    assert rec.details["sumset_size"] == 15


def test_doubling_energy_check():
    rec = doubling_energy_check(gp(16))
    assert rec.lhs == 2 * 256 - 16
    assert rec.details["doubling"] == Fraction(31, 16)
    assert rec.verdict == "info"


#: The four columns evaluated in decimal, read under mpmath at 113 bits:
#: the rhs of ratio_energy, doubling_energy and difference_count, and
#: basis_chain's chain_target_squared, wherever the claim is defined.
PINNED_BOUNDS = {
    "gp:q=2,n=12": {
        "ratio_energy": "498.8306325798367",
        "doubling_energy": "2469.035455757863",
        "difference_count": "142.63029977609168",
        "basis_chain": "1.2106369975822304",
    },
    "random:n=20,seed=3": {
        "doubling_energy": "66491.41669728993",
        "difference_count": "395.4176309491059",
    },
    "subgroup:p=1009,d=28": {
        "ratio_energy": "4148.538055749278",
        "doubling_energy": "13589.984270179333",
        "difference_count": "774.0162352596705",
    },
}


@pytest.mark.parametrize("spec", sorted(PINNED_BOUNDS))
def test_report_only_bounds_are_pinned(spec):
    a = generate(parse_family(spec))

    def columns():
        out = {}
        for claim in PINNED_BOUNDS[spec]:
            rec = run_claim(claim, a)
            value = rec.details["chain_target_squared"] if claim == "basis_chain" else rec.rhs
            out[claim] = repr(value)
        return out

    assert columns() == PINNED_BOUNDS[spec]
    # The bounds use their own context: the caller's precision and traps
    # do not reach them.
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.Inexact] = True
        assert columns() == PINNED_BOUNDS[spec]


def _old_forms(m, n):
    """The three report-only powers in their ``**`` forms."""
    with decimal.localcontext(verify._HP):
        gain = verify._dec(verify.MAX_GAIN)
        return (
            float(Decimal(n) ** Decimal("2.5")),
            float(Decimal(m) ** 2 * Decimal(n) ** (-gain / 10)),
            float(Decimal(n) ** (2 * gain)),
        )


def _new_forms(m, n):
    """The same powers as the claims evaluate them."""
    gain = verify.MAX_GAIN
    return (
        verify._five_halves(n),
        verify._hp(lambda: m * m * verify._power(n, -verify._dec(gain) / 10)),
        verify._hp(lambda: verify._power(n, 2 * verify._dec(gain))),
    )


def test_report_only_powers_keep_the_floats_of_the_power_operator():
    """n²·√n and exp(e·ln n) round to the floats of n ** 2.5 and n ** e,
    for every n <= 5,000 and a seeded sample up to 200,000."""
    rng = random.Random(32)
    sizes = [(n, n) for n in range(1, 5001)]
    sizes += [(rng.randrange(1, 200_001), rng.randrange(1, 200_001)) for _ in range(300)]
    for m, n in sizes:
        assert _new_forms(m, n) == _old_forms(m, n), (m, n)
    a = generate(parse_family("subgroup:p=1009,d=28"))
    old = _old_forms(28, 28)
    assert (ratio_energy_check(a).rhs, difference_count_check(a).rhs) == old[:2]


def test_mult_energy_plus_refuses_before_building_the_sumset(monkeypatch):
    """|H + H| = 5,838 on the order-139 coset of F_10009 is read from the
    orbit counts, and refused at the energy's ceiling before H + H is built."""
    monkeypatch.setattr(sets, "_rotated", _no_walk)
    monkeypatch.setattr(sets.PairCounts, "table", _no_walk)
    rec = run_claim("mult_energy_plus", generate(parse_family("subgroup:p=10009,d=139")))
    assert (rec.verdict, rec.lhs, rec.rhs) == ("ceiling", 5838**2, 2_000_000)
    want = f"representation function: would need {5838**2} items, ceiling is 2000000"
    assert rec.details["error"] == want


def test_import_loads_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import sumprodlab; "
        "print(*{m.partition('.')[0] for m in set(sys.modules) - before})"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "sumprodlab" in loaded
    assert loaded - {"sumprodlab"} <= sys.stdlib_module_names


def test_doubling_energy_is_info_over_a_prime_field():
    # The bound is proved over the reals: an F_p row is reported, not judged.
    a = generate(parse_family("subgroup:p=31,d=6"))
    assert doubling_energy_check(a).verdict == "info"
    assert run_claim("doubling_energy", a).verdict == "info"


def test_basis_chain_micro():
    rec = basis_chain_check(fset(1, 2, 3), fset(0, 1, 2))
    assert rec.verdict == "pass"
    assert rec.details["ratio_count"] == 4
    assert rec.details["cauchy_schwarz_ok"]
    assert rec.lhs >= rec.rhs  # energy above the generated floor


def test_basis_chain_default_basis_gp():
    rec = basis_chain_check(gp(8))
    assert rec.verdict == "pass"


def test_popular_ratio_check_micro():
    rec = popular_ratio_check(fset(1, 2, 3), fset(0, 1, 2), tau=2)
    assert rec.verdict == "pass"
    assert rec.lhs <= rec.rhs  # (sum n)^2 <= |R| Q


def test_sextuple_check():
    rec = sextuple_check(fset(0, 1, 2))
    assert rec.verdict == "pass"
    assert rec.lhs == rec.rhs == 48


def test_sextuple_ceiling_is_not_a_failure():
    # |A|^6 above the brute ceiling must read as a ceiling, never as 'fail'.
    rec = run_claim("sextuple_count", gp(14))
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (14**6, incidence.DEFAULT_BRUTE_CEILING)


def test_sextuple_route_disagreement_fails(monkeypatch):
    monkeypatch.setattr(incidence, "collinear_triples", lambda *sets_: -1)
    rec = run_claim("sextuple_count", fset(0, 1, 2))
    assert rec.verdict == "fail"
    assert "route disagreement" in rec.details["error"]


def test_shift_bound_check_gp():
    rec = shift_bound_check(gp(8))
    assert rec.verdict == "pass"
    assert rec.size_b == len(gp(8)) ** 2 - len(gp(8))  # nonzero differences checked


def test_shift_bound_check_worst_shift_is_first_largest_overlap():
    # Overlaps of {0,1,2,4}: r(+-1) = r(+-2) = 2 is the maximum, and the
    # first of them in canonical order, -2, wins the tie.
    a = fset(0, 1, 2, 4)
    rec = shift_bound_check(a)
    assert rec.lhs == 2
    assert rec.details["worst_alpha"] == -2
    assert rec.size_b == len(sets.difference_set(a, a)) - 1


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_shift_bound_check_builds_the_product_set_once(monkeypatch):
    calls = _counting(monkeypatch, sets, "product_set")
    rec = shift_bound_check(gp(12))
    assert rec.verdict == "pass"
    assert len(calls) == 1


def _builds(monkeypatch, op, a):
    """Record each pair-kernel pass that materializes ``a op a``."""
    builds = _counting(monkeypatch, sets, "_materialize")
    return lambda: sum(1 for s, t, o, _same in builds if o == op and s == t == a)


def test_stats_doubling_energy_and_shift_bound_build_the_product_set_once(monkeypatch):
    # |A*A| in stats, (A*A)/A, and the doubling M of the two other claims
    # all read the A*A that the set keeps.
    a = gp(8)
    products = _builds(monkeypatch, "times", a)
    rec = stats_record(a)
    assert rec.details["doubling"] == Fraction(15, 8)
    assert doubling_energy_check(a).details["doubling"] == Fraction(15, 8)
    assert shift_bound_check(a).details["doubling"] == Fraction(15, 8)
    assert products() == 1


def test_difference_count_check():
    rec = difference_count_check(fset(1), fset(0, 1, 2))
    assert rec.lhs == 2
    assert rec.details["hypothesis_ok"]
    rec = difference_count_check(gp(4), gp(4))
    assert not rec.details["hypothesis_ok"]  # top element is not a difference


def test_difference_count_pins_on_the_bitset_route():
    """sigma_A(B) and A ⊆ B − B on the sets of ``sumprodlab gen`` (a random
    set is read mod p as ``--field fp:p`` does), as the pair walk read them."""
    r400 = ArithSet(generate(parse_family("random:n=400,seed=5")).elements, p=10009)
    coset = generate(parse_family("subgroup:p=10009,d=278"))
    r60 = ArithSet(generate(parse_family("random:n=60,seed=3")).elements, p=1009)
    for a, b, lhs, covered in [
        (r400, r400, 6206, True),
        (r400, coset, 2897, False),
        (coset, r400, 4498, True),
        (r60, r60, 236, False),
    ]:
        assert sets._bitset_route(len(b), len(b), b.p)
        rec = run_claim("difference_count", a, {"basis": b})
        assert (rec.lhs, rec.details["hypothesis_ok"]) == (lhs, covered)


def test_ratio_set_bounds_check():
    rec = ratio_set_bounds_check(fset(0, 1), fset(2, 3))
    assert rec.verdict == "pass"
    assert rec.details["x_size"] == 4


def test_ratio_set_bounds_with_c_equal_b_walks_once(monkeypatch):
    triples = _counting(monkeypatch, verify, "collinear_triples")
    walks = _counting(monkeypatch, popdiff, "_directed_ratios")
    rec = ratio_set_bounds_check(gp(6))
    assert rec.verdict == "pass"
    assert rec.details["triples_bbc"] == rec.details["triples_ccb"]
    assert len(triples) == 1
    assert len(walks) == 1


def test_ratio_set_bounds_ceiling_before_the_cube_walk(monkeypatch):
    walks = _counting(monkeypatch, popdiff, "_directed_ratios")
    a = generate(parse_family("subgroup:p=10009,d=139"))
    start = time.perf_counter()
    rec = run_claim("ratio_set_bounds", a)
    assert time.perf_counter() - start < 10.0
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (746_582_761, 100_000_000)
    assert walks == []


def test_basis_chain_ceiling_before_the_solution_counts(monkeypatch):
    solutions = _counting(monkeypatch, popdiff, "_solution_pairs")
    a = generate(parse_family("random:n=40,lo=1,hi=200,seed=3"))
    rec = run_claim("basis_chain", a)
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (779_917_329, 2_000_000)
    assert solutions == []


@pytest.mark.parametrize("claim", ["popular_ratios", "basis_chain"])
def test_edgeless_containment_graph_is_undefined(claim):
    # The subgroup H of order 139 in F_10009*: no two elements of H sum into H.
    a = generate(parse_family("subgroup:p=10009,d=139"))
    rec = run_claim(claim, a)
    assert rec.verdict == "undefined"
    assert rec.size_a == 139
    assert "(L, K) profile is undefined" in rec.details["error"]


def _refuse(*args, **kwargs):
    raise AssertionError("ran past the collision-count ceiling")


@pytest.mark.parametrize("claim", ["popular_ratios", "basis_chain"])
def test_popular_ratio_ceiling_before_the_extract(monkeypatch, claim):
    # |B|^3 = 130^3 is over the 2,000,000 ceiling, which is known before
    # the extract and the rich-pair loop run.
    monkeypatch.setattr(verify, "gowers_extract", _refuse)
    rec = run_claim(claim, generate(parse_family("ap:a=1,d=1,n=130")))
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (130**3, sets.DEFAULT_ELEMENT_CEILING)


def test_build_popular_ratios_ceiling_before_the_rich_pairs(monkeypatch):
    monkeypatch.setattr(popdiff, "rich_pairs", _refuse)
    a = generate(parse_family("ap:a=1,d=1,n=130"))
    graph = verify.build_containment_graph(a, a)
    with pytest.raises(verify.CeilingExceeded) as info:
        popdiff.build_popular_ratios(graph, tau=1)
    refused = (info.value.requested, info.value.ceiling)
    assert refused == (130**3, sets.DEFAULT_ELEMENT_CEILING)


def test_identity_battery_passes_every_trial():
    rec = identity_battery(seed=5)
    assert rec.verdict == "pass"
    assert rec.lhs == rec.rhs == 2 * verify.TRIALS == 20_000
    assert rec.details["trials_each"] == 10_000


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_identity_battery_matches_the_element_route(monkeypatch, seed):
    made = []

    class Recording(random.Random):
        def __init__(self, s):
            super().__init__(s)
            made.append(self)

    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=Recording))
    rec = identity_battery(seed=seed)

    # The same draws as Fraction elements, through the element-level checks.
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    passed = done = 0
    for holds, vanishes in (
        (popdiff.shift_ratio_identity_holds, lambda b1, b2, b, alt: not b1 + b),
        (
            popdiff.ratio_product_identity_holds,
            lambda b1, b2, c, alt: not (b2 + c) or not (b2 + alt),
        ),
    ):
        count = 0
        while count < verify.TRIALS:
            t = [draw() for _ in range(4)]
            if vanishes(*t):
                continue
            count += 1
            passed += holds(*t)
        done += count
    assert (rec.lhs, rec.rhs) == (passed, done) == (20_000, 20_000)
    assert len(made) == 1
    assert made[0].getstate() == rng.getstate()


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_identity_battery_draws_are_the_randint_draws(seed):
    rng = random.Random(seed)
    want = [(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(2000)]
    assert list(islice(verify._draws(seed), 2000)) == want


def test_run_claim_unknown_and_ceiling():
    with pytest.raises(ValueError):
        run_claim("nonsense", fset(1))
    # |A*A| = 11,067 for A = {1..199}, so (A*A)/A asks for 11,067 * 199 quotients.
    rec = run_claim("ratio_energy", ArithSet(range(1, 200)))
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (2_202_333, 2_000_000)


def _no_walk(*args, **kwargs):
    raise AssertionError("a pair or point was walked before the ceiling was checked")


#: The first refusal of each claim on a 1,500-element progression: its pairs
#: (1500^2), the pairs of its 1500^2 grid points, or its A^6 sextuples.
AP_CEILINGS = {
    "stats": (2_250_000, 2_000_000),
    "ratio_energy": (2_250_000, 2_000_000),
    "mult_energy_plus": (2_250_000, 2_000_000),
    "mult_energy_minus": (2_250_000, 2_000_000),
    "grid_triples": (2_531_248_875_000, 100_000_000),
    "sextuple_count": (1500**6, 5_000_000),
}


@pytest.mark.parametrize("claim", sorted(AP_CEILINGS))
@pytest.mark.parametrize("p", [None, 10009])
def test_claims_refuse_a_1500_progression_before_any_walk(monkeypatch, claim, p):
    monkeypatch.setattr(sets, "_pair_rows", _no_walk)
    monkeypatch.setattr(sets, "_packed_counts", _no_walk)
    monkeypatch.setattr(incidence, "_slope_table", _no_walk)
    monkeypatch.setattr(incidence, "collinear_triples_brute", _no_walk)
    rec = run_claim(claim, ArithSet(range(1, 1501), p=p))
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == AP_CEILINGS[claim]


@pytest.mark.parametrize("basis", [ArithSet(range(1, 7)), ArithSet(range(1, 7), p=37)])
def test_difference_count_refuses_a_basis_from_another_field(basis):
    a = generate(parse_family("subgroup:p=31,d=5"))
    with pytest.raises(ModeMismatchError):
        run_claim("difference_count", a, {"basis": basis})


def test_fit_loglog_slope_recovers_power():
    sizes = [8, 16, 32, 64]
    values = [3 * n**2 for n in sizes]
    fit = fit_loglog_slope(sizes, values)
    assert abs(fit["slope"] - 2.0) < 1e-9
    assert fit["max_residual"] < 1e-9


def test_all_claims_have_runners():
    a = fset(1, 2, 3)
    for claim in CLAIMS:
        rec = run_claim(claim, a)
        assert rec.verdict in ("pass", "fail", "info", "ceiling"), claim


def test_run_suite_and_writers(tmp_path):
    specs = [FamilySpec("gp", {"q": "2", "n": str(n)}) for n in (8, 16)]
    rows, summary = run_suite(specs, ["stats", "ratio_energy"])
    assert len(rows) == 4
    assert summary["verdicts"]["info"] == 4
    assert "gp" in summary["slopes"]["ratio_energy"]
    csv_text = rows_to_csv(rows)
    header = csv_text.splitlines()[0]
    assert header == "claim_id,anchor,card_a,card_b,lhs,rhs,ratio,verdict,millis"
    csv_path, json_path = write_report(rows, summary, tmp_path)
    payload = json.loads(json_path.read_text())
    assert payload["summary"]["rows"] == 4
    assert exit_code(rows) == 0


def test_run_suite_judges_slopes_against_thresholds_only_over_q():
    # The claimed exponents hold over the reals; an F_p family gets its
    # slope and no verdict on it.
    specs = [parse_family(f"subgroup:p=31,d={d}") for d in (5, 6, 10)]
    specs += [parse_family(f"gp:q=2,n={n}") for n in (6, 8)]
    _rows, summary = run_suite(specs, ["ratio_energy"])
    over_fp = summary["slopes"]["ratio_energy"]["subgroup"]
    assert over_fp["slope"] is not None
    assert "threshold" not in over_fp and "within_threshold" not in over_fp
    over_q = summary["slopes"]["ratio_energy"]["gp"]
    assert over_q["threshold"] == verify.SLOPE_TARGETS["ratio_energy"]
    assert over_q["within_threshold"] == (over_q["slope"] <= over_q["threshold"])


def test_run_suite_runs_instance_free_claims_once(monkeypatch):
    calls = _counting(monkeypatch, verify, "identity_battery")
    specs = [FamilySpec("gp", {"q": "2", "n": str(n)}) for n in (4, 5, 6)]
    rows, _summary = run_suite(specs, ["identities", "exponent_chain"])
    assert len(calls) == 1
    identities = [r for r in rows if r["claim_id"] == "identities"]
    assert sorted(r["instance"] for r in identities) == sorted(s.label() for s in specs)
    assert {(r["lhs"], r["rhs"], r["verdict"]) for r in identities} == {(20_000, 20_000, "pass")}


def test_run_suite_keeps_going_past_an_undefined_row(tmp_path):
    specs = [parse_family("subgroup:p=10009,d=139"), parse_family("gp:q=2,n=8")]
    claims = ["popular_ratios", "basis_chain", "stats"]
    rows, summary = run_suite(specs, claims)
    assert len(rows) == 6
    assert summary["verdicts"] == {"info": 2, "pass": 2, "undefined": 2}
    assert exit_code(rows) == 0
    csv_path, _json_path = write_report(rows, summary, tmp_path)
    assert len(csv_path.read_text().splitlines()) == 7


def test_run_suite_writes_every_row_outside_a_claims_domain(tmp_path):
    # 0 is in the progression; the subgroup lives in F_13, where no two of its
    # elements sum into it and the real-number shift bound is not judged.
    ap, subgroup = parse_family("ap:d=3,n=9"), parse_family("subgroup:p=13,d=4")
    rows, summary = run_suite([ap, subgroup], sorted(CLAIMS))
    assert len(rows) == 2 * len(CLAIMS)
    undefined = {(r["instance"], r["claim_id"]) for r in rows if r["verdict"] == "undefined"}
    assert undefined == {
        (ap.label(), "ratio_energy"),
        (ap.label(), "popular_ratios"),
        (ap.label(), "basis_chain"),
        (subgroup.label(), "popular_ratios"),
        (subgroup.label(), "basis_chain"),
        (subgroup.label(), "decomposition"),
        (subgroup.label(), "shift_bound"),
    }
    csv_path, _json_path = write_report(rows, summary, tmp_path)
    assert len(csv_path.read_text().splitlines()) == len(rows) + 1


def test_singleton_rows_needing_two_elements_are_undefined():
    # {1}: 1 + 1 is not in it either, so its containment graph has no edge.
    rows, _summary = run_suite([parse_family("ap:a=1,d=1,n=1")], sorted(CLAIMS))
    assert len(rows) == len(CLAIMS)
    undefined = {r["claim_id"] for r in rows if r["verdict"] == "undefined"}
    assert undefined == {
        "decomposition",
        "ratio_set_bounds",
        "shift_bound",
        "popular_ratios",
        "basis_chain",
    }


def test_jsonable_fractions_and_sets():
    assert jsonable(Fraction(3, 7)) == "3/7"
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable(fset(1, Fraction(1, 2))) == ["1/2", 1]
    assert jsonable({Fraction(1, 2): [fset(3)]}) == {"1/2": [[3]]}


def test_basis_chain_builds_the_ratio_set_once(monkeypatch):
    # The certificate builds A/A once; a second certificate on the same set
    # and the X of the quadruple floor read it from A.
    a = generate(parse_family("sumset_of_random:n=4,lo=1,hi=40,seed=5"))
    ratios = _builds(monkeypatch, "divide", a)
    assert run_claim("popular_ratios", a).verdict == "pass"
    assert run_claim("basis_chain", a).verdict == "pass"
    assert ratios() == 1
