"""Acceptance gate: fourteen criteria, one test and one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.  Everything asserted here
is exact unless a tolerance is stated inline.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from sumprodlab.sets import ArithSet, ratio_set
from sumprodlab.energy import (
    additive_energy,
    energy_quadruples,
    multiplicative_energy,
    shift_intersection_report,
)
from sumprodlab.graph import build_containment_graph, difference_solution_report
from sumprodlab.incidence import (
    collinear_triples,
    collinear_triples_brute,
    dyadic_table,
    sextuple_collinearity_count,
)
from sumprodlab.popdiff import (
    build_popular_ratios,
    one_minus_x_solutions,
    quadruple_energy_bound,
    ratio_product_identity_holds,
    shift_ratio_identity_holds,
)
from sumprodlab.solvers import decompose, min_basis
from sumprodlab.families import FamilySpec
from sumprodlab.report import run_suite, write_report
from sumprodlab.verify import exponent_ledger, fit_loglog_slope


def _verdict(criterion: str, ok: bool) -> None:
    print(f"ACCEPT {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def gp(n: int) -> ArithSet:
    return ArithSet([2**i for i in range(n)])


def test_a01_energy_oracle_equivalence():
    """Hashed energies equal quadruple enumeration on 50 seeded sets, < 5 s."""
    rng = random.Random(11)
    start = time.monotonic()
    ok = True
    for _ in range(50):
        n = rng.randint(1, 12)
        s = ArithSet(rng.sample(range(-60, 60), n))
        ok = ok and additive_energy(s) == energy_quadruples(s, "plus")
        ok = ok and multiplicative_energy(s) == energy_quadruples(s, "times")
    elapsed = time.monotonic() - start
    _verdict("01 energy oracle equivalence (50 sets, <5s)", ok and elapsed < 5.0)


def test_a02_collinear_triple_oracle():
    """Line grouping equals brute force on 30 seeded instances; pinned values."""
    rng = random.Random(20260810)
    ok = True
    for _ in range(30):
        sets = []
        for _ in range(3):
            n = rng.randint(2, 8)
            if rng.random() < 0.3:
                pool = {Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3 * n)}
            else:
                pool = {rng.randint(-20, 20) for _ in range(3 * n)}
            sets.append(ArithSet(sorted(pool)[:n]))
        ok = ok and collinear_triples(*sets) == collinear_triples_brute(*sets)
    s3, s2 = ArithSet([0, 1, 2]), ArithSet([0, 1])
    ok = ok and collinear_triples(s3, s3, s3) == 48
    ok = ok and collinear_triples(s2, s2, s2) == 0
    _verdict("02 collinear-triple oracle (30 instances + pinned 48/0)", ok)


def test_a03_sextuple_equation_consistency():
    """Nondegenerate sextuple count equals the collinearity count, |A| <= 8."""
    rng = random.Random(7)
    ok = True
    instances = [ArithSet([1]), ArithSet([1, 2]), ArithSet([0, 1, 2])]
    for _ in range(12):
        n = rng.randint(1, 8)
        instances.append(ArithSet(rng.sample(range(-30, 31), n)))
    for a in instances:
        _total, nondeg = sextuple_collinearity_count(a)
        ok = ok and nondeg == collinear_triples(a, a, a)
    _verdict("03 sextuple-equation vs collinearity consistency", ok)


def test_a04_dyadic_table_fidelity():
    """Exact per-line expansion reproduces T(C,C,B) for progressions n <= 12."""
    ok = True
    for n in range(2, 13):
        c = ArithSet(range(n))
        table = dyadic_table(c, c)
        ok = ok and table.triple_count() == collinear_triples(c, c, c)
        ok = ok and table.pair_identity_ok()
    census = dyadic_table(ArithSet([0, 1, 2]), ArithSet([0, 1, 2])).richness_census()
    ok = ok and census == {(3, 3): 8, (2, 2): 12}
    _verdict("04 dyadic table fidelity (n<=12) + 3x3 census", ok)


def test_a05_difference_representation_injection():
    """Every ordered pair has at least common-neighborhood many solutions."""
    rng = random.Random(99)
    ok = True
    for _ in range(40):
        nb, na = rng.randint(2, 12), rng.randint(2, 20)
        b = ArithSet(rng.sample(range(0, 40), nb))
        a = ArithSet(rng.sample(range(1, 60), na))
        graph = build_containment_graph(b, a)
        ok = ok and difference_solution_report(graph, b, 1).injection_ok
    _verdict("05 difference-representation injection (zero violations)", ok)


def _seeded_chain_instances(rng, count):
    made = []
    while len(made) < count:
        b = ArithSet(rng.sample(range(0, 25), rng.randint(2, 8)))
        base = set(rng.sample(range(1, 40), rng.randint(2, 10)))
        base.update(s for s in rng.sample([x + y for x in b for y in b], 3) if s != 0)
        a = ArithSet(base)
        if a.contains_zero():
            continue
        graph = build_containment_graph(b, a)
        if graph.edges == 0:
            continue
        made.append((graph, b, rng.randint(1, 3)))
    return made


def test_a06_popular_ratio_chain():
    """Conservation and Cauchy-Schwarz hold exactly on 100 seeded instances."""
    rng = random.Random(123)
    ok = True
    for graph, b, tau in _seeded_chain_instances(rng, 100):
        cert = build_popular_ratios(graph, b, tau)
        ok = ok and cert.conservation_ok
        ok = ok and cert.multiplicity_sum**2 <= len(cert.ratios) * cert.collision_count
        ok = ok and cert.within_target_ratios
    micro = build_containment_graph(ArithSet([0, 1, 2]), ArithSet([1, 2, 3]))
    cert = build_popular_ratios(micro, ArithSet([0, 1, 2]), 2)
    expected = ArithSet([2, Fraction(3, 2), Fraction(1, 2), Fraction(2, 3)])
    ok = ok and cert.ratios == expected and cert.within_target_ratios
    _verdict("06 popular-ratio chain (100 instances + micro R)", ok)


def test_a07_quadruple_generator_floor():
    """Generated quadruples distinct; E_+(YX) >= N|Y||R| wherever defined."""
    ok = True

    def check(a, graph_basis, tau):
        nonlocal ok
        graph = build_containment_graph(graph_basis, a)
        cert = build_popular_ratios(graph, graph_basis, tau)
        x = ratio_set(a, a)
        n = min((one_minus_x_solutions(v, x) for v in cert.ratios), default=0)
        rep = quadruple_energy_bound(a, x, cert.ratios, n)
        ok = ok and not rep.precondition_errors
        ok = ok and rep.holds
        ok = ok and rep.distinct_quadruples == rep.expected_quadruples

    for n in (2, 4, 8, 16):
        check(gp(n), gp(n), 1)
    check(ArithSet([1, 2, 3]), ArithSet([0, 1, 2]), 2)
    rng = random.Random(314)
    done = 0
    while done < 50:
        a = ArithSet(rng.sample(range(1, 60), rng.randint(3, 6)))
        check(a, a, 1)
        done += 1
    _verdict("07 quadruple-generator floor (GP n<=16 + 50 random)", ok)


def test_a08_identity_batteries():
    """Both ratio identities on 10^4 seeded valid tuples each, exactly."""
    rng = random.Random(2718)

    def draw():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    ok = True
    done = 0
    while done < 10_000:
        b1, b2, b, alt = (draw() for _ in range(4))
        if not b1 + b:
            continue
        ok = ok and shift_ratio_identity_holds(b1, b2, b, alt)
        done += 1
    done = 0
    while done < 10_000:
        b1, b2, c, alt = (draw() for _ in range(4))
        if not (b2 + c) or not (b2 + alt):
            continue
        ok = ok and ratio_product_identity_holds(b1, b2, c, alt)
        done += 1
    _verdict("08 ratio identities (10^4 tuples each)", ok)


def _oracle_masks(universe, max_size):
    rows = [[]]
    for size in range(1, max_size + 1):
        row = []
        for comb in combinations(universe, size):
            mask = 0
            for i in range(len(comb)):
                for j in range(i, len(comb)):
                    mask |= 1 << (comb[i] + comb[j])
            row.append(mask)
        rows.append(row)
    return rows


def _oracle_reducible(vals):
    amask = 0
    for v in vals:
        amask |= 1 << v
    span = max(vals) - min(vals)
    for bmask in range(1, 1 << (span + 1), 2):
        if bin(bmask).count("1") < 2:
            continue
        cstar = [c for c in vals if (bmask << c) & ~amask == 0]
        if len(cstar) < 2:
            continue
        covered = 0
        for c in cstar:
            covered |= bmask << c
        if covered == amask:
            return True
    return False


def test_a09_solver_optimality_batteries():
    """min_basis matches exhaustive search for all A in {0..12}, |A| <= 8;
    decompose matches pair enumeration for all A in {0..10}; pinned outputs."""
    universe_vals = list(range(13))
    masks = _oracle_masks(universe_vals, 8)
    universe = ArithSet(universe_vals)

    def oracle_min(amask):
        for size in range(1, 9):
            for mask in masks[size]:
                if amask & ~mask == 0:
                    return size
        return None

    ok = True
    for size in range(1, 9):
        for comb in combinations(universe_vals, size):
            amask = 0
            for v in comb:
                amask |= 1 << v
            got = min_basis(ArithSet(comb), universe=universe).size
            if got != oracle_min(amask):
                ok = False
    for size in range(2, 12):
        for comb in combinations(range(11), size):
            if decompose(ArithSet(comb)).reducible != _oracle_reducible(comb):
                ok = False
    ok = ok and not decompose(ArithSet([0, 1, 3])).reducible
    witness = decompose(ArithSet([0, 1, 2, 3]))
    ok = ok and witness.reducible
    ok = ok and witness.left == ArithSet([0, 1]) and witness.right == ArithSet([0, 2])
    _verdict("09 solver optimality + decomposition completeness", ok)


def test_a10_gp_irreducibility_desk_scale():
    """Complete search calls ratio-2 progressions irreducible, < 60 s each."""
    ok = True
    for n in (8, 12, 16):
        start = time.monotonic()
        ok = ok and not decompose(gp(n)).reducible
        ok = ok and (time.monotonic() - start) < 60.0
    _verdict("10 progression irreducibility (n=8,12,16, <60s each)", ok)


def test_a11_quotient_energy_family_slope():
    """Fitted slope of log E_+((AA)/A) vs log |A| <= 2.5 on gp(2, n);
    least-squares residual <= 0.1; closed form cross-checked at n = 8."""
    from sumprodlab.energy import ratio_quotient_energy

    sizes, energies = [], []
    for n in (8, 16, 32, 64):
        a = gp(n)
        energy, quotient = ratio_quotient_energy(a)
        m = 3 * n - 2  # quotient set of a ratio-2 progression is a progression
        ok_n = len(quotient) == m and energy == 2 * m * m - m
        if n == 8:
            ok_n = ok_n and energy == energy_quadruples(quotient, "plus")
        assert ok_n, f"closed form failed at n={n}"
        sizes.append(n)
        energies.append(energy)
    fit = fit_loglog_slope(sizes, energies)
    ok = fit["slope"] is not None and fit["slope"] <= 2.5 and fit["max_residual"] <= 0.1
    _verdict("11 quotient-energy slope <= 2.5 (residual <= 0.1)", ok)


def test_a12_exponent_ledger():
    """(1/26)/17 = 1/442 exactly; the chain emits 1/2 + 1/442."""
    ledger = exponent_ledger(Fraction(1, 26))
    ok = Fraction(1, 26) / 17 == Fraction(1, 442)
    ok = ok and ledger.basis_exponent == Fraction(1, 2) + Fraction(1, 442)
    ok = ok and ledger.at_boundary
    _verdict("12 exponent ledger (1/26)/17 = 1/442", ok)


def test_a13_shift_overlap_bound():
    """Overlap bound holds for every nonzero difference of gp(2, n), n in 8..32.

    The verdict is exact (cubed comparison); the stated 1e-9 float margin
    is subsumed by deciding every instance in exact arithmetic.
    """
    ok = True
    for n in range(8, 33):
        a = gp(n)
        diffs = {x - y for x in a for y in a if x != y}
        for alpha in diffs:
            rep = shift_intersection_report(a, alpha)
            ok = ok and rep.holds
            ok = ok and Fraction(rep.overlap) ** 3 <= rep.bound_cubed
    _verdict("13 shift-overlap bound on progressions (exact)", ok)


def test_a14_report_determinism(tmp_path):
    """Identical specs and seeds yield byte-identical CSV and JSON."""
    specs = [
        FamilySpec("gp", {"q": "2", "n": "8"}),
        FamilySpec("gp", {"q": "2", "n": "16"}),
        FamilySpec("random", {"n": "10", "lo": "1", "hi": "1000"}, seed=42),
    ]
    claims = ["stats", "ratio_energy", "shift_bound", "sextuple_count", "identities", "exponent_chain"]
    outputs = []
    for run_dir in ("one", "two"):
        rows, summary = run_suite(specs, claims)
        csv_path, json_path = write_report(rows, summary, tmp_path / run_dir)
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    _verdict("14 report determinism (byte-identical reruns)", ok)
