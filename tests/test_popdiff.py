"""Popular-ratio certificates, identities, ratio sets, quadruple floors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import popdiff
from sumprodlab.field import Residue
from sumprodlab.sets import ArithSet, ratio_set, sumset
from sumprodlab.graph import build_containment_graph
from sumprodlab.popdiff import (
    build_popular_ratios,
    build_ratio_sets,
    one_minus_x_solutions,
    quadruple_energy_bound,
    ratio_product_identity_holds,
    shift_ratio_identity_holds,
    sumset_energy_bounds,
)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def fset(*xs):
    return ArithSet(xs)


def micro_graph():
    return build_containment_graph(fset(0, 1, 2), fset(1, 2, 3))


def test_popular_ratios_micro():
    cert = build_popular_ratios(micro_graph(), fset(0, 1, 2), 2)
    assert cert.ratios == ArithSet([2, Fraction(3, 2), Fraction(1, 2), Fraction(2, 3)])
    assert cert.multiplicity_sum == cert.triples_total == 8
    assert cert.conservation_ok and cert.cauchy_schwarz_ok
    assert cert.within_target_ratios  # R sits inside A/A


def test_within_target_ratios_reads_the_ratio_set(monkeypatch):
    # R lies in A/A by construction, so an A/A stubbed without 2 is what
    # the check must catch.
    monkeypatch.setattr(popdiff, "ratio_set", lambda s, t, ceiling=None: fset(Fraction(1, 2)))
    assert not build_popular_ratios(micro_graph(), fset(0, 1, 2), 2).within_target_ratios


def test_popular_ratios_empty_cases():
    g = micro_graph()
    high = build_popular_ratios(g, fset(0, 1, 2), 10)
    assert len(high.ratios) == 0 and high.multiplicity_sum == 0
    assert high.cauchy_schwarz_ok
    single = build_popular_ratios(g, fset(1), 1)
    assert len(single.ratios) == 0  # no off-diagonal pair in a singleton


def test_popular_ratios_rejects_zero_in_target():
    g = build_containment_graph(fset(0, 1), fset(0, 1))
    with pytest.raises(ZeroDivisionError):
        build_popular_ratios(g, fset(0, 1), 1)


def test_certificate_chain_seeded():
    rng = random.Random(123)
    made = 0
    while made < 40:
        b = ArithSet(rng.sample(range(0, 25), rng.randint(2, 8)))
        base = set(rng.sample(range(1, 40), rng.randint(2, 10)))
        sums = [x + y for x in b for y in b]
        base.update(s for s in rng.sample(sums, 3) if s != 0)
        a = ArithSet(base)
        if a.contains_zero():
            continue
        g = build_containment_graph(b, a)
        if g.edges == 0:
            continue
        cert = build_popular_ratios(g, b, rng.randint(1, 3))
        assert cert.conservation_ok
        assert cert.multiplicity_sum**2 <= len(cert.ratios) * cert.collision_count
        assert cert.within_target_ratios
        made += 1


def test_shift_ratio_identity_worked():
    one, two, three, five = map(Fraction, (1, 2, 3, 5))
    assert shift_ratio_identity_holds(one, two, three, five)
    assert shift_ratio_identity_holds(two, two, three, five)  # b1 = b2: both sides 0
    assert shift_ratio_identity_holds(*(Residue(v, 7) for v in (1, 2, 3, 5)))
    with pytest.raises(ZeroDivisionError):
        shift_ratio_identity_holds(one, two, -one, five)


def test_ratio_product_identity_worked():
    one, two, three, four = map(Fraction, (1, 2, 3, 4))
    assert ratio_product_identity_holds(one, two, three, four)
    assert ratio_product_identity_holds(one, two, three, three)  # c = c'
    assert ratio_product_identity_holds(*(Residue(v, 7) for v in (1, 2, 3, 4)))
    with pytest.raises(ZeroDivisionError):
        ratio_product_identity_holds(one, two, -two, four)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=200)
def test_identities_always_hold(b1, b2, x, y):
    if b1 + x:
        assert shift_ratio_identity_holds(b1, b2, x, y)
    if (b2 + x) and (b2 + y):
        assert ratio_product_identity_holds(b1, b2, x, y)


def test_one_minus_x_solutions():
    a = fset(1, 2, 3)
    d = ratio_set(a, a)
    assert one_minus_x_solutions(1, d) == len(d)  # pairs with equal coordinates
    brute = sum(1 for a1 in d for a2 in d if a1 - a2 == 1 - Fraction(2))
    assert one_minus_x_solutions(2, d) == brute
    assert one_minus_x_solutions(1, fset(1)) == 1


def test_quadruple_bound_trivial():
    rep = quadruple_energy_bound(fset(1), fset(1), ArithSet([]), 0)
    assert rep.energy == 1 and rep.floor == 0 and rep.holds


def test_quadruple_bound_explicit():
    y = fset(1, 2)
    x = fset(1, 2)
    r = fset(2)
    n = one_minus_x_solutions(2, x)  # pairs in X^2 differing by -1: (1,2)
    rep = quadruple_energy_bound(y, x, r, n)
    assert rep.floor == n * 2 * 1
    assert rep.holds
    assert rep.distinct_quadruples == rep.expected_quadruples == n * 2


def test_quadruple_bound_gp_pipeline():
    a = ArithSet([2**i for i in range(4)])
    g = build_containment_graph(a, a)
    cert = build_popular_ratios(g, a, 1)
    x = ratio_set(a, a)
    n = min((one_minus_x_solutions(v, x) for v in cert.ratios), default=0)
    rep = quadruple_energy_bound(a, x, cert.ratios, n)
    assert rep.holds
    assert not rep.precondition_errors


def test_quadruple_bound_micro_pipeline():
    a = fset(1, 2, 3)
    cert = build_popular_ratios(micro_graph(), fset(0, 1, 2), 2)
    x = ratio_set(a, a)
    n = min(one_minus_x_solutions(v, x) for v in cert.ratios)
    rep = quadruple_energy_bound(a, x, cert.ratios, n)
    assert n >= 1
    assert rep.holds
    assert rep.distinct_quadruples == rep.expected_quadruples == n * 3 * 4


def test_quadruple_bound_reports_precondition_failures():
    rep = quadruple_energy_bound(fset(0, 1), fset(2, 3), fset(5), 1)
    assert rep.precondition_errors
    assert not rep.holds


def test_ratio_sets_worked():
    rs = build_ratio_sets(fset(0, 1), fset(2, 3))
    expected = ArithSet([Fraction(2, 3), Fraction(3, 2), Fraction(3, 4), Fraction(4, 3)])
    assert rs.x_set == expected
    assert rs.y_set == expected
    assert 1 not in rs.x_set and 0 not in rs.x_set


def _tuple_stats(first, second):
    """Surviving generating tuples of (f1 + s)/(f2 + s) and Q = sum of squares."""
    groups = {}
    for f1 in first:
        for f2 in first:
            for s in second:
                if not f2 + s:
                    continue
                val = (f1 + s) / (f2 + s)
                if val not in (0, 1):
                    groups[val] = groups.get(val, 0) + 1
    return sum(groups.values()), sum(g * g for g in groups.values())


def test_ratio_sets_tuple_stats_match_a_recount():
    rng = random.Random(41)
    for _ in range(20):
        b = ArithSet(rng.sample(range(-9, 10), rng.randint(2, 5)))
        c = ArithSet(rng.sample(range(-9, 10), rng.randint(2, 5)))
        for first, second in ((b, c), (b, b)):
            rs = build_ratio_sets(first, second)
            assert (rs.total_x, rs.collisions_x) == _tuple_stats(first, second)
            assert (rs.total_y, rs.collisions_y) == _tuple_stats(second, first)
    rs = build_ratio_sets(fset(0, 1), fset(2, 3))
    assert (rs.total_x, rs.collisions_x) == (4, 4)


def test_quadruple_bound_default_floor_is_least_solution_count():
    a = ArithSet([1, 2, 4, 8])
    x = ratio_set(a, a)
    r = ArithSet([2, Fraction(1, 2)])
    least = min(one_minus_x_solutions(v, x) for v in r)
    assert quadruple_energy_bound(a, x, r) == quadruple_energy_bound(a, x, r, least)
    assert quadruple_energy_bound(a, x, r).solutions_floor == least


def test_quadruple_bound_with_zero_floor_uses_every_solution():
    a = ArithSet([1, 2, 4, 8])
    x = ratio_set(a, a)
    r = ArithSet([2, Fraction(1, 2), 4])
    bound = quadruple_energy_bound(a, x, r, 0)
    assert bound.solutions_floor == bound.floor == 0
    every = sum(one_minus_x_solutions(v, x) for v in r)
    assert bound.distinct_quadruples == len(a) * every > 0


def test_ratio_sets_require_two_elements():
    with pytest.raises(ValueError):
        build_ratio_sets(fset(0, 1), fset(2))


def test_sumset_energy_bounds_worked():
    b, c = fset(0, 1), fset(2, 3)
    a = sumset(b, c)
    rep = sumset_energy_bounds(a, b, c)
    assert rep.x_size == 4 and rep.y_size == 4
    assert rep.holds_x and rep.holds_y
    assert rep.x_solutions_min == len(c)
    assert rep.y_solutions_min == len(b)


def test_sumset_energy_bounds_collision_case():
    b, c = fset(0, 1), fset(1, 2)  # A is an AP of length 3
    a = sumset(b, c)
    rep = sumset_energy_bounds(a, b, c)
    assert rep.holds_x and rep.holds_y


def test_sumset_energy_bounds_preconditions():
    with pytest.raises(ValueError):
        sumset_energy_bounds(fset(0, 1, 2, 3), fset(0, 1), fset(0, 2))  # 0 in A
    with pytest.raises(ValueError):
        sumset_energy_bounds(fset(9), fset(0, 1), fset(2, 3))  # A != B + C
