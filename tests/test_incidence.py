"""Collinear triples: two routes, sextuple equation, dyadic line census."""

import random
from fractions import Fraction

import pytest

from sumprodlab.field import CeilingExceeded
from sumprodlab.sets import ArithSet, dilate, translate
from sumprodlab.incidence import (
    collinear_triples,
    collinear_triples_brute,
    dyadic_table,
    grid_triples_bound_check,
    sextuple_collinearity_count,
    st_line_bound_check,
)


def fset(*xs):
    return ArithSet(xs)


def test_unit_square_has_no_triples():
    s = fset(0, 1)
    assert collinear_triples(s, s, s) == 0
    assert collinear_triples_brute(s, s, s) == 0


def test_three_by_three_grid():
    s = fset(0, 1, 2)
    # 8 lines carry exactly 3 points: 3 rows, 3 columns, 2 diagonals
    assert collinear_triples(s, s, s) == 48
    assert collinear_triples_brute(s, s, s) == 48


def test_disjoint_far_grid():
    x = fset(0, 1, 2)
    z = fset(1000, 1001, 1002)
    grouped = collinear_triples(x, x, z)
    assert grouped == collinear_triples_brute(x, x, z)


def test_routes_agree_seeded():
    rng = random.Random(20260810)
    for _ in range(15):
        sets = []
        for _ in range(3):
            n = rng.randint(2, 6)
            if rng.random() < 0.4:
                vals = {Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(3 * n)}
            else:
                vals = {rng.randint(-15, 15) for _ in range(3 * n)}
            sets.append(ArithSet(sorted(vals)[:n]))
        assert collinear_triples(*sets) == collinear_triples_brute(*sets)


def test_routes_agree_prime_field():
    a = ArithSet([1, 2, 4], p=7)
    b = ArithSet([3, 5], p=7)
    assert collinear_triples(a, a, b) == collinear_triples_brute(a, a, b)
    assert collinear_triples(a, b, a) == collinear_triples_brute(a, b, a)


def test_affine_invariance():
    a = fset(0, 1, 3, 4)
    t = collinear_triples(a, a, a)
    assert collinear_triples(*([dilate(a, Fraction(3, 2))] * 3)) == t
    assert collinear_triples(*([translate(a, -7)] * 3)) == t


def test_sextuple_counts_worked():
    assert sextuple_collinearity_count(fset(1)) == (1, 0)
    total_12, nondeg_12 = sextuple_collinearity_count(fset(1, 2))
    assert (total_12, nondeg_12) == (40, 0)  # frozen from the 64-tuple enumeration
    total, nondeg = sextuple_collinearity_count(fset(0, 1, 2))
    assert nondeg == 48
    # coincident triples: 3|G|^2 - 2|G| with |G| = 9, plus the distinct ones
    assert total == 3 * 81 - 2 * 9 + 48


def test_sextuple_matches_grouped_route_seeded():
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randint(1, 6)
        a = ArithSet(rng.sample(range(-20, 21), n))
        _total, nondeg = sextuple_collinearity_count(a)
        assert nondeg == collinear_triples(a, a, a)


def test_sextuple_ceiling():
    # 13^6 is under the brute ceiling, 14^6 over it.
    with pytest.raises(CeilingExceeded) as err:
        sextuple_collinearity_count(ArithSet(range(14)))
    assert (err.value.requested, err.value.ceiling) == (14**6, 5_000_000)


def test_dyadic_table_three_by_three():
    s = fset(0, 1, 2)
    table = dyadic_table(s, s)
    assert table.richness_census() == {(3, 3): 8, (2, 2): 12}
    assert table.dyadic_counts() == {(1, 1): 20}
    assert table.triple_count() == 48
    assert table.pair_identity_ok()


def test_dyadic_table_two_by_two():
    s = fset(0, 1)
    table = dyadic_table(s, s)
    assert table.richness_census() == {(2, 2): 6}  # 2 rows, 2 columns, 2 diagonals


def test_dyadic_table_mixed_grids():
    c, b = fset(0, 1), fset(0, 1, 2)
    table = dyadic_table(c, b)
    assert table.triple_count() == collinear_triples(c, c, b)
    assert table.pair_identity_ok()


def test_dyadic_table_disjoint_grids():
    # far-apart grids share exactly one 2-rich line: the main diagonal
    # y = x, which every square grid carries
    c, b = fset(0, 1), fset(1000, 2000)
    table = dyadic_table(c, b)
    census = table.richness_census()
    assert census == {(2, 0): 5, (0, 2): 5, (2, 2): 1}
    assert table.census[(2, 2, 0)] == 1


def test_table_expansion_matches_triples_for_progressions():
    for n in range(2, 9):
        c = ArithSet(range(n))
        table = dyadic_table(c, c)
        assert table.triple_count() == collinear_triples(c, c, c)


def test_st_ratio_worked_values():
    s = fset(0, 1, 2)
    report = st_line_bound_check(dyadic_table(s, s))
    by_class = {(e.k, e.l): e for e in report.per_class}
    entry = by_class[(2, 2)]
    assert entry.lines == 12
    assert entry.bound == Fraction(81, 8) + Fraction(9, 2)  # 117/8
    assert entry.ratio == Fraction(12 * 8, 117)
    assert report.max_ratio == max(e.ratio for e in report.per_class)


def test_st_classes_far_grids():
    report = st_line_bound_check(dyadic_table(fset(0, 1), fset(1000, 2000)))
    # the shared main diagonal is the only jointly rich line
    assert [(e.k, e.l, e.lines) for e in report.per_class] == [(2, 2, 1)]


def test_st_empty_classes():
    # a singleton grid admits no 2-rich line at all on its side
    report = st_line_bound_check(dyadic_table(fset(0, 1), fset(1000)))
    assert report.per_class == ()
    assert report.max_ratio is None


def test_grid_triples_bound_check():
    rep = grid_triples_bound_check(fset(0, 1), fset(0, 1, 2))
    assert rep.triples == collinear_triples(fset(0, 1), fset(0, 1), fset(0, 1, 2))
    assert rep.hypothesis_ok
    flipped = grid_triples_bound_check(fset(0, 1, 2), fset(0, 1))
    assert not flipped.hypothesis_ok  # |B| < |C|: flagged, still computed
    assert flipped.triples == collinear_triples(fset(0, 1, 2), fset(0, 1, 2), fset(0, 1))


def test_grid_triples_equal_sizes_exponent():
    import math

    # with |C| = |B| the bound shape collapses to |B|^4 log^2 |B|
    rep = grid_triples_bound_check(fset(0, 1, 2, 3), fset(0, 1, 2, 3))
    assert rep.bound == pytest.approx(4.0**4 * math.log(4) ** 2)


def test_pair_ceiling_guard():
    # 120^2 = 14,400 grid points make 103,672,800 pairs, over the ceiling.
    big = ArithSet(range(120))
    with pytest.raises(CeilingExceeded) as err:
        collinear_triples(big, big, big)
    assert (err.value.requested, err.value.ceiling) == (14_400 * 14_399 // 2, 100_000_000)


def test_sextuple_total_dominates_nondegenerate():
    rng = random.Random(2)
    for _ in range(6):
        a = ArithSet(rng.sample(range(-15, 16), rng.randint(1, 6)))
        total, nondeg = sextuple_collinearity_count(a)
        assert total >= nondeg


def test_gp_triples_ratio_bounded():
    import math

    # T(A,A,A)/(|A|^4 ln|A|) decreases along ratio-2 progressions;
    # measured continuation at n=64 is 0.5714... via the grouped route
    ratios = []
    for n in (8, 16, 32):
        a = ArithSet([2**i for i in range(n)])
        t = collinear_triples(a, a, a)
        ratios.append(t / (n**4 * math.log(n)))
    assert ratios[0] > ratios[1] > ratios[2]
    assert all(r < 1 for r in ratios)
