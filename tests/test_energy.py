"""Energies against quadruple-enumeration oracles, sigma, shift overlaps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab.field import CeilingExceeded
from sumprodlab.sets import ArithSet, dilate, translate
from sumprodlab.energy import (
    _cube_root_ceil,
    additive_energy,
    energy_quadruples,
    is_sidon,
    multiplicative_energy,
    representation_function,
    shift_intersection,
    shift_intersection_report,
    sigma,
)

small_sets = st.sets(st.integers(-25, 25), min_size=1, max_size=7).map(ArithSet)


def fset(*xs):
    return ArithSet(xs)


def test_additive_energy_values():
    assert additive_energy(fset(0, 1, 2)) == 19
    assert additive_energy(fset(42)) == 1
    assert additive_energy(fset(1, 2, 4, 8)) == 28  # Sidon: 2n^2 - n
    assert energy_quadruples(fset(1, 2, 4, 8), "plus") == 28


def test_multiplicative_energy_values():
    assert multiplicative_energy(fset(1, 2, 4)) == 19
    assert multiplicative_energy(fset(5)) == 1
    assert multiplicative_energy(fset(1, 2, 3)) == 15
    assert energy_quadruples(fset(1, 2, 3), "times") == 15


def test_energy_bounds():
    for a in (fset(1, 5, 9), fset(0, 1, 3, 7), fset(2, 4, 8, 16, 32)):
        e = additive_energy(a)
        assert len(a) ** 2 <= e <= len(a) ** 3


def test_hashed_energy_matches_oracle_seeded():
    rng = random.Random(2024)
    for _ in range(12):
        n = rng.randint(1, 9)
        s = ArithSet(rng.sample(range(-40, 40), n))
        assert additive_energy(s) == energy_quadruples(s, "plus")
        assert multiplicative_energy(s) == energy_quadruples(s, "times")


def test_representation_function_mass():
    s, t = fset(1, 2, 4), fset(1, 3)
    for op in ("plus", "minus", "times"):
        counts = representation_function(s, t, op)
        assert sum(counts.values()) == len(s) * len(t)
    by_div = representation_function(fset(1, 2), fset(0, 1, 2), "divide")
    assert sum(by_div.values()) == 2 * 2  # zero divisor pairs skipped


def test_energy_ceiling_guard():
    # 1500^2 pairs are over the element ceiling, refused before the walk.
    big = ArithSet(range(1500))
    for energy in (additive_energy, multiplicative_energy):
        with pytest.raises(CeilingExceeded) as err:
            energy(big)
        assert (err.value.requested, err.value.ceiling) == (2_250_000, 2_000_000)


@given(small_sets, st.integers(-9, 9).filter(bool), st.integers(-9, 9))
@settings(max_examples=40)
def test_energy_invariance(s, lam, t):
    assert additive_energy(dilate(s, lam)) == additive_energy(s)
    assert additive_energy(translate(s, t)) == additive_energy(s)
    assert multiplicative_energy(dilate(s, lam)) == multiplicative_energy(s)


def test_sigma_values():
    assert sigma(fset(1), fset(0, 1, 2), "minus") == 2  # (1,0) and (2,1)
    assert sigma(fset(100), fset(0, 1, 2), "minus") == 0  # disjoint from B-B
    assert sigma(fset(1, 2, 3), fset(0, 1, 2), "plus") == 7


@given(small_sets, small_sets)
@settings(max_examples=40)
def test_sigma_plus_equals_representation_sum(a, b):
    # Both sides against plain pair enumeration: sigma itself reads r_{B+B}.
    pairs = sum(1 for b1 in b for b2 in b if (b1 + b2) in a)
    counts = representation_function(b, b, "plus")
    assert sigma(a, b, "plus") == pairs
    assert sum(counts.get(x, 0) for x in a) == pairs


def test_sidon_characterization_both_directions():
    for s in (fset(1, 2, 4, 8), fset(0, 1, 3, 7), ArithSet([3**i for i in range(5)])):
        assert is_sidon(s)
        assert additive_energy(s) == 2 * len(s) ** 2 - len(s)
    for s in (fset(0, 1, 2), fset(0, 1, 3, 4), ArithSet(range(6))):
        assert not is_sidon(s)
        assert additive_energy(s) > 2 * len(s) ** 2 - len(s)


def test_shift_intersection_values():
    assert shift_intersection(fset(1, 2, 4), 1) == 1
    assert shift_intersection(fset(0, 1, 2, 3), 1) == 3
    gp16 = ArithSet([2**i for i in range(16)])
    assert shift_intersection(gp16, 1) == 1
    with pytest.raises(ValueError):
        shift_intersection(fset(1, 2), 0)


def test_shift_intersection_report_exact_verdict():
    rep = shift_intersection_report(fset(1, 2, 4), 1)
    assert rep.overlap == 1
    assert rep.doubling == Fraction(5, 3)
    # exact: overlap^3 <= M^4 |A|^2
    assert rep.holds == (Fraction(rep.overlap) ** 3 <= rep.bound_cubed)
    assert rep.bound_ceiling**3 >= rep.bound_cubed
    assert (rep.bound_ceiling - 1) ** 3 < rep.bound_cubed


def test_shift_report_on_progression():
    a = ArithSet(range(10))
    for alpha in (1, 2, 5):
        assert shift_intersection_report(a, alpha).holds


@given(
    st.sets(st.integers(-20, 20), min_size=1, max_size=8),
    st.integers(-25, 25).filter(bool),
    st.sampled_from([None, 13]),
)
@settings(max_examples=60)
def test_shift_intersection_counts_the_translate(xs, alpha, p):
    # The overlap is counted on the index; the oracle builds A + alpha.
    a = ArithSet(xs, p=p)
    if p is not None and alpha % p == 0:
        return
    shifted = translate(a, alpha)
    assert shift_intersection(a, alpha) == sum(1 for y in shifted if y in a)


@given(
    st.one_of(
        st.fractions(min_value=-50, max_value=1000, max_denominator=50),
        st.builds(Fraction, st.integers(-(10**90), 10**90), st.integers(1, 10**9)),
    )
)
@settings(max_examples=200)
def test_cube_root_ceil_is_the_least_cube_root(q):
    k = _cube_root_ceil(q)
    if q <= 0:
        assert k == 0
    else:
        assert k**3 >= q > (k - 1) ** 3
