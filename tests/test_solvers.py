"""Minimum basis and decomposition searches against exhaustive oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab.field import ModeMismatchError
from sumprodlab.graph import build_containment_graph, lk_profile
from sumprodlab.sets import ArithSet, dilate, sumset, translate
from sumprodlab.solvers import (
    InfeasibleWithinUniverse,
    counting_lower_bound,
    decompose,
    decomposition_report,
    default_universe,
    min_basis,
)


def fset(*xs):
    return ArithSet(xs)


def oracle_min_basis_size(a, universe):
    """Enumerate subsets of the universe by increasing size."""
    targets = list(a)
    for size in range(1, len(universe) + 1):
        for comb in combinations(universe.elements, size):
            sums = {x + y for i, x in enumerate(comb) for y in comb[i:]}
            if all(t in sums for t in targets):
                return size
    return None


def oracle_reducible(a):
    """All (B, C) pairs with min(B) = 0, sizes >= 2, over integer sets."""
    vals = [int(x) for x in a]
    amask = 0
    for v in vals:
        amask |= 1 << v
    span = max(vals) - min(vals)
    for bmask in range(1, 1 << (span + 1), 2):  # bit 0 set: 0 in B
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


def test_counting_lower_bound():
    assert [counting_lower_bound(n) for n in (1, 2, 3, 4, 6, 7, 10, 11)] == [
        1, 2, 2, 3, 3, 4, 4, 5,
    ]


def test_min_basis_worked_values():
    assert min_basis(fset(2)).basis == fset(1)
    res = min_basis(fset(0, 1, 2, 3, 4), universe=ArithSet(range(13)))
    assert res.size == 3  # size 2 impossible: |B + B| <= 3 < 5
    assert res.size >= res.counting_bound
    assert min_basis(fset(0, 1, 2)).size == 2


def test_min_basis_soundness_and_optimality_sample():
    rng = random.Random(31)
    universe = ArithSet(range(13))
    for _ in range(60):
        a = ArithSet(rng.sample(range(13), rng.randint(1, 8)))
        res = min_basis(a, universe=universe)
        sums = sumset(res.basis, res.basis)
        assert all(t in sums for t in a)
        assert res.size == oracle_min_basis_size(a, universe)


def test_min_basis_halving_candidates():
    # odd singleton needs either two universe elements or the half point
    res = min_basis(fset(7))
    assert res.size == 1
    assert res.basis == ArithSet([Fraction(7, 2)])


def test_min_basis_infeasible_universe():
    with pytest.raises(InfeasibleWithinUniverse):
        min_basis(fset(5), universe=fset(0, 1))
    with pytest.raises(InfeasibleWithinUniverse):
        min_basis(ArithSet(range(0, 40, 2)), universe=ArithSet(range(3)), size_cap=2)


def test_min_basis_prunes_by_cause():
    # A = {2, 3, 4, 11} in U = {0..7}.  Floor 3, max_cover 3, and greedy
    # picks (0,2), (0,3), (4,7): incumbent 5.  The tree, by hand:
    #   1 root: bound 3; target 2, ranked (1,1) then (0,2).
    #   2 {1}: bound 3; target 3, ranked (1,2) then (0,3).
    #   3 {1,2}: bound 3; target 11, ranked (4,7) then (5,6).
    #   4 {1,2,4,7}: covers A, incumbent 4.  Back at 3, (5,6) would make
    #     |B| = 4: size_cap.
    #   5 {0,1,3}: 3 + max(coverage 1, floor 0) >= 4: coverage.
    #   6 {0,2}: one more element adds at most one target with 0 or 2
    #     (3 = 0 + 3) and one as its double, and 2 are left: the reach
    #     bound passes.  |B| may grow by one, and both pairs of 11 add two
    #     elements: no_affordable_pair.
    res = min_basis(fset(2, 3, 4, 11), universe=ArithSet(range(8)))
    assert (res.size, res.nodes, res.basis) == (4, 6, fset(1, 2, 4, 7))
    assert res.prunes == {
        "counting_floor": 0,
        "coverage": 1,
        "no_affordable_pair": 1,
        "size_cap": 1,
        "reach": 0,
    }
    # Greedy meets the floor 3 at the root, where the coverage term is 3 as
    # well: a tie, credited to the counting floor.
    res = min_basis(fset(0, 1, 2, 3, 4), universe=ArithSet(range(5)))
    assert (res.size, res.nodes) == (3, 1)
    assert res.prunes == {
        "counting_floor": 1,
        "coverage": 0,
        "no_affordable_pair": 0,
        "size_cap": 0,
        "reach": 0,
    }


def test_min_basis_reach_bound_cuts_a_node():
    # A = {0, 6, 8} in U = {0..4}.  Floor 2, max_cover 2, and greedy picks
    # (0,0), (4,4), (2,4): incumbent 3.  The tree, by hand:
    #   1 root: bound 2; target 0, whose only pair is (0,0).
    #   2 {0}: bound 1 + max(1, 1) = 2 passes, but a basis of size 2 has
    #     one more element x, which adds 0 + x and 2x.  Neither 6 nor 8 is
    #     in U, so reach[0] covers no target left, and 2x covers at most
    #     one of the two: reach.
    # Without the reach bound, node 2 would branch on 6 through (3,3) to a
    # third node, cut by coverage.
    res = min_basis(fset(0, 6, 8), universe=ArithSet(range(5)))
    assert (res.size, res.nodes, res.basis) == (3, 2, fset(0, 2, 4))
    assert res.prunes == {
        "counting_floor": 0,
        "coverage": 0,
        "no_affordable_pair": 0,
        "size_cap": 0,
        "reach": 1,
    }


def test_min_basis_reach_bound_keeps_the_optimum():
    rng = random.Random(27)
    universe = ArithSet(range(13))
    fired = 0
    for _ in range(30):
        a = ArithSet(rng.sample(range(25), rng.randint(4, 9)))
        res = min_basis(a, universe=universe)
        assert res.size == oracle_min_basis_size(a, universe)
        fired += res.prunes["reach"] > 0
    assert fired >= 10


def test_min_basis_universe_in_another_mode():
    with pytest.raises(ModeMismatchError):
        min_basis(fset(1, 2, 3), universe=ArithSet(range(5), p=7))


#: Positive factors and shifts with mixed denominators.
FACTORS = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=30).filter(
    lambda x: x > 0
)
SHIFTS = st.fractions(min_value=-10, max_value=10, max_denominator=42)


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.sets(st.integers(0, 12), min_size=2, max_size=8),
    FACTORS,
)
def test_min_basis_commutes_with_rational_dilation(data, u_values, lam):
    u = ArithSet(u_values)
    sums = sorted({x + y for x in u_values for y in u_values})
    a = ArithSet(data.draw(st.sets(st.sampled_from(sums), min_size=1, max_size=6)))
    base = min_basis(a, universe=u)
    scaled = min_basis(dilate(a, lam), universe=dilate(u, lam))
    assert (scaled.size, scaled.nodes) == (base.size, base.nodes)
    assert scaled.basis == dilate(base.basis, lam)
    assert scaled.prunes == base.prunes


SMALL_INTS = st.sets(st.integers(0, 15), min_size=2, max_size=8)
SUMSETS = st.tuples(
    st.sets(st.integers(0, 7), min_size=2, max_size=3),
    st.sets(st.integers(0, 7), min_size=2, max_size=3),
).map(lambda bc: {x + y for x in bc[0] for y in bc[1]})


@settings(max_examples=80, deadline=None)
@given(st.one_of(SMALL_INTS, SUMSETS), FACTORS, SHIFTS)
def test_decompose_commutes_with_rational_affine_maps(values, lam, mu):
    a = ArithSet(values)
    base = decompose(a)
    moved = decompose(translate(dilate(a, lam), mu))
    assert (moved.reducible, moved.nodes) == (base.reducible, base.nodes)
    assert base.reducible == oracle_reducible(a)
    if base.reducible:
        b, c = base.parts()
        assert moved.parts() == (dilate(b, lam), translate(dilate(c, lam), mu))


def test_min_basis_translation_covariance():
    a = fset(0, 1, 2, 3, 4)
    u = ArithSet(range(13))
    t = 3
    shifted = translate(a, 2 * t)
    u_shift = translate(u, t)
    assert min_basis(a, universe=u).size == min_basis(shifted, universe=u_shift).size


def test_default_universe_contains_shifted_sums():
    a = fset(1, 2, 4)
    u = default_universe(a)
    for x in a:
        assert x / 2 in u
    for x in a:
        for y in a:
            for z in a:
                assert x + y - z in u


def test_lk_of_candidate_roundtrip():
    a = fset(1, 2, 3)
    prof = lk_profile(build_containment_graph(fset(0, 1, 2), a))
    assert prof.l_value == Fraction(3, 7)
    assert prof.k_squared == 3
    with pytest.raises(ValueError):
        lk_profile(build_containment_graph(fset(0), fset(1)))  # no edges


def test_decompose_worked_values():
    d = decompose(fset(0, 1, 2, 3))
    assert d.reducible
    assert d.left == fset(0, 1) and d.right == fset(0, 2)
    assert not decompose(fset(0, 1, 3)).reducible
    d = decompose(fset(0, 1, 2))
    assert (d.left, d.right) == (fset(0, 1), fset(0, 1))


@pytest.mark.parametrize(
    "values, nodes, left, right",
    [
        # A split placing both b and c can give two new pairs with one sum;
        # the gain counts both, and the tree depends on it.
        (
            (8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 21, 23, 24, 25, 28, 30),
            8,
            (0, 1, 4, 6),
            (8, 12, 13, 15, 17, 24),
        ),
        # The gain counts the pair b + c = target of a split placing both.
        ((0, 1, 2, 3, 4, 5, 8, 10), 8, (0, 1, 2, 3, 8), (0, 2)),
    ],
)
def test_decompose_gain_counts_new_pairs(values, nodes, left, right):
    d = decompose(ArithSet(values))
    assert (d.nodes, d.left, d.right) == (nodes, ArithSet(left), ArithSet(right))


def test_decompose_matches_oracle_sample():
    rng = random.Random(77)
    for _ in range(80):
        a = ArithSet(rng.sample(range(11), rng.randint(2, 9)))
        assert decompose(a).reducible == oracle_reducible(a)


def test_decompose_soundness():
    rng = random.Random(15)
    for _ in range(40):
        a = ArithSet(rng.sample(range(16), rng.randint(2, 10)))
        d = decompose(a)
        if d.reducible:
            b, c = d.parts()
            assert len(b) >= 2 and len(c) >= 2
            assert min(b.elements) == 0
            assert sumset(b, c) == a


def test_decompose_translation_invariant_verdict():
    rng = random.Random(4)
    for _ in range(20):
        a = ArithSet(rng.sample(range(12), rng.randint(2, 8)))
        assert decompose(a).reducible == decompose(translate(a, 9)).reducible


def test_decompose_rational_values():
    a = ArithSet([Fraction(1, 2), 1, Fraction(3, 2), 2])
    d = decompose(a)
    assert d.reducible
    b, c = d.parts()
    assert sumset(b, c) == a


def test_decompose_requires_rational_mode():
    with pytest.raises(ValueError):
        decompose(ArithSet([1, 2, 3], p=7))


def test_geometric_progressions_irreducible():
    for n in (8, 12):
        a = ArithSet([2**i for i in range(n)])
        assert not decompose(a).reducible


def test_decomposition_report_reducible():
    rep = decomposition_report(fset(0, 1, 2, 3))
    assert rep["reducible"]
    assert rep["containment_ok"]
    assert rep["left_size"] == rep["right_size"] == 2
    assert rep["zero_dropped_for_doubling"]


def test_decomposition_report_irreducible_gp():
    a = ArithSet([2**i for i in range(12)])
    rep = decomposition_report(a)
    assert not rep["reducible"]
    assert rep["doubling"] == Fraction(23, 12)


def test_decomposition_report_progression():
    rep = decomposition_report(ArithSet(range(16)))
    assert rep["reducible"]
    assert rep["containment_ok"]
