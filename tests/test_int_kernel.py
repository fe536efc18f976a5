"""The pair kernel under ArithSet against element-wise oracles, in both field
modes: rationals, and several small primes, where the sets store ints mod p.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprodlab import incidence, popdiff
from sumprodlab.energy import (
    additive_energy,
    energy_quadruples,
    is_sidon,
    multiplicative_energy,
    representation_function,
    shift_intersection,
)
from sumprodlab.families import generate, parse_family
from sumprodlab.field import CeilingExceeded, Residue
from sumprodlab.graph import build_containment_graph, difference_solution_report, rich_pairs
from sumprodlab.incidence import (
    collinear_triples,
    collinear_triples_brute,
    dyadic_table,
    sextuple_collinearity_count,
)
from sumprodlab.popdiff import build_ratio_sets
from sumprodlab.sets import (
    ArithSet,
    _Keys,
    aa_over_a,
    difference_set,
    dilate,
    negate,
    normalize,
    product_set,
    ratio_set,
    sumset,
    translate,
)
from sumprodlab.verify import run_claim

PRIMES = [2, 3, 7, 13, 31, 101]
MODES = st.sampled_from([None] + PRIMES)
FIELD_PRIMES = st.sampled_from(PRIMES)
VALUES = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-10, max_value=10, max_denominator=5),
)


def _set_in(p, min_size=1, max_size=6):
    # Over F_p a fraction with denominator divisible by p has no residue.
    values = st.integers(-40, 40) if p is not None else VALUES
    return st.sets(values, min_size=min_size, max_size=max_size).map(
        lambda xs: ArithSet(xs, p=p)
    )


def _sets(count, modes=MODES, **kwargs):
    return modes.flatmap(lambda p: st.tuples(*[_set_in(p, **kwargs) for _ in range(count)]))


OPS = {
    "plus": (sumset, lambda u, v: u + v),
    "minus": (difference_set, lambda u, v: u - v),
    "times": (product_set, lambda u, v: u * v),
    "divide": (ratio_set, lambda u, v: u / v),
}


@given(_sets(2), st.sampled_from(sorted(OPS)))
@settings(max_examples=150, deadline=None)
def test_set_operations_match_elementwise(pair, op):
    s, t = pair
    build, fn = OPS[op]
    if op == "divide" and t.contains_zero():
        with pytest.raises(ZeroDivisionError):
            build(s, t)
        return
    got = build(s, t)
    want = {fn(u, v) for u in s.elements for v in t.elements}
    assert list(got) == sorted(want)
    assert got == ArithSet(want, p=s.p)


@given(_sets(2), st.sampled_from(sorted(OPS)))
@settings(max_examples=150, deadline=None)
def test_representation_function_matches_pair_enumeration(pair, op):
    s, t = pair
    fn = OPS[op][1]
    want = Counter(
        fn(u, v) for u in s.elements for v in t.elements if op != "divide" or v
    )
    counts = representation_function(s, t, op)
    assert dict(counts) == dict(want)
    assert sorted(counts.values()) == sorted(want.values())
    for x in want:
        assert counts[x] == counts.get(x, 0) == want[x]


@given(_sets(1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_energies_match_quadruple_oracle(one):
    (s,) = one
    assert additive_energy(s) == energy_quadruples(s, "plus")
    assert multiplicative_energy(s) == energy_quadruples(s, "times")


@given(_sets(2))
@settings(max_examples=100, deadline=None)
def test_containment_adjacency_matches_pair_membership(pair):
    basis, target = pair
    graph = build_containment_graph(basis, target)
    elems = basis.elements
    for i, b1 in enumerate(elems):
        for j, b2 in enumerate(elems):
            assert bool(graph.adjacency[i] >> j & 1) == ((b1 + b2) in target)
    for i in range(len(elems)):
        nbhd = graph.neighborhood(i)
        assert nbhd == ArithSet((b for b in elems if (elems[i] + b) in target), p=basis.p)


def _grids(p, *value_lists):
    return tuple(ArithSet(vals, p=p) for vals in value_lists)


@given(_sets(3, max_size=4), st.sampled_from(["distinct", "y=z", "x=y", "x=y=z"]))
# X ∩ Y ∩ Z = {5, 6} inside three pairwise overlaps: T = 1580 over Q, 1728 over F_31.
@example(_grids(None, range(1, 7), range(3, 9), range(5, 11)), "distinct")
@example(_grids(31, range(1, 7), range(3, 9), range(5, 11)), "distinct")
# Pairwise overlaps with no element common to all three.
@example(_grids(None, [0, 1, 2], [2, 3, 4], [4, 5, 0]), "distinct")
@example(_grids(3, [0, 1], [1, 2], [2, 0]), "distinct")
# Disjoint grids.
@example(_grids(None, [0, 1], [2, Fraction(7, 2)], [-5, 9]), "distinct")
@example(_grids(31, [0, 1], [2, 3], [5, 7]), "distinct")
# Singleton grids: three points, and one point against two grids.
@example(_grids(None, [0], [1], [2]), "distinct")
@example(_grids(2, [0], [1], [0, 1]), "distinct")
@example(_grids(31, [4], [0, 1, 2], [1, 3]), "distinct")
# One value a shared by all three and no other overlap: the other grids'
# points on the row and the column of (a, a).
@example(_grids(None, [0, 1], [0, 2], [0, 3]), "distinct")
@example(_grids(3, [0], [0, 1], [0, 2]), "distinct")
@settings(max_examples=150, deadline=None)
def test_collinear_triples_match_brute_force(triple, sharing):
    x, y, z = triple
    if sharing == "y=z":
        z = y
    elif sharing == "x=y":
        y = x
    elif sharing == "x=y=z":
        y = z = x
    assert collinear_triples(x, y, z) == collinear_triples_brute(x, y, z)


def test_collinear_triples_build_no_points(monkeypatch):
    grids = {p: _grids(p, range(1, 7), range(3, 9), range(5, 11)) for p in (None, 31)}
    want = {p: collinear_triples_brute(*g) for p, g in grids.items()}
    monkeypatch.setattr(incidence, "_directions", _refuse)
    monkeypatch.setattr(incidence, "_union_points", _refuse)
    got = {p: collinear_triples(*g) for p, g in grids.items()}
    assert got == want == {None: 1580, 31: 1728}


def _distinct_pair_in(p, max_size):
    return st.tuples(_set_in(p, max_size=max_size), _set_in(p, max_size=max_size)).filter(
        lambda ab: ab[0] != ab[1]
    )


#: Two different sets over Q (fractions, negatives) or over F_2 ... F_31.
DISTINCT_PAIRS = st.sampled_from([None, 2, 3, 7, 13, 31]).flatmap(
    lambda p: _distinct_pair_in(p, max_size=4)
)


@given(DISTINCT_PAIRS)
@example((ArithSet([0, Fraction(-1, 2), 3]), ArithSet([Fraction(1, 3), -2])))
@example((ArithSet([0, 1, 2], p=2), ArithSet([1], p=2)))
@settings(max_examples=120, deadline=None)
def test_repeated_grid_triples_match_brute_force_in_every_position(pair):
    a, b = pair
    for grids in ((a, a, b), (a, b, a), (b, a, a)):
        assert collinear_triples(*grids) == collinear_triples_brute(*grids)


def _slope_histogram(vals, point):
    """The directions from ``point`` to the points of vals x vals after it in
    lexicographic order, grouped by their slope as a ``Fraction`` (``None``
    for the vertical)."""
    x1, y1 = point
    return Counter(
        None if x2 == x1 else Fraction(y2 - y1, x2 - x1)
        for x2 in vals
        for y2 in vals
        if (x2, y2) > point
    )


def _int_key_histogram(vals, point):
    slopes = incidence._slope_table([vals], None)
    return incidence._directions(*point, vals, None, slopes)


def test_slope_key_separates_the_closest_slopes():
    # span = 1: the slopes 0 and 1 of {0, 1}^2 differ by exactly 1/span^2,
    # and K = 1 keys them by the adjacent ints 0 and 1.
    assert _int_key_histogram([0, 1], (0, 0)) == Counter({0: 1, 1: 1, None: 1})
    # span = 10: 1/10 and 1/9 are the closest slopes a grid of span 10 can
    # have, 1/90 apart; K = 100 keys them by the adjacent ints 10 and 11.
    vals = [0, 1, 9, 10]
    hist = _int_key_histogram(vals, (0, 0))
    assert (hist[10], hist[11]) == (1, 1)
    assert sorted(hist.values()) == sorted(_slope_histogram(vals, (0, 0)).values())


def test_slope_key_merges_equal_slopes():
    # After the origin, (2, 4) and (3, 6) lie on the line of slope 2, and
    # (2, -3) and (4, -6) on the line of slope -3/2, each with two values of dx.
    vals = [-6, -4, -3, -2, 0, 2, 3, 4, 6]
    hist = _int_key_histogram(vals, (0, 0))
    want = _slope_histogram(vals, (0, 0))
    assert want[Fraction(2)] == 2 and want[Fraction(-3, 2)] == 2
    assert len(hist) == len(want)
    assert sorted(hist.values()) == sorted(want.values())
    assert hist[None] == want[None] == 4


def _ordered_collinear_triples(a):
    """Ordered triples of distinct points of A x A with a vanishing
    determinant, on the elements themselves."""
    points = [(u, v) for u in a.elements for v in a.elements]
    return sum(
        1
        for (px, py), (qx, qy), (rx, ry) in permutations(points, 3)
        if (qx - px) * (ry - py) == (rx - px) * (qy - py)
    )


def _one_set(max_size):
    """One set over Q or over F_2, F_3, F_7, F_13 or F_31."""
    primes = st.sampled_from([2, 3, 7, 13, 31])
    return st.one_of(
        _set_in(None, max_size=max_size), primes.flatmap(lambda p: _set_in(p, max_size=max_size))
    )


@given(_one_set(max_size=5))
@example(ArithSet([0, -1, Fraction(1, 2), 3, Fraction(-7, 3)]))
@example(ArithSet([0, 1, 2, 3, 4], p=7))
@settings(max_examples=80, deadline=None)
def test_brute_triples_on_one_grid_match_ordered_enumeration(a):
    assert collinear_triples_brute(a, a, a) == _ordered_collinear_triples(a)


@given(_one_set(max_size=4))
@example(ArithSet([0, Fraction(-1, 2), 2, 5]))
@settings(max_examples=60, deadline=None)
def test_sextuple_count_matches_the_equation_over_a6(a):
    total = nondeg = 0
    for s, t, u, s2, t2, u2 in product(a.elements, repeat=6):
        if (s - t) * (s2 - u2) == (s - u) * (s2 - t2):
            total += 1
            nondeg += len({(s, s2), (t, t2), (u, u2)}) == 3
    assert sextuple_collinearity_count(a) == (total, nondeg)


@given(_sets(2, modes=FIELD_PRIMES, max_size=5))
@settings(max_examples=80, deadline=None)
def test_dyadic_table_triple_count_over_prime_fields(pair):
    c, b = pair
    if len(c) < 2 and len(b) < 2:
        return
    table = dyadic_table(c, b)
    assert table.triple_count() == collinear_triples(c, c, b)
    assert table.pair_identity_ok()


def _census_by_determinant(c, b):
    """The line census of (C x C, B x B) from every pair of distinct union
    points and the determinant test, on the elements themselves."""
    first = {(u, v) for u in c.elements for v in c.elements}
    second = {(u, v) for u in b.elements for v in b.elements}
    union = sorted(first | second)
    lines = set()
    for i, (px, py) in enumerate(union):
        for qx, qy in union[i + 1 :]:
            lines.add(
                frozenset(
                    (rx, ry)
                    for rx, ry in union
                    if not (qx - px) * (ry - py) - (rx - px) * (qy - py)
                )
            )
    census = Counter()
    for line in lines:
        f, s, both = len(line & first), len(line & second), len(line & first & second)
        if f >= 2 or s >= 2:
            census[(f, s, both)] += 1
    return dict(census)


@given(_sets(2, max_size=4), st.booleans())
@settings(max_examples=80, deadline=None)
@example((ArithSet(range(5)), ArithSet(range(2, 7))), False)
@example((ArithSet(range(5), p=13), ArithSet(range(2, 7), p=13)), False)
@example((ArithSet([0, Fraction(1, 2), 1, 3, 4]), ArithSet([0])), True)
def test_dyadic_census_matches_pairs_of_points(pair, same):
    c, b = pair
    if same:
        b = c
    if len(c) < 2 and len(b) < 2:
        return
    table = dyadic_table(c, b)
    assert table.census == _census_by_determinant(c, b)
    assert table.triple_count() == collinear_triples_brute(c, c, b)


@given(_sets(1), st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_translate_dilate_negate_normalize_match_elementwise(one, k):
    (s,) = one
    c = Residue(k, s.p) if s.p is not None else Fraction(k)
    assert translate(s, k) == ArithSet((x + c for x in s.elements), p=s.p)
    assert negate(s) == ArithSet((-x for x in s.elements), p=s.p)
    if c:
        assert dilate(s, k) == ArithSet((x * c for x in s.elements), p=s.p)
    else:
        with pytest.raises(ValueError):
            dilate(s, k)
    nonzero = [x for x in s.elements if x]
    if nonzero:
        got = normalize(s)
        assert 1 in got
        assert len(got) == len(nonzero)


# -- the ArithSet contract ------------------------------------------------------


@given(_sets(1))
@settings(max_examples=100, deadline=None)
def test_fast_constructor_equals_and_hashes_like_the_public_one(one):
    (s,) = one
    fast = ArithSet._from_values(set(s._values), s.p)
    public = ArithSet(s.elements, p=s.p)
    assert fast == public == s
    assert hash(fast) == hash(public)
    assert fast.elements == public.elements
    assert list(fast) == list(public)


@given(FIELD_PRIMES, st.sets(st.integers(-40, 40), max_size=6), st.integers(-60, 60))
@settings(max_examples=150, deadline=None)
def test_prime_field_membership_index_and_zero(p, values, probe):
    s = ArithSet(values, p=p)
    elems = s.elements
    assert all(isinstance(e, Residue) and e.p == p for e in elems)
    assert list(elems) == sorted({Residue(v, p) for v in values})
    # A Residue and an int both test as the residue they denote.
    want = Residue(probe, p) in set(elems)
    assert (Residue(probe, p) in s) == want
    assert (probe in s) == want
    assert (str(probe % p) in s) == want
    # A residue of another modulus is never a member.
    other = 5 if p != 5 else 7
    assert Residue(probe, other) not in s
    if want:
        assert s.index_of(probe) == elems.index(Residue(probe, p))
        assert s.index_of(Residue(probe, p)) == elems.index(Residue(probe, p))
    else:
        with pytest.raises(KeyError):
            s.index_of(probe)
    assert s.contains_zero() == any(not e for e in elems)
    # A rational whose denominator p divides has no residue: it reads as missing.
    off = Fraction(probe if probe % p else probe + 1, p)
    assert off not in s
    t = ArithSet([*values, 1], p=p)
    counts = representation_function(t, t, "plus")
    assert counts.get(off) is None and off not in counts


@given(st.sets(VALUES, max_size=6), VALUES)
@settings(max_examples=100, deadline=None)
def test_rational_membership_index_and_zero(values, probe):
    s = ArithSet(values)
    elems = s.elements
    assert list(elems) == sorted(Fraction(v) for v in values)
    assert (probe in s) == (Fraction(probe) in set(elems))
    assert Residue(1, 7) not in s
    if Fraction(probe) in set(elems):
        assert s.index_of(probe) == elems.index(Fraction(probe))
    else:
        with pytest.raises(KeyError):
            s.index_of(probe)
    assert s.contains_zero() == any(not e for e in elems)


def test_residue_elements_are_built_on_demand():
    s = sumset(ArithSet(range(1, 6), p=31), ArithSet(range(1, 6), p=31))
    assert s._derived is None
    assert repr(s) == "ArithSet({2, 3, 4, 5, 6, 7, 8, 9, ... (9 elements)}, fp 31)"
    assert s._derived is None
    assert s.elements[0] == Residue(2, 31)
    assert s._derived["elements"] is s.elements


def test_membership_index_is_built_on_first_read():
    a = ArithSet([Fraction(1, 2), 3, Fraction(-5, 4)])
    s = ratio_set(product_set(a, a), a)
    assert s._lookup is None
    assert s == ArithSet(s.elements) and hash(s) == hash(ArithSet(s.elements))
    assert s._lookup is None
    assert Fraction(-5, 4) in s and Fraction(7, 5) not in s
    assert s._lookup == frozenset(s.elements)
    assert s._index is s._lookup


# -- popular-ratio walks on int keys ----------------------------------------------


def _walk_by_elements(first, second):
    """(f1 + s)/(f2 + s) over first^2 x second on the elements themselves:
    counts, the lexicographically first tuple of each value, and the tuples
    with a vanishing denominator."""
    counts, witness, skipped = {}, {}, 0
    for f1, f2, s in product(first.elements, first.elements, second.elements):
        if not f2 + s:
            skipped += 1
            continue
        val = (f1 + s) / (f2 + s)
        counts[val] = counts.get(val, 0) + 1
        witness.setdefault(val, (f1, f2, s))
    return counts, witness, skipped


def _with_vanishing(pair, mirror):
    """The pair, with -min(first) added to the second set when ``mirror``,
    so that some denominator f2 + s vanishes."""
    first, second = pair
    if mirror:
        second = ArithSet([*second.elements, -first.elements[0]], p=first.p)
    return first, second


def _degenerate(p):
    """The ratio values 0 and 1, which the ratio sets leave out."""
    return {Fraction(0), Fraction(1)} if p is None else {Residue(0, p), Residue(1, p)}


def _kept_witnesses(first, second):
    """The first generating tuple of each ratio value other than 0 and 1."""
    _, witness, _ = _walk_by_elements(first, second)
    return {val: w for val, w in witness.items() if val not in _degenerate(first.p)}


def _check_walk(first, second):
    counts, _, skipped = _walk_by_elements(first, second)
    keys, quotient = popdiff._ratio_counts(first, second)
    assert keys.pop(None, 0) == skipped
    assert {quotient.value(key): n for key, n in keys.items()} == counts
    if len(first) < 2 or len(second) < 2:
        return
    rs = build_ratio_sets(first, second)
    degenerate = _degenerate(first.p)
    kept = {val: n for val, n in counts.items() if val not in degenerate}
    assert rs.x_set == ArithSet(kept, p=first.p)
    assert rs.skipped_x == skipped + sum(counts.get(val, 0) for val in degenerate)
    assert rs.total_x == sum(kept.values())
    assert rs.collisions_x == sum(n * n for n in kept.values())


@given(_sets(2, max_size=5), st.booleans())
@settings(max_examples=150, deadline=None)
def test_ratio_walk_matches_elementwise(pair, mirror):
    first, second = _with_vanishing(pair, mirror)
    _check_walk(first, second)
    _check_walk(second, first)


@given(FIELD_PRIMES.flatmap(lambda p: st.tuples(_set_in(p), _set_in(p))), st.booleans())
@settings(max_examples=80, deadline=None)
def test_ratio_walk_over_prime_fields_with_minus_one(pair, both):
    # -1 in the first set and 1 in the second make f2 + s vanish.
    first, second = pair
    p = first.p
    first = ArithSet([*first.elements, Residue(-1, p)], p=p)
    if both:
        second = ArithSet([*second.elements, Residue(1, p)], p=p)
    _check_walk(first, second)


@pytest.mark.parametrize(
    "spec", ["subgroup:p=13,d=4", "subgroup:p=31,d=6", "gp:q=2,n=6", "ap:a=-3,d=1,n=7"]
)
def test_ratio_walk_on_families(spec):
    a = generate(parse_family(spec))
    _check_walk(a, a)
    _check_walk(a, negate(a))


@given(_sets(1, max_size=6), st.lists(st.booleans(), min_size=36, max_size=36), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_popular_ratio_multiplicity_matches_elementwise(one, keep, tau):
    (b,) = one
    sums = [x for x in sumset(b, b).elements if x]
    a = ArithSet([x for x, k in zip(sums, keep) if k], p=b.p)
    if not len(a):
        return
    graph = build_containment_graph(b, a)
    cert = popdiff.build_popular_ratios(graph, b, tau)
    want = {}
    for b1, b2, _count in rich_pairs(graph, tau):
        for bk in b.elements:
            if b1 + bk in a and b2 + bk in a:
                x = (b2 + bk) / (b1 + bk)
                want[x] = want.get(x, 0) + 1
    assert cert.multiplicity == want
    assert cert.triples_total == sum(want.values())
    assert cert.ratios == ArithSet(want, p=b.p)


# -- the rational pair kernel on scaled ints ---------------------------------------


def _rationals(max_denominator):
    return st.one_of(
        st.integers(-20, 20),
        st.fractions(min_value=-12, max_value=12, max_denominator=max_denominator),
    )


def _rational_set(max_denominator=12, max_size=7):
    return st.sets(_rationals(max_denominator), min_size=1, max_size=max_size).map(ArithSet)


#: (s, t) over Q with their own denominators, or s = t.
RATIONAL_PAIRS = st.one_of(
    st.tuples(_rational_set(12), _rational_set(7)),
    _rational_set(12).map(lambda s: (s, s)),
)


#: D = 6: every sum lies in (1/6)Z and every product in (1/36)Z, and 1/7 in neither.
SIXTHS = (ArithSet([Fraction(1, 2), Fraction(1, 3)]), ArithSet([1, Fraction(1, 6)]))


@given(RATIONAL_PAIRS, st.sampled_from(sorted(OPS)), _rationals(40))
@settings(max_examples=200, deadline=None)
@example(SIXTHS, "plus", Fraction(1, 7))
@example(SIXTHS, "times", Fraction(1, 7))
def test_rational_representation_function_matches_a_fraction_counter(pair, op, probe):
    s, t = pair
    fn = OPS[op][1]
    want = Counter(fn(u, v) for u in s.elements for v in t.elements if op != "divide" or v)
    if not want:
        return
    counts = representation_function(s, t, op)
    assert list(counts.items()) == list(want.items())
    assert list(counts.values()) == list(want.values())
    # Lookups: on or off the kernel's lattice, 0, and keys of no rational.
    for x in (probe, 0, Fraction(0), int(probe)):
        assert counts.get(x) == want.get(Fraction(x))
        assert (x in counts) == (Fraction(x) in want)
    for x in want:
        assert counts[x] == want[x]
        assert str(x) not in counts
        assert counts.get(str(x)) is None
        if x.denominator == 1:
            assert Residue(x.numerator, 7) not in counts


def test_rational_pair_counts_miss_off_the_lattice():
    s, t = SIXTHS
    for op in ("plus", "minus", "times", "divide"):
        counts = representation_function(s, t, op)
        assert Fraction(1, 7) not in counts
        with pytest.raises(KeyError):
            counts[Fraction(1, 7)]
        assert counts.get(Residue(1, 7)) is None
        assert counts.get("1/2") is None
        assert counts.get(1.5) is None
    assert representation_function(s, t, "plus")[Fraction(2, 3)] == 1
    assert 0 not in representation_function(s, t, "minus")
    assert representation_function(s, s, "minus")[0] == 2
    assert representation_function(s, t, "divide")[Fraction(1, 2)] == 1
    assert representation_function(s, t, "times")[Fraction(1, 18)] == 1


@given(RATIONAL_PAIRS)
@settings(max_examples=150, deadline=None)
def test_rational_set_operations_match_fraction_sets(pair):
    s, t = pair
    for build, fn in (
        (sumset, lambda u, v: u + v),
        (difference_set, lambda u, v: u - v),
        (product_set, lambda u, v: u * v),
    ):
        want = sorted({fn(u, v) for u in s.elements for v in t.elements})
        assert list(build(s, t)) == want
    if not t.contains_zero():
        want = sorted({u / v for u in s.elements for v in t.elements})
        assert list(ratio_set(s, t)) == want
    if not s.contains_zero():
        products = {u * v for u in s.elements for v in s.elements}
        want = sorted({x / v for x in products for v in s.elements})
        got = aa_over_a(s)
        assert list(got) == want
        assert got == ArithSet(want)


@given(
    _rational_set(6, max_size=6),
    _rational_set(20, max_size=6),
    st.lists(st.booleans(), min_size=36, max_size=36),
)
@settings(max_examples=150, deadline=None)
def test_containment_adjacency_when_denominators_differ(basis, extra, keep):
    # A holds some sums of B (on B's lattice) and values with other
    # denominators, most of them off that lattice.
    sums = [b1 + b2 for b1 in basis.elements for b2 in basis.elements]
    target = ArithSet([x for x, k in zip(sums, keep) if k] + list(extra.elements))
    graph = build_containment_graph(basis, target)
    elems = basis.elements
    for i, b1 in enumerate(elems):
        for j, b2 in enumerate(elems):
            assert bool(graph.adjacency[i] >> j & 1) == ((b1 + b2) in target)
    assert graph.edges == sum(1 for x in sums if x in target)


@given(st.sets(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**4)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_quotient_sort_key_orders_like_fractions(pairs):
    # Distinct reduced (num, den) keys, as the quotient kernel makes them.
    keys = {(f.numerator, f.denominator) for f in map(lambda k: Fraction(*k), pairs)}
    ordered = _Keys(None, None).sort(keys)
    assert [Fraction(*k) for k in ordered] == sorted(Fraction(*k) for k in keys)
    assert _Keys(None, None).ordered(keys) == tuple(sorted(Fraction(*k) for k in keys))


@given(_rational_set(12, max_size=8), _rationals(40).filter(bool))
@settings(max_examples=200, deadline=None)
def test_rational_shift_intersection_matches_the_translate_route(a, alpha):
    want = len(a._index & translate(a, alpha)._index)
    assert shift_intersection(a, alpha) == want
    # Every difference of A is a shift with a nonzero overlap.
    for x in a.elements:
        for y in a.elements:
            if x != y:
                want = len(a._index & translate(a, x - y)._index)
                assert shift_intersection(a, x - y) == want >= 1


#: x = 1 - α for the lattice shift α = 1/3 - 1/2 of D below, and for a shift off it.
HALVES_AND_THIRDS = ArithSet([Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), 2])


@given(
    MODES.flatmap(
        lambda p: st.tuples(
            _set_in(p, max_size=7),
            st.integers(-40, 40) if p is not None else _rationals(40),
        )
    )
)
@settings(max_examples=300, deadline=None)
@example((HALVES_AND_THIRDS, Fraction(7, 6)))
@example((HALVES_AND_THIRDS, Fraction(1, 7)))
@example((ArithSet([0, 1, 3], p=7), 1))
@example((ArithSet([0, 1], p=2), 0))
def test_one_minus_x_solutions_match_elementwise_pairs(case):
    d, x = case
    one = Fraction(1) if d.p is None else Residue(1, d.p)
    x = x if d.p is None else Residue(x, d.p)
    want = sum(1 for a1 in d.elements for a2 in d.elements if a1 - a2 == one - x)
    assert popdiff.one_minus_x_solutions(x, d) == want
    assert popdiff.one_minus_x_solutions(1, d) == len(d)


def _witness_solutions_min(witness, other):
    """The fewest distinct solution pairs (y, x*) of 1 - x = y(1 - x*) over
    the witnesses (f1, f2, s) of x, with c' run over ``other``, y = (f2 + c')
    / (f2 + s) and x* = (f1 + c')/(f2 + c'), in field arithmetic."""
    counts = [
        len({((f2 + t) / (f2 + s), (f1 + t) / (f2 + t)) for t in other.elements if f2 + t})
        for f1, f2, s in witness.values()
    ]
    return min(counts, default=0)


# |A| <= 9 keeps small the energy E_+((AA)/A) that sumset_energy_bounds also computes.
@given(_sets(2, min_size=2, max_size=3))
@settings(max_examples=100, deadline=None)
@example((ArithSet([1, Fraction(3, 2), 4]), ArithSet([Fraction(-1, 3), 2])))
@example((ArithSet([1, 2, 3], p=13), ArithSet([3, 5], p=13)))
def test_sumset_energy_solution_counts_match_elementwise_pairs(pair):
    b, c = pair
    a = sumset(b, c)
    if min(len(b), len(c)) < 2 or a.contains_zero():  # residues can coincide mod p
        return
    rep = popdiff.sumset_energy_bounds(a, b, c)
    x_witness = _kept_witnesses(b, c)
    y_witness = _kept_witnesses(c, b)
    assert rep.x_solutions_min == _witness_solutions_min(x_witness, c)
    assert rep.y_solutions_min == _witness_solutions_min(y_witness, b)
    # With 0 outside A = B + C no f2 + c' vanishes: every x has |C| solutions.
    assert rep.x_solutions_min == (len(c) if x_witness else 0)
    assert rep.y_solutions_min == (len(b) if y_witness else 0)


# -- Sidon sets and difference solutions on int keys ----------------------------


@given(_sets(1, max_size=7))
@settings(max_examples=200, deadline=None)
@example((ArithSet([1, 2, 4, 8]),))
@example((ArithSet([Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)]),))
@example((ArithSet([0, 1, 3], p=7),))
@example((ArithSet([0, 1, 3, 5], p=7),))
def test_is_sidon_matches_the_additive_energy(one):
    (s,) = one
    n = len(s)
    assert is_sidon(s) == (additive_energy(s) == 2 * n * n - n)
    elems = s.elements
    sums = [u + v for i, u in enumerate(elems) for v in elems[i:]]
    assert is_sidon(s) == (len(set(sums)) == len(sums))


def _check_difference_solutions(basis, target, keep):
    graph = build_containment_graph(basis, target)
    subset = ArithSet([b for b, k in zip(basis.elements, keep) if k], p=basis.p)
    if not len(subset):
        return
    report = difference_solution_report(graph, subset, 2)
    diffs = Counter(x - y for x in target.elements for y in target.elements)
    elems = subset.elements
    want = [(b1, b2, diffs.get(b1 - b2, 0)) for b1 in elems for b2 in elems]
    assert [row[:3] for row in report.pairs] == want
    for b1, b2, _, common in report.pairs:
        i, j = graph.basis.index_of(b1), graph.basis.index_of(b2)
        assert common == graph.common_neighbors(i, j)


@given(
    _rational_set(6, max_size=5),
    _rational_set(20, max_size=5),
    _rationals(20),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_rational_difference_solutions_match_fraction_differences(basis, extra, shift, keep):
    # A holds a translate of part of B, whose differences are those of B,
    # and values with other denominators.
    moved = [b + shift for b, k in zip(basis.elements, keep) if not k]
    target = ArithSet(list(extra.elements) + moved)
    _check_difference_solutions(basis, target, keep)


@given(_sets(2, modes=FIELD_PRIMES, max_size=5), st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_prime_field_difference_solutions_match_residue_differences(pair, keep):
    basis, target = pair
    _check_difference_solutions(basis, target, keep)


# -- ceilings before the work -----------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("points were built before the ceiling was checked")


@pytest.mark.parametrize("p", [None, 10009])
def test_pair_ceiling_checked_before_any_point_is_built(monkeypatch, p):
    monkeypatch.setattr(incidence, "_union_points", _refuse)
    monkeypatch.setattr(incidence, "_slope_table", _refuse)
    x = ArithSet(range(100), p=p)
    y = ArithSet(range(50, 150), p=p)
    z = ArithSet(range(-20, 80), p=p)
    # |X^2 ∪ Y^2 ∪ Z^2| = 3 * 10,000 - 50^2 - 30^2 - 80^2 + 30^2 = 21,100 points,
    # which make 21,100 * 21,099 / 2 = 222,594,450 pairs.
    with pytest.raises(CeilingExceeded) as err:
        collinear_triples(x, y, z)
    assert (err.value.requested, err.value.ceiling) == (222_594_450, 100_000_000)
    # |X^2 ∪ Y^2| = 2 * 10,000 - 50^2 = 17,500 points: 153,116,250 pairs.
    with pytest.raises(CeilingExceeded) as err:
        dyadic_table(x, y)
    assert (err.value.requested, err.value.ceiling) == (153_116_250, 100_000_000)


@pytest.mark.parametrize("p", [None, 10009])
def test_brute_ceiling_checked_before_any_grid_is_built(monkeypatch, p):
    monkeypatch.setattr(incidence, "_int_values", _refuse)
    x = ArithSet(range(1200), p=p)
    with pytest.raises(CeilingExceeded) as err:
        collinear_triples_brute(x, x, x)
    assert (err.value.requested, err.value.ceiling) == (1200**6, 5_000_000)


def test_grid_triples_ceiling_row_unchanged_without_points(monkeypatch):
    monkeypatch.setattr(incidence, "_union_points", _refuse)
    a = generate(parse_family("subgroup:p=10009,d=278"))
    rec = run_claim("grid_triples", a)
    m = 278 * 278
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (m * (m - 1) // 2, 100_000_000)
