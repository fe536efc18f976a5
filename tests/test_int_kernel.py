"""The pair kernel under ArithSet against element-wise oracles, in both field
modes: rationals, and several small primes, where the sets store ints mod p.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import incidence
from sumprodlab.energy import (
    additive_energy,
    energy_quadruples,
    multiplicative_energy,
    representation_function,
)
from sumprodlab.families import generate, parse_family
from sumprodlab.field import CeilingExceeded, Residue
from sumprodlab.graph import build_containment_graph
from sumprodlab.incidence import collinear_triples, collinear_triples_brute, dyadic_table
from sumprodlab.sets import (
    ArithSet,
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


@given(_sets(3, max_size=4), st.sampled_from(["distinct", "y=z", "x=y", "x=y=z"]))
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


@given(_sets(2, modes=FIELD_PRIMES, max_size=5))
@settings(max_examples=80, deadline=None)
def test_dyadic_table_triple_count_over_prime_fields(pair):
    c, b = pair
    if len(c) < 2 and len(b) < 2:
        return
    table = dyadic_table(c, b)
    assert table.triple_count() == collinear_triples(c, c, b)
    assert table.pair_identity_ok()


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
    assert s._elements is None
    assert repr(s) == "ArithSet({2, 3, 4, 5, 6, 7, 8, 9, ... (9 elements)}, fp 31)"
    assert s._elements is None
    assert s.elements[0] == Residue(2, 31)
    assert s._elements is s.elements


# -- ceilings before the work -----------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("points were built before the pair ceiling was checked")


@pytest.mark.parametrize("p", [None, 10009])
def test_pair_ceiling_checked_before_any_point_is_built(monkeypatch, p):
    monkeypatch.setattr(incidence, "_union_points", _refuse)
    x = ArithSet(range(1, 9), p=p)
    y = ArithSet(range(5, 13), p=p)
    z = ArithSet(range(-3, 4), p=p)
    # |X^2 ∪ Y^2 ∪ Z^2| = 64 + 64 + 49 - 16 - 9 - 0 + 0 = 152 points.
    m = 152
    with pytest.raises(CeilingExceeded) as err:
        collinear_triples(x, y, z, pair_ceiling=100)
    assert (err.value.requested, err.value.ceiling) == (m * (m - 1) // 2, 100)
    # |X^2 ∪ Y^2| = 64 + 64 - 16 = 112 points.
    with pytest.raises(CeilingExceeded) as err:
        dyadic_table(x, y, pair_ceiling=100)
    assert (err.value.requested, err.value.ceiling) == (112 * 111 // 2, 100)


def test_grid_triples_ceiling_row_unchanged_without_points(monkeypatch):
    monkeypatch.setattr(incidence, "_union_points", _refuse)
    a = generate(parse_family("subgroup:p=10009,d=278"))
    rec = run_claim("grid_triples", a)
    m = 278 * 278
    assert rec.verdict == "ceiling"
    assert (rec.lhs, rec.rhs) == (m * (m - 1) // 2, 100_000_000)
