"""The dilation stabilizer of an F_p set and the orbit routes built on it:
representation functions counted at one residue per orbit
(:func:`sumprodlab.sets._orbit_counts`), and from them sigma_A(B) and the
set sizes of ``stats``; collinear triples keyed at one a per orbit
(:func:`sumprodlab.incidence.collinear_triples`); and containment-graph
rows rotated only on the orbits of a nonzero row
(:func:`sumprodlab.graph._orbit_rows`).  Each is held against the
unreduced route, and the stabilizer against a brute-force search, on
unions of cosets of random subgroups, with and without 0."""

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprodlab import cyclic, energy, graph, incidence, sets, verify
from sumprodlab.energy import energy_from_counts, multiplicative_energy, representation_function
from sumprodlab.families import multiplicative_subgroup
from sumprodlab.field import CeilingExceeded, Residue, log_tables
from sumprodlab.graph import ContainmentGraph
from sumprodlab.sets import (
    ArithSet,
    PairCounts,
    difference_set,
    dilate,
    negate,
    product_set,
    sumset,
)

OPS = ("plus", "minus", "times", "divide")
PRIMES = (2, 3, 5, 7, 11, 13, 29, 31, 37, 41, 61, 73, 101, 151, 181, 199)


def coset_union(p, order, picks, zero, x):
    """x times the union of the cosets ω^j H (j in ``picks``) of the
    subgroup H of F_p* of the given order, with 0 added if ``zero``."""
    n = p - 1
    exp, _ = log_tables(p)
    step = n // order
    values = {exp[j % step + k * step] for j in picks for k in range(order)}
    if zero:
        values.add(0)
    return ArithSet({v * x % p for v in values}, p=p)


@st.composite
def unions(draw, primes=PRIMES, base=1):
    """A dilate of a union of cosets of a random subgroup of F_p* whose
    order is a multiple of ``base``, with or without 0."""
    p = draw(st.sampled_from(primes))
    n = p - 1
    order = draw(st.sampled_from([d for d in range(base, p, base) if n % d == 0]))
    picks = draw(st.sets(st.integers(0, n // order - 1), min_size=1, max_size=6))
    return coset_union(p, order, picks, draw(st.booleans()), draw(st.integers(1, n)))


def brute_stabilizer(a):
    p = a.p
    values = set(a._values)
    return {g for g in range(1, p) if {g * v % p for v in values} == values}


def walk(s, op):
    rows, _ = sets._pair_rows(s, s, op)
    return dict(Counter(chain.from_iterable(rows)))


def on_orbits(s, op):
    """r_{s op s} on the orbit route, whatever the rule picks."""
    step, logs = sets._stabilizer(s._values, s.p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "_count_route", lambda *_: ("orbit", step, logs))
        return PairCounts(s, s, op)


def check_orbits(s, op):
    want = walk(s, op)
    got = on_orbits(s, op)
    p = s.p
    assert got._counts is None  # nothing spread yet
    assert len(got) == len(want)
    assert energy_from_counts(got) == sum(r * r for r in want.values())
    for x in range(p):
        assert got.get(x, 0) == got.get(Residue(x, p), 0) == want.get(x, 0)
        assert (x in got) == (x in want)
    assert got.get("1", 0) == 0 and got.get(Residue(1, 2 if p > 2 else 3), 0) == 0
    keys, counts = got.table()
    assert dict(counts) == want and keys.p == p
    assert sorted(got) == sorted(Residue(x, p) for x in want)


@settings(max_examples=300, deadline=None)
@given(unions())
def test_stabilizer_matches_brute_force(a):
    step, logs = sets._stabilizer(a._values, a.p)
    exp, log = log_tables(a.p)
    assert logs == cyclic.mask([log[v] for v in a._values if v], a.p - 1)
    assert brute_stabilizer(a) == {exp[k] for k in range(0, a.p - 1, step)}


@settings(max_examples=60, deadline=None)
@given(unions(), st.integers(2, 10**6))
def test_a_dilate_keeps_the_stabilizer(a, x):
    if x % a.p:
        assert sets._stabilizer(dilate(a, x)._values, a.p)[0] == sets._stabilizer(a._values, a.p)[0]


def test_period_of_plain_masks():
    n = 12
    assert cyclic.period(0, n) == 1
    assert cyclic.period(cyclic.mask(range(n), n), n) == 1
    assert cyclic.period(cyclic.mask([0, 4, 8], n), n) == 4
    assert cyclic.period(cyclic.mask([1, 3, 5, 7, 9, 11], n), n) == 2
    assert cyclic.period(cyclic.mask([0, 1, 6, 7], n), n) == 6
    assert cyclic.period(cyclic.mask([0, 1], n), n) == n


@settings(max_examples=200, deadline=None)
@given(unions(), st.sampled_from(OPS))
def test_orbit_counts_match_the_pair_walk(a, op):
    check_orbits(a, op)


SEEDED = [(13, 4), (31, 5), (41, 8), (101, 25), (1009, 36), (10009, 139)]


@pytest.mark.parametrize("p, order", SEEDED)
@pytest.mark.parametrize("zero", [False, True])
def test_seeded_cosets_on_the_orbit_route(p, order, zero):
    a = coset_union(p, order, [0], zero, random.Random(p).randrange(1, p))
    for op in OPS:
        check_orbits(a, op)
    if p >= 1009:  # large enough for the rule to take the orbit route
        assert sets._count_route(a, a)[:2] == ("orbit", (p - 1) // order)
        assert representation_function(a, a, "times", ceiling=None).square_sum() == sum(
            r * r for r in walk(a, "times").values()
        )
    assert a._derived is None  # the stabilizer is not kept on the set


def unreduced(x, y, z):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incidence, "_orbit_firsts", lambda values, p: (1, values[0]))
        return incidence.collinear_triples(x, y, z)


@st.composite
def grids(draw, primes):
    """Three unions of cosets of F_p, each of its own random subgroup, the
    three subgroups sharing one of a random order."""
    p = draw(st.sampled_from(primes))
    base = draw(st.sampled_from([d for d in range(1, p) if (p - 1) % d == 0]))
    return [draw(unions(primes=(p,), base=base)) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(grids((7, 13, 31, 37, 61, 73)))
def test_orbit_reduced_triples_match_the_unreduced_route(sets3):
    x, y, z = sets3
    p = x.p
    common = brute_stabilizer(x) & brute_stabilizer(y) & brute_stabilizer(z)
    values = [list(s._values) for s in sets3]
    weight, firsts = incidence._orbit_firsts(values, p)
    if weight > 1:
        assert weight == len(common) and len(firsts) * weight == len(x) - x.contains_zero()
        assert sorted({g * a % p for a in firsts for g in common}) == [a for a in values[0] if a]
    assert incidence.collinear_triples(x, y, z) == unreduced(x, y, z)


@settings(max_examples=60, deadline=None)
@given(grids((5, 7, 11, 13, 29, 31)))
def test_orbit_reduced_triples_match_the_brute_force_oracle(sets3):
    x, y, z = sets3
    assume(len(x) * len(y) * len(z) <= 400)
    assert incidence.collinear_triples(x, y, z) == incidence.collinear_triples_brute(x, y, z)


@pytest.mark.parametrize("p, order", [(13, 4), (31, 6), (31, 10), (1009, 28)])
def test_seeded_triples_on_a_coset_and_its_negation(p, order):
    h = coset_union(p, order, [0], False, 3)
    with_zero = coset_union(p, order, [0], True, 3)
    values = [list(h._values)] * 3
    assert incidence._orbit_firsts(values, p)[0] == order
    for x, y, z in [(h, h, h), (h, h, negate(h)), (with_zero, h, with_zero), (h, with_zero, h)]:
        assert incidence.collinear_triples(x, y, z) == unreduced(x, y, z)
    if p == 1009:
        assert incidence.collinear_triples(h, h, h) == 1989792


@pytest.mark.parametrize("order, triples", [(139, 1_744_106_670), (278, 62_104_804_128)])
def test_large_triple_counts_are_pinned(monkeypatch, order, triples):
    """T(H, H, H) for the order-139 and order-278 subgroups of F_10009.  The
    pair guard refuses both at its default; it is lifted here only."""
    h = multiplicative_subgroup(10009, order)
    with pytest.raises(CeilingExceeded):
        incidence.collinear_triples(h, h, h)
    monkeypatch.setattr(incidence, "DEFAULT_PAIR_CEILING", None)
    assert incidence.collinear_triples(h, h, h) == triples


def test_multiplicative_energy_of_h_plus_h_is_pinned_at_order_278():
    h = multiplicative_subgroup(10009, 278)
    hh = sumset(h, h)
    assert len(hh) == 9731 and sets._count_route(hh, hh)[:2] == ("orbit", 36)
    counts = representation_function(hh, hh, "times", ceiling=None)
    assert energy_from_counts(counts) == 895_978_954_641


def brute_orbits(values, p, budget=None):
    """:func:`sumprodlab.sets._orbit_firsts` with no cost rule: G is the
    intersection of the brute-force stabilizers of the lists."""
    common = set.intersection(*(brute_stabilizer(ArithSet(v, p=p)) for v in values))
    step = (p - 1) // len(common)
    _, log = log_tables(p)
    return len(common), [a for a in values[0] if a and log[a] < step]


@st.composite
def coset_pairs(draw):
    """A and B, unions of cosets of F_p each of its own random subgroup, the
    two subgroups sharing one of order at least 2."""
    p = draw(st.sampled_from(PRIMES[1:]))
    base = draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
    return draw(unions(primes=(p,), base=base)), draw(unions(primes=(p,), base=base))


def walk_rows(basis, target):
    """The containment-graph rows from testing every pair sum against A."""
    p, index = basis.p, target._index
    return [
        sum(1 << j for j, v in enumerate(basis._values) if (u + v) % p in index)
        for u in basis._values
    ]


@settings(max_examples=200, deadline=None)
@given(coset_pairs())
def test_orbit_graph_rows_match_the_pair_walk(pair):
    a, b = pair
    assume(len(b) >= 2)  # the index map of the rows needs two residues
    want = walk_rows(b, a)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_orbit_firsts", brute_orbits)
        assert graph._orbit_rows(b, a) == want
        assert graph._orbit_rows(b, b) == walk_rows(b, b)
    got = ContainmentGraph(b, a)
    assert list(got.adjacency) == want and got.edges == sum(r.bit_count() for r in want)


@settings(max_examples=200, deadline=None)
@given(coset_pairs(), st.sampled_from(["plus", "minus"]))
def test_orbit_sigma_matches_the_rotated_route_and_the_pair_walk(pair, op):
    a, b = pair
    p, sign = a.p, 1 if op == "plus" else -1
    hits = Counter((u + sign * v) % p for u in b._values for v in b._values)
    want = sum(hits[x] for x in a._values), all(hits[x] for x in a._values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy, "_bitset_route", lambda *_: True)
        patch.setattr(energy, "_orbit_firsts", brute_orbits)
        assert energy._sigma(a, b, op) == energy._rotated_sigma(a, b, op) == want
    assert energy._sigma(a, b, op) == want


def test_orbit_sigma_reads_r_at_zero_apart():
    """0 in A, and no two elements of B sum to 0 (the coset of odd order
    5 in F_31 misses its negation): every pair of B sums into A = {0} ∪
    (B + B), yet A is not inside B + B."""
    b = coset_union(31, 5, [0], False, 3)
    a = ArithSet([0, *sumset(b, b)._values], p=31)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy, "_bitset_route", lambda *_: True)
        patch.setattr(energy, "_orbit_firsts", brute_orbits)
        assert energy._sigma(a, b, "plus") == energy._rotated_sigma(a, b, "plus") == (25, False)


@settings(max_examples=200, deadline=None)
@given(coset_pairs(), st.sampled_from(OPS))
def test_set_operations_of_coset_unions_match_the_pair_walk(pair, op):
    """The bitset route shifts a log mask of period t once per residue mod t
    (:func:`sumprodlab.cyclic.sums`); the sets equal the pair walk's."""
    s, t = pair
    rows, keys = sets._pair_rows(s, t, op)
    assert sets._rotated(s, t, op) == sorted(set(chain.from_iterable(rows)))


def every_orbit(s, t):
    """The orbit route for every representation function, whatever the rule."""
    if t != s:
        return sets._packed_route(len(s), len(t), s.p), 0, 0
    return ("orbit", *sets._stabilizer(s._values, s.p))


@settings(max_examples=100, deadline=None)
@given(unions())
def test_stats_sizes_match_the_materialized_sets(a):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "_count_route", every_orbit)
        stats = verify.stats_record(a).details
        plus, minus = (verify.sumset_energy_check(a, sign) for sign in ("plus", "minus"))
    assert stats["sumset"] == len(sumset(a, a)) == plus.size_b
    assert stats["difference_set"] == len(difference_set(a, a)) == minus.size_b
    assert stats["product_set"] == len(product_set(a, a))
    assert plus.lhs == multiplicative_energy(sumset(a, a))
    assert minus.lhs == multiplicative_energy(difference_set(a, a))


@pytest.mark.parametrize("order", [139, 278])
def test_benchmark_cosets_take_the_orbit_route_for_graphs_and_sigma(order):
    h = dilate(multiplicative_subgroup(10009, order), 11)
    weight, firsts = sets._orbit_firsts([h._values] * 2, 10009, order)
    assert weight == order and len(firsts) == 1  # h is one coset of its stabilizer
    assert graph._orbit_rows(h, h) == [0] * order
    assert energy._sigma(h, h, "minus") == (0, False)
    hh = sumset(h, h)
    assert graph._orbit_rows(h, hh) == [(1 << order) - 1] * order
    assert energy._sigma(hh, h, "plus") == (order**2, True)
