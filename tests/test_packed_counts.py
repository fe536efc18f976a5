"""The packed big-int route of F_p representation functions, held against
the pair walk (its oracle) and the quadruple enumeration, and the rule that
picks between them."""

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import cyclic, sets
from sumprodlab.energy import (
    additive_energy,
    energy_from_counts,
    energy_quadruples,
    multiplicative_energy,
    representation_function,
    shift_intersection,
    sigma,
)
from sumprodlab.families import multiplicative_subgroup
from sumprodlab.field import Residue
from sumprodlab.sets import ArithSet, PairCounts, dilate, sumset

OPS = ("plus", "minus", "times", "divide")
PRIMES = (2, 3, 5, 31, 1009, 10009)


def walk(s, t, op):
    """r_{s op t} from the pair walk, whatever the rule picks."""
    rows, _ = sets._pair_rows(s, t, op)
    return dict(Counter(chain.from_iterable(rows)))  # a Counter would match zero counts


def check(s, t, op):
    want = walk(s, t, op)
    assert sets._packed_counts(s, t, op) == want
    got = PairCounts(s, t, op)
    assert got._counts == want and len(got) == len(want)
    assert sorted(got.values()) == sorted(want.values())
    p = s.p
    for x in (0, 1, p - 1):
        assert got.get(x, 0) == got.get(Residue(x, p), 0) == want.get(x % p, 0)


def residues(p, size, rng, zero=None):
    """``size`` residues mod p; with ``zero`` set, 0 is forced in or out."""
    pool = range(p) if zero is None else range(1, p)
    picked = rng.sample(pool, min(size, len(pool)))
    if zero:
        picked[0] = 0
    return ArithSet(picked, p=p)


@st.composite
def fp_pairs(draw):
    p = draw(st.sampled_from(PRIMES[:5]))
    cap = min(p, 60)
    s = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=cap))
    if draw(st.booleans()):
        return ArithSet(s, p=p), ArithSet(s, p=p)
    t = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=cap))
    return ArithSet(s, p=p), ArithSet(t, p=p)


@settings(max_examples=200, deadline=None)
@given(fp_pairs(), st.sampled_from(OPS))
def test_packed_counts_match_pair_walk(pair, op):
    check(*pair, op)


@pytest.mark.parametrize("p", PRIMES)
def test_seeded_cases_on_both_sides_of_the_rule(p):
    rng = random.Random(p)
    routes = set()
    root = max(1, round(p**0.5))
    for m, n in [(1, 1), (1, p), (p, 1), (root, root), (2 * root, 2 * root), (3, p // 2 + 1)]:
        for zero_s in (None, True, False):
            for zero_t in (None, True, False):
                s, t = residues(p, m, rng, zero_s), residues(p, n, rng, zero_t)
                routes.add(sets._packed_route(len(s), len(t), p))
                for op in OPS:
                    check(s, t, op)
                    if len(s) ** 2 <= 4 * p:  # the oracle walks |s|^2 pairs
                        check(s, s, op)
    assert routes == ({False} if p == 2 else {True, False})


@pytest.mark.parametrize("size", [255, 256])
def test_counts_at_the_one_and_two_byte_field_boundary(size):
    """An interval of 255 elements gives r_{s+s}(254) = 255, the largest
    1-byte count; 256 elements need 2-byte fields."""
    p = 10009
    interval = ArithSet(range(size), p=p)
    other = ArithSet(range(1, size + 1), p=p)
    assert cyclic.field_bytes(size) == (1 if size == 255 else 2)
    assert sets._packed_route(size, size, p)
    for op in OPS:
        check(interval, interval, op)
        check(interval, other, op)
    assert PairCounts(interval, interval, "plus")[size - 1] == size
    assert PairCounts(interval, interval, "minus")[0] == size


@pytest.mark.parametrize("p, order", [(1021, 255), (257, 256)])
def test_subgroup_counts_fill_their_fields(p, order):
    """In a subgroup H of order 255 or 256, r_{H·H} and r_{H/H} are |H| on
    every element of H; with 0 added, r(0) = 2|H| + 1."""
    h = multiplicative_subgroup(p, order)
    with_zero = ArithSet([0, *h._values], p=p)
    for op in ("times", "divide"):
        assert set(PairCounts(h, h, op).values()) == {order}
        check(h, h, op)
        check(with_zero, with_zero, op)
        check(h, with_zero, op)
    assert PairCounts(with_zero, with_zero, "times")[0] == 2 * order + 1
    assert PairCounts(with_zero, h, "divide")[0] == order
    assert 0 not in PairCounts(h, with_zero, "divide")


def test_quotients_skip_zero_divisors():
    p = 31
    zero = ArithSet([0], p=p)
    full = ArithSet(range(p), p=p)
    assert sets._packed_counts(full, zero, "divide") == {} == walk(full, zero, "divide")
    counts = sets._packed_counts(full, full, "divide")
    assert counts[0] == p - 1 and sum(counts.values()) == p * (p - 1)


def test_an_unknown_operation_is_refused_on_both_routes():
    big = ArithSet(range(200), p=1009)
    for s in (big, ArithSet(range(3), p=1009)):
        with pytest.raises(ValueError, match="unknown operation"):
            PairCounts(s, s, "power")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(5, 4), (31, 8)]).flatmap(
        lambda case: st.sets(st.integers(0, case[0] - 1), min_size=case[1], max_size=10).map(
            lambda xs: ArithSet(xs, p=case[0])
        )
    )
)
def test_energies_match_quadruple_enumeration(s):
    """Sets small enough for the |S|^4 oracle and large enough for the rule:
    4 or 5 residues mod 5, 8 to 10 mod 31."""
    assert sets._packed_route(len(s), len(s), s.p)
    assert additive_energy(s) == energy_quadruples(s, "plus")
    assert multiplicative_energy(s) == energy_quadruples(s, "times")


def test_multiplicative_energy_of_h_plus_h_is_pinned():
    """E_x(H + H) for the order-139 subgroup of F_10009: 5838² pairs, far
    past the default ceiling, counted from one packed product."""
    h = multiplicative_subgroup(10009, 139)
    hh = sumset(h, h)
    assert len(hh) == 5838 and sets._packed_route(len(hh), len(hh), 10009)
    counts = representation_function(hh, hh, "times", ceiling=None)
    assert energy_from_counts(counts) == 117_619_369_724


def refuse(*args):
    raise AssertionError("the packed route was taken")


def test_route_rule_keeps_the_pair_walk(monkeypatch):
    monkeypatch.setattr(sets, "_packed_counts", refuse)
    rational = ArithSet(range(1, 41))
    coset = dilate(multiplicative_subgroup(1009, 28), 3)
    small = dilate(multiplicative_subgroup(10009, 139), 5)
    past = ArithSet(random.Random(2).sample(range(1, 20011), 800), p=20011)
    for a in (rational, coset, small, past):
        for op in OPS:
            representation_function(a, a, op)
        additive_energy(a), multiplicative_energy(a)
        sigma(a, a, "plus"), sigma(a, a, "minus")
        shift_intersection(a, a._values[1] - a._values[0])
    big = dilate(multiplicative_subgroup(10009, 278), 7)
    with pytest.raises(AssertionError, match="packed route"):
        additive_energy(big)
    with pytest.raises(AssertionError, match="packed route"):
        representation_function(big, big, "minus")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000).flatmap(lambda n: st.sets(st.integers(0, n - 1)).map(lambda s: (n, s))))
def test_members_reads_sparse_and_dense_masks(case):
    """Both read-backs of :func:`sumprodlab.cyclic.members`: by nonzero bytes
    at most a quarter full, by binary digits above."""
    n, values = case
    assert cyclic.members(cyclic.mask(values, n)) == sorted(values)


def test_members_on_both_sides_of_a_quarter():
    rng = random.Random(4)
    for k in (0, 1, 248, 249, 250, 999):  # 250 of 1000 bits is the last sparse read
        values = rng.sample(range(999), k) + [999]
        assert cyclic.members(cyclic.mask(values, 1000)) == sorted(values)
