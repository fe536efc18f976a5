"""The F_p bitset route of the set kernels, of containment graphs and of
sigma_A(B), held against the pair walk (its oracle), and the rule that
picks between them."""

import math
import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import energy, graph, sets
from sumprodlab.energy import sigma
from sumprodlab.families import multiplicative_subgroup
from sumprodlab.field import least_primitive_root, log_tables
from sumprodlab.graph import ContainmentGraph
from sumprodlab.sets import (
    ArithSet,
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
from sumprodlab.verify import difference_count_check

OPS = {"plus": sumset, "minus": difference_set, "times": product_set, "divide": ratio_set}
PRIMES = (2, 3, 5, 31, 1009, 10009)


def walk(s, t, op):
    """The residues of s op t from the pair walk, whatever the rule picks."""
    rows, keys = sets._pair_rows(s, t, op)
    return list(keys.ordered(set(chain.from_iterable(rows))))


def walk_rows(basis, target):
    """The containment-graph rows from testing every pair sum against A."""
    p, index = basis.p, target._index
    return [
        sum(1 << j for j, v in enumerate(basis._values) if (u + v) % p in index)
        for u in basis._values
    ]


def check_op(s, t, op):
    want = walk(s, t, op)
    assert sets._rotated(s, t, op) == want
    if op != "divide" or not t.contains_zero():
        assert list(OPS[op](s, t)._values) == want


def check_graph(basis, target):
    want = walk_rows(basis, target)
    got = ContainmentGraph(basis, target)
    assert list(got.adjacency) == want
    assert got.edges == sum(row.bit_count() for row in want)
    if len(basis) > 1:  # the route itself needs |B|^2 >= p >= 2
        assert graph._rotated_rows(basis, target) == want


def residues(p, size, rng, zero=None):
    """``size`` residues mod p; with ``zero`` set, 0 is forced in or out."""
    pool = range(p) if zero is None else range(1, p)
    picked = rng.sample(pool, min(size, len(pool)))
    if zero:
        picked[0] = 0
    return ArithSet(picked, p=p)


def check_sigma(a, b):
    """sigma_A(B) for both ops, and difference_count, against |B|^2 pair
    sums and differences, and A ⊆ B ± B against the set kernels."""
    p, inside, values = b.p, a._index, b._values
    for op, image in (("plus", sumset), ("minus", difference_set)):
        sign = 1 if op == "plus" else -1
        want = sum((u + sign * v) % p in inside for u in values for v in values)
        covered = set(a._values) <= set(image(b, b)._values)
        assert energy._sigma(a, b, op) == (want, covered)
        if len(a):
            assert sigma(a, b, op) == want
    rec = difference_count_check(a, b)
    assert (rec.lhs, rec.details["hypothesis_ok"]) == energy._sigma(a, b, "minus")


@st.composite
def fp_pairs(draw):
    p = draw(st.sampled_from(PRIMES[:5]))
    cap = min(p, 60)
    s = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=cap))
    t = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=cap))
    return ArithSet(s, p=p), ArithSet(t, p=p)


@settings(max_examples=150, deadline=None)
@given(fp_pairs(), st.sampled_from(sorted(OPS)))
def test_bitset_route_matches_pair_walk(pair, op):
    check_op(*pair, op)


@settings(max_examples=150, deadline=None)
@given(fp_pairs())
def test_graph_bitset_route_matches_pair_walk(pair):
    check_graph(*pair)


@st.composite
def sigma_pairs(draw):
    """(A, B) in F_p with |B|^2 >= p, so that B meets the first condition of
    the bitset route, with 0 forced in, out of or left free in each set."""
    p = draw(st.sampled_from(PRIMES))
    root = math.isqrt(p - 1) + 1
    n = draw(st.integers(root, min(p, root + 40)))
    m = draw(st.integers(1, min(p, 2 * n)))
    zeros = draw(st.tuples(*[st.sampled_from([None, True, False])] * 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return residues(p, m, rng, zeros[0]), residues(p, n, rng, zeros[1])


@settings(max_examples=120, deadline=None)
@given(sigma_pairs())
def test_sigma_bitset_route_matches_pair_count(pair):
    check_sigma(*pair)


@pytest.mark.parametrize("p", PRIMES)
def test_sigma_seeded_cases_on_both_sides_of_the_rule(p):
    rng = random.Random(p)
    routes = set()
    root = math.isqrt(p - 1) + 1
    for n in sorted({1, root - 1, root, root + 7}):
        for m in sorted({1, max(1, n // 2), n, 2 * n}):
            for zero_a, zero_b in ((True, False), (False, True), (True, True), (None, None)):
                a, b = residues(p, m, rng, zero_a), residues(p, n, rng, zero_b)
                routes.add(sets._bitset_route(len(b), len(b), p))
                check_sigma(a, b)
                check_sigma(b, b)
    assert routes == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_seeded_cases_on_both_sides_of_the_rule(p):
    rng = random.Random(p)
    routes = set()
    root = max(1, round(p**0.5))
    for m, n in [(1, 1), (1, p), (p, 1), (root, root), (root + 1, root + 1), (2, p // 2 + 1)]:
        for zero_s in (None, True, False):
            for zero_t in (None, True, False):
                s, t = residues(p, m, rng, zero_s), residues(p, n, rng, zero_t)
                routes.add(sets._bitset_route(len(s), len(t), p))
                for op in OPS:
                    check_op(s, t, op)
                if len(s) ** 2 <= 4 * p:  # the oracle walks |B|^2 pair sums
                    check_graph(s, t)
    assert routes == {True, False}


@pytest.mark.parametrize("p", [31, 1009, 10009])
def test_sizes_at_the_first_condition(p):
    """|s|·|t| = p − 1 takes the pair walk and |s|·|t| = p the bitset route;
    p − 1 = m·n is split with m the largest divisor at most sqrt(p − 1)."""
    m = max(d for d in range(1, int((p - 1) ** 0.5) + 1) if (p - 1) % d == 0)
    rng = random.Random(p)
    below = residues(p, m, rng, zero=False), residues(p, (p - 1) // m, rng, zero=True)
    full = ArithSet(range(p), p=p)
    at = (full, residues(p, 1, rng, zero=False)), (residues(p, 1, rng, zero=True), full)
    assert not sets._bitset_route(m, (p - 1) // m, p)
    for s, t in [below, *at]:
        assert sets._bitset_route(len(s), len(t), p) == (len(s) * len(t) == p)
        for op in OPS:
            check_op(s, t, op)
    check_graph(*below)


def test_the_crossover_constant_decides_above_c_squared():
    p = 100003  # prime, above C^2 = 16384, so p <= C·max(m, n) can fail
    c = sets._BITSET_SPAN
    below, above = p // c, p // c + 1
    assert not sets._bitset_route(below, 200, p) and sets._bitset_route(above, 200, p)
    rng = random.Random(1)
    t = residues(p, 200, rng, zero=False)
    for m in (below, above):
        s = residues(p, m, rng)
        for op in ("plus", "times"):
            check_op(s, t, op)


def test_cosets_of_the_benchmark_take_the_bitset_route():
    for p, order in ((10009, 139), (10009, 278)):
        a = dilate(multiplicative_subgroup(p, order), 5)
        assert sets._bitset_route(order, order, p)
        assert len(product_set(a, a)) == len(ratio_set(a, a)) == len(aa_over_a(a)) == order
        check_op(a, a, "minus")
        check_graph(a, a)


def refuse(*args):
    raise AssertionError("the bitset route was taken")


def test_route_rule_keeps_the_pair_walk(monkeypatch):
    monkeypatch.setattr(sets, "_rotated", refuse)
    monkeypatch.setattr(graph, "_rotated_rows", refuse)
    monkeypatch.setattr(energy, "_rotated_sigma", refuse)
    rational = ArithSet(range(1, 41))
    coset = dilate(multiplicative_subgroup(1009, 28), 3)
    sparse = ArithSet(random.Random(2).sample(range(1, 1_000_003), 40), p=1_000_003)
    for a in (rational, coset, sparse):
        for build in OPS.values():
            build(a, a)
        aa_over_a(a)
        ContainmentGraph(a, sumset(a, a))
        sigma(a, a, "plus"), sigma(a, a, "minus"), difference_count_check(a)
    big = dilate(multiplicative_subgroup(10009, 278), 7)
    for a in (rational, coset, sparse, big):
        translate(a, 5), dilate(a, 3), negate(a), normalize(a)
    with pytest.raises(AssertionError, match="bitset route"):
        sumset(big, big)
    with pytest.raises(AssertionError, match="bitset route"):
        ContainmentGraph(big, big)
    for op in ("plus", "minus"):
        with pytest.raises(AssertionError, match="bitset route"):
            sigma(big, big, op)
    with pytest.raises(AssertionError, match="bitset route"):
        difference_count_check(big)


@pytest.mark.parametrize("p", [2, 3, 31, 1009, 10009])
def test_exp_and_log_are_inverse_bijections(p):
    exp, log = log_tables(p)
    assert len(exp) == p - 1 and len(log) == p
    assert sorted(exp) == list(range(1, p))
    assert all(log[exp[k]] == k for k in range(p - 1))
    assert exp[0] == 1 and exp[1 % (p - 1)] == least_primitive_root(p) % p
