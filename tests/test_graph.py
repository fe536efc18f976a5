"""Containment graphs, (L, K) profiles, dense-subset extraction, rich pairs."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprodlab import sets
from sumprodlab.sets import ArithSet, sumset
from sumprodlab.energy import sigma
from sumprodlab.graph import (
    build_containment_graph,
    difference_solution_report,
    gowers_extract,
    lk_profile,
    rich_pairs,
)


def fset(*xs):
    return ArithSet(xs)


def micro():
    return build_containment_graph(fset(0, 1, 2), fset(1, 2, 3))


def test_micro_instance_edges_and_density():
    g = micro()
    assert g.edges == 7
    assert g.density == Fraction(7, 9)
    assert g.neighborhood(0) == fset(1, 2)
    assert g.neighborhood(1) == fset(0, 1, 2)
    assert g.neighborhood(2) == fset(0, 1)


def test_edges_match_sigma():
    rng = random.Random(5)
    for _ in range(15):
        b = ArithSet(rng.sample(range(0, 30), rng.randint(1, 8)))
        a = ArithSet(rng.sample(range(1, 50), rng.randint(1, 12)))
        g = build_containment_graph(b, a)
        assert g.edges == sigma(a, b, "plus")
    # Over F_p with |B|^2 >= p both the graph and sigma take the bitset route.
    for p in (2, 5, 31, 1009, 10009):
        for _ in range(4):
            n = rng.randint(math.isqrt(p - 1) + 1, min(p, 2 * math.isqrt(p) + 2))
            b = ArithSet(rng.sample(range(p), n), p=p)
            a = ArithSet(rng.sample(range(p), rng.randint(1, p)), p=p)
            assert sets._bitset_route(n, n, p)
            g = build_containment_graph(b, a)
            assert g.edges == sigma(a, b, "plus")
            assert g.edges == sum((u + v) % p in a._index for u in b._values for v in b._values)


def test_symmetry():
    g = micro()
    n = len(g.basis)
    for i in range(n):
        for j in range(n):
            assert bool(g.adjacency[i] >> j & 1) == bool(g.adjacency[j] >> i & 1)


def test_no_edges_graph():
    g = build_containment_graph(fset(0), fset(1))
    assert g.edges == 0
    with pytest.raises(ValueError):
        lk_profile(g)


def test_complete_graph_profile():
    b = ArithSet(range(5))
    a = sumset(b, b)
    g = build_containment_graph(b, a)
    assert g.density == 1
    prof = lk_profile(g)
    assert prof.l_value == Fraction(len(a), len(b) ** 2)
    assert prof.density == 1 / (prof.l_value * prof.k_squared)


def test_micro_profile_values():
    prof = lk_profile(micro())
    assert prof.l_value == Fraction(3, 7)
    assert prof.k_squared == 3
    assert prof.density == Fraction(7, 9)
    assert prof.density == 1 / (prof.l_value * prof.k_squared)
    assert prof.richness_threshold() == 2  # ceil(49/27)


def test_singleton_profile():
    g = build_containment_graph(fset(0), fset(0))
    assert g.edges == 1
    prof = lk_profile(g)
    assert prof.l_value == 1 and prof.k_squared == 1


def test_full_basis_edge_floor():
    # when A sits inside B + B, every element has an ordered representation
    rng = random.Random(21)
    for _ in range(12):
        b = ArithSet(rng.sample(range(0, 20), rng.randint(2, 7)))
        pool = sorted(sumset(b, b))
        a = ArithSet(rng.sample(pool, rng.randint(1, len(pool))))
        g = build_containment_graph(b, a)
        assert g.edges >= len(a)
        assert lk_profile(g).l_value <= 1


def test_profile_identity_seeded():
    rng = random.Random(11)
    for _ in range(20):
        b = ArithSet(rng.sample(range(0, 25), rng.randint(2, 9)))
        a = ArithSet(rng.sample(range(1, 40), rng.randint(2, 12)))
        g = build_containment_graph(b, a)
        if g.edges:
            prof = lk_profile(g)
            assert prof.density == 1 / (prof.l_value * prof.k_squared)


def test_gowers_on_complete_graph():
    b = ArithSet(range(5))
    g = build_containment_graph(b, sumset(b, b))
    ext = gowers_extract(g, Fraction(1, 4))
    assert ext.success
    assert ext.bad_fraction == 0
    assert ext.subset == b
    assert ext.pivot == 0  # every pivot ties, and the first one wins


def test_gowers_micro_instance():
    ext = gowers_extract(micro(), Fraction(1, 2))
    assert ext.success
    assert ext.subset == fset(0, 1, 2)  # pivot 1 sees everything
    assert ext.bad_fraction == 0


def test_gowers_single_edge_graph():
    g = build_containment_graph(fset(0, 1), fset(0))
    assert g.edges == 1
    ext = gowers_extract(g, Fraction(1, 2))
    assert len(ext.subset) == 1
    assert ext.bad_fraction in (0, 1)


def _rescan_pivot(g, epsilon):
    """The pivot rule spelled out over every pivot: the first of the largest
    successful neighborhoods, else the first of the least
    (bad_fraction, -size); also whether the chosen rank is tied."""
    n = len(g.basis)
    threshold = epsilon * g.density**2 * n / 2
    table = []
    for v in range(n):
        members = [j for j in range(n) if g.adjacency[v] >> j & 1]
        if not members:
            continue
        bad = sum(1 for i in members for j in members if g.common_neighbors(i, j) < threshold)
        beta = Fraction(bad, len(members) ** 2)
        ok = len(members) >= g.density * n / 2 and beta <= epsilon
        table.append((v, len(members), beta, ok))
    wins = [row for row in table if row[3]]
    if wins:
        top = max(size for _, size, _, _ in wins)
        tied = [row for row in wins if row[1] == top]
    else:
        top = min((beta, -size) for _, size, beta, _ in table)
        tied = [row for row in table if (row[2], -row[1]) == top]
    return tied[0], len(tied) > 1


@pytest.mark.parametrize("p", [None, 31, 101])
def test_gowers_pivot_rule_rescans_every_pivot(p):
    rng = random.Random(5 if p is None else p)
    hi = 30 if p is None else p
    ties = 0
    for _ in range(40):
        b = ArithSet(rng.sample(range(1, hi), rng.randint(3, 9)), p=p)
        a = ArithSet(rng.sample(range(1, 2 * hi), rng.randint(3, 14)), p=p)
        g = build_containment_graph(b, a)
        if not g.edges:
            continue
        epsilon = Fraction(rng.randint(1, 9), 10)
        (v, _, beta, ok), tied = _rescan_pivot(g, epsilon)
        ties += tied
        ext = gowers_extract(g, epsilon)
        assert ext.pivot == g.basis.elements[v]
        assert ext.subset == g.neighborhood(v)
        assert (ext.bad_fraction, ext.success) == (beta, ok)
    assert ties  # the tie rule is exercised, not only the strict winners


@given(
    st.sampled_from([None, 31, 101]),
    st.lists(st.integers(1, 60), min_size=1, max_size=10),
    st.lists(st.integers(1, 120), min_size=1, max_size=14),
    st.fractions(0, 1, max_denominator=100).filter(lambda e: 0 < e < 1),
)
@settings(max_examples=150, deadline=None)
def test_gowers_extract_succeeds_by_the_averaging_lemma(p, bs, xs, epsilon):
    g = build_containment_graph(ArithSet(bs, p=p), ArithSet(xs, p=p))
    assume(g.edges)
    n, e, alpha = len(g.basis), g.edges, g.density
    threshold = epsilon * alpha**2 * n / 2
    sparse = [
        (i, j) for i in range(n) for j in range(n) if g.common_neighbors(i, j) < threshold
    ]
    members = [{j for j in range(n) if mask >> j & 1} for mask in g.adjacency]
    sizes = [len(m) for m in members]
    # bad(v): the sparse pairs inside N(v); by symmetry v lies in N(i) & N(j).
    bad = [sum(1 for i, j in sparse if i in m and j in m) for m in members]
    assert sum(bad) == sum(g.common_neighbors(i, j) for i, j in sparse)
    assert n * sum(s * s for s in sizes) >= e * e  # sum |N(v)|^2 >= alpha^2 n^3
    assert sum(bad) < n * n * threshold
    witnesses = [v for v in range(n) if sizes[v] ** 2 - bad[v] / epsilon > alpha**2 * n**2 / 2]
    assert witnesses
    for v in witnesses:
        assert Fraction(sizes[v]) > alpha * n / 2 and Fraction(bad[v], sizes[v] ** 2) < epsilon
    ext = gowers_extract(g, epsilon)
    assert ext.success
    assert len(ext.subset) >= ext.size_floor and ext.bad_fraction <= epsilon
    assert len(ext.subset) >= max(sizes[v] for v in witnesses)


def test_gowers_epsilon_validation():
    with pytest.raises(ValueError):
        gowers_extract(micro(), Fraction(3, 2))


def test_rich_pairs_micro():
    got = {(a, b): c for a, b, c in rich_pairs(micro(), 2)}
    assert set(got) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert all(c == 2 for c in got.values())
    all_pairs = rich_pairs(micro(), 1)
    assert len(all_pairs) == 6  # every off-diagonal pair
    assert rich_pairs(micro(), 4) == []


def test_rich_pairs_antitone_and_symmetric():
    rng = random.Random(3)
    for _ in range(10):
        b = ArithSet(rng.sample(range(0, 20), rng.randint(2, 8)))
        a = ArithSet(rng.sample(range(1, 30), rng.randint(2, 10)))
        g = build_containment_graph(b, a)
        prev = None
        for tau in (1, 2, 3, 5):
            cur = {(x, y) for x, y, _ in rich_pairs(g, tau)}
            assert all((y, x) in cur for x, y in cur)
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_difference_solution_report_values():
    g = micro()
    rep = difference_solution_report(g, fset(0, 1), 2)
    rows = {(b1, b2): (s, c) for b1, b2, s, c in rep.pairs}
    assert rows[(1, 0)] == (2, 2)  # solutions (2,1),(3,2); common neighbors {1,2}
    assert rows[(0, 0)][0] == 3  # diagonal: |A| solutions
    assert rep.injection_ok


def test_difference_solutions_diagonal_is_target_size():
    g = micro()
    rep = difference_solution_report(g, fset(0, 1, 2), 1)
    for b1, b2, solutions, _ in rep.pairs:
        if b1 == b2:
            assert solutions == len(g.target)


def test_injection_holds_exhaustively_seeded():
    rng = random.Random(99)
    for _ in range(25):
        nb, na = rng.randint(2, 12), rng.randint(2, 20)
        b = ArithSet(rng.sample(range(0, 40), nb))
        a = ArithSet(rng.sample(range(1, 60), na))
        g = build_containment_graph(b, a)
        assert difference_solution_report(g, b, 1).injection_ok


def test_sidon_target_zero_solutions():
    # B differences outside A - A give zero counts
    g = build_containment_graph(fset(0, 100), fset(1, 2))
    rep = difference_solution_report(g, fset(0, 100), 1)
    rows = {(b1, b2): s for b1, b2, s, _ in rep.pairs}
    assert rows[(100, 0)] == 0


def test_report_rejects_foreign_subset():
    with pytest.raises(KeyError):
        difference_solution_report(micro(), fset(5), 1)
