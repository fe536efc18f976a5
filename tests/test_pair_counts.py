"""Pair counts read from one representation function, against direct
enumeration, in both field modes (rationals and F_13)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import energy, solvers
from sumprodlab.energy import shift_intersection_report, sigma
from sumprodlab.field import OutsideDomain
from sumprodlab.graph import build_containment_graph, difference_solution_report
from sumprodlab.popdiff import build_popular_ratios
from sumprodlab.sets import ArithSet, sumset
from sumprodlab.solvers import decomposition_report

MODES = st.sampled_from([None, 13])


def _sets_in(p, values=st.integers(-12, 12), min_size=1, max_size=6):
    return st.sets(values, min_size=min_size, max_size=max_size).map(
        lambda xs: ArithSet(xs, p=p)
    )


def _pairs(**kwargs):
    """Two sets in one field mode."""
    return MODES.flatmap(lambda p: st.tuples(_sets_in(p), _sets_in(p, **kwargs)))


@given(_pairs(), st.sampled_from(["plus", "minus"]))
@settings(max_examples=60, deadline=None)
def test_sigma_equals_pair_enumeration(pair, op):
    a, b = pair
    if op == "plus":
        want = sum(1 for b1 in b for b2 in b if (b1 + b2) in a)
    else:
        want = sum(1 for b1 in b for b2 in b if (b1 - b2) in a)
    assert sigma(a, b, op) == want


@given(_pairs())
@settings(max_examples=60, deadline=None)
def test_difference_solutions_equal_direct_count(pair):
    basis, target = pair
    graph = build_containment_graph(basis, target)
    report = difference_solution_report(graph, basis, 1)
    assert len(report.pairs) == len(basis) ** 2
    for b1, b2, solutions, common in report.pairs:
        d = b1 - b2
        assert solutions == sum(1 for x in target if (x - d) in target)
        assert solutions >= common


@given(_pairs(values=st.integers(-12, 12).filter(bool)), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_popular_ratio_collisions_equal_triple_recount(pair, tau):
    basis, target = pair  # 0 is in no target: the certificate needs it out
    cert = build_popular_ratios(build_containment_graph(basis, target), tau=tau)
    groups = {}
    skipped = 0
    for b2 in basis:
        for b1 in basis:
            for b in basis:
                if not b1 + b:
                    skipped += 1
                    continue
                value = (b2 + b) / (b1 + b)
                groups[value] = groups.get(value, 0) + 1
    assert cert.collision_count == sum(g * g for g in groups.values())
    assert cert.skipped_triples == skipped


SUMMANDS = st.sets(st.integers(-6, 10), min_size=2, max_size=4).map(ArithSet)


@given(SUMMANDS, SUMMANDS)
@settings(max_examples=40, deadline=None)
def test_decomposition_shift_checks_equal_per_pair_reports(b, c):
    a = sumset(b, c)
    report = decomposition_report(a)
    assert report["reducible"]
    left, right = report["witness_left"], report["witness_right"]
    shifts = [(c1, c2) for c1 in right for c2 in right if c1 != c2]
    def overlap(delta):
        return {y for y in a if (y - delta) in a}

    assert report["containment_ok"] == all(
        {x + c1 for x in left} <= overlap(c1 - c2) for c1, c2 in shifts
    )
    if a.contains_zero():
        assert report["shift_bound_ok"] is None
    else:
        assert report["shift_bound_ok"] == all(
            shift_intersection_report(a, c1 - c2).holds for c1, c2 in shifts
        )


def test_decomposition_shift_check_can_fail(monkeypatch):
    """With M forced to 1 the bound M^{4/3}|A|^{2/3} falls below the largest
    overlap, so the report must say so, as a per-pair recount does."""
    monkeypatch.setattr(energy, "multiplicative_doubling", lambda s: Fraction(1))
    a = sumset(ArithSet(range(1, 6)), ArithSet([10, 20]))
    report = decomposition_report(a)
    left, right = report["witness_left"], report["witness_right"]
    assert (list(left), list(right)) == ([0, 1, 2], [11, 13, 21, 23])
    overlaps = [
        sum(1 for y in a if (y - (c1 - c2)) in a)
        for c1 in right
        for c2 in right
        if c1 != c2
    ]
    assert max(overlaps) == 6  # r_{A-A}(2), and 6^3 > |A|^2 = 100
    assert report["shift_bound_ok"] is all(n**3 <= len(a) ** 2 for n in overlaps)
    assert report["shift_bound_ok"] is False


def test_decomposition_containment_check_can_fail(monkeypatch):
    # A witness with 1 + 5 outside A: the re-verification must catch it.
    bogus = solvers.Decomposition(True, ArithSet([0, 1]), ArithSet([0, 5]), nodes=1)
    monkeypatch.setattr(solvers, "decompose", lambda a: bogus)
    assert decomposition_report(ArithSet([0, 1, 5])).get("containment_ok") is False


def test_decomposition_is_outside_the_prime_field_domain():
    with pytest.raises(OutsideDomain):
        decomposition_report(ArithSet([1, 2, 3, 4], p=13))
