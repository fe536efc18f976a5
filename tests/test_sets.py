"""Set algebra: worked values, invariants, file round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab.field import CeilingExceeded, ModeMismatchError, Residue, is_prime
from sumprodlab.sets import (
    ArithSet,
    aa_over_a,
    difference_set,
    dilate,
    dumps_set,
    loads_set,
    multiplicative_doubling,
    normalize,
    product_set,
    ratio_set,
    sumset,
    translate,
)

small_sets = st.sets(st.integers(-30, 30), min_size=1, max_size=8).map(ArithSet)
rational_sets = st.sets(
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    min_size=1,
    max_size=6,
).map(ArithSet)


def fset(*xs, p=None):
    return ArithSet(xs, p=p)


def test_sumset_worked_values():
    assert list(sumset(fset(1, 2, 4), fset(1, 2, 4))) == [2, 3, 4, 5, 6, 8]
    assert sumset(fset(0), fset(3, 7, 9)) == fset(3, 7, 9)
    assert sumset(fset(0, 1), fset(0, 2)) == fset(0, 1, 2, 3)


def test_product_ratio_difference_values():
    gp = fset(1, 2, 4, 8)
    assert len(product_set(gp, gp)) == 7
    assert ratio_set(fset(1, 2, 3), fset(1, 2, 3)) == ArithSet(
        [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2, 3]
    )
    assert difference_set(fset(5), fset(5)) == fset(0)


def test_ratio_set_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        ratio_set(fset(1, 2), fset(0, 1))


def test_quotient_set_sizes():
    assert len(aa_over_a(fset(1, 2, 4))) == 7
    assert aa_over_a(fset(1)) == fset(1)
    # 27 ordered quotients of AA by A collapse to 12 distinct exact values
    assert len(aa_over_a(fset(1, 2, 3))) == 12


def test_quotient_set_matches_triple_enumeration():
    a = fset(1, 2, 3)
    triples = {x * y / z for x in a for y in a for z in a}
    assert set(aa_over_a(a)) == triples


def test_quotient_set_rejects_zero():
    with pytest.raises(ValueError):
        aa_over_a(fset(0, 1, 2))


def test_normalize_worked_values():
    assert normalize(fset(2, 4, 8)) == fset(1, 2, 4)
    assert normalize(fset(0, 3, 6)) == fset(1, 2)
    assert normalize(fset(1, 2)) == fset(1, 2)


def test_normalize_idempotent_and_preserves_doubling():
    a = fset(0, 3, 6, 12)
    n = normalize(a)
    assert normalize(n) == n
    zero_free = ArithSet([x for x in a if x])
    assert multiplicative_doubling(n) == multiplicative_doubling(zero_free)


def test_normalize_all_negative():
    # no positive element: divide by the largest (closest to zero) one
    assert normalize(fset(-4, -2)) == fset(1, 2)


def test_multiplicative_doubling_values():
    assert multiplicative_doubling(fset(1, 2, 4, 8, 16)) == Fraction(9, 5)
    assert multiplicative_doubling(fset(1)) == 1
    assert multiplicative_doubling(fset(1, 2, 3, 5)) == Fraction(10, 4)


def test_mode_mismatch_rejected():
    with pytest.raises(ModeMismatchError):
        sumset(fset(1, 2), fset(1, 2, p=7))
    with pytest.raises(ModeMismatchError):
        sumset(fset(1, p=5), fset(1, p=7))


def test_prime_field_mode():
    a = fset(3, 5, 6, p=7)
    b = sumset(a, a)
    assert b.p == 7
    assert set(x.value for x in b) == {(u + v) % 7 for u in (3, 5, 6) for v in (3, 5, 6)}
    assert ratio_set(a, a).p == 7


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        ArithSet([1, 2], p=15)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1) and not is_prime(2**32 - 1)


def test_residue_arithmetic():
    x = Residue(3, 7)
    assert (x + 5).value == 1
    assert (x * x).value == 2
    assert (x / Residue(5, 7)) * Residue(5, 7) == x
    with pytest.raises(ZeroDivisionError):
        x / Residue(0, 7)


def test_residue_equality_agrees_with_hash():
    # A residue equals no plain int, so equal values always hash equally.
    assert Residue(3, 7) != 3
    assert Residue(3, 7) != 10
    assert 3 not in {Residue(3, 7)}
    assert Residue(10, 7) == Residue(3, 7)
    assert hash(Residue(10, 7)) == hash(Residue(3, 7))
    assert Residue(3, 7) != Residue(3, 11)


@given(small_sets, small_sets)
@settings(max_examples=60)
def test_sumset_cardinality_floor(s, t):
    assert len(s) + len(t) - 1 <= len(sumset(s, t)) <= len(s) * len(t)


def test_sumset_floor_equality_iff_matching_aps():
    ap1 = ArithSet(range(0, 15, 3))
    ap2 = ArithSet(range(7, 22, 3))
    assert len(sumset(ap1, ap2)) == len(ap1) + len(ap2) - 1
    other = ArithSet([0, 1, 5])
    assert len(sumset(ap1, other)) > len(ap1) + len(other) - 1


@given(small_sets, small_sets)
@settings(max_examples=40)
def test_sumset_product_commute(s, t):
    assert sumset(s, t) == sumset(t, s)
    assert product_set(s, t) == product_set(t, s)


@given(small_sets, small_sets, small_sets)
@settings(max_examples=25)
def test_sumset_associative(s, t, u):
    assert sumset(sumset(s, t), u) == sumset(s, sumset(t, u))


@given(rational_sets, rational_sets, st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
@settings(max_examples=30)
def test_dilation_covariance(s, t, lam):
    scale = ArithSet([lam])
    assert product_set(scale, sumset(s, t)) == sumset(
        product_set(scale, s), product_set(scale, t)
    )


@given(small_sets, small_sets)
@settings(max_examples=30)
def test_operations_are_reproducible(s, t):
    assert dumps_set(sumset(s, t)) == dumps_set(sumset(s, t))
    assert dumps_set(product_set(s, t)) == dumps_set(product_set(s, t))


def test_translate_dilate_negate():
    a = fset(1, 2)
    assert translate(a, 3) == fset(4, 5)
    assert dilate(a, Fraction(1, 2)) == ArithSet([Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        dilate(a, 0)


def test_file_roundtrip_rational(tmp_path):
    a = ArithSet([Fraction(-3, 7), 1, 12])
    text = dumps_set(a)
    assert text.splitlines()[0] == "# field rational"
    assert loads_set(text) == a
    path = tmp_path / "a.txt"
    from sumprodlab.sets import read_set_file, write_set_file

    write_set_file(a, path)
    assert read_set_file(path) == a


def test_file_roundtrip_prime_field(tmp_path):
    a = ArithSet([0, 5, 12], p=13)
    text = dumps_set(a)
    assert text.splitlines()[0] == "# field fp 13"
    assert loads_set(text) == a


def test_loads_defaults_and_comments():
    a = loads_set("# a comment\n3\n# another\n1/2\n\n-1\n")
    assert a == ArithSet([3, Fraction(1, 2), -1])
    with pytest.raises(ValueError):
        loads_set("# field fp 15\n1\n")
    with pytest.raises(ValueError):
        loads_set("# field rational\nnot-a-number\n")


def test_field_header_after_elements_is_refused():
    # A late header would reinterpret the rationals read before it.
    with pytest.raises(ValueError, match="line 3: field header after elements"):
        loads_set("1/2\n40\n# field fp 31\n3\n")
    with pytest.raises(ValueError, match="line 2: field header after elements"):
        loads_set("1\n# field rational\n")


def test_canonical_order_in_dump():
    a = ArithSet([5, -2, Fraction(1, 3)])
    body = dumps_set(a).splitlines()[1:]
    assert body == ["-2", "1/3", "5"]


def _refusal(build, a, ceiling):
    with pytest.raises(CeilingExceeded) as info:
        build(a, a, ceiling)
    return info.value.what, info.value.requested, info.value.ceiling


@pytest.mark.parametrize("p", [None, 13])
@pytest.mark.parametrize("build", [product_set, ratio_set])
def test_memo_hit_refuses_like_a_fresh_set(build, p):
    a = ArithSet([1, 2, 3, 5, 7], p=p)
    kept = build(a, a)
    assert build(a, a) is kept
    fresh = ArithSet(a.elements, p=p)
    assert _refusal(build, a, 24) == _refusal(build, fresh, 24) == (
        "product set" if build is product_set else "ratio set", 25, 24
    )


def test_filled_memo_takes_no_part_in_equality():
    a = ArithSet([1, 2, 4, 8])
    fresh = ArithSet([1, 2, 4, 8])
    product_set(a, a)
    ratio_set(a, a)
    assert a._derived and fresh._derived is None
    assert a == fresh and hash(a) == hash(fresh)
    assert len({a, fresh}) == 1


def test_only_products_and_ratios_are_kept():
    a = ArithSet([1, 2, 3, 5])
    sumset(a, a)
    difference_set(a, a)
    assert a._derived is None
    product_set(a, a)
    ratio_set(a, a)
    product_set(a, ArithSet([2, 3]))
    assert sorted(a._derived) == ["divide", "times"]
