"""Additive and multiplicative energies, exactly.

The additive energy of a set S is the number of ordered quadruples
(a1, a2, a3, a4) in S^4 with a1 + a2 = a3 + a4; multiplicative energy is
the analogue for products.  Both sum r(s)^2 over a representation function
r(s) = #{(u, v) : u o v = s} (:class:`sumprodlab.sets.PairCounts`), with
no field element built per pair.  Over Q, and over F_p below the rule of
``sets._packed_route``, it counts the int keys of the pair kernel, in
O(|S|^2) time; above the rule (p <= 20,000 and |S|^2 >= b·p·(2 + p/10,000))
it reads r for every residue from one product of p·b-byte ints, in
O((p·b)^1.585) time and O(p·b) space.  sigma_A(B) sums r_{B+-B}
over A, or over F_p on the bitset route |B| rotate-and-AND popcounts.
A shift overlap |A ∩ (A+α)| = r_{A-A}(α) counts the pairs with
a1 - a2 = α on the same plain ints, by the routine that also lists the
1 - x = a1 - a2 solutions of :mod:`sumprodlab.popdiff`; its bound reads M
from the A*A the set keeps.  The O(|S|^4) quadruple enumeration
:func:`energy_quadruples` is kept alongside as the independent oracle
and slow path for cross-checking both energies.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import NamedTuple

from . import cyclic
from .field import FieldElement, coerce_element
from .sets import (
    DEFAULT_ELEMENT_CEILING,
    ArithSet,
    PairCounts,
    _bitset_route,
    _canonical,
    _guard,
    _int_values,
    _Keys,
    _pair_rows,
    aa_over_a,
    multiplicative_doubling,
    require_same_mode,
)

#: Element-wise operations of the quadruple oracle.
_OPS = {
    "plus": lambda a, b: a + b,
    "times": lambda a, b: a * b,
}


def representation_function(
    s: ArithSet,
    t: ArithSet,
    op: str = "plus",
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
) -> PairCounts:
    """Counts r(x) = #{(u, v) in s x t : u op v = x}.

    ``op`` is one of ``plus``, ``minus``, ``times``, ``divide``; for
    ``divide``, pairs with a zero divisor are skipped.  The counts always
    total |s||t| minus the skipped pairs.  The result is a read-only
    mapping from field elements to counts.
    """
    if len(s) == 0 or len(t) == 0:
        raise ValueError("representation function requires nonempty sets")
    require_same_mode(s, t)
    _guard("representation function", len(s) * len(t), ceiling)
    return PairCounts(s, t, op)


def energy_from_counts(counts: Mapping) -> int:
    return sum(r * r for r in counts.values())


def additive_energy(s: ArithSet) -> int:
    """E_+(S), between |S|^2 and |S|^3."""
    return energy_from_counts(representation_function(s, s, "plus"))


def multiplicative_energy(s: ArithSet) -> int:
    """E_x(S), the product-quadruple count."""
    return energy_from_counts(representation_function(s, s, "times"))


def energy_quadruples(s: ArithSet, op: str = "plus") -> int:
    """Oracle: enumerate all |S|^4 quadruples with a1 o a2 = a3 o a4.

    ``op`` is ``plus`` (additive energy) or ``times`` (multiplicative).
    """
    if op not in _OPS:
        raise ValueError(f"unknown operation {op!r}")
    fn = _OPS[op]
    elems = s.elements
    count = 0
    for a1 in elems:
        for a2 in elems:
            lhs = fn(a1, a2)
            for a3 in elems:
                for a4 in elems:
                    if lhs == fn(a3, a4):
                        count += 1
    return count


def ratio_quotient_energy(a: ArithSet) -> tuple[int, ArithSet]:
    """E_+((A*A)/A) together with the materialized quotient set.

    The quotient set can reach |A|^3 elements, so the element ceiling
    applies both to its construction and to the energy pass over it.
    """
    q = aa_over_a(a)
    return additive_energy(q), q


def sigma(a: ArithSet, b: ArithSet, op: str = "plus") -> int:
    """Ordered pairs of B whose sum (or difference) lands in A.

    ``plus``  counts (b1, b2) with b1 + b2 in A;
    ``minus`` counts (b1, b2) with b1 - b2 in A.
    Both are the sum over A of the representation function r_{B+-B}; over
    F_p on the bitset route, of |B| shifts of 2p bits (:func:`_rotated_sigma`).
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("sigma requires nonempty sets")
    require_same_mode(a, b)
    if op not in ("plus", "minus"):
        raise ValueError(f"unknown operation {op!r}")
    return _sigma(a, b, op)[0]


def _sigma(a: ArithSet, b: ArithSet, op: str) -> tuple[int, bool]:
    """sigma_A(B) and whether A lies inside B op B, on one route."""
    if _bitset_route(len(b), len(b), b.p):
        return _rotated_sigma(a, b, op)
    counts = representation_function(b, b, op, ceiling=None)
    hits = [counts.get(x, 0) for x in a]
    return sum(hits), all(hits)


def _rotated_sigma(a: ArithSet, b: ArithSet, op: str) -> tuple[int, bool]:
    """Row v of B masks the w of A with w - v (plus) or w + v (minus) in B:
    the popcounts sum to sigma_A(B), the OR is the part of A in B op B."""
    p = b.p
    target = cyclic.mask(a._values, p)
    shifts = b._values if op == "minus" else [-v % p for v in b._values]
    total = reach = 0
    for row in cyclic.rotations(cyclic.mask(b._values, p), target, shifts, p):
        total += row.bit_count()
        reach |= row
    return total, reach == target


def is_sidon(s: ArithSet) -> bool:
    """True when all unordered pairwise sums (doubles included) are distinct.

    Equivalent to E_+(S) = 2|S|^2 - |S|.  Runs on the pair kernel's int
    keys, one row of sums u + v (v at or after u) at a time; the sums of one
    row are distinct, so only a repeat across rows can break the property.
    """
    rows, _ = _pair_rows(s, s, "plus", upper=True)
    seen: set = set()
    for row in rows:
        if not seen.isdisjoint(row):
            return False
        seen.update(row)
    return True


def shift_intersection(a: ArithSet, alpha) -> int:
    """|A intersect (A + alpha)|, the x of A with x - alpha in A, for alpha != 0."""
    alpha = _canonical(alpha, a.p)
    if not alpha:
        raise ValueError("shift must be nonzero")
    # Over Q on the ints d·x: a difference of A lies on the lattice (1/d)Z.
    (xs,), one, p = _int_values([a])
    shift = _Keys(p, one).key(alpha)
    if shift is None:
        return 0
    return len(_solution_pairs(shift, xs, set(xs), p))


def _solution_pairs(shift: int, vals: list[int], index: set, p: int | None) -> list[tuple]:
    """Every pair (a1, a2) of the plain ints ``vals`` (from :func:`_int_values`,
    with ``index`` their set) with a1 - a2 = shift, in canonical order of a2;
    over F_p the difference is taken mod p."""
    if p is None:
        return [(a2 + shift, a2) for a2 in vals if a2 + shift in index]
    return [(a1, a2) for a2 in vals if (a1 := (a2 + shift) % p) in index]


def _cube_root_ceil(q: Fraction) -> int:
    """Smallest integer k with k^3 >= q, on ints: k^3 >= q iff k^3 >= ceil(q)."""
    if q <= 0:
        return 0
    n = math.ceil(q)
    lo, hi = 0, 1
    while hi**3 < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**3 >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


class ShiftBoundReport(NamedTuple):
    """Exact comparison of |A ∩ (A+α)| against M^{4/3}|A|^{2/3}.

    ``holds`` is decided in exact arithmetic by cubing both sides:
    overlap^3 <= M^4 |A|^2.  ``bound_ceiling`` is the least integer at or
    above the fractional-power bound; ``bound_float`` is report-only.
    """

    alpha: FieldElement
    overlap: int
    doubling: Fraction
    bound_cubed: Fraction
    bound_ceiling: int
    bound_float: float
    holds: bool


def shift_intersection_report(a: ArithSet, alpha) -> ShiftBoundReport:
    """The overlap |A ∩ (A+α)| against the bound M^{4/3}|A|^{2/3}."""
    overlap = shift_intersection(a, alpha)
    doubling = multiplicative_doubling(a)
    bound_cubed = doubling**4 * Fraction(len(a)) ** 2
    return ShiftBoundReport(
        alpha=coerce_element(alpha, a.p),
        overlap=overlap,
        doubling=doubling,
        bound_cubed=bound_cubed,
        bound_ceiling=_cube_root_ceil(bound_cubed),
        bound_float=float(bound_cubed) ** (1.0 / 3.0),
        holds=Fraction(overlap) ** 3 <= bound_cubed,
    )
