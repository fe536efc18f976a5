"""Additive and multiplicative energies, exactly.

The additive energy of a set S is the number of ordered quadruples
(a1, a2, a3, a4) in S^4 with a1 + a2 = a3 + a4; multiplicative energy is
the analogue for products.  Both are computed by counting the raw values
of the pair kernel in :mod:`sumprodlab.sets` (ints modulo p in F_p) into a
representation function r(s) = #{(u, v) : u o v = s} and summing r(s)^2
-- O(|S|^2) time and space, with no field element built per pair.  The
other pair counts here read the same function: sigma_A(B) sums r_{B+-B}
over A, and the shift overlap |A ∩ (A+α)| is r_{A-A}(α).  The O(|S|^4) quadruple enumeration
:func:`energy_quadruples` is kept alongside as the independent oracle
and slow path for cross-checking both energies.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .field import CeilingExceeded, FieldElement, coerce_element
from .sets import (
    DEFAULT_ELEMENT_CEILING,
    ArithSet,
    PairCounts,
    aa_over_a,
    multiplicative_doubling,
    require_same_mode,
    translate,
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
    if ceiling is not None and len(s) * len(t) > ceiling:
        raise CeilingExceeded("representation function", len(s) * len(t), ceiling)
    return PairCounts(s, t, op)


def energy_from_counts(counts: Mapping) -> int:
    return sum(r * r for r in counts.values())


def additive_energy(s: ArithSet, ceiling: int | None = DEFAULT_ELEMENT_CEILING) -> int:
    """E_+(S), between |S|^2 and |S|^3."""
    return energy_from_counts(representation_function(s, s, "plus", ceiling))


def multiplicative_energy(
    s: ArithSet, ceiling: int | None = DEFAULT_ELEMENT_CEILING
) -> int:
    """E_x(S), the product-quadruple count."""
    return energy_from_counts(representation_function(s, s, "times", ceiling))


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


def ratio_quotient_energy(
    a: ArithSet, ceiling: int | None = DEFAULT_ELEMENT_CEILING
) -> tuple[int, ArithSet]:
    """E_+((A*A)/A) together with the materialized quotient set.

    The quotient set can reach |A|^3 elements, so the ceiling applies both
    to its construction and to the energy pass over it.
    """
    q = aa_over_a(a, ceiling)
    return additive_energy(q, ceiling), q


def sigma(a: ArithSet, b: ArithSet, op: str = "plus") -> int:
    """Ordered pairs of B whose sum (or difference) lands in A.

    ``plus``  counts (b1, b2) with b1 + b2 in A;
    ``minus`` counts (b1, b2) with b1 - b2 in A.
    Both are the sum over A of the representation function r_{B+-B}.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("sigma requires nonempty sets")
    require_same_mode(a, b)
    if op not in ("plus", "minus"):
        raise ValueError(f"unknown operation {op!r}")
    counts = representation_function(b, b, op, ceiling=None)
    return sum(counts.get(x, 0) for x in a)


def is_sidon(s: ArithSet) -> bool:
    """True when all unordered pairwise sums (doubles included) are distinct.

    Equivalent to E_+(S) = 2|S|^2 - |S|.
    """
    seen = set()
    elems = s.elements
    for i, a in enumerate(elems):
        for b in elems[i:]:
            v = a + b
            if v in seen:
                return False
            seen.add(v)
    return True


def shift_intersection(a: ArithSet, alpha) -> int:
    """|A intersect (A + alpha)| for a nonzero shift alpha."""
    alpha = coerce_element(alpha, a.p)
    if not alpha:
        raise ValueError("shift must be nonzero")
    shifted = translate(a, alpha)
    return sum(1 for x in shifted if x in a)


def _cube_root_ceil(q: Fraction) -> int:
    """Smallest integer k with k^3 >= q, computed exactly."""
    if q <= 0:
        return 0
    lo, hi = 0, 1
    while Fraction(hi) ** 3 < q:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if Fraction(mid) ** 3 >= q:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class ShiftBoundReport:
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
    """Shift overlap paired with the doubling-driven upper bound check."""
    overlap = shift_intersection(a, alpha)
    return shift_bound_report(a, alpha, overlap, multiplicative_doubling(a))


def shift_bound_report(
    a: ArithSet, alpha, overlap: int, doubling: Fraction
) -> ShiftBoundReport:
    """The bound check for a known overlap |A ∩ (A+α)| and doubling M of A."""
    bound_cubed = doubling**4 * Fraction(len(a)) ** 2
    holds = Fraction(overlap) ** 3 <= bound_cubed
    return ShiftBoundReport(
        alpha=coerce_element(alpha, a.p),
        overlap=overlap,
        doubling=doubling,
        bound_cubed=bound_cubed,
        bound_ceiling=_cube_root_ceil(bound_cubed),
        bound_float=float(bound_cubed) ** (1.0 / 3.0),
        holds=holds,
    )
