"""Exact collinearity counting over Cartesian-product grids.

T(X, Y, Z) is the number of ordered triples of pairwise-distinct
collinear points (p, q, r) with p in X x X, q in Y x Y, r in Z x Z; it
is symmetric in the three grids.  The production path counts the
projective classes [b - a : c - a] of the coordinate triples (a, b, c) in
X x Y x Z: the first and second coordinates of a collinear triple are two
such triples with parallel difference vectors, so the sum of the squared
class sizes, corrected for zero vectors and repeated points by closed
forms in the set intersections, is T.  It takes |X||Y||Z| keys, or over
F_p |X/G||Y||Z| with G the dilations that fix all three grids, and builds
no point.  The brute-force path enumerates point triples and tests the
3x3 determinant, with no classes or hashing.  When X = Y = Z it tests
each unordered triple of distinct points once and counts it six times;
otherwise it tests every ordered triple.  Both are exact and are kept as
independent routes for cross-checking.

Rational coordinates are scaled by a common denominator so that the hot
loops run on plain integers; collinearity and richness do not change under
that scaling.  A rational slope dy/dx (dx > 0), a ratio of two coordinate
differences, is keyed by the int dy * K // dx with K = span², span being
the largest minus the smallest coordinate of the call: distinct such
slopes differ by at least 1/span², so they get distinct keys.  Prime-field
grids run on the ints modulo p that the sets store, with each coordinate
difference inverted once per call through the F_p inverse table of
:mod:`sumprodlab.sets`, and a slope keyed by its value mod p.

The dyadic table counts lines with direction histograms on the same slope
keys: from each point P of the union of two grids it reads, per
direction, how many points of each grid and of their overlap lie after P
on that line, and these views telescope to one count per line.  The
table keeps how many lines meeting at least two points of either grid
have each exact per-grid richness; expanding it reproduces T, and the
lines can also be grouped into power-of-two richness buckets.

Every pair-ceiling guard sizes the union of the grids from the value
sets alone, before any point is built.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat
from typing import NamedTuple

from .sets import ArithSet, _guard, _int_values, _inverses, _orbit_firsts, require_same_mode

#: Ceiling on the number of pairs of union grid points a line count covers.
DEFAULT_PAIR_CEILING = 100_000_000
#: Ceiling on brute-force triple / sextuple enumeration sizes.
DEFAULT_BRUTE_CEILING = 5_000_000


class RouteDisagreement(RuntimeError):
    """Raised when two exact counting routes give different answers."""


def _union_pairs(value_lists: list[list[int]]) -> int:
    """Pairs of points of the union of the grids V x V.  Its size m comes by
    inclusion-exclusion over the value sets: the grids of a group of sets
    meet in the grid of their common values."""
    sets = [set(vals) for vals in value_lists]
    total = 0
    for r in range(1, len(sets) + 1):
        sign = 1 if r % 2 else -1
        for group in combinations(sets, r):
            total += sign * len(set.intersection(*group)) ** 2
    return total * (total - 1) // 2


def _slope_table(value_lists: list[list[int]], p: int | None):
    """What :func:`_slope_keys` keys slopes with, built once per call.

    Over F_p: the :func:`sumprodlab.sets._inverses` table of the
    differences d of the coordinate values, each inverted once.  Over Q:
    the int K = span², with span the largest minus the smallest coordinate
    value.  A slope dy/dx of two coordinate differences has |dx| <= span,
    so two distinct slopes differ by at least 1/span², and dy * K // dx
    (dx > 0) tells them apart.
    """
    vals = set().union(*value_lists)
    if p is None:
        span = max(vals) - min(vals)
        return span * span
    return _inverses(((u - v) % p for u in vals for v in vals), p)


def _union_points(value_lists: list[list[int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """Union of the grids V x V with a per-point grid-membership bitmask."""
    masks: dict[tuple[int, int], int] = {}
    for bit, vals in enumerate(value_lists):
        flag = 1 << bit
        for x in vals:
            for y in vals:
                key = (x, y)
                masks[key] = masks.get(key, 0) | flag
    points = sorted(masks)
    return points, [masks[pt] for pt in points]


def _slope_keys(dys: list[int], dxs: list[int], p: int | None, slopes) -> list:
    """Keys of the slopes dy/dx for every dx in dxs (each > 0 over Q) and dy
    in dys, dx by dx, through the :func:`_slope_table` ``slopes`` of the
    call: dy * K // dx over Q (scaled to integers), dy * inv(dx) mod p over
    F_p."""
    if p is None:
        scaled = [d * slopes for d in dys]
        return [d // dx for dx in dxs for d in scaled]
    ws = [slopes[dx % p] for dx in dxs]
    return [d * w % p for w in ws for d in dys]


def _directions(x1: int, y1: int, vals: list[int], p: int | None, slopes) -> Counter:
    """Histogram of the directions from (x1, y1) to the points of the grid
    vals x vals after it in lexicographic order, keyed by
    :func:`_slope_keys`; the vertical direction is keyed by ``None``."""
    dxs = [x2 - x1 for x2 in vals if x2 > x1]
    hist = Counter(_slope_keys([y - y1 for y in vals], dxs, p, slopes))
    if x1 in vals:  # the column of (x1, y1) itself
        hist[None] = sum(1 for y in vals if y > y1)
    return hist


def collinear_triples(x: ArithSet, y: ArithSet, z: ArithSet) -> int:
    """T(X, Y, Z) from the ratio classes of the coordinate triples.

    The points (a, a'), (b, b'), (c, c') are collinear exactly when the
    vectors (b - a, c - a) and (b' - a', c' - a') are parallel or one of
    them is zero.  The first and second coordinates range over X x Y x Z
    independently, so with N(k) the number of (a, b, c) whose vector has
    the projective class k = [b - a : c - a], W = |X||Y||Z| and
    Z0 = |X ∩ Y ∩ Z| zero vectors, the ordered solutions number

        S = sum_k N(k)^2 + 2 Z0 W - Z0^2.

    Every triple with a repeated point is collinear, and with I_XY =
    |X ∩ Y| and so on,

        T = S - (I_XY^2 |Z|^2 + I_YZ^2 |X|^2 + I_XZ^2 |Y|^2 - 2 Z0^2).

    The classes with c != a are counted one a at a time on the keys of
    :func:`_slope_keys`, with the vector negated where c < a; the class
    [1 : 0] (c = a, b != a) holds I_XZ |Y| - Z0 triples.  Over F_p, when a
    subgroup G != {1} of F_p* fixes X, Y and Z, (a, b, c) -> (ga, gb, gc)
    keeps every class, so the classes from a and from ga are the same
    multiset: one a per orbit of G on X is keyed, with weight |G|, and
    a = 0 with weight 1 (:func:`sumprodlab.sets._orbit_firsts`), |X/G||Y||Z|
    keys in all.
    """
    if not (len(x) and len(y) and len(z)):
        raise ValueError("all three sets must be nonempty")
    values, _, p = _int_values([x, y, z])
    _guard("line hashing over point pairs", _union_pairs(values), DEFAULT_PAIR_CEILING)
    slopes = _slope_table(values, p)
    v0, v1, v2 = values
    weight, firsts = _orbit_firsts(values, p)
    classes: Counter = Counter()

    def key_from(a: int) -> None:
        dys = [b - a for b in v1]
        classes.update(_slope_keys(dys, [c - a for c in v2 if c > a], p, slopes))
        classes.update(_slope_keys([-d for d in dys], [a - c for c in v2 if c < a], p, slopes))

    for a in firsts:
        key_from(a)
    if weight > 1:
        for k in classes:
            classes[k] *= weight
        if v0[0] == 0:
            key_from(0)
    s0, s1, s2 = map(set, values)
    i01, i12, i02, z0 = len(s0 & s1), len(s1 & s2), len(s0 & s2), len(s0 & s1 & s2)
    n0, n1, n2 = map(len, values)
    unkeyed = i02 * n1 - z0  # the class [1 : 0]
    solutions = sum(n * n for n in classes.values()) + unkeyed**2 + 2 * z0 * n0 * n1 * n2 - z0**2
    repeated = (i01 * n2) ** 2 + (i12 * n0) ** 2 + (i02 * n1) ** 2 - 2 * z0**2
    return solutions - repeated


def _determinant_hits(dx: int, dy: int, offsets: list[tuple[int, int]], p: int | None) -> int:
    """How many offsets (ex, ey) make dx*ey - ex*dy vanish, or vanish mod p."""
    if p is None:
        return sum(1 for ex, ey in offsets if dx * ey == ex * dy)
    return sum(1 for ex, ey in offsets if not (dx * ey - ex * dy) % p)


def collinear_triples_brute(
    x: ArithSet,
    y: ArithSet,
    z: ArithSet,
    ceiling: int | None = DEFAULT_BRUTE_CEILING,
) -> int:
    """Oracle route: enumerate point triples and test the determinant.

    With X = Y = Z each unordered triple of distinct grid points is tested
    once and counted six times, since collinearity does not depend on the
    order of the points.  Otherwise every ordered triple (P, Q, R) is
    tested, with the offsets of the third grid from P built once per P.
    """
    if not (len(x) and len(y) and len(z)):
        raise ValueError("all three sets must be nonempty")
    require_same_mode(x, y, z)
    _guard("brute-force triple enumeration", (len(x) * len(y) * len(z)) ** 2, ceiling)
    values, _, p = _int_values([x, y, z])
    grids = [[(u, v) for u in vals for v in vals] for vals in values]
    if values[0] == values[1] == values[2]:
        points = grids[0]
        unordered = 0
        for i, (px, py) in enumerate(points):
            later = [(qx - px, qy - py) for qx, qy in points[i + 1 :]]
            for j, (dx, dy) in enumerate(later, 1):
                unordered += _determinant_hits(dx, dy, later[j:], p)
        return 6 * unordered
    in_last = set(grids[2])
    total = 0
    for px, py in grids[0]:
        offsets = [(rx - px, ry - py) for rx, ry in grids[2]]
        in_p = (px, py) in in_last
        for qx, qy in grids[1]:
            if qx == px and qy == py:
                continue
            hits = _determinant_hits(qx - px, qy - py, offsets, p)
            # r = p and r = q pass the determinant test but are no triple.
            total += hits - in_p - ((qx, qy) in in_last)
    return total


def sextuple_collinearity_count(a: ArithSet) -> tuple[int, int]:
    """Solutions of (a-b)(a'-c') = (a-c)(a'-b') over A^6, by enumeration.

    Returns (total, nondegenerate): the equation is exactly the vanishing
    of the collinearity determinant of the grid points (a, a'), (b, b'),
    (c, c'), so the total includes every coincident triple and the
    nondegenerate count keeps pairwise-distinct points only.  The
    nondegenerate count is cross-checked against the ratio-class route of
    :func:`collinear_triples` and a mismatch raises, since the two must
    agree exactly.
    """
    if len(a) == 0:
        raise ValueError("set must be nonempty")
    _guard("sextuple enumeration", len(a) ** 6, DEFAULT_BRUTE_CEILING)
    nondeg = collinear_triples_brute(a, a, a, ceiling=None)
    check = collinear_triples(a, a, a)
    if check != nondeg:
        raise RouteDisagreement(
            f"route disagreement: ratio classes gave {check}, enumeration {nondeg}"
        )
    # Every triple of the m = |A|^2 points with a repeated point is
    # collinear, and m^3 - m(m-1)(m-2) = 3m^2 - 2m of them repeat one.
    m = len(a) ** 2
    return nondeg + 3 * m * m - 2 * m, nondeg


# -- dyadic line table --------------------------------------------------------


class IncidenceTable(NamedTuple):
    """Line census for the grid pair (C x C, B x B).

    ``census`` maps the exact richness (in_first, in_second, in_both) of a
    line in C x C, in B x B and in their overlap to the number of lines
    with that richness, over the lines meeting at least two points of
    either grid.  Expanding with those counts reproduces T(C, C, B)
    exactly, while :meth:`dyadic_counts` groups lines into the classical
    power-of-two buckets (index -1 collects zero richness).
    """

    first: ArithSet
    second: ArithSet
    census: dict[tuple[int, int, int], int]

    def richness_census(self) -> dict[tuple[int, int], int]:
        census: dict[tuple[int, int], int] = {}
        for (f, s, _both), n in self.census.items():
            census[(f, s)] = census.get((f, s), 0) + n
        return census

    def dyadic_counts(self) -> dict[tuple[int, int], int]:
        buckets: dict[tuple[int, int], int] = {}
        for (f, s, _both), n in self.census.items():
            key = (f.bit_length() - 1, s.bit_length() - 1)
            buckets[key] = buckets.get(key, 0) + n
        return buckets

    def triple_count(self) -> int:
        """Exact T(C, C, B) expanded from per-line richness."""
        return sum(n * (f - 1) * (f * s - 2 * both) for (f, s, both), n in self.census.items())

    def pair_identity_ok(self) -> bool:
        """Every ordered pair of distinct grid points lies on exactly one
        counted line: sum of r(r-1) must equal m(m-1) per grid."""
        m1 = len(self.first) ** 2
        m2 = len(self.second) ** 2
        s1 = sum(n * f * (f - 1) for (f, _s, _both), n in self.census.items())
        s2 = sum(n * s * (s - 1) for (_f, s, _both), n in self.census.items())
        return s1 == m1 * (m1 - 1) and s2 == m2 * (m2 - 1)


def dyadic_table(c: ArithSet, b: ArithSet) -> IncidenceTable:
    """Census of every line meeting >= 2 points of C x C or of B x B.

    From a union point P, the direction histograms of the points after P
    in C x C, B x B and their overlap give the class (in_first, in_second,
    in_both) of the points after P on each line through P.  On a line with
    union points P_1 < ... < P_u, P_i sees a class c_i with c_i + own(P_i)
    = c_{i-1}.  So 1 added at c + own(P) and subtracted at c, over every
    view, telescopes to one count at the class of the whole line, less one
    at own(P_u): a single point, which the census drops.
    """
    if len(c) < 2 and len(b) < 2:
        raise ValueError("at least one of the sets needs two elements")
    values, _, p = _int_values([c, b])
    _guard("line hashing over point pairs", _union_pairs(values), DEFAULT_PAIR_CEILING)
    slopes = _slope_table(values, p)
    first, second = values
    same = first == second
    common = list(set(first) & set(second))
    points, masks = _union_points(values)
    # The classes of the after-P views, per grid-membership mask of P.
    views = {mask: Counter() for mask in (1, 2, 3)}
    for (x1, y1), mask in zip(points, masks):
        hf = hs = hb = _directions(x1, y1, first, p, slopes)
        only_s = ()  # directions with points of B x B and none of C x C
        if not same:
            hs = _directions(x1, y1, second, p, slopes)
            hb = _directions(x1, y1, common, p, slopes)
            only_s = hs.keys() - hf.keys()
        tally = views[mask]
        tally.update(zip(hf.values(), map(hs.get, hf, repeat(0)), map(hb.get, hf, repeat(0))))
        tally.update(zip(repeat(0), map(hs.get, only_s), repeat(0)))
    lines: Counter = Counter()
    for mask, tally in views.items():
        f0, s0, both0 = mask & 1, mask >> 1, int(mask == 3)
        for (f, s, both), n in tally.items():
            lines[(f + f0, s + s0, both + both0)] += n
        lines.subtract(tally)
    census = {k: n for k, n in sorted(lines.items()) if n and (k[0] >= 2 or k[1] >= 2)}
    return IncidenceTable(first=c, second=b, census=census)


class STClassRatio(NamedTuple):
    """One richness class (k, l) against the two-sided line-count bound."""

    k: int
    l: int
    lines: int
    bound: Fraction
    ratio: Fraction


class STBoundReport(NamedTuple):
    """Line counts per richness class against min(|C|^4/k^3 + |C|^2/k,
    |B|^4/l^3 + |B|^2/l), for k, l >= 2.

    ``per_class`` uses exact per-line richness; ``max_ratio`` over those
    classes is the empirical incidence constant of the instance.
    """

    per_class: tuple[STClassRatio, ...]
    max_ratio: Fraction | None


def _st_bound(c_size: int, b_size: int, k: int, l: int) -> Fraction:
    first = Fraction(c_size**4, k**3) + Fraction(c_size**2, k)
    second = Fraction(b_size**4, l**3) + Fraction(b_size**2, l)
    return min(first, second)


def st_line_bound_check(table: IncidenceTable) -> STBoundReport:
    c_size = len(table.first)
    b_size = len(table.second)
    per_class = []
    for (k, l), count in sorted(table.richness_census().items()):
        if k < 2 or l < 2:
            continue
        bound = _st_bound(c_size, b_size, k, l)
        per_class.append(STClassRatio(k, l, count, bound, Fraction(count) / bound))
    ratios = [entry.ratio for entry in per_class]
    return STBoundReport(
        per_class=tuple(per_class),
        max_ratio=max(ratios) if ratios else None,
    )


class GridTriplesReport(NamedTuple):
    """Exact T(C, C, B) against the |B|^{4/3}|C|^{8/3} log^2|B| shape.

    The bound column is report-only (natural log, log^2 of a singleton
    treated as 1); the triple count itself is exact.  ``hypothesis_ok``
    records whether |B| >= |C| held; the count is computed either way.
    """

    c_size: int
    b_size: int
    triples: int
    bound: float
    ratio: float
    hypothesis_ok: bool


def grid_triples_bound_check(c: ArithSet, b: ArithSet) -> GridTriplesReport:
    t = collinear_triples(c, c, b)
    b_size, c_size = len(b), len(c)
    log_term = math.log(b_size) ** 2 if b_size > 1 else 1.0
    bound = b_size ** (4.0 / 3.0) * c_size ** (8.0 / 3.0) * log_term
    return GridTriplesReport(
        c_size=c_size,
        b_size=b_size,
        triples=t,
        bound=bound,
        ratio=t / bound,
        hypothesis_ok=b_size >= c_size,
    )
