"""Exact collinearity counting over Cartesian-product grids.

T(X, Y, Z) is the number of ordered triples of pairwise-distinct
collinear points (p, q, r) with p in X x X, q in Y x Y, r in Z x Z.
The production path takes, for each point p of the first grid, a
histogram of the directions from p to the points of the other two grids
and counts the pairs (q, r) sharing a direction; the brute-force path
enumerates all point triples and tests the 3x3 determinant.  Both are
exact and are kept as independent routes for cross-checking.

Rational coordinates are scaled by a common denominator so that the hot
loops run on plain integers; line keys are unscaled back to the original
coordinates.  Prime-field grids run on the ints modulo p that the sets
store, with each coordinate difference inverted once per call.

The dyadic table hashes every pair of distinct points of two grids to a
canonical line key and classifies every line meeting at least two points
of either grid by its exact per-grid richness; expanding the table with
those exact counts reproduces T, and the lines can also be grouped into
power-of-two richness buckets.

Every pair-ceiling guard sizes the union of the grids from the value
sets alone, before any point is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .field import CeilingExceeded, FieldElement, Residue
from .sets import ArithSet, require_same_mode

#: Ceiling on the number of point pairs hashed into line keys.
DEFAULT_PAIR_CEILING = 100_000_000
#: Ceiling on brute-force triple / sextuple enumeration sizes.
DEFAULT_BRUTE_CEILING = 5_000_000


class RouteDisagreement(RuntimeError):
    """Raised when two exact counting routes give different answers."""


@dataclass(frozen=True, order=True)
class LineKey:
    """Canonical coefficients (a, b, c) of the line a*x + b*y = c.

    Normalized so the first nonzero of (a, b) equals 1; two keys are
    equal exactly when the lines coincide.  Vertical lines come out as
    (1, 0, c), horizontal ones as (0, 1, c).
    """

    a: FieldElement
    b: FieldElement
    c: FieldElement

    @staticmethod
    def through(p: tuple, q: tuple) -> "LineKey":
        (x1, y1), (x2, y2) = p, q
        if x1 == x2 and y1 == y2:
            raise ValueError("two distinct points are required")
        a = y2 - y1
        b = x1 - x2
        c = a * x1 + b * y1
        scale = a if a else b
        return LineKey(a / scale, b / scale, c / scale)


def _scaled_values(sets: list[ArithSet]) -> tuple[list[list[int]], int]:
    """Common-denominator integer coordinates for rational sets."""
    scale = 1
    for s in sets:
        for el in s:
            scale = scale * el.denominator // math.gcd(scale, el.denominator)
    out = []
    for s in sets:
        out.append([el.numerator * (scale // el.denominator) for el in s])
    return out, scale


def _values_for(sets: list[ArithSet]) -> tuple[list[list[int]], int, int | None]:
    require_same_mode(*sets)
    p = sets[0].p
    if p is None:
        vals, scale = _scaled_values(sets)
        return vals, scale, None
    return [list(s._values) for s in sets], 1, p


def _union_size(value_lists: list[list[int]]) -> int:
    """|union of the grids V x V|, by inclusion-exclusion over the value sets:
    the grids of a group of sets meet in the grid of their common values."""
    sets = [set(vals) for vals in value_lists]
    total = 0
    for r in range(1, len(sets) + 1):
        sign = 1 if r % 2 else -1
        for group in combinations(sets, r):
            total += sign * len(set.intersection(*group)) ** 2
    return total


def _inverses(value_lists: list[list[int]], p: int) -> dict[int, int]:
    """pow(d, -1, p) for every nonzero difference d of the coordinate values,
    each computed once."""
    vals = set().union(*value_lists)
    diffs = {(u - v) % p for u in vals for v in vals}
    diffs.discard(0)
    return {d: pow(d, -1, p) for d in diffs}


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


def _group_lines_int(points: list[tuple[int, int]]) -> dict[tuple, set[int]]:
    lines: dict[tuple, set[int]] = {}
    m = len(points)
    for i in range(m):
        x1, y1 = points[i]
        for j in range(i + 1, m):
            x2, y2 = points[j]
            a = y2 - y1
            b = x1 - x2
            c = a * x1 + b * y1
            g = math.gcd(math.gcd(a, b), c)
            a //= g
            b //= g
            c //= g
            if a < 0 or (a == 0 and b < 0):
                a, b, c = -a, -b, -c
            key = (a, b, c)
            got = lines.get(key)
            if got is None:
                lines[key] = {i, j}
            else:
                got.add(i)
                got.add(j)
    return lines


def _group_lines_mod(
    points: list[tuple[int, int]], p: int, inverse: dict[int, int]
) -> dict[tuple, set[int]]:
    lines: dict[tuple, set[int]] = {}
    m = len(points)
    for i in range(m):
        x1, y1 = points[i]
        for j in range(i + 1, m):
            x2, y2 = points[j]
            a = (y2 - y1) % p
            b = (x1 - x2) % p
            if a:
                inv = inverse[a]
                key = (1, b * inv % p, (a * x1 + b * y1) * inv % p)
            else:
                key = (0, 1, y1)
            got = lines.get(key)
            if got is None:
                lines[key] = {i, j}
            else:
                got.add(i)
                got.add(j)
    return lines


def _group_lines(points, value_lists, p):
    if p is None:
        return _group_lines_int(points)
    return _group_lines_mod(points, p, _inverses(value_lists, p))


def _guard_pairs(m: int, ceiling: int | None) -> None:
    if ceiling is not None and m * (m - 1) // 2 > ceiling:
        raise CeilingExceeded("line hashing over point pairs", m * (m - 1) // 2, ceiling)


def _directions(
    x1: int, y1: int, vals: list[int], p: int | None, inverse: dict | None, after: bool
) -> Counter:
    """Histogram of the directions from (x1, y1) to the other points of the
    grid vals x vals, or, with ``after``, to those after it in lexicographic
    order.  Over Q (scaled to integers) a direction is the lowest-terms
    (dy, dx) with dx > 0 and the vertical one is (1, 0); over F_p it is the
    slope dy * inv(dx) mod p and the vertical one is p."""
    dys = [y - y1 for y in vals]
    cols = [x2 - x1 for x2 in vals if (x2 > x1 if after else x2 != x1)]
    if p is None:
        neg = [-d for d in dys]
        keys = []
        for dx in cols:
            ds = dys if dx > 0 else neg
            dx = abs(dx)
            keys += [(d // (g := gcd(dx, d)), dx // g) for d in ds]
        hist = Counter(keys)
        vertical = (1, 0)
    else:
        ws = [inverse[dx % p] for dx in cols]
        hist = Counter([d * w % p for w in ws for d in dys])
        vertical = p
    if x1 in vals:  # the column of (x1, y1) itself
        hist[vertical] = sum(1 for d in dys if (d > 0 if after else d))
    return hist


def collinear_triples(
    x: ArithSet,
    y: ArithSet,
    z: ArithSet,
    pair_ceiling: int | None = DEFAULT_PAIR_CEILING,
) -> int:
    """T(X, Y, Z) by counting directions from each point of the first grid.

    From a point P of X x X, the pairs (Q, R) of Y x Y and Z x Z that are
    collinear with P and distinct from it share a direction from P.  So T
    sums g*h over every P and direction, where g and h count the points of
    Y x Y and Z x Z in that direction, less the pairs with Q = R: the
    points of (Y x Y) ∩ (Z x Z) other than P.

    When X = Y = Z, a line through k points holds k(k-1)(k-2) triples, and
    its i-th point in lexicographic order has k - i of them after it; the
    sum of c(c-1) over those counts c is a third of k(k-1)(k-2), so each
    pair of points is looked at once instead of twice.
    """
    if not (len(x) and len(y) and len(z)):
        raise ValueError("all three sets must be nonempty")
    values, _scale, p = _values_for([x, y, z])
    _guard_pairs(_union_size(values), pair_ceiling)
    inverse = None if p is None else _inverses(values, p)
    v0, v1, v2 = values
    total = 0
    if v0 == v1 == v2:
        for x1 in v0:
            for y1 in v0:
                hist = _directions(x1, y1, v0, p, inverse, True)
                total += sum(c * (c - 1) for c in hist.values())
        return 3 * total
    common = set(v1) & set(v2)
    same = v1 == v2
    for x1 in v0:
        for y1 in v0:
            g = _directions(x1, y1, v1, p, inverse, False)
            h = g if same else _directions(x1, y1, v2, p, inverse, False)
            total += sum(n * h[d] for d, n in g.items())
            total -= len(common) ** 2 - (x1 in common and y1 in common)
    return total


def collinear_triples_brute(
    x: ArithSet,
    y: ArithSet,
    z: ArithSet,
    ceiling: int | None = DEFAULT_BRUTE_CEILING,
) -> int:
    """Oracle route: enumerate every point triple and test the determinant."""
    if not (len(x) and len(y) and len(z)):
        raise ValueError("all three sets must be nonempty")
    values, _scale, p = _values_for([x, y, z])
    grids = [[(u, v) for u in vals for v in vals] for vals in values]
    work = len(grids[0]) * len(grids[1]) * len(grids[2])
    if ceiling is not None and work > ceiling:
        raise CeilingExceeded("brute-force triple enumeration", work, ceiling)
    total = 0
    for px, py in grids[0]:
        for qx, qy in grids[1]:
            if qx == px and qy == py:
                continue
            dqx = qx - px
            dqy = qy - py
            for rx, ry in grids[2]:
                if (rx == px and ry == py) or (rx == qx and ry == qy):
                    continue
                det = dqx * (ry - py) - (rx - px) * dqy
                if (det % p if p is not None else det) == 0:
                    total += 1
    return total


def sextuple_collinearity_count(
    a: ArithSet, ceiling: int | None = DEFAULT_BRUTE_CEILING
) -> tuple[int, int]:
    """Solutions of (a-b)(a'-c') = (a-c)(a'-b') over A^6, by enumeration.

    Returns (total, nondegenerate): the equation is exactly the vanishing
    of the collinearity determinant of the grid points (a, a'), (b, b'),
    (c, c'), so the total includes every coincident triple and the
    nondegenerate count keeps pairwise-distinct points only.  The
    nondegenerate count is cross-checked against the line-grouping route
    and a mismatch raises, since the two must agree exactly.
    """
    if len(a) == 0:
        raise ValueError("set must be nonempty")
    work = len(a) ** 6
    if ceiling is not None and work > ceiling:
        raise CeilingExceeded("sextuple enumeration", work, ceiling)
    values, _scale, p = _values_for([a])
    pts = [(u, v) for u in values[0] for v in values[0]]
    total = 0
    nondeg = 0
    for px, py in pts:
        for qx, qy in pts:
            dqx = qx - px
            dqy = qy - py
            q_is_p = dqx == 0 and dqy == 0
            for rx, ry in pts:
                det = dqx * (ry - py) - (rx - px) * dqy
                if (det % p if p is not None else det) != 0:
                    continue
                total += 1
                if q_is_p:
                    continue
                if (rx == px and ry == py) or (rx == qx and ry == qy):
                    continue
                nondeg += 1
    check = collinear_triples(a, a, a)
    if check != nondeg:
        raise RouteDisagreement(
            f"route disagreement: line grouping gave {check}, enumeration {nondeg}"
        )
    return total, nondeg


# -- dyadic line table --------------------------------------------------------


@dataclass(frozen=True)
class LineRecord:
    """One line with its exact richness in each grid and in their overlap."""

    key: LineKey
    in_first: int
    in_second: int
    in_both: int


@dataclass(frozen=True)
class IncidenceTable:
    """Per-line census for the grid pair (C x C, B x B).

    Lines meeting at least two points of either grid are recorded with
    exact richness; expanding with those counts reproduces T(C, C, B)
    exactly, while :meth:`dyadic_counts` groups lines into the classical
    power-of-two buckets (index -1 collects zero richness).
    """

    first: ArithSet
    second: ArithSet
    lines: tuple[LineRecord, ...]

    def richness_census(self) -> dict[tuple[int, int], int]:
        census: dict[tuple[int, int], int] = {}
        for rec in self.lines:
            key = (rec.in_first, rec.in_second)
            census[key] = census.get(key, 0) + 1
        return census

    def dyadic_counts(self) -> dict[tuple[int, int], int]:
        buckets: dict[tuple[int, int], int] = {}
        for rec in self.lines:
            i = rec.in_first.bit_length() - 1 if rec.in_first else -1
            j = rec.in_second.bit_length() - 1 if rec.in_second else -1
            buckets[(i, j)] = buckets.get((i, j), 0) + 1
        return buckets

    def triple_count(self) -> int:
        """Exact T(C, C, B) expanded from per-line richness."""
        return sum(
            (rec.in_first - 1) * (rec.in_first * rec.in_second - 2 * rec.in_both)
            for rec in self.lines
        )

    def pair_identity_ok(self) -> bool:
        """Every ordered pair of distinct grid points lies on exactly one
        recorded line: sum of r(r-1) must equal m(m-1) per grid."""
        m1 = len(self.first) ** 2
        m2 = len(self.second) ** 2
        s1 = sum(rec.in_first * (rec.in_first - 1) for rec in self.lines)
        s2 = sum(rec.in_second * (rec.in_second - 1) for rec in self.lines)
        return s1 == m1 * (m1 - 1) and s2 == m2 * (m2 - 1)


def _public_key(key: tuple, scale: int, p: int | None) -> LineKey:
    a, b, c = key
    if p is not None:
        return LineKey(Residue(a, p), Residue(b, p), Residue(c, p))
    # Internal keys describe the scaled plane x' = scale * x.
    fa = Fraction(a * scale)
    fb = Fraction(b * scale)
    fc = Fraction(c)
    divisor = fa if fa else fb
    return LineKey(fa / divisor, fb / divisor, fc / divisor)


def dyadic_table(
    c: ArithSet,
    b: ArithSet,
    pair_ceiling: int | None = DEFAULT_PAIR_CEILING,
) -> IncidenceTable:
    """Census of every line meeting >= 2 points of C x C or of B x B."""
    if len(c) < 2 and len(b) < 2:
        raise ValueError("at least one of the sets needs two elements")
    values, scale, p = _values_for([c, b])
    _guard_pairs(_union_size(values), pair_ceiling)
    points, masks = _union_points(values)
    lines = _group_lines(points, values, p)
    records = []
    for key, members in lines.items():
        in_first = in_second = in_both = 0
        for idx in members:
            mask = masks[idx]
            if mask & 1:
                in_first += 1
            if mask & 2:
                in_second += 1
            if mask & 3 == 3:
                in_both += 1
        if in_first < 2 and in_second < 2:
            continue
        records.append((key, in_first, in_second, in_both))
    records.sort()
    return IncidenceTable(
        first=c,
        second=b,
        lines=tuple(
            LineRecord(_public_key(key, scale, p), f, s, both)
            for key, f, s, both in records
        ),
    )


@dataclass(frozen=True)
class STClassRatio:
    """One richness class (k, l) against the two-sided line-count bound."""

    k: int
    l: int
    lines: int
    bound: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class STBoundReport:
    """Line counts per richness class against min(|C|^4/k^3 + |C|^2/k,
    |B|^4/l^3 + |B|^2/l), for k, l >= 2.

    ``per_class`` uses exact per-line richness; ``per_bucket`` is the
    power-of-two rollup with k = 2^i, l = 2^j.  ``max_ratio`` over exact
    classes is the empirical incidence constant of the instance.
    """

    per_class: tuple[STClassRatio, ...]
    per_bucket: tuple[STClassRatio, ...]
    max_ratio: Fraction | None
    prime_field: bool


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
    per_bucket = []
    for (i, j), count in sorted(table.dyadic_counts().items()):
        if i < 1 or j < 1:
            continue
        k, l = 1 << i, 1 << j
        bound = _st_bound(c_size, b_size, k, l)
        per_bucket.append(STClassRatio(k, l, count, bound, Fraction(count) / bound))
    ratios = [entry.ratio for entry in per_class]
    return STBoundReport(
        per_class=tuple(per_class),
        per_bucket=tuple(per_bucket),
        max_ratio=max(ratios) if ratios else None,
        prime_field=table.first.p is not None,
    )


@dataclass(frozen=True)
class GridTriplesReport:
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
