"""Exact counts made apart from sumprodlab, to check its outputs against.

No sumprodlab arithmetic is used here.  A rational set is read as plain
ints over one common denominator D (the element x is stored as x * D), a
prime-field set as its residues in [0, p).  Sizes and energies are
Counters over those ints; quotients are reduced int pairs over Q and
products with a modular inverse over F_p.  Collinear triples are counted
by grouping the points around each grid point into direction classes: two
offsets u, w from a point are collinear with it exactly when the integer
determinant u_x w_y - u_y w_x vanishes (mod p in F_p), which is when their
reduced directions agree.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import gcd, lcm


class Ints:
    """A set read as ints: rational x -> x * den, residue x -> x mod p."""

    __slots__ = ("vals", "den", "p", "_inverse")

    def __init__(self, vals, den: int = 1, p: int | None = None):
        self.vals = sorted(set(vals))
        self.den = den
        self.p = p
        self._inverse: dict[int, int] = {}

    @classmethod
    def of(cls, aset, den: int | None = None) -> "Ints":
        """Read an ArithSet, over its own common denominator unless one is given."""
        if aset.p is not None:
            return cls((x.value for x in aset), 1, aset.p)
        if den is None:
            den = lcm(1, *(x.denominator for x in aset))
        return cls((x.numerator * (den // x.denominator) for x in aset), den, None)

    def __len__(self) -> int:
        return len(self.vals)

    def red(self, x: int) -> int:
        return x % self.p if self.p is not None else x

    def div(self, num: int, den: int):
        """Exact key of num / den: a reduced int pair over Q, a residue over F_p."""
        if self.p is not None:
            inverse = self._inverse.get(den)
            if inverse is None:
                inverse = self._inverse[den] = pow(den, self.p - 2, self.p)
            return num * inverse % self.p
        g = gcd(num, den)
        if den < 0:
            g = -g
        return (num // g, den // g)


def scale_keys(keys, p: int | None) -> Ints:
    """Turn quotient keys (int pairs over Q, residues over F_p) into an Ints set."""
    if p is not None:
        return Ints(keys, 1, p)
    den = lcm(1, *(d for _, d in keys))
    return Ints((n * (den // d) for n, d in keys), den, None)


def energy(values, op) -> int:
    """Sum of r(x)^2 over the representation function of op on values^2."""
    counts = Counter(op(u, v) for u in values for v in values)
    return sum(r * r for r in counts.values())


def add_energy(s: Ints) -> int:
    return energy(s.vals, lambda u, v: s.red(u + v))


def mul_energy(s: Ints) -> int:
    return energy(s.vals, lambda u, v: s.red(u * v))


def sums(s: Ints) -> Ints:
    return Ints((s.red(u + v) for u in s.vals for v in s.vals), s.den, s.p)


def quotient_keys(s: Ints) -> set:
    """(A*A)/A: (u v / D^2) / (w / D) = u v / (w D)."""
    products = {s.red(u * v) for u in s.vals for v in s.vals}
    return {s.div(uv, w * s.den) for uv in products for w in s.vals if w}


def ratio_keys(s: Ints) -> set:
    return {s.div(u, v) for u in s.vals for v in s.vals if v}


def stats(s: Ints) -> dict:
    """The headline counts of verify.stats_record, made independently."""
    values = s.vals
    members = set(values)
    out = {
        "size": len(values),
        "sumset": len({s.red(u + v) for u in values for v in values}),
        "difference_set": len({s.red(u - v) for u in values for v in values}),
        "product_set": len({s.red(u * v) for u in values for v in values}),
        "additive_energy": add_energy(s),
        "multiplicative_energy": mul_energy(s),
    }
    if 0 not in members:
        out["ratio_set"] = len(ratio_keys(s))
        out["quotient_set"] = len(quotient_keys(s))
    return out


def difference_counts(s: Ints) -> Counter:
    """r_{A-A}(alpha) for every alpha != 0."""
    return Counter(s.red(u - v) for u in s.vals for v in s.vals if u != v)


def sigma_minus(s: Ints) -> int:
    """#{(b1, b2) in A^2 : b1 - b2 in A}."""
    members = set(s.vals)
    return sum(1 for u in s.vals for v in s.vals if s.red(u - v) in members)


def edges(s: Ints) -> int:
    """Edges of the containment graph of A against itself."""
    members = set(s.vals)
    return sum(1 for u in s.vals for v in s.vals if s.red(u + v) in members)


def product_with_ratios_energy(s: Ints) -> int:
    """E_+(A * (A/A)), the energy basis_chain bounds from below."""
    ratios = ratio_keys(s)
    if s.p is not None:
        keys = {y * r % s.p for y in s.vals for r in ratios}
    else:
        keys = {s.div(y * n, s.den * d) for y in s.vals for n, d in ratios}
    return add_energy(scale_keys(keys, s.p))


def collision_count(s: Ints) -> int:
    """Q = sum of squared multiplicities of (b2 + b)/(b1 + b) over B^3."""
    counts = Counter(
        s.div(s.red(b2 + b), den)
        for b2 in s.vals
        for b1 in s.vals
        for b in s.vals
        if (den := s.red(b1 + b))
    )
    return sum(g * g for g in counts.values())


def directed_ratio_size(first: Ints, second: Ints) -> int:
    """|{(f1 + c)/(f2 + c)}| with vanishing denominators, 0 and 1 left out."""
    one = first.div(1, 1)
    out = set()
    for f1 in first.vals:
        for f2 in first.vals:
            for c in second.vals:
                den = first.red(f2 + c)
                num = first.red(f1 + c)
                if not den or not num:
                    continue
                val = first.div(num, den)
                if val != one:
                    out.add(val)
    return len(out)


def negated(s: Ints) -> Ints:
    return Ints((s.red(-x) for x in s.vals), s.den, s.p)


def collinear_triples(x: Ints, y: Ints, z: Ints) -> int:
    """Ordered pairwise-distinct collinear (P, Q, R), P in X^2, Q in Y^2, R in Z^2.

    All three sets must share one denominator (or one prime).
    """
    p = x.p
    inverse = _inverse_table(p) if p is not None else None

    def direction(dx: int, dy: int):
        if p is not None:
            dx %= p
            dy %= p
            return (1, dy * inverse[dx] % p) if dx else (0, 1)
        g = gcd(dx, dy)
        dx //= g
        dy //= g
        if dx < 0 or (dx == 0 and dy < 0):
            return (-dx, -dy)
        return (dx, dy)

    grid_y = [(u, v) for u in y.vals for v in y.vals]
    grid_z = grid_y if z.vals == y.vals else [(u, v) for u in z.vals for v in z.vals]
    both = set(grid_y) & set(grid_z)
    total = 0
    for px in x.vals:
        for py in x.vals:
            seen = Counter(
                direction(qx - px, qy - py)
                for qx, qy in grid_y
                if qx != px or qy != py
            )
            if grid_z is grid_y:
                total += sum(c * c for c in seen.values())
            else:
                total += sum(
                    seen[direction(rx - px, ry - py)]
                    for rx, ry in grid_z
                    if rx != px or ry != py
                )
            # A point of both grids was paired with itself once as (Q, R).
            total -= len(both) - ((px, py) in both)
    return total


def _inverse_table(p: int) -> list[int]:
    table = [0] * p
    for v in range(1, p):
        table[v] = pow(v, p - 2, p)
    return table


def common(*sets) -> list[Ints]:
    """Read several ArithSets of one field, rational ones over one shared denominator."""
    if sets[0].p is not None:
        return [Ints.of(s) for s in sets]
    den = lcm(1, *(x.denominator for s in sets for x in s))
    return [Ints.of(s, den) for s in sets]


def is_sidon(s: Ints) -> bool:
    """No nonzero difference is represented twice.

    A = B + C with |B|, |C| >= 2 gives b2 - b1 = (b2 + c) - (b1 + c) for two
    values of c, so a Sidon set is irreducible.
    """
    counts = difference_counts(s)
    return max(counts.values(), default=0) <= 1


def sumset_ints(left, right) -> set[int]:
    return {u + v for u in left for v in right}


def reducible(vals: list[int]) -> bool:
    """Whether a set of ints is B + C with |B|, |C| >= 2, by exhaustion.

    With min(B) = 0, min(C) = min(A), so B lies in A - min(A) and contains 0,
    and C can be taken as every c with B + c inside A.
    """
    members = set(vals)
    low = min(vals)
    shifted = [v - low for v in vals if v != low]
    for k in range(1, len(shifted) + 1):
        for rest in combinations(shifted, k):
            b = (0, *rest)
            c = [v for v in vals if all(v + t in members for t in b)]
            if len(c) >= 2 and sumset_ints(b, c) == members:
                return True
    return False


def min_basis_table(n: int) -> list[int]:
    """best[mask]: the least |B|, B within {0..n-1}, with A in B + B, for A = mask.

    Every B is enumerated by bitmask; its covered set is pushed down to all
    subsets by a superset-minimum pass.
    """
    full = (1 << n) - 1
    worst = n + 1
    best = [worst] * (1 << n)
    cover = [0] * (1 << n)
    for b in range(1, 1 << n):
        low = (b & -b).bit_length() - 1
        cover[b] = cover[b & (b - 1)] | ((b << low) & full)
        size = b.bit_count()
        if size < best[cover[b]]:
            best[cover[b]] = size
    for bit in range(n):
        flag = 1 << bit
        for mask in range(1 << n):
            if not mask & flag and best[mask | flag] < best[mask]:
                best[mask] = best[mask | flag]
    return best


def counting_floor(n: int) -> int:
    """Least k with k (k + 1) / 2 >= n."""
    k = 0
    while k * (k + 1) // 2 < n:
        k += 1
    return k
