"""Finite exact-arithmetic sets and their elementwise arithmetic.

An :class:`ArithSet` is a finite, duplicate-free, canonically ordered set
of exact field elements: rationals, or residues modulo one fixed prime.
All operations here are pure functions returning new sets; results are
independent of evaluation order, and rebuilding the same operation twice
yields byte-identical canonical output.

The on-disk format (used by the CLI) is one element per line, with an
optional header selecting the field::

    # field rational        (default when the header is absent)
    -3/7
    1
    12

    # field fp 31
    0
    17

Comment lines start with ``#``; writers always emit canonical order.

The pair-kernel keys and their decoder :class:`_Keys` live here, with the
quotient encoder :func:`_quotients` (ratio sets, and the popular ratios and
X, Y of :mod:`sumprodlab.popdiff`) and the F_p inverse table
:func:`_inverses` (also the slopes of :mod:`sumprodlab.incidence`).

A set-valued pair operation (sum, difference, product and ratio sets, and
so (A*A)/A) is built on one of two routes, picked by one rule from the
operand sizes m, n and the modulus alone (:func:`_bitset_route`, which
:mod:`sumprodlab.graph` also calls): the bitset route when the field is
F_p, m·n >= p and p <= C·max(m, n), with the crossover constant
C = :data:`_BITSET_SPAN` = 128; the pair walk otherwise, and always over Q.
The bitset route (:func:`_rotated`) ORs at most min(m, n) rotations of one
operand's bitset (:mod:`sumprodlab.cyclic`), of residues for sums and
differences and of discrete logs (:func:`sumprodlab.field.log_tables`) for
products and quotients.  On (|B|, |B|) the rule also picks whether a
containment graph and sigma_A(B) are read from |B| rotate-and-AND rows
(:func:`sumprodlab.cyclic.rotations`), or per orbit (:func:`_orbit_firsts`).
A representation function (:class:`PairCounts`, and so every energy) is
counted on one of three routes, picked by its own rule
(:func:`_packed_route`) from m, n, p and, for r_{A op A}, the step t of
the dilation stabilizer G = <ω^t> of A (:func:`_stabilizer`).  With
G != {1}, r is constant on the cosets of G, so the orbit route
(:func:`_orbit_counts`) counts r at ω^j for j < t and at 0 by t + 1
rotate-and-AND popcounts, where those cost less than the route they
replace.  Otherwise, over F_p with p <= 20,000 and
m·n >= b·p·(2 + p/10,000), b the bytes per count, r comes from one
product of the packed indicator vectors (:func:`_packed_counts`), and
else from the pair walk.  The pair walk is the route over Q and the
oracle of the other two.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, compress
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from . import cyclic
from .field import (
    CeilingExceeded,
    FieldElement,
    ModeMismatchError,
    OutsideDomain,
    Residue,
    check_prime_modulus,
    coerce_element,
    log_tables,
)

#: Ceiling on the number of elementwise pairs / results a single set
#: operation may materialize.  Protects against e.g. |AA/A| ~ |A|^3 blowup.
DEFAULT_ELEMENT_CEILING = 2_000_000


class ArithSet:
    """Immutable, deduplicated, canonically ordered set of field elements.

    ``p`` is ``None`` for rational sets and the (checked) prime modulus
    for prime-field sets.  Elements are sorted numerically (rational mode)
    or by canonical residue (prime-field mode), so every downstream count
    is deterministic.

    Storage: ``_values`` holds the canonical values in sorted order, and
    ``_index`` the same values as a frozenset, built on first read and kept
    in ``_lookup``.  In rational mode the values are the ``Fraction``
    elements themselves.  In prime-field mode they are plain ints in
    ``[0, p)``, and the ``Residue`` tuple :attr:`elements` is built only
    when a caller asks for it.  The kernels of the package read
    ``_values`` and ``_index``; only this module builds them.  No kernel
    computes on the ``Fraction`` values pair by pair: it scales them once
    to ints over a common denominator (:func:`_int_values`), and a
    ``Fraction`` is built again only for each distinct output.  ``_derived``
    keeps what is built on demand: A*A and A/A, the small derived sets of
    the paper's instances, and the ``Residue`` tuple.  It takes no part in
    ``==`` or ``hash``.
    """

    __slots__ = ("_values", "p", "_lookup", "_derived")

    def __init__(self, elements: Iterable = (), p: int | None = None):
        items = list(elements)
        if p is None:
            for x in items:
                if isinstance(x, Residue):
                    p = x.p
                    break
        if p is None:
            values = {coerce_element(x, None) for x in items}
        else:
            check_prime_modulus(p)
            values = {_canonical(x, p) for x in items}
        self._store(values, p)

    @classmethod
    def _from_values(cls, values: Iterable, p: int | None, ordered: bool = False) -> "ArithSet":
        """A set from distinct canonical values, as the kernels produce them:
        ints already reduced into ``[0, p)``, or ``Fraction`` objects.  No
        coercion and no primality check.  With ``ordered`` the values come
        in canonical order already and are not sorted again."""
        s = object.__new__(cls)
        s._store(values, p, ordered)
        return s

    def _store(self, values: Iterable, p: int | None, ordered: bool = False) -> None:
        values = tuple(values) if ordered else tuple(sorted(values))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_lookup", None)
        object.__setattr__(self, "_derived", None)

    @property
    def _index(self) -> frozenset:
        """The values as a frozenset, built on first read: a counted-only
        set never pays a ``Fraction.__hash__`` per element."""
        index = self._lookup
        if index is None:
            index = frozenset(self._values)
            object.__setattr__(self, "_lookup", index)
        return index

    def __setattr__(self, *args):
        raise AttributeError("ArithSet is immutable")

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        """The elements in canonical order, as ``Fraction`` or ``Residue``."""
        if self.p is None:
            return self._values
        derived = self._memo()
        got = derived.get("elements")
        if got is None:
            got = derived["elements"] = tuple(Residue(v, self.p) for v in self._values)
        return got

    def _memo(self) -> dict:
        if self._derived is None:
            object.__setattr__(self, "_derived", {})
        return self._derived

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        """Whether ``x`` is an element.  An element of another field, a
        rational with no residue mod p, or any other object is not."""
        try:
            return _canonical(x, self.p) in self._index
        except (ModeMismatchError, TypeError, ValueError, ZeroDivisionError):
            return False

    def __eq__(self, other):
        if not isinstance(other, ArithSet):
            return NotImplemented
        return self.p == other.p and self._values == other._values

    def __hash__(self):
        return hash((self.p, self._values))

    def __repr__(self):
        body = ", ".join(map(str, self._values[:8]))
        if len(self._values) > 8:
            body += f", ... ({len(self._values)} elements)"
        mode = "rational" if self.p is None else f"fp {self.p}"
        return f"ArithSet({{{body}}}, {mode})"

    # -- mode helpers --------------------------------------------------------

    @property
    def mode(self) -> str:
        return "rational" if self.p is None else f"fp:{self.p}"

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def same_mode(self, other: "ArithSet") -> bool:
        return self.p == other.p

    def contains_zero(self) -> bool:
        return 0 in self._index

    def index_of(self, x) -> int:
        """Position of ``x`` in canonical order (used by graph code)."""
        v = _canonical(x, self.p)
        i = bisect_left(self._values, v)
        if i == len(self._values) or self._values[i] != v:
            raise KeyError(f"{v} not in set")
        return i


def _canonical(x, p: int | None):
    """The stored value of ``x`` in the field of ``p``: a ``Fraction``, or an
    int in ``[0, p)``."""
    if p is None:
        return coerce_element(x, None)
    if isinstance(x, int):
        return x % p
    return coerce_element(x, p).value


def _inverses(ds: Iterable[int], p: int) -> dict[int, int]:
    """The F_p inverse of each distinct residue of ``ds``, with 0 read as 0:
    the one place an inverse mod p is computed for a kernel."""
    return {d: pow(d, -1, p) if d else 0 for d in set(ds)}


def _divisors(ys: list[int], ws: list[int], p: int | None) -> list[tuple[int, list]]:
    """For each w of ws in order, w and the divisors y + w over the ys in
    order, ready for :func:`_quotients`: over Q as (sign, |y + w|), over
    F_p as the inverse of y + w, each inverse computed once.  A vanishing
    y + w reads as 0 in both fields.  Grouped by w, x + w is formed once
    per w, and a quotient row of the pair kernel (w = 0) pays no addition."""
    if p is None:
        return [
            (w, [(1, d) if d > 0 else (-1, -d) if d else 0 for y in ys for d in (y + w,)])
            for w in ws
        ]
    sums = [[(y + w) % p for y in ys] for w in ws]
    inverse = _inverses(chain.from_iterable(sums), p)
    return [(w, [inverse[d] for d in row]) for w, row in zip(ws, sums)]


def _quotients(x: int, divisors: list[tuple[int, list]], p: int | None) -> list:
    """The quotient key of (x + w)/(y + w) for each divisor of each w, in
    order, none of them vanishing: the reduced int pair (num, den) with
    den > 0 over Q, in which a common denominator of the operands cancels,
    and the residue over F_p.  x + w is formed once per w."""
    if p is None:
        return [
            (sign * n // (g := gcd(n, d)), d // g)
            for w, row in divisors
            for n in (x + w,)
            for sign, d in row
        ]
    return [n * inv % p for w, row in divisors for n in (x + w,) for inv in row]


#: Row builders of the pair kernel: (u, row of t, p) -> keys of u op v.
_ROWS = {
    "plus": lambda u, vs, p: [u + v for v in vs],
    "minus": lambda u, vs, p: [u - v for v in vs],
    "times": lambda u, vs, p: [u * v for v in vs],
}
_ROWS_MOD = {
    "plus": lambda u, vs, p: [(u + v) % p for v in vs],
    "minus": lambda u, vs, p: [(u - v) % p for v in vs],
    "times": lambda u, vs, p: [u * v % p for v in vs],
}
#: Operations with u op v = v op u: over s x s the kernel needs only the
#: pairs with v at or after u.
_COMMUTATIVE = ("plus", "times")
#: Self-operations kept in ``ArithSet._derived``; A+A and A-A are not kept.
_MEMOIZED = ("times", "divide")


class _Keys(NamedTuple):
    """How the pair kernel keys the outputs of one operation, and the way
    back to canonical values.

    Over F_p (``p`` set) a key is the residue's int in ``[0, p)``.  Over Q
    the operands are ints over a common denominator D: a sum or a
    difference is keyed by its value times ``scale`` = D, a product by its
    value times ``scale`` = D², and a quotient (``scale`` ``None``) by its
    reduced int pair (num, den) with den > 0 (:func:`_quotients`).
    """

    p: int | None
    scale: int | None

    def key(self, v):
        """The key of the canonical value ``v``, or ``None`` for a rational
        off the lattice (1/scale)Z, which no pair can give."""
        if self.p is not None:
            return v
        if self.scale is None:
            return (v.numerator, v.denominator)
        q, r = divmod(self.scale, v.denominator)
        return None if r else v.numerator * q

    def value(self, key) -> FieldElement:
        """The field element of a key: a ``Residue`` or a ``Fraction``."""
        if self.p is not None:
            return Residue(key, self.p)
        if self.scale is None:
            return Fraction(*key)
        return Fraction(key, self.scale)

    def sort(self, keys) -> list:
        """Distinct keys in the canonical order of their values, sorted on
        ints.  Two distinct fractions with denominators at most n differ by
        at least 1/n², so with M = n² the int num·M // den is strictly
        increasing in the value of the pair (num, den)."""
        if self.p is None and self.scale is None:
            m = max((den for _, den in keys), default=1) ** 2
            return sorted(keys, key=lambda k: k[0] * m // k[1])
        return sorted(keys)

    def ordered(self, keys) -> tuple:
        """The canonical values of distinct keys, in canonical order."""
        if self.p is not None:
            return tuple(sorted(keys))
        return tuple(map(self.value, self.sort(keys)))


def _pair_rows(
    s: ArithSet, t: ArithSet, op: str, upper: bool = False
) -> tuple[Iterator[list], _Keys]:
    """The pair kernel: for each u of s in canonical order, the list of keys
    of ``u op v`` over the v of t in canonical order, and the :class:`_Keys`
    that reads them.  With ``upper`` (for t = s) a row holds only the v at
    or after u, the diagonal first.

    ``op`` is one of ``plus``, ``minus``, ``times``, ``divide``; ``divide``
    skips zero divisors.  Every pair costs plain-int operations only, on
    the coordinates of :func:`_int_values`.  A quotient row is
    :func:`_quotients` over the nonzero v as divisors of w = 0: over Q it
    costs one gcd, in F_p each divisor is inverted once.
    """
    if op != "divide" and op not in _ROWS:
        raise ValueError(f"unknown operation {op!r}")
    values, d, p = _int_values([s] if t is s else [s, t])
    xs, ys = values[0], values[-1]  # one list when t is s
    keys = _Keys(p, None if p is not None or op == "divide" else d * d if op == "times" else d)
    if op == "divide":
        ys, row = _divisors([v for v in ys if v], [0], p), _quotients
    else:
        row = (_ROWS if p is None else _ROWS_MOD)[op]
    if upper:
        return (row(u, ys[i:], p) for i, u in enumerate(xs)), keys
    return (row(u, ys, p) for u in xs), keys


class PairCounts(Mapping):
    """The representation function r(x) = #{(u, v) : u op v = x} as a
    read-only mapping from field elements to counts.

    The counts are kept on the int keys of the pair kernel (:class:`_Keys`),
    from the packed product or the pair walk, as :func:`_packed_route` picks;
    on the orbit route as (t, [r(ω^j) for j < t], r(0)), from which ``len``
    and :meth:`square_sum` are read and a lookup of x != 0 reads the count
    at log x mod t.  Only iteration and :meth:`table` spread them over
    every residue, once.  A lookup encodes its key: an int, a ``Fraction``
    or (over F_p) a ``Residue`` of the same modulus.  A rational off the kernel's lattice
    or, over F_p, with no residue mod p, an element of another field, a
    ``str`` or any other object reads as missing.  ``values()`` reads the
    stored counts, and only iterating over the keys builds field elements,
    one per distinct value.
    """

    __slots__ = ("_counts", "_keys", "_orbits")

    def __init__(self, s: ArithSet, t: ArithSet, op: str):
        self._keys = _Keys(s.p, None)
        self._orbits = None
        route, step, logs = _count_route(s, t)
        if route == "orbit":
            self._orbits = _orbit_counts(s, op, step, logs)
            self._counts = None
            return
        if route == "packed":
            self._counts = _packed_counts(s, t, op)
            return
        if op not in _COMMUTATIVE or s != t:
            rows, self._keys = _pair_rows(s, t, op)
            self._counts = Counter(chain.from_iterable(rows))
            return
        # Each pair u != v of the upper rows stands for (u, v) and (v, u);
        # the diagonal value opens every row and counts once.  The counts are
        # doubled in place: a second table would raise the peak memory.
        rows, self._keys = _pair_rows(s, s, op, upper=True)
        counts = Counter()
        diagonal = []
        for row in rows:
            counts.update(row)
            diagonal.append(row[0])
        for x in counts:
            counts[x] *= 2
        for x in diagonal:
            counts[x] -= 1
        self._counts = counts

    @property
    def p(self) -> int | None:
        return self._keys.p

    def table(self) -> tuple[_Keys, Mapping]:
        """The counts on the pair kernel's int keys, with the :class:`_Keys`
        that reads them: the stored table, or on the orbit route the orbit
        counts spread over every residue, once."""
        if self._counts is None:
            step, row, zero = self._orbits
            exp, _ = log_tables(self.p)
            counts = {}
            for j, c in enumerate(row):
                if c:
                    counts.update(dict.fromkeys(exp[j::step], c))
            if zero:
                counts[0] = zero
            self._counts = counts
        return self._keys, self._counts

    def square_sum(self) -> int:
        """The sum of r(x)² over every x: on the orbit route
        |G|·Σ_j r(ω^j)² + r(0)², read without spreading the orbits."""
        if self._orbits is None:
            return sum(r * r for r in self._counts.values())
        step, row, zero = self._orbits
        return (self.p - 1) // step * sum(c * c for c in row) + zero * zero

    def __getitem__(self, x) -> int:
        got = None
        if not isinstance(x, str):
            try:
                key = self._keys.key(_canonical(x, self.p))
                if self._orbits is None:
                    got = self._counts.get(key)
                else:
                    step, row, zero = self._orbits
                    got = (row[log_tables(self.p)[1][key] % step] if key else zero) or None
            except (ModeMismatchError, TypeError, ValueError, ZeroDivisionError):
                pass
        if got is None:
            raise KeyError(x)
        return got

    def __iter__(self) -> Iterator[FieldElement]:
        keys, counts = self.table()
        return map(keys.value, counts)

    def __len__(self) -> int:
        if self._orbits is None:
            return len(self._counts)
        step, row, zero = self._orbits
        return (self.p - 1) // step * (step - row.count(0)) + bool(zero)

    def values(self):
        return self.table()[1].values()


def require_same_mode(s: ArithSet, *others: ArithSet) -> None:
    """Raise :class:`ModeMismatchError` unless every set shares the mode of ``s``."""
    for t in others:
        if not s.same_mode(t):
            raise ModeMismatchError(f"cannot combine sets in modes {s.mode} and {t.mode}")


def _int_values(sets: list[ArithSet]) -> tuple[list[list[int]], int, int | None]:
    """Plain-int coordinates of same-mode sets, the int standing for 1 among
    them, and their modulus: over Q each set as the ints d·x in canonical
    order, d the common denominator of all the sets (1 stands as d, the
    modulus is ``None``); over F_p the stored residues.  Scaling by a
    positive int keeps canonical order and every quotient of differences
    or sums."""
    require_same_mode(*sets)
    p = sets[0].p
    if p is not None:
        return [list(s._values) for s in sets], 1, p
    d = math.lcm(*(x.denominator for s in sets for x in s._values))
    return [[x.numerator * (d // x.denominator) for x in s._values] for s in sets], d, None


def _require_nonempty(*sets: ArithSet) -> None:
    for s in sets:
        if len(s) == 0:
            raise ValueError("operation requires a nonempty set")


def _guard(what: str, requested: int, ceiling: int | None) -> None:
    if ceiling is not None and requested > ceiling:
        raise CeilingExceeded(what, requested, ceiling)


#: The crossover constant C of :func:`_bitset_route`, measured on random
#: operands of m = n = p/C residues (a 2-CPU x86-64 machine, CPython 3.11).
#: At p = 100,003 and C = 128 the bitset route is 9x faster than the pair
#: walk on sums and differences, 2x on products and quotients and 2x to 4x
#: on containment-graph rows; at C = 256 products and quotients drop to
#: 0.8x.  The crossover grows with p (at p = 1,000,003 and C = 512 products
#: are still 2x faster), so C = 128 is the conservative end.  Where m·n is
#: close to p, the O(p) read-back makes products and quotients about as
#: costly on both routes.
_BITSET_SPAN = 128


def _bitset_route(m: int, n: int, p: int | None) -> bool:
    """The one route rule for a pair operation on operands of sizes m and n,
    read from the operands alone: the F_p bitset route when m·n >= p, so
    that its O(p) read-back (and the O(p) log table, built once per
    modulus) stays within the order of the pair walk's m·n pairs, and
    p <= C·max(m, n), so that each of its min(m, n) rotations of a p-bit
    int costs no more than the max(m, n) pairs it replaces; the pair walk
    otherwise, and always over Q."""
    return p is not None and m * n >= p and p <= _BITSET_SPAN * max(m, n)


def _rotated(s: ArithSet, t: ArithSet, op: str) -> list[int]:
    """The bitset route over F_p: the residues of ``s op t`` in canonical
    order, from at most min(|s|, |t|) rotations of the other operand's bitset.

    Sums and differences rotate a p-bit mask of residues.  Products and
    quotients rotate a (p − 1)-bit mask of the discrete logs of the nonzero
    elements (:func:`sumprodlab.field.log_tables`); 0 is added by hand, and
    as in the pair walk a zero divisor gives no quotient.
    """
    p = s.p
    xs, ys = s._values, t._values
    if op == "plus":
        return cyclic.members(cyclic.sums(xs, ys, p))
    if op == "minus":
        return cyclic.members(cyclic.sums(xs, [-v % p for v in ys], p))
    exp, log = log_tables(p)
    n = p - 1
    logs = [log[v] for v in xs if v]
    others = [log[v] for v in ys if v]
    if op == "divide":
        others = [-k % n for k in others]
        zero = xs[0] == 0 and bool(others)
    else:
        zero = xs[0] == 0 or ys[0] == 0
    out = []
    if logs and others:
        out = sorted(map(exp.__getitem__, cyclic.members(cyclic.sums(logs, others, n))))
    return [0, *out] if zero else out


#: The constants of :func:`_packed_route`, measured against the pair walk
#: on random operands (a 2-CPU x86-64 machine, CPython 3.11), taking the
#: slowest of the four operations.  The walk costs m·n pairs; the product
#: of two p·b-byte ints costs about (p·b)^1.585 under Karatsuba, so the
#: break-even m·n/p rises with p and b.  With b = 1 it was 1.4 at p = 1009,
#: 2.6 at p = 10,009 and 4.4 at p = 100,003; with b = 2 about 5.5 at
#: p = 10,009, 7.8 at p = 20,011 and 9.7 at p = 100,003.  On the boundary
#: m·n = b·p·(2 + p/10,000) of the rule the packed route was 1.2x to 3x
#: faster at p <= 5003 and 1.1x to 2x at p = 10,009, 15,013 and 19,997;
#: beyond p = 20,000 the break-even outgrows the factor.
_PACKED_BASE = 2
_PACKED_GROWTH = 10_000
_PACKED_MAX_P = 20_000

#: The constants K and W of the orbit route in :func:`_packed_route`,
#: measured against the pair walk on cosets of the subgroups of F_p* of
#: order 10 to 1,200 and index t <= 1,500, for p = 1009, 3121, 10,501,
#: 20,161, 51,481 and 100,801 (a 2-CPU x86-64 machine, CPython 3.11),
#: taking the slowest of the four operations on the orbit route and the
#: fastest on the walk.
#: A rotate-and-AND popcount of p bits cost about as much as 1 + p/W
#: pairs, W = 800 (0.2 µs at p = 1009, 0.9 µs at p = 10,501, a pair
#: 0.07 to 0.15 µs), and the O(p) masks and stabilizer test as K = 64
#: rotations more.  The measured break-even m² was 225, 780, 3,000, 7,560,
#: 25,600 and 62,500 at those p, against 296, 863, 3,588, 7,756, 25,095
#: and 58,929 from (t + K)·(1 + p/W); the rule picked the faster route on
#: 127 of the 128 cosets with m² >= p.  Where it picks the orbit route and
#: p <= 20,000, the orbit route was 2.3x to 35x faster than the packed
#: product.
_ORBIT_FIXED = 64
_ORBIT_BITS = 800


def _packed_route(m: int, n: int, p: int | None, step: int | None = None) -> str:
    """The one route rule for a representation function on operands of sizes
    m and n, read from the operands alone: ``"packed"``, the packed product
    over F_p, when p <= 20,000 (:data:`_PACKED_MAX_P`) and
    m·n >= b·p·(2 + p/10,000), b the bytes per field that min(m, n) needs,
    so that the product of two p·b-byte ints costs less than the m·n pairs
    it replaces; ``"walk"``, the pair walk, otherwise and always over Q.

    ``step`` is the step t of the stabilizer G of the one set both operands
    are (:func:`_stabilizer`).  With G != {1}, the rule picks ``"orbit"``
    (:func:`_orbit_counts`) when m·n >= p, so that the O(p) log table
    stays within the order of the walk as on the bitset route, and its
    t + 1 rotations cost less than the route they replace:
    (t + K)·(1 + p/W) <= w, with w the walk's m·n pairs or the packed
    product's b·p·(2 + p/10,000), and K = 64 and W = 800 measured
    (:data:`_ORBIT_FIXED`, :data:`_ORBIT_BITS`)."""
    if p is None:
        return "walk"
    walk = m * n * _PACKED_GROWTH
    packed = cyclic.field_bytes(min(m, n)) * p * (_PACKED_BASE * _PACKED_GROWTH + p)
    route, cost = ("packed", packed) if p <= _PACKED_MAX_P and walk >= packed else ("walk", walk)
    if step is not None and step < p - 1 and m * n >= p:
        if (step + _ORBIT_FIXED) * (p + _ORBIT_BITS) * _PACKED_GROWTH <= _ORBIT_BITS * cost:
            return "orbit"
    return route


def _count_route(s: ArithSet, t: ArithSet) -> tuple[str, int, int]:
    """The route :func:`_packed_route` picks for r_{s op t}, with the step and
    log mask of :func:`_stabilizer` on the orbit route (0 and 0 elsewhere).
    G's order divides p − 1 and the number of nonzero elements of s, so its
    step is at least (p − 1) over their gcd; the O(p) stabilizer test is
    made only where the orbit route would win at that step."""
    m, n, p = len(s), len(t), s.p
    if p is not None and m and t == s:
        least = (p - 1) // gcd(p - 1, m - (s._values[0] == 0))
        if _packed_route(m, m, p, least) == "orbit":
            step, logs = _stabilizer(s._values, p)
            route = _packed_route(m, m, p, step)
            return (route, step, logs) if route == "orbit" else (route, 0, 0)
    return _packed_route(m, n, p), 0, 0


def _stabilizer(values: Iterable[int], p: int) -> tuple[int, int]:
    """The step t of the stabilizer G = {g : g·A = A} of the F_p set A with
    the residues ``values``, and the mask over Z/(p − 1) of the discrete
    logs of its nonzero elements (:func:`sumprodlab.field.log_tables`) that
    gives it: G = <ω^t>, of order (p − 1)/t, ω the least primitive root, with t the
    least period of that mask (:func:`sumprodlab.cyclic.period`).  A with or
    without 0 is a union of cosets of G; G = {1} reads t = p − 1.  Computed
    on every call."""
    _, log = log_tables(p)
    logs = cyclic.mask([log[v] for v in values if v], p - 1)
    return cyclic.period(logs, p - 1), logs


def _orbit_firsts(values: list, p: int | None, budget: float = math.inf) -> tuple[int, list]:
    """|G|, G the largest subgroup of F_p* fixing each sorted value list,
    and the a of the first list to take: one nonzero a per orbit, log a < t
    for G = <ω^t>, t the lcm of the lists' steps (:func:`_stabilizer`); with
    G = {1}, always over Q, every a.  G is read only where the gcd of p − 1
    and the nonzero counts allows G != {1}, the sizes multiply to p or more,
    and t + K (:data:`_ORBIT_FIXED`) fits the ``budget`` of p-bit rotations."""
    first = values[0]
    if p is None:
        return 1, first
    n = p - 1
    least = n // gcd(n, *(len(vals) - (vals[0] == 0) for vals in values))
    if least == n or least + _ORBIT_FIXED > budget or math.prod(map(len, values)) < p:
        return 1, first
    step = math.lcm(*(_stabilizer(vals, p)[0] for vals in {tuple(v): v for v in values}.values()))
    if step == n or step + _ORBIT_FIXED > budget:
        return 1, first
    _, log = log_tables(p)
    return n // step, [a for a in first if a and log[a] < step]


def _orbit_counts(s: ArithSet, op: str, step: int, logs: int) -> tuple[int, list[int], int]:
    """The orbit route over F_p for r_{s op s}, s fixed by G = <ω^t>, t =
    ``step``, with ``logs`` the mask of its nonzero logs: r is constant on
    each coset ω^j·G, since (u, v) -> (gu, gv) (sums, differences) or
    (gu, v) (products, quotients) maps the pairs of x onto those of gx.  So
    (t, [r(ω^j) for j < t], r(0)), from t + 1 rotate-and-AND popcounts
    (:func:`sumprodlab.cyclic.rotations`).

    Sums and differences rotate a p-bit residue mask by ω^j; products and
    quotients the log mask by j.  0 is counted by hand, as in
    :func:`_packed_counts`: 2|s| − 1 products if 0 is in s, and a quotient
    0/v for each nonzero v.
    """
    p = s.p
    xs = s._values
    exp, log = log_tables(p)
    n = p - 1
    if op in ("plus", "minus"):
        moving = cyclic.mask(xs, p)
        # -1 = ω^{n/2} is in G when |G| is even, and then -s = s.
        even = not n // step % 2
        fixed = moving if op == "minus" or even else cyclic.mask([-v % p for v in xs], p)
        rows = cyclic.rotations(moving, fixed, chain((0,), exp[:step]), p)
        zero, *row = (r.bit_count() for r in rows)
        return step, row, zero
    if op == "times":
        fixed = cyclic.mask([-log[v] % n for v in xs if v], n)
        zero = 2 * len(xs) - 1 if xs[0] == 0 else 0
    elif op == "divide":
        fixed = logs
        zero = len(xs) - 1 if xs[0] == 0 else 0
    else:
        raise ValueError(f"unknown operation {op!r}")
    return step, [r.bit_count() for r in cyclic.rotations(logs, fixed, range(step), n)], zero


def _packed_counts(s: ArithSet, t: ArithSet, op: str) -> dict[int, int]:
    """The packed route over F_p: r(x) = #{(u, v) : u op v = x} for every
    residue x with r(x) > 0, from one product of packed indicator vectors
    (:func:`sumprodlab.cyclic.counts`).

    Sums use the residues as they are, differences negate t first.
    Products and quotients count over Z/(p − 1) on the discrete logs of the
    nonzero elements (:func:`sumprodlab.field.log_tables`), quotients with
    t's logs negated; 0 is counted by hand: a product is 0 for the
    |s|·[0 in t] + |t|·[0 in s] − [0 in s][0 in t] pairs with a zero factor,
    a quotient 0/v for each nonzero v of t, and as in the pair walk a zero
    divisor gives no quotient.
    """
    p = s.p
    xs, ys = s._values, t._values
    if op in ("plus", "minus"):
        if op == "minus":
            ys = [-v % p for v in ys]
        elif t == s:
            ys = xs  # the same list: the product is a square
        r = cyclic.counts(xs, ys, p)
        return dict(zip(compress(range(p), r), compress(r, r)))
    exp, log = log_tables(p)
    n = p - 1
    logs = [log[v] for v in xs if v]
    if op == "times":
        others = logs if t == s else [log[v] for v in ys if v]
        zero_s, zero_t = xs[0] == 0, ys[0] == 0
        zero = len(xs) * zero_t + len(ys) * zero_s - (zero_s and zero_t)
    elif op == "divide":
        others = [-log[v] % n for v in ys if v]
        zero = len(others) if xs[0] == 0 else 0
    else:
        raise ValueError(f"unknown operation {op!r}")
    r = cyclic.counts(logs, others, n)
    counts = dict(zip(map(exp.__getitem__, compress(range(n), r)), compress(r, r)))
    if zero:
        counts[0] = zero
    return counts


def _pairwise(s, t, op, ceiling=None, what="pairwise set operation"):
    # The guard runs first, so a memo hit refuses exactly as a build does.
    _guard(what, len(s) * len(t), ceiling)
    same = s == t
    if not same or op not in _MEMOIZED:
        return _materialize(s, t, op, same)
    derived = s._memo()
    if op not in derived:
        derived[op] = _materialize(s, s, op, True)
    return derived[op]


def _materialize(s, t, op, same):
    if _bitset_route(len(s), len(t), s.p):
        return ArithSet._from_values(_rotated(s, t, op), s.p, ordered=True)
    rows, keys = _pair_rows(s, t, op, same and op in _COMMUTATIVE)
    return ArithSet._from_values(keys.ordered(set(chain.from_iterable(rows))), s.p, ordered=True)


def _single(s: ArithSet, x) -> ArithSet:
    """The singleton {x} in the field of ``s``."""
    return ArithSet._from_values((_canonical(x, s.p),), s.p)


def sumset(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise sums ``{a + b : a in s, b in t}``.

    In rational mode ``|s + t| >= |s| + |t| - 1``, with equality exactly
    for arithmetic progressions with a common difference.
    """
    _require_nonempty(s, t)
    require_same_mode(s, t)
    return _pairwise(s, t, "plus", ceiling, "sumset")


def difference_set(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise differences ``{a - b}``."""
    _require_nonempty(s, t)
    require_same_mode(s, t)
    return _pairwise(s, t, "minus", ceiling, "difference set")


def product_set(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise products ``{a * b}``."""
    _require_nonempty(s, t)
    require_same_mode(s, t)
    return _pairwise(s, t, "times", ceiling, "product set")


def ratio_set(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise quotients ``{a / b}``; requires ``0 not in t``."""
    _require_nonempty(s, t)
    require_same_mode(s, t)
    if t.contains_zero():
        raise ZeroDivisionError("ratio set requires 0 not in the divisor set")
    return _pairwise(s, t, "divide", ceiling, "ratio set")


def translate(s: ArithSet, shift) -> ArithSet:
    return _pairwise(s, _single(s, shift), "plus")


def dilate(s: ArithSet, factor) -> ArithSet:
    factor = _single(s, factor)
    if factor.contains_zero():
        raise ValueError("dilation factor must be nonzero")
    return _pairwise(s, factor, "times")


def negate(s: ArithSet) -> ArithSet:
    return _pairwise(_single(s, 0), s, "minus")


def aa_over_a(a: ArithSet) -> ArithSet:
    """The quotient set (A*A)/A.

    Size can reach ``|A|^3``; :data:`DEFAULT_ELEMENT_CEILING` (element-pair
    count) aborts with :class:`CeilingExceeded` instead of exhausting
    memory.  Requires ``0 not in A`` (:class:`OutsideDomain` otherwise).
    """
    _require_nonempty(a)
    if a.contains_zero():
        raise OutsideDomain("(A*A)/A requires 0 not in A")
    _guard("product set A*A", len(a) * len(a), DEFAULT_ELEMENT_CEILING)
    prods = product_set(a, a)
    _guard("quotients (A*A)/A", len(prods) * len(a), DEFAULT_ELEMENT_CEILING)
    return ratio_set(prods, a)


def normalize(a: ArithSet) -> ArithSet:
    """Drop 0 and rescale so that 1 is an element.

    The divisor is the smallest positive element in rational mode (falling
    back to the largest element when no positive one exists) and the least
    nonzero residue in prime-field mode.  Idempotent, and preserves the
    multiplicative doubling |AA|/|A| of the zero-free part.
    """
    _require_nonempty(a)
    nonzero = [x for x in a._values if x]
    if not nonzero:
        raise ValueError("cannot normalize {0}")
    if a.p is None:
        positive = [x for x in nonzero if x > 0]
        divisor = min(positive) if positive else max(nonzero)
    else:
        divisor = min(nonzero)
    return _pairwise(ArithSet._from_values(nonzero, a.p), _single(a, divisor), "divide")


def multiplicative_doubling(a: ArithSet) -> Fraction:
    """|A*A| / |A| as an exact rational."""
    _require_nonempty(a)
    return Fraction(len(product_set(a, a)), len(a))


# -- set file format ---------------------------------------------------------

_HEADER_PREFIX = "# field"


def dumps_set(a: ArithSet) -> str:
    lines = [f"# field {'rational' if a.p is None else f'fp {a.p}'}"]
    lines.extend(map(str, a._values))
    return "\n".join(lines) + "\n"


def loads_set(text: str) -> ArithSet:
    p: int | None = None
    mode_seen = False
    elements: list[FieldElement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_HEADER_PREFIX):
                if mode_seen:
                    raise ValueError(f"line {lineno}: duplicate field header")
                if elements:
                    raise ValueError(f"line {lineno}: field header after elements")
                parts = line[len(_HEADER_PREFIX):].split()
                if parts == ["rational"]:
                    p = None
                elif len(parts) == 2 and parts[0] == "fp":
                    p = check_prime_modulus(int(parts[1]))
                else:
                    raise ValueError(f"line {lineno}: bad field header {line!r}")
                mode_seen = True
            continue
        try:
            elements.append(coerce_element(line, p))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"line {lineno}: bad element {line!r}: {exc}") from exc
    return ArithSet(elements, p=p)


def write_set_file(a: ArithSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_set(a))


def read_set_file(path) -> ArithSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_set(fh.read())
