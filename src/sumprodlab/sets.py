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
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .field import (
    CeilingExceeded,
    FieldElement,
    ModeMismatchError,
    OutsideDomain,
    Residue,
    check_prime_modulus,
    coerce_element,
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

    Storage: ``_values`` holds the canonical values in sorted order and
    ``_index`` the same values as a frozenset.  In rational mode the values
    are the ``Fraction`` elements themselves.  In prime-field mode they are
    plain ints in ``[0, p)``, and the ``Residue`` tuple :attr:`elements` is
    built only when a caller asks for it.  The kernels of the package read
    ``_values`` and ``_index``; only this module builds them.
    """

    __slots__ = ("_values", "p", "_index", "_elements")

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
    def _from_values(cls, values: Iterable, p: int | None) -> "ArithSet":
        """A set from distinct canonical values, as the kernels produce them:
        ints already reduced into ``[0, p)``, or ``Fraction`` objects.  No
        coercion and no primality check."""
        s = object.__new__(cls)
        s._store(values, p)
        return s

    def _store(self, values: Iterable, p: int | None) -> None:
        # Built from a set, the index reuses its hashes (a Fraction's hash
        # is not cached).
        index = frozenset(values)
        ordered = tuple(sorted(index))
        object.__setattr__(self, "_values", ordered)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_elements", ordered if p is None else None)

    def __setattr__(self, *args):
        raise AttributeError("ArithSet is immutable")

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        """The elements in canonical order, as ``Fraction`` or ``Residue``."""
        got = self._elements
        if got is None:
            got = tuple(Residue(v, self.p) for v in self._values)
            object.__setattr__(self, "_elements", got)
        return got

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        try:
            return _canonical(x, self.p) in self._index
        except (ModeMismatchError, TypeError, ValueError):
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


#: Row builders of the pair kernel: (u, row of t, p) -> raw values u op v.
_ROWS = {
    "plus": lambda u, vs, p: [u + v for v in vs],
    "minus": lambda u, vs, p: [u - v for v in vs],
    "times": lambda u, vs, p: [u * v for v in vs],
    "divide": lambda u, vs, p: [u / v for v in vs],
}
_ROWS_MOD = {
    "plus": lambda u, vs, p: [(u + v) % p for v in vs],
    "minus": lambda u, vs, p: [(u - v) % p for v in vs],
    "times": lambda u, vs, p: [u * v % p for v in vs],
}
#: Operations with u op v = v op u: over s x s the kernel needs only the
#: pairs with v at or after u.
_COMMUTATIVE = ("plus", "times")


def _pair_rows(s: ArithSet, t: ArithSet, op: str, upper: bool = False) -> Iterator[list]:
    """The pair kernel: for each u of s in canonical order, the list of raw
    values ``u op v`` over the v of t in canonical order.  With ``upper``
    (for t = s) a row holds only the v at or after u, the diagonal first.

    ``op`` is one of ``plus``, ``minus``, ``times``, ``divide``; ``divide``
    skips zero divisors.  In F_p each divisor is inverted once and the rows
    multiply by the inverses; over Q the ``Fraction`` operations run as
    they are.
    """
    xs, ys, p = s._values, t._values, s.p
    if op == "divide":
        ys = [v for v in ys if v]
        if p is not None:
            ys = [pow(v, -1, p) for v in ys]
            op = "times"
    try:
        row = _ROWS[op] if p is None else _ROWS_MOD[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    if upper:
        return (row(u, ys[i:], p) for i, u in enumerate(xs))
    return (row(u, ys, p) for u in xs)


class PairCounts(Mapping):
    """The representation function r(x) = #{(u, v) : u op v = x} as a
    read-only mapping from field elements to counts.

    The counts are kept on the raw values of the pair kernel.  A lookup
    coerces its key as :meth:`ArithSet.__contains__` does, ``values()``
    reads the stored counts, and only iterating over the keys builds field
    elements.
    """

    __slots__ = ("_counts", "p")

    def __init__(self, s: ArithSet, t: ArithSet, op: str):
        self.p = s.p
        if op not in _COMMUTATIVE or s != t:
            self._counts = Counter(chain.from_iterable(_pair_rows(s, t, op)))
            return
        # Each pair u != v of the upper rows stands for (u, v) and (v, u);
        # the diagonal value opens every row and counts once.
        upper = Counter()
        diagonal = []
        for row in _pair_rows(s, s, op, upper=True):
            upper.update(row)
            diagonal.append(row[0])
        counts = {x: 2 * n for x, n in upper.items()}
        for x in diagonal:
            counts[x] -= 1
        self._counts = counts

    def __getitem__(self, x) -> int:
        try:
            got = self._counts.get(_canonical(x, self.p))
        except (ModeMismatchError, TypeError, ValueError):
            got = None
        if got is None:
            raise KeyError(x)
        return got

    def __iter__(self) -> Iterator[FieldElement]:
        if self.p is None:
            return iter(self._counts)
        return (Residue(v, self.p) for v in self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def values(self):
        return self._counts.values()


def require_same_mode(s: ArithSet, *others: ArithSet) -> None:
    """Raise :class:`ModeMismatchError` unless every set shares the mode of ``s``."""
    for t in others:
        if not s.same_mode(t):
            raise ModeMismatchError(f"cannot combine sets in modes {s.mode} and {t.mode}")


def _require_nonempty(*sets: ArithSet) -> None:
    for s in sets:
        if len(s) == 0:
            raise ValueError("operation requires a nonempty set")


def _guard(what: str, requested: int, ceiling: int | None) -> None:
    if ceiling is not None and requested > ceiling:
        raise CeilingExceeded(what, requested, ceiling)


def _pairwise(s, t, op, ceiling=None, what="pairwise set operation"):
    _guard(what, len(s) * len(t), ceiling)
    upper = op in _COMMUTATIVE and s == t
    values = set(chain.from_iterable(_pair_rows(s, t, op, upper)))
    return ArithSet._from_values(values, s.p)


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


def aa_over_a(a: ArithSet, ceiling: int | None = DEFAULT_ELEMENT_CEILING) -> ArithSet:
    """The quotient set (A*A)/A.

    Size can reach ``|A|^3``; the ceiling (element-pair count) aborts with
    :class:`CeilingExceeded` instead of exhausting memory.  Requires
    ``0 not in A`` (:class:`OutsideDomain` otherwise).
    """
    _require_nonempty(a)
    if a.contains_zero():
        raise OutsideDomain("(A*A)/A requires 0 not in A")
    _guard("product set A*A", len(a) * len(a), ceiling)
    prods = product_set(a, a)
    _guard("quotients (A*A)/A", len(prods) * len(a), ceiling)
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
