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

from fractions import Fraction
from typing import Iterable, Iterator

from .field import (
    CeilingExceeded,
    FieldElement,
    ModeMismatchError,
    OutsideDomain,
    Residue,
    check_prime_modulus,
    coerce_element,
    format_element,
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
    """

    __slots__ = ("elements", "p", "_index")

    def __init__(self, elements: Iterable = (), p: int | None = None):
        items = list(elements)
        if p is None:
            for x in items:
                if isinstance(x, Residue):
                    p = x.p
                    break
        if p is not None:
            check_prime_modulus(p)
        coerced = {coerce_element(x, p) for x in items}
        object.__setattr__(self, "elements", tuple(sorted(coerced)))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_index", frozenset(coerced))

    def __setattr__(self, *args):
        raise AttributeError("ArithSet is immutable")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        try:
            return coerce_element(x, self.p) in self._index
        except (ModeMismatchError, TypeError, ValueError):
            return False

    def __eq__(self, other):
        if not isinstance(other, ArithSet):
            return NotImplemented
        return self.p == other.p and self.elements == other.elements

    def __hash__(self):
        return hash((self.p, self.elements))

    def __repr__(self):
        body = ", ".join(format_element(x) for x in self.elements[:8])
        if len(self.elements) > 8:
            body += f", ... ({len(self.elements)} elements)"
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
        return any(not x for x in self.elements)

    def index_of(self, x) -> int:
        """Position of ``x`` in canonical order (used by graph code)."""
        x = coerce_element(x, self.p)
        lo, hi = 0, len(self.elements)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.elements[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.elements) or self.elements[lo] != x:
            raise KeyError(f"{x} not in set")
        return lo


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
    out = set()
    for a in s:
        for b in t:
            out.add(op(a, b))
    return ArithSet(out, p=s.p)


def sumset(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise sums ``{a + b : a in s, b in t}``.

    In rational mode ``|s + t| >= |s| + |t| - 1``, with equality exactly
    for arithmetic progressions with a common difference.
    """
    _require_nonempty(s, t)
    require_same_mode(s, t)
    return _pairwise(s, t, lambda a, b: a + b, ceiling, "sumset")


def difference_set(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise differences ``{a - b}``."""
    _require_nonempty(s, t)
    require_same_mode(s, t)
    return _pairwise(s, t, lambda a, b: a - b, ceiling, "difference set")


def product_set(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise products ``{a * b}``."""
    _require_nonempty(s, t)
    require_same_mode(s, t)
    return _pairwise(s, t, lambda a, b: a * b, ceiling, "product set")


def ratio_set(s: ArithSet, t: ArithSet, ceiling: int | None = None) -> ArithSet:
    """All pairwise quotients ``{a / b}``; requires ``0 not in t``."""
    _require_nonempty(s, t)
    require_same_mode(s, t)
    if t.contains_zero():
        raise ZeroDivisionError("ratio set requires 0 not in the divisor set")
    return _pairwise(s, t, lambda a, b: a / b, ceiling, "ratio set")


def translate(s: ArithSet, shift) -> ArithSet:
    shift = coerce_element(shift, s.p)
    return ArithSet((x + shift for x in s), p=s.p)


def dilate(s: ArithSet, factor) -> ArithSet:
    factor = coerce_element(factor, s.p)
    if not factor:
        raise ValueError("dilation factor must be nonzero")
    return ArithSet((x * factor for x in s), p=s.p)


def negate(s: ArithSet) -> ArithSet:
    return ArithSet((-x for x in s), p=s.p)


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
    nonzero = [x for x in a if x]
    if not nonzero:
        raise ValueError("cannot normalize {0}")
    if a.p is None:
        positive = [x for x in nonzero if x > 0]
        divisor = min(positive) if positive else max(nonzero)
    else:
        divisor = min(nonzero)
    return ArithSet((x / divisor for x in nonzero), p=a.p)


def multiplicative_doubling(a: ArithSet) -> Fraction:
    """|A*A| / |A| as an exact rational."""
    _require_nonempty(a)
    return Fraction(len(product_set(a, a)), len(a))


# -- set file format ---------------------------------------------------------

_HEADER_PREFIX = "# field"


def dumps_set(a: ArithSet) -> str:
    lines = [f"# field {'rational' if a.p is None else f'fp {a.p}'}"]
    lines.extend(format_element(x) for x in a.elements)
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
