"""Exact field elements.

Two element kinds are supported, and nothing else:

* arbitrary-precision rationals, via :class:`fractions.Fraction`;
* residues modulo a prime ``p``, via :class:`Residue`.

Every operation in the package is exact; there is no floating point
anywhere in a computational path.  Floats only ever appear in report
columns produced by :mod:`sumprodlab.verify`.

The module also holds the least primitive root of F_p* and the
discrete-log tables to it (:func:`log_tables`), which the F_p bitset route
of :mod:`sumprodlab.sets` reads for products and quotients.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Union


class ModeMismatchError(ValueError):
    """Raised when operands live in different fields (or different primes)."""


class CeilingExceeded(RuntimeError):
    """Raised when a computation would materialize more data than allowed.

    Carries ``requested`` and ``ceiling`` so callers can report the sizes.
    """

    def __init__(self, what: str, requested: int, ceiling: int):
        super().__init__(
            f"{what}: would need {requested} items, ceiling is {ceiling}"
        )
        self.what = what
        self.requested = requested
        self.ceiling = ceiling


class OutsideDomain(ValueError):
    """Raised when an instance lies outside the domain of a computation.

    Examples: an edgeless containment graph has no (L, K) profile, and the
    ratio-based claims need 0 not in A.  The claim runner reports these
    instances as ``undefined`` rather than aborting.
    """


# Witness bases making Miller-Rabin deterministic for n < 3.3 * 10^24,
# far beyond any modulus used at desk scale.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_verified_primes: set[int] = set()


def check_prime_modulus(p: int) -> int:
    """Validate a prime-field modulus once; repeats are cached."""
    if p in _verified_primes:
        return p
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    _verified_primes.add(p)
    return p


def least_primitive_root(p: int) -> int:
    """The least generator of F_p* (1 for p = 2)."""
    check_prime_modulus(p)
    if p == 2:
        return 1
    phi = p - 1
    factors = []
    m = phi
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")  # unreachable


@lru_cache(maxsize=4)
def log_tables(p: int) -> tuple[array, array]:
    """The discrete-log tables of F_p* to the base g = least_primitive_root(p):
    ``exp[k]`` = g^k for 0 <= k < p − 1 and ``log[x]`` = k for each nonzero
    x = g^k (``log[0]`` is 0 and means nothing).  Two flat arrays of the
    narrowest unsigned type that holds p − 1 (4p bytes in all for
    p < 2^16), kept for the last few moduli; the callers read them and never
    write to them."""
    g = least_primitive_root(p)
    code = "H" if p <= 1 << 16 else "I" if p <= 1 << 32 else "Q"
    exp = array(code, [0]) * (p - 1)
    log = array(code, [0]) * p
    x = 1
    for k in range(p - 1):
        exp[k] = x
        log[x] = k
        x = x * g % p
    return exp, log


class Residue:
    """An element of the prime field Z/pZ.

    Instances are immutable, hashable, and ordered by ``<`` on their
    canonical representative in ``0 <= value < p``.  Mixing residues of
    different moduli raises :class:`ModeMismatchError`.  A residue equals
    only a residue of the same modulus and value, never a plain int, so
    equal residues hash equally.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        check_prime_modulus(p)
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *args):
        raise AttributeError("Residue is immutable")

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.p != self.p:
                raise ModeMismatchError(
                    f"residues modulo {self.p} and {other.p} cannot mix"
                )
            return other
        if isinstance(other, int):
            return Residue(other, self.p)
        raise ModeMismatchError(f"cannot combine Residue with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return Residue(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Residue(self.value - o.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return Residue(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero residue mod {self.p}")
        return Residue(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Residue(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Residue):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        return self.value < o.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Residue({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


FieldElement = Union[Fraction, Residue]


def coerce_element(x, p: int | None = None) -> FieldElement:
    """Coerce ``x`` into the field given by ``p`` (``None`` = rationals)."""
    if p is None:
        if isinstance(x, Residue):
            raise ModeMismatchError("residue supplied where a rational was expected")
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot interpret {x!r} as a rational")
    if isinstance(x, Residue):
        if x.p != p:
            raise ModeMismatchError(f"residue mod {x.p} supplied, expected mod {p}")
        return x
    if isinstance(x, int):
        return Residue(x, p)
    if isinstance(x, str):
        return Residue(int(x), p)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return Residue(x.numerator, p)
        return Residue(x.numerator, p) / Residue(x.denominator, p)
    raise TypeError(f"cannot interpret {x!r} as a residue mod {p}")
