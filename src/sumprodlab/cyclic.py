"""Bitset primitives of the F_p routes of ``sets``, ``graph`` and ``energy``,
in C-level passes over ints with bit v set for each v."""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import compress
from math import isqrt
from operator import itemgetter, or_
from typing import Callable, Collection, Iterable, Iterator

#: ``bytes.translate`` table: the digits of ``format`` to bytes for ``compress``.
_BITS = bytes.maketrans(b"01", b"\x00\x01")
#: ``bytes.translate`` table reading a byte as one digit: 0 as "0", else "1".
_DIGIT = bytes([48]) + bytes([49]) * 255
#: The set bits of each byte value, in increasing order: the bytes below
#: 2^(k+1) are those below 2^k, then each of them with bit k added.
_OFFSETS = reduce(lambda table, k: table + [bits + (k,) for bits in table], range(8), [()])
#: ``array`` type codes of unsigned fields by their size in bytes.
_FIELDS = {array(code).itemsize: code for code in "IHB"}


def mask(values: Collection[int], n: int) -> int:
    """The int with bit v set for each v of ``values``, all in [0, n): from
    packed bytes at most 1/25 full, else from n digits (the costs meet near
    4.5 % on 10,008 and 100,003 bits)."""
    if 25 * len(values) <= n:
        return _sparse_mask(values, n)
    return _dense_mask(values, n)


def _sparse_mask(values: Iterable[int], n: int) -> int:
    data = bytearray((n + 7) >> 3)
    for v in values:
        data[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(data, "little")


def _dense_mask(values: Iterable[int], n: int) -> int:
    digits = bytearray(b"0") * n
    for v in values:
        digits[n - 1 - v] = 49  # ord("1")
    return int(digits, 2)


def members(bits: int) -> list[int]:
    """The set bits of ``bits`` in increasing order.  A dense mask is read
    from its binary digits, at a cost per digit; one with at most a quarter
    of its digits set is read from its nonzero bytes, at a cost per set bit
    (on masks of 10,008 bits the two costs met near 40 % set)."""
    length = bits.bit_length()
    if 4 * bits.bit_count() > length:
        return list(compress(range(length), format(bits, "b").encode()[::-1].translate(_BITS)))
    data = bits.to_bytes((length + 7) // 8, "little")
    return [
        8 * i + k
        for i, b in zip(compress(range(len(data)), data), compress(data, data))
        for k in _OFFSETS[b]
    ]


def sums(xs: list[int], ys: list[int], n: int) -> int:
    """The mask over Z/n of {x + y mod n : x in xs, y in ys}: the mask of
    the longer list shifted by each element of the shorter, OR-ed, and
    folded once mod n, which makes each shift a rotation.  A mask of period
    t (:func:`period`) is shifted once per residue mod t: on discrete logs,
    once per orbit of the dilations that fix the longer set."""
    if len(xs) > len(ys):
        xs, ys = ys, xs
    bits = mask(ys, n)
    t = period(bits, n)
    acc = reduce(or_, map(bits.__lshift__, {x % t for x in xs}), 0)
    return (acc | acc >> n) & ((1 << n) - 1)


def rotations(moving: int, fixed: int, shifts: Iterable[int], n: int) -> Iterator[int]:
    """For each s of ``shifts`` (all in [0, n)), the mask over Z/n of the w
    in ``fixed`` with w + s mod n in ``moving``: ``moving`` doubled to 2n
    bits, shifted down by s and ANDed with ``fixed``, one row at a time."""
    doubled = moving | moving << n
    return (doubled >> s & fixed for s in shifts)


def period(bits: int, n: int) -> int:
    """The least divisor t of n with the mask ``bits`` over Z/n unchanged by
    rotation by t: its set is then a union of cosets of the subgroup of
    order n/t, so only the t with n/t dividing the number of set bits are
    tested, each with one rotation and one compare.  t = n always holds."""
    count = bits.bit_count()
    full = (1 << n) - 1
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    for t in small + [n // d for d in reversed(small) if d * d != n]:
        if not count % (n // t) and (bits << t | bits >> (n - t)) & full == bits:
            return t
    return n


def indexer(values: list[int], n: int) -> Callable[[int], int]:
    """The map from a mask over Z/n with bits only in ``values`` (two or
    more residues, increasing) to the mask over their indices: the byte of
    each value ANDed with its bit, then each byte read as one digit."""
    width = (n + 7) // 8
    pick = itemgetter(*(v >> 3 for v in values))
    own = int.from_bytes(bytes(1 << (v & 7) for v in values), "little")

    def index(row: int) -> int:
        picked = int.from_bytes(bytes(pick(row.to_bytes(width, "little"))), "little") & own
        return int(picked.to_bytes(len(values), "little").translate(_DIGIT)[::-1], 2)

    return index


def field_bytes(bound: int) -> int:
    """The bytes of an unsigned field that holds every count up to ``bound``:
    1, 2 or 4."""
    return 1 if bound < 1 << 8 else 2 if bound < 1 << 16 else 4


def _packed(values: list[int], n: int, size: int) -> int:
    """The indicator vector of ``values`` (in [0, n)) as an int of n fields
    of ``size`` bytes, little-endian: field v is 1 for each v."""
    digits = bytearray(n * size)
    for v in values:
        digits[v * size] = 1
    return int.from_bytes(digits, "little")


def counts(xs: list[int], ys: list[int], n: int) -> array:
    """r(z) = #{(x, y) in xs × ys : x + y = z mod n} for every z in [0, n),
    for lists of distinct residues, from one product of big ints.

    Each indicator vector is packed into fields wide enough for
    min(|xs|, |ys|) (:func:`field_bytes`), which bounds every count, so no
    field of the product carries into the next.  The product's 2n fields
    are folded once mod n, (P mod 2^{nw}) + (P >> nw), and the n fields are
    read back as one ``array``.  With ``ys is xs`` the product is a square,
    which costs less.
    """
    size = field_bytes(min(len(xs), len(ys)))
    packed = _packed(xs, n, size)
    product = packed * packed if ys is xs else packed * _packed(ys, n, size)
    width = 8 * size * n
    folded = (product & ((1 << width) - 1)) + (product >> width)
    out = array(_FIELDS[size])
    out.frombytes(folded.to_bytes(size * n, sys.byteorder))
    return out
