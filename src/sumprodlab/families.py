"""Deterministic test-family generators.

A FamilySpec pins every parameter, including the 64-bit seed of any
randomness, so regenerating a spec always yields the identical set.

Kinds:

* ``gp``                geometric progression {q^i : 0 <= i < n}, q != 0, +-1
* ``ap``                arithmetic progression {a + i*d : 0 <= i < n}, d != 0
* ``subgroup``          the multiplicative subgroup of F_p* of order d | p-1
* ``random``            n distinct integers drawn from [lo, hi] (seeded)
* ``sumset_of_random``  B + B for a seeded random B of size n
* ``plus_minus``        B - B for a seeded random B of size n
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .field import check_prime_modulus, least_primitive_root
from .sets import ArithSet, difference_set, sumset

KINDS = ("gp", "ap", "subgroup", "random", "sumset_of_random", "plus_minus")

DEFAULT_RANGE = (1, 10**9)


class FamilySpec(NamedTuple):
    kind: str
    params: dict
    seed: int | None = None

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        if self.seed is not None:
            inner += f",seed={self.seed}"
        return f"{self.kind}:{inner}"


def parse_family(text: str) -> FamilySpec:
    """Parse ``kind:key=value,key=value`` (as accepted on the CLI)."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {KINDS}")
    params: dict = {}
    seed = None
    if rest:
        for chunk in rest.split(","):
            key, _, value = chunk.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"bad family parameter {chunk!r}")
            if key == "seed":
                seed = int(value)
            else:
                params[key] = value
    return FamilySpec(kind=kind, params=params, seed=seed)


def _fraction(params: dict, key: str, default=None) -> Fraction:
    if key not in params:
        if default is None:
            raise ValueError(f"family parameter {key!r} is required")
        return Fraction(default)
    return Fraction(str(params[key]))


def _int(params: dict, key: str, default=None) -> int:
    if key not in params:
        if default is None:
            raise ValueError(f"family parameter {key!r} is required")
        return int(default)
    return int(params[key])


def multiplicative_subgroup(p: int, order: int) -> ArithSet:
    """The unique subgroup of F_p* with the given order (order | p-1)."""
    check_prime_modulus(p)
    if order < 1 or (p - 1) % order != 0:
        raise ValueError(f"order {order} does not divide p - 1 = {p - 1}")
    g = least_primitive_root(p)
    h = pow(g, (p - 1) // order, p)
    value = 1
    elements = []
    for _ in range(order):
        elements.append(value)
        value = value * h % p
    return ArithSet(elements, p=p)


def _random_set(spec: FamilySpec) -> ArithSet:
    if spec.seed is None:
        raise ValueError(f"family {spec.kind!r} requires an explicit seed")
    n = _int(spec.params, "n")
    lo = _int(spec.params, "lo", DEFAULT_RANGE[0])
    hi = _int(spec.params, "hi", DEFAULT_RANGE[1])
    if n > hi - lo + 1:
        raise ValueError("range too small for the requested size")
    rng = random.Random(spec.seed)
    return ArithSet(rng.sample(range(lo, hi + 1), n))


def generate(spec: FamilySpec) -> ArithSet:
    """Materialize the set described by a spec.  Pure in the spec."""
    kind = spec.kind
    if kind == "gp":
        q = _fraction(spec.params, "q")
        n = _int(spec.params, "n")
        if q == 0 or q == 1 or q == -1:
            raise ValueError("gp ratio must differ from 0, 1, -1")
        if n < 1:
            raise ValueError("gp length must be positive")
        return ArithSet(q**i for i in range(n))
    if kind == "ap":
        start = _fraction(spec.params, "a", 0)
        step = _fraction(spec.params, "d")
        n = _int(spec.params, "n")
        if step == 0:
            raise ValueError("ap difference must be nonzero")
        if n < 1:
            raise ValueError("ap length must be positive")
        return ArithSet(start + i * step for i in range(n))
    if kind == "subgroup":
        return multiplicative_subgroup(_int(spec.params, "p"), _int(spec.params, "d"))
    if kind == "random":
        return _random_set(spec)
    if kind == "sumset_of_random":
        base = _random_set(spec)
        return sumset(base, base)
    if kind == "plus_minus":
        base = _random_set(spec)
        return difference_set(base, base)
    raise ValueError(f"unknown family kind {kind!r}")
