"""Popular ratios, exact identities, and the quadruple generator.

The central object is the set R of ratios (b2 + b)/(b1 + b) taken over
rich ordered pairs (b1, b2) of a containment graph and their common
neighbors b.  Alongside R the certificate carries the triple multiplicity
n(x), the collision sextuple count Q over B^6, and the Cauchy-Schwarz
chain (sum n(x))^2 <= |R| * Q, all as exact integers.

Also here: the two telescoping ratio identities used as regression guards
for the arithmetic layer, the degenerate-free ratio sets X and Y built
from a pair (B, C), and the lower bound E_+(YX) >= N |Y| |R| obtained by
generating explicit additive quadruples (y, yx, y a1, y a2).

One walk, :func:`_ratio_counts`, counts the ratios (f1 + s)/(f2 + s) over
a full first^2 x second: the collision count Q reads it on B^3, and the
ratio sets X and Y, their tuple totals and their collision counts read it
on B^2 x C and C^2 x B.  It runs on plain ints and counts keys, keeping no
generating tuple.  The keys are the quotient keys of
:mod:`sumprodlab.sets` (``_divisors``, ``_quotients`` and ``_Keys``), the
same ones that key the ratio sets there.  ``Fraction`` and ``Residue``
objects are built only for the distinct values, in canonical order after
a sort on the int keys.
The solutions of 1 - x = a1 - a2, of 1 - x = y(1 - x*) and the quadruples
of the energy floor are counted on plain ints too.  The identity battery
of :mod:`sumprodlab.verify` checks both identities on cross-multiplied
ints; the two ``*_identity_holds`` functions here are the same checks on
field elements.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from .field import OutsideDomain, coerce_element
from .sets import (
    DEFAULT_ELEMENT_CEILING,
    ArithSet,
    _canonical,
    _divisors,
    _guard,
    _int_values,
    _Keys,
    _quotients,
    product_set,
    ratio_set,
    require_same_mode,
    sumset,
)
from .energy import (
    _solution_pairs,
    additive_energy,
    energy_from_counts,
    ratio_quotient_energy,
    shift_intersection,
)
from .graph import ContainmentGraph, lk_profile, rich_pairs


class PopDiffCertificate(NamedTuple):
    """R with multiplicities, the collision count, and the verified chain.

    conservation_ok:   sum of n(x) equals the enumerated triple count.
    cauchy_schwarz_ok: (sum n(x))^2 <= |R| * Q, exactly.
    within_target_ratios: R is a subset of A/A (checked whenever 0 not in A).
    The A/A that check builds stays on A, so a later ``ratio_set(A, A)``
    reads it instead of building it again.
    skipped_triples counts B^3 triples dropped for a vanishing denominator;
    any nonzero value is flagged because those tuples fall outside the
    collision count by construction.
    """

    ratios: ArithSet
    multiplicity: dict
    collision_count: int
    tau: int
    triples_total: int
    skipped_triples: int
    conservation_ok: bool
    cauchy_schwarz_ok: bool
    within_target_ratios: bool

    @property
    def multiplicity_sum(self) -> int:
        return sum(self.multiplicity.values())


def guard_collision_ceiling(b: ArithSet) -> None:
    """Refuse a collision count over the |B|^3 ratio values when |B|^3 is
    above the element ceiling."""
    _guard("collision count over B^3 ratio values", len(b) ** 3, DEFAULT_ELEMENT_CEILING)


def _ratio_counts(first: ArithSet, second: ArithSet) -> tuple[Counter, _Keys]:
    """The number of tuples of first^2 x second giving each key of
    (f1 + s)/(f2 + s), with the tuples whose f2 + s vanishes counted under
    ``None``, and the :class:`_Keys` that reads the keys."""
    (fs, ss), _, p = _int_values([first, second])
    # A vanishing f2 + s reads as 0; each stands for |first| tuples.
    divisors = [(w, [dv for dv in row if dv]) for w, row in _divisors(fs, ss, p)]
    keys = Counter(chain.from_iterable(_quotients(u, divisors, p) for u in fs))
    keys[None] = len(fs) * (len(fs) * len(ss) - sum(len(row) for _, row in divisors))
    return keys, _Keys(p, None)


def build_popular_ratios(
    graph: ContainmentGraph,
    subset: ArithSet | None = None,
    tau: int | None = None,
) -> PopDiffCertificate:
    """Build R from rich pairs of ``subset`` and their common neighbors.

    ``tau`` defaults to the profile threshold ceil(e^2/|B|^3).  Requires
    0 not in A so that the denominators b1 + b (which land in A) are
    nonzero.  The collision count Q ranges over all of B^6 via a hash
    join on the exact ratio value.
    """
    a = graph.target
    if a.contains_zero():
        raise ZeroDivisionError("popular ratios need 0 not in the target set")
    b = graph.basis
    if subset is None:
        subset = b
    if tau is None:
        tau = lk_profile(graph).richness_threshold()
    guard_collision_ceiling(b)

    pairs = rich_pairs(graph, tau, within=subset)
    (vals,), _, p = _int_values([b])
    # Group k holds the divisors b + bk over b in B; a common neighbor bk of
    # b1 = b_i puts b_i + bk in A, so no divisor picked here vanishes.
    divisors = _divisors(vals, vals, p)
    keys: Counter = Counter()
    triples_total = 0
    for b1, b2, _count in pairs:
        i = b.index_of(b1)
        j = b.index_of(b2)
        mask = graph.adjacency[i] & graph.adjacency[j]
        shared = [(w, row[i : i + 1]) for k, (w, row) in enumerate(divisors) if mask >> k & 1]
        keys.update(_quotients(vals[j], shared, p))
        triples_total += len(shared)
    quotient = _Keys(p, None)
    multiplicity = {quotient.value(key): keys[key] for key in quotient.sort(keys)}
    ratios = ArithSet._from_values(quotient.ordered(keys), p, ordered=True)

    # The collision count runs over the B^3 ratio values (b2 + b)/(b1 + b).
    walk, _ = _ratio_counts(b, b)
    skipped = walk.pop(None, 0)
    collision_count = energy_from_counts(walk)

    total = sum(multiplicity.values())
    cs_ok = total * total <= len(ratios) * collision_count
    # A/A is built only for a nonempty R, and A keeps it.
    within = not len(ratios) or ratios._index <= ratio_set(a, a, DEFAULT_ELEMENT_CEILING)._index
    return PopDiffCertificate(
        ratios=ratios,
        multiplicity=multiplicity,
        collision_count=collision_count,
        tau=tau,
        triples_total=triples_total,
        skipped_triples=skipped,
        conservation_ok=(total == triples_total),
        cauchy_schwarz_ok=cs_ok,
        within_target_ratios=within,
    )


def shift_ratio_identity_holds(b1, b2, b, b_alt) -> bool:
    """Exact check of 1 - (b2+b)/(b1+b) = (b1-b2)/(b1+b)
    = (b1+b')/(b1+b) - (b2+b')/(b1+b), for any b'.

    Always true on valid inputs; kept as a regression guard for the
    arithmetic layer.  Raises on a vanishing denominator b1 + b.
    """
    den = b1 + b
    if not den:
        raise ZeroDivisionError("b1 + b must be nonzero")
    one = den / den  # 1 in the field of the arguments; int - Residue is not defined
    lhs = one - (b2 + b) / den
    mid = (b1 - b2) / den
    rhs = (b1 + b_alt) / den - (b2 + b_alt) / den
    return lhs == mid == rhs


def ratio_product_identity_holds(b1, b2, c, c_alt) -> bool:
    """Exact check of 1 - (b1+c)/(b2+c) = ((b2+c')/(b2+c)) (1 - (b1+c')/(b2+c')).

    Always true on valid inputs.  Raises when b2 + c or b2 + c' vanishes.
    """
    den = b2 + c
    den_alt = b2 + c_alt
    if not den or not den_alt:
        raise ZeroDivisionError("b2 + c and b2 + c' must be nonzero")
    one = den / den
    lhs = one - (b1 + c) / den
    rhs = (den_alt / den) * (one - (b1 + c_alt) / den_alt)
    return lhs == rhs


def one_minus_x_solutions(x, d: ArithSet) -> int:
    """Count pairs (a1, a2) in D^2 with a1 - a2 = 1 - x: the shift overlap
    |D ∩ (D + 1 - x)|, or |D| when x = 1."""
    shift = coerce_element(1, d.p) - coerce_element(x, d.p)
    return shift_intersection(d, shift) if shift else len(d)


class QuadrupleBound(NamedTuple):
    """E_+(YX) against the generated-quadruple floor N |Y| |R|.

    ``distinct_quadruples`` counts the explicitly built quadruples
    (y, yx, y a1, y a2) after deduplication; when every x contributes N
    chosen solutions and 0 is not in Y these are pairwise distinct, so
    the count equals ``expected_quadruples``.
    """

    energy: int
    floor: int
    holds: bool
    y_size: int
    r_size: int
    solutions_floor: int
    distinct_quadruples: int
    expected_quadruples: int
    precondition_errors: tuple[str, ...]


def quadruple_energy_bound(
    y: ArithSet,
    x: ArithSet,
    r: ArithSet,
    n: int | None = None,
) -> QuadrupleBound:
    """Check E_+(Y X) >= N |Y| |R| by building the witnessing quadruples.

    Preconditions -- 1 in X, R a subset of X, every element of R giving at
    least N solutions to 1 - x = a1 - a2 over X^2, and 0 not in Y -- are
    verified and reported individually rather than assumed.  ``n`` defaults
    to the least solution count over R (0 when R is empty).

    E_+(YX) is computed first: its ceilings are the only ones on this path,
    so an instance they refuse costs no solution counting.
    """
    yx = product_set(y, x, DEFAULT_ELEMENT_CEILING)
    energy = additive_energy(yx)
    errors = []
    # X and R on plain ints over one common denominator (residues in F_p).
    (xs, rs), one, p = _int_values([x, r])
    index = set(xs)
    if one not in index:
        errors.append("1 is not in X")
    if not index.issuperset(rs):
        errors.append("R is not a subset of X")
    if y.contains_zero():
        errors.append("0 is in Y")
    solutions = [_solution_pairs(one - el, xs, index, p) for el in rs]
    if n is None:
        n = min(map(len, solutions), default=0)
    short = sum(1 for pairs in solutions if len(pairs) < n)
    if short:
        errors.append(f"{short} element(s) of R have fewer than {n} solutions")

    # Y over its own common denominator: each coordinate of a quadruple is
    # its value times one fixed positive int, so distinct stays distinct.
    (ys,), _, _ = _int_values([y])
    quadruples = set()
    for el, pairs in zip(rs, solutions):
        # The first n pairs witness the floor; n <= 0 keeps them all.
        for a1, a2 in pairs[:n] if n > 0 else pairs:
            if p is None:
                quadruples.update((v, v * el, v * a1, v * a2) for v in ys)
            else:
                quadruples.update((v, v * el % p, v * a1 % p, v * a2 % p) for v in ys)
    floor = n * len(y) * len(r)
    return QuadrupleBound(
        energy=energy,
        floor=floor,
        holds=(not errors) and energy >= floor,
        y_size=len(y),
        r_size=len(r),
        solutions_floor=n,
        distinct_quadruples=len(quadruples),
        expected_quadruples=floor,
        precondition_errors=tuple(errors),
    )


class RatioSets(NamedTuple):
    """X = {(b1+c)/(b2+c)} and Y = {(c1+b)/(c2+b)} with degenerates removed.

    The values 0 and 1 are excluded, as are tuples with a vanishing
    denominator; both are counted in ``skipped_x``.  ``total_x`` counts the
    surviving generating tuples of X and ``collisions_x`` is
    Q_X = sum over x of (tuples giving x)^2; likewise for Y.  The tuples
    are counted by key, so no generating tuple is kept.
    """

    x_set: ArithSet
    y_set: ArithSet
    skipped_x: int = 0
    skipped_y: int = 0
    total_x: int = 0
    total_y: int = 0
    collisions_x: int = 0
    collisions_y: int = 0


def _directed_ratios(first: ArithSet, second: ArithSet) -> tuple[ArithSet, int, int, int]:
    """The ratio set {(f1 + s)/(f2 + s)} over first^2 x second without the
    values 0 and 1, with its tuple total, its collision count and the
    skipped tuples: those with a vanishing f2 + s or giving 0 or 1."""
    keys, quotient = _ratio_counts(first, second)
    skipped = keys.pop(None, 0)
    for degenerate in (0, 1):
        skipped += keys.pop(quotient.key(_canonical(degenerate, quotient.p)), 0)
    values = ArithSet._from_values(quotient.ordered(keys), quotient.p, ordered=True)
    return values, sum(keys.values()), energy_from_counts(keys), skipped


def build_ratio_sets(b: ArithSet, c: ArithSet) -> RatioSets:
    """Materialize the two degenerate-free directed ratio sets of (B, C)."""
    if len(b) < 2 or len(c) < 2:
        raise OutsideDomain("both sets need at least two elements")
    require_same_mode(b, c)
    x_set, total_x, collisions_x, skipped_x = x = _directed_ratios(b, c)
    # With C = B the two walks coincide tuple for tuple.
    y_set, total_y, collisions_y, skipped_y = x if c == b else _directed_ratios(c, b)
    return RatioSets(
        x_set=x_set,
        y_set=y_set,
        skipped_x=skipped_x,
        skipped_y=skipped_y,
        total_x=total_x,
        total_y=total_y,
        collisions_x=collisions_x,
        collisions_y=collisions_y,
    )


class SumsetEnergyBound(NamedTuple):
    """E_+((A A)/A) against |A||X||C| and |A||Y||B| for A = B + C.

    Each x in X admits |C| solutions to 1 - x = y (1 - x*) by varying the
    second C-coordinate of a generating tuple (y in Y or y = 1 when the
    variation repeats the original tuple); the solution pairs are distinct,
    which is what makes the floors exact rather than asymptotic.
    """

    a_size: int
    x_size: int
    y_size: int
    energy: int
    floor_x: int
    floor_y: int
    holds_x: bool
    holds_y: bool
    x_solutions_min: int
    y_solutions_min: int


def sumset_energy_bounds(a: ArithSet, b: ArithSet, c: ArithSet) -> SumsetEnergyBound:
    """Energy floors for a verified sumset decomposition A = B + C."""
    if sumset(b, c) != a:
        raise ValueError("A must equal the sumset B + C exactly")
    if a.contains_zero():
        raise ValueError("0 must not lie in A")
    ratios = build_ratio_sets(b, c)
    x_set, y_set = ratios.x_set, ratios.y_set

    energy, _ = ratio_quotient_energy(a)
    floor_x = len(a) * len(x_set) * len(c)
    floor_y = len(a) * len(y_set) * len(b)
    return SumsetEnergyBound(
        a_size=len(a),
        x_size=len(x_set),
        y_size=len(y_set),
        energy=energy,
        floor_x=floor_x,
        floor_y=floor_y,
        holds_x=energy >= floor_x,
        holds_y=energy >= floor_y,
        # f2 + c' lies in A, which holds no 0, so each c' solves 1 - x = y(1 - x*).
        x_solutions_min=len(c) if x_set else 0,
        y_solutions_min=len(b) if y_set else 0,
    )
