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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .field import CeilingExceeded, FieldElement, OutsideDomain, coerce_element
from .sets import (
    DEFAULT_ELEMENT_CEILING,
    ArithSet,
    product_set,
    ratio_set,
    require_same_mode,
    sumset,
)
from .energy import additive_energy, energy_from_counts, ratio_quotient_energy
from .graph import ContainmentGraph, lk_profile, rich_pairs


@dataclass(frozen=True)
class PopDiffCertificate:
    """R with multiplicities, the collision count, and the verified chain.

    conservation_ok:   sum of n(x) equals the enumerated triple count.
    cauchy_schwarz_ok: (sum n(x))^2 <= |R| * Q, exactly.
    within_target_ratios: R is a subset of A/A (checked whenever 0 not in A).
    target_ratios: the set A/A that check read, or None when R is empty and
    the check needed none.
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
    target_ratios: ArithSet | None

    @property
    def multiplicity_sum(self) -> int:
        return sum(self.multiplicity.values())


def build_popular_ratios(
    graph: ContainmentGraph,
    subset: ArithSet | None = None,
    tau: int | None = None,
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
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

    pairs = rich_pairs(graph, tau, within=subset)
    elems = b.elements
    multiplicity: dict[FieldElement, int] = {}
    triples_total = 0
    for b1, b2, _count in pairs:
        i = b.index_of(b1)
        j = b.index_of(b2)
        mask = graph.adjacency[i] & graph.adjacency[j]
        for k in range(len(elems)):
            if not (mask >> k & 1):
                continue
            bk = elems[k]
            x = (b2 + bk) / (b1 + bk)
            multiplicity[x] = multiplicity.get(x, 0) + 1
            triples_total += 1

    n = len(elems)
    if ceiling is not None and n**3 > ceiling:
        raise CeilingExceeded("collision count over B^3 ratio values", n**3, ceiling)
    walk = _ratio_walk(b, b)
    collision_count = energy_from_counts(walk.counts)

    ratios = ArithSet(multiplicity.keys(), p=b.p)
    total = sum(multiplicity.values())
    cs_ok = total * total <= len(ratios) * collision_count
    within = True
    target = None
    if len(ratios):
        target = ratio_set(a, a, ceiling)
        within = all(x in target for x in ratios)
    return PopDiffCertificate(
        ratios=ratios,
        multiplicity=multiplicity,
        collision_count=collision_count,
        tau=tau,
        triples_total=triples_total,
        skipped_triples=walk.skipped,
        conservation_ok=(total == triples_total),
        cauchy_schwarz_ok=cs_ok,
        within_target_ratios=within,
        target_ratios=target,
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
    lhs = 1 - (b2 + b) / den
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
    lhs = 1 - (b1 + c) / den
    rhs = (den_alt / den) * (1 - (b1 + c_alt) / den_alt)
    return lhs == rhs


def one_minus_x_solutions(x, d: ArithSet) -> int:
    """Count pairs (a1, a2) in D^2 with a1 - a2 = 1 - x."""
    return len(_solution_pairs(x, d))


def _solution_pairs(x, d: ArithSet) -> list[tuple]:
    """Every solution pair (a1, a2) of a1 - a2 = 1 - x, in canonical order."""
    target = coerce_element(1, d.p) - coerce_element(x, d.p)
    return [(a2 + target, a2) for a2 in d if (a2 + target) in d]


@dataclass(frozen=True)
class QuadrupleBound:
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
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
) -> QuadrupleBound:
    """Check E_+(Y X) >= N |Y| |R| by building the witnessing quadruples.

    Preconditions -- 1 in X, R a subset of X, every element of R giving at
    least N solutions to 1 - x = a1 - a2 over X^2, and 0 not in Y -- are
    verified and reported individually rather than assumed.  ``n`` defaults
    to the least solution count over R (0 when R is empty).

    E_+(YX) is computed first: its ceilings are the only ones on this path,
    so an instance they refuse costs no solution counting.
    """
    yx = product_set(y, x, ceiling)
    energy = additive_energy(yx, ceiling)
    errors = []
    one = coerce_element(1, x.p)
    if one not in x:
        errors.append("1 is not in X")
    if any(el not in x for el in r):
        errors.append("R is not a subset of X")
    if y.contains_zero():
        errors.append("0 is in Y")
    solutions = {el: _solution_pairs(el, x) for el in r}
    if n is None:
        n = min(map(len, solutions.values()), default=0)
    short = [el for el, pairs in solutions.items() if len(pairs) < n]
    if short:
        errors.append(f"{len(short)} element(s) of R have fewer than {n} solutions")

    quadruples = set()
    for el, pairs in solutions.items():
        # The first n pairs witness the floor; n <= 0 keeps them all.
        for a1, a2 in pairs[:n] if n > 0 else pairs:
            for yv in y:
                quadruples.add((yv, yv * el, yv * a1, yv * a2))
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


@dataclass(frozen=True)
class RatioSets:
    """X = {(b1+c)/(b2+c)} and Y = {(c1+b)/(c2+b)} with degenerates removed.

    The values 0 and 1 are excluded, as are tuples with a vanishing
    denominator; the witness maps record the lexicographically first
    generating tuple of each surviving value.  ``total_x`` counts the
    surviving generating tuples of X and ``collisions_x`` is
    Q_X = sum over x of (tuples giving x)^2; likewise for Y.
    """

    x_set: ArithSet
    y_set: ArithSet
    x_witness: dict = field(repr=False)
    y_witness: dict = field(repr=False)
    skipped_x: int = 0
    skipped_y: int = 0
    total_x: int = 0
    total_y: int = 0
    collisions_x: int = 0
    collisions_y: int = 0


class _RatioWalk(NamedTuple):
    """One walk over first^2 x second: the number of tuples giving each value
    (f1 + s)/(f2 + s), the first generating tuple of each value, and the
    tuples dropped for a vanishing denominator f2 + s."""

    counts: dict
    witness: dict
    skipped: int


def _ratio_walk(first: ArithSet, second: ArithSet) -> _RatioWalk:
    counts: dict[FieldElement, int] = {}
    witness = {}
    skipped = 0
    for f1 in first:
        for f2 in first:
            for s in second:
                den = f2 + s
                if not den:
                    skipped += 1
                    continue
                val = (f1 + s) / den
                got = counts.get(val)
                if got is None:
                    witness[val] = (f1, f2, s)
                    counts[val] = 1
                else:
                    counts[val] = got + 1
    return _RatioWalk(counts, witness, skipped)


def _directed_ratios(first: ArithSet, second: ArithSet) -> _RatioWalk:
    """The ratio walk with the degenerate values 0 and 1 moved to ``skipped``."""
    walk = _ratio_walk(first, second)
    skipped = walk.skipped
    for degenerate in (coerce_element(0, first.p), coerce_element(1, first.p)):
        skipped += walk.counts.pop(degenerate, 0)
        walk.witness.pop(degenerate, None)
    return walk._replace(skipped=skipped)


def build_ratio_sets(b: ArithSet, c: ArithSet) -> RatioSets:
    """Materialize the two degenerate-free directed ratio sets of (B, C)."""
    if len(b) < 2 or len(c) < 2:
        raise OutsideDomain("both sets need at least two elements")
    require_same_mode(b, c)
    x = _directed_ratios(b, c)
    # With C = B the two walks coincide tuple for tuple.
    y = x if c == b else _directed_ratios(c, b)
    return RatioSets(
        x_set=ArithSet(x.witness.keys(), p=b.p),
        y_set=ArithSet(y.witness.keys(), p=b.p),
        x_witness=x.witness,
        y_witness=y.witness,
        skipped_x=x.skipped,
        skipped_y=y.skipped,
        total_x=sum(x.counts.values()),
        total_y=sum(y.counts.values()),
        collisions_x=energy_from_counts(x.counts),
        collisions_y=energy_from_counts(y.counts),
    )


@dataclass(frozen=True)
class SumsetEnergyBound:
    """E_+((A A)/A) against |A||X||C| and |A||Y||B| for A = B + C.

    Each x in X admits |C| solutions to 1 - x = y (1 - x*) by varying the
    second C-coordinate of its witness (y in Y or y = 1 when the variation
    repeats the original tuple); the solution pairs are distinct, which is
    what makes the floors exact rather than asymptotic.
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


def sumset_energy_bounds(
    a: ArithSet,
    b: ArithSet,
    c: ArithSet,
    ceiling: int | None = DEFAULT_ELEMENT_CEILING,
) -> SumsetEnergyBound:
    """Energy floors for a verified sumset decomposition A = B + C."""
    if sumset(b, c) != a:
        raise ValueError("A must equal the sumset B + C exactly")
    if a.contains_zero():
        raise ValueError("0 must not lie in A")
    ratios = build_ratio_sets(b, c)
    x_set, y_set = ratios.x_set, ratios.y_set

    # Per-element solution counts to 1 - x = y(1 - x*): vary c' over C for
    # the stored witness of x; distinct c' give distinct scale factors y.
    def _witness_solutions(witness, other):
        counts = []
        for val, (f1, f2, s) in sorted(witness.items()):
            pairs = set()
            for s_alt in other:
                den_alt = f2 + s_alt
                if not den_alt:
                    continue
                scale = den_alt / (f2 + s)
                x_star = (f1 + s_alt) / den_alt
                pairs.add((scale, x_star))
            counts.append(len(pairs))
        return counts

    x_counts = _witness_solutions(ratios.x_witness, c)
    y_counts = _witness_solutions(ratios.y_witness, b)

    energy, _ = ratio_quotient_energy(a, ceiling)
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
        x_solutions_min=min(x_counts) if x_counts else 0,
        y_solutions_min=min(y_counts) if y_counts else 0,
    )
