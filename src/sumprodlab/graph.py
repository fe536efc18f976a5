"""Containment graphs of a basis candidate against a target set.

Given sets B and A, the containment graph joins the ordered pair
(b1, b2) in B x B whenever b1 + b2 lands in A.  The graph records, for
each vertex, its neighborhood as a bitmask over B in canonical order;
common-neighborhood sizes -- the dominant kernel in everything built on
top -- are popcounts of ANDed masks.

On top of the graph live the (L, K) profile (|B| = K |A|^{1/2}, edge
count L^{-1}|A|, density 1/(L K^2) exactly), the dense-subset extractor
in the style of Gowers' graph lemma, rich-pair enumeration, and the
check that difference representations dominate common neighborhoods.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .energy import representation_function
from .field import FieldElement, OutsideDomain
from .sets import ArithSet, _pair_rows, require_same_mode


class ContainmentGraph:
    """Symmetric adjacency on (B, B) with edges where pair sums land in A."""

    __slots__ = ("basis", "target", "adjacency", "edges")

    def __init__(self, basis: ArithSet, target: ArithSet):
        if len(basis) == 0 or len(target) == 0:
            raise ValueError("containment graph requires nonempty sets")
        require_same_mode(basis, target)
        n = len(basis)
        index = target._index
        masks = []
        edges = 0
        # Row i of the pair sums, tested against the raw index of A.
        for row in _pair_rows(basis, basis, "plus"):
            mask = sum(1 << j for j in compress(range(n), map(index.__contains__, row)))
            masks.append(mask)
            edges += mask.bit_count()
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "adjacency", tuple(masks))
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, *args):
        raise AttributeError("ContainmentGraph is immutable")

    @property
    def density(self) -> Fraction:
        """Bipartite edge density e / |B|^2."""
        return Fraction(self.edges, len(self.basis) ** 2)

    def common_neighbors(self, i: int, j: int) -> int:
        return (self.adjacency[i] & self.adjacency[j]).bit_count()

    def neighborhood(self, i: int) -> ArithSet:
        mask = self.adjacency[i]
        values = self.basis._values
        return ArithSet._from_values(
            (values[j] for j in range(len(values)) if mask >> j & 1), self.basis.p
        )


def build_containment_graph(basis: ArithSet, target: ArithSet) -> ContainmentGraph:
    return ContainmentGraph(basis, target)


@dataclass(frozen=True)
class LKProfile:
    """Exact (L, K) profile of a partial basis.

    K is generally irrational, so it is carried as the exact pair
    (|B|, |A|) with K^2 = |B|^2/|A| a rational; L = |A|/e is rational.
    The identity density = 1/(L K^2) holds exactly on every instance.
    """

    basis_size: int
    target_size: int
    edges: int

    @property
    def l_value(self) -> Fraction:
        return Fraction(self.target_size, self.edges)

    @property
    def k_squared(self) -> Fraction:
        return Fraction(self.basis_size**2, self.target_size)

    @property
    def density(self) -> Fraction:
        return Fraction(self.edges, self.basis_size**2)

    @property
    def k_float(self) -> float:
        return math.sqrt(self.k_squared)

    def identity_holds(self) -> bool:
        return self.density == 1 / (self.l_value * self.k_squared)

    def richness_threshold(self) -> int:
        """Default rich-pair threshold ceil(L^-2 K^-3 |A|^{1/2}) = ceil(e^2/|B|^3)."""
        return math.ceil(Fraction(self.edges**2, self.basis_size**3))


def lk_profile(graph: ContainmentGraph) -> LKProfile:
    """The (L, K) profile; an edgeless graph (L = |A|/e undefined) raises
    :class:`OutsideDomain`."""
    if graph.edges == 0:
        raise OutsideDomain("no pair of B sums into A; the (L, K) profile is undefined")
    return LKProfile(
        basis_size=len(graph.basis),
        target_size=len(graph.target),
        edges=graph.edges,
    )


@dataclass(frozen=True)
class GowersExtract:
    """Outcome of the pivot-neighborhood dense-subset search.

    ``subset`` is the neighborhood of ``pivot``; ``bad_fraction`` is the
    exact fraction of ordered pairs (diagonal included) whose common
    neighborhood falls below ``threshold`` = eps * density^2 * |B| / 2.
    ``success`` requires |subset| >= density*|B|/2 and bad_fraction <= eps.
    The search scans every pivot and reports the best candidate honestly;
    failure is a valid outcome, not an error.
    """

    pivot: FieldElement
    subset: ArithSet
    epsilon: Fraction
    threshold: Fraction
    size_floor: Fraction
    bad_fraction: Fraction
    success: bool


def gowers_extract(graph: ContainmentGraph, epsilon) -> GowersExtract:
    """Search pivot neighborhoods for a large subset with few sparse pairs."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if graph.edges == 0:
        raise ValueError("graph has no edges")
    n = len(graph.basis)
    alpha = graph.density
    threshold = epsilon * alpha * alpha * n / 2
    size_floor = alpha * n / 2

    best_success = None  # (size, pivot index)
    best_any = None  # (bad_fraction, -size, pivot index)
    results = {}
    adjacency = graph.adjacency
    for v in range(n):
        mask = adjacency[v]
        members = [j for j in range(n) if mask >> j & 1]
        size = len(members)
        if size == 0:
            continue  # empty neighborhoods cannot form a candidate
        bad = 0
        for i in members:
            row = adjacency[i]
            for j in members:
                if (row & adjacency[j]).bit_count() < threshold:
                    bad += 1
        beta = Fraction(bad, size * size)
        ok = size >= size_floor and beta <= epsilon
        results[v] = (size, beta, ok)
        if ok and (best_success is None or size > results[best_success][0]):
            best_success = v
        key = (beta, -size)
        if best_any is None or key < (results[best_any][1], -results[best_any][0]):
            best_any = v

    chosen = best_success if best_success is not None else best_any
    size, beta, ok = results[chosen]
    return GowersExtract(
        pivot=graph.basis.elements[chosen],
        subset=graph.neighborhood(chosen),
        epsilon=epsilon,
        threshold=threshold,
        size_floor=size_floor,
        bad_fraction=beta,
        success=ok,
    )


def rich_pairs(
    graph: ContainmentGraph, tau: int, within: ArithSet | None = None
) -> list[tuple[FieldElement, FieldElement, int]]:
    """Off-diagonal ordered pairs whose common neighborhood has size >= tau.

    Antitone in tau, and symmetric: (b2, b1) appears whenever (b1, b2)
    does.  ``within`` restricts both coordinates to a subset of B.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    elems = graph.basis.elements
    if within is None:
        indices = range(len(elems))
    else:
        indices = [graph.basis.index_of(x) for x in within]
    out = []
    adjacency = graph.adjacency
    for i in indices:
        for j in indices:
            if i == j:
                continue
            common = (adjacency[i] & adjacency[j]).bit_count()
            if common >= tau:
                out.append((elems[i], elems[j], common))
    return out


@dataclass(frozen=True)
class DifferenceSolutionReport:
    """Counts of b1 - b2 = a - a' solutions against common neighborhoods.

    Every common neighbor b of (b1, b2) yields the distinct solution
    (b + b1, b + b2), so each ordered pair must satisfy
    solutions >= common-neighborhood size; ``injection_ok`` records that
    this held for every pair.
    """

    pairs: tuple  # (b1, b2, solutions, common_neighbors)
    tau: int
    fraction_at_tau: Fraction
    min_solutions: int
    median_solutions: int
    injection_ok: bool


def difference_solution_report(
    graph: ContainmentGraph, subset: ArithSet, tau: int
) -> DifferenceSolutionReport:
    """For every ordered pair of ``subset``, count (a, a') in A^2 with
    b1 - b2 = a - a' -- that is, r_{A-A}(b1 - b2) -- and compare with the
    pair's common neighborhood."""
    for x in subset:
        graph.basis.index_of(x)  # raises KeyError if subset is not within B
    differences = representation_function(
        graph.target, graph.target, "minus", ceiling=None
    )
    rows = []
    injection_ok = True
    at_tau = 0
    for b1 in subset:
        i = graph.basis.index_of(b1)
        for b2 in subset:
            j = graph.basis.index_of(b2)
            solutions = differences.get(b1 - b2, 0)
            common = graph.common_neighbors(i, j)
            if solutions < common:
                injection_ok = False
            if solutions >= tau:
                at_tau += 1
            rows.append((b1, b2, solutions, common))
    total = len(rows)
    counts = [r[2] for r in rows]
    return DifferenceSolutionReport(
        pairs=tuple(rows),
        tau=tau,
        fraction_at_tau=Fraction(at_tau, total),
        min_solutions=min(counts),
        median_solutions=statistics.median_low(counts),
        injection_ok=injection_ok,
    )
