"""Exact combinatorial solvers: minimum additive basis and sumset decomposition.

Both searches are complete within their (finite) candidate spaces and
return deterministic witnesses.  They run in rational mode only: the
decomposition frontier argument orders elements, and prime fields have
no compatible total order.

Minimum basis.  Given a finite universe U, find a smallest B within U
with A contained in B + B.  The paper-agnostic counting floor
k(k+1)/2 >= |A| always applies; the search is branch and bound on the
most-constrained uncovered element, so the result is provably optimal
relative to U (a smaller basis outside U is never excluded).  The search
runs on bitmasks over universe indices: B is a mask of universe elements
and the covered part of A a mask of targets.  Its tables are built once
per call: each universe element maps a target to the partner that
completes it, and each target lists its pairs.  A node carries, for each
partner of a chosen element, the targets that partner would complete, so
the targets a pair adds are two lookups, and per target the number of
pairs with a chosen end.  A child's leaf test and bound are made before
it is entered, from a per-call memo of the bound; a cut child is still
counted as a node, so the tree and its prune counts are those of a search
that enters every child.  A node that passes the bound meets the reach
bound next: with ``slack`` elements still affordable below the incumbent,
they add at most the ``slack`` largest counts of uncovered targets in the
partners' reach plus slack(slack+1)/2 sums among themselves, and a node
that cannot cover what is left that way is cut (it was counted when its
parent made it).  The basis found is re-checked on the same ints.

Decomposition.  Decide whether A = B + C with |B|, |C| >= 2.  Translation
freedom is removed by fixing min(B) = 0, which forces C to be a subset
of A and B a subset of A - min(A).  The search branches on how the
smallest unexplained element is written as b + c, keeping a split only
when every new cross sum lands in A; one placement helper puts an element
on either side and counts its sums with the other.  Exhausting the tree
without a witness is a proof of irreducibility.  The search runs on the
plain ints d·x, d the common denominator of A, and scales the witness back.
Sums are kept by their index in A: a count per index and a mask of the
unexplained ones, whose lowest bit is the next target.  The pairs of a
target are listed when it is first the target.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .energy import representation_function, shift_intersection_report
from .field import OutsideDomain
from .sets import (
    ArithSet,
    _int_values,
    difference_set,
    multiplicative_doubling,
    require_same_mode,
    sumset,
)


class InfeasibleWithinUniverse(RuntimeError):
    """No basis exists inside the given universe within the size cap.

    Says nothing about bases drawn from outside the universe.
    """


def counting_lower_bound(n: int) -> int:
    """Smallest k with k(k+1)/2 >= n."""
    k = (math.isqrt(8 * n + 1) - 1) // 2
    while k * (k + 1) // 2 < n:
        k += 1
    return k


def default_universe(a: ArithSet) -> ArithSet:
    """(A + A - A) together with all halved elements of A.

    A heuristic default containing every translate-and-halving candidate;
    optimality statements are always relative to the universe actually
    searched.
    """
    halves = ArithSet((x / 2 for x in a), p=a.p)
    combined = set(difference_set(sumset(a, a), a))
    combined.update(halves)
    return ArithSet(combined, p=a.p)


class BasisSearchResult(NamedTuple):
    basis: ArithSet
    size: int
    counting_bound: int
    nodes: int
    universe: ArithSet
    #: Branches cut, by cause: ``counting_floor`` and ``coverage`` (the
    #: lower bound reached the incumbent; a tie is credited to the counting
    #: floor), ``no_affordable_pair`` (some uncovered target has no pair
    #: that keeps |B| below the incumbent), ``size_cap`` (a ranked pair
    #: skipped because it would make B as large as the incumbent) and
    #: ``reach`` (the elements still affordable cannot cover the targets
    #: left, counted from the targets each partner of B would complete).
    prunes: dict


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def min_basis(
    a: ArithSet,
    universe: ArithSet | None = None,
    size_cap: int | None = None,
) -> BasisSearchResult:
    """Minimum-cardinality B within the universe with A ⊆ B + B.

    Universe element i is bit i of the chosen mask and target k (the k-th
    element of A) bit k of the covered mask; index order is value order.
    """
    if len(a) == 0:
        raise ValueError("A must be nonempty")
    if not a.is_rational:
        raise ValueError("basis search runs in rational mode only")
    u = universe if universe is not None else default_universe(a)
    require_same_mode(a, u)
    if size_cap is None:
        size_cap = math.ceil(2 * math.sqrt(len(a))) + 4
    # The tables are built on the ints d·x, d the common denominator.
    (targets, u_vals), _, _ = _int_values([a, u])
    position = {x: i for i, x in enumerate(u_vals)}

    # hit[i] maps each k with t_k - u_i = u_j in the universe to j, and
    # twice[i] is the bit of the target 2u_i, or 0.
    hit = []
    twice = []
    for i, x in enumerate(u_vals):
        row = {}
        double = 0
        for k, t in enumerate(targets):
            j = position.get(t - x)
            if j is not None:
                row[k] = j
                if j == i:
                    double = 1 << k
        hit.append(row)
        twice.append(double)

    def make_pair(k: int, i: int, j: int) -> tuple:
        """(i, j, mask, own) for u_i + u_j = t_k with i <= j; ``own`` holds
        the targets the pair covers by itself: t_k, 2u_i and 2u_j."""
        if i > j:
            i, j = j, i
        return i, j, 1 << i | 1 << j, 1 << k | twice[i] | twice[j]

    # pairs_for[k]: the pairs of t_k, by i; self_pair[k]: the one with
    # i = j, or None.
    pairs_for: list = [[] for _ in targets]
    self_pair: list = [None] * len(targets)
    for i, row in enumerate(hit):
        for k, j in row.items():
            if i <= j:
                pair = make_pair(k, i, j)
                pairs_for[k].append(pair)
                if i == j:
                    self_pair[k] = pair
    root_affordable = [0 if pair is None else 1 for pair in self_pair]
    for t, plist in zip(a._values, pairs_for):
        if not plist:
            raise InfeasibleWithinUniverse(
                f"element {t} has no representation as a pair sum from the universe"
            )

    n = len(targets)
    full = (1 << n) - 1
    floor = counting_lower_bound(n)
    # Targets by their number of pairs, ties by index, as (bit, pairs).
    counts = [len(plist) for plist in pairs_for]
    by_pairs = [(1 << k, pairs_for[k]) for k in sorted(range(n), key=counts.__getitem__)]

    # Static per-element coverage cap, used for a set-cover style bound.
    max_cover = max(len(row) for row in hit)

    def lower_bound(size: int, left: int) -> tuple[int, str]:
        """Least final |B| below a node with ``left`` uncovered targets, and
        the prune cause it would be credited to."""
        k = 0
        reachable = 0
        while reachable < left:
            k += 1
            reachable = k * size + k * (k + 1) // 2
        cover_term = max(k, -(-left // max_cover))
        floor_term = floor - size
        cause = "coverage" if cover_term > floor_term else "counting_floor"
        return size + max(cover_term, floor_term), cause

    # bounds[size * (n + 1) + left] memoizes lower_bound; sizes stay <= size_cap.
    bounds: list = [None] * ((size_cap + 1) * (n + 1))

    def extend(reach: dict, affordable: list, added: int) -> tuple[dict, list]:
        """Turn the tables of chosen, in place, into those of chosen | added.

        reach[j] holds the targets u_j + u_c over chosen c, so a pair (i, j)
        covers reach[i] | reach[j] | own on top of what the chosen elements
        cover.  affordable[k] counts the self-pair of t_k and the pairs of
        t_k with a chosen end (right for an uncovered t_k only).
        """
        for c in _bits(added):
            for k, j in hit[c].items():
                reach[j] = reach.get(j, 0) | 1 << k
                affordable[k] += 1
        return reach, affordable

    def greedy() -> int:
        chosen = covered = 0
        reach, affordable = {}, root_affordable[:]
        while covered != full:
            uncovered = full & ~covered
            options = next(plist for bit, plist in by_pairs if uncovered & bit)
            best_mask, best_newly = 0, 0
            best_gain = -1
            for i, j, mask, own in options:
                newly = (reach.get(i, 0) | reach.get(j, 0) | own) & uncovered
                gain = newly.bit_count() * 4 - (mask & ~chosen).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best_mask, best_newly = mask, newly
            extend(reach, affordable, best_mask & ~chosen)
            chosen |= best_mask
            covered |= best_newly
        return chosen

    incumbent = greedy()
    within_cap = incumbent.bit_count() <= size_cap
    best_size = incumbent.bit_count() if within_cap else size_cap + 1
    best_set = incumbent if within_cap else None
    prunes = dict.fromkeys(
        ("counting_floor", "coverage", "no_affordable_pair", "size_cap", "reach"), 0
    )

    def expand(
        chosen: int, uncovered: int, size: int, left: int, reach: dict, affordable: list
    ) -> None:
        """Branch below a node that is counted and has passed the bound,
        unless the reach bound cuts it.

        Each child is counted, and its leaf test and bound are made here,
        before any call: a child that is cut costs no call.
        """
        nonlocal best_size, best_set, nodes
        # Reach bound: B may still grow by ``slack`` elements, which cover at
        # most the ``slack`` largest counts of reach[j] & uncovered plus the
        # slack(slack+1)/2 sums among themselves.  A chosen j counts 0, so
        # reach needs no filter.
        slack = best_size - size - 1
        among = slack * (slack + 1) // 2
        if left > among:
            gains = [(r & uncovered).bit_count() for r in reach.values()]
            gains.sort(reverse=True)
            if sum(gains[:slack]) + among < left:
                prunes["reach"] += 1
                return
        # Most-constrained uncovered element: fewest pairs still affordable.
        # A pair adds at most two elements, and the bound leaves a slack of
        # at least one.  With two or more every pair is affordable.  With
        # one, a pair is affordable exactly when it is a self-pair or has a
        # chosen end (both ends chosen would cover the target already).
        if slack > 1:
            options = next(plist for bit, plist in by_pairs if uncovered & bit)
        else:
            k = min(_bits(uncovered), key=affordable.__getitem__)
            if not affordable[k]:
                prunes["no_affordable_pair"] += 1
                return
            options = [
                make_pair(k, c, j) for c in _bits(chosen) if (j := hit[c].get(k)) is not None
            ]
            if self_pair[k]:
                options.append(self_pair[k])
        ranked = []
        free = ~chosen
        for i, j, mask, own in options:
            newly = (reach.get(i, 0) | reach.get(j, 0) | own) & uncovered
            ranked.append(((mask & free).bit_count(), -newly.bit_count(), i, j, mask, newly))
        # Ties break on (i, j), that is on the values of the pair.
        ranked.sort()
        for rank, (n_added, minus_new, _, _, mask, newly) in enumerate(ranked):
            child = size + n_added
            if child >= best_size:
                # Ranked by size first: every later pair is cut as well.
                prunes["size_cap"] += len(ranked) - rank
                return
            nodes += 1
            rest = left + minus_new
            if not rest:
                best_size = child
                best_set = chosen | mask
                continue
            at = child * (n + 1) + rest
            bound = bounds[at]
            if bound is None:
                bound = bounds[at] = lower_bound(child, rest)
            if bound[0] >= best_size:
                prunes[bound[1]] += 1
                continue
            tables = extend(reach.copy(), affordable[:], mask & ~chosen)
            expand(chosen | mask, uncovered ^ newly, child, rest, *tables)

    # The root: A is nonempty, so it is never a leaf.
    nodes = 1
    root, cause = lower_bound(0, n)
    if root >= best_size:
        prunes[cause] += 1
    else:
        expand(0, full, 0, n, {}, root_affordable)

    if best_set is None:
        raise InfeasibleWithinUniverse(
            f"no basis of size <= {size_cap} exists within the given universe"
        )
    # The result is re-checked on the scaled ints: every target in B + B.
    chosen = [u_vals[i] for i in _bits(best_set)]
    sums = {x + y for x in chosen for y in chosen}
    missing = [t for t, x in zip(a._values, targets) if x not in sums]
    if missing:
        raise RuntimeError(f"search returned a non-basis; missing {missing}")
    # Bits ascend in index order, which is value order.
    basis = ArithSet._from_values([u._values[i] for i in _bits(best_set)], a.p, ordered=True)
    return BasisSearchResult(
        basis=basis,
        size=len(basis),
        counting_bound=floor,
        nodes=nodes,
        universe=u,
        prunes=prunes,
    )


class Decomposition(NamedTuple):
    reducible: bool
    left: ArithSet | None
    right: ArithSet | None
    nodes: int

    def parts(self) -> tuple[ArithSet, ArithSet]:
        if not self.reducible:
            raise ValueError("no decomposition was found")
        return self.left, self.right


def decompose(a: ArithSet) -> Decomposition:
    """Complete backtracking search for A = B + C with |B|, |C| >= 2.

    Branches on the smallest unexplained element of A over all pair
    splits (new b + existing c, existing b + new c, and both new, in that
    order within equal coverage); a split is kept only when every new
    cross sum lies in A.  A branch that explains everything with a
    singleton side is rejected.
    """
    if not a.is_rational:
        raise OutsideDomain("decomposition search runs in rational mode only")
    if len(a) < 2:
        raise OutsideDomain("need at least two elements")
    # The search runs on the ints d·x, d the common denominator of A; B holds
    # values beta = a - c0 and C values gamma = a, and sums are kept by
    # their index in A.
    (elems,), d, _ = _int_values([a])
    n = len(elems)
    c0 = elems[0]
    index = dict(zip(elems, range(n))).get  # index(x): where x is in A, or None
    b_universe = [x - c0 for x in elems]  # candidates for B, ascending, 0 first
    # pairs_for[t]: the (beta, gamma) with beta + gamma = a_t, by beta, built
    # when a_t is first the target.
    pairs_for: list = [None] * n

    # B and C in the order placed; explained[t] is the number of pairs of
    # B x C with sum a_t, and the bits of ``unexplained`` are the t where it
    # is 0, so the target is the lowest bit.
    b_side = [0]
    c_side = [c0]
    explained = [0] * n
    explained[0] = 1
    unexplained = (1 << n) - 2
    nodes = 0

    def fits(v, other) -> int | None:
        """Unexplained sums v + w over w in ``other``; None if one is not in A."""
        fresh = 0
        for w in other:
            t = index(v + w)
            if t is None:
                return None
            fresh += unexplained >> t & 1
        return fresh

    def place(v, mine: list, other: list, step: int) -> None:
        """Add (step 1) or remove (step -1) v, which fits, on its side, with
        its sums.  Removals undo placements in reverse order, so v is last
        on its side."""
        nonlocal unexplained
        adding = step > 0
        for w in other:
            t = index(v + w)
            explained[t] += step
            # The sum turns explained (0 -> 1) or unexplained (1 -> 0).
            if explained[t] == adding:
                unexplained ^= 1 << t
        if adding:
            mine.append(v)
        else:
            mine.pop()

    def dfs() -> tuple | None:
        nonlocal nodes
        nodes += 1
        if not unexplained:
            # A singleton side here is {0} with C = A, or {c0} with B = A - c0,
            # and no second element fits: no nonzero translate of A lies in A.
            if len(b_side) < 2 or len(c_side) < 2:
                return None
            return list(b_side), list(c_side)
        target = (unexplained & -unexplained).bit_length() - 1
        pairs = pairs_for[target]
        if pairs is None:
            t = elems[target]
            pairs = pairs_for[target] = [
                (beta, t - beta) for beta in b_universe if index(t - beta) is not None
            ]
        candidates = []
        for beta, gamma in pairs:
            # target is unexplained, so beta and gamma are not both placed.
            gain = 0
            b_new = beta not in b_side
            if b_new:
                fresh = fits(beta, c_side)
                if fresh is None:
                    continue
                gain = fresh
            c_new = gamma not in c_side
            if c_new:
                fresh = fits(gamma, b_side)
                if fresh is None:
                    continue
                gain += fresh
            kind = 2 if b_new and c_new else int(c_new)
            # New pairs with an unexplained sum, beta + gamma = target included.
            gain += kind == 2
            candidates.append((-gain, kind, beta, gamma, b_new, c_new))
        candidates.sort()
        for _gain, _kind, beta, gamma, b_new, c_new in candidates:
            if b_new:
                place(beta, b_side, c_side, 1)
            if c_new:
                place(gamma, c_side, b_side, 1)
            found = dfs()
            if found:
                return found
            if c_new:
                place(gamma, c_side, b_side, -1)
            if b_new:
                place(beta, b_side, c_side, -1)
        return None

    found = dfs()
    if not found:
        return Decomposition(reducible=False, left=None, right=None, nodes=nodes)
    left, right = (
        ArithSet._from_values([Fraction(v, d) for v in side], None) for side in found
    )
    return Decomposition(reducible=True, left=left, right=right, nodes=nodes)


def decomposition_report(a: ArithSet) -> dict:
    """Decomposition verdict with the shift-overlap context attached.

    For a witness, every translate B + c1 must sit inside
    A ∩ (A + (c1 - c2)); as |C| >= 2 that is B + C ⊆ A, re-verified
    exactly.  The overlaps |A ∩ (A + (c1 - c2))| = r_{A-A}(c1 - c2) are
    checked against the shift bound, which does not depend on the shift,
    so only the largest is.  The multiplicative doubling is reported either
    way (computed on the zero-free part when 0 is in A, and flagged).
    """
    dec = decompose(a)
    # With 0 not in A the doubling is M(A), and A keeps the A*A it builds.
    zero_free = ArithSet([x for x in a if x], p=a.p) if a.contains_zero() else a
    report: dict = {
        "size": len(a),
        "reducible": dec.reducible,
        "nodes": dec.nodes,
        "zero_dropped_for_doubling": len(zero_free) != len(a),
        "doubling": multiplicative_doubling(zero_free) if len(zero_free) else None,
    }
    if not dec.reducible:
        return report
    b, c = dec.parts()
    report["left_size"] = len(b)
    report["right_size"] = len(c)
    report["cube_root_of_size"] = len(a) ** (1.0 / 3.0)
    report["containment_ok"] = sumset(b, c)._index <= a._index
    shift_ok: bool | None = None
    if not a.contains_zero():
        overlaps = representation_function(a, a, "minus", ceiling=None)
        alpha = max(
            (c1 - c2 for c1 in c for c2 in c if c1 != c2),
            key=lambda s: overlaps.get(s, 0),
        )
        shift_ok = shift_intersection_report(a, alpha).holds
    report["shift_bound_ok"] = shift_ok
    report["witness_left"] = b
    report["witness_right"] = c
    return report
