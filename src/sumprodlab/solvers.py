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
runs on bitmasks over universe indices: B is a mask of universe elements,
the covered part of A a mask of targets, and each universe element keeps
a list of (partner, target) bits, so the targets a new element covers are
read off its own row.

Decomposition.  Decide whether A = B + C with |B|, |C| >= 2.  Translation
freedom is removed by fixing min(B) = 0, which forces C to be a subset
of A and B a subset of A - min(A).  The search branches on how the
smallest unexplained element is written as b + c, keeping a split only
when every new cross sum lands in A; one placement helper puts an element
on either side and counts its sums with the other.  Exhausting the tree
without a witness is a proof of irreducibility.  The search runs on the
plain ints d·x, d the common denominator of A, and scales the witness back.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .energy import representation_function, shift_intersection_report
from .field import OutsideDomain
from .sets import (
    ArithSet,
    _scaled_values,
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


@dataclass(frozen=True)
class BasisSearchResult:
    basis: ArithSet
    size: int
    counting_bound: int
    nodes: int
    universe: ArithSet
    #: Branches cut, by cause: ``counting_floor`` and ``coverage`` (the
    #: lower bound reached the incumbent; a tie is credited to the counting
    #: floor), ``no_affordable_pair`` (some uncovered target has no pair
    #: that keeps |B| below the incumbent) and ``size_cap`` (a ranked pair
    #: skipped because it would make B as large as the incumbent).
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
    (targets, u_vals), _ = _scaled_values([a, u])
    position = {x: i for i, x in enumerate(u_vals)}

    # pairs_for[k]: (i, j, mask) with u_i + u_j = t_k and i <= j, by i.
    # partners[i]: (bit j, bit k) for every u_i + u_j = t_k, so the targets
    # a new element covers are read off its own row.
    pairs_for: list = [[] for _ in targets]
    partners = []
    for i, x in enumerate(u_vals):
        row = []
        for k, t in enumerate(targets):
            j = position.get(t - x)
            if j is not None:
                row.append((1 << j, 1 << k))
                if i <= j:
                    pairs_for[k].append((i, j, 1 << i | 1 << j))
        partners.append(row)
    for t, plist in zip(a._values, pairs_for):
        if not plist:
            raise InfeasibleWithinUniverse(
                f"element {t} has no representation as a pair sum from the universe"
            )

    full = (1 << len(targets)) - 1
    floor = counting_lower_bound(len(targets))

    # Static per-element coverage cap, used for a set-cover style bound.
    max_cover = max(len(row) for row in partners)

    def coverage_bound(chosen_size: int, uncovered: int) -> int:
        k = 0
        reachable = 0
        while reachable < uncovered:
            k += 1
            reachable = k * chosen_size + k * (k + 1) // 2
        return max(k, -(-uncovered // max_cover))

    def gained(trial: int, added: int) -> int:
        """Targets covered by ``trial`` through an element of ``added``."""
        got = 0
        for i in _bits(added):
            for partner, target in partners[i]:
                if trial & partner:
                    got |= target
        return got

    def greedy() -> int:
        chosen = covered = 0
        while covered != full:
            uncovered = full & ~covered
            k = min(_bits(uncovered), key=lambda v: len(pairs_for[v]))
            best_mask, best_newly = 0, 0
            best_gain = -1
            for _i, _j, mask in pairs_for[k]:
                added = mask & ~chosen
                newly = gained(chosen | mask, added) & uncovered
                gain = newly.bit_count() * 4 - added.bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best_mask, best_newly = mask, newly
            chosen |= best_mask
            covered |= best_newly
        return chosen

    incumbent = greedy()
    within_cap = incumbent.bit_count() <= size_cap
    best_size = incumbent.bit_count() if within_cap else size_cap + 1
    best_set = incumbent if within_cap else None
    nodes = 0
    prunes = dict.fromkeys(("counting_floor", "coverage", "no_affordable_pair", "size_cap"), 0)

    def dfs(chosen: int, covered: int, size: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        uncovered = full & ~covered
        if not uncovered:
            if size < best_size:
                best_size = size
                best_set = chosen
            return
        cover_term = coverage_bound(size, uncovered.bit_count())
        floor_term = floor - size
        if size + max(cover_term, floor_term) >= best_size:
            prunes["coverage" if cover_term > floor_term else "counting_floor"] += 1
            return
        # Most-constrained uncovered element: fewest pairs still affordable.
        # A pair adds at most two elements, so with a slack of three or more
        # every pair is affordable.
        slack = best_size - size
        options = None
        for k in _bits(uncovered):
            opts = pairs_for[k]
            if slack < 3:
                opts = [p for p in opts if (p[2] & ~chosen).bit_count() < slack]
            if options is None or len(opts) < len(options):
                options = opts
                if not options:
                    break
        if not options:
            prunes["no_affordable_pair"] += 1
            return
        ranked = []
        for i, j, mask in options:
            added = mask & ~chosen
            trial = chosen | mask
            newly = gained(trial, added) & uncovered
            ranked.append((added.bit_count(), -newly.bit_count(), i, j, trial, newly))
        # Ties break on (i, j), that is on the values of the pair.
        ranked.sort()
        for n_added, _, _, _, trial, newly in ranked:
            if size + n_added >= best_size:
                prunes["size_cap"] += 1
                continue
            dfs(trial, covered | newly, size + n_added)

    dfs(0, 0, 0)

    if best_set is None:
        raise InfeasibleWithinUniverse(
            f"no basis of size <= {size_cap} exists within the given universe"
        )
    basis = ArithSet._from_values([u._values[i] for i in _bits(best_set)], a.p)
    sums = sumset(basis, basis)
    missing = [t for t in a._values if t not in sums]
    if missing:
        raise RuntimeError(f"search returned a non-basis; missing {missing}")
    return BasisSearchResult(
        basis=basis,
        size=len(basis),
        counting_bound=floor,
        nodes=nodes,
        universe=u,
        prunes=prunes,
    )


@dataclass(frozen=True)
class Decomposition:
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
    # The search runs on the ints d·x, d the common denominator of A.
    (elems,), d = _scaled_values([a])
    a_index = set(elems)
    c0 = elems[0]
    b_universe = [x - c0 for x in elems]  # candidates for B, ascending, 0 first

    b_set = {0}
    c_set = {c0}
    # explained[s]: the number of pairs of B x C with sum s.
    explained: dict = {c0: 1}
    nodes = 0

    def fits(v, other) -> int | None:
        """Unexplained sums v + w over w in ``other``; None if one is not in A."""
        fresh = 0
        for w in other:
            s = v + w
            if s not in a_index:
                return None
            fresh += not explained.get(s, 0)
        return fresh

    def place(v, mine, other, step: int) -> None:
        """Add (step 1) or remove (step -1) v on its side, with its sums."""
        (mine.add if step > 0 else mine.discard)(v)
        for w in other:
            explained[v + w] = explained.get(v + w, 0) + step

    def dfs() -> tuple | None:
        nonlocal nodes
        nodes += 1
        target = next((t for t in elems if not explained.get(t, 0)), None)
        if target is None:
            # A singleton side here is {0} with C = A, or {c0} with B = A - c0,
            # and no second element fits: no nonzero translate of A lies in A.
            if len(b_set) < 2 or len(c_set) < 2:
                return None
            return set(b_set), set(c_set)
        candidates = []
        for beta in b_universe:
            gamma = target - beta
            if gamma not in a_index:
                continue
            # target is unexplained, so beta and gamma are not both placed.
            b_new = beta not in b_set
            c_new = gamma not in c_set
            fresh_b = fits(beta, c_set) if b_new else 0
            fresh_c = fits(gamma, b_set) if c_new else 0
            if fresh_b is None or fresh_c is None:
                continue
            kind = 2 if b_new and c_new else int(c_new)
            # New pairs with an unexplained sum, beta + gamma = target included.
            gain = fresh_b + fresh_c + (kind == 2)
            candidates.append((-gain, kind, beta, gamma, b_new, c_new))
        candidates.sort()
        for _gain, _kind, beta, gamma, b_new, c_new in candidates:
            if b_new:
                place(beta, b_set, c_set, 1)
            if c_new:
                place(gamma, c_set, b_set, 1)
            found = dfs()
            if found:
                return found
            if c_new:
                place(gamma, c_set, b_set, -1)
            if b_new:
                place(beta, b_set, c_set, -1)
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
    report["containment_ok"] = all(x + y in a for x in b for y in c)
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
