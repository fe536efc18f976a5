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
smallest unexplained element is written as b + c, propagating the
constraint that every cross sum lands in A; exhausting the tree without
a witness is a proof of irreducibility.  The search runs on the plain
ints d·x, d the common denominator of A, and scales the witness back.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .energy import representation_function, shift_bound_report
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
    order within equal coverage); every insertion checks all cross sums
    against A.  Branches that explain everything with a singleton side
    attempt a one-element extension of that side before being rejected.
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
    explained: dict = {c0: 1}
    nodes = 0
    witness: list = []

    def add_b(beta) -> bool:
        for c in c_set:
            if (beta + c) not in a_index:
                return False
        b_set.add(beta)
        for c in c_set:
            s = beta + c
            explained[s] = explained.get(s, 0) + 1
        return True

    def remove_b(beta) -> None:
        b_set.discard(beta)
        for c in c_set:
            s = beta + c
            explained[s] -= 1

    def add_c(gamma) -> bool:
        for b in b_set:
            if (b + gamma) not in a_index:
                return False
        c_set.add(gamma)
        for b in b_set:
            s = b + gamma
            explained[s] = explained.get(s, 0) + 1
        return True

    def remove_c(gamma) -> None:
        c_set.discard(gamma)
        for b in b_set:
            s = b + gamma
            explained[s] -= 1

    def unexplained_min():
        for t in elems:
            if explained.get(t, 0) == 0:
                return t
        return None

    def coverage(new_b, new_c) -> int:
        seen = 0
        cs = list(c_set) + ([new_c] if new_c is not None else [])
        if new_b is not None:
            for c in cs:
                s = new_b + c
                if s in a_index and explained.get(s, 0) == 0:
                    seen += 1
        if new_c is not None:
            for b in b_set:
                s = b + new_c
                if s in a_index and explained.get(s, 0) == 0:
                    seen += 1
        return seen

    def try_leaf() -> bool:
        if len(b_set) >= 2 and len(c_set) >= 2:
            witness.append((set(b_set), set(c_set)))
            return True
        if len(b_set) < 2:
            for beta in b_universe:
                if beta in b_set or beta == 0:
                    continue
                if all((beta + c) in a_index for c in c_set):
                    witness.append((set(b_set) | {beta}, set(c_set)))
                    return True
            return False
        for gamma in elems:
            if gamma in c_set:
                continue
            if all((b + gamma) in a_index for b in b_set):
                witness.append((set(b_set), set(c_set) | {gamma}))
                return True
        return False

    def dfs() -> bool:
        nonlocal nodes
        nodes += 1
        target = unexplained_min()
        if target is None:
            return try_leaf()
        candidates = []
        for beta in b_universe:
            gamma = target - beta
            if gamma not in a_index:
                continue
            b_new = beta not in b_set
            c_new = gamma not in c_set
            if not b_new and not c_new:
                continue
            if b_new and any((beta + c) not in a_index for c in c_set):
                continue
            if c_new and any((b + gamma) not in a_index for b in b_set):
                continue
            kind = 0 if (b_new and not c_new) else (1 if (c_new and not b_new) else 2)
            gain = coverage(beta if b_new else None, gamma if c_new else None)
            candidates.append((-gain, kind, beta, gamma, b_new, c_new))
        candidates.sort()
        for _gain, _kind, beta, gamma, b_new, c_new in candidates:
            if b_new:
                if not add_b(beta):
                    continue
            if c_new:
                if not add_c(gamma):
                    if b_new:
                        remove_b(beta)
                    continue
            if dfs():
                return True
            if c_new:
                remove_c(gamma)
            if b_new:
                remove_b(beta)
        return False

    found = dfs()
    if not found:
        return Decomposition(reducible=False, left=None, right=None, nodes=nodes)
    b_out, c_out = witness[0]
    return Decomposition(
        reducible=True,
        left=ArithSet._from_values([Fraction(v, d) for v in b_out], None),
        right=ArithSet._from_values([Fraction(v, d) for v in c_out], None),
        nodes=nodes,
    )


def decomposition_report(a: ArithSet) -> dict:
    """Decomposition verdict with the shift-overlap context attached.

    For a witness, every translate B + c1 must sit inside
    A ∩ (A + (c1 - c2)); that containment is re-verified exactly, and each
    overlap |A ∩ (A + (c1 - c2))| = r_{A-A}(c1 - c2) is checked against the
    shift bound.  The multiplicative doubling is reported either way
    (computed on the zero-free part when 0 is in A, and flagged).
    """
    dec = decompose(a)
    zero_free = ArithSet([x for x in a if x], p=a.p)
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
    shifts = [(c1, c2) for c1 in c for c2 in c if c1 != c2]
    report["containment_ok"] = all(
        x + c1 in a and x + c2 in a for c1, c2 in shifts for x in b
    )
    shift_ok: bool | None = None
    if not a.contains_zero():
        # Here the doubling above is M(A) itself.
        overlaps = representation_function(a, a, "minus", ceiling=None)
        shift_ok = all(
            shift_bound_report(
                a, c1 - c2, overlaps.get(c1 - c2, 0), report["doubling"]
            ).holds
            for c1, c2 in shifts
        )
    report["shift_bound_ok"] = shift_ok
    report["witness_left"] = b
    report["witness_right"] = c
    return report
