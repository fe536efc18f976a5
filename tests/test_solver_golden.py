"""Solver search trees pinned node for node against tests/golden/solvers.json.

The golden file holds, for a fixed list of calls, what ``min_basis``
returned (size, nodes, basis, prunes) and what ``decompose`` returned (reducible,
nodes, left, right).  A change to the inside of either solver that keeps
the search tree keeps every one of these values; a change that reorders
or prunes the tree shows up as a different node count.

Regenerate the file (only for a change that means to alter the tree) with

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from sumprodlab.families import generate, parse_family
from sumprodlab.sets import ArithSet, dilate, translate
from sumprodlab.solvers import decompose, min_basis

GOLDEN = Path(__file__).parent / "golden" / "solvers.json"

#: The seed of the search benchmark whose two default-universe searches and
#: dilated progressions are pinned here.
SEARCH_SEED = 7


def _family(text):
    return generate(parse_family(text))


def _dump(s):
    return None if s is None else [str(x) for x in s]


def _load(values):
    return None if values is None else ArithSet(Fraction(v) for v in values)


def min_basis_calls():
    """(label, A, universe or None for the default universe)."""
    factor = random.Random(SEARCH_SEED).randrange(3, 200, 2)
    calls = [
        (f"{factor}*gp:q=2,n=8", dilate(_family("gp:q=2,n=8"), factor), None),
        (
            f"{factor}*random:n=8,lo=1,hi=60,seed=1",
            dilate(_family("random:n=8,lo=1,hi=60,seed=1"), factor),
            None,
        ),
    ]
    universe = ArithSet(range(13))
    rng = random.Random(2016)
    for i in range(30):
        a = ArithSet(rng.sample(range(13), rng.randint(3, 8)))
        calls.append((f"subset {i} of 0..12", a, universe))
    calls.append(("random:n=7,lo=1,hi=100,seed=1", _family("random:n=7,lo=1,hi=100,seed=1"), None))
    lam = Fraction(3, 7)
    calls.append(("3/7*{0..4} in 3/7*{0..12}", dilate(ArithSet(range(5)), lam), dilate(universe, lam)))
    return calls


def decompose_calls():
    """(label, A)."""
    factor = random.Random(SEARCH_SEED).randrange(3, 200, 2)
    calls = [
        (f"{factor}*gp:q=2,n={n}", dilate(_family(f"gp:q=2,n={n}"), factor)) for n in (8, 12, 16)
    ]
    rng = random.Random(1606)
    for i in range(20):
        b = rng.sample(range(40), 3)
        c = rng.sample(range(40), 3)
        calls.append((f"sumset {i}", ArithSet({x + y for x in b for y in c})))
    third, half = Fraction(1, 3), Fraction(1, 2)
    mixed = ArithSet({x + y for x in (0, half, third) for y in (Fraction(-3, 5), Fraction(2, 7))})
    calls += [
        ("{1/3, 2/3, 4/3, 5/3}", ArithSet([third, 2 * third, 4 * third, 5 * third])),
        ("{1/2, 1, 3/2, 2}", ArithSet([half, 1, 3 * half, 2])),
        ("{0, 1/2, 1/3} + {-3/5, 2/7}", mixed),
        ("{1/3, 1/2, 7/5, 2}", ArithSet([third, half, Fraction(7, 5), 2])),
        ("gp:q=2,n=8 - 7/4", translate(_family("gp:q=2,n=8"), Fraction(-7, 4))),
        ("5/6*{0..7}", dilate(ArithSet(range(8)), Fraction(5, 6))),
    ]
    return calls


def compute():
    out = {"min_basis": [], "decompose": []}
    for label, a, universe in min_basis_calls():
        res = min_basis(a, universe=universe)
        out["min_basis"].append(
            {
                "label": label,
                "a": _dump(a),
                "universe": _dump(universe),
                "size": res.size,
                "nodes": res.nodes,
                "basis": _dump(res.basis),
                "prunes": res.prunes,
            }
        )
    for label, a in decompose_calls():
        dec = decompose(a)
        out["decompose"].append(
            {
                "label": label,
                "a": _dump(a),
                "reducible": dec.reducible,
                "nodes": dec.nodes,
                "left": _dump(dec.left),
                "right": _dump(dec.right),
            }
        )
    return out


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_inputs_are_the_listed_calls():
    golden = _golden()
    assert [(c["label"], c["a"], c["universe"]) for c in golden["min_basis"]] == [
        (label, _dump(a), _dump(u)) for label, a, u in min_basis_calls()
    ]
    assert [(c["label"], c["a"]) for c in golden["decompose"]] == [
        (label, _dump(a)) for label, a in decompose_calls()
    ]


def test_min_basis_trees_match_golden():
    for case in _golden()["min_basis"]:
        res = min_basis(_load(case["a"]), universe=_load(case["universe"]))
        got = (res.size, res.nodes, _dump(res.basis), res.prunes)
        want = (case["size"], case["nodes"], case["basis"], case["prunes"])
        assert got == want, case["label"]


def test_decompose_trees_match_golden():
    for case in _golden()["decompose"]:
        dec = decompose(_load(case["a"]))
        got = (dec.reducible, dec.nodes, _dump(dec.left), _dump(dec.right))
        want = (case["reducible"], case["nodes"], case["left"], case["right"])
        assert got == want, case["label"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
