"""Spans around sumprodlab's public functions, installed from outside the library.

Installing rebinds every ``sumprodlab.*`` module attribute that holds one of
the wrapped function objects (``from .sets import sumset`` copies the
binding into other modules, so each copy is rebound) and uninstalling puts
the original objects back.  A span records its name, start, end, parent
span and operation id, plus a few sizes read from the arguments or the
result after the clock has stopped.  Spans stay in memory until the run
writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MARK = "__perfbench_span__"

#: Spans that start a new operation when no operation is open.
OP_BOUNDARIES = {"verify.run_claim", "solvers.min_basis", "solvers.decompose"}

#: Claims whose row does not depend on the instance.
INSTANCE_FREE = ("identities", "exponent_chain")


def _mode(obj) -> str:
    return "q" if obj.p is None else "fp"


def _pairs2(args, kwargs, result):
    s, t = args[0], args[1]
    return {"pairs": len(s) * len(t), "mode": _mode(s)}


def _sigma_pairs(args, kwargs, result):
    b = args[1]
    return {"pairs": len(b) * len(b), "mode": _mode(b)}


def _grid_pairs(args, kwargs, result):
    """Point pairs hashed by collinear_triples: m (m - 1) / 2 for the union
    of the grids V x V, sized by inclusion-exclusion on the element sets."""
    x, y, z = (set(s.elements) for s in args[:3])
    m = (
        len(x) ** 2 + len(y) ** 2 + len(z) ** 2
        - len(x & y) ** 2 - len(x & z) ** 2 - len(y & z) ** 2
        + len(x & y & z) ** 2
    )
    return {"pairs": m * (m - 1) // 2, "mode": _mode(args[0])}


def _nodes(args, kwargs, result):
    return {"nodes": result.nodes}


def _claim(args, kwargs, result):
    return {"claim": args[0], "verdict": result.verdict}


def _claim_error(args, kwargs):
    return {"claim": args[0], "verdict": None}


def _bytes(args, kwargs, result):
    return {"bytes": sum(path.stat().st_size for path in result)}


#: (module, function, what to read after a successful call).
TARGETS = (
    ("families", "generate", None),
    ("sets", "sumset", _pairs2),
    ("sets", "difference_set", _pairs2),
    ("sets", "product_set", _pairs2),
    ("sets", "ratio_set", _pairs2),
    ("sets", "aa_over_a", None),
    ("sets", "multiplicative_doubling", None),
    ("sets", "translate", None),
    ("sets", "dilate", None),
    ("sets", "negate", None),
    ("sets", "normalize", None),
    ("energy", "representation_function", _pairs2),
    ("energy", "additive_energy", None),
    ("energy", "multiplicative_energy", None),
    ("energy", "ratio_quotient_energy", None),
    ("energy", "sigma", _sigma_pairs),
    ("energy", "shift_intersection", None),
    ("energy", "shift_intersection_report", None),
    ("graph", "build_containment_graph", None),
    ("graph", "lk_profile", None),
    ("graph", "gowers_extract", None),
    ("graph", "rich_pairs", None),
    ("popdiff", "build_popular_ratios", None),
    ("popdiff", "quadruple_energy_bound", None),
    ("popdiff", "build_ratio_sets", None),
    ("popdiff", "one_minus_x_solutions", None),
    ("incidence", "collinear_triples", _grid_pairs),
    ("incidence", "sextuple_collinearity_count", None),
    ("incidence", "grid_triples_bound_check", None),
    ("solvers", "min_basis", _nodes),
    ("solvers", "decompose", _nodes),
    ("solvers", "default_universe", None),
    ("solvers", "decomposition_report", None),
    ("verify", "run_claim", _claim),
    ("report", "run_suite", None),
    ("report", "write_report", _bytes),
)

_ERROR_INFO = {"verify.run_claim": _claim_error}


def _library_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "sumprodlab" or name.startswith("sumprodlab."))
    ]


def installed_wrappers() -> list[str]:
    """Names of sumprodlab module attributes that are currently span wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in _library_modules()
        for attr, value in vars(module).items()
        if getattr(value, MARK, False)
    ]


class Tracer:
    """Collects spans while installed.  One span is a list:
    [name, start, end, parent index, op id, info dict or None, error or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._op_depth = 0
        self._saved: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module_name, func_name, info in TARGETS:
            module = sys.modules[f"sumprodlab.{module_name}"]
            original = getattr(module, func_name)
            name = f"{module_name}.{func_name}"
            wrappers[id(original)] = (original, self._wrap(name, original, info))
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._saved)
        self._saved.clear()
        if not restored or installed_wrappers():
            raise RuntimeError("library functions were not restored")

    def _wrap(self, name, fn, info):
        tracer = self
        clock = time.perf_counter
        boundary = name in OP_BOUNDARIES
        on_error = _ERROR_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = boundary and tracer._op_depth == 0
            if opened:
                tracer._op += 1
            if boundary:
                tracer._op_depth += 1
            stack = tracer._stack
            op = tracer._op if tracer._op_depth else 0
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, op, None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                record[1] = clock()
                result = fn(*args, **kwargs)
                record[2] = clock()
            except BaseException as exc:
                record[2] = clock()
                record[6] = type(exc).__name__
                if on_error is not None:
                    record[5] = on_error(args, kwargs)
                raise
            finally:
                stack.pop()
                if boundary:
                    tracer._op_depth -= 1
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- reading --------------------------------------------------------------

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_r) in enumerate(spans)]


def generate_seconds(spans: list[list]) -> float:
    """Self time of families.generate spans, for the traced set-up."""
    return sum(t for span, t in zip(spans, self_times(spans)) if span[0] == "families.generate")


def _ns_per(total_s: float, count: int) -> float:
    return total_s / count * 1e9 if count else 0.0


def layer_metrics(spans: list[list], wall_s: float, claims) -> dict[str, float]:
    """Per-layer numbers of one traced round (see the README's table).

    ``claims`` names the verify.<claim>.s metrics, so that every workload
    reports the same set; a claim the round did not run reads 0.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    dur_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    errors = defaultdict(int)
    pairs = defaultdict(int)  # (layer, mode) -> pairs of successful pair-counted spans
    pair_self = defaultdict(float)  # (layer, mode) -> their self time
    nodes = defaultdict(int)
    node_self = defaultdict(float)
    claim_s = defaultdict(float)
    ceiling_s = 0.0
    report_bytes = 0
    for (name, start, end, _parent, _op, info, error), self_s in zip(spans, own):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        self_by_name[name] += self_s
        dur_by_name[name] += end - start
        self_by_layer[layer] += self_s
        if error is not None:
            errors[name] += 1
        if info is None:
            continue
        if "pairs" in info and error is None:
            key = (layer, info["mode"])
            pairs[key] += info["pairs"]
            pair_self[key] += self_s
        if "nodes" in info:
            nodes[name] += info["nodes"]
            node_self[name] += self_s
        if "claim" in info:
            claim_s[info["claim"]] += end - start
            if info["verdict"] == "ceiling":
                ceiling_s += end - start
        if "bytes" in info:
            report_bytes += info["bytes"]

    out: dict[str, float] = {"families.self_s": self_by_layer["families"]}
    for layer in ("sets", "energy", "incidence"):
        out[f"{layer}.self_s"] = self_by_layer[layer]
        for mode in ("q", "fp"):
            out[f"{layer}.{mode}.ns_per_pair"] = _ns_per(
                pair_self[(layer, mode)], pairs[(layer, mode)]
            )
    out["sets.calls"] = calls["sets"]
    out["sets.pairs"] = pairs[("sets", "q")] + pairs[("sets", "fp")]
    out["sets.product_set.calls"] = calls["sets.product_set"]
    out["sets.ratio_set.calls"] = calls["sets.ratio_set"]
    out["energy.representation_function.calls"] = calls["energy.representation_function"]
    out["energy.pairs"] = pairs[("energy", "q")] + pairs[("energy", "fp")]
    out["energy.shift_intersection_report.calls"] = calls["energy.shift_intersection_report"]
    out["energy.sigma.self_s"] = self_by_name["energy.sigma"]
    for name in ("build_containment_graph", "gowers_extract", "rich_pairs"):
        out[f"graph.{name}.self_s"] = self_by_name[f"graph.{name}"]
    out["graph.lk_profile.errors"] = errors["graph.lk_profile"]
    out["graph.self_s"] = self_by_layer["graph"]
    for name in ("build_popular_ratios", "quadruple_energy_bound", "build_ratio_sets"):
        out[f"popdiff.{name}.self_s"] = self_by_name[f"popdiff.{name}"]
    out["popdiff.one_minus_x_solutions.calls"] = calls["popdiff.one_minus_x_solutions"]
    out["popdiff.self_s"] = self_by_layer["popdiff"]
    out["incidence.collinear_triples.calls"] = calls["incidence.collinear_triples"]
    out["incidence.point_pairs"] = pairs[("incidence", "q")] + pairs[("incidence", "fp")]
    out["incidence.sextuple_collinearity_count.self_s"] = self_by_name[
        "incidence.sextuple_collinearity_count"
    ]
    for name in ("min_basis", "decompose"):
        full = f"solvers.{name}"
        out[f"{full}.nodes"] = nodes[full]
        out[f"{full}.self_s"] = self_by_name[full]
        out[f"{full}.us_per_node"] = node_self[full] / nodes[full] * 1e6 if nodes[full] else 0.0
    out["solvers.default_universe.self_s"] = self_by_name["solvers.default_universe"]
    out["solvers.self_s"] = self_by_layer["solvers"]
    for claim in claims:
        out[f"verify.{claim}.s"] = claim_s[claim]
    out["verify.ceiling_s"] = ceiling_s
    out["verify.instance_free_s"] = sum(claim_s[c] for c in INSTANCE_FREE)
    out["verify.self_s"] = self_by_layer["verify"]
    out["report.run_suite.self_s"] = self_by_name["report.run_suite"]
    out["report.write_report.s"] = dur_by_name["report.write_report"]
    out["report.bytes"] = report_bytes
    out["report.self_s"] = self_by_layer["report"]
    out["trace.spans"] = len(spans)
    out["trace.accounted_share"] = sum(own) / wall_s
    return out


def write_jsonl(path, rounds: list[tuple[str, list[list]]]) -> None:
    """One JSON object per span; times are seconds from the round's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, spans in rounds:
            origin = spans[0][1] if spans else 0.0
            for index, (name, start, end, parent, op, info, error) in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "round": label,
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op": op,
                            "info": info,
                            "error": error,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
