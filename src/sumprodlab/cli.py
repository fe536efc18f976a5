"""Command-line interface.

Subcommands: gen, stats, basis (profile | min), decompose, popdiff,
triples, verify, report.  Set files use the format documented in
sumprodlab.sets.  Exit codes: 0 when all exact checks pass, 1 when an
exact check fails, 2 on usage or capacity errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .field import CeilingExceeded, check_prime_modulus
from .sets import ArithSet, dumps_set, read_set_file
from .families import parse_family, generate
from .graph import build_containment_graph, lk_profile
from .incidence import (
    collinear_triples,
    collinear_triples_brute,
    dyadic_table,
    st_line_bound_check,
)
from .report import (
    exit_code,
    jsonable,
    record_row,
    rows_to_csv,
    run_suite,
    write_report,
)
from .solvers import InfeasibleWithinUniverse, decomposition_report, min_basis
from .verify import CLAIMS, _certificate, run_claim


def _write(text: str, out=None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out=None) -> None:
    _write(json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n", out)


def _field_mode(text: str | None) -> int | None:
    if text is None or text == "rational":
        return None
    if text.startswith("fp:"):
        return check_prime_modulus(int(text[3:]))
    raise ValueError(f"bad --field value {text!r}; use 'rational' or 'fp:<p>'")


def _cmd_gen(args) -> int:
    spec = parse_family(args.spec)
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    a = generate(spec)
    if args.field is not None:
        p = _field_mode(args.field)
        if a.p is None and p is not None:
            a = ArithSet(a.elements, p=p)
        elif a.p != p:
            raise ValueError(f"family {args.spec!r} lies in {a.mode}, not in --field {args.field}")
    _write(dumps_set(a), args.out)
    return 0


def _cmd_stats(args) -> int:
    record = run_claim("stats", read_set_file(args.set), {})
    _emit({"claim": record.claim, "verdict": record.verdict, **record.details}, args.out)
    return exit_code([record_row(record)])


def _cmd_basis(args) -> int:
    a = read_set_file(args.set)
    if args.action == "profile":
        b = read_set_file(args.basis)
        graph = build_containment_graph(b, a)
        profile = lk_profile(graph)
        _emit(
            {
                "basis_size": profile.basis_size,
                "target_size": profile.target_size,
                "edges": profile.edges,
                "l_value": profile.l_value,
                "k_squared": profile.k_squared,
                "k_float": profile.k_float,
                "density": profile.density,
                "richness_threshold": profile.richness_threshold(),
            },
            args.out,
        )
        return 0
    universe = read_set_file(args.universe) if args.universe else None
    try:
        result = min_basis(a, universe=universe, size_cap=args.cap)
    except InfeasibleWithinUniverse as exc:
        _emit({"infeasible_within_universe": True, "reason": str(exc)}, args.out)
        return 2
    _emit(
        {
            "basis": result.basis,
            "size": result.size,
            "counting_bound": result.counting_bound,
            "nodes": result.nodes,
            "prunes": result.prunes,
            "universe_size": len(result.universe),
        },
        args.out,
    )
    return 0


def _cmd_decompose(args) -> int:
    _emit(decomposition_report(read_set_file(args.set)), args.out)
    return 0


def _cmd_popdiff(args) -> int:
    a = read_set_file(args.set)
    b = read_set_file(args.basis)
    _graph, _profile, extract, cert = _certificate(a, b, Fraction(args.eps), args.tau)
    _emit(
        {
            "ratios": cert.ratios,
            "multiplicity": {str(k): v for k, v in sorted(cert.multiplicity.items())},
            "collision_count": cert.collision_count,
            "tau": cert.tau,
            "triples_total": cert.triples_total,
            "skipped_triples": cert.skipped_triples,
            "conservation_ok": cert.conservation_ok,
            "cauchy_schwarz_ok": cert.cauchy_schwarz_ok,
            "within_target_ratios": cert.within_target_ratios,
            "extract_success": extract.success,
            "extract_size": len(extract.subset),
        },
        args.out,
    )
    return 0 if (cert.conservation_ok and cert.cauchy_schwarz_ok) else 1


def _cmd_triples(args) -> int:
    x = read_set_file(args.x)
    y = read_set_file(args.y)
    z = read_set_file(args.z)
    grouped = collinear_triples(x, y, z)
    payload: dict = {"triples": grouped}
    ok = True
    if args.brute:
        brute = collinear_triples_brute(x, y, z)
        payload["triples_brute"] = brute
        payload["routes_agree"] = brute == grouped
        ok = brute == grouped
    if x == y and max(len(x), len(z)) >= 2:  # a line table needs two points
        table = dyadic_table(x, z)
        st = st_line_bound_check(table)
        payload["richness_census"] = {
            f"{k},{l}": n for (k, l), n in sorted(table.richness_census().items())
        }
        payload["dyadic_counts"] = {
            f"{i},{j}": n for (i, j), n in sorted(table.dyadic_counts().items())
        }
        payload["table_triple_count"] = table.triple_count()
        payload["st_max_ratio"] = st.max_ratio
        ok = ok and payload["table_triple_count"] == grouped
    _emit(payload, args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    a = read_set_file(args.set)
    options: dict = {}
    if args.basis:
        options["basis"] = read_set_file(args.basis)
    if args.second:
        options["second"] = read_set_file(args.second)
    if args.seed is not None:
        options["seed"] = args.seed
    if args.tau is not None:
        options["tau"] = args.tau
    claims = [c.strip() for c in args.suite.split(",") if c.strip()]
    rows = [record_row(run_claim(claim, a, options)) for claim in claims]
    if args.format == "csv":
        _write(rows_to_csv(rows), args.out)
    else:
        # The JSON form names the claim "claim" and carries no timing.
        for row in rows:
            row["claim"] = row.pop("claim_id")
            del row["millis"]
        _emit(rows, args.out)
    return exit_code(rows)


def _cmd_report(args) -> int:
    specs = [parse_family(text) for text in args.family]
    claims = [c.strip() for c in args.suite.split(",") if c.strip()]
    options: dict = {}
    if args.seed is not None:
        options["seed"] = args.seed
    rows, summary = run_suite(specs, claims, options, timings=args.timings)
    csv_path, json_path = write_report(rows, summary, args.out, stem=args.stem)
    sys.stderr.write(f"wrote {csv_path} and {json_path}\n")
    return exit_code(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumprodlab",
        description="Exact workbench for sum-product set combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance as a set file")
    p.add_argument("spec", help="family spec, e.g. gp:q=2,n=8 or random:n=10,seed=5")
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--field", help="'rational' (default) or 'fp:<p>'")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="exact headline statistics of a set")
    p.add_argument("set")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("basis", help="containment profile or minimum basis")
    p.add_argument("action", choices=("profile", "min"))
    p.add_argument("set")
    p.add_argument("--basis", help="basis file (profile)")
    p.add_argument("--universe", help="universe file (min)")
    p.add_argument("--cap", type=int, help="size cap (min)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("decompose", help="exact sumset decomposition search")
    p.add_argument("set")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("popdiff", help="popular-ratio certificate")
    p.add_argument("set")
    p.add_argument("--basis", required=True)
    p.add_argument("--tau", type=int)
    p.add_argument("--eps", default="1/100")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_popdiff)

    p = sub.add_parser("triples", help="collinear triple count over three grids")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.add_argument("--brute", action="store_true", help="also run the oracle route")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("verify", help="run named checks on one instance")
    p.add_argument("set")
    p.add_argument("--suite", required=True, help=f"comma list from {sorted(CLAIMS)}")
    p.add_argument("--basis")
    p.add_argument("--second")
    p.add_argument("--seed", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="run a suite over families, write CSV + JSON")
    p.add_argument("--family", action="append", required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stem", default="report")
    p.add_argument("--seed", type=int)
    p.add_argument("--timings", action="store_true", help="record wall-clock millis")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CeilingExceeded as exc:
        sys.stderr.write(f"capacity ceiling: {exc}\n")
        return 2
    except (ValueError, OSError, ZeroDivisionError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
