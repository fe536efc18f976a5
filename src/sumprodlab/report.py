"""Family runs with CSV and JSON output.

One CSV row per instance per claim, schema (stable, documented in the
README)::

    claim_id,anchor,card_a,card_b,lhs,rhs,ratio,verdict,millis

Rows are sorted by (claim_id, card_a, anchor) before writing and all
numeric formatting is canonical, so reruns with identical specs and
seeds produce byte-identical files.  Wall-clock timings vary between
runs, so the millis column is 0 unless timings are explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
import time
from fractions import Fraction
from pathlib import Path

from .families import FamilySpec, generate
from .sets import ArithSet
from .verify import (
    INSTANCE_FREE,
    SLOPE_TARGETS,
    CheckRecord,
    fit_loglog_slope,
    run_claim,
)


def jsonable(obj):
    """Recursively convert exact values into JSON-safe representations."""
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return obj.numerator
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, ArithSet):
        return [jsonable(x) for x in obj._values]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_row(record: CheckRecord, millis: int = 0) -> dict:
    """One record as a flat row: the CSV columns plus the record's details."""
    return {
        "claim_id": record.claim,
        "anchor": record.provenance,
        "card_a": record.size_a,
        "card_b": record.size_b,
        "lhs": record.lhs,
        "rhs": record.rhs,
        "ratio": record.ratio,
        "verdict": record.verdict,
        "millis": millis,
        "details": record.details,
    }


def run_suite(
    specs: list[FamilySpec],
    claims: list[str],
    options: dict | None = None,
    timings: bool = False,
) -> tuple[list[dict], dict]:
    """Run every claim on every family instance.

    Returns (rows, summary): rows are flat dicts matching the CSV schema
    plus the instance label; the summary carries per-claim fitted log-log
    slopes against the instance sizes.  The claimed exponents are real-number
    statements, so a slope is judged against its threshold only for a family
    of rational sets; a prime-field family reports the slope alone.
    Instance-free claims run once per call; every family's row reuses that
    record.
    """
    options = options or {}
    rows = []
    shared: dict[str, CheckRecord] = {}
    prime_kinds = set()
    for spec in specs:
        instance = generate(spec)
        if instance.p is not None:
            prime_kinds.add(spec.kind)
        for claim in claims:
            start = time.perf_counter()
            record = shared.get(claim)
            if record is None:
                record = run_claim(claim, instance, options)
                if claim in INSTANCE_FREE:
                    shared[claim] = record
            elapsed_ms = int((time.perf_counter() - start) * 1000)
            row = record_row(record, elapsed_ms if timings else 0)
            row["instance"] = spec.label()
            rows.append(row)
    rows.sort(key=lambda r: (r["claim_id"], r["card_a"], r["anchor"], r["instance"]))

    slopes: dict = {}
    kinds = sorted({spec.kind for spec in specs})
    for claim in claims:
        for kind in kinds:
            relevant = [
                r
                for r in rows
                if r["claim_id"] == claim
                and r["instance"].startswith(f"{kind}:")
                and isinstance(r["lhs"], int)
                and r["lhs"] > 0
                and r["card_a"] > 1
            ]
            if len({r["card_a"] for r in relevant}) < 2:
                continue
            fit = fit_loglog_slope(
                [r["card_a"] for r in relevant], [r["lhs"] for r in relevant]
            )
            if claim in SLOPE_TARGETS and fit["slope"] is not None and kind not in prime_kinds:
                fit["threshold"] = SLOPE_TARGETS[claim]
                fit["within_threshold"] = fit["slope"] <= SLOPE_TARGETS[claim]
            slopes.setdefault(claim, {})[kind] = fit
    summary = {
        "families": [spec.label() for spec in specs],
        "claims": sorted(claims),
        "rows": len(rows),
        "verdicts": {
            v: sum(1 for r in rows if r["verdict"] == v)
            for v in sorted({r["verdict"] for r in rows})
        },
        "slopes": slopes,
    }
    return rows, summary


CSV_FIELDS = (
    "claim_id",
    "anchor",
    "card_a",
    "card_b",
    "lhs",
    "rhs",
    "ratio",
    "verdict",
    "millis",
)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow([_format_cell(row[field]) for field in CSV_FIELDS])
    return buf.getvalue()


def write_report(
    rows: list[dict],
    summary: dict,
    out_dir,
    stem: str = "report",
) -> tuple[Path, Path]:
    """Write <stem>.csv and <stem>.json under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
    payload = {
        "summary": jsonable(summary),
        "rows": [
            {key: jsonable(value) for key, value in row.items()} for row in rows
        ],
    }
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path, json_path


def exit_code(rows: list[dict]) -> int:
    """0 when all exact checks pass, 1 on an exact failure, 2 on ceilings.

    'undefined' rows (an instance outside a claim's domain) count as neither
    a failure nor a ceiling.
    """
    verdicts = {row["verdict"] for row in rows}
    if "ceiling" in verdicts:
        return 2
    if "fail" in verdicts:
        return 1
    return 0
