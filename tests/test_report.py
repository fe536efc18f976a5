"""Report bytes pinned against committed golden files."""

from pathlib import Path

from sumprodlab.families import parse_family
from sumprodlab.report import run_suite, write_report

GOLDEN = Path(__file__).parent / "golden"

#: Every instance claim of the report benchmark, over families whose reports
#: are complete (no ceiling, every containment graph has an edge).
CLAIMS = [
    "stats",
    "ratio_energy",
    "mult_energy_plus",
    "shift_bound",
    "popular_ratios",
    "basis_chain",
    "difference_count",
    "ratio_set_bounds",
    "grid_triples",
    "sextuple_count",
    "identities",
    "decomposition",
    "exponent_chain",
]
FAMILIES = ["gp:q=2,n=8", "gp:q=2,n=12", "sumset_of_random:n=3,lo=1,hi=30,seed=29"]


def test_report_matches_golden_bytes(tmp_path):
    rows, summary = run_suite([parse_family(f) for f in FAMILIES], CLAIMS)
    csv_path, json_path = write_report(rows, summary, tmp_path)
    assert csv_path.read_bytes() == (GOLDEN / "report.csv").read_bytes()
    assert json_path.read_bytes() == (GOLDEN / "report.json").read_bytes()


def test_reused_rows_time_only_the_reuse():
    specs = [parse_family(f"gp:q=2,n={n}") for n in (4, 5, 6)]
    rows, _summary = run_suite(specs, ["identities"], timings=True)
    millis = sorted(row["millis"] for row in rows)
    assert millis[0] == millis[1] == 0
    assert millis[2] > 0
