"""The result records: their NamedTuple contract, what ``import sumprodlab``
loads, and that no record reaches ``report.jsonable``.

A record is a tuple, and ``jsonable`` writes any tuple as a JSON list, so a
record inside a report value would change the report's bytes silently.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import sumprodlab
from sumprodlab import cli, energy, families, graph, incidence, popdiff, solvers, verify
from sumprodlab.families import parse_family
from sumprodlab.report import run_suite
from sumprodlab.sets import ArithSet, write_set_file

#: Every record class with its fields in order.
RECORDS = [
    (verify.CheckRecord,
     ("claim", "provenance", "size_a", "size_b", "lhs", "rhs", "ratio", "verdict", "details")),
    (verify.ExponentLedger,
     ("gain", "popular_ratio_exponents", "chain_exponents", "basis_exponent", "at_boundary")),
    (families.FamilySpec, ("kind", "params", "seed")),
    (energy.ShiftBoundReport,
     ("alpha", "overlap", "doubling", "bound_cubed", "bound_ceiling", "bound_float", "holds")),
    (graph.LKProfile, ("basis_size", "target_size", "edges")),
    (graph.GowersExtract,
     ("pivot", "subset", "epsilon", "threshold", "size_floor", "bad_fraction", "success")),
    (graph.DifferenceSolutionReport,
     ("pairs", "tau", "fraction_at_tau", "min_solutions", "median_solutions", "injection_ok")),
    (incidence.IncidenceTable, ("first", "second", "census")),
    (incidence.STClassRatio, ("k", "l", "lines", "bound", "ratio")),
    (incidence.STBoundReport, ("per_class", "max_ratio")),
    (incidence.GridTriplesReport,
     ("c_size", "b_size", "triples", "bound", "ratio", "hypothesis_ok")),
    (popdiff.PopDiffCertificate,
     ("ratios", "multiplicity", "collision_count", "tau", "triples_total", "skipped_triples",
      "conservation_ok", "cauchy_schwarz_ok", "within_target_ratios")),
    (popdiff.QuadrupleBound,
     ("energy", "floor", "holds", "y_size", "r_size", "solutions_floor",
      "distinct_quadruples", "expected_quadruples", "precondition_errors")),
    (popdiff.RatioSets,
     ("x_set", "y_set", "skipped_x", "skipped_y", "total_x", "total_y",
      "collisions_x", "collisions_y")),
    (popdiff.SumsetEnergyBound,
     ("a_size", "x_size", "y_size", "energy", "floor_x", "floor_y", "holds_x", "holds_y",
      "x_solutions_min", "y_solutions_min")),
    (solvers.BasisSearchResult,
     ("basis", "size", "counting_bound", "nodes", "universe", "prunes")),
    (solvers.Decomposition, ("reducible", "left", "right", "nodes")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    assert cls._fields == fields
    values = {name: i for i, name in enumerate(fields)}
    record = cls(**values)
    assert tuple(record) == tuple(range(len(fields)))
    inner = ", ".join(f"{name}={i}" for name, i in values.items())
    assert repr(record) == f"{cls.__name__}({inner})"
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    assert getattr(record, fields[0]) == 0


@pytest.mark.parametrize(
    "cls, name", [(verify.CheckRecord, "details"), (families.FamilySpec, "params")]
)
def test_dict_fields_have_no_shared_default(cls, name):
    assert name not in cls._field_defaults
    with pytest.raises(TypeError):
        cls(**{f: None for f in cls._fields if f != name})


def test_import_loads_no_dataclass_machinery():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(sumprodlab.__file__).parent.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import sumprodlab\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    )
    added = set(proc.stdout.split())
    assert "sumprodlab.verify" in added
    assert not added & {"dataclasses", "inspect", "statistics"}


def records_in(value, path="value"):
    """Paths of every record (a value with ``_fields``) inside ``value``."""
    if hasattr(value, "_fields"):
        return [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in records_in(v, f"{path}[{k!r}]")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in records_in(v, f"{path}[{i}]")]
    return []


CLAIMS = (
    "stats,ratio_energy,mult_energy_plus,mult_energy_minus,doubling_energy,"
    "basis_chain,popular_ratios,sextuple_count,grid_triples,shift_bound,"
    "difference_count,ratio_set_bounds,exponent_chain"
).split(",")


@pytest.mark.parametrize(
    "family, claims, options",
    [
        ("sumset_of_random:n=4,lo=1,hi=40,seed=5", CLAIMS + ["identities", "decomposition"],
         {"seed": 3}),
        ("subgroup:p=29,d=14", CLAIMS, {}),
    ],
)
def test_no_record_in_report_rows(family, claims, options):
    rows, summary = run_suite([parse_family(family)], claims, options)
    assert len(rows) == len(claims)
    assert records_in(rows) == []
    assert records_in(summary) == []


def test_no_record_in_cli_payloads(tmp_path, monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, out=None: payloads.append(payload))
    a_file, b_file = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_set_file(ArithSet([1, 2, 3]), a_file)
    write_set_file(ArithSet([0, 1, 2]), b_file)
    commands = [
        ["stats", a_file],
        ["basis", "profile", a_file, "--basis", b_file],
        ["basis", "min", a_file],
        ["decompose", a_file],
        ["popdiff", a_file, "--basis", b_file, "--tau", "2"],
        ["triples", a_file, a_file, b_file, "--brute"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert len(payloads) == len(commands)
    assert records_in(payloads) == []
