"""End-to-end CLI flows: gen, stats, basis, decompose, popdiff, triples,
verify, report, and the exit-code contract."""

import json
from pathlib import Path

import pytest

from sumprodlab import cli, graph, verify
from sumprodlab.cli import main
from sumprodlab.incidence import IncidenceTable
from sumprodlab.sets import ArithSet, read_set_file, write_set_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_stats(tmp_path, capsys):
    a_file = str(tmp_path / "a.txt")
    code, _ = run(capsys, "gen", "gp:q=2,n=8", "--out", a_file)
    assert code == 0
    a = read_set_file(a_file)
    assert len(a) == 8
    code, out = run(capsys, "stats", a_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["product_set"] == 15
    assert payload["doubling"] == "15/8"


def test_gen_prime_field(tmp_path, capsys):
    out_file = str(tmp_path / "f.txt")
    code, _ = run(capsys, "gen", "subgroup:p=7,d=3", "--out", out_file)
    assert code == 0
    a = read_set_file(out_file)
    assert a.p == 7 and len(a) == 3
    code, _ = run(capsys, "gen", "gp:q=2,n=5", "--field", "fp:31", "--out", out_file)
    assert code == 0
    assert read_set_file(out_file).p == 31


def test_gen_refuses_a_field_the_family_does_not_lie_in(tmp_path, capsys):
    out_file = tmp_path / "f.txt"
    for field in ("fp:7", "rational"):
        code = main(["gen", "subgroup:p=31,d=5", "--field", field, "--out", str(out_file)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_file.exists()
    code, _ = run(capsys, "gen", "subgroup:p=31,d=5", "--field", "fp:31", "--out", str(out_file))
    assert code == 0
    a = read_set_file(str(out_file))
    assert a.p == 31 and len(a) == 5


def test_basis_profile_and_min(tmp_path, capsys):
    a_file = str(tmp_path / "a.txt")
    b_file = str(tmp_path / "b.txt")
    run(capsys, "gen", "ap:a=1,d=1,n=3", "--out", a_file)
    run(capsys, "gen", "ap:a=0,d=1,n=3", "--out", b_file)
    code, out = run(capsys, "basis", "profile", a_file, "--basis", b_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == 7
    assert payload["l_value"] == "3/7"
    code, out = run(capsys, "basis", "min", a_file)
    assert code == 0
    assert json.loads(out)["size"] == 2


def test_basis_min_reports_prunes(tmp_path, capsys):
    a_file = str(tmp_path / "a.txt")
    u_file = str(tmp_path / "u.txt")
    write_set_file(ArithSet([2, 3, 4, 11]), a_file)
    write_set_file(ArithSet(range(8)), u_file)
    code, out = run(capsys, "basis", "min", a_file, "--universe", u_file)
    assert code == 0
    payload = json.loads(out)
    # The search tree is walked by hand in tests/test_solvers.py.
    assert (payload["size"], payload["nodes"]) == (4, 6)
    assert payload["prunes"] == {
        "counting_floor": 0,
        "coverage": 1,
        "no_affordable_pair": 1,
        "size_cap": 1,
        "reach": 0,
    }


def test_decompose_cli(tmp_path, capsys):
    a_file = str(tmp_path / "a.txt")
    run(capsys, "gen", "ap:a=0,d=1,n=4", "--out", a_file)
    code, out = run(capsys, "decompose", a_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["reducible"]
    assert payload["witness_left"] == [0, 1]
    assert payload["witness_right"] == [0, 2]


def test_popdiff_cli(tmp_path, capsys):
    a_file = str(tmp_path / "a.txt")
    b_file = str(tmp_path / "b.txt")
    run(capsys, "gen", "ap:a=1,d=1,n=3", "--out", a_file)
    run(capsys, "gen", "ap:a=0,d=1,n=3", "--out", b_file)
    code, out = run(capsys, "popdiff", a_file, "--basis", b_file, "--tau", "2")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["multiplicity"]) == ["1/2", "2", "2/3", "3/2"]
    assert payload["cauchy_schwarz_ok"] and payload["conservation_ok"]


def test_popdiff_cli_refuses_before_the_extract(tmp_path, capsys, monkeypatch):
    # |B|^3 = 200^3 is over the collision-count ceiling, known before the
    # Gowers extract would run.
    def refuse(*args, **kwargs):
        raise AssertionError("ran the extract past the collision-count ceiling")

    for module in (cli, graph, verify):
        monkeypatch.setattr(module, "gowers_extract", refuse, raising=False)
    a_file = str(tmp_path / "a.txt")
    run(capsys, "gen", "ap:a=1,d=1,n=200", "--out", a_file)
    assert main(["popdiff", a_file, "--basis", a_file]) == 2
    err = capsys.readouterr().err
    assert "collision count over B^3 ratio values" in err
    assert "would need 8000000 items, ceiling is 2000000" in err


def test_popdiff_cli_outside_the_domain(tmp_path, capsys):
    a_file, b_file = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_set_file(ArithSet([0, 1, 2]), a_file)
    write_set_file(ArithSet([0, 1]), b_file)
    assert main(["popdiff", a_file, "--basis", b_file]) == 2
    assert "popular ratios need 0 not in the target set" in capsys.readouterr().err
    write_set_file(ArithSet([100, 200]), a_file)
    assert main(["popdiff", a_file, "--basis", b_file]) == 2
    assert "(L, K) profile is undefined" in capsys.readouterr().err


def test_triples_cli_with_brute(tmp_path, capsys):
    s_file = str(tmp_path / "s.txt")
    run(capsys, "gen", "ap:a=0,d=1,n=3", "--out", s_file)
    code, out = run(capsys, "triples", s_file, s_file, s_file, "--brute")
    assert code == 0
    payload = json.loads(out)
    assert payload["triples"] == 48
    assert payload["routes_agree"]
    assert payload["richness_census"] == {"2,2": 12, "3,3": 8}


def test_triples_cli_exits_1_when_the_line_table_disagrees(tmp_path, capsys, monkeypatch):
    s_file = str(tmp_path / "s.txt")
    run(capsys, "gen", "ap:a=0,d=1,n=3", "--out", s_file)
    monkeypatch.setattr(IncidenceTable, "triple_count", lambda self: 47)
    code, out = run(capsys, "triples", s_file, s_file, s_file)
    assert code == 1
    payload = json.loads(out)
    assert (payload["triples"], payload["table_triple_count"]) == (48, 47)


def test_triples_cli_on_singleton_grids(tmp_path, capsys):
    # One-point grids hold no triple and no line, so no table is built.
    x_file, z_file = str(tmp_path / "x.txt"), str(tmp_path / "z.txt")
    write_set_file(ArithSet([3]), x_file)
    write_set_file(ArithSet([5]), z_file)
    code, out = run(capsys, "triples", x_file, x_file, z_file)
    assert code == 0
    assert json.loads(out) == {"triples": 0}


def test_verify_cli_exit_codes(tmp_path, capsys):
    a_file = str(tmp_path / "a.txt")
    run(capsys, "gen", "gp:q=2,n=8", "--out", a_file)
    code, out = run(capsys, "verify", a_file, "--suite", "shift_bound,sextuple_count")
    assert code == 0
    records = json.loads(out)
    assert all(r["verdict"] == "pass" for r in records)
    code, _ = run(capsys, "verify", a_file, "--suite", "nonsense")
    assert code == 2


def test_shift_bound_is_undefined_over_a_prime_field(tmp_path, capsys):
    # The overlap 7 exceeds the real-number ceiling 6 here, but that bound
    # is a theorem over the reals, so the row is no exact failure.
    a_file = str(tmp_path / "a.txt")
    run(capsys, "gen", "subgroup:p=29,d=14", "--out", a_file)
    code, out = run(capsys, "verify", a_file, "--suite", "shift_bound")
    assert code == 0
    (record,) = json.loads(out)
    assert record["verdict"] == "undefined"
    assert "F_29" in record["details"]["error"]


def test_difference_count_refuses_a_basis_from_another_field(tmp_path, capsys):
    g_file, q_file = str(tmp_path / "g.txt"), str(tmp_path / "q.txt")
    run(capsys, "gen", "subgroup:p=31,d=5", "--out", g_file)
    run(capsys, "gen", "ap:a=1,d=1,n=6", "--out", q_file)
    assert main(["verify", g_file, "--suite", "difference_count", "--basis", q_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot combine sets in modes" in captured.err


def test_report_cli(tmp_path, capsys):
    out_dir = str(tmp_path / "rep")
    code, _ = run(
        capsys,
        "report",
        "--family", "gp:q=2,n=8",
        "--family", "gp:q=2,n=16",
        "--suite", "stats,exponent_chain",
        "--out", out_dir,
    )
    assert code == 0
    csv_text = (tmp_path / "rep" / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "claim_id,anchor,card_a,card_b,lhs,rhs,ratio,verdict,millis"
    assert len(csv_text.splitlines()) == 5  # header + 2 claims x 2 instances


def test_report_sextuple_ceiling_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    code, _ = run(
        capsys,
        "report",
        "--family", "gp:q=2,n=16",
        "--suite", "sextuple_count",
        "--out", str(out_dir),
    )
    assert code == 2
    row = (out_dir / "report.csv").read_text().splitlines()[1]
    assert row == "sextuple_count,ceiling,16,0,16777216,5000000,,ceiling,0"


def test_usage_errors(capsys):
    assert main(["stats", "/nonexistent/file.txt"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["basis"])  # missing required arguments
    assert err.value.code == 2


GOLDEN = Path(__file__).parent / "golden"
ALL_CLAIMS = (
    "stats,ratio_energy,mult_energy_plus,mult_energy_minus,doubling_energy,"
    "basis_chain,popular_ratios,sextuple_count,grid_triples,shift_bound,"
    "difference_count,ratio_set_bounds"
)


@pytest.mark.parametrize(
    "stem, family, suite, extra, want_code",
    [
        # A reducible rational sumset: every claim, the decomposition included.
        (
            "verify_q",
            "sumset_of_random:n=4,lo=1,hi=40,seed=5",
            ALL_CLAIMS + ",identities,decomposition,exponent_chain",
            ["--seed", "3"],
            0,
        ),
        # A subgroup of F_29* of order 14: |A|^6 puts sextuple_count at its ceiling.
        ("verify_fp", "subgroup:p=29,d=14", ALL_CLAIMS + ",exponent_chain", [], 2),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_output_matches_golden_bytes(
    tmp_path, capsys, stem, family, suite, extra, want_code, fmt
):
    a_file = str(tmp_path / "a.txt")
    out_file = tmp_path / f"out.{fmt}"
    run(capsys, "gen", family, "--out", a_file)
    code, _ = run(
        capsys, "verify", a_file, "--suite", suite, "--format", fmt,
        "--out", str(out_file), *extra,
    )
    assert code == want_code
    assert out_file.read_bytes() == (GOLDEN / f"{stem}.{fmt}").read_bytes()
