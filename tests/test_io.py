"""SPHF round trips, malformed-file handling, JSON reports, CSV emitters."""

import io
import json

import numpy as np
import pytest

from sphereq import (
    FieldFormatError,
    biradial_field,
    branch_switch,
    chafee_infante,
    eval_on_grid,
    harmonic_mode,
    make_grid,
    make_operator,
    newton_solve,
    read_field,
    report_to_dict,
    theorem_audit,
    write_field,
    write_report_json,
)
from sphereq.fieldio import (
    write_arc_csv,
    write_bifurcation_csv,
    write_branch_csv,
    write_extrema_csv,
)
from sphereq.solver import Branch, Equilibrium
from sphereq.symmetry import AuditThresholds, detect_axial_extrema, moving_arc_sweep
from conftest import random_band_limited


def _sphf_text(field):
    buf = io.StringIO()
    write_field(buf, field)
    return buf.getvalue()


def test_round_trip_bitwise(grid32, tmp_path):
    u = random_band_limited(grid32, 9, np.random.default_rng(0))
    path = tmp_path / "field.sphf"
    write_field(path, u)
    back = read_field(path)
    assert np.array_equal(back.values, u.values)
    assert back.grid == u.grid


def test_round_trip_via_stream(grid32):
    u = random_band_limited(grid32, 5, np.random.default_rng(1))
    back = read_field(io.StringIO(_sphf_text(u)))
    assert np.array_equal(back.values, u.values)


def test_dash_is_stdin_and_stdout(grid32, tmp_path, monkeypatch, capsys):
    """'-' reads stdin and writes stdout, for every reader and writer; no
    file named '-' is made."""
    monkeypatch.chdir(tmp_path)
    u = random_band_limited(grid32, 5, np.random.default_rng(2))
    write_field("-", u)
    text = capsys.readouterr().out
    assert text == _sphf_text(u)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert np.array_equal(read_field("-").values, u.values)
    y22 = harmonic_mode(grid32, 2, 2)
    report = theorem_audit(chafee_infante(6.5), make_operator(grid32), y22)
    for write, table in ((write_report_json, report), (write_extrema_csv, report),
                         (write_arc_csv, report.arc_reports[0]),
                         (write_bifurcation_csv, [(2.0, 1)])):
        buf = io.StringIO()
        write(buf, table)
        write("-", table)
        assert capsys.readouterr().out == buf.getvalue()
    assert not (tmp_path / "-").exists()


def test_truncated_file_names_missing_row(grid32):
    u = random_band_limited(grid32, 5, np.random.default_rng(2))
    lines = _sphf_text(u).splitlines()
    clipped = "\n".join(lines[:10])
    with pytest.raises(FieldFormatError, match="value row 8"):
        read_field(io.StringIO(clipped))


def test_unsupported_version():
    with pytest.raises(FieldFormatError, match="version"):
        read_field(io.StringIO("sphf 2\n4 8\n"))


def test_bad_magic():
    with pytest.raises(FieldFormatError, match="SPHF"):
        read_field(io.StringIO("sphg 1\n4 8\n"))


def test_short_row_reports_line_number(grid32):
    u = random_band_limited(grid32, 5, np.random.default_rng(3))
    lines = _sphf_text(u).splitlines()
    lines[4] = " ".join(lines[4].split()[:-1])  # drop one value in row 2
    with pytest.raises(FieldFormatError) as info:
        read_field(io.StringIO("\n".join(lines)))
    assert info.value.line == 5


def test_nonfinite_entry_rejected(grid32):
    u = random_band_limited(grid32, 5, np.random.default_rng(4))
    lines = _sphf_text(u).splitlines()
    row = lines[3].split()
    row[0] = "nan"
    lines[3] = " ".join(row)
    with pytest.raises(FieldFormatError, match="non-finite"):
        read_field(io.StringIO("\n".join(lines)))


def test_wrong_colatitudes_rejected(grid32):
    u = random_band_limited(grid32, 5, np.random.default_rng(5))
    lines = _sphf_text(u).splitlines()
    theta = [float(t) + 1e-6 for t in lines[2].split()]
    lines[2] = " ".join("%.17g" % t for t in theta)
    with pytest.raises(FieldFormatError, match="Gauss-Legendre"):
        read_field(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize("token", ["nan", "abc"])
def test_bad_colatitude_rejected_at_line_3(grid32, token):
    """The colatitude row passes the same row rule as the value rows.  A
    NaN would slip through the grid-family check (a NaN difference is never
    above its bound), and a non-numeric token would escape as a bare
    ValueError."""
    u = random_band_limited(grid32, 5, np.random.default_rng(9))
    lines = _sphf_text(u).splitlines()
    theta = lines[2].split()
    theta[0] = token
    lines[2] = " ".join(theta)
    with pytest.raises(FieldFormatError, match="colatitude row") as info:
        read_field(io.StringIO("\n".join(lines)))
    assert info.value.line == 3


def test_trailing_garbage_rejected(grid32):
    u = random_band_limited(grid32, 5, np.random.default_rng(6))
    with pytest.raises(FieldFormatError, match="trailing"):
        read_field(io.StringIO(_sphf_text(u) + "0 1 2\n"))


@pytest.mark.parametrize("text, message, line", [
    ("sphf 1\n1000000 96\n1 2 3\n", "colatitude row has 3 entries, expected 1000000", 3),
    ("sphf 1\n8 16\n" + " ".join(["1"] * 8) + "\n", "missing value row 1 of 8", 4),
    ("sphf 1\n-5 16\n1 2 3\n", "n_theta must be", 2),
], ids=["colatitude-row-short", "value-rows-missing", "ring-count-invalid"])
def test_header_counts_checked_before_the_grid_is_built(monkeypatch, text, message, line):
    """A header that claims more rings than the file holds is refused
    before the grid's Gauss-Legendre rule is built: 64000 claimed rings
    took 75 s to refuse, and a million would effectively hang."""
    from sphereq import fieldio

    built = []

    def recorder(n_theta, n_phi):
        built.append((n_theta, n_phi))
        raise AssertionError("grid built")

    monkeypatch.setattr(fieldio, "make_grid", recorder)
    with pytest.raises(FieldFormatError, match=message) as info:
        read_field(io.StringIO(text))
    assert info.value.line == line
    assert built == []


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------


def _small_report():
    grid = make_grid(16, 32)
    op = make_operator(grid)
    u = harmonic_mode(grid, 2, 2)
    return theorem_audit(chafee_infante(6.0), op, u)


def test_report_json_keys_and_rounding():
    report = _small_report()
    payload = report_to_dict(report)
    assert set(payload) == {
        "extrema",
        "leveled",
        "reflection",
        "midpoint",
        "moving_arc",
        "equation",
        "verdict",
    }
    assert payload["verdict"] == "pass"
    # angles carry at most 12 significant digits
    for angle in payload["extrema"]["angles"]:
        assert angle == float("%.12g" % angle)
    buf = io.StringIO()
    write_report_json(buf, report)
    parsed = json.loads(buf.getvalue())  # strict JSON, no NaN tokens
    assert parsed["extrema"]["count"] == 4


def test_report_json_handles_non_applicable():
    grid = make_grid(16, 32)
    op = make_operator(grid)
    u = eval_on_grid(grid, lambda t, p: np.cos(t) + 0.0 * p)
    report = theorem_audit(chafee_infante(2.0), op, u)
    buf = io.StringIO()
    write_report_json(buf, report)
    parsed = json.loads(buf.getvalue())
    assert parsed["verdict"] == "hypotheses-not-met"
    assert parsed["leveled"]["defect"] is None


def test_report_json_flags_are_the_reports_own():
    """The JSON pass flags and verdict are the report's derived properties,
    each a Python bool, on the biradial field, a perturbed field and an
    equilibrium."""
    grid = make_grid(32, 64)
    op = make_operator(grid)
    lam, guess = branch_switch(grid, 6.0, 2, 2, dlam0=0.5)
    fields = {
        "figure1": (biradial_field(grid), "not-theorem-compatible"),
        "perturbed": (harmonic_mode(grid, 2, 2) + harmonic_mode(grid, 1, 1) * 0.1,
                      "hypotheses-not-met"),
        "equilibrium": (newton_solve(chafee_infante(lam), op, guess).u, "pass"),
    }
    for name, (u, verdict) in fields.items():
        report = theorem_audit(chafee_infante(lam), op, u)
        payload = report_to_dict(report)
        flags = (report.reflection_passed, report.midpoint_passed,
                 report.hypotheses_met, report.conclusions_ok)
        assert all(type(f) is bool for f in flags), name
        assert payload["reflection"]["passed"] is report.reflection_passed, name
        assert payload["midpoint"]["passed"] is report.midpoint_passed, name
        assert payload["verdict"] == report.verdict == verdict, name


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def test_arc_csv_row_count(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(2 * p))
    ext = detect_axial_extrema(u)
    report = moving_arc_sweep(u, ext, 1, 1, AuditThresholds(n_eps=50))
    buf = io.StringIO()
    write_arc_csv(buf, report)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "eps,w_max"
    assert report.epsilons.size >= 50
    assert len(lines) == 1 + report.epsilons.size
    # every value at 17 significant digits, so the table reads back exactly
    assert buf.getvalue() == "eps,w_max\n" + "".join(
        "%.17g,%.17g\n" % row for row in zip(report.epsilons, report.w_max))
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.array_equal(table, np.column_stack([report.epsilons, report.w_max]))


def test_branch_csv_row_count(grid32):
    points = tuple(
        Equilibrium(
            lam=6.0 + 0.25 * k,
            u=harmonic_mode(grid32, 2, 2),
            residual_norm=1e-10,
            newton_iters=3,
            amplitude=0.1 * (k + 1),
            tol=1e-9,
        )
        for k in range(7)
    )
    branch = Branch(points)
    buf = io.StringIO()
    write_branch_csv(buf, branch)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "lambda,amplitude,residual_norm,newton_iters"
    assert len(lines) == 8
    assert buf.getvalue() == (
        "lambda,amplitude,residual_norm,newton_iters\n"
        "6,0.10000000000000001,1e-10,3\n"
        "6.25,0.20000000000000001,1e-10,3\n"
        "6.5,0.30000000000000004,1e-10,3\n"
        "6.75,0.40000000000000002,1e-10,3\n"
        "7,0.5,1e-10,3\n"
        "7.25,0.60000000000000009,1e-10,3\n"
        "7.5,0.70000000000000007,1e-10,3\n"
    )


def test_bifurcation_csv_rows():
    buf = io.StringIO()
    write_bifurcation_csv(buf, [(2.0, 1), (6.000000000000001, 2)])
    assert buf.getvalue() == "lambda_star,l\n2,1\n6.0000000000000009,2\n"


def test_extrema_csv_header_only_when_empty(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    op = make_operator(grid32)
    report = theorem_audit(chafee_infante(2.0), op, u)
    buf = io.StringIO()
    write_extrema_csv(buf, report)
    assert buf.getvalue().strip() == "index,angle,kind,axiality_defect,peak_level"
