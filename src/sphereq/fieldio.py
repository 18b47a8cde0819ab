"""File formats: SPHF v1 text fields, JSON symmetry reports, and the CSV
tables used for plotting (branch diagrams, arc sweeps, extremum tables).

SPHF v1 is deliberately plain text so fields stay inspectable at desk
scale: a two-line header, one line of colatitudes, then one line per
colatitude ring, all floats at 17 significant digits so round trips are
bitwise exact.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .errors import FieldFormatError, ParameterError
from .grid import ScalarField, check_grid_shape, make_grid

SPHF_MAGIC = "sphf"
SPHF_VERSION = 1

_FMT = "%.17g"


@contextmanager
def _opened(path_or_file, mode):
    """The file every reader and writer here uses: an open file as it is,
    '-' as stdin (mode 'r') or stdout (mode 'w'), both left open, and any
    other path opened in ``mode`` and closed after use."""
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        yield path_or_file
    elif path_or_file == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path_or_file, mode) as handle:
            yield handle


def write_field(path_or_file, field):
    """Write a field in SPHF v1 format (text, lossless at 17 digits)."""
    grid = field.grid
    with _opened(path_or_file, "w") as fh:
        fh.write("%s %d\n" % (SPHF_MAGIC, SPHF_VERSION))
        fh.write("%d %d\n" % (grid.n_theta, grid.n_phi))
        fh.write(" ".join(_FMT % t for t in grid.theta_nodes) + "\n")
        for row in field.values:
            fh.write(" ".join(_FMT % v for v in row) + "\n")


def read_field(path_or_file):
    """Read an SPHF v1 field from a path, an open file or '-' (stdin),
    validating header, counts, finiteness, and that the stored colatitudes
    match the canonical grid family.  Every colatitude and value row passes
    one row rule: the expected number of tokens, each a number, each
    finite."""
    with _opened(path_or_file, "r") as fh:
        lines = fh.read().splitlines()

    def tokens(idx, what):
        if idx >= len(lines):
            raise FieldFormatError("missing %s" % what, line=idx + 1)
        return lines[idx].split()

    head = tokens(0, "header")
    if len(head) != 2 or head[0] != SPHF_MAGIC:
        raise FieldFormatError("not an SPHF file (expected 'sphf <version>')", line=1)
    if head[1] != str(SPHF_VERSION):
        raise FieldFormatError("unsupported SPHF version %s" % head[1], line=1)

    dims = tokens(1, "dimensions")
    if len(dims) != 2:
        raise FieldFormatError("expected 'n_theta n_phi'", line=2)
    try:
        n_theta, n_phi = int(dims[0]), int(dims[1])
    except ValueError:
        raise FieldFormatError("dimensions must be integers", line=2) from None
    try:
        check_grid_shape(n_theta, n_phi)
    except ParameterError as exc:
        raise FieldFormatError(str(exc), line=2) from None

    def row(idx, count, what):
        """Line idx + 1 as ``count`` finite floats."""
        toks = tokens(idx, what)
        if len(toks) != count:
            raise FieldFormatError(
                "%s has %d entries, expected %d" % (what, len(toks), count),
                line=idx + 1,
            )
        try:
            vals = np.array(toks, dtype=float)
        except ValueError:
            raise FieldFormatError(
                "%s contains a non-numeric token" % what, line=idx + 1
            ) from None
        if not np.all(np.isfinite(vals)):
            raise FieldFormatError(
                "%s contains a non-finite entry" % what, line=idx + 1
            )
        return vals

    # the counts the header claims are checked against the file before the
    # grid's O(n_theta^2) colatitude rule is built
    theta = row(2, n_theta, "colatitude row")
    present = len(lines) - 3
    if present < n_theta:
        raise FieldFormatError(
            "missing value row %d of %d" % (present + 1, n_theta), line=present + 4
        )
    grid = make_grid(n_theta, n_phi)
    if np.max(np.abs(theta - grid.theta_nodes)) > 1e-12:
        raise FieldFormatError(
            "colatitudes do not match the Gauss-Legendre grid family", line=3
        )
    # all value rows in one call of numpy's text parser, about a quarter
    # faster than row by row at 128x256.  Any fault, and any blank line
    # (which loadtxt would skip), sends the rows through the row rule one
    # by one, whose error names the first bad row.
    body = lines[3:3 + n_theta]
    values = None
    if len(body) == n_theta and all(line.strip() for line in body):
        try:
            values = np.loadtxt(body, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
    if (values is None or values.shape != (n_theta, n_phi)
            or not np.all(np.isfinite(values))):
        values = np.array([
            row(3 + j, n_phi, "value row %d of %d" % (j + 1, n_theta))
            for j in range(n_theta)
        ])
    for idx in range(3 + n_theta, len(lines)):
        if lines[idx].strip():
            raise FieldFormatError("unexpected trailing data", line=idx + 1)
    return ScalarField(grid, values)


def _num(x):
    """Round to 12 significant figures; map non-finite to None so reports
    stay strict JSON."""
    x = float(x)
    if not math.isfinite(x):
        return None
    return float("%.12g" % x)


def report_to_dict(report):
    """JSON-ready dictionary for a SymmetryReport (angles at 12 significant
    digits, deterministic layout).  Formats only: every pass flag and the
    verdict come from the report.  Each ``moving_arc`` entry's ``n_eps``
    is the count of arcs the sweep took, at least the minimum arc count
    ``AuditThresholds.n_eps``."""
    ext = report.extrema
    return {
        "extrema": {
            "count": ext.n,
            "angles": [_num(a) for a in ext.angles],
            "kinds": list(ext.kinds),
            "axiality_defects": [_num(d) for d in ext.axiality_defects],
            "merged": [bool(m) for m in ext.merged],
            "non_axial_critical": [_num(a) for a in ext.non_axial_critical],
            "all_longitudes_critical": bool(ext.all_longitudes_critical),
            "tol_ax": _num(report.thresholds.tol_ax),
        },
        "leveled": {
            "defect": _num(ext.level_defect),
            "passed": report.leveled_passed,
            "applicable": report.leveled_applicable,
            "tol_lvl": _num(report.thresholds.tol_lvl),
        },
        "reflection": {
            "defects": [_num(d) for d in report.reflection_defects],
            "tol": _num(report.thresholds.tol_w),
            "passed": report.reflection_passed,
        },
        "midpoint": {
            "defects": [_num(d) for d in ext.midpoint_defects],
            "max_defect": _num(max(ext.midpoint_defects, default=math.nan)),
            "tol": _num(report.thresholds.midpoint_tol),
            "applicable": report.midpoint_applicable,
            "passed": report.midpoint_passed,
        },
        "moving_arc": [
            {
                "start_angle": _num(r.start_angle),
                "direction": int(r.direction),
                "target_angle": _num(r.target_angle),
                "eps_star": _num(r.eps_star),
                "phi_star": _num(r.phi_star),
                "w_max_peak": _num(float(np.max(r.w_max)) if r.w_max.size else 0.0),
                "tol_w": _num(r.tol_w),
                "reaches_target": bool(r.reaches_target),
                "target_reflection_sup": _num(r.target_reflection_sup),
                "equality_ok": bool(r.equality_ok),
                "n_eps": int(r.epsilons.size),
            }
            for r in report.arc_reports
        ],
        "equation": {
            "residual_sup": _num(report.equilibrium_residual),
        },
        "verdict": report.verdict,
    }


def write_report_json(path_or_file, report):
    payload = report_to_dict(report)
    with _opened(path_or_file, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path_or_file, header, row_format, rows):
    """One CSV table: the ``header`` line, then ``row_format % row`` for
    each row; the writers format floats as %.17g, which reads back exactly."""
    with _opened(path_or_file, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_format % tuple(row) + "\n")


def write_bifurcation_csv(path_or_file, points):
    """One row per trivial-branch bifurcation point ``(lambda_star, l)``."""
    _write_table(path_or_file, "lambda_star,l", "%.17g,%d", points)


def write_arc_csv(path_or_file, arc_report):
    """eps versus signed sector maximum of the reflection difference."""
    _write_table(path_or_file, "eps,w_max", "%.17g,%.17g",
                 zip(arc_report.epsilons, arc_report.w_max))


def write_branch_csv(path_or_file, branch):
    """One row per branch point; ``amplitude`` is sup|u| over the grid
    nodes, so it depends on the grid."""
    _write_table(path_or_file, "lambda,amplitude,residual_norm,newton_iters",
                 "%.17g,%.17g,%.17g,%d",
                 ((p.lam, p.amplitude, p.residual_norm, p.newton_iters)
                  for p in branch))


def write_extrema_csv(path_or_file, report):
    """Angles, kinds and peak levels of the extremal meridians of a
    SymmetryReport."""
    ext = report.extrema
    peaks = np.max(np.abs(ext.axis_profiles), axis=1)
    _write_table(path_or_file, "index,angle,kind,axiality_defect,peak_level",
                 "%d,%.17g,%s,%.17g,%.17g",
                 zip(range(ext.n), ext.angles, ext.kinds, ext.axiality_defects,
                     peaks))
