"""File formats: SPHF v1 text fields, JSON symmetry reports, and the CSV
tables used for plotting (branch diagrams, arc sweeps, extremum tables,
circle profiles).

SPHF v1 is deliberately plain text so fields stay inspectable at desk
scale: a two-line header, one line of colatitudes, then one line per
colatitude ring, all floats at 17 significant digits so round trips are
bitwise exact.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import FieldFormatError
from .grid import ScalarField, make_grid

SPHF_MAGIC = "sphf"
SPHF_VERSION = 1

_FMT = "%.17g"


@contextmanager
def _opened(path_or_file, mode):
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        yield path_or_file
    else:
        handle = open(path_or_file, mode)
        try:
            yield handle
        finally:
            handle.close()


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
    """Read an SPHF v1 field, validating header, counts, finiteness, and
    that the stored colatitudes match the canonical grid family.  Every
    colatitude and value row passes one row rule: the expected number of
    tokens, each a number, each finite."""
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
        grid = make_grid(n_theta, n_phi)
    except Exception as exc:
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

    theta = row(2, n_theta, "colatitude row")
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
    verdict come from the report."""
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
            "tol": _num(report.midpoint_tol),
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
            "annihilation_residuals": [
                _num(v) for v in report.annihilation_residuals
            ],
        },
        "verdict": report.verdict,
    }


def write_report_json(path_or_file, report):
    payload = report_to_dict(report)
    with _opened(path_or_file, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_arc_csv(path_or_file, arc_report):
    """eps versus signed sector maximum of the reflection difference."""
    with _opened(path_or_file, "w") as fh:
        fh.write("eps,w_max\n")
        for e, w in zip(arc_report.epsilons, arc_report.w_max):
            fh.write("%.17g,%.17g\n" % (e, w))


def write_branch_csv(path_or_file, branch):
    """One row per branch point; ``amplitude`` is sup|u| over the grid
    nodes, so it depends on the grid."""
    with _opened(path_or_file, "w") as fh:
        fh.write("lambda,amplitude,residual_norm,newton_iters\n")
        for p in branch:
            fh.write(
                "%.17g,%.17g,%.17g,%d\n"
                % (p.lam, p.amplitude, p.residual_norm, p.newton_iters)
            )


def write_extrema_csv(path_or_file, report):
    """Angles, kinds and peak levels of the extremal meridians of a
    SymmetryReport."""
    ext = report.extrema
    with _opened(path_or_file, "w") as fh:
        fh.write("index,angle,kind,axiality_defect,peak_level\n")
        for i in range(ext.n):
            peak = float(np.max(np.abs(ext.axis_profiles[i])))
            fh.write(
                "%d,%.17g,%s,%.17g,%.17g\n"
                % (i, ext.angles[i], ext.kinds[i], ext.axiality_defects[i], peak)
            )


def write_circle_csv(path_or_file, profile):
    with _opened(path_or_file, "w") as fh:
        fh.write("phi,u\n")
        phis = 2.0 * math.pi * np.arange(profile.n) / profile.n
        for p, v in zip(phis, profile.values):
            fh.write("%.17g,%.17g\n" % (p, v))
