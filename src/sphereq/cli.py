"""Command-line interface tying the modules into reproducible runs.

Subcommands: eigen, bifurcate, solve, branch, audit, arc-sweep, gen.
Angles are always radians.  A line-oriented ``key = value`` file given with
--config supplies defaults; explicit flags override it.  Exit codes: 0
success, 1 audit verdict failure under --strict, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import fieldio
from .errors import ParameterError, SphereqError
from .grid import eval_on_grid, make_grid
from .harmonics import harmonic_mode, make_operator, trivial_branch_eigenvalues
from .problems import (PROBLEM_REGISTRY, TRIVIAL_AMPLITUDE, ellipticity_audit,
                       problem_from_name)
from .solver import (
    branch_switch,
    continue_branch,
    detect_bifurcations,
    newton_solve,
)
from .symmetry import (
    AuditThresholds,
    biradial_field,
    detect_axial_extrema,
    moving_arc_sweep,
    theorem_audit,
    VERDICT_PASS,
)


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SphereqError(
                    "%s:%d: expected 'key = value'" % (path, lineno)
                )
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


#: Times `branch` doubles its bifurcation search window about l(l+1), from
#: a half-width of max(1, 4 dlam), before it gives up: up to 1024 times it.
_WINDOW_DOUBLINGS = 10


#: The words a config file may give a boolean flag, case-insensitive; any
#: other word is an invalid value, so a typo cannot turn a flag off.
_CONFIG_BOOLEANS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _apply_config(parsers, values):
    """Make the config values the subcommand defaults.  A key is a flag's
    long name, with '-' or '_'; a key that no subcommand accepts, or a
    value its flag rejects, is an error."""
    unknown = set(values)
    for parser in parsers:
        converted = {}
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            key = action.option_strings[-1].lstrip("-").replace("-", "_")
            if key not in values:
                continue
            unknown.discard(key)
            raw = values[key]
            try:
                if action.type is not None:
                    value = action.type(raw)
                elif isinstance(action.const, bool) or isinstance(action.default, bool):
                    value = _CONFIG_BOOLEANS[raw.lower()]
                else:
                    value = raw
                if action.choices is not None and value not in action.choices:
                    raise ValueError
            except (KeyError, ValueError):
                raise SphereqError(
                    "config key '%s': invalid value '%s'" % (key, raw)
                ) from None
            converted[action.dest] = value
        parser.set_defaults(**converted)
    if unknown:
        raise SphereqError(
            "unknown config key%s: %s"
            % ("s" if len(unknown) > 1 else "", ", ".join(sorted(unknown)))
        )


def _audit_thresholds(args):
    """One AuditThresholds from the threshold flags the subcommand has,
    each stored under its field's name.  The flags default to None, which
    keeps the dataclass default; the dataclass alone validates what is
    given."""
    given = {}
    for field in dataclasses.fields(AuditThresholds):
        value = getattr(args, field.name, None)
        if value is not None:
            given[field.name] = value
    return AuditThresholds(**given)


def _require_finite(args, *names):
    """A non-finite value of a float flag is a usage error naming the flag,
    not a field value that fails later at some grid node."""
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ParameterError("--%s must be finite, got %r" % (name, value))


class _StoreGiven(argparse.Action):
    """Store the flag's value and record the flag in ``args.given``, so a
    subcommand can tell a flag given on the command line from a default,
    whether argparse's or a --config file's."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.option_strings[0],)


#: The variant flags (those stored by _StoreGiven) that each variant of a
#: subcommand reads, with the argument that picks the variant and the name
#: a refusal gives it; a variant refuses the others.
_VARIANT_FLAGS = {
    "gen": ("kind", "gen %s", {
        "harmonic": ("--l", "--m", "--amplitude"),
        "figure1": (),
        "perturbed": ("--l", "--m", "--amplitude", "--pl", "--pm", "--eps"),
    }),
    "solve": ("seed", "solve --seed %s", {
        "zero": (),
        "constant": ("--value",),
        "harmonic": ("--l", "--m", "--amplitude"),
    }),
}


def _refuse_unread_flags(args):
    """A variant flag given on the command line that the chosen variant
    does not read is a usage error; one from --config is not, since other
    subcommands read it."""
    if args.command not in _VARIANT_FLAGS:
        return
    dest, name, reads = _VARIANT_FLAGS[args.command]
    variant = getattr(args, dest)
    ignored = sorted(set(getattr(args, "given", ())) - set(reads[variant]))
    if ignored:
        raise ParameterError(
            "%s does not use %s" % (name % variant, ", ".join(ignored))
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphereq",
        description="Equilibria of elliptic equations on the sphere and "
        "reflectional-symmetry audits of their extrema.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="key = value file of defaults (flags override)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parsers = {}

    sp = sub.add_parser("eigen", help="print the trivial-branch eigen table")
    sp.add_argument("--lmax", type=int, default=8)
    parsers["eigen"] = sp

    sp = sub.add_parser("bifurcate", help="detect trivial-branch bifurcation points")
    sp.add_argument("--lambda-min", type=float, required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--lmax", type=int, default=3, help="largest harmonic degree")
    sp.add_argument("--csv", default=None,
                    help="optional CSV output path ('-' = stdout)")
    parsers["bifurcate"] = sp

    sp = sub.add_parser("solve", help="single Newton solve from a named seed")
    sp.add_argument(
        "--seed",
        choices=("zero", "constant", "harmonic"),
        default="harmonic",
        help="initial guess family",
    )
    # a seed that does not read one of these refuses it (_VARIANT_FLAGS)
    sp.add_argument("--value", type=float, default=0.9, action=_StoreGiven,
                    help="constant-seed value")
    sp.add_argument("--l", type=int, default=2, action=_StoreGiven)
    sp.add_argument("--m", type=int, default=2, action=_StoreGiven)
    sp.add_argument("--amplitude", type=float, default=0.3, action=_StoreGiven)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-iter", type=int, default=30)
    sp.add_argument("--out", default=None,
                    help="SPHF output path ('-' = stdout, the summary then to stderr)")
    parsers["solve"] = sp

    sp = sub.add_parser("branch", help="switch onto a bifurcating branch and continue")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument(
        "--lambda-star",
        type=float,
        default=None,
        help="bifurcation point (auto-detected when omitted)",
    )
    sp.add_argument("--side", type=int, choices=(1, -1), default=1)
    sp.add_argument("--dlam", type=float, default=0.25, help="lambda step (> 0)")
    sp.add_argument("--steps", type=int, default=6)
    sp.add_argument("--amplitude", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--outdir", default=".")
    parsers["branch"] = sp

    sp = sub.add_parser("audit", help="run the symmetry audit on an SPHF field")
    # audit thresholds: None keeps the AuditThresholds default
    sp.add_argument("--tol-lvl", type=float, default=None)
    sp.add_argument("--midpoint-tol", type=float, default=None)
    sp.add_argument("--json", dest="json_out", default="-",
                    help="JSON report path ('-' = stdout)")
    sp.add_argument("--extrema-csv", default=None,
                    help="extremum table CSV path ('-' = stdout)")
    sp.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the verdict is anything but 'pass'",
    )
    parsers["audit"] = sp

    sp = sub.add_parser("arc-sweep", help="single moving-arc sweep, CSV of eps vs w_max")
    sp.add_argument("--min-index", type=int, default=0, help="index among detected minima")
    sp.add_argument("--direction", type=int, choices=(1, -1), default=1)
    sp.add_argument("--out", default=None, help="CSV output path ('-' = stdout)")
    parsers["arc-sweep"] = sp

    sp = sub.add_parser("gen", help="emit synthetic SPHF fields")
    sp.add_argument(
        "kind",
        choices=("harmonic", "figure1", "perturbed"),
        help="harmonic Y_l^m, the biradial demo field, or a symmetry-broken mix",
    )
    # a kind that does not read one of these refuses it (_VARIANT_FLAGS)
    sp.add_argument("--l", type=int, default=2, action=_StoreGiven)
    sp.add_argument("--m", type=int, default=2, action=_StoreGiven)
    sp.add_argument("--amplitude", type=float, default=1.0, action=_StoreGiven)
    sp.add_argument("--pl", type=int, default=1, action=_StoreGiven,
                    help="perturbing degree")
    sp.add_argument("--pm", type=int, default=1, action=_StoreGiven,
                    help="perturbing order")
    sp.add_argument("--eps", type=float, default=0.1, action=_StoreGiven,
                    help="perturbation amplitude")
    sp.add_argument("--out", default="-", help="SPHF output path ('-' = stdout)")
    parsers["gen"] = sp

    # flags that several subcommands take, each stated once
    for sp in [parsers[n] for n in ("solve", "branch", "gen")]:
        sp.add_argument("--ntheta", type=int, default=48, help="colatitude rings")
        sp.add_argument("--nphi", type=int, default=96, help="longitudes (even)")
    for sp in [parsers[n] for n in ("solve", "branch", "audit")]:
        sp.add_argument(
            "--realization",
            choices=("spectral", "finite-difference"),
            default="spectral",
            help="Laplace-Beltrami realization",
        )
    for sp in [parsers[n] for n in ("bifurcate", "solve", "branch", "audit")]:
        sp.add_argument(
            "--problem",
            default="chafee-infante",
            choices=sorted(PROBLEM_REGISTRY),
            help="built-in problem name",
        )
    for sp in [parsers[n] for n in ("solve", "audit")]:
        sp.add_argument("--lam", type=float, default=6.5, help="parameter lambda")
    for sp in [parsers[n] for n in ("audit", "arc-sweep")]:
        sp.add_argument("input", nargs="?", default="-", help="SPHF path or '-' (stdin)")
        # audit thresholds: None keeps the AuditThresholds default
        sp.add_argument("--tol-ax", type=float, default=None)
        sp.add_argument("--tol-w", type=float, default=None)
        sp.add_argument("--neps", dest="n_eps", metavar="NEPS", type=int,
                        default=None,
                        help="minimum arc count of each moving-arc sweep "
                        "(arc-sweep prints the count it took as 'arcs N')")
    return parser, parsers


def _cmd_eigen(args):
    table = trivial_branch_eigenvalues(args.lmax)
    print("l eigenvalue multiplicity")
    for l, eig, mult in table:
        print("%d %d %d" % (l, eig, mult))
    return 0


def _cmd_bifurcate(args):
    family = lambda lam: problem_from_name(args.problem, lam)
    points = detect_bifurcations(
        family, (args.lambda_min, args.lambda_max), args.lmax
    )
    print("lambda_star l")
    for lam, l in points:
        print("%.12g %d" % (lam, l))
    if args.csv:
        fieldio.write_bifurcation_csv(args.csv, points)
    return 0


def _cmd_solve(args):
    _require_finite(args, "amplitude", "value")
    grid = make_grid(args.ntheta, args.nphi)
    op = make_operator(grid, args.realization)
    problem = problem_from_name(args.problem, args.lam)
    if args.seed == "zero":
        guess = eval_on_grid(grid, lambda t, p: np.zeros_like(t))
    elif args.seed == "constant":
        guess = eval_on_grid(grid, lambda t, p: np.full_like(t, args.value))
    else:
        mode = harmonic_mode(grid, args.l, args.m)
        guess = mode * (args.amplitude / mode.sup_norm)
    eq = newton_solve(problem, op, guess, tol=args.tol, max_iter=args.max_iter)
    audit = ellipticity_audit(problem, op, eq.u)
    summary = sys.stderr if args.out == "-" else sys.stdout  # stdout holds the field
    print("lambda %.12g" % eq.lam, file=summary)
    print("residual_norm %.6g" % eq.residual_norm, file=summary)
    print("newton_iters %d" % eq.newton_iters, file=summary)
    print("amplitude %.12g" % eq.amplitude, file=summary)
    print("min_Fq %.6g (%s)" % (audit.min_fq, "ok" if audit.passed else "VIOLATED"),
          file=summary)
    if eq.amplitude < TRIVIAL_AMPLITUDE:
        print(
            "sphereq: warning: amplitude %.3g (sup over grid nodes) is below the "
            "trivial-state floor %g; the solve fell to u = 0"
            % (eq.amplitude, TRIVIAL_AMPLITUDE),
            file=sys.stderr,
        )
    if args.out is not None:
        fieldio.write_field(args.out, eq.u)
    return 0


def _cmd_branch(args):
    if not 0.0 < args.dlam < np.inf:  # refuses NaN as well
        raise SphereqError("--dlam must be finite and > 0; --side sets the direction")
    grid = make_grid(args.ntheta, args.nphi)
    op = make_operator(grid, args.realization)
    family = lambda lam: problem_from_name(args.problem, lam)
    lam_star = args.lambda_star
    if lam_star is None:
        # the window about l(l+1) doubles until it holds a degree-l crossing:
        # a problem whose F_q(0, 0) is not 1 has its crossings elsewhere
        # (atan-elliptic's at 2 l(l+1))
        ll1 = args.l * (args.l + 1)
        window = max(1.0, args.dlam * 4)
        for _ in range(_WINDOW_DOUBLINGS + 1):
            points = detect_bifurcations(
                family, (ll1 - window, ll1 + window), args.l
            )
            points = [lam for lam, l in points if l == args.l]
            if points:
                break
            window *= 2.0
        else:
            raise SphereqError(
                "no degree-%d bifurcation found within %g of lambda=%g"
                % (args.l, window / 2.0, ll1)
            )
        lam_star = min(points, key=lambda lam: abs(lam - ll1))
    lam_start, guess = branch_switch(
        grid, lam_star, args.l, args.m, amplitude=args.amplitude, side=args.side,
        dlam0=args.dlam, family=family,
    )
    start = newton_solve(family(lam_start), op, guess, tol=args.tol)
    if start.amplitude < (args.amplitude or guess.sup_norm) / 2.0:
        raise SphereqError(
            "Newton fell back to the trivial branch (amplitude %g)" % start.amplitude
        )
    branch = continue_branch(
        family, op, start, args.side * args.dlam, args.steps, tol=args.tol
    )
    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "branch_%d_%d.csv" % (args.l, args.m))
    fieldio.write_branch_csv(csv_path, branch)
    for k, point in enumerate(branch):
        sphf = os.path.join(
            args.outdir, "branch_%d_%d_step%d.sphf" % (args.l, args.m, k)
        )
        fieldio.write_field(sphf, point.u)
    print("lambda_star %.12g" % lam_star)
    print("points %d" % len(branch))
    print("csv %s" % csv_path)
    return 0


def _cmd_audit(args):
    thresholds = _audit_thresholds(args)
    u = fieldio.read_field(args.input)
    op = make_operator(u.grid, args.realization)
    problem = problem_from_name(args.problem, args.lam)
    report = theorem_audit(problem, op, u, thresholds)
    fieldio.write_report_json(args.json_out, report)
    if args.extrema_csv:
        fieldio.write_extrema_csv(args.extrema_csv, report)
    print("verdict %s" % report.verdict, file=sys.stderr)
    if args.strict and report.verdict != VERDICT_PASS:
        return 1
    return 0


def _cmd_arc_sweep(args):
    thresholds = _audit_thresholds(args)
    u = fieldio.read_field(args.input)
    ext = detect_axial_extrema(u, thresholds)
    minima = ext.minima_indices
    if not minima:
        raise SphereqError("no axial minima detected; nothing to sweep from")
    if not 0 <= args.min_index < len(minima):
        raise SphereqError(
            "--min-index %d out of range (%d minima)" % (args.min_index, len(minima))
        )
    report = moving_arc_sweep(
        u, ext, minima[args.min_index], args.direction, thresholds
    )
    if args.out is not None:
        fieldio.write_arc_csv(args.out, report)
    print("arcs %d" % report.epsilons.size, file=sys.stderr)
    print("start_angle %.12g" % report.start_angle, file=sys.stderr)
    print("eps_star %.12g" % report.eps_star, file=sys.stderr)
    print("reaches_target %s" % report.reaches_target, file=sys.stderr)
    return 0


def _cmd_gen(args):
    _require_finite(args, "amplitude", "eps")
    grid = make_grid(args.ntheta, args.nphi)
    if args.kind == "harmonic":
        field = harmonic_mode(grid, args.l, args.m) * args.amplitude
    elif args.kind == "figure1":
        field = biradial_field(grid)
    else:
        base = harmonic_mode(grid, args.l, args.m)
        pert = harmonic_mode(grid, args.pl, args.pm)
        field = base * args.amplitude + pert * args.eps
    fieldio.write_field(args.out, field)
    return 0


_HANDLERS = {
    "eigen": _cmd_eigen,
    "bifurcate": _cmd_bifurcate,
    "solve": _cmd_solve,
    "branch": _cmd_branch,
    "audit": _cmd_audit,
    "arc-sweep": _cmd_arc_sweep,
    "gen": _cmd_gen,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            _apply_config(parsers.values(), _read_config_file(known.config))
        except (OSError, SphereqError) as exc:
            print("sphereq: %s" % exc, file=sys.stderr)
            return 2

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        _refuse_unread_flags(args)
        return _HANDLERS[args.command](args)
    except (OSError, SphereqError) as exc:
        print("sphereq: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
