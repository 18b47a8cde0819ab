"""Command-line interface: subcommands, exit codes, piping, config files,
and report determinism."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from sphereq import AuditThresholds, detect_axial_extrema, moving_arc_sweep, read_field
from sphereq.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eigen_table(capsys):
    code, out, _ = run_cli(["eigen", "--lmax", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["l", "eigenvalue", "multiplicity"]
    assert lines[1:] == ["0 0 1", "1 -2 3", "2 -6 5", "3 -12 7"]


def test_bifurcate_integer_thresholds(capsys, tmp_path):
    csv = tmp_path / "bifs.csv"
    code, out, _ = run_cli(
        [
            "bifurcate",
            "--lambda-min", "0.5",
            "--lambda-max", "13",
            "--lmax", "3",
            "--csv", str(csv),
        ],
        capsys,
    )
    assert code == 0
    rows = [l.split() for l in out.strip().splitlines()[1:]]
    assert [(float(a), int(b)) for a, b in rows] == [(2.0, 1), (6.0, 2), (12.0, 3)]
    assert csv.read_text().startswith("lambda_star,l")


def test_gen_audit_harmonic_passes(capsys, tmp_path):
    field = tmp_path / "y22.sphf"
    code, _, _ = run_cli(
        ["gen", "harmonic", "--l", "2", "--m", "2", "--ntheta", "32",
         "--nphi", "64", "--out", str(field)],
        capsys,
    )
    assert code == 0
    report = tmp_path / "report.json"
    code, _, err = run_cli(
        ["audit", str(field), "--strict", "--json", str(report)], capsys
    )
    assert code == 0
    assert "verdict pass" in err
    assert json.loads(report.read_text())["verdict"] == "pass"


def test_gen_audit_biradial_strict_fails(capsys, tmp_path):
    field = tmp_path / "biradial.sphf"
    run_cli(
        ["gen", "figure1", "--ntheta", "48", "--nphi", "128", "--out", str(field)],
        capsys,
    )
    report = tmp_path / "report.json"
    code, _, err = run_cli(
        ["audit", str(field), "--strict", "--json", str(report)], capsys
    )
    assert code == 1
    assert "not-theorem-compatible" in err
    payload = json.loads(report.read_text())
    assert payload["midpoint"]["passed"] is False
    assert payload["extrema"]["count"] == 12


def test_pipe_gen_into_audit_strict():
    """The documented pipeline `gen figure1 | audit --strict` exits 1."""
    pipeline = (
        "%(py)s -m sphereq.cli gen figure1 --ntheta 48 --nphi 128 | "
        "%(py)s -m sphereq.cli audit --strict -" % {"py": sys.executable}
    )
    proc = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 1
    assert "verdict" in proc.stderr


def _arcs_printed(err):
    """The arc count ``arc-sweep`` prints to stderr as 'arcs N'."""
    (line,) = [x for x in err.splitlines() if x.startswith("arcs ")]
    return int(line.split()[1])


def _arc_count(path, n_eps):
    """Arcs of the first minimum's +1 sweep of the field at ``path``."""
    u = read_field(str(path))
    ext = detect_axial_extrema(u)
    report = moving_arc_sweep(u, ext, ext.minima_indices[0], 1, AuditThresholds(n_eps=n_eps))
    return report.epsilons.size


def test_arc_sweep_csv_rows(capsys, tmp_path):
    field = tmp_path / "y22.sphf"
    run_cli(
        ["gen", "harmonic", "--l", "2", "--m", "2", "--ntheta", "32",
         "--nphi", "64", "--out", str(field)],
        capsys,
    )
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        ["arc-sweep", str(field), "--neps", "50", "--out", str(out_csv)], capsys
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    arcs = _arcs_printed(err)
    assert arcs >= 50
    assert len(lines) == 1 + arcs and lines[0] == "eps,w_max"
    assert "eps_star" in err


def test_solve_constant_seed(capsys, tmp_path):
    out = tmp_path / "flat.sphf"
    code, stdout, _ = run_cli(
        ["solve", "--lam", "3", "--seed", "constant", "--value", "0.9",
         "--ntheta", "16", "--nphi", "32", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "newton_iters" in stdout
    u = read_field(out)
    assert np.max(np.abs(u.values - 1.0)) < 1e-8


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_solve_out_dash_keeps_stdout_for_the_field(capsys, tmp_path, realization):
    """With the field on stdout, as in `solve --out - | audit`, the summary
    goes to stderr; the field then audits as the README's solve does."""
    code, out, err = run_cli(
        ["solve", "--out", "-", "--realization", realization], capsys
    )
    assert code == 0
    field = tmp_path / "eq.sphf"
    field.write_text(out)
    read_field(field)
    for key in ("lambda", "residual_norm", "newton_iters", "amplitude", "min_Fq"):
        assert any(line.startswith(key + " ") for line in err.splitlines()), key
    code, _, err = run_cli(
        ["audit", str(field), "--realization", realization, "--strict"], capsys
    )
    assert code == 0 and "verdict pass" in err


def test_every_path_argument_reads_dash(capsys, tmp_path, monkeypatch):
    """'-' is stdin or stdout for each path argument: the report and the
    extremum table both print, and no file named '-' is made."""
    monkeypatch.chdir(tmp_path)
    run_cli(["gen", "harmonic", "--ntheta", "16", "--nphi", "32", "--out", "y22.sphf"],
            capsys)
    code, out, _ = run_cli(
        ["audit", "y22.sphf", "--json", "-", "--extrema-csv", "-"], capsys
    )
    assert code == 0
    assert '"verdict"' in out and "\nindex,angle," in out
    monkeypatch.setattr("sys.stdin", io.StringIO((tmp_path / "y22.sphf").read_text()))
    code, _, err = run_cli(["arc-sweep", "-", "--out", "-"], capsys)
    assert code == 0 and "arcs " in err
    code, out, _ = run_cli(
        ["bifurcate", "--lambda-min", "0.5", "--lambda-max", "13", "--lmax", "3",
         "--csv", "-"],
        capsys,
    )
    assert code == 0 and out.endswith("lambda_star,l\n2,1\n6,2\n12,3\n")
    assert not (tmp_path / "-").exists()


def test_branch_emits_csv_and_sphf(capsys, tmp_path):
    code, out, _ = run_cli(
        ["branch", "--l", "2", "--m", "2", "--steps", "1", "--ntheta", "24",
         "--nphi", "48", "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    csv = tmp_path / "branch_2_2.csv"
    assert csv.exists()
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 3  # header + start + one continuation step
    for k in range(2):
        field = read_field(tmp_path / ("branch_2_2_step%d.sphf" % k))
        assert field.sup_norm > 0.05


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_branch_readme_command_returns_all_points(capsys, tmp_path, realization):
    """`branch --l 2 --m 2 --steps 6` at the default grid keeps every step."""
    code, out, _ = run_cli(
        ["branch", "--l", "2", "--m", "2", "--steps", "6", "--realization",
         realization, "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "points 7" in out
    rows = (tmp_path / "branch_2_2.csv").read_text().strip().splitlines()
    assert len(rows) == 8


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_solve_at_zero_lambda_fails_cleanly(realization):
    """At lam = 0 a mode block of the preconditioner is singular; the
    command either solves or exits 2 with a message, never a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "sphereq.cli", "solve", "--lam", "0",
         "--realization", realization],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


def test_config_file_defaults_and_override(capsys, tmp_path):
    field = tmp_path / "y22.sphf"
    run_cli(
        ["gen", "harmonic", "--l", "2", "--m", "2", "--ntheta", "32",
         "--nphi", "64", "--out", str(field)],
        capsys,
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("neps = 37\ntol-w = 1e-6\n")
    sweep = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["--config", str(cfg), "arc-sweep", str(field), "--out", str(sweep)],
        capsys,
    )
    assert code == 0
    # n_eps is the minimum arc count: at 32x64 the default 100, 37 and 12
    # take 128, 64 and 32 arcs on the gap of pi/2
    arcs = _arc_count(field, 37)
    assert arcs >= 37 and arcs != _arc_count(field, AuditThresholds().n_eps)
    assert len(sweep.read_text().strip().splitlines()) == 1 + arcs  # config applied
    code, _, _ = run_cli(
        ["--config", str(cfg), "arc-sweep", str(field), "--neps", "12",
         "--out", str(sweep)],
        capsys,
    )
    assert code == 0
    arcs_flag = _arc_count(field, 12)
    assert arcs_flag >= 12 and arcs_flag != arcs
    assert len(sweep.read_text().strip().splitlines()) == 1 + arcs_flag  # flag wins


def test_config_unknown_key_exits_2(capsys, tmp_path):
    """A key no subcommand accepts is an error, not silently dropped."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_theta = 1000\n")
    out = tmp_path / "y22.sphf"
    code, _, err = run_cli(
        ["--config", str(cfg), "gen", "harmonic", "--out", str(out)], capsys
    )
    assert code == 2
    assert "n_theta" in err
    assert not out.exists()


def test_config_key_is_the_flag_name_not_its_dest(capsys, tmp_path):
    """``audit --json`` stores its path as ``json_out``; the config key is
    the flag's name, ``json`` (the key ``json = r.json`` used to exit 2 as
    unknown), and the dest is no key."""
    field = tmp_path / "y22.sphf"
    run_cli(["gen", "harmonic", "--ntheta", "16", "--nphi", "32", "--out", str(field)],
            capsys)
    report = tmp_path / "r.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("json = %s\n" % report)
    code, out, _ = run_cli(["--config", str(cfg), "audit", str(field)], capsys)
    assert code == 0 and out == ""
    assert json.loads(report.read_text())["verdict"] == "pass"
    cfg.write_text("json_out = %s\n" % report)
    code, _, err = run_cli(["--config", str(cfg), "audit", str(field)], capsys)
    assert code == 2 and "unknown config key: json_out" in err


def test_config_bad_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ntheta = abc\n")
    code, _, err = run_cli(["--config", str(cfg), "gen", "harmonic"], capsys)
    assert code == 2
    assert "ntheta" in err and "abc" in err


def test_solve_nonpositive_tolerance_exits_2(capsys):
    code, _, err = run_cli(["solve", "--tol", "0"], capsys)
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize(
    "args",
    [["solve", "--lam", "6.5", "--tol", "nan"], ["solve", "--lam", "6.5", "--tol", "inf"],
     ["branch", "--l", "2", "--m", "2", "--tol", "nan"]],
)
def test_non_finite_tolerance_exits_2(capsys, args):
    """A NaN or infinite tolerance would let Newton return the unsolved guess."""
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "tolerance" in err and out == ""


@pytest.mark.parametrize(
    "args",
    [["bifurcate", "--lambda-min", "0.5", "--lambda-max", "13", "--lmax", "-1"],
     ["bifurcate", "--lambda-min", "0.5", "--lambda-max", "inf"],
     ["eigen", "--lmax", "-1"]],
)
def test_bad_degree_or_range_exits_2_before_any_output(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == "" and err.startswith("sphereq: ")


def test_negative_iteration_counts_exit_2(capsys, tmp_path):
    code, _, err = run_cli(["solve", "--max-iter", "-1"], capsys)
    assert code == 2
    assert "max_iter must be non-negative" in err
    code, _, err = run_cli(
        ["branch", "--l", "2", "--m", "2", "--steps", "-2", "--ntheta", "24",
         "--nphi", "48", "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "n_steps must be non-negative" in err
    assert list(tmp_path.iterdir()) == []  # no one-point branch written


@pytest.mark.parametrize("neps", ["0", "1"])
def test_arc_sweep_too_few_arcs_exits_2(capsys, tmp_path, neps):
    field = tmp_path / "y22.sphf"
    run_cli(
        ["gen", "harmonic", "--l", "2", "--m", "2", "--ntheta", "32",
         "--nphi", "64", "--out", str(field)],
        capsys,
    )
    code, _, err = run_cli(["arc-sweep", str(field), "--neps", neps], capsys)
    assert code == 2
    assert "n_eps must be at least 2" in err


def test_audit_nan_midpoint_tolerance_exits_2(capsys, tmp_path):
    """A NaN midpoint tolerance fails every comparison, so it would certify
    the README's Y_2^2 equilibrium not-theorem-compatible; it is refused."""
    eq = tmp_path / "eq.sphf"
    code, _, _ = run_cli(
        ["solve", "--lam", "6.5", "--seed", "harmonic", "--l", "2", "--m", "2",
         "--out", str(eq)],
        capsys,
    )
    assert code == 0
    code, _, err = run_cli(["audit", str(eq), "--lam", "6.5"], capsys)
    assert code == 0 and "verdict pass" in err
    code, out, err = run_cli(
        ["audit", str(eq), "--lam", "6.5", "--midpoint-tol", "nan"], capsys
    )
    assert code == 2
    assert "midpoint_tol" in err and "verdict" not in err and out == ""


@pytest.mark.parametrize("command", ["audit", "arc-sweep"])
@pytest.mark.parametrize(
    "flag, value, name",
    [("--tol-w", "nan", "tol_w"), ("--tol-w", "-1", "tol_w"),
     ("--tol-ax", "5", "tol_ax")],
)
def test_bad_threshold_flag_exits_2(capsys, tmp_path, command, flag, value, name):
    """Both subcommands validate their threshold flags by one rule.  On
    figure1 an unchecked arc-sweep printed ``reaches_target True`` for
    --tol-w nan (False at the default) and ``eps_star 0`` for --tol-w -1."""
    field = tmp_path / "figure1.sphf"
    run_cli(["gen", "figure1", "--out", str(field)], capsys)
    code, out, err = run_cli([command, str(field), flag, value], capsys)
    assert code == 2
    assert name in err
    assert "eps_star" not in err and "verdict" not in err and out == ""


def test_config_bad_threshold_exits_2(capsys, tmp_path):
    field = tmp_path / "figure1.sphf"
    run_cli(["gen", "figure1", "--out", str(field)], capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("midpoint-tol = inf\n")
    code, _, err = run_cli(["--config", str(cfg), "audit", str(field)], capsys)
    assert code == 2
    assert "midpoint_tol" in err


def test_solve_warns_when_it_falls_to_the_trivial_state(capsys):
    code, out, err = run_cli(["solve", "--amplitude", "1e-6"], capsys)
    assert code == 0
    assert "amplitude" in out
    assert "warning" in err and "trivial-state floor" in err
    code, out, err = run_cli(["solve"], capsys)  # the README default
    assert code == 0
    assert "warning" not in err


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_audit_refuses_the_trivial_state(capsys, tmp_path, realization):
    """A solve fallen to u = 0 leaves noise whose 'extrema' would pass."""
    triv = tmp_path / "triv.sphf"
    code, _, err = run_cli(
        ["solve", "--lam", "5", "--seed", "harmonic", "--l", "2", "--m", "2",
         "--amplitude", "1e-3", "--realization", realization, "--out", str(triv)],
        capsys,
    )
    assert code == 0 and "trivial-state floor" in err
    code, out, err = run_cli(
        ["audit", str(triv), "--lam", "5", "--realization", realization, "--strict"],
        capsys,
    )
    assert code == 2
    assert "trivial state" in err and "verdict" not in err and out == ""


def test_audit_reports_are_deterministic(capsys, tmp_path):
    field = tmp_path / "y22.sphf"
    run_cli(
        ["gen", "harmonic", "--l", "3", "--m", "2", "--ntheta", "32",
         "--nphi", "64", "--out", str(field)],
        capsys,
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli(["audit", str(field), "--json", str(out_a)], capsys)
    run_cli(["audit", str(field), "--json", str(out_b)], capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_input_exits_2(capsys, tmp_path):
    code, _, err = run_cli(["audit", str(tmp_path / "absent.sphf")], capsys)
    assert code == 2
    assert "sphereq:" in err


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2
    assert "COMMAND" in out


def test_gen_perturbed_fails_strict_audit(capsys, tmp_path):
    field = tmp_path / "perturbed.sphf"
    code, _, _ = run_cli(
        ["gen", "perturbed", "--l", "2", "--m", "2", "--pl", "1", "--pm", "1",
         "--eps", "0.1", "--ntheta", "32", "--nphi", "64", "--out", str(field)],
        capsys,
    )
    assert code == 0
    code, _, err = run_cli(
        ["audit", str(field), "--strict", "--json", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 1
    assert "verdict" in err


@pytest.mark.parametrize(
    "args",
    [["gen", "figure1", "--realization", "spectral"],
     ["gen", "harmonic", "--realization", "finite-difference"],
     ["bifurcate", "--lambda-min", "0.5", "--lambda-max", "13", "--lmax", "3",
      "--lam", "99"]],
)
def test_flag_the_subcommand_would_ignore_exits_2(capsys, args):
    """gen builds no operator and bifurcate scans lambda, so neither takes
    --realization or --lam."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args, ignored",
    [(["figure1", "--amplitude", "5", "--l", "3", "--eps", "0.7"],
      "--amplitude, --eps, --l"),
     (["figure1", "--m", "1", "--pl", "2", "--pm", "1"], "--m, --pl, --pm"),
     (["harmonic", "--eps", "0.7", "--pl", "3"], "--eps, --pl"),
     (["harmonic", "--l", "3", "--pm", "1"], "--pm")],
)
def test_gen_flag_its_kind_ignores_exits_2(capsys, tmp_path, args, ignored):
    """figure1 reads none of the mode flags and harmonic no perturbation
    flag; such a flag used to change nothing in the written field."""
    out = tmp_path / "field.sphf"
    code, stdout, err = run_cli(["gen"] + args + ["--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert "gen %s does not use %s" % (args[0], ignored) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, ignored",
    [(["constant", "--l", "5", "--m", "9"], "--l, --m"),
     (["zero", "--l", "3", "--amplitude", "9"], "--amplitude, --l"),
     (["zero", "--value", "0.5"], "--value"),
     (["harmonic", "--value", "2"], "--value")],
)
def test_solve_seed_flag_its_seed_ignores_exits_2(capsys, tmp_path, args, ignored):
    """The constant seed reads only --value, the zero seed no seed flag and
    the harmonic seed all but --value; such a flag used to change nothing
    in the solve."""
    out = tmp_path / "eq.sphf"
    code, stdout, err = run_cli(
        ["solve", "--seed"] + args + ["--out", str(out)], capsys
    )
    assert code == 2 and stdout == ""
    assert "solve --seed %s does not use %s" % (args[0], ignored) in err
    assert not out.exists()


def test_solve_accepts_config_keys_its_seed_does_not_read(capsys, tmp_path):
    """A config file shared by the subcommands may set the harmonic seed's
    degree and amplitude for a constant-seed solve."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("amplitude = 0.5\nl = 3\nm = 1\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "solve", "--seed", "constant", "--lam", "3",
         "--ntheta", "16", "--nphi", "32"],
        capsys,
    )
    assert code == 0 and "newton_iters" in out


def test_gen_accepts_config_keys_other_subcommands_read(capsys, tmp_path):
    """A config file is shared by the subcommands: solve's amplitude and
    degree are no error for a gen kind that reads neither."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("amplitude = 0.5\nl = 3\n")
    out = tmp_path / "field.sphf"
    code, _, _ = run_cli(
        ["--config", str(cfg), "gen", "figure1", "--ntheta", "8", "--nphi", "16",
         "--out", str(out)],
        capsys,
    )
    assert code == 0 and out.exists()


@pytest.mark.parametrize("dlam", ["-0.25", "0", "nan"])
def test_branch_step_that_is_not_positive_exits_2(capsys, tmp_path, dlam):
    """--side sets the direction; a negative --dlam used to be taken as its
    absolute value."""
    code, out, err = run_cli(
        ["branch", "--l", "2", "--m", "2", "--dlam", dlam, "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 2 and out == ""
    assert "--dlam" in err and "--side" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["branch", "--l", "2", "--m", "2", "--lambda-star", "nan"],
     ["solve", "--lam", "nan"], ["solve", "--lam", "inf"]],
)
def test_non_finite_lambda_exits_2(capsys, tmp_path, args):
    """Unchecked, a NaN lambda makes the branch and solve commands fail on a
    NaN value at some grid node; the message names lambda instead."""
    if args[0] == "branch":
        args = args + ["--outdir", str(tmp_path)]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "lambda" in err and "must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, name",
    [(["audit", "FIELD", "--lam", "nan"], "lambda"),
     (["solve", "--amplitude", "nan"], "amplitude"),
     (["solve", "--seed", "constant", "--value", "inf"], "value"),
     (["branch", "--l", "2", "--m", "2", "--lambda-star", "6", "--amplitude", "nan",
       "--outdir", "OUTDIR"], "amplitude"),
     (["gen", "harmonic", "--amplitude", "nan"], "amplitude"),
     (["gen", "perturbed", "--eps", "inf"], "eps")],
)
def test_non_finite_flag_exits_2(capsys, tmp_path, args, name):
    """A non-finite lambda, amplitude, seed value or perturbation size is
    refused by name, not later as a non-finite value at ring 0, column 0."""
    field = tmp_path / "y22.sphf"
    code, _, _ = run_cli(["gen", "harmonic", "--out", str(field)], capsys)
    assert code == 0
    outdir = tmp_path / "branch"
    args = [str(field) if a == "FIELD" else str(outdir) if a == "OUTDIR" else a
            for a in args]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert name in err and "must be finite" in err and "ring" not in err
    assert not outdir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["audit", "solve"])
def test_overflowing_F_exits_2_whatever_the_warning_filters(capsys, tmp_path, command):
    """At u ~ 1e200 the cubic's u * u overflows.  The evaluator runs with
    numpy's warnings off, so its own finiteness check refuses the value,
    also where a RuntimeWarning is an error, instead of a traceback."""
    field = tmp_path / "big.sphf"
    code, _, _ = run_cli(["gen", "harmonic", "--amplitude", "1e200", "--out", str(field)],
                         capsys)
    assert code == 0
    args = {"audit": ["audit", str(field)],
            "solve": ["solve", "--amplitude", "1e200", "--out", str(tmp_path / "eq.sphf")]}
    code, out, err = run_cli(args[command], capsys)
    assert code == 2 and out == ""
    assert "F produced a non-finite value at ring 0, column 0" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "lam, message",
    [("1e200", "right-hand side's 2-norm overflows a double"),
     ("1e308", "sphere means of F_u and F_q overflow a double")],
)
def test_huge_residual_exits_2_whatever_the_warning_filters(capsys, tmp_path, lam,
                                                            message):
    """At lambda = 1e200 the first Newton residual's 2-norm overflows, and at
    1e308 so does the sphere mean of F_u; the solve refuses either with a
    message, also where a RuntimeWarning is an error, instead of a
    traceback."""
    out_path = str(tmp_path / "eq.sphf")
    code, out, err = run_cli(["solve", "--lam", lam, "--out", out_path], capsys)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("token", ["nan", "abc"])
def test_audit_of_a_bad_colatitude_exits_2(capsys, tmp_path, token):
    """Unchecked, a NaN first colatitude audits to a pass, and a
    non-numeric one ends in a traceback with exit 1, the code of a failed
    --strict verdict."""
    field = tmp_path / "y22.sphf"
    code, _, _ = run_cli(
        ["gen", "harmonic", "--ntheta", "8", "--nphi", "16", "--out", str(field)],
        capsys,
    )
    assert code == 0
    lines = field.read_text().splitlines()
    lines[2] = " ".join([token] + lines[2].split()[1:])
    field.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["audit", str(field)], capsys)
    assert code == 2 and out == ""
    assert "line 3: colatitude row" in err and "verdict" not in err


def test_realization_and_lam_stay_config_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("realization = finite-difference\nlam = 6.5\n")
    field = tmp_path / "y22.sphf"
    code, _, _ = run_cli(
        ["--config", str(cfg), "gen", "harmonic", "--ntheta", "32", "--nphi", "64",
         "--out", str(field)],
        capsys,
    )
    assert code == 0
    code, _, err = run_cli(["--config", str(cfg), "audit", str(field)], capsys)
    assert code == 0 and "verdict pass" in err


@pytest.mark.parametrize("word, code", [
    ("true", 1), ("On", 1), ("1", 1), ("FALSE", 0), ("off", 0), ("0", 0),
    ("flase", 2), ("2", 2), ("y", 2),
])
def test_config_boolean_words(capsys, tmp_path, word, code):
    """A boolean config key takes the words for true and false in any case,
    and any other word exits 2: "flase" used to turn --strict off, and the
    audit of a failing field exited 0."""
    field = tmp_path / "perturbed.sphf"
    run_cli(["gen", "perturbed", "--out", str(field)], capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strict = %s\n" % word)
    got, out, err = run_cli(["--config", str(cfg), "audit", str(field)], capsys)
    assert got == code
    if code == 2:
        assert "'strict': invalid value '%s'" % word in err and out == ""
    else:
        assert "hypotheses-not-met" in out


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_solve_zero_seed_warns_of_the_trivial_state(capsys, realization):
    code, out, err = run_cli(
        ["solve", "--seed", "zero", "--ntheta", "16", "--nphi", "32",
         "--realization", realization],
        capsys,
    )
    assert code == 0
    assert "amplitude 0\n" in out
    assert "warning: amplitude 0 (sup over grid nodes) is below the " \
        "trivial-state floor" in err


def test_config_comments_and_blank_lines_are_skipped(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\n\nlmax = 1  # two rows\n")
    code, out, _ = run_cli(["--config", str(cfg), "eigen"], capsys)
    assert code == 0 and out.splitlines()[1:] == ["0 0 1", "1 -2 3"]


@pytest.mark.parametrize("text, message", [
    ("lmax\n", "%s:1: expected 'key = value'"),
    ("# a comment\n\nlmax 2\n", "%s:3: expected 'key = value'"),
    ("realization = bogus\n", "config key 'realization': invalid value 'bogus'"),
])
def test_config_malformed_line_or_value_exits_2(capsys, tmp_path, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), "eigen"], capsys)
    assert code == 2 and out == ""
    assert message.replace("%s", str(cfg)) in err


@pytest.mark.parametrize("gen_args, sweep_args, message", [
    (["--l", "2", "--m", "0"], [], "no axial minima detected"),
    (["--l", "2", "--m", "2"], ["--min-index", "5"],
     "--min-index 5 out of range (2 minima)"),
])
def test_arc_sweep_without_the_asked_minimum_exits_2(
    capsys, tmp_path, gen_args, sweep_args, message
):
    field = tmp_path / "y.sphf"
    run_cli(["gen", "harmonic", *gen_args, "--ntheta", "16", "--nphi", "32",
             "--out", str(field)], capsys)
    code, out, err = run_cli(["arc-sweep", str(field), *sweep_args], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_branch_start_on_the_trivial_branch_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        ["branch", "--l", "2", "--m", "2", "--amplitude", "1e-6",
         "--ntheta", "24", "--nphi", "48", "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 2 and out == ""
    assert "Newton fell back to the trivial branch" in err
    assert not list(tmp_path.iterdir())
