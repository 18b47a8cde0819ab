"""Newton-Krylov equilibria, gradient-flow relaxation, bifurcation
detection, branch switching and continuation."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sphereq
from sphereq import solver

from sphereq import (
    ContractError,
    ConvergenceError,
    EvaluationError,
    LinearSolveError,
    NonlinearProblem,
    ParameterError,
    ScalarField,
    apply_laplacian,
    atan_elliptic,
    branch_switch,
    chafee_infante,
    continue_branch,
    detect_bifurcations,
    detect_axial_extrema,
    eval_on_grid,
    harmonic_mode,
    make_grid,
    make_operator,
    integrate,
    max_degree,
    newton_solve,
    theorem_audit,
)
from sphereq import harmonics
from sphereq.grid import TWO_PI
from sphereq.harmonics import apply_mode_blocks
from oracles import (
    DivergenceError,
    gradient_flow_relax,
    jacobian_matrix,
    quadrature_weight_vector,
    reflect_phi,
)


def _zero(grid):
    return eval_on_grid(grid, lambda t, p: np.zeros_like(t))


def _const(grid, c):
    return eval_on_grid(grid, lambda t, p: np.full_like(t, c))


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------


def test_newton_exact_root_returns_immediately(grid32, op32):
    eq = newton_solve(chafee_infante(3.0), op32, _zero(grid32))
    assert eq.residual_norm == 0.0
    assert eq.newton_iters == 0
    assert eq.amplitude == 0.0


def test_newton_converges_to_nearest_constant(grid32, op32):
    eq = newton_solve(chafee_infante(3.0), op32, _const(grid32, 0.9))
    assert eq.amplitude == pytest.approx(1.0, abs=1e-9)
    assert eq.residual_norm <= 1e-9


def test_newton_nonconstant_equilibrium(grid32, op32):
    mode = harmonic_mode(grid32, 2, 2)
    guess = mode * (0.3 / mode.sup_norm)  # sup-amplitude 0.3 seed
    eq = newton_solve(chafee_infante(6.5), op32, guess)
    assert eq.residual_norm <= 1e-9
    assert eq.amplitude > 0.1
    assert eq.u.span > 0.1  # sign changing, not a constant
    # cross-check the fixed point with the relaxation flow
    relaxed = gradient_flow_relax(chafee_infante(6.5), op32, eq.u, dt=0.1, steps=20)
    assert np.max(np.abs(relaxed.values - eq.u.values)) <= 10.0 * eq.tol


def test_newton_finite_difference_converges_like_spectral():
    """The per-mode preconditioner matches the FD operator too: Newton at
    the default 48x96 grid converges in a few steps, to the spectral
    equilibrium within discretization error."""
    g = make_grid(48, 96)
    mode = harmonic_mode(g, 2, 2)
    guess = mode * (0.3 / mode.sup_norm)
    amplitudes = []
    for realization in ("spectral", "finite-difference"):
        op = make_operator(g, realization)
        eq = newton_solve(chafee_infante(6.5), op, guess, tol=1e-9)
        assert eq.newton_iters <= 6
        amplitudes.append(eq.amplitude)
    assert abs(amplitudes[0] - amplitudes[1]) < 1e-6


@pytest.mark.parametrize("realization, amplitude", [
    ("spectral", 0.363515278601),
    ("finite-difference", 0.363515241280),
])
def test_newton_sizes_each_krylov_solve_by_its_forcing_term(realization, amplitude,
                                                            monkeypatch):
    """The README solve: the first step's GMRES stops at 1e-2 relative, later
    ones at 0.9 (r_k / r_{k-1})^2 within [1e-10, 1e-2], and Newton takes the
    same 4 steps to the same equilibrium as with every solve at 1e-10, on
    13 matvecs (Arnoldi steps; GMRES keeps each preconditioned image, so no
    product follows the last one) instead of 28."""
    rtols = []
    matvecs = 0
    real_gmres = solver.gmres

    def gmres(matvec, b, rtol, **kwargs):
        rtols.append(rtol)

        def counted(v):
            nonlocal matvecs
            matvecs += 1
            return matvec(v)

        return real_gmres(counted, b, rtol=rtol, **kwargs)

    monkeypatch.setattr(solver, "gmres", gmres)
    g = make_grid(48, 96)
    mode = harmonic_mode(g, 2, 2)
    eq = newton_solve(chafee_infante(6.5), make_operator(g, realization),
                      mode * (0.3 / mode.sup_norm))
    assert eq.newton_iters == 4
    assert rtols[0] == 1e-2
    assert all(1e-10 <= rtol <= 1e-2 for rtol in rtols)
    assert matvecs <= 13
    assert eq.amplitude == pytest.approx(amplitude, abs=1e-11)


def test_newton_preserves_mirror_symmetry(grid32, op32):
    mode = harmonic_mode(grid32, 2, 2)
    guess = mode * (0.3 / mode.sup_norm)  # even in phi about 0
    eq = newton_solve(chafee_infante(6.5), op32, guess)
    mirrored = reflect_phi(eq.u, 0.0)
    assert np.max(np.abs(eq.u.values - mirrored.values)) < 1e-10 * eq.u.span


def test_newton_forms_the_preconditioner_once_per_solve(grid32, op32, monkeypatch):
    """One per-mode factorization per solve, however many Newton steps it
    takes, and none from a guess that already meets the tolerance."""
    calls = []
    factorize = solver.mean_mode_inverse

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    monkeypatch.setattr(solver, "mean_mode_inverse", counted)
    mode = harmonic_mode(grid32, 2, 2)
    eq = newton_solve(chafee_infante(6.5), op32, mode * (0.3 / mode.sup_norm))
    assert eq.newton_iters >= 3
    assert len(calls) == 1
    calls.clear()
    again = newton_solve(chafee_infante(6.5), op32, eq.u)
    assert again.newton_iters == 0
    assert calls == []


def test_newton_applies_one_laplacian_per_state(grid32, op32, laplacian_calls):
    """Newton applies Lap once to the guess and once to each line-search
    trial, none inside GMRES, and evaluates F once on each of those
    states."""
    base = chafee_infante(6.5)
    f_states = []

    def eval_f(u, q):
        f_states.append(u)
        return base.eval_F(u, q)

    mode = harmonic_mode(grid32, 2, 2)
    problem = dataclasses.replace(base, eval_F=eval_f)
    eq = newton_solve(problem, op32, mode * (0.3 / mode.sup_norm))
    assert eq.newton_iters >= 3
    # this start backtracks once, so trials outnumber Newton steps
    assert len(f_states) > eq.newton_iters + 1
    assert len(laplacian_calls) == len(f_states)


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_newton_converges_with_variable_fq(realization):
    """The Krylov split divides by the sphere mean of F_q and scales by
    F_q / c_q; a problem whose F_q varies over the state exercises both,
    which the cubic problem (F_q == 1) never does."""
    grid = make_grid(48, 96)
    op = make_operator(grid, realization)
    lam, guess = branch_switch(grid, 12.0, 2, 2, dlam0=1.0, family=atan_elliptic)
    problem = atan_elliptic(lam)
    eq = newton_solve(problem, op, guess, tol=1e-9)
    assert eq.residual_norm <= 1e-9
    assert eq.amplitude > 0.1
    fq = problem.eval_Fq(eq.u.values, apply_laplacian(op, eq.u).values)
    assert np.ptp(fq) > 0.1  # F_q is not constant on the equilibrium


def _krylov_data(grid):
    """Non-constant F_q > 0 and an F_u of both signs on the grid."""
    theta = grid.theta_nodes[:, None]
    phi = TWO_PI * np.arange(grid.n_phi)[None, :] / grid.n_phi
    fq = 2.0 + np.cos(theta) * np.sin(2.0 * phi) + 0.5 * np.sin(theta) ** 2
    y22 = harmonic_mode(grid, 2, 2).values
    fu = 3.0 * (1.0 - 3.0 * (0.7 * y22 / np.max(np.abs(y22))) ** 2)
    return fu, fq


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_krylov_solve_meets_the_true_residual(grid32, realization):
    """The solution GMRES returns meets the tolerance on the true residual
    fu s + fq Lap s - rhs, with Lap applied directly."""
    op = make_operator(grid32, realization)
    fu, fq = _krylov_data(grid32)
    assert fu.min() < 0 < fu.max()
    rhs = np.random.default_rng(5).standard_normal(fu.shape)
    precond = harmonics.mean_mode_inverse(
        op, *solver._mean_coefficients(chafee_infante(0.0), grid32, fu, fq)
    )
    rtol, atol = 1e-10, 1e-12
    s = solver._krylov_solve(fu, fq, precond, rhs, rtol, atol)
    lap = apply_laplacian(op, ScalarField(grid32, s)).values
    bound = max(atol, rtol * np.linalg.norm(rhs))
    assert np.linalg.norm(fu * s + fq * lap - rhs) <= bound


def test_krylov_solve_through_the_singular_floor(grid32, op32):
    """At c_u = 0 the spectral blocks are singular, so the inverse is formed
    with a floor shift; the MeanModeInverse records the shifted c_u it
    inverts, which keeps the split exact.  With F_u == 0 (lambda = 0 for
    the cubic problem) and a right-hand side in the operator's range, the
    solve meets the true residual."""
    _, fq = _krylov_data(grid32)
    c_u, c_q = solver._mean_coefficients(chafee_infante(0.0), grid32, 0.0 * fq, fq)
    assert c_u == 0.0
    precond = harmonics.mean_mode_inverse(op32, c_u, c_q)
    assert precond.coeff_u > 0.0
    v = np.random.default_rng(6).standard_normal(fq.shape)

    def lap(values):
        return apply_laplacian(op32, ScalarField(grid32, values)).values

    # the blocks are a right inverse of coeff_u + coeff_q Lap, null space
    # included, which is what the split relies on
    z = apply_mode_blocks(precond.blocks, v)
    back = precond.coeff_u * z + precond.coeff_q * lap(z)
    assert np.max(np.abs(back - v)) <= 1e-5 * np.max(np.abs(v))
    rhs = fq * lap(v)
    rtol = 1e-6
    s = solver._krylov_solve(0.0 * fq, fq, precond, rhs, rtol, 0.0)
    assert np.linalg.norm(fq * lap(s) - rhs) <= rtol * np.linalg.norm(rhs)


@pytest.mark.parametrize(
    "realization, coeff_u",
    [("finite-difference", 0.0), ("spectral", 2.0)],
)
def test_mean_mode_inverse_floors_blocks_singular_to_rounding(grid32, realization,
                                                              coeff_u):
    """FD at c_u = 0 (the constants) and spectral at c_u = 2 c_q (degree 1)
    leave a block singular only to rounding: np.linalg.inv returns, but
    without the floor its inverse is off by order one.  With the floor the
    blocks invert the M that the returned coefficients describe, on each
    parity half; a coefficient pair between two eigenvalues gets no
    shift."""
    op = make_operator(grid32, realization)
    precond = harmonics.mean_mode_inverse(op, coeff_u, 1.0)
    assert precond.coeff_u != coeff_u
    for half, inverse in zip(op.blocks, precond.blocks):
        size = half.shape[1]
        m = precond.coeff_q * half + precond.coeff_u * np.eye(size)
        assert np.max(np.abs(m @ inverse - np.eye(size))) <= 1e-5
    assert harmonics.mean_mode_inverse(op, 3.0, 1.0).coeff_u == 3.0


def _inverse_defect(op, precond):
    """max|M X - I| over both parity halves of every mode, for the inverse
    blocks X and M = coeff_u + coeff_q * the operator's stored blocks."""
    defect = 0.0
    for half, inverse in zip(op.blocks, precond.blocks):
        eye = np.eye(half.shape[1])
        m = precond.coeff_q * half + precond.coeff_u * eye
        defect = max(defect, np.max(np.abs(m @ inverse - eye)))
    return defect


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
@pytest.mark.parametrize("shape", [(16, 32), (33, 66), (24, 96), (48, 96)])
def test_mean_mode_inverse_inverts_the_stored_blocks(shape, realization):
    """The inverse meets max|M X - I| <= 1e-12 against the stored blocks, or
    eps times the spread of M's spectral eigenvalues where that is larger:
    at c_u = 6 + 1e-4, 1e-4 from degree 2, no inverse does better (the
    closed form reads 6e-11 at 16x32 and 2e-10 at 48x96, LAPACK on the FD
    blocks 2e-11 and 2e-10).  (1, -0.1) is the implicit step of
    ``gradient_flow_relax`` at dt = 0.1; 24x96 caps the degree by its
    rings, so its spectral modes above the cap are all null.  The floored
    pairs, c_u = 0 and c_u = 2 (degree 1), stay within the 1e-6 that
    ``_krylov_solve`` states up to 48x96.  The FD blocks are singular to
    rounding there only on some grids, so only the spectral inverse must
    carry a floor."""
    op = make_operator(make_grid(*shape), realization)
    l = np.arange(max_degree(op.grid) + 1.0)
    for coeff_u, coeff_q in ((3.7, 1.0), (-5.0, 1.0), (6.0 + 1e-4, 1.0), (1.0, -0.1)):
        precond = harmonics.mean_mode_inverse(op, coeff_u, coeff_q)
        assert precond.coeff_u == coeff_u
        d = np.append(np.abs(coeff_u - coeff_q * l * (l + 1.0)), abs(coeff_u))
        bound = max(1e-12, solver._EPS * d.max() / d.min())
        assert _inverse_defect(op, precond) <= bound
    for coeff_u in (0.0, 2.0):
        precond = harmonics.mean_mode_inverse(op, coeff_u, 1.0)
        assert realization != "spectral" or precond.coeff_u != coeff_u
        assert _inverse_defect(op, precond) <= 1e-6


def test_only_finite_difference_blocks_are_inverted_by_lapack(grid32, monkeypatch):
    """The spectral inverse is closed-form, floored or not: no np.linalg.inv
    call; the FD half blocks still go through it, one call per half."""
    spectral, fd = make_operator(grid32), make_operator(grid32, "finite-difference")
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    for coeff_u in (3.7, 0.0):
        harmonics.mean_mode_inverse(spectral, coeff_u, 1.0)
    assert calls == []
    harmonics.mean_mode_inverse(fd, 3.7, 1.0)
    assert len(calls) == 2


def _count_legendre_factors(monkeypatch):
    """Record every grid whose operator's parity Legendre factor is formed:
    the operator forms it at the grid's degree cap, the transform behind
    ``harmonic_mode`` at its coefficients' cap."""
    grids = []
    form = harmonics._parity_legendre_factor

    def counted(grid, cap):
        if cap == max_degree(grid):
            grids.append(grid)
        return form(grid, cap)

    monkeypatch.setattr(harmonics, "_parity_legendre_factor", counted)
    return grids


def test_a_spectral_operator_forms_its_legendre_factor_once(grid32, monkeypatch):
    """The operator keeps the factor from its first solve's preconditioner,
    and a second solve reuses it."""
    op = make_operator(grid32)
    grids = _count_legendre_factors(monkeypatch)
    mode = harmonic_mode(grid32, 2, 2)
    for lam in (6.5, 7.0):
        eq = newton_solve(chafee_infante(lam), op, mode * (0.3 / mode.sup_norm))
        assert eq.newton_iters >= 1
    assert grids == [grid32]


def test_an_audit_forms_no_legendre_factor(grid32, monkeypatch):
    """Only a solve's preconditioner reads the factor, so an operator that
    is only audited with never holds one."""
    op = make_operator(grid32)
    grids = _count_legendre_factors(monkeypatch)
    theorem_audit(chafee_infante(6.0), op, harmonic_mode(grid32, 2, 2))
    assert grids == []
    assert "_legendre_factor" not in vars(op)


def test_krylov_iteration_applies_no_laplacian(grid32, op32, monkeypatch):
    """Each GMRES iteration applies the preconditioner's mode blocks once and
    no Laplacian; GMRES keeps each preconditioned vector, so no block
    application recovers the step or a cycle's residual."""
    counts = {"laplacian": 0, "blocks": 0, "matvecs": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    real_gmres = solver.gmres

    def gmres(matvec, b, **kwargs):
        return real_gmres(counting("matvecs", matvec), b, **kwargs)

    for name, key in (("apply_laplacian", "laplacian"), ("apply_mode_blocks", "blocks")):
        monkeypatch.setattr(solver, name, counting(key, getattr(solver, name)))
    monkeypatch.setattr(solver, "gmres", gmres)
    fu, fq = _krylov_data(grid32)
    precond = harmonics.mean_mode_inverse(
        op32, *solver._mean_coefficients(chafee_infante(0.0), grid32, fu, fq)
    )
    rhs = np.random.default_rng(7).standard_normal(fu.shape)
    solver._krylov_solve(fu, fq, precond, rhs, 1e-10, 0.0)
    assert counts["matvecs"] > 5
    assert counts["laplacian"] == 0
    assert counts["blocks"] == counts["matvecs"]


def test_zero_mean_fq_is_outside_the_elliptic_class(grid32, op32):
    """A problem that does not depend on q has F_q == 0, so no mean
    coefficient operator exists to split the Jacobian by; Newton and the
    relaxation refuse it with a message naming the problem."""
    cubic = chafee_infante(6.5)
    no_q = NonlinearProblem(
        "no-laplacian",
        lambda u, q: 6.5 * u * (1.0 - u * u),
        cubic.eval_Fu,
        lambda u, q: 0.0 * (u + q),
        delta_floor=1.0,
        lam=6.5,
    )
    mode = harmonic_mode(grid32, 2, 2)
    guess = mode * (0.3 / mode.sup_norm)
    with pytest.raises(ContractError, match="'no-laplacian'.*F_q has zero mean"):
        newton_solve(no_q, op32, guess)
    with pytest.raises(ContractError, match="'no-laplacian'.*F_q has zero mean"):
        gradient_flow_relax(no_q, op32, guess, 0.1, 2)


def test_newton_iteration_budget(grid32, op32):
    """A zero budget returns a guess that already meets tol and gives up on
    any other; a negative budget is rejected."""
    eq = newton_solve(chafee_infante(3.0), op32, _zero(grid32), max_iter=0)
    assert eq.newton_iters == 0
    with pytest.raises(ConvergenceError):
        newton_solve(chafee_infante(3.0), op32, _const(grid32, 0.9), max_iter=0)
    with pytest.raises(ParameterError, match="max_iter"):
        newton_solve(chafee_infante(3.0), op32, _const(grid32, 0.9), max_iter=-1)


@pytest.mark.parametrize("max_iter", [1.5, float("nan"), float("inf")])
def test_newton_rejects_a_budget_that_is_not_an_integer(grid32, op32, max_iter):
    """Unchecked, such a budget never equals the iteration count, so Newton
    ran on without one: 4 steps where max_iter=1 gives up."""
    with pytest.raises(ParameterError, match="max_iter.*integer"):
        newton_solve(chafee_infante(3.0), op32, _const(grid32, 0.9), max_iter=max_iter)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_newton_rejects_a_tolerance_that_is_not_finite_and_positive(grid32, op32, tol):
    """With a NaN or infinite tol the loop never runs, so the unsolved guess
    would come back as an Equilibrium whose residual exceeds any finite
    tolerance."""
    with pytest.raises(ParameterError, match="tolerance"):
        newton_solve(chafee_infante(6.5), op32, _const(grid32, 0.3), tol=tol)


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
@pytest.mark.parametrize("l, m", [(2, 2), (3, 1)])
@pytest.mark.parametrize("scale", [0.2, 2.5])
def test_newton_converges_from_scaled_guesses(realization, l, m, scale):
    """Starts well off the normal-form amplitude still converge with the
    preconditioner frozen at the first iterate; a 2.5x start lands on the
    branch, a 0.2x start falls to the trivial state."""
    grid = make_grid(48, 96)
    op = make_operator(grid, realization)
    lam, guess = branch_switch(grid, l * (l + 1), l, m, dlam0=0.8)
    eq = newton_solve(chafee_infante(lam), op, guess * scale, tol=1e-9)
    assert eq.residual_norm <= 1e-9
    if scale > 1:
        assert eq.amplitude > 0.1
    else:
        assert eq.amplitude < 1e-6


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_newton_converges_from_a_far_y41_start(realization):
    """2.5 times the circle normal-form Y_4^1 guess sqrt(4 dlam / (3 lam))
    4 past lambda* = 20.  At this start the spectral linear system is
    beyond GMRES's budget at 1e-10 relative (it stagnates on the first
    step); the first step's forcing term of 1e-2 is within it, and Newton
    reaches the branch."""
    grid = make_grid(48, 96)
    lam, guess = branch_switch(grid, 20.0, 4, 1, dlam0=4.0,
                               amplitude=math.sqrt(4 * 4.0 / (3 * 24.0)))
    eq = newton_solve(chafee_infante(lam), make_operator(grid, realization),
                      guess * 2.5, tol=1e-9)
    assert eq.residual_norm <= 1e-9
    assert eq.amplitude > 0.1


def test_solve_audit_and_branch_run_without_scipy(tmp_path):
    """The command line needs numpy alone: with scipy blocked, solve then
    audit and a two-step branch run at 16x32 for both realizations."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphereq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sphereq.cli import main\n"
        "size = ['--ntheta', '16', '--nphi', '32']\n"
        "for r in ('spectral', 'finite-difference'):\n"
        "    realization = ['--realization', r]\n"
        "    assert main(['solve', '--out', r + '.sphf'] + size + realization) == 0\n"
        "    assert main(['audit', r + '.sphf', '--strict'] + realization) == 0\n"
        "    assert main(['branch', '--l', '2', '--m', '2', '--steps', '2',\n"
        "                 '--outdir', r] + size + realization) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("points 3") == 2


def _nonsymmetric(n, seed):
    """A well-conditioned dense nonsymmetric matrix."""
    rng = np.random.default_rng(seed)
    return np.eye(n) * 4.0 + rng.standard_normal((n, n)) / np.sqrt(n)


@pytest.mark.parametrize("restart, rtol, atol", [(5, 1e-10, 0.0), (8, 0.0, 1e-9),
                                                 (60, 1e-12, 1e-14)])
def test_gmres_meets_the_true_residual_bound(restart, rtol, atol, monkeypatch):
    """A restart below the dimension forces several cycles; the returned x
    meets |b - A x| <= max(atol, rtol |b|) and agrees with a dense solve."""
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", restart)
    a = _nonsymmetric(60, 3)
    b = np.random.default_rng(4).standard_normal(60)
    calls = []

    def matvec(v):
        calls.append(1)
        return a @ v, v

    x, info = solver.gmres(matvec, b, rtol=rtol, atol=atol)
    assert info == 0
    bound = max(atol, rtol * np.linalg.norm(b))
    assert np.linalg.norm(b - a @ x) <= bound
    exact = np.linalg.solve(a, b)
    assert np.linalg.norm(x - exact) <= 10 * bound * np.linalg.norm(np.linalg.inv(a), 2)
    if restart < 60:
        assert len(calls) > restart  # more than one cycle


def test_gmres_returns_the_preconditioned_solution(monkeypatch):
    """With columns scaled over four decades, matvec right-preconditions by
    the scaling D, returning (A D^-1 v, D^-1 v); gmres returns the solution
    x itself, not its Krylov coordinates D x, and the residual it forms
    from the images over several cycles is the true b - A x."""
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 7)
    d = np.geomspace(1.0, 1e4, 60)
    a = _nonsymmetric(60, 9) * d
    b = np.random.default_rng(10).standard_normal(60)
    calls = []

    def matvec(v):
        calls.append(1)
        z = v / d
        return a @ z, z

    x, info = solver.gmres(matvec, b, rtol=1e-10, atol=0.0)
    assert info == 0
    assert len(calls) > 7  # more than one cycle
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-8, atol=0.0)


def test_gmres_reports_a_budget_it_cannot_meet(monkeypatch):
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 3)
    monkeypatch.setattr(solver, "_KRYLOV_MAX_RESTARTS", 2)
    a = _nonsymmetric(60, 5)
    b = np.random.default_rng(6).standard_normal(60)
    x, info = solver.gmres(lambda v: (a @ v, v), b, rtol=1e-12, atol=0.0)
    assert info == 2
    assert np.linalg.norm(b - a @ x) > 1e-12 * np.linalg.norm(b)


def test_gmres_zero_right_hand_side_returns_zeros(monkeypatch):
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 4)
    monkeypatch.setattr(solver, "_KRYLOV_MAX_RESTARTS", 3)

    def matvec(v):
        raise AssertionError("no product is needed")

    x, info = solver.gmres(matvec, np.zeros(7), rtol=1e-10, atol=0.0)
    assert info == 0
    assert np.array_equal(x, np.zeros(7))


def test_gmres_exact_breakdown_returns_the_exact_solution(monkeypatch):
    """A right-hand side that is an eigenvector spans an invariant Krylov
    space at the first step: one Arnoldi product, and the residual comes
    from its stored image."""
    monkeypatch.setattr(solver, "_KRYLOV_RESTART", 10)
    monkeypatch.setattr(solver, "_KRYLOV_MAX_RESTARTS", 5)
    a = _nonsymmetric(20, 8)
    a[1:, 0] = 0.0  # e_0 is an eigenvector with eigenvalue a[0, 0]
    b = np.zeros(20)
    b[0] = 3.0
    calls = []

    def matvec(v):
        calls.append(1)
        return a @ v, v

    x, info = solver.gmres(matvec, b, rtol=1e-15, atol=0.0)
    assert info == 0
    assert len(calls) == 1
    assert np.allclose(x, b / a[0, 0], rtol=1e-15, atol=0.0)


def test_newton_nonconvergence_carries_iterate(grid32, op32):
    with pytest.raises(ConvergenceError) as info:
        newton_solve(chafee_infante(3.0), op32, _const(grid32, 0.9), max_iter=1)
    err = info.value
    assert err.last_iterate is not None
    assert err.residual_norm > 0


# ---------------------------------------------------------------------------
# gradient flow
# ---------------------------------------------------------------------------


def test_flow_keeps_equilibrium(grid32, op32):
    out = gradient_flow_relax(chafee_infante(3.0), op32, _zero(grid32), 0.1, 10)
    assert out.sup_norm < 1e-12


@pytest.mark.parametrize("steps", [-3, 2.7])
def test_flow_rejects_a_step_count_that_is_not_a_count(grid32, op32, steps):
    with pytest.raises(ParameterError, match="steps"):
        gradient_flow_relax(chafee_infante(3.0), op32, _zero(grid32), 0.1, steps)


def test_flow_applies_one_laplacian_per_step(grid32, op32, laplacian_calls):
    mode = harmonic_mode(grid32, 2, 2)
    gradient_flow_relax(chafee_infante(6.5), op32, mode * 0.3, 0.05, 5)
    assert len(laplacian_calls) == 5


def test_flow_approaches_stable_constant(grid32, op32):
    """Constant data reduce the flow to the scalar ODE u' = lam u (1 - u^2);
    compare against an independent integration of that ODE."""
    from scipy.integrate import solve_ivp

    lam, dt, steps = 3.0, 0.02, 120
    u = _const(grid32, 0.1)
    sups = [u.sup_norm]
    for _ in range(6):
        u = gradient_flow_relax(chafee_infante(lam), op32, u, dt, steps // 6)
        sups.append(u.sup_norm)
    assert np.all(np.diff(sups) > 0)  # monotone approach from below
    ode = solve_ivp(
        lambda t, y: lam * y * (1 - y**2), (0, dt * steps), [0.1], rtol=1e-10,
        atol=1e-12,
    )
    assert u.sup_norm == pytest.approx(ode.y[0, -1], abs=0.05)
    assert u.sup_norm == pytest.approx(1.0, abs=0.05)


def test_flow_decays_stable_mode(grid32, op32):
    """Below the first dipole threshold (lam < 2) a small Y_1^0 bump decays."""
    u0 = harmonic_mode(grid32, 1, 0) * 0.01
    out = gradient_flow_relax(chafee_infante(1.0), op32, u0, 0.2, 40)
    assert out.sup_norm < 0.3 * u0.sup_norm


# ---------------------------------------------------------------------------
# bifurcation detection
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_integer_thresholds():
    points = detect_bifurcations(chafee_infante, (0.5, 13.0), 3)
    assert [l for _, l in points] == [1, 2, 3]
    for (lam, l), expected in zip(points, (2.0, 6.0, 12.0)):
        assert abs(lam - expected) < 1e-8
    # scan values 2e297 apart: each bracket is halved until it collapses,
    # onto the exact crossing, and no sign test multiplies two values
    points = detect_bifurcations(chafee_infante, (0.0, 1e300), 2)
    assert points == [(0.0, 0), (2.0, 1), (6.0, 2)]


def test_detect_empty_window():
    assert detect_bifurcations(chafee_infante, (0.5, 1.5), 3) == []


def test_detect_constant_mode_crossing():
    points = detect_bifurcations(chafee_infante, (-5.0, 0.5), 2)
    assert len(points) == 1
    lam, l = points[0]
    assert l == 0 and abs(lam) < 1e-8


def test_detect_requires_trivial_root():
    def family(lam):
        p = chafee_infante(lam)
        return type(p)(
            name="offset",
            eval_F=lambda u, q: p.eval_F(u, q) + 1.0,
            eval_Fu=p.eval_Fu,
            eval_Fq=p.eval_Fq,
            delta_floor=1.0,
            lam=lam,
        )

    with pytest.raises(ContractError):
        detect_bifurcations(family, (0.5, 3.0), 1)


def test_detect_refuses_a_nan_trivial_residual():
    """A NaN F(0, 0) is no trivial root: the check asks abs(F) <= 1e-12,
    which NaN fails, not abs(F) > 1e-12, which NaN would pass."""
    def family(lam):
        return dataclasses.replace(chafee_infante(lam), eval_F=lambda u, q: math.nan)

    with pytest.raises(ContractError, match="not an equilibrium"):
        detect_bifurcations(family, (0.5, 13.0), 3)


def test_detect_refuses_a_non_finite_fq_instead_of_dropping_crossings():
    """F_q(0, 0) is NaN above lambda = 4: the crossings at 6 and 12 are not
    dropped; the first scan value past 4 is named."""
    def family(lam):
        fq = math.nan if lam > 4.0 else 1.0
        return dataclasses.replace(chafee_infante(lam), eval_Fq=lambda u, q: fq)

    scan = np.linspace(0.5, 13.0, solver._SCAN_POINTS)
    first = scan[scan > 4.0][0]
    with pytest.raises(EvaluationError, match="F_q.* lambda=%.12g$" % first):
        detect_bifurcations(family, (0.5, 13.0), 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_refuses_a_non_finite_fu_instead_of_inventing_crossings():
    """F_u(0, 0) overflows to inf within 0.2 of lambda = 6: no crossing is
    lost at 6 or made up at 5.8 and 6.2, and numpy's overflow warning stays
    off, as in ``evaluate``."""
    def family(lam):
        big = np.float64(1e300 if abs(lam - 6.0) < 0.2 else 1.0)
        p = chafee_infante(lam)
        return dataclasses.replace(p, eval_Fu=lambda u, q: p.eval_Fu(u, q) * big * big)

    scan = np.linspace(0.5, 13.0, solver._SCAN_POINTS)
    first = scan[np.abs(scan - 6.0) < 0.2][0]
    with pytest.raises(EvaluationError, match="F_u.* lambda=%.12g$" % first):
        detect_bifurcations(family, (0.5, 13.0), 3)
    # the cubic family's roots stay where they were
    points = detect_bifurcations(chafee_infante, (0.5, 13.0), 3)
    assert [l for _, l in points] == [1, 2, 3]


@pytest.mark.parametrize(
    "lam_range, l_max, match",
    [((0.5, 13.0), -1, "l_max"), ((0.5, 13.0), 2.7, "l_max"),
     ((0.5, 13.0), float("nan"), "l_max"), ((0.5, float("inf")), 3, "finite"),
     ((float("-inf"), 13.0), 3, "finite"), ((float("nan"), 13.0), 3, "finite"),
     ((-1e308, 1e308), 1, "width")],
)
def test_detect_rejects_bad_degree_or_range(lam_range, l_max, match):
    with pytest.raises(ParameterError, match=match):
        detect_bifurcations(chafee_infante, lam_range, l_max)


def test_detect_first_of_a_run_of_exact_zeros_is_the_root():
    """g_0 = F_u(0, 0) is exactly 0 on [-1, 0] here: the scan's first zero
    sample is the one root of degree 0, and the degree-1 root at lambda = 2
    is still refined."""
    def family(lam):
        p = chafee_infante(lam)
        slope = max(lam, 0.0)
        return dataclasses.replace(
            p, eval_Fu=lambda u, q: slope * (1.0 - 3.0 * u * u)
        )

    points = detect_bifurcations(family, (-1.0, 3.0), 1)
    assert [l for _, l in points] == [0, 1]
    assert points[0][0] == -1.0
    assert abs(points[1][0] - 2.0) < 1e-12


def test_discrete_eigenvalues_mesh_independent():
    """Crossings recovered from the assembled discrete linearization agree
    across grids far more tightly than 1e-6."""
    crossings = {}
    for n_theta, n_phi in ((16, 32), (24, 48)):
        g = make_grid(n_theta, n_phi)
        op = make_operator(g, "spectral")
        u0 = eval_on_grid(g, lambda t, p: np.zeros_like(t))
        mat = jacobian_matrix(chafee_infante(0.0), op, u0)
        w = quadrature_weight_vector(g)
        sym = np.sqrt(w)[:, None] * mat / np.sqrt(w)[None, :]
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        crossings[(n_theta, n_phi)] = [
            -eigs[np.argmin(np.abs(eigs - (-l * (l + 1))))] for l in (1, 2)
        ]
    a = np.array(crossings[(16, 32)])
    b = np.array(crossings[(24, 48)])
    assert np.max(np.abs(a - b)) < 1e-6
    assert np.max(np.abs(a - np.array([2.0, 6.0]))) < 1e-9


# ---------------------------------------------------------------------------
# branch switching and continuation
# ---------------------------------------------------------------------------


def test_switch_guess_has_mode_structure():
    g = make_grid(24, 48)
    lam_start, guess = branch_switch(g, 6.0, 2, 2)
    assert lam_start == pytest.approx(6.25)
    ext = detect_axial_extrema(guess)
    assert ext.n == 4
    lam_start, axi = branch_switch(g, 2.0, 1, 0)
    assert np.max(np.abs(axi.values - axi.values[:, :1])) < 1e-12


def _sup_normalized(grid, l, m):
    mode = harmonic_mode(grid, l, m)
    return mode * (1.0 / mode.sup_norm)


@pytest.mark.parametrize("l, m, ratio", [(2, 0, 2.32), (2, 2, 1.75), (3, 0, 2.92),
                                         (3, 1, 2.06), (3, 3, None)])
@pytest.mark.parametrize("dlam0", [0.25, 1.4])
def test_switch_amplitude_is_the_cubic_one_mode_balance(l, m, ratio, dlam0):
    """For the cubic problem the one-mode balance at lam_start gives
    a^2 = dlam0 I2 / (lam_start I4), I2 and I4 the integrals of phi^2 and
    phi^4; on the sphere I2 / I4 is not the circle's 4/3."""
    grid = make_grid(48, 96)
    phi = _sup_normalized(grid, l, m)
    i2, i4 = integrate(phi * phi), integrate(phi * phi * phi * phi)
    if ratio is not None:
        assert round(i2 / i4, 2) == ratio
    lam, guess = branch_switch(grid, l * (l + 1.0), l, m, dlam0=dlam0)
    assert lam == l * (l + 1.0) + dlam0
    assert abs(guess.sup_norm - math.sqrt(dlam0 * i2 / (lam * i4))) <= 1e-12
    assert np.max(np.abs(guess.values - phi.values * guess.sup_norm)) <= 1e-15


def test_switch_amplitude_of_the_fully_nonlinear_problem():
    """For atan-elliptic, D^3F[phi] = -(2 L^3 + 6 lam) phi^3 with L = l(l+1)
    and c1 = (lam - 2L) I2, so a^2 = (lam - 2L) I2 / ((lam + L^3 / 3) I4).
    The central difference in s is off by O((h L)^2) for a non-cubic F."""
    grid = make_grid(48, 96)
    phi = _sup_normalized(grid, 2, 2)
    i2, i4 = integrate(phi * phi), integrate(phi * phi * phi * phi)
    lam, guess = branch_switch(grid, 12.0, 2, 2, dlam0=0.5, family=atan_elliptic)
    exact = math.sqrt((lam - 12.0) * i2 / ((lam + 72.0) * i4))
    assert guess.sup_norm == pytest.approx(exact, rel=5e-3)


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
@pytest.mark.parametrize("dlam0", [0.5, 1.0, 1.4])
def test_y30_starts_take_at_most_four_newton_steps(realization, dlam0):
    """The circle normal form started Y_3^0 a third below its branch, and
    Newton took 8 steps to reach it."""
    grid = make_grid(48, 96)
    lam, guess = branch_switch(grid, 12.0, 3, 0, dlam0=dlam0)
    eq = newton_solve(chafee_infante(lam), make_operator(grid, realization), guess,
                      tol=1e-9)
    assert eq.amplitude > 0.1
    assert eq.newton_iters <= 4


def _kappa_family(kappa):
    """F = q + kappa atan q + lam u (1 - u^2): F_q(0, 0) = 1 + kappa, so the
    degree-l crossing is at lam* = (1 + kappa) l(l+1)."""

    def family(lam):
        return NonlinearProblem(
            "kappa-atan",
            lambda u, q: q + kappa * np.arctan(q) + lam * u * (1.0 - u * u),
            lambda u, q: lam * (1.0 - 3.0 * u * u) + 0.0 * q,
            lambda u, q: 1.0 + kappa / (1.0 + q * q) + 0.0 * u,
            delta_floor=1.0, lam=lam,
        )

    return family


def test_switch_refuses_the_side_without_a_branch():
    """The cubic pitchfork is supercritical: its branch lies above lambda*.
    With kappa atan q added, <phi, D^3F[phi]> is proportional to
    2 kappa L^3 - 6 lam, which at l = 2 changes sign near kappa = 1/11: the
    branch turns to the side below lambda*."""
    grid = make_grid(48, 96)
    with pytest.raises(ParameterError, match="lies on side \\+1"):
        branch_switch(grid, 6.0, 2, 2, side=-1)
    branch_switch(grid, 6.0 * 1.05, 2, 2, family=_kappa_family(0.05))
    with pytest.raises(ParameterError, match="no branch on side \\+1.*lies on side -1"):
        branch_switch(grid, 6.0 * 1.2, 2, 2, family=_kappa_family(0.2))
    lam, guess = branch_switch(grid, 6.0 * 1.2, 2, 2, side=-1,
                               family=_kappa_family(0.2))
    assert lam == pytest.approx(6.95) and guess.sup_norm > 0.0


def test_switch_refuses_points_the_cubic_balance_does_not_cover():
    """A u^2 term gives Y_2^0 the one-mode quadratic coefficient
    <phi, 2 phi^2> != 0, a transcritical point; a linear F has no cubic
    coefficient.  Either start needs an explicit amplitude."""
    grid = make_grid(48, 96)

    def quadratic(lam):
        return NonlinearProblem(
            "quadratic",
            lambda u, q: q + lam * u * (1.0 - u * u) + u * u,
            lambda u, q: lam * (1.0 - 3.0 * u * u) + 2.0 * u + 0.0 * q,
            lambda u, q: 1.0 + 0.0 * (u + q),
            delta_floor=1.0, lam=lam,
        )

    def linear(lam):
        return NonlinearProblem(
            "linear", lambda u, q: q + lam * u, lambda u, q: lam + 0.0 * (u + q),
            lambda u, q: 1.0 + 0.0 * (u + q), delta_floor=1.0, lam=lam,
        )

    with pytest.raises(ParameterError, match="transcritical"):
        branch_switch(grid, 6.0, 2, 0, family=quadratic)
    with pytest.raises(ParameterError, match="no cubic term"):
        branch_switch(grid, 6.0, 2, 0, family=linear)
    for family in (quadratic, linear):
        lam, guess = branch_switch(grid, 6.0, 2, 0, family=family, amplitude=0.3)
        assert guess.sup_norm == pytest.approx(0.3)


@pytest.mark.parametrize("dlam0", [0.0, -0.25])
def test_switch_rejects_a_step_that_is_not_positive(dlam0):
    """side sets the direction; a step of 0 or below would put the start on
    the other side from the one the side names."""
    with pytest.raises(ParameterError, match="dlam0 must be > 0"):
        branch_switch(make_grid(16, 32), 6.0, 2, 2, dlam0=dlam0)


@pytest.mark.parametrize("lam_star", [float("nan"), float("inf")])
def test_switch_rejects_a_non_finite_lambda(lam_star):
    """Unchecked, a NaN lambda_star surfaces as a non-finite guess value."""
    with pytest.raises(ParameterError, match="lambda_star"):
        branch_switch(make_grid(16, 32), lam_star, 2, 2)


def test_switch_lands_off_trivial_branch():
    g = make_grid(24, 48)
    op = make_operator(g, "spectral")
    lam_start, guess = branch_switch(g, 6.0, 2, 2)
    eq = newton_solve(chafee_infante(lam_start), op, guess)
    assert eq.amplitude > guess.sup_norm / 2.0


def test_zero_length_continuation(grid32, op32):
    eq = newton_solve(chafee_infante(3.0), op32, _const(grid32, 0.9))
    branch = continue_branch(chafee_infante, op32, eq, 0.25, 0)
    assert len(branch) == 1 and branch[0] is eq
    with pytest.raises(ParameterError, match="n_steps"):
        continue_branch(chafee_infante, op32, eq, 0.25, -2)


def test_fractional_continuation_length_rejected():
    g = make_grid(16, 32)
    op = make_operator(g, "spectral")
    lam_start, guess = branch_switch(g, 6.0, 2, 2)
    start = newton_solve(chafee_infante(lam_start), op, guess)
    with pytest.raises(ParameterError, match="n_steps.*integer"):
        continue_branch(chafee_infante, op, start, 0.25, 2.7)
    assert len(continue_branch(chafee_infante, op, start, 0.25, 2.0)) == 3


def test_branch_amplitude_grows_supercritically():
    g = make_grid(24, 48)
    op = make_operator(g, "spectral")
    lam_start, guess = branch_switch(g, 6.0, 2, 2)
    start = newton_solve(chafee_infante(lam_start), op, guess)
    branch = continue_branch(chafee_infante, op, start, 0.25, 6)
    assert len(branch) == 7
    assert np.all(np.diff([p.amplitude for p in branch]) > 0)
    assert branch[-1].lam == pytest.approx(7.75)


@pytest.mark.parametrize("error", [ConvergenceError, LinearSolveError])
@pytest.mark.parametrize("fail_on", [1, 2, 4])
def test_continue_branch_keeps_the_points_before_a_failed_corrector(
    monkeypatch, error, fail_on
):
    """A corrector that fails after the first step ends the branch with the
    points it has; a failure of the first corrector is raised."""
    g = make_grid(24, 48)
    op = make_operator(g, "spectral")
    lam_start, guess = branch_switch(g, 6.0, 2, 2)
    start = newton_solve(chafee_infante(lam_start), op, guess)
    calls = []

    def failing_newton(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_on:
            raise error("corrector %d failed" % fail_on)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", failing_newton)
    if fail_on == 1:
        with pytest.raises(error, match="corrector 1 failed"):
            continue_branch(chafee_infante, op, start, 0.25, 6)
        return
    branch = continue_branch(chafee_infante, op, start, 0.25, 6)
    assert len(calls) == fail_on
    assert len(branch) == fail_on
    assert branch[0] is start
    assert branch[-1].lam == pytest.approx(lam_start + 0.25 * (fail_on - 1))


def test_branch_collapses_at_bifurcation_point():
    g = make_grid(24, 48)
    op = make_operator(g, "spectral")
    lam_start, guess = branch_switch(g, 6.0, 2, 2, dlam0=0.5)
    start = newton_solve(chafee_infante(lam_start), op, guess)
    branch = continue_branch(chafee_infante, op, start, -0.25, 8)
    assert len(branch) < 9  # stopped at or before the bifurcation point
    assert np.all(np.diff([p.amplitude for p in branch]) < 0)
    assert branch[-1].lam >= 6.0 - 0.25 - 1e-12


def test_flow_divergence_guard(grid32, op32):
    with pytest.raises(DivergenceError):
        gradient_flow_relax(
            chafee_infante(5.0), op32, _const(grid32, 3.0), dt=10.0, steps=5,
            blowup=10.0,
        )
