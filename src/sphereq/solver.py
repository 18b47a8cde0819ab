"""Equilibrium computation: matrix-free Newton-Krylov iteration,
trivial-branch bifurcation detection, eigenmode branch switching, and
natural-parameter continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    ConvergenceError,
    LinearSolveError,
    ParameterError,
)
from .grid import ScalarField, bisect_roots
from .harmonics import apply_laplacian, apply_mode_blocks, harmonic_mode, max_degree
from .problems import evaluate, linearization_coefficients


@dataclass(frozen=True)
class Equilibrium:
    """A converged solution at fixed lambda.

    ``residual_norm`` is the sup-norm of F(u, Lap u), guaranteed to be at
    most the recorded solve tolerance ``tol``.  ``amplitude`` is sup|u| over
    the grid nodes, so it depends on the grid.
    """

    lam: float
    u: ScalarField
    residual_norm: float
    newton_iters: int
    amplitude: float
    tol: float


@dataclass(frozen=True)
class Branch:
    """Equilibria ordered strictly monotonically in lambda."""

    points: tuple

    def __post_init__(self):
        lams = [p.lam for p in self.points]
        diffs = np.diff(lams)
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ContractError("branch lambdas must be strictly monotone")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


#: Amplitude (sup|u| over the grid nodes) below which a solve has landed on
#: the trivial state u == 0.
TRIVIAL_AMPLITUDE = 1e-7

#: GMRES budget of every Newton step's Krylov solve: the floor of the
#: relative tolerance, Krylov vectors per restart cycle, and restart cycles.
#: The relative tolerance itself is newton_solve's forcing term (Eisenstat
#: and Walker 1996, choice 2): _FORCING_MAX on the first step, then
#: _FORCING_GAMMA (r_k / r_{k-1})^2 for residual sup-norms r, clipped to
#: [_KRYLOV_RTOL, _FORCING_MAX], so each step's linear solve is only as
#: accurate as the nonlinear decrease it can deliver.  Their safeguard
#: against a sudden drop, max(eta_k, 0.9 eta_{k-1}^2) once that exceeds
#: 0.1, never acts under a cap of 1e-2.
_KRYLOV_RTOL = 1e-10
_KRYLOV_RESTART = 40
_KRYLOV_MAX_RESTARTS = 50
_FORCING_MAX = 1e-2
_FORCING_GAMMA = 0.9

#: Past this a mean-coefficient half block (even or odd, see
#: ``_mean_mode_inverse``) is singular to rounding, and its inverse keeps
#: less than half the digits.  A finite-difference half block is tested by
#: its entries: its largest entry times the largest entry of its LAPACK
#: inverse, which |M M^-1 - I| follows as about 3e-16 times; Newton's
#: starting states read at most about 8e5 (128x256), exactly singular
#: blocks at least about 8e14.  A spectral half block is tested by its
#: eigenvalues, d_l = c_u - c_q l(l+1) over its degrees and c_u when it
#: has a null part: singular when the largest |d| is at least this times
#: the smallest (so always when one is zero); Newton's starting states read
#: at most about 6e6 (128x256).
_SINGULAR_BLOCK = 1e8

#: Relative size below which gmres takes an orthogonalised Krylov vector for
#: zero: an exact breakdown.
_EPS = float(np.finfo(float).eps)

#: Evenly spaced lambda values detect_bifurcations scans for sign changes.
_SCAN_POINTS = 512


def gmres(matvec, b, rtol, atol, restart, maxiter):
    """Restarted GMRES (Saad and Schultz 1986) for A x = b from x = 0, where
    ``matvec(v)`` returns A v for a flat float array v.

    Each of at most ``maxiter`` cycles builds at most ``restart`` Arnoldi
    vectors, orthogonalised by classical Gram-Schmidt applied twice (two
    products with the basis per pass), and reduces the least-squares problem
    by Givens rotations.  A cycle ends when the rotated residual estimate
    meets the tolerance, when the basis is full, or at an exact breakdown
    (the Krylov space is invariant); the true residual b - A x is then
    recomputed, and the solve stops once its 2-norm is at most
    max(atol, rtol |b|).  Returns (x, info): info is 0 on success, otherwise
    the number of cycles run, when the budget runs out or a breakdown leaves
    the true residual above the tolerance.  ``maxiter`` must be positive.
    A b whose 2-norm overflows a double raises LinearSolveError.
    """
    if maxiter < 1:
        raise ParameterError("maxiter must be positive, got %r" % (maxiter,))
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    with np.errstate(over="ignore"):
        r_norm = float(np.linalg.norm(b))
    if not math.isfinite(r_norm):
        raise LinearSolveError(
            "the right-hand side's 2-norm overflows a double (largest entry "
            "%g)" % np.max(np.abs(b))
        )
    target = max(atol, rtol * r_norm)
    basis = np.empty((restart + 1, b.size))
    r = b
    for cycle in range(1, maxiter + 1):
        if r_norm <= target:
            return x, 0
        basis[0] = r / r_norm
        g = [r_norm]  # rotated right-hand side; |g[-1]| estimates |r|
        cols, rotations = [], []  # rotated Hessenberg columns, Givens (c, s)
        breakdown = False
        for j in range(restart):
            w = matvec(basis[j])
            w_norm = float(np.linalg.norm(w))
            v = basis[: j + 1]
            h = v @ w
            w = w - h @ v
            h2 = v @ w
            w -= h2 @ v
            col = (h + h2).tolist()
            col.append(float(np.linalg.norm(w)))
            breakdown = col[-1] <= _EPS * w_norm
            if not breakdown:
                basis[j + 1] = w / col[-1]
            for i, (c, s) in enumerate(rotations):
                lo, hi = col[i], col[i + 1]
                col[i], col[i + 1] = c * lo + s * hi, c * hi - s * lo
            d = math.hypot(col[j], col[j + 1])
            c, s = (col[j] / d, col[j + 1] / d) if d else (1.0, 0.0)
            col[j] = d
            del col[-1]
            cols.append(col)
            rotations.append((c, s))
            g.append(-s * g[j])
            g[j] *= c
            if breakdown or abs(g[-1]) <= target:
                break
        # back substitution on the triangle; a zero pivot (singular A) leaves
        # its component out
        y = [0.0] * len(cols)
        for i in reversed(range(len(cols))):
            acc = g[i] - sum(cols[k][i] * y[k] for k in range(i + 1, len(cols)))
            y[i] = acc / cols[i][i] if cols[i][i] else 0.0
        x += np.array(y) @ basis[: len(cols)]
        r = b - matvec(x)
        r_norm = float(np.linalg.norm(r))
        if breakdown and r_norm > target:
            return x, cycle
    return x, (0 if r_norm <= target else maxiter)


def _mean_coefficients(problem, grid, fu, fq):
    """Area-weighted sphere means (c_u, c_q) of the linearization
    coefficients fu and fq (quadrature weights per ring).  A zero c_q
    (to rounding) raises ContractError: the state is outside the uniformly
    elliptic class, and the Krylov split divides by c_q.  A mean that
    overflows a double raises LinearSolveError."""
    w = grid.theta_weights / np.sum(grid.theta_weights)
    with np.errstate(over="ignore"):
        coeff_u, coeff_q = (float(w @ c.mean(axis=1)) for c in (fu, fq))
    if not (math.isfinite(coeff_u) and math.isfinite(coeff_q)):
        raise LinearSolveError(
            "problem %r: the sphere means of F_u and F_q overflow a double "
            "at this state (%g, %g)" % (problem.name, coeff_u, coeff_q)
        )
    if abs(coeff_q) <= 1e-12 * np.max(np.abs(fq)):
        raise ContractError(
            "problem %r: F_q has zero mean over the sphere at this state, so "
            "it is not uniformly elliptic (F_q >= delta > 0) there" % problem.name
        )
    return coeff_u, coeff_q


class MeanModeInverse(NamedTuple):
    """Per-mode parity blocks ``(even, odd)`` of the inverse of M = coeff_u +
    coeff_q * Lap, for apply_mode_blocks, with the coefficients of the M
    they invert."""

    blocks: tuple
    coeff_u: float
    coeff_q: float


def _floor_shift(coeff_u, coeff_q):
    """The diagonal shift that lifts a mean-coefficient operator off a
    singular half block: 1e-6 max(1, |c_u| + |c_q|), with the sign of c_u
    (positive for c_u == 0)."""
    floor = 1e-6 * max(1.0, abs(coeff_u) + abs(coeff_q))
    return math.copysign(floor, coeff_u or 1.0)


def _mean_mode_inverse(op, coeff_u, coeff_q):
    """The MeanModeInverse of the mean-coefficient operator coeff_u +
    coeff_q * Lap, inverted half block by half block: M commutes with the
    equatorial flip, so its inverse has the even and odd halves of
    ``op.blocks`` too.

    A spectral operator is inverted in closed form from its Legendre factor
    (``OperatorHandle.legendre_factor``, P its rows and W its weights): its
    half block of mode m is P^T diag(-l(l+1)) P W, and P W P^T = I, so

        M^-1 = [null] I / c_u + P^T diag(1/d - [null] / c_u) P W,

    with d_l = c_u - c_q l(l+1) over the block's degrees and [null] = 1 on a
    block with fewer degrees than rings (its remaining directions are
    M's eigenvectors with eigenvalue c_u), 0 on one without.  P W P^T = I
    holds only to about 1e-14, so one Newton-Schulz step against the stored
    blocks, X <- X + X (I - M X), brings max|M X - I| down to LAPACK's
    level (about 4e-14 at 48x96 and 4e-13 at 128x256).  A finite-difference
    operator's half blocks are inverted by ``np.linalg.inv``.

    When a half block is singular, exactly or to rounding (coeff_u == 0
    meets the constant mode or the zero spectral Nyquist block, or
    coeff_u == l(l+1) coeff_q meets degree l), the diagonal of every half
    block is shifted by one small floor, and the returned coeff_u includes
    that shift, so the blocks invert the M that the returned coefficients
    describe.  ``_SINGULAR_BLOCK`` states when a half block counts as
    singular."""
    if op.realization == "spectral":
        return _spectral_mean_inverse(op, coeff_u, coeff_q)
    halves = [coeff_q * half for half in op.blocks]

    def shift_diagonals(value):
        for a in halves:
            ring = np.arange(a.shape[1])
            a[:, ring, ring] += value

    shift_diagonals(coeff_u)
    try:
        inv = tuple(np.linalg.inv(a) for a in halves)
        singular = any(
            np.max(np.abs(a).max(axis=(1, 2)) * np.abs(b).max(axis=(1, 2)))
            > _SINGULAR_BLOCK
            for a, b in zip(halves, inv)
        )
    except np.linalg.LinAlgError:
        singular = True
    if not singular:
        return MeanModeInverse(inv, coeff_u, coeff_q)
    shift = _floor_shift(coeff_u, coeff_q)
    shift_diagonals(shift)
    return MeanModeInverse(
        tuple(np.linalg.inv(a) for a in halves), coeff_u + shift, coeff_q
    )


def _spectral_mean_inverse(op, coeff_u, coeff_q):
    """``_mean_mode_inverse`` of a spectral operator, in closed form from
    its Legendre factor."""
    cap = max_degree(op.grid)
    halves = []
    singular = False
    for (p, l, w), block in zip(op.legendre_factor, op.blocks):
        present = l <= cap
        # fewer degrees than rings: M is c_u on the rest, the null part
        null = present.sum(axis=1) < p.shape[2]
        ll1 = l * (l + 1.0)
        # M's eigenvalues per block: d_l on its degrees, c_u on a null part
        d = np.abs(np.column_stack((coeff_u - coeff_q * ll1,
                                    np.full(null.size, coeff_u))))
        counted = np.column_stack((present, null))
        big = np.max(d, axis=1, where=counted, initial=0.0)
        small = np.min(d, axis=1, where=counted, initial=np.inf)
        singular |= bool(np.any(big >= _SINGULAR_BLOCK * small))
        halves.append((p, w, block, present, null, ll1))
    if singular:
        coeff_u += _floor_shift(coeff_u, coeff_q)
    inv = []
    for p, w, block, present, null, ll1 in halves:
        null_part = null / coeff_u
        coef = np.divide(1.0, coeff_u - coeff_q * ll1, out=np.zeros(ll1.shape),
                         where=present)
        coef -= np.where(present, null_part[:, None], 0.0)
        x = np.matmul(np.swapaxes(p, 1, 2) * coef[:, None, :], p * w)
        ring = np.arange(x.shape[1])
        x[:, ring, ring] += null_part[:, None]
        residual = np.matmul(block, x)  # I - M X, M = c_u + c_q * block
        residual *= -coeff_q
        residual -= coeff_u * x
        residual[:, ring, ring] += 1.0
        x += np.matmul(x, residual)
        inv.append(x)
    return MeanModeInverse(tuple(inv), coeff_u, coeff_q)


def _krylov_solve(fu, fq, precond, rhs, rtol, atol):
    """Solve (fu + fq * Lap) s = rhs matrix-free with ``gmres`` (40 Krylov
    vectors per cycle, at most 50 cycles) on a plain matvec callable,
    right-preconditioned by ``precond``, a MeanModeInverse that the caller
    forms once and reuses across its solves.

    With M = c_u + c_q * Lap the operator ``precond`` inverts, the system
    operator splits exactly as

        fu + fq * Lap = (fq / c_q) M + (fu - c_u fq / c_q),

    so GMRES runs on A M^-1 y = (fq / c_q) y + (fu - c_u fq / c_q) M^-1 y and
    returns s = M^-1 y.  Each iteration is one mode-block application and
    two pointwise products, with no Laplacian.  GMRES's residual is then the
    true linear residual, so the returned s meets
    |(fu + fq * Lap) s - rhs| <= max(atol, rtol |rhs|) in the 2-norm over
    grid values, up to the rounding of the inverse blocks X: max|M X - I|
    is 1e-12 or less for well-separated coefficients, and at most 1e-6 up
    to 48x96 and 1e-5 at 128x256 when the blocks carry the singular-block
    floor (measured: 2e-7 and 6e-6 at c_u = 0); otherwise LinearSolveError
    is raised.
    """
    shape = rhs.shape
    scale = (fq / precond.coeff_q).ravel()
    shift = fu.ravel() - precond.coeff_u * scale

    def inverse(y):
        return apply_mode_blocks(precond.blocks, y.reshape(shape))

    y, info = gmres(
        lambda y: scale * y + shift * inverse(y).ravel(), rhs.ravel(), rtol=rtol,
        atol=atol, restart=_KRYLOV_RESTART, maxiter=_KRYLOV_MAX_RESTARTS,
    )
    if info != 0:
        raise LinearSolveError("GMRES stagnated (info=%d)" % info)
    return inverse(y)


def newton_solve(problem, op, guess, tol=1e-9, max_iter=30):
    """Newton iteration on F(u, Lap u) = 0 from ``guess``.

    Each step solves the linearized system F_u s + F_q Lap s = -F with the
    package's own restarted GMRES (``gmres``, numpy only) to a true linear
    residual (2-norm over grid values) of tol / 100 or eta_k relative,
    whichever is looser, and raises LinearSolveError when its budget runs
    out; it then applies a damped update with a halving line search on the
    residual sup-norm.  The forcing term eta_k (Eisenstat and Walker 1996,
    choice 2) is 1e-2 on the first step and
    min(1e-2, max(1e-10, 0.9 (r_k / r_{k-1})^2)) after it, for the residual
    sup-norms r of the last two iterates: loose while the residual falls
    slowly, down to 1e-10 relative once Newton converges fast.  The stop
    is r <= tol whatever the forcing terms were.
    GMRES is right-preconditioned by the exact per-mode inverse of the
    mean-coefficient operator at the starting iterate (F_u and F_q replaced
    by their sphere means), inverted on the even and odd halves of each
    mode block (in closed form from the operator's Legendre factor for the
    spectral realization, which the operator forms at its first solve and
    keeps; by LAPACK for finite differences), formed once per solve at the
    first step and reused by every later one; a guess that already meets
    ``tol`` forms none.  Each GMRES iteration applies that inverse once and
    no Laplacian (see ``_krylov_solve``).  Each trial's one Lap u gives its
    residual and, once accepted, the next step's F_u and F_q.  Raises
    ContractError when F_q has zero sphere mean at the starting iterate,
    LinearSolveError when that mean or F_u's, or a residual's 2-norm,
    overflows a double, and ConvergenceError carrying the last iterate when
    the budget runs out.  ``tol`` must be finite and positive, and
    ``max_iter`` a non-negative integer.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be finite and positive, got %r" % (tol,))
    if not (float(max_iter).is_integer() and max_iter >= 0):
        raise ParameterError(
            "max_iter must be non-negative and an integer, got %r" % (max_iter,)
        )

    def state(u):
        q = apply_laplacian(op, u)
        r = evaluate(problem, "F", u.values, q.values)
        return u, q, r, float(np.max(np.abs(r)))

    u, q, r, r_norm = state(guess)
    precond = None
    eta = _FORCING_MAX
    iters = 0
    while r_norm > tol:
        if iters == max_iter:
            raise ConvergenceError(
                "Newton did not reach tol=%g in %d iterations (residual %g)"
                % (tol, max_iter, r_norm),
                last_iterate=u,
                residual_norm=r_norm,
            )
        fu, fq = linearization_coefficients(problem, u, q)
        if precond is None:
            precond = _mean_mode_inverse(
                op, *_mean_coefficients(problem, u.grid, fu, fq)
            )
        step = _krylov_solve(fu, fq, precond, -r, eta, 0.01 * tol)
        for alpha in 0.5 ** np.arange(12.0):  # 1, 1/2, ..., 2**-11
            trial = state(ScalarField(u.grid, u.values + alpha * step))
            if trial[3] < r_norm:
                break
        else:
            raise ConvergenceError(
                "line search failed at residual %g" % r_norm,
                last_iterate=u,
                residual_norm=r_norm,
            )
        ratio = trial[3] / r_norm
        eta = min(_FORCING_MAX, max(_KRYLOV_RTOL, _FORCING_GAMMA * ratio * ratio))
        u, q, r, r_norm = trial
        iters += 1
    return Equilibrium(
        lam=problem.lam,
        u=u,
        residual_norm=r_norm,
        newton_iters=iters,
        amplitude=u.sup_norm,
        tol=tol,
    )


def detect_bifurcations(problem_family, lam_range, l_max):
    """Parameter values where the linearization at the trivial state u == 0
    crosses zero on a harmonic of degree l = 0..l_max.

    The trivial state must satisfy F(0, 0) = 0 across the range (verified).
    Crossings are roots of g_l(lam) = F_u(0,0; lam) - l(l+1) F_q(0,0; lam),
    scanned for every degree at 512 evenly spaced values (one problem per
    value).  The first of a run of exact zeros is a root, and each sign
    change is refined by one ``bisect_roots`` call.  ``lam_range`` must be
    finite, and so must its width hi - lo: a window wider than the largest
    double raises ParameterError before any scan value is formed.
    ``l_max`` must be a non-negative integer.
    Returns a list of (lam_star, l) sorted by lam_star.
    """
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not math.isfinite(hi - lo):
        raise ParameterError(
            "lambda range must be finite, and so must its width lambda_max - "
            "lambda_min, got (%r, %r)" % (lo, hi)
        )
    if not hi > lo:
        raise ParameterError("empty lambda range")
    if not (float(l_max).is_integer() and l_max >= 0):
        raise ParameterError("l_max must be a non-negative integer, got %r" % (l_max,))
    for lam in np.linspace(lo, hi, 9):
        p = problem_family(lam)
        if abs(float(np.asarray(p.eval_F(0.0, 0.0)))) > 1e-12:
            raise ContractError(
                "u == 0 is not an equilibrium at lambda=%g; "
                "trivial-branch bifurcation detection does not apply" % lam
            )

    def g(lams, ll1):
        """g_l at each lambda, for l(l+1) = ll1 broadcast against lams."""
        coeffs = [(p.eval_Fu(0.0, 0.0), p.eval_Fq(0.0, 0.0))
                  for p in map(problem_family, lams)]
        fu, fq = np.array(coeffs, dtype=float).reshape(-1, 2).T  # also for no lams
        return fu - ll1 * fq

    scan = np.linspace(lo, hi, _SCAN_POINTS)
    l = np.arange(int(l_max) + 1.0)
    vals = g(scan, (l * (l + 1))[:, None])  # (degree, scan value)
    zero = vals == 0.0
    zero[:, 1:] &= ~zero[:, :-1]  # the first of a run of exact zeros
    zero_l, zero_i = np.nonzero(zero)
    brk_l, brk_i = np.nonzero(np.abs(np.diff(np.sign(vals))) == 2.0)  # strict changes
    ll1 = brk_l * (brk_l + 1.0)
    roots = bisect_roots(lambda lams: g(lams, ll1), scan[brk_i], scan[brk_i + 1])
    return sorted(zip(np.append(scan[zero_i], roots).tolist(),
                      np.append(zero_l, brk_l).tolist()))


def branch_switch(grid, lam_star, l, m, amplitude=None, side=1, dlam0=0.25):
    """Initial point for a nontrivial branch emerging at ``lam_star``.

    Returns (lam_start, guess) with lam_start = lam_star + side * dlam0 and
    guess = amplitude * Y_l^m / sup|Y_l^m|.  The default amplitude is the
    cubic normal-form estimate sqrt(4 |lam_start - lam_star| / (3 lam_start)),
    which is exact to leading order for the built-in cubic problem.  Using
    the cosine-type harmonic (m >= 0) pins the rotational phase of the
    branch at phi = 0.  ``lam_star``, ``dlam0`` and a given ``amplitude``
    must be finite, and the amplitude positive.
    """
    if side not in (1, -1):
        raise ParameterError("side must be +1 or -1")
    lam_start = lam_star + side * dlam0
    if not math.isfinite(lam_start):
        raise ParameterError(
            "lambda_star and dlam0 must be finite, got %r and %r" % (lam_star, dlam0)
        )
    if amplitude is None:
        denom = 3.0 * lam_start
        if denom <= 0:
            raise ParameterError(
                "default amplitude undefined at lam_start=%g; pass amplitude" % lam_start
            )
        amplitude = math.sqrt(4.0 * abs(lam_start - lam_star) / denom)
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ParameterError("amplitude must be finite and > 0, got %r" % (amplitude,))
    mode = harmonic_mode(grid, l, m)
    guess = mode * (amplitude / mode.sup_norm)
    return lam_start, guess


def continue_branch(problem_family, op, start, dlam, n_steps, tol=1e-9):
    """Natural-parameter continuation with a secant predictor in u.

    Marches from a converged ``start`` in ``n_steps`` steps (a non-negative
    integer) of ``dlam``; each new point is corrected by Newton to ``tol``.
    Stops early (returning the partial branch) on non-convergence after the
    first step, or when the corrected point's amplitude (sup|u| over the
    grid nodes) falls below TRIVIAL_AMPLITUDE -- the branch has collapsed
    onto the trivial state, which happens when continuation runs back into
    the bifurcation point.
    """
    if not (float(n_steps).is_integer() and n_steps >= 0):
        raise ParameterError(
            "n_steps must be non-negative and an integer, got %r" % (n_steps,)
        )
    if dlam == 0 and n_steps > 0:
        raise ParameterError("dlam must be nonzero for a nontrivial continuation")
    if start.residual_norm > start.tol:
        raise ContractError("start point is not converged")
    points = [start]
    prev_u = None
    for k in range(int(n_steps)):
        lam_next = points[-1].lam + dlam
        if prev_u is None:
            guess = points[-1].u
        else:
            guess = ScalarField(
                points[-1].u.grid, 2.0 * points[-1].u.values - prev_u.values
            )
        problem = problem_family(lam_next)
        try:
            eq = newton_solve(problem, op, guess, tol=tol)
        except (ConvergenceError, LinearSolveError):
            if k == 0:
                raise
            break
        if eq.amplitude < TRIVIAL_AMPLITUDE:
            break
        prev_u = points[-1].u
        points.append(eq)
    return Branch(tuple(points))

