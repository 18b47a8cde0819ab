"""Equilibrium computation: matrix-free Newton-Krylov iteration,
trivial-branch bifurcation detection, eigenmode branch switching, and
natural-parameter continuation.  Also hosts the independent one-dimensional
circle solver used as an oracle for the sphere code.
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
from .grid import ScalarField, TWO_PI, bisect_roots
from .harmonics import apply_laplacian, apply_mode_blocks, harmonic_mode
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

    @property
    def lams(self):
        return np.array([p.lam for p in self.points])

    @property
    def amplitudes(self):
        return np.array([p.amplitude for p in self.points])


#: Amplitude (sup|u| over the grid nodes) below which a solve has landed on
#: the trivial state u == 0.
TRIVIAL_AMPLITUDE = 1e-7

#: GMRES budget of every Newton step's Krylov solve: relative tolerance,
#: Krylov vectors per restart cycle, and restart cycles.
_KRYLOV_RTOL = 1e-10
_KRYLOV_RESTART = 40
_KRYLOV_MAX_RESTARTS = 50

#: A mean-coefficient block whose largest entry times the largest entry of
#: its inverse exceeds this is singular to rounding: |M M^-1 - I| grows as
#: about 3e-16 times that product, so past 1e8 the inverse keeps less than
#: half the digits.  Newton's starting states read at most about 1e5 (FD,
#: 128x256), singular blocks at least about 4e14.
_SINGULAR_BLOCK = 1e8

#: Evenly spaced lambda values detect_bifurcations scans for sign changes.
_SCAN_POINTS = 512


def gmres(*args, **kwargs):
    """``scipy.sparse.linalg.gmres``, imported on first use: importing
    ``scipy.sparse.linalg`` takes about half a second, which commands that
    never solve a linear system (``gen``, ``audit``) should not pay."""
    from scipy.sparse.linalg import gmres as scipy_gmres

    return scipy_gmres(*args, **kwargs)


def _mean_coefficients(problem, grid, fu, fq):
    """Area-weighted sphere means (c_u, c_q) of the linearization
    coefficients fu and fq (quadrature weights per ring).  A zero c_q
    (to rounding) raises ContractError: the state is outside the uniformly
    elliptic class, and the Krylov split divides by c_q."""
    w = grid.theta_weights / np.sum(grid.theta_weights)
    coeff_u, coeff_q = (float(w @ c.mean(axis=1)) for c in (fu, fq))
    if abs(coeff_q) <= 1e-12 * np.max(np.abs(fq)):
        raise ContractError(
            "problem %r: F_q has zero mean over the sphere at this state, so "
            "it is not uniformly elliptic (F_q >= delta > 0) there" % problem.name
        )
    return coeff_u, coeff_q


class MeanModeInverse(NamedTuple):
    """Per-mode blocks of the inverse of M = coeff_u + coeff_q * Lap, for
    apply_mode_blocks, with the coefficients of the M they invert."""

    blocks: np.ndarray
    coeff_u: float
    coeff_q: float


def _mean_mode_inverse(op, coeff_u, coeff_q):
    """The MeanModeInverse of the mean-coefficient operator coeff_u +
    coeff_q * Lap.

    When a mode block is singular, exactly or to rounding (coeff_u == 0
    meets the constant mode or the zero spectral Nyquist block, or
    coeff_u == l(l+1) coeff_q meets degree l), the diagonal of every block
    is shifted by one small floor, and the returned coeff_u includes that
    shift, so the blocks invert the M that the returned coefficients
    describe.  A block counts as singular when its largest entry times the
    largest entry of its inverse exceeds ``_SINGULAR_BLOCK``."""
    ring = np.arange(op.grid.n_theta)
    a = coeff_q * op.blocks
    a[:, ring, ring] += coeff_u
    try:
        inv = np.linalg.inv(a)
        sup = np.abs(a).max(axis=(1, 2)) * np.abs(inv).max(axis=(1, 2))
        singular = np.max(sup) > _SINGULAR_BLOCK
    except np.linalg.LinAlgError:
        singular = True
    if not singular:
        return MeanModeInverse(inv, coeff_u, coeff_q)
    floor = 1e-6 * max(1.0, abs(coeff_u) + abs(coeff_q))
    shift = math.copysign(floor, coeff_u or 1.0)
    a[:, ring, ring] += shift
    return MeanModeInverse(np.linalg.inv(a), coeff_u + shift, coeff_q)


def _krylov_solve(fu, fq, precond, rhs, rtol, atol):
    """Solve (fu + fq * Lap) s = rhs matrix-free with restarted GMRES,
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
    grid values, up to the rounding of the inverse blocks (1e-9 to 3e-6
    relative from 32x64 to 128x256 when they carry the singular-block
    floor); otherwise LinearSolveError is raised.
    """
    from scipy.sparse.linalg import LinearOperator

    shape = rhs.shape
    scale = (fq / precond.coeff_q).ravel()
    shift = fu.ravel() - precond.coeff_u * scale

    def inverse(y):
        return apply_mode_blocks(precond.blocks, y.reshape(shape))

    # an explicit dtype keeps scipy from probing the operator with a zero
    # vector to infer one
    a = LinearOperator(
        (rhs.size, rhs.size),
        matvec=lambda y: scale * y + shift * inverse(y).ravel(),
        dtype=float,
    )
    y, info = gmres(
        a, rhs.ravel(), rtol=rtol, atol=atol, restart=_KRYLOV_RESTART,
        maxiter=_KRYLOV_MAX_RESTARTS,
    )
    if info != 0:
        raise LinearSolveError("GMRES stagnated (info=%d)" % info)
    return inverse(y)


def newton_solve(problem, op, guess, tol=1e-9, max_iter=30):
    """Newton iteration on F(u, Lap u) = 0 from ``guess``.

    Each step solves the linearized system F_u s + F_q Lap s = -F with
    restarted GMRES to a true linear residual (2-norm over grid values) of
    tol / 100 or 1e-10 relative, whichever is looser, then applies
    a damped update with a halving line search on the residual sup-norm.
    GMRES is right-preconditioned by the exact per-mode inverse of the
    mean-coefficient operator at the starting iterate (F_u and F_q replaced
    by their sphere means), formed once per solve at the first step and
    reused by every later one; a guess that already meets ``tol`` forms
    none.  Each GMRES iteration applies that inverse once and no Laplacian
    (see ``_krylov_solve``).  Each trial's one Lap u gives its residual and,
    once accepted, the next step's F_u and F_q.  Raises ContractError when
    F_q has zero sphere mean at the starting iterate, and ConvergenceError
    carrying the last iterate when the budget runs out.  ``tol`` must be
    finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be finite and positive, got %r" % (tol,))
    if max_iter < 0:
        raise ParameterError("max_iter must be non-negative")

    def state(u):
        q = apply_laplacian(op, u)
        r = evaluate(problem, "F", u.values, q.values)
        return u, q, r, float(np.max(np.abs(r)))

    u, q, r, r_norm = state(guess)
    precond = None
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
        step = _krylov_solve(fu, fq, precond, -r, _KRYLOV_RTOL, 0.01 * tol)
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
    finite and ``l_max`` a non-negative integer.
    Returns a list of (lam_star, l) sorted by lam_star.
    """
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("lambda range must be finite, got (%r, %r)" % (lo, hi))
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
    brk_l, brk_i = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
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
    if abs(m) > l:
        raise ParameterError("order |m|=%d exceeds degree l=%d" % (abs(m), l))
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


# ---------------------------------------------------------------------------
# one-dimensional circle oracle
# ---------------------------------------------------------------------------

#: circle_solve's Newton stops once the projected residual is at most
#: _CIRCLE_TOL, and fails after _CIRCLE_MAX_ITER iterations.
_CIRCLE_TOL = 1e-12
_CIRCLE_MAX_ITER = 60


@dataclass(frozen=True)
class CircleProfile:
    """Periodic equilibrium of u'' + lam * u * (1 - u^2) = 0 on the circle.

    ``values`` samples u on n uniform points of [0, 2*pi); the profile has
    fundamental period 2*pi / k_mode and is phase-fixed by u'(0) = 0 and
    u(0) > 0.  ``trivial`` flags the zero profile returned when no
    nontrivial solution exists (lam <= k^2).
    """

    n: int
    values: np.ndarray
    lam: float
    k_mode: int
    residual_norm: float
    trivial: bool

    @property
    def amplitude(self):
        return float(np.max(np.abs(self.values)))


def circle_normal_form_amplitude(lam, k):
    """Leading-order amplitude sqrt(4 (lam - k^2) / (3 lam)) of the branch."""
    if lam <= k * k:
        return 0.0
    return math.sqrt(4.0 * (lam - k * k) / (3.0 * lam))


def circle_solve(lam, k, n=256):
    """Nontrivial periodic equilibrium on the circle by cosine-Galerkin
    Newton iteration, independent of all sphere machinery: it shares no
    grid, operator or transform with the sphere code, and ``circle_extrema``
    refines its extrema with ``bisect_roots``, which takes plain arrays.

    Expands u(phi) = sum_j c_j cos(j*k*phi) (which enforces the phase fix
    structurally), collocates the residual on n uniform points, projects it
    back onto the cosine modes via FFT, and Newton-solves the coefficient
    system with a dense Jacobian until the projected residual is at most
    1e-12 (at most 60 iterations).  For lam <= k^2 the trivial profile is
    returned with ``trivial=True``; ``lam`` must be finite.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ParameterError("lambda must be finite, got %r" % (lam,))
    k = int(k)
    if k < 1:
        raise ParameterError("k must be a positive integer")
    if n < 16 or n % 2:
        raise ParameterError("n must be an even integer >= 16")
    if lam <= k * k:
        return CircleProfile(n, np.zeros(n), lam, k, 0.0, True)

    n_modes = n // (2 * k)
    if n_modes < 4:
        raise ParameterError("n too small to resolve period 2*pi/%d" % k)
    phi = TWO_PI * np.arange(n) / n
    synth = np.cos(np.outer(phi, k * np.arange(n_modes)))  # (n, n_modes)
    d2 = -((k * np.arange(n_modes, dtype=float)) ** 2)
    proj = synth.T * (2.0 / n)
    proj[0] *= 0.5

    c = np.zeros(n_modes)
    c[1] = circle_normal_form_amplitude(lam, k)
    for _ in range(_CIRCLE_MAX_ITER):
        u = synth @ c
        r = synth @ (d2 * c) + lam * u * (1.0 - u * u)
        rc = proj @ r
        if np.max(np.abs(rc)) <= _CIRCLE_TOL:
            break
        jac = (proj * (lam * (1.0 - 3.0 * u * u))) @ synth + np.diag(d2)
        c -= np.linalg.solve(jac, rc)
    else:
        raise ConvergenceError(
            "circle Newton did not converge", residual_norm=float(np.max(np.abs(rc)))
        )
    if c[np.argmax(np.abs(c))] < 0:
        c = -c  # pin u(0) > 0
    u = synth @ c

    # independent residual check on a 4x oversampled grid
    fine = 4 * n
    phi_f = TWO_PI * np.arange(fine) / fine
    synth_f = np.cos(np.outer(phi_f, k * np.arange(n_modes)))
    u_f = synth_f @ c
    res_f = synth_f @ (d2 * c) + lam * u_f * (1.0 - u_f * u_f)
    res_norm = float(np.max(np.abs(res_f)))
    trivial = bool(np.max(np.abs(u)) < 1e-8)
    return CircleProfile(n, u, lam, k, res_norm, trivial)


def circle_extrema(profile):
    """Longitudes in [0, 2*pi) of the extrema of a circle profile: exact
    zeros of the cosine-series derivative on 4096 uniform longitudes (one
    array product), and its sign changes between neighbouring samples, the
    one across 2*pi included, refined by one ``bisect_roots`` call.  Empty
    when the derivative series is identically zero (the trivial profile)."""
    n_modes = profile.n // (2 * profile.k_mode)
    k = profile.k_mode
    # recover coefficients by projection (profile stores only samples)
    phi = TWO_PI * np.arange(profile.n) / profile.n
    synth = np.cos(np.outer(phi, k * np.arange(n_modes)))
    proj = synth.T * (2.0 / profile.n)
    proj[0] *= 0.5
    c = proj @ profile.values
    freqs = k * np.arange(n_modes, dtype=float)
    if not np.any(c * freqs):
        return np.empty(0)  # a constant profile has no isolated extrema

    def du(x):
        return -(np.sin(np.outer(x, freqs)) @ (c * freqs))

    fine = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    vals = du(fine)
    ends = np.append(fine[1:], TWO_PI)
    brk = vals * np.roll(vals, -1) < 0.0
    roots = np.concatenate([fine[vals == 0.0], bisect_roots(du, fine[brk], ends[brk])])
    return np.sort(roots % TWO_PI)
