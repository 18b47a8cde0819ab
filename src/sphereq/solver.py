"""Equilibrium computation: matrix-free Newton-Krylov iteration,
trivial-branch bifurcation detection, eigenmode branch switching, and
natural-parameter continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    ConvergenceError,
    EvaluationError,
    LinearSolveError,
    ParameterError,
    _integer,
)
from .grid import ScalarField, bisect_roots, integrate
from .harmonics import (apply_laplacian, apply_mode_blocks, harmonic_mode,
                        mean_mode_inverse)
from .problems import (TRIVIAL_AMPLITUDE, chafee_infante, evaluate,
                       linearization_coefficients)


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

#: Relative size below which gmres takes an orthogonalised Krylov vector for
#: zero: an exact breakdown.
_EPS = float(np.finfo(float).eps)

#: Evenly spaced lambda values detect_bifurcations scans for sign changes.
_SCAN_POINTS = 512

#: Step in s of branch_switch's central differences of d/ds F(s phi, s q).
#: They are exact up to rounding (about 1e-13 relative at 48x96) when F is
#: cubic in (u, q); otherwise they are off by O((h l(l+1))^2): 0.2% of
#: atan-elliptic's cubic coefficient at l = 2 and 2% at l = 4, well below
#: the error of a one-mode balance.  A step of 1e-3 leaves the cubic's
#: amplitude 1e-11 off by rounding.
_SWITCH_STEP = 1e-2
#: A quadratic coefficient <phi, G(h) - G(-h)> at most this fraction of
#: <|phi|, |G(h)| + |G(-h)|> is rounding: an odd F gives exactly 0 or a few
#: units of double precision.
_QUADRATIC_TOL = 1e-8


def gmres(matvec, b, rtol, atol):
    """Restarted, right-preconditioned GMRES in the flexible form (Saad
    1993) for A x = b from x = 0.  ``matvec(v)``, for a flat float array v,
    returns the pair (A z, z), where z is the vector v stands for in the
    solution space: z = M^-1 v for a right preconditioner M, or v itself
    for a plain (A v, v); gmres reads z only until the cycle's update, so z
    may be a view of v.

    Each of at most _KRYLOV_MAX_RESTARTS (50) cycles builds at most
    _KRYLOV_RESTART (40) Arnoldi vectors v_j, orthogonalised by classical
    Gram-Schmidt applied twice (two products with the basis per pass), and
    reduces the least-squares problem by Givens rotations.  It keeps each
    z_j and each image w_j = A z_j as ``matvec`` returned them, so the
    cycle's update is x += sum y_j z_j and its residual r -= sum y_j w_j: no
    product follows the last Arnoldi step.  A cycle ends when the rotated
    residual estimate meets the tolerance, when the basis is full, or at an
    exact breakdown (the Krylov space is invariant); the solve stops once
    the 2-norm of the residual formed from the images, not the estimate, is
    at most max(atol, rtol |b|).  Returns (x, info): x solves A x = b (the
    preconditioned solution, not the Krylov coordinates), and info is 0 on
    success, otherwise the number of cycles run, when the budget runs out or
    a breakdown leaves the residual above the tolerance.  A b with a NaN or
    infinite entry, or whose 2-norm overflows a double, raises
    LinearSolveError naming the first such entry or the overflow.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    with np.errstate(over="ignore"):
        r_norm = float(np.linalg.norm(b))
    if not math.isfinite(r_norm):
        bad = np.flatnonzero(~np.isfinite(b))
        if bad.size:
            raise LinearSolveError(
                "the right-hand side holds a non-finite entry (%g at index %d)"
                % (b.flat[bad[0]], bad[0])
            )
        raise LinearSolveError(
            "the right-hand side's 2-norm overflows a double (largest entry "
            "%g)" % np.max(np.abs(b))
        )
    target = max(atol, rtol * r_norm)
    basis = np.empty((_KRYLOV_RESTART + 1, b.size))
    r = b.copy()
    for cycle in range(1, _KRYLOV_MAX_RESTARTS + 1):
        if r_norm <= target:
            return x, 0
        basis[0] = r / r_norm
        g = [r_norm]  # rotated right-hand side; |g[-1]| estimates |r|
        cols, rotations = [], []  # rotated Hessenberg columns, Givens (c, s)
        images, solutions = [], []  # w_j = A z_j and z_j, as matvec returned them
        breakdown = False
        for j in range(_KRYLOV_RESTART):
            w, z = matvec(basis[j])
            images.append(w)
            solutions.append(z)
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
        # row by row: stacking the rows would allocate, and fault in, a
        # fresh (_KRYLOV_RESTART, n) array every cycle
        for y_j, w_j, z_j in zip(y, images, solutions):
            x += y_j * z_j
            r -= y_j * w_j
        r_norm = float(np.linalg.norm(r))
        if breakdown and r_norm > target:
            return x, cycle
    return x, (0 if r_norm <= target else _KRYLOV_MAX_RESTARTS)


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


def _krylov_solve(fu, fq, precond, rhs, rtol, atol):
    """Solve (fu + fq * Lap) s = rhs matrix-free with ``gmres`` (40 Krylov
    vectors per cycle, at most 50 cycles), right-preconditioned by
    ``precond``, the ``harmonics.mean_mode_inverse`` that the caller forms
    once and reuses across its solves.

    With M = c_u + c_q * Lap the operator ``precond`` inverts, the system
    operator splits exactly as

        fu + fq * Lap = (fq / c_q) M + (fu - c_u fq / c_q),

    so for a Krylov vector v the matvec forms z = M^-1 v by one application
    of the inverse's mode blocks (``apply_mode_blocks``) and returns
    ((fq / c_q) v + (fu - c_u fq / c_q) z, z), with no Laplacian.  GMRES
    keeps each z and returns s = sum y_j z_j itself, so no block
    application follows its last Arnoldi step.  Its residual, formed from
    the returned images, is the true linear residual up to rounding, so s
    meets |(fu + fq * Lap) s - rhs| <= max(atol, rtol |rhs|) in the 2-norm
    over grid values, up to the rounding of the inverse blocks X:
    max|M X - I| is 1e-12 or less for well-separated coefficients, and at
    most 1e-6 up to 48x96 and 1e-5 at 128x256 when the blocks carry the
    singular-block floor (measured: 2e-7 and 6e-6 at c_u = 0); otherwise
    LinearSolveError is raised.
    """
    shape = rhs.shape
    scale = (fq / precond.coeff_q).ravel()
    shift = fu.ravel() - precond.coeff_u * scale

    def matvec(v):
        z = apply_mode_blocks(precond.blocks, v.reshape(shape)).ravel()
        return scale * v + shift * z, z

    s, info = gmres(matvec, rhs.ravel(), rtol=rtol, atol=atol)
    if info != 0:
        raise LinearSolveError("GMRES stagnated (info=%d)" % info)
    return s.reshape(shape)


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
    by their sphere means), which the operator's module forms
    (``harmonics.mean_mode_inverse``) once per solve at the first step and
    every later step reuses; a guess that already meets ``tol`` forms none.
    Each GMRES iteration applies that inverse once and no Laplacian, and
    GMRES returns the step itself, with its residual formed from the images
    it kept, so a step applies the inverse once per Arnoldi vector and no
    more (see ``gmres`` and ``_krylov_solve``).  Each trial's one Lap u
    gives its residual and, once accepted, the next step's F_u and F_q.
    Raises ContractError when F_q has zero sphere mean at the starting
    iterate, LinearSolveError when that mean or F_u's, or a residual's
    2-norm, overflows a double, and ConvergenceError carrying the last
    iterate when the budget runs out.  ``tol`` must be finite and positive,
    and ``max_iter`` a non-negative integer.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be finite and positive, got %r" % (tol,))
    max_iter = _integer(max_iter, "max_iter")

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
            precond = mean_mode_inverse(
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
    value), with numpy's warnings off as in ``evaluate``: a non-finite F_u
    or F_q at a scan or bisection value raises EvaluationError naming the
    first such lambda.  The first of a run of exact zeros is a root, and
    each sign change is refined by one ``bisect_roots`` call.  ``lam_range``
    must be finite, and so must its width hi - lo: a window wider than the
    largest double raises ParameterError before any scan value is formed.
    ``l_max`` must be a non-negative integer.  Returns a list of
    (lam_star, l) sorted by lam_star.
    """
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not math.isfinite(hi - lo):
        raise ParameterError(
            "lambda range must be finite, and so must its width lambda_max - "
            "lambda_min, got (%r, %r)" % (lo, hi)
        )
    if not hi > lo:
        raise ParameterError("empty lambda range")
    l_max = _integer(l_max, "l_max")
    for lam in np.linspace(lo, hi, 9):
        with np.errstate(all="ignore"):
            f0 = float(np.asarray(problem_family(lam).eval_F(0.0, 0.0)))
        if not abs(f0) <= 1e-12:  # a NaN F(0, 0) is refused too
            raise ContractError(
                "u == 0 is not an equilibrium at lambda=%g; "
                "trivial-branch bifurcation detection does not apply" % lam
            )

    def g(lams, ll1):
        """g_l at each lambda, for l(l+1) = ll1 broadcast against lams."""
        with np.errstate(all="ignore"):
            coeffs = [(p.eval_Fu(0.0, 0.0), p.eval_Fq(0.0, 0.0))
                      for p in map(problem_family, lams)]
        coeffs = np.array(coeffs, dtype=float).reshape(-1, 2)  # also for no lams
        bad = np.argwhere(~np.isfinite(coeffs))
        if bad.size:
            raise EvaluationError("%s(0, 0) is not finite at lambda=%.12g"
                                  % (("F_u", "F_q")[bad[0, 1]], lams[bad[0, 0]]))
        return coeffs[:, 0] - ll1 * coeffs[:, 1]

    scan = np.linspace(lo, hi, _SCAN_POINTS)
    l = np.arange(l_max + 1.0)
    vals = g(scan, (l * (l + 1))[:, None])  # (degree, scan value)
    zero = vals == 0.0
    zero[:, 1:] &= ~zero[:, :-1]  # the first of a run of exact zeros
    zero_l, zero_i = np.nonzero(zero)
    brk_l, brk_i = np.nonzero(np.abs(np.diff(np.sign(vals))) == 2.0)  # strict changes
    ll1 = brk_l * (brk_l + 1.0)
    roots = bisect_roots(lambda lams: g(lams, ll1), scan[brk_i], scan[brk_i + 1])
    return sorted(zip(np.append(scan[zero_i], roots).tolist(),
                      np.append(zero_l, brk_l).tolist()))


def _one_mode_amplitude(problem, phi, ll1, side):
    """Amplitude a of the one-mode Galerkin balance c1 a + c2 a^2 + c3 a^3 = 0
    of ``problem`` along the sup-normalized harmonic ``phi`` of degree l,
    l(l+1) = ``ll1``, with q = Lap phi = -l(l+1) phi exact.

    With G(s) = d/ds F(s phi, s q) = F_u phi + F_q q at (s phi, s q), the
    coefficients are c1 = <phi, G(0)> = g_l(lam) <phi, phi>,
    c2 = <phi, G'(0)> / 2 and c3 = <phi, G''(0)> / 6, the inner products
    by ``integrate``.  G' and G'' are central differences with step
    _SWITCH_STEP.  A c2 above the rounding of those differences marks a
    transcritical point and raises ParameterError, as does a zero c3 and a
    balance without a root a > 0 on the requested ``side`` of lambda*; then
    the branch lies on the other side.
    """
    h = _SWITCH_STEP
    q = phi * -ll1

    def slope(s):
        u_s, q_s = s * phi.values, s * q.values
        return (evaluate(problem, "F_u", u_s, q_s) * phi.values
                + evaluate(problem, "F_q", u_s, q_s) * q.values)

    lo, mid, hi = slope(-h), slope(0.0), slope(h)
    project = lambda w, v: integrate(ScalarField(phi.grid, w * v))
    size = project(np.abs(phi.values), np.abs(hi) + np.abs(lo))
    if abs(project(phi.values, hi - lo)) > _QUADRATIC_TOL * size:
        raise ParameterError(
            "problem %r has a quadratic term along this mode (<phi, D^2F[phi]> "
            "!= 0): a transcritical point, which the cubic one-mode balance "
            "does not cover; pass amplitude" % problem.name
        )
    c1 = project(phi.values, mid)
    c3 = project(phi.values, hi - 2.0 * mid + lo) / (6.0 * h * h)
    if c3 == 0.0:
        raise ParameterError(
            "problem %r has no cubic term along this mode, so the one-mode "
            "balance fixes no amplitude; pass amplitude" % problem.name
        )
    a2 = -c1 / c3
    if not a2 > 0.0:
        raise ParameterError(
            "problem %r has no branch on side %+d of lambda*: the one-mode "
            "balance at lambda = %g gives amplitude^2 = %g; the branch lies on "
            "side %+d" % (problem.name, side, problem.lam, a2, -side)
        )
    return math.sqrt(a2)


def branch_switch(grid, lam_star, l, m, amplitude=None, side=1, dlam0=0.25,
                  family=chafee_infante):
    """Initial point for the branch of ``family`` that bifurcates from
    u == 0 at ``lam_star`` along the degree-l harmonics.

    Returns (lam_start, guess) with lam_start = lam_star + side * dlam0 and
    guess = amplitude * phi, phi = Y_l^m / sup|Y_l^m|; the cosine-type
    harmonic (m >= 0) pins the branch's rotational phase at phi = 0.

    The default amplitude is the root a > 0 of the problem's one-mode
    Galerkin balance at lam_start (a Lyapunov-Schmidt reduction onto phi;
    Crandall and Rabinowitz 1971, Kielhofer 2012, section I.6):
    a^2 = -c1 / c3, where c1 = <phi, DF[phi]> = g_l(lam_start) <phi, phi>
    with g_l = F_u(0, 0) - l(l+1) F_q(0, 0), c3 = <phi, D^3F[phi]> / 6 with
    D^3F[phi] = d^3/ds^3 F(s phi, s Lap phi) at s = 0, and <.,.> the
    sphere quadrature.  D^3F comes from central second differences in s of
    the problem's F_u and F_q (step 1e-2), exact up to rounding when F is
    cubic; for ``chafee_infante`` the amplitude is
    sqrt(dlam0 I2 / (lam_start I4)), I2 and I4 the integrals of phi^2 and
    phi^4.  The balance is taken at lam_start, where Newton solves, not at
    lam_star: balanced at lam_star, the 48x96 Y_3^1 start 0.3 past it
    takes 10 Newton steps and lands on another equilibrium (amplitude
    0.266, against 0.208 in 5 steps when balanced at lam_start).  For
    l >= 3 and 0 < m < l the harmonic is in general not an isotropy axis
    of the O(3) action, along which the equivariant branching lemma puts
    the branches (Golubitsky, Stewart and Schaeffer 1988, ch. XIII), so
    there (Y_3^1, say) the amplitude is only a start.

    ParameterError is raised when the balance has no root on the requested
    side (a subcritical branch asked for on the supercritical side, or
    the reverse); the message names the side the branch lies on.  It is
    also raised at a transcritical point, where the one-mode quadratic
    coefficient <phi, D^2F[phi]> is nonzero: the cubic balance does not
    apply there, and an explicit ``amplitude`` is needed.  A given
    ``amplitude`` is used as it is, and ``family`` is then not called.
    ``lam_star`` and a given ``amplitude`` must be finite, the amplitude
    positive, and ``dlam0`` finite and positive (``side`` sets the
    direction).
    """
    if side not in (1, -1):
        raise ParameterError("side must be +1 or -1")
    lam_start = lam_star + side * dlam0
    if not math.isfinite(lam_start):
        raise ParameterError(
            "lambda_star and dlam0 must be finite, got %r and %r" % (lam_star, dlam0)
        )
    if not dlam0 > 0:
        raise ParameterError(
            "dlam0 must be > 0, got %r; side sets the direction" % (dlam0,)
        )
    mode = harmonic_mode(grid, l, m)
    if amplitude is None:
        amplitude = _one_mode_amplitude(
            family(lam_start), mode * (1.0 / mode.sup_norm), l * (l + 1.0), side
        )
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ParameterError("amplitude must be finite and > 0, got %r" % (amplitude,))
    return lam_start, mode * (amplitude / mode.sup_norm)


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
    n_steps = _integer(n_steps, "n_steps")
    if dlam == 0 and n_steps > 0:
        raise ParameterError("dlam must be nonzero for a nontrivial continuation")
    if start.residual_norm > start.tol:
        raise ContractError("start point is not converged")
    points = [start]
    prev_u = None
    for k in range(n_steps):
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

