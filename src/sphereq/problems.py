"""Nonlinear problem definitions F(u, q) with q the Laplace-Beltrami of u,
their partial derivatives, ellipticity auditing, the residual, and the
averaged linearization coefficients along the straight homotopy between a
field and a reference field.

A problem is a bundle of three pointwise evaluators (F, F_u, F_q) plus an
ellipticity floor delta and a scalar parameter lambda.  Keeping the
evaluators opaque leaves the module agnostic to the form of F while making
the partial derivatives explicit, which every audit downstream needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvaluationError, ParameterError
from .grid import ScalarField, gauss_legendre
from .harmonics import apply_laplacian


@dataclass(frozen=True)
class NonlinearProblem:
    """Evaluator triple for 0 = F(u, q) with uniform ellipticity F_q >= delta.

    The evaluators must accept numpy arrays (or scalars) for both slots and
    broadcast; ``lam`` is the bifurcation parameter, which a problem is free
    to ignore.
    """

    name: str
    eval_F: Callable
    eval_Fu: Callable
    eval_Fq: Callable
    delta_floor: float
    lam: float = 0.0


def chafee_infante(lam):
    """The cubic problem F(u, q) = q + lam * u * (1 - u^2).

    Constant equilibria are 0 and +-1; the trivial branch loses stability
    on degree-l harmonics at lam = l*(l+1).  F_q is identically 1, so the
    ellipticity floor is 1.  ``lam`` must be finite.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ParameterError("lambda must be finite, got %r" % (lam,))

    def f(u, q):
        return q + lam * u * (1.0 - u * u)

    def fu(u, q):
        return lam * (1.0 - 3.0 * u * u) + 0.0 * np.asarray(q, dtype=float)

    def fq(u, q):
        return np.ones_like(np.asarray(u, dtype=float) + np.asarray(q, dtype=float))

    return NonlinearProblem("chafee-infante", f, fu, fq, delta_floor=1.0, lam=lam)


#: Built-in problem factories addressable by name (lambda is passed through).
PROBLEM_REGISTRY = {
    "chafee-infante": chafee_infante,
}


def problem_from_name(name, lam):
    try:
        factory = PROBLEM_REGISTRY[name]
    except KeyError:
        raise ParameterError(
            "unknown problem %r (available: %s)"
            % (name, ", ".join(sorted(PROBLEM_REGISTRY)))
        ) from None
    return factory(lam)


def evaluate(problem, name, u, q):
    """The problem's ``name`` evaluator ("F", "F_u" or "F_q") at the grid
    arrays (u, q), broadcast to their shape; callers apply the Laplacian to
    a state once and pass it in as q.  A non-finite value raises
    EvaluationError naming its grid node."""
    fn = {"F": problem.eval_F, "F_u": problem.eval_Fu, "F_q": problem.eval_Fq}[name]
    vals = np.broadcast_to(np.asarray(fn(u, q), dtype=float), np.shape(u))
    if not np.all(np.isfinite(vals)):
        j, k = np.argwhere(~np.isfinite(vals))[0]
        raise EvaluationError(
            "%s produced a non-finite value at ring %d, column %d" % (name, j, k)
        )
    return vals


def residual(problem, op, u):
    """Pointwise F(u, Lap u) on the grid."""
    return ScalarField(
        u.grid, evaluate(problem, "F", u.values, apply_laplacian(op, u).values)
    )


def linearization_coefficients(problem, u, q):
    """Pointwise F_u and F_q at the state (u, q), q = Lap u, as plain arrays."""
    return tuple(evaluate(problem, name, u.values, q.values) for name in ("F_u", "F_q"))


class EllipticityAudit(NamedTuple):
    min_fq: float
    passed: bool


def ellipticity_audit(problem, op, u):
    """Minimum of F_q(u, Lap u) over the grid and whether it clears the floor.

    Failure is a reported outcome, not an exception: audits must be able to
    describe problems that lose ellipticity on a given state.
    """
    fq = evaluate(problem, "F_q", u.values, apply_laplacian(op, u).values)
    min_fq = float(np.min(fq))
    return EllipticityAudit(min_fq, min_fq >= problem.delta_floor)


def _tau_rule():
    x, w = gauss_legendre(8)
    return 0.5 * (x + 1.0), 0.5 * w


#: Nodes and weights of the 8-point Gauss-Legendre rule on [0, 1] behind
#: every homotopy average: exact for F polynomial up to degree 15 in tau.
_TAU_NODES, _TAU_WEIGHTS = _tau_rule()


def averaged_coefficients(problem, u, q_u, u_ref, q_ref):
    """Averaged linearization coefficients along the straight homotopy
    u^tau = tau * u + (1 - tau) * u_ref:

        a = integral_0^1 F_q(u^tau, Lap u^tau) dtau
        b = integral_0^1 F_u(u^tau, Lap u^tau) dtau

    With w = u - u_ref, the fundamental theorem of calculus gives
    a * Lap w + b * w = F(u, Lap u) - F(u_ref, Lap u_ref) exactly, which is
    what makes reflection differences satisfy a linear elliptic equation.

    ``u``/``q_u`` and ``u_ref``/``q_ref`` are the grid arrays of the two
    fields and of their Laplacians, applied by the caller; the Laplacian
    along the homotopy is formed by linearity as
    tau * Lap u + (1 - tau) * Lap u_ref.  The integrals use the 8-point
    Gauss-Legendre rule in tau (exact for polynomial F up to degree 15).
    Returns the arrays (a, b).
    """
    shape = np.shape(u)
    a = np.zeros(shape)
    b = np.zeros(shape)
    for t, wt in zip(_TAU_NODES, _TAU_WEIGHTS):
        u_tau = t * u + (1.0 - t) * u_ref
        q_tau = t * q_u + (1.0 - t) * q_ref
        a += wt * evaluate(problem, "F_q", u_tau, q_tau)
        b += wt * evaluate(problem, "F_u", u_tau, q_tau)
    return a, b


#: verify_partial_derivatives draws this many (u, q) samples, normal with
#: this standard deviation, and differences F with this step.
_FD_SAMPLES = 64
_FD_SCALE = 2.0
_FD_STEP = 1e-6


def verify_partial_derivatives(problem, rng=None):
    """Largest relative mismatch of (F_u, F_q) against centered differences
    (step 1e-6) of F on 64 random (u, q) samples of standard deviation 2.
    A quick contract check for user-supplied problems."""
    rng = np.random.default_rng(rng)
    h = _FD_STEP
    u = _FD_SCALE * rng.standard_normal(_FD_SAMPLES)
    q = _FD_SCALE * rng.standard_normal(_FD_SAMPLES)
    fu = np.asarray(problem.eval_Fu(u, q), dtype=float)
    fq = np.asarray(problem.eval_Fq(u, q), dtype=float)
    fu_fd = (problem.eval_F(u + h, q) - problem.eval_F(u - h, q)) / (2.0 * h)
    fq_fd = (problem.eval_F(u, q + h) - problem.eval_F(u, q - h)) / (2.0 * h)
    denom = np.maximum(1.0, np.abs(fu_fd))
    err_u = float(np.max(np.abs(fu - fu_fd) / denom))
    denom = np.maximum(1.0, np.abs(fq_fd))
    err_q = float(np.max(np.abs(fq - fq_fd) / denom))
    return err_u, err_q
