"""Nonlinear problem definitions F(u, q) with q the Laplace-Beltrami of u,
their partial derivatives, ellipticity auditing and the residual.

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
from .grid import ScalarField
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


def atan_elliptic(lam):
    """The fully nonlinear problem F(u, q) = 3q - atan(q) + lam * u * (1 - u^2).

    F_q = 3 - 1 / (1 + q^2) lies in [2, 3), so it varies with the state,
    and the ellipticity floor is 2.  The trivial branch loses stability on
    degree-l harmonics at lam = 2 l(l+1), in a supercritical pitchfork for
    every l: along a harmonic both the atan and the cubic term bend the
    branch towards larger lam.  ``lam`` must be finite.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ParameterError("lambda must be finite, got %r" % (lam,))

    def f(u, q):
        return 3.0 * q - np.arctan(q) + lam * u * (1.0 - u * u)

    def fu(u, q):
        return lam * (1.0 - 3.0 * u * u) + 0.0 * np.asarray(q, dtype=float)

    def fq(u, q):
        return 3.0 - 1.0 / (1.0 + q * q) + 0.0 * np.asarray(u, dtype=float)

    return NonlinearProblem("atan-elliptic", f, fu, fq, delta_floor=2.0, lam=lam)


#: Built-in problem factories addressable by name (lambda is passed through).
PROBLEM_REGISTRY = {
    "chafee-infante": chafee_infante,
    "atan-elliptic": atan_elliptic,
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
    a state once and pass it in as q.  The evaluator runs with numpy's
    floating-point warnings off, so an overflow shows as the non-finite
    value it makes, and a non-finite value raises EvaluationError naming
    its grid node."""
    fn = {"F": problem.eval_F, "F_u": problem.eval_Fu, "F_q": problem.eval_Fq}[name]
    with np.errstate(all="ignore"):
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
