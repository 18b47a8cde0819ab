"""Reference computations the tests compare the package against.

None of these is called by the package, its commands or its benchmark.
They live beside the tests so that package code cannot start relying on
them, which would make them no longer independent checks.  The module
imports ``apply_laplacian`` by name, and the ``laplacian_calls`` fixture
patches that binding too, so it counts their Laplacians.
"""

import numpy as np

from sphereq.errors import ParameterError, SphereqError
from sphereq.grid import ScalarField, reflect_coeffs
from sphereq.harmonics import apply_laplacian
from sphereq.problems import evaluate, linearization_coefficients
from sphereq.solver import (
    _KRYLOV_RTOL,
    _krylov_solve,
    _mean_coefficients,
    _mean_mode_inverse,
)


class DivergenceError(SphereqError, RuntimeError):
    """A time-stepping iteration blew up."""


def rotate_phi(field, delta):
    """Field v(theta, phi) = u(theta, phi + delta), by Fourier phase shift."""
    n = field.grid.n_phi
    coeffs = np.fft.fft(field.values, axis=1)
    m = np.fft.fftfreq(n, d=1.0 / n)
    coeffs *= np.exp(1j * m * delta)
    return ScalarField(field.grid, np.fft.ifft(coeffs, axis=1).real)


def reflect_phi(field, phi_c):
    """Mirror the field across the meridian at longitude ``phi_c``.

    Returns v with v(theta, phi) = u(theta, 2*phi_c - phi), computed per
    ring in Fourier space by ``reflect_coeffs``, hence exact for
    band-limited rings and valid for arbitrary, off-grid phi_c.
    """
    n = field.grid.n_phi
    coeffs = reflect_coeffs(np.fft.rfft(field.values, axis=1), phi_c)
    return ScalarField(field.grid, np.fft.irfft(coeffs, n, axis=1))


def gradient_flow_relax(problem, op, u0, dt, steps, blowup=1e6):
    """Semi-implicit relaxation of u_t = F(u, Lap u).

    The Laplacian slot is advanced implicitly through a linear solve with
    the frozen coefficient F_q(u_n, Lap u_n); everything else is explicit:

        (I - dt F_q Lap) u_{n+1} = u_n + dt (F(u_n, Lap u_n) - F_q Lap u_n)

    Each linear solve goes through the same right-preconditioned GMRES as
    Newton's steps, with the per-mode inverse of the mean-coefficient
    operator formed at the first step; when F_q is constant over the state,
    as for the built-in cubic problem, the preconditioned operator is the
    identity.  A cross-check only, that Newton fixed points attract the flow
    and that the Krylov path solves the system it is given; Newton never
    calls it, and it is not a time-accurate integrator.  ``steps`` must be
    a non-negative integer.
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if not (float(steps).is_integer() and steps >= 0):
        raise ParameterError("steps must be a non-negative integer, got %r" % (steps,))
    u = u0
    precond = None
    for _ in range(int(steps)):
        q = apply_laplacian(op, u)
        f = evaluate(problem, "F", u.values, q.values)
        fq = evaluate(problem, "F_q", u.values, q.values)
        rhs = u.values + dt * (f - fq * q.values)
        ones, implicit = np.ones_like(fq), -dt * fq
        if precond is None:
            precond = _mean_mode_inverse(
                op, *_mean_coefficients(problem, u.grid, ones, implicit)
            )
        new_vals = _krylov_solve(ones, implicit, precond, rhs, _KRYLOV_RTOL, 0.0)
        u = ScalarField(u.grid, new_vals)
        if u.sup_norm > blowup:
            raise DivergenceError("gradient flow exceeded norm %g" % blowup)
    return u


def jacobian_matrix(problem, op, u):
    """Dense matrix of the linearization at u acting on grid values.

    Column j is F_u e_j + F_q Lap e_j at u for the unit basis field e_j,
    through apply_laplacian, so the matrix exercises exactly the operator
    code path.  Desk-scale only (O(N^2) memory)."""
    grid = u.grid
    fu, fq = linearization_coefficients(problem, u, apply_laplacian(op, u))
    n = grid.n_theta * grid.n_phi
    out = np.empty((n, n))
    basis = np.zeros((grid.n_theta, grid.n_phi))
    for idx in range(n):
        basis.flat[idx] = 1.0
        lap = apply_laplacian(op, ScalarField(grid, basis))
        out[:, idx] = (fu * basis + fq * lap.values).ravel()
        basis.flat[idx] = 0.0
    return out


def quadrature_weight_vector(grid):
    """Flattened quadrature weights matching jacobian_matrix's ordering."""
    w = np.repeat(grid.theta_weights[:, None], grid.n_phi, axis=1) * grid.phi_cell
    return w.ravel()
