"""Reference computations the tests compare the package against.

None of these is called by the package, its commands or its benchmark.
They live beside the tests so that package code cannot start relying on
them, which would make them no longer independent checks.  The module
imports ``apply_laplacian`` by name, and the ``laplacian_calls`` fixture
patches that binding too, so it counts their Laplacians.
"""

import math

import numpy as np

from sphereq.errors import ParameterError, SphereqError
from sphereq.grid import TWO_PI, ScalarField, gauss_legendre
from sphereq.harmonics import (
    SpectralCoeffs,
    apply_laplacian,
    max_degree,
    mean_mode_inverse,
)
from sphereq.problems import evaluate, linearization_coefficients
from sphereq.solver import _KRYLOV_RTOL, _krylov_solve, _mean_coefficients
from sphereq.symmetry import _BIRADIAL_TARGETS


class DivergenceError(SphereqError, RuntimeError):
    """A time-stepping iteration blew up."""


def d_phi(field):
    """Longitudinal derivative, computed spectrally per ring.

    Exact for band-limited rings; the (unused for such rings) Nyquist mode
    is dropped, the standard choice for real even-length signals.
    """
    n = field.grid.n_phi
    coeffs = np.fft.rfft(field.values, axis=1)
    m = np.arange(coeffs.shape[1])
    coeffs *= 1j * m
    coeffs[:, -1] = 0.0
    return ScalarField(field.grid, np.fft.irfft(coeffs, n, axis=1))


def rotate_phi(field, delta):
    """Field v(theta, phi) = u(theta, phi + delta), by Fourier phase shift."""
    n = field.grid.n_phi
    coeffs = np.fft.fft(field.values, axis=1)
    m = np.fft.fftfreq(n, d=1.0 / n)
    coeffs *= np.exp(1j * m * delta)
    return ScalarField(field.grid, np.fft.ifft(coeffs, axis=1).real)


def reflect_coeffs(coeffs, centres):
    """Ring coefficients of the field mirrored across one or many meridians.

    ``coeffs`` are the ``rfft`` coefficients of u along longitude (last
    axis).  The mirror image u(2*c - phi) has coefficients
    conj(coeffs) * exp(-2i m c), so a real field is reflected by one
    conjugation and one phase multiply.  A scalar centre returns an array
    shaped like ``coeffs``; an array of centres adds its shape in front.
    """
    m = np.arange(coeffs.shape[-1])
    phase = np.exp(-2j * np.multiply.outer(np.asarray(centres, dtype=float), m))
    return np.conj(coeffs) * phase[..., None, :]


def biradial_angles():
    """The twelve extremal longitudes of the biradial demo field (sorted)."""
    return np.sort(np.concatenate([_BIRADIAL_TARGETS, _BIRADIAL_TARGETS + math.pi]))


def reflect_phi(field, phi_c):
    """Mirror the field across the meridian at longitude ``phi_c``.

    Returns v with v(theta, phi) = u(theta, 2*phi_c - phi), computed per
    ring in Fourier space by ``reflect_coeffs``, hence exact for
    band-limited rings and valid for arbitrary, off-grid phi_c.
    """
    n = field.grid.n_phi
    coeffs = reflect_coeffs(np.fft.rfft(field.values, axis=1), phi_c)
    return ScalarField(field.grid, np.fft.irfft(coeffs, n, axis=1))


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
            precond = mean_mode_inverse(
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


def _full_fd_theta_tables(theta):
    """Every row of the five-point colatitude stencils u_tt + cot(t) u_t,
    each pole extended by two parity ghost nodes, formed row by row without
    using the equatorial symmetry.  Returns (B0, G), each n x n, with the
    mode-m block B0 + (-1)^m G - m^2 diag(1/sin^2 theta)."""
    n = theta.size
    ext = np.concatenate((-theta[1::-1], theta, 2.0 * math.pi - theta[: n - 3 : -1]))
    cot = np.cos(theta) / np.sin(theta)
    b0 = np.zeros((n, n))
    ghost = np.zeros((n, n))
    ghost_map = {0: 1, 1: 0, n + 2: n - 1, n + 3: n - 2}
    for j in range(n):
        je = j + 2
        xs = ext[je - 2 : je + 3] - ext[je]
        scale = np.max(np.abs(xs))
        vinv = np.linalg.inv(np.vander(xs / scale, 5, increasing=True))
        row = 2.0 * vinv[2] / scale**2 + cot[j] * vinv[1] / scale
        for t in range(5):
            ie = je - 2 + t
            if 2 <= ie <= n + 1:
                b0[j, ie - 2] += row[t]
            else:
                ghost[j, ghost_map[ie]] += row[t]
    return b0, ghost


def legendre_table(theta, degree_cap):
    """Fully normalized associated Legendre values Q_l^m(cos theta).

    Returns an array ``plm`` of shape (L+1, L+1, len(theta)) with
    ``plm[l, m]`` the colatitude profile of the orthonormal harmonic,
    normalized so that  2*pi * integral Q_l^m(x)^2 dx = 1.  Computed with
    the standard stable forward recurrences on the normalized functions
    (no overflow up to l of a few hundred), one degree at a time with every
    order m < l advanced together.
    """
    theta = np.asarray(theta, dtype=float)
    L = int(degree_cap)
    x = np.cos(theta)
    s = np.sin(theta)
    plm = np.zeros((L + 1, L + 1, theta.size))
    plm[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        plm[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * plm[m - 1, m - 1]
    for l in range(1, L + 1):
        m = np.arange(l)
        a = np.sqrt((2.0 * l - 1.0) * (2.0 * l + 1.0) / ((l - m) * (l + m)))
        plm[l, :l] = a[:, None] * x * plm[l - 1, :l]
        # the second term starts two degrees above the diagonal
        m = m[:-1]
        b = np.sqrt((l - 1.0 - m) * (l - 1.0 + m) / ((2.0 * l - 3.0) * (2.0 * l - 1.0)))
        plm[l, : l - 1] -= (a[:-1] * b)[:, None] * plm[l - 2, : l - 1]
    return plm


def full_table_sht_forward(field, degree_cap):
    """The spherical-harmonic expansion from the full ``legendre_table``
    over all rings: per-ring Fourier analysis, then one Gauss-Legendre
    projection per order m, without the equatorial parity split."""
    grid = field.grid
    L = int(degree_cap)
    plm = legendre_table(grid.theta_nodes, L)
    n = grid.n_phi
    ring = np.fft.rfft(field.values, axis=1) / n
    w = grid.theta_weights
    out = np.zeros((L + 1, 2 * L + 1))
    # m = 0: ring mean against Q_l^0, weight 2*pi
    out[:, L] = plm[:, 0] @ (w * TWO_PI * ring[:, 0].real)
    sq2pi = math.sqrt(2.0) * math.pi
    for m in range(1, L + 1):
        cos_part = 2.0 * ring[:, m].real
        sin_part = -2.0 * ring[:, m].imag
        out[m:, L + m] = plm[m:, m] @ (w * sq2pi * cos_part)
        out[m:, L - m] = plm[m:, m] @ (w * sq2pi * sin_part)
    return SpectralCoeffs(L, out)


def full_table_sht_inverse(coeffs, grid):
    """The harmonic series synthesized from the full ``legendre_table``
    over all rings, one order m at a time."""
    L = coeffs.degree_cap
    plm = legendre_table(grid.theta_nodes, L)
    n = grid.n_phi
    ring = np.zeros((grid.n_theta, n // 2 + 1), dtype=complex)
    ring[:, 0] = plm[:, 0].T @ coeffs.coeffs[:, L]
    sq2 = math.sqrt(2.0)
    for m in range(1, L + 1):
        a = sq2 * (plm[m:, m].T @ coeffs.coeffs[m:, L + m])
        b = sq2 * (plm[m:, m].T @ coeffs.coeffs[m:, L - m])
        ring[:, m] = 0.5 * (a - 1j * b)
    return ScalarField(grid, np.fft.irfft(ring * n, n, axis=1))


def full_mode_blocks(grid, realization):
    """One full n_theta x n_theta colatitude block per longitudinal Fourier
    mode m = 0 .. n_phi // 2: the spectral 2*pi P_m^T diag(-l(l+1)) P_m W
    over all rings, or the finite-difference B0 + (-1)^m G -
    m^2 diag(1/sin^2 theta).  The parity halves the package stores are a
    similarity transform of these blocks."""
    n_theta, n_modes = grid.n_theta, grid.n_phi // 2 + 1
    if realization == "finite-difference":
        b0, ghost = _full_fd_theta_tables(grid.theta_nodes)
        m = np.arange(n_modes)
        blocks = b0 + (1.0 - 2.0 * (m % 2))[:, None, None] * ghost
        ring = np.arange(n_theta)
        blocks[:, ring, ring] -= np.outer(m * m, 1.0 / np.sin(grid.theta_nodes) ** 2)
        return blocks
    degree_cap = max_degree(grid)
    blocks = np.zeros((n_modes, n_theta, n_theta))
    plm = legendre_table(grid.theta_nodes, degree_cap)
    l = np.arange(degree_cap + 1, dtype=float)
    eig = -l * (l + 1.0)
    w = TWO_PI * grid.theta_weights
    for m in range(degree_cap + 1):
        p = plm[m:, m]
        blocks[m] = (p.T * eig[m:]) @ (p * w)
    return blocks


def spectral_parity_blocks(grid):
    """The spectral realization's even and odd half blocks, built mode by
    mode: 2*pi P_m^T diag(-l(l+1)) P_m W with P_m the rows of the Legendre
    table at order m whose degree has the half's parity (l + m even or
    odd), on the northern rings and, for the even half, the equator, each
    northern weight counted twice for its southern mirror."""
    degree_cap = max_degree(grid)
    h = grid.n_theta // 2
    n_even = grid.n_theta - h
    n_modes = grid.n_phi // 2 + 1
    halves = (np.zeros((n_modes, n_even, n_even)), np.zeros((n_modes, h, h)))
    plm = legendre_table(grid.theta_nodes[:n_even], degree_cap)
    l = np.arange(degree_cap + 1, dtype=float)
    eig = -l * (l + 1.0)
    w = 2.0 * TWO_PI * grid.theta_weights[:n_even]
    w[h:] *= 0.5  # the equator ring is its own mirror
    for m in range(degree_cap + 1):
        for parity, half in enumerate(halves):
            size = half.shape[1]
            p = plm[m + parity :: 2, m, :size]
            half[m] = (p.T * eig[m + parity :: 2]) @ (p * w[:size])
    return halves


def full_block_laplacian(grid, realization, values):
    """The Laplacian of grid values through ``full_mode_blocks``: ring rfft,
    one full block product per mode, irfft."""
    modes = np.fft.rfft(values, axis=1).T
    out = full_mode_blocks(grid, realization) @ np.stack((modes.real, modes.imag), -1)
    return np.fft.irfft((out[..., 0] + 1j * out[..., 1]).T, grid.n_phi, axis=1)
