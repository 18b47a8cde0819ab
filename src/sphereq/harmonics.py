"""The Laplace-Beltrami operator on the sphere in two interchangeable
realizations, plus the real spherical-harmonic transform that diagonalizes
it.

The spectral realization expands a field in orthonormal real spherical
harmonics and scales degree l by -l(l+1); it is exact on band-limited
fields.  The finite-difference realization keeps the longitudinal
derivative spectral but discretizes the colatitude part with five-point
stencils on the Gauss-Legendre rings, extending each pole by two parity
ghost nodes (u(-theta, phi) = u(theta, phi + pi)) so that every row stays
centered and uniformly better than second order.  The second realization
exists so symmetry audits never silently inherit exactness from the
spectral basis.

The two are built independently but applied alike: both are block-diagonal
in the longitudinal Fourier mode m, so ``make_operator`` stores one real
colatitude block per mode and every application is a per-ring real FFT, a
batched block product and the inverse FFT (the per-m layout of SHTns,
Schaeffer 2013).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError
from .grid import ScalarField, TWO_PI


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


def max_degree(grid):
    """Largest harmonic degree the grid transforms without aliasing."""
    return min(grid.n_theta - 1, grid.n_phi // 2 - 1)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Real spherical-harmonic coefficients up to ``degree_cap``.

    ``coeffs[l, degree_cap + m]`` holds the coefficient of the orthonormal
    real harmonic of degree l and order m (cosine type for m > 0, sine type
    for m < 0); entries with |m| > l are structurally zero.
    """

    degree_cap: int
    coeffs: np.ndarray

    def __getitem__(self, lm):
        l, m = lm
        if abs(m) > l or l > self.degree_cap:
            raise ParameterError("no coefficient (l=%d, m=%d)" % (l, m))
        return float(self.coeffs[l, self.degree_cap + m])

    def power(self):
        """Sum of squared coefficients (equals integral of u^2 by Parseval)."""
        return float(np.sum(self.coeffs**2))


def _check_resolution(grid, L):
    if L > grid.n_theta - 1:
        raise ResolutionError(
            "degree cap %d needs at least %d colatitude rings" % (L, L + 1)
        )
    if 2 * L >= grid.n_phi:
        raise ResolutionError(
            "degree cap %d needs more than %d longitudes" % (L, 2 * L)
        )


def sht_forward(field, degree_cap):
    """Expand a field in orthonormal real spherical harmonics.

    Per-ring Fourier analysis followed by Gauss-Legendre projection in
    colatitude; exact for fields band-limited to ``degree_cap``.
    """
    grid = field.grid
    L = int(degree_cap)
    _check_resolution(grid, L)
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


def sht_inverse(coeffs, grid):
    """Synthesize the harmonic series pointwise on the grid."""
    L = coeffs.degree_cap
    _check_resolution(grid, L)
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


def harmonic_mode(grid, l, m):
    """The orthonormal real spherical harmonic of degree l, order m, sampled
    on the grid (cosine type for m >= 0, sine type for m < 0)."""
    if abs(m) > l:
        raise ParameterError("order |m|=%d exceeds degree l=%d" % (abs(m), l))
    _check_resolution(grid, l)
    arr = np.zeros((l + 1, 2 * l + 1))
    arr[l, l + m] = 1.0
    return sht_inverse(SpectralCoeffs(l, arr), grid)


def trivial_branch_eigenvalues(l_max):
    """Eigenvalues of the Laplace-Beltrami operator by degree.

    Returns [(l, -l*(l+1), 2*l+1)] for l = 0..l_max; exact integers.
    """
    if l_max < 0:
        raise ParameterError("l_max must be >= 0")
    return [(l, -l * (l + 1), 2 * l + 1) for l in range(int(l_max) + 1)]


def _fd_theta_tables(theta):
    """Colatitude part u_tt + cot(t) u_t as five-point stencils.

    Each pole is extended by two ghost nodes carrying the across-pole
    values u(-theta, phi) = u(theta, phi + pi); in the per-mode picture the
    ghost column folds back onto the first two (last two) rings with the
    parity (-1)^m.  Every row is then a centered quartic fit, so the scheme
    is uniformly better than second order even at the polar rings.

    Returns (B0, G) with the mode-m block equal to
    B0 + (-1)^m G - m^2 diag(1/sin^2 theta).
    """
    n = theta.size
    ext = np.concatenate((-theta[1::-1], theta, 2.0 * math.pi - theta[: n - 3 : -1]))
    cot = np.cos(theta) / np.sin(theta)
    b0 = np.zeros((n, n))
    ghost = np.zeros((n, n))
    # ghost columns of the extended grid map onto real rings (with parity):
    # ext 0 -> ring 1, ext 1 -> ring 0, ext n+2 -> ring n-1, ext n+3 -> ring n-2
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


@dataclass(frozen=True, eq=False)
class OperatorHandle:
    """An assembled realization of the Laplace-Beltrami operator.

    ``realization`` is "spectral" or "finite-difference".  ``blocks[m]`` is
    the real n_theta x n_theta colatitude block acting on longitudinal
    Fourier mode m = 0 .. n_phi // 2; the operator is block-diagonal over m
    in both realizations.  ``degree_cap`` bounds the spectral blocks, which
    are zero for m above it.  Immutable (``blocks`` is read-only) and
    shareable across threads.
    """

    grid: object
    realization: str
    degree_cap: int
    blocks: np.ndarray


def _spectral_blocks(grid, degree_cap):
    """2*pi * P_m^T diag(-l(l+1)) P_m W per mode, with P_m the rows m..L of
    the Legendre table at order m and W the quadrature weights."""
    n_theta = grid.n_theta
    blocks = np.zeros((grid.n_phi // 2 + 1, n_theta, n_theta))
    plm = legendre_table(grid.theta_nodes, degree_cap)
    l = np.arange(degree_cap + 1, dtype=float)
    eig = -l * (l + 1.0)
    w = TWO_PI * grid.theta_weights
    for m in range(degree_cap + 1):
        p = plm[m:, m]
        blocks[m] = (p.T * eig[m:]) @ (p * w)
    return blocks


def _fd_blocks(grid):
    """B0 + (-1)^m G - m^2 diag(1/sin^2 theta) per mode."""
    b0, ghost = _fd_theta_tables(grid.theta_nodes)
    m = np.arange(grid.n_phi // 2 + 1)
    parity = 1.0 - 2.0 * (m % 2)
    blocks = b0 + parity[:, None, None] * ghost
    ring = np.arange(grid.n_theta)
    blocks[:, ring, ring] -= np.outer(m * m, 1.0 / np.sin(grid.theta_nodes) ** 2)
    return blocks


def make_operator(grid, realization="spectral"):
    """Assemble an OperatorHandle for the grid.

    The spectral blocks run up to the largest alias-free degree the grid
    supports, ``max_degree(grid)``.
    """
    if realization not in ("spectral", "finite-difference"):
        raise ParameterError("unknown realization %r" % (realization,))
    degree_cap = max_degree(grid)
    if realization == "spectral":
        blocks = _spectral_blocks(grid, degree_cap)
    else:
        blocks = _fd_blocks(grid)
    blocks.setflags(write=False)
    return OperatorHandle(grid, realization, degree_cap, blocks)


def apply_mode_blocks(blocks, values):
    """Apply one real colatitude block per longitudinal Fourier mode to
    grid values of shape (n_theta, n_phi): ring rfft, one batched product
    on the stacked real and imaginary parts, irfft."""
    modes = np.fft.rfft(values, axis=1).T
    out = blocks @ np.stack((modes.real, modes.imag), axis=-1)
    return np.fft.irfft((out[..., 0] + 1j * out[..., 1]).T, values.shape[1], axis=1)


def apply_laplacian(op, field):
    """Apply the operator realization to a field on its grid."""
    if field.grid != op.grid:
        raise ParameterError("field grid does not match operator grid")
    return ScalarField(op.grid, apply_mode_blocks(op.blocks, field.values))
