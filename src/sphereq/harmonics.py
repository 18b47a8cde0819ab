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
in the longitudinal Fourier mode m, and both commute with the equatorial
flip theta -> pi - theta, under which the Gauss-Legendre rings are
symmetric.  So ``make_operator`` stores, per mode, one real block on the
even fold of the rings and one on the odd fold, each about half the ring
count on a side, and every application is a per-ring real FFT, the fold,
one batched product per half, the unfold and the inverse FFT (the per-m
layout and the equatorial parity split of SHTns, Schaeffer 2013).  No full
n_theta x n_theta block is formed.  The spectral blocks come from one
parity-split Legendre factor (``parity_legendre_factor``), which also gives
the solver's preconditioner their inverse in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _check_resolution(grid, L):
    if L > max_degree(grid):
        raise ResolutionError(
            "degree %d needs at least %d colatitude rings and %d longitudes; "
            "the grid has %d and %d" % (L, L + 1, 2 * L + 2, grid.n_theta, grid.n_phi)
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
    _check_resolution(grid, l)  # sht_inverse's check comes after this allocation
    arr = np.zeros((l + 1, 2 * l + 1))
    arr[l, l + m] = 1.0
    return sht_inverse(SpectralCoeffs(l, arr), grid)


def trivial_branch_eigenvalues(l_max):
    """Eigenvalues of the Laplace-Beltrami operator by degree.

    Returns [(l, -l*(l+1), 2*l+1)] for l = 0..l_max, a non-negative
    integer; exact integers.
    """
    if not (float(l_max).is_integer() and l_max >= 0):
        raise ParameterError("l_max must be a non-negative integer, got %r" % (l_max,))
    return [(l, -l * (l + 1), 2 * l + 1) for l in range(int(l_max) + 1)]


def _fd_theta_tables(theta):
    """Northern rows of the colatitude part u_tt + cot(t) u_t as five-point
    stencils.

    The north pole is extended by two ghost nodes carrying the across-pole
    values u(-theta, phi) = u(theta, phi + pi); in the per-mode picture the
    ghost columns fold back onto the first two rings with the parity
    (-1)^m.  Every row is then a centered quartic fit, so the scheme is
    uniformly better than second order even at the polar rings.  The rings
    are symmetric about the equator, so the southern rows mirror the
    northern ones and only rows 0 .. ceil(n/2) - 1 are formed, which reach
    no southern ghost.  Only rows 0 and 1 reach a ghost, which folds onto
    rings 0 and 1.

    Returns (B0, G): B0 of shape (ceil(n/2), n) and G the 2x2 ghost corner
    on rings 0 and 1, with the rows of the mode-m block equal to
    B0 + (-1)^m G - m^2 diag(1/sin^2 theta), G added to that corner.
    """
    n = theta.size
    ext = np.concatenate((-theta[1::-1], theta))
    cot = np.cos(theta) / np.sin(theta)
    rows = n - n // 2
    b0 = np.zeros((rows, n))
    ghost = np.zeros((2, 2))
    for j in range(rows):
        je = j + 2
        xs = ext[je - 2 : je + 3] - ext[je]
        scale = np.max(np.abs(xs))
        vinv = np.linalg.inv(np.vander(xs / scale, 5, increasing=True))
        row = 2.0 * vinv[2] / scale**2 + cot[j] * vinv[1] / scale
        for t in range(5):
            ie = je - 2 + t
            if ie >= 2:
                b0[j, ie - 2] += row[t]
            else:  # ghost ext 0 is ring 1 and ext 1 is ring 0, with parity
                ghost[j, 1 - ie] += row[t]
    return b0, ghost


class LegendreHalf(NamedTuple):
    """One equatorial-parity half of the spectral realization's Legendre
    factor (``parity_legendre_factor``).

    ``legendre[m, j]`` holds Q_l^m on the half's rings (the northern rings,
    and for the even half of odd n_theta the equator) for the degree
    ``degrees[m, j]`` = m + parity + 2j; a row whose degree exceeds
    ``max_degree(grid)`` is zero.  ``weights`` are the half's quadrature
    weights times 2*pi, each northern ring counted twice for its southern
    mirror and the equator once, so that (legendre[m] * weights) @
    legendre[m]^T is the identity on the rows with a degree (to about
    1e-14).  All three are read-only."""

    legendre: np.ndarray
    degrees: np.ndarray
    weights: np.ndarray


def parity_legendre_factor(grid):
    """The Legendre factor of the spectral realization, split by equatorial
    parity: the pair (even, odd) of ``LegendreHalf``, each padded to one
    row count over the modes m = 0 .. n_phi // 2.  Since
    Q_l^m(-x) = (-1)^(l+m) Q_l^m(x), the even half holds the degrees with
    l + m even and the odd half those with l + m odd."""
    cap = max_degree(grid)
    h = grid.n_theta // 2
    n_even = grid.n_theta - h
    plm = legendre_table(grid.theta_nodes[:n_even], cap)
    w = 2.0 * TWO_PI * grid.theta_weights[:n_even]
    w[h:] *= 0.5  # the equator ring is its own mirror
    w.setflags(write=False)
    m = np.arange(grid.n_phi // 2 + 1)[:, None]
    halves = []
    for parity, size in ((0, n_even), (1, h)):
        l = m + parity + 2 * np.arange((cap - parity) // 2 + 1)
        rows = plm[np.minimum(l, cap), np.minimum(m, cap), :size]
        rows[l > cap] = 0.0
        for a in (rows, l):
            a.setflags(write=False)
        halves.append(LegendreHalf(rows, l, w[:size]))
    return tuple(halves)


@dataclass(frozen=True, eq=False)
class OperatorHandle:
    """An assembled realization of the Laplace-Beltrami operator.

    ``realization`` is "spectral" or "finite-difference".  The operator is
    block-diagonal over the longitudinal Fourier modes m = 0 .. n_phi // 2
    in both realizations, and each mode block commutes with the equatorial
    flip of the rings, so it splits into an even and an odd half.
    ``blocks`` is the pair (even, odd): ``even[m]`` is the real
    ceil(n_theta/2)-square block acting on the even fold of mode m
    (``apply_mode_blocks``), ``odd[m]`` the floor(n_theta/2)-square block
    acting on its odd fold.  The spectral blocks are zero for m above
    ``max_degree(grid)``.  ``legendre_factor`` is the grid's
    ``parity_legendre_factor``, which the spectral blocks are built from and
    the solver's preconditioner inverts them with; it is formed on first
    use and kept, so only an operator that a solve uses holds one.
    Immutable (both halves are read-only) and shareable across threads (two
    threads that form ``legendre_factor`` at once form the same arrays).
    """

    grid: object
    realization: str
    blocks: tuple

    @functools.cached_property
    def legendre_factor(self):
        """``parity_legendre_factor(grid)``, formed on first use."""
        return parity_legendre_factor(self.grid)


def _spectral_blocks(factor):
    """Even and odd halves of P^T diag(-l(l+1)) P W per mode, one batched
    product per half of the ``parity_legendre_factor`` (P its rows, W its
    weights); its zero rows add nothing."""
    return tuple(
        np.matmul(np.swapaxes(p, 1, 2) * (-l * (l + 1.0))[:, None, :], p * w)
        for p, l, w in factor
    )


def _fd_blocks(grid):
    """Even and odd halves of B0 + (-1)^m G - m^2 diag(1/sin^2 theta) per
    mode.  B0 is folded from the northern rows once: column k of a half
    adds (even) or subtracts (odd) the column of the mirror ring
    n_theta - 1 - k.  The ghost corner G sits on rings 0 and 1, which no
    fold reaches (n_theta >= 4), so each mode adds (-1)^m G to the corner
    of its copy of the folded B0."""
    n_theta, h = grid.n_theta, grid.n_theta // 2
    b0, corner = _fd_theta_tables(grid.theta_nodes)
    mirror = b0[:, : n_theta - h - 1 : -1]
    m = np.arange(grid.n_phi // 2 + 1)
    parity = 1.0 - 2.0 * (m % 2)
    inv_sin2 = 1.0 / np.sin(grid.theta_nodes) ** 2
    halves = []
    for sign, size in ((1.0, n_theta - h), (-1.0, h)):
        folded = b0[:size, :size].copy()
        folded[:, :h] += sign * mirror[:size]
        blocks = np.repeat(folded[None], m.size, axis=0)
        blocks[:, :2, :2] += parity[:, None, None] * corner
        ring = np.arange(size)
        blocks[:, ring, ring] -= np.outer(m * m, inv_sin2[:size])
        halves.append(blocks)
    return tuple(halves)


def make_operator(grid, realization="spectral"):
    """Assemble an OperatorHandle for the grid.

    The spectral blocks run up to the largest alias-free degree the grid
    supports, ``max_degree(grid)``.
    """
    if realization not in ("spectral", "finite-difference"):
        raise ParameterError("unknown realization %r" % (realization,))
    if realization == "spectral":
        blocks = _spectral_blocks(parity_legendre_factor(grid))
    else:
        blocks = _fd_blocks(grid)
    for half in blocks:
        half.setflags(write=False)
    return OperatorHandle(grid, realization, blocks)


def apply_mode_blocks(blocks, values):
    """Apply per-mode parity blocks ``(even, odd)`` (``OperatorHandle``) to
    grid values of shape (n_theta, n_phi).

    One ring rfft; the rows of the mode array fold into the halves
    e_j = (u_j + u_{n-1-j}) / 2 and o_j = (u_j - u_{n-1-j}) / 2 for
    j < n_theta // 2, the equator ring (odd n_theta) being even only; one
    batched product per half on the interleaved real and imaginary parts;
    the unfold out_j = E e + O o, out_{n-1-j} = E e - O o; one irfft.
    Flipping the rings leaves e as it is and negates o exactly, so the
    result is exactly equivariant under the flip."""
    even, odd = blocks
    n_theta, n_phi = values.shape
    h = n_theta // 2
    modes = np.fft.rfft(values, axis=1)
    north, south = modes[:h], modes[: n_theta - h - 1 : -1]
    # rows: the even half (northern rings, then the equator), the odd half
    folded = np.empty_like(modes)
    np.add(north, south, out=folded[:h])
    np.subtract(north, south, out=folded[n_theta - h :])
    folded *= 0.5
    folded[h : n_theta - h] = modes[h : n_theta - h]
    product = np.empty_like(modes)
    x, y = (a.view(float).reshape(n_theta, -1, 2).transpose(1, 0, 2)
            for a in (folded, product))
    np.matmul(even, x[:, : n_theta - h], out=y[:, : n_theta - h])
    np.matmul(odd, x[:, n_theta - h :], out=y[:, n_theta - h :])
    e, o = product[:h], product[n_theta - h :]
    np.add(e, o, out=modes[:h])
    np.subtract(e, o, out=modes[: n_theta - h - 1 : -1])
    modes[h : n_theta - h] = product[h : n_theta - h]
    return np.fft.irfft(modes, n_phi, axis=1)


def apply_laplacian(op, field):
    """Apply the operator realization to a field on its grid."""
    if field.grid != op.grid:
        raise ParameterError("field grid does not match operator grid")
    return ScalarField(op.grid, apply_mode_blocks(op.blocks, field.values))
