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
n_theta x n_theta block is formed.  The operator also inverts itself in
the same layout: ``mean_mode_inverse`` gives the blocks of
(c_u + c_q Lap)^-1, the solver's preconditioner, so the solver needs to
know nothing of how the blocks are stored.  The Legendre values have one
private layout, a parity-split factor: the spectral blocks and their
inverse read it at the grid's degree cap, the transform at its
coefficients' cap, through the same ring FFT, fold and unfold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ResolutionError, _integer
from .grid import ScalarField, TWO_PI


def max_degree(grid):
    """Largest harmonic degree the grid transforms without aliasing."""
    return min(grid.n_theta - 1, grid.n_phi // 2 - 1)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Real spherical-harmonic coefficients up to ``degree_cap``, a
    non-negative integer: ``coeffs``, finite and of shape (degree_cap + 1,
    2 degree_cap + 1), holds at ``[l, degree_cap + m]`` the coefficient of
    the orthonormal real harmonic of degree l and order m (cosine type for
    m > 0, sine type for m < 0); entries with |m| > l are structurally
    zero."""

    degree_cap: int
    coeffs: np.ndarray

    def __post_init__(self):
        cap = _integer(self.degree_cap, "degree cap")
        object.__setattr__(self, "degree_cap", cap)
        shape = (cap + 1, 2 * cap + 1)
        if np.shape(self.coeffs) != shape or not np.all(np.isfinite(self.coeffs)):
            raise ParameterError("coefficients must be a finite %d x %d array" % shape)

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


def _parity_legendre_factor(grid, cap):
    """Q_l^m(cos theta), fully normalized (2*pi * integral Q_l^m(x)^2 dx
    = 1), up to degree ``cap``, split by equatorial parity, Q_l^m(-x) =
    (-1)^(l+m) Q_l^m(x): the pair (even, odd) of read-only triples (P, l, W)
    over the modes m = 0 .. n_phi // 2.  ``P[m, j]`` holds Q_l^m on the
    half's rings (the northern rings, and for the even half of odd n_theta
    the equator) for the degree ``l[m, j]`` = m + parity + 2j, and is zero
    past ``cap``.  ``W`` are the half's quadrature weights times 2*pi, each
    northern ring counted twice for its southern mirror, so that
    (P[m] * W) @ P[m]^T is the identity on the rows with a degree (to about
    1e-14).  The standard stable recurrences (no overflow up to l of a few
    hundred) write both halves at once: the diagonal Q_m^m is a running
    product over m, and each offset j = l - m then advances every order."""
    h = grid.n_theta // 2
    n_even = grid.n_theta - h
    theta = grid.theta_nodes[:n_even]
    x, s = np.cos(theta), np.sin(theta)
    w = 2.0 * TWO_PI * grid.theta_weights[:n_even]
    w[h:] *= 0.5  # the equator ring is its own mirror
    m = np.arange(grid.n_phi // 2 + 1)[:, None]
    # row j holds Q_{m+j}^m for the orders m = 0 .. cap - j
    order = np.arange(1, cap + 1)
    row = np.empty((cap + 1, n_even))
    row[0] = 1.0 / math.sqrt(4.0 * math.pi)
    row[1:] = np.sqrt((2.0 * order + 1.0) / (2.0 * order))[:, None] * s
    row, prev = np.cumprod(row, axis=0), None
    # Q_l^m = a Q_{l-1}^m x - a b Q_{l-2}^m at [j, m] for l = m + j + 1
    j, order = np.ogrid[: cap + 1, :cap]
    l = order + j + 1
    a = np.sqrt((2.0 * l - 1.0) * (2.0 * l + 1.0) / ((l - order) * (l + order)))
    ab = a * np.sqrt((l - 1.0 - order) * (l - 1.0 + order)
                     / ((2.0 * l - 3.0) * (2.0 * l - 1.0)))
    halves = [np.zeros((m.size, (cap - parity) // 2 + 1, size))
              for parity, size in enumerate((n_even, h))]
    for j in range(cap + 1):
        half = halves[j % 2]
        half[: cap + 1 - j, j // 2] = row[:, : half.shape[2]]
        new = a[j, : cap - j, None] * x * row[: cap - j]
        if j:  # the second term starts two degrees above the diagonal
            new -= ab[j, : cap - j, None] * prev[: cap - j]
        prev, row = row, new
    factor = tuple((p, m + parity + 2 * np.arange(p.shape[1]), w[: p.shape[2]])
                   for parity, p in enumerate(halves))
    for a in (*factor[0], *factor[1]):
        a.setflags(write=False)
    return factor


def _fold(modes):
    """Rows e_j = (u_j + u_{n-1-j}) / 2 for j < n_theta // 2, the equator
    ring of odd n_theta (even only), then o_j = (u_j - u_{n-1-j}) / 2."""
    h = modes.shape[0] // 2
    north, south = modes[:h], modes[::-1][:h]
    folded = np.empty_like(modes)
    np.add(north, south, out=folded[:h])
    np.subtract(north, south, out=folded[-h:])
    folded *= 0.5
    folded[h:-h] = modes[h:-h]
    return folded


def _unfold(folded, out):
    """out_j = e_j + o_j, out_{n-1-j} = e_j - o_j and the equator e, for
    rows (e, o) laid out as ``_fold`` lays them out; returns ``out``."""
    h = folded.shape[0] // 2
    e, o = folded[:h], folded[-h:]
    np.add(e, o, out=out[:h])
    np.subtract(e, o, out=out[::-1][:h])
    out[h:-h] = folded[h:-h]
    return out


def sht_forward(field, degree_cap):
    """Expand a field in orthonormal real spherical harmonics up to
    ``degree_cap``, a non-negative integer: per-ring Fourier analysis, the
    fold, and Gauss-Legendre projection in colatitude per parity half of
    the Legendre factor; exact for fields band-limited to ``degree_cap``."""
    grid = field.grid
    L = _integer(degree_cap, "degree cap")
    _check_resolution(grid, L)
    modes = np.fft.rfft(field.values, axis=1)[:, : L + 1] / grid.n_phi
    modes[:, 1:] *= math.sqrt(2.0)
    folded = _fold(modes)
    (pe, _, we), (po, _, wo) = _parity_legendre_factor(grid, L)
    # rows[m, l - m]: the cosine minus i times the sine coefficient of (l, m)
    rows = np.empty((L + 1, L + 1), dtype=complex)
    rows[:, ::2] = np.einsum("mjr,r,rm->mj", pe[: L + 1], we, folded[: we.size])
    rows[:, 1::2] = np.einsum("mjr,r,rm->mj", po[: L + 1], wo, folded[we.size :])
    l, m = np.tril_indices(L + 1)
    out = np.zeros((L + 1, 2 * L + 1))
    out[l, L - m] = -rows[m, l - m].imag
    out[l, L + m] = rows[m, l - m].real  # over the sine part's (l, 0) for m = 0
    return SpectralCoeffs(L, out)


def sht_inverse(coeffs, grid):
    """Synthesize the harmonic series pointwise on the grid: per parity half
    of the Legendre factor, the unfold of the rings and per-ring Fourier
    synthesis."""
    L, c = coeffs.degree_cap, coeffs.coeffs
    _check_resolution(grid, L)
    l, m = np.tril_indices(L + 1)
    rows = np.zeros((L + 1, L + 1), dtype=complex)  # as in sht_forward
    rows[m, l - m] = c[l, L + m] - 1j * np.where(m > 0, c[l, L - m], 0.0)
    (pe, _, _), (po, _, _) = _parity_legendre_factor(grid, L)
    folded = np.concatenate((np.einsum("mjr,mj->rm", pe[: L + 1], rows[:, ::2]),
                             np.einsum("mjr,mj->rm", po[: L + 1], rows[:, 1::2])))
    modes = np.zeros((grid.n_theta, grid.n_phi // 2 + 1), dtype=complex)
    _unfold(folded, modes[:, : L + 1])
    modes[:, 1:] /= math.sqrt(2.0)
    return ScalarField(grid, np.fft.irfft(modes * grid.n_phi, grid.n_phi, axis=1))


def harmonic_mode(grid, l, m):
    """The orthonormal real spherical harmonic of degree l, order m, sampled
    on the grid (cosine type for m >= 0, sine type for m < 0); l and m are
    integers with |m| <= l."""
    l = _integer(l, "degree l")
    if _integer(abs(m), "order |m|") > l:
        raise ParameterError("order |m|=%d exceeds degree l=%d" % (abs(m), l))
    _check_resolution(grid, l)  # sht_inverse's check comes after this allocation
    arr = np.zeros((l + 1, 2 * l + 1))
    arr[l, l + int(m)] = 1.0
    return sht_inverse(SpectralCoeffs(l, arr), grid)


def trivial_branch_eigenvalues(l_max):
    """Eigenvalues of the Laplace-Beltrami operator by degree: the exact
    integers [(l, -l(l+1), 2l+1)] for l = 0..l_max, a non-negative integer."""
    return [(l, -l * (l + 1), 2 * l + 1) for l in range(_integer(l_max, "l_max") + 1)]


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
    ``max_degree(grid)``.  ``mean_mode_inverse`` inverts c_u + c_q times
    the operator in the same layout.  Immutable (both halves are read-only)
    and shareable across threads.
    """

    grid: object
    realization: str
    blocks: tuple

    @functools.cached_property
    def _legendre_factor(self):
        """The grid's ``_parity_legendre_factor`` at ``max_degree(grid)``,
        formed on a spectral ``mean_mode_inverse``'s first use and kept (two
        threads that form it at once form the same arrays).  ``make_operator``
        drops its copy: kept on every operator, the factor raised the audit
        benchmark's peak RSS by 15% for operators an audit never inverts."""
        return _parity_legendre_factor(self.grid, max_degree(self.grid))


def _legendre_product(p, g, w):
    """P^T diag(g) P W per mode for a half (P, l, W) of the Legendre factor
    and g one value per row of P, shaped like l, in one batched product;
    the zero rows of P add nothing."""
    return np.matmul(np.swapaxes(p, 1, 2) * g[:, None, :], p * w)


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

    The spectral blocks are P^T diag(-l(l+1)) P W per mode and parity half,
    from the Legendre factor, up to the largest alias-free degree the grid
    supports, ``max_degree(grid)``.
    """
    if realization not in ("spectral", "finite-difference"):
        raise ParameterError("unknown realization %r" % (realization,))
    if realization == "spectral":
        blocks = tuple(_legendre_product(p, -l * (l + 1.0), w)
                       for p, l, w in _parity_legendre_factor(grid, max_degree(grid)))
    else:
        blocks = _fd_blocks(grid)
    for half in blocks:
        half.setflags(write=False)
    return OperatorHandle(grid, realization, blocks)


def apply_mode_blocks(blocks, values):
    """Apply per-mode parity blocks ``(even, odd)`` (``OperatorHandle``) to
    grid values of shape (n_theta, n_phi).

    One ring rfft, the fold into the halves e and o, one batched product
    per half on the interleaved real and imaginary parts, the unfold of
    (E e, O o) and one irfft.  Flipping the rings leaves e as it is and
    negates o exactly, so the result is exactly equivariant under the
    flip."""
    even, odd = blocks
    n_theta, n_phi = values.shape
    n_even = n_theta - n_theta // 2
    modes = np.fft.rfft(values, axis=1)
    folded = _fold(modes)
    product = np.empty_like(modes)
    x, y = (a.view(float).reshape(n_theta, -1, 2).transpose(1, 0, 2)
            for a in (folded, product))
    np.matmul(even, x[:, :n_even], out=y[:, :n_even])
    np.matmul(odd, x[:, n_even:], out=y[:, n_even:])
    return np.fft.irfft(_unfold(product, modes), n_phi, axis=1)


def apply_laplacian(op, field):
    """Apply the operator realization to a field on its grid."""
    if field.grid != op.grid:
        raise ParameterError("field grid does not match operator grid")
    return ScalarField(op.grid, apply_mode_blocks(op.blocks, field.values))


#: Past this a mean-coefficient half block (even or odd, see
#: ``mean_mode_inverse``) is singular to rounding, and its inverse keeps
#: less than half the digits.  One test serves both realizations: per
#: mode, (|c_q| max|B| + |c_u|) max|X| for B the stored block and X its
#: computed inverse, a bound on max|M| max|X| that |M X - I| follows as
#: about 3e-16 times.  Over 288 Newton starts of the cubic problem
#: (degrees 2 to 4, every order, dlam0 0.7, 4 and 4 at 2.5 times the
#: amplitude, 32x64 to 128x256) it reads at most 6.4e3 (spectral) and
#: 4.1e4 (FD), both at 128x256, and none is floored; the same starts of
#: atan-elliptic read at most 4.8e4 and 3.1e5.
_SINGULAR_BLOCK = 1e8


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


def _max_abs(blocks):
    """max|A| of each block A of a stack, by two reductions and no |A|
    temporary."""
    return np.maximum(blocks.max(axis=(1, 2)), -blocks.min(axis=(1, 2)))


def _invert_halves(op, coeff_u, coeff_q):
    """The half blocks of (coeff_u + coeff_q * Lap)^-1 as
    ``mean_mode_inverse`` forms them, with no test for singular blocks.
    An exactly singular FD block raises np.linalg.LinAlgError; an exactly
    zero spectral eigenvalue leaves inf or NaN entries, without a warning."""
    if op.realization == "finite-difference":
        inv = []
        for half in op.blocks:
            a = coeff_q * half
            ring = np.arange(a.shape[1])
            a[:, ring, ring] += coeff_u
            inv.append(np.linalg.inv(a))
        return tuple(inv)
    inv = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for (p, l, w), block in zip(op._legendre_factor, op.blocks):
            present = l <= max_degree(op.grid)
            # fewer degrees than rings: M is c_u on the rest, the null part
            null_part = (present.sum(axis=1) < p.shape[2]) / coeff_u
            ll1 = l * (l + 1.0)
            coef = np.divide(1.0, coeff_u - coeff_q * ll1, out=np.zeros(ll1.shape),
                             where=present)
            coef -= np.where(present, null_part[:, None], 0.0)
            x = _legendre_product(p, coef, w)
            ring = np.arange(x.shape[1])
            x[:, ring, ring] += null_part[:, None]
            residual = np.matmul(block, x)  # I - M X, M = c_u + c_q * block
            residual *= -coeff_q
            residual -= coeff_u * x
            residual[:, ring, ring] += 1.0
            x += np.matmul(x, residual)
            inv.append(x)
    return tuple(inv)


def mean_mode_inverse(op, coeff_u, coeff_q):
    """The MeanModeInverse of the mean-coefficient operator coeff_u +
    coeff_q * Lap, inverted half block by half block: M commutes with the
    equatorial flip, so its inverse has the even and odd halves of
    ``op.blocks`` too.

    A finite-difference operator's half blocks are inverted by
    ``np.linalg.inv``.  A spectral operator is inverted in closed form from
    its Legendre factor (``_parity_legendre_factor``, P its rows and W its
    weights), which the operator forms here on first use and keeps: its
    half block of mode m is P^T diag(-l(l+1)) P W, and P W P^T = I, so

        M^-1 = [null] I / c_u + P^T diag(1/d - [null] / c_u) P W,

    with d_l = c_u - c_q l(l+1) over the block's degrees and [null] = 1 on a
    block with fewer degrees than rings (its remaining directions are
    M's eigenvectors with eigenvalue c_u), 0 on one without.  P W P^T = I
    holds only to about 1e-14, so one Newton-Schulz step against the stored
    blocks, X <- X + X (I - M X), brings max|M X - I| down to LAPACK's
    level (about 4e-14 at 48x96 and 4e-13 at 128x256).

    Both realizations then take one test and one floor.  A half block is
    singular, exactly or to rounding, when (|c_q| max|B| + |c_u|) max|X|
    exceeds ``_SINGULAR_BLOCK`` or is NaN, for B the stored block and X
    its inverse (coeff_u == 0 meets the constant mode or the zero spectral
    Nyquist block, and coeff_u == l(l+1) coeff_q meets degree l).  Then
    coeff_u is shifted by one small floor and the blocks are formed once
    more; the returned coeff_u includes that shift, so the blocks invert
    the M that the returned coefficients describe."""
    try:
        inv = _invert_halves(op, coeff_u, coeff_q)
    except np.linalg.LinAlgError:  # an FD block singular to the last bit
        inv = None
    if inv is None or any(
        not np.max((abs(coeff_q) * _max_abs(b) + abs(coeff_u)) * _max_abs(x))
        <= _SINGULAR_BLOCK
        for b, x in zip(op.blocks, inv)
    ):
        coeff_u += _floor_shift(coeff_u, coeff_q)
        inv = _invert_halves(op, coeff_u, coeff_q)
    return MeanModeInverse(inv, coeff_u, coeff_q)
