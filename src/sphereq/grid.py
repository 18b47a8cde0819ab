"""Pole-free colatitude/longitude grids on the unit sphere and the field
primitives built on them: sampling, quadrature, longitudinal spectral
calculus and interpolation, reflection coefficients, and the one root
refiner.

Colatitudes are Gauss-Legendre roots mapped through arccos, so no node ever
touches a pole and ring quadrature integrates band-limited integrands
exactly.  Longitudes are uniform on [0, 2pi) with no duplicated seam column;
periodicity is index arithmetic, never a ghost column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError

TWO_PI = 2.0 * math.pi
#: Newton polishing of the Gauss-Legendre roots stops once every update
#: falls below this, or after this many iterations.
_GL_TOL = 1e-14
_GL_MAX_ITER = 100
#: Halvings bisect_roots gives every bracket; 60 take a bracket of width
#: 2*pi below 1e-17, past the resolution of a double.
_BISECT_STEPS = 60


def _legendre_and_derivative(n, x):
    """Values of P_n and P_n' at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Roots of the degree-n Legendre polynomial, started from the Chebyshev
    guess and polished by Newton iteration until every update falls below
    1e-14.  Weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ParameterError("quadrature rule needs at least one node")
    if n == 1:
        return np.zeros(1), np.full(1, 2.0)
    k = np.arange(n, dtype=float)
    x = np.cos(math.pi * (4.0 * k + 3.0) / (4.0 * n + 2.0))
    for _ in range(_GL_MAX_ITER):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _GL_TOL:
            break
    p, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Discretization of the sphere: Gauss-Legendre colatitude rings crossed
    with uniform longitudes.

    ``theta_nodes`` increase strictly inside (0, pi); ``theta_weights`` are
    the Gauss-Legendre weights in x = cos(theta), so the product quadrature
    sums to the sphere area 4*pi.
    """

    n_theta: int
    n_phi: int
    theta_nodes: np.ndarray
    theta_weights: np.ndarray

    @property
    def phi_nodes(self):
        return TWO_PI * np.arange(self.n_phi) / self.n_phi

    @property
    def phi_cell(self):
        """Longitudinal spacing 2*pi / n_phi."""
        return TWO_PI / self.n_phi

    def mesh(self):
        """(theta, phi) coordinate matrices of shape (n_theta, n_phi)."""
        return np.meshgrid(self.theta_nodes, self.phi_nodes, indexing="ij")

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return self.n_theta == other.n_theta and self.n_phi == other.n_phi

    def __hash__(self):
        return hash((self.n_theta, self.n_phi))


def make_grid(n_theta, n_phi):
    """Build a GridSpec with ``n_theta`` Gauss-Legendre colatitude rings and
    ``n_phi`` uniform longitudes.

    Requires n_theta >= 4 and even n_phi >= 8 (even counts keep half-grid
    reflections exact).
    """
    if not isinstance(n_theta, (int, np.integer)) or n_theta < 4:
        raise ParameterError("n_theta must be an integer >= 4, got %r" % (n_theta,))
    if not isinstance(n_phi, (int, np.integer)) or n_phi < 8 or n_phi % 2:
        raise ParameterError("n_phi must be an even integer >= 8, got %r" % (n_phi,))
    x, w = gauss_legendre(int(n_theta))
    theta = np.arccos(x[::-1])  # x descending -> theta ascending
    weights = w[::-1]
    return GridSpec(int(n_theta), int(n_phi), theta, weights)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real field u(theta, phi) sampled on a GridSpec.

    ``values[j, k] = u(theta_j, phi_k)`` with phi_k = 2*pi*k / n_phi.  The
    array is copied and frozen on construction; every operation returns a
    new field, so instances are safe to share across threads.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ParameterError(
                "field shape %s does not match grid (%d, %d)"
                % (arr.shape, self.grid.n_theta, self.grid.n_phi)
            )
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise EvaluationError(
                "non-finite field value at ring %d, column %d" % (bad[0], bad[1])
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    @property
    def span(self):
        """max(u) - min(u) over the grid."""
        return float(np.max(self.values) - np.min(self.values))

    def _binary(self, other, op):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ParameterError("fields live on different grids")
            return ScalarField(self.grid, op(self.values, other.values))
        return ScalarField(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return ScalarField(self.grid, other - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return ScalarField(self.grid, self.values / scalar)

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


def eval_on_grid(grid, f):
    """Sample the pointwise function f(theta, phi) on every grid node.

    ``f`` may be vectorized over arrays or accept scalars only; both work.
    A non-finite result raises EvaluationError naming the offending node.
    """
    theta, phi = grid.mesh()
    try:
        vals = np.asarray(f(theta, phi), dtype=float)
        if vals.shape != theta.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.empty_like(theta)
        for j in range(grid.n_theta):
            for k in range(grid.n_phi):
                vals[j, k] = f(theta[j, k], phi[j, k])
    if not np.all(np.isfinite(vals)):
        j, k = np.argwhere(~np.isfinite(vals))[0]
        raise EvaluationError(
            "f(theta=%.17g, phi=%.17g) is not finite"
            % (grid.theta_nodes[j], grid.phi_nodes[k])
        )
    return ScalarField(grid, vals)


def integrate(field):
    """Quadrature of the field over the sphere.

    Exact for integrands polynomial of degree <= 2*n_theta - 1 in cos(theta)
    times trigonometric degree < n_phi in phi.
    """
    g = field.grid
    ring_sums = field.values.sum(axis=1)
    return float(np.dot(g.theta_weights, ring_sums) * g.phi_cell)


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


def ring_series(values):
    """Real Fourier series of every ring of grid values along longitude.

    ``values`` has shape (n_theta, n_phi).  Returns complex coefficients c
    of shape (n_theta, n_phi // 2 + 1) with
    u(theta_j, phi) = sum_m Re(c[j, m]) cos(m phi) - Im(c[j, m]) sin(m phi):
    the ``rfft`` coefficients scaled by 2 / n_phi, with the constant and
    Nyquist terms halved.
    """
    n = values.shape[1]
    coeffs = np.fft.rfft(values, axis=1) * (2.0 / n)
    coeffs[:, 0] *= 0.5
    coeffs[:, n // 2] *= 0.5
    return coeffs


def interp_phi(field, phis):
    """Trigonometric interpolation of every ring at arbitrary longitudes.

    Returns an array of shape (n_theta, len(phis)).

    Each ring is the real cosine/sine series of ``ring_series``, summed by
    ``einsum``, which runs on the calling thread.  A matrix product would
    go to BLAS, which threads these small products although the second
    thread saves no time and keeps spinning between calls.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    coeffs = ring_series(field.values)
    mphi = np.multiply.outer(np.arange(coeffs.shape[1]), phis)
    return (np.einsum("tm,mk->tk", coeffs.real, np.cos(mphi))
            - np.einsum("tm,mk->tk", coeffs.imag, np.sin(mphi)))


def oversample_phi(field, factor):
    """Resample every ring on a ``factor`` times finer uniform longitude grid
    by Fourier zero padding (exact trigonometric interpolation)."""
    if factor < 1 or int(factor) != factor:
        raise ParameterError("oversampling factor must be a positive integer")
    factor = int(factor)
    if factor == 1:
        return field.values.copy()
    n = field.grid.n_phi
    fine_n = factor * n
    coeffs = np.fft.rfft(field.values, axis=1)
    padded = np.zeros((field.grid.n_theta, fine_n // 2 + 1), dtype=complex)
    padded[:, : n // 2] = coeffs[:, : n // 2] * factor
    padded[:, n // 2] = coeffs[:, n // 2] * (0.5 * factor)
    return np.fft.irfft(padded, fine_n, axis=1)


def bisect_roots(f, a, b):
    """Roots of f refined by bisection in every bracket [a[i], b[i]] at once.

    ``f`` maps an array of points, one per bracket in bracket order, to the
    values there, so each bracket may carry its own function; it is called
    once at ``a`` and once per step.  Each bracket must hold a strict sign
    change, f(a[i]) * f(b[i]) < 0.  Every bracket is halved together, 60
    times, keeping the half whose ends differ in sign; a midpoint where f is
    exactly 0 ends its bracket there.  Returns the final midpoints.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa = np.array(f(a), dtype=float)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        fm = f(mid)
        # an exact zero moves both ends to it; a bracket with a == b has
        # mid == a and never moves again
        lower = fa * fm < 0.0
        shrink = lower | (fm == 0.0)
        b[shrink] = mid[shrink]
        a[~lower], fa[~lower] = mid[~lower], fm[~lower]
    return 0.5 * (a + b)
