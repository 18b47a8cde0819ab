"""Pole-free colatitude/longitude grids on the unit sphere and the field
primitives built on them: sampling, quadrature, the longitude series of
each ring and interpolation from it, and the one root refiner.

Colatitudes are Gauss-Legendre roots mapped through arccos, so no node ever
touches a pole and ring quadrature integrates band-limited integrands
exactly.  Longitudes are uniform on [0, 2pi) with no duplicated seam column;
periodicity is index arithmetic, never a ghost column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Roots of the degree-n Legendre polynomial, started from the Chebyshev
    guess and polished by Newton iteration until every update falls below
    1e-14.  Weights are 2 / ((1 - x^2) P_n'(x)^2).  Computed once per n;
    every call returns the same read-only arrays.
    """
    if n < 1:
        raise ParameterError("quadrature rule needs at least one node")
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
    return _read_only(x[order]), _read_only(w[order])


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the sphere: Gauss-Legendre colatitude rings crossed
    with uniform longitudes.

    ``theta_nodes`` increase strictly inside (0, pi); ``theta_weights`` are
    the Gauss-Legendre weights in x = cos(theta), so the product quadrature
    sums to the sphere area 4*pi.  Grids compare and hash by their counts.
    """

    n_theta: int
    n_phi: int
    theta_nodes: np.ndarray = field(compare=False)
    theta_weights: np.ndarray = field(compare=False)

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


def check_grid_shape(n_theta, n_phi):
    """Raise ParameterError unless n_theta >= 4 and n_phi >= 8 is even (even
    counts keep half-grid reflections exact): the counts ``make_grid``
    accepts, checked without building the colatitude rule."""
    if not isinstance(n_theta, (int, np.integer)) or n_theta < 4:
        raise ParameterError("n_theta must be an integer >= 4, got %r" % (n_theta,))
    if not isinstance(n_phi, (int, np.integer)) or n_phi < 8 or n_phi % 2:
        raise ParameterError("n_phi must be an even integer >= 8, got %r" % (n_phi,))


def make_grid(n_theta, n_phi):
    """Build a GridSpec with ``n_theta`` Gauss-Legendre colatitude rings and
    ``n_phi`` uniform longitudes; ``check_grid_shape`` states the valid
    counts.
    """
    check_grid_shape(n_theta, n_phi)
    x, w = gauss_legendre(int(n_theta))
    theta = _read_only(np.arccos(x[::-1]))  # x descending -> theta ascending
    weights = w[::-1]
    return GridSpec(int(n_theta), int(n_phi), theta, weights)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real field u(theta, phi) sampled on a GridSpec.

    ``values[j, k] = u(theta_j, phi_k)`` with phi_k = 2*pi*k / n_phi.  The
    array is copied in C order and frozen on construction; every operation
    returns a new field, so instances are safe to share across threads (two
    threads that form ``ring_series`` at once form the same array).
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True, order="C")
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

    @functools.cached_property
    def ring_series(self):
        """Real Fourier series of every ring along longitude, formed on
        first use and kept read-only (the values never change).

        Complex coefficients c of shape (n_theta, n_phi // 2 + 1) with
        u(theta_j, phi) = sum_m Re(c[j, m]) cos(m phi) - Im(c[j, m]) sin(m phi):
        the ``rfft`` coefficients scaled by 2 / n_phi, with the constant and
        Nyquist terms halved.
        """
        n = self.grid.n_phi
        coeffs = np.fft.rfft(self.values, axis=1) * (2.0 / n)
        coeffs[:, 0] *= 0.5
        coeffs[:, n // 2] *= 0.5
        return _read_only(coeffs)

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

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__


def eval_on_grid(grid, f):
    """Sample the pointwise function f(theta, phi) on every grid node.

    ``f`` is called once, on the (theta, phi) coordinate matrices of
    ``grid.mesh()``, and its result is broadcast to the grid's shape, so
    a constant fills every node.  A non-finite result raises
    EvaluationError naming the offending node.
    """
    theta, phi = grid.mesh()
    vals = np.broadcast_to(np.asarray(f(theta, phi), dtype=float), theta.shape)
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


def eval_series(coeffs, phis):
    """Sum real longitude series at arbitrary longitudes.

    ``coeffs`` has one row per series in the convention of
    ``ScalarField.ring_series``; returns an array of shape
    (len(coeffs), len(phis)).  The cosine and sine sums go through
    ``einsum``, which runs on the calling thread.  A matrix product would
    go to BLAS, which threads these small products although the second
    thread saves no time and keeps spinning between calls.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    mphi = np.multiply.outer(np.arange(coeffs.shape[1]), phis)
    return (np.einsum("tm,mk->tk", coeffs.real, np.cos(mphi))
            - np.einsum("tm,mk->tk", coeffs.imag, np.sin(mphi)))


def interp_phi(field, phis):
    """Trigonometric interpolation of every ring at arbitrary longitudes:
    the field's ring series summed by ``eval_series``.

    Returns an array of shape (n_theta, len(phis)).
    """
    return eval_series(field.ring_series, phis)


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
