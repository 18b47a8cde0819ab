"""Pole-free colatitude/longitude grids on the unit sphere and the field
primitives built on them: sampling, quadrature, the longitude series of
each ring and interpolation from it, and the one root refiner, which
bisects or, given slopes, takes Newton steps that bisection safeguards.

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
#: A slope-guided ``bisect_roots`` bracket ends once a Newton step moves
#: its point by at most this many units in the last place.
_NEWTON_ULPS = 4


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


def bisect_roots(f, a, b, slope=False):
    """Roots of f refined in every bracket [a[i], b[i]] at once, by
    bisection or, with ``slope``, by Newton steps that bisection safeguards.

    ``f`` maps an array of points, one per bracket in bracket order, to the
    values there, so each bracket may carry its own function; it is called
    once at ``a`` and once per step.  With ``slope`` it returns the pair
    (values, slopes) instead.  Each bracket must be finite, with
    a[i] < b[i] and a strict sign change: f(a[i]) and f(b[i]) nonzero and of
    opposite signs, compared by ``np.sign``, not by a product, which can
    overflow or underflow.  Every step evaluates f at one point inside each
    bracket and keeps the part of the bracket whose ends differ in sign; a
    point where f is exactly 0 ends its bracket there.  Without ``slope``
    the point is the midpoint 0.5 * a + 0.5 * b, which cannot overflow.
    With it, the point is the Newton step x - f(x) / f'(x) from the last
    point (from ``a`` at first) when that lies strictly inside the
    bracket, and the midpoint otherwise, so a zero or non-finite slope
    bisects.  A bracket stops once no midpoint lies strictly between its
    ends (they are adjacent doubles, or equal), or, with ``slope``, once a
    Newton step moves at most ``_NEWTON_ULPS`` units in the last place.
    A finite bracket is under 2**1025 wide and doubles are at least
    2**-1074 apart, so bisection takes at most about 2100 halvings.
    Returns the final midpoints, or the last Newton points.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, dfa = _evaluate(f, a, slope)
    x = a
    if slope:
        new = _newton_step(a, fa, dfa)
    settled = np.zeros(a.shape, dtype=bool)
    while True:
        mid = 0.5 * a + 0.5 * b
        active = ~settled & (a < mid) & (mid < b)
        if not np.any(active):
            return np.where(settled, x, mid)
        if slope:
            mid = np.where((a < new) & (new < b), new, mid)
        x = np.where(settled, x, mid)
        fx, dfx = _evaluate(f, x, slope)
        lower = active & (np.abs(np.sign(fa) - np.sign(fx)) == 2.0)
        shrink = lower | (active & (fx == 0.0))  # an exact zero ends at it
        raise_a = active & ~lower
        b[shrink] = x[shrink]
        a[raise_a], fa[raise_a] = x[raise_a], fx[raise_a]
        if slope:
            new = _newton_step(x, fx, dfx)
            done = active & (np.abs(new - x) <= _NEWTON_ULPS * np.spacing(np.abs(x)))
            settled |= done
            x = np.where(done, np.clip(new, a, b), x)


def _evaluate(f, x, slope):
    """f's values at x and, with ``slope``, its slopes there (else None)."""
    if not slope:
        return np.array(f(x), dtype=float), None
    values, slopes = f(x)
    return np.array(values, dtype=float), np.array(slopes, dtype=float)


def _newton_step(x, fx, dfx):
    """x - f(x) / f'(x): NaN or infinite where the slope is zero."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return x - fx / dfx
