"""Grid construction, quadrature, longitudinal calculus, reflections."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereq import (
    EvaluationError,
    ParameterError,
    ScalarField,
    eval_on_grid,
    gauss_legendre,
    integrate,
    interp_phi,
    make_grid,
)
from sphereq.grid import bisect_roots
from conftest import random_band_limited
from oracles import d_phi, reflect_phi, rotate_phi

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# quadrature nodes and weights
# ---------------------------------------------------------------------------


def test_gauss_legendre_matches_numpy():
    for n in (4, 16, 64):
        x, w = gauss_legendre(n)
        xr, wr = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - xr)) < 1e-14
        assert np.max(np.abs(w - wr)) < 1e-14
    # one node: the Newton iteration lands on the midpoint exactly
    assert gauss_legendre(1)[0].tolist() == [0.0]
    assert gauss_legendre(1)[1].tolist() == [2.0]


def test_grids_share_one_read_only_rule():
    """The rule is computed once per ring count: every grid of that size
    reads the same weights, and no caller can write into them."""
    a, b = make_grid(48, 96), make_grid(48, 96)
    assert np.array_equal(a.theta_nodes, b.theta_nodes)
    assert np.shares_memory(a.theta_weights, b.theta_weights)
    for arr in (a.theta_nodes, b.theta_nodes, a.theta_weights, *gauss_legendre(48)):
        assert not arr.flags.writeable
    assert gauss_legendre(48)[0] is gauss_legendre(48)[0]


def test_make_grid_nodes_symmetric_about_equator():
    g = make_grid(4, 8)
    assert g.n_theta == 4
    assert np.allclose(g.theta_nodes + g.theta_nodes[::-1], np.pi, atol=1e-14)


def test_make_grid_nodes_interior_and_increasing():
    g = make_grid(24, 48)
    assert np.all(g.theta_nodes > 0) and np.all(g.theta_nodes < np.pi)
    assert np.all(np.diff(g.theta_nodes) > 0)


@pytest.mark.parametrize("n_theta,n_phi", [(4, 8), (16, 32), (48, 96)])
def test_sphere_area_every_resolution(n_theta, n_phi):
    g = make_grid(n_theta, n_phi)
    one = eval_on_grid(g, lambda t, p: np.ones_like(t))
    assert abs(integrate(one) - FOUR_PI) < 1e-12 * FOUR_PI


@pytest.mark.parametrize(
    "n_theta,n_phi", [(3, 8), (4, 7), (4, 6), (0, 8), (4, -8)]
)
def test_make_grid_rejects_bad_sizes(n_theta, n_phi):
    with pytest.raises(ParameterError):
        make_grid(n_theta, n_phi)


# ---------------------------------------------------------------------------
# sampling and integration
# ---------------------------------------------------------------------------


def test_eval_constant_and_zonal(grid32):
    ones = eval_on_grid(grid32, lambda t, p: np.ones_like(t))
    assert np.all(ones.values == 1.0)
    zonal = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    assert np.max(np.abs(zonal.values - zonal.values[:, :1])) == 0.0


def test_eval_nonfinite_names_node(grid32):
    def bad(t, p):
        return np.where((t < 0.2) & (p < 0.2), np.inf, 1.0)

    with pytest.raises(EvaluationError, match="phi"):
        eval_on_grid(grid32, bad)


def test_ring_fourier_mean_vanishes(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(2 * p))
    ring_means = u.values.mean(axis=1)
    assert np.max(np.abs(ring_means)) < 1e-12


def test_integrate_cos_theta_is_zero(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    assert abs(integrate(u)) < 1e-12


def test_integrate_cos_sq_theta(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) ** 2 + 0.0 * p)
    assert abs(integrate(u) - FOUR_PI / 3.0) < 1e-12


def test_integrate_single_wave_is_zero(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(p))
    assert abs(integrate(u)) < 1e-12


# ---------------------------------------------------------------------------
# longitudinal derivative
# ---------------------------------------------------------------------------


def test_d_phi_analytic(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(2 * p))
    expected = eval_on_grid(grid32, lambda t, p: -2.0 * np.sin(t) * np.sin(2 * p))
    assert np.max(np.abs(d_phi(u).values - expected.values)) < 1e-12


def test_d_phi_constant(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.full_like(t, 0.7))
    assert np.max(np.abs(d_phi(u).values)) == 0.0


def test_d_phi_second_derivative(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(p) + 0.0 * t)
    twice = d_phi(d_phi(u))
    assert np.max(np.abs(twice.values + u.values)) < 1e-12


# ---------------------------------------------------------------------------
# reflections and rotations
# ---------------------------------------------------------------------------


def test_reflect_fixed_field(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(2 * p))
    assert np.max(np.abs(reflect_phi(u, np.pi / 2).values - u.values)) < 1e-12


def test_reflect_antisymmetric_center(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(2 * p))
    assert np.max(np.abs(reflect_phi(u, np.pi / 4).values + u.values)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(center=st.floats(0.0, 2.0 * np.pi), seed=st.integers(0, 2**31))
def test_reflection_is_involution(center, seed):
    g = make_grid(16, 32)
    u = random_band_limited(g, 7, np.random.default_rng(seed))
    back = reflect_phi(reflect_phi(u, center), center)
    assert np.max(np.abs(back.values - u.values)) < 1e-12 * max(1.0, u.sup_norm)


def test_reflection_composition_is_rotation(grid32):
    rng = np.random.default_rng(7)
    u = random_band_limited(grid32, 9, rng)
    c1, c2 = 1.1, 0.4
    lhs = reflect_phi(reflect_phi(u, c2), c1)
    # composing mirrors about c2 then c1 translates phi by 2*(c1 - c2)
    rhs = rotate_phi(u, -2.0 * (c1 - c2))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_d_phi_anticommutes_with_reflection(grid32):
    rng = np.random.default_rng(8)
    u = random_band_limited(grid32, 9, rng)
    c = 0.83
    lhs = d_phi(reflect_phi(u, c))
    rhs = reflect_phi(d_phi(u), c)
    assert np.max(np.abs(lhs.values + rhs.values)) < 1e-12 * max(1.0, rhs.sup_norm)


def test_interp_phi_reproduces_grid_and_offgrid(grid32):
    rng = np.random.default_rng(9)
    u = random_band_limited(grid32, 9, rng)
    at_nodes = interp_phi(u, grid32.phi_nodes)
    assert np.max(np.abs(at_nodes - u.values)) < 1e-12
    phis = np.array([0.1234, 2.77, 5.5])
    direct = interp_phi(u, phis)
    assert direct.shape == (grid32.n_theta, 3)


def test_ring_series_is_formed_once_and_read_only(grid32, monkeypatch):
    """Every longitude operation on a field reads one series, which no
    caller can write into."""
    u = random_band_limited(grid32, 9, np.random.default_rng(11))
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(args)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    series = u.ring_series
    interp_phi(u, [0.1, 2.0])
    assert u.ring_series is series and len(calls) == 1
    with pytest.raises(ValueError):
        series[0, 0] = 1.0
    # a new field forms its own series
    assert (u + 1.0).ring_series[:, 0] == pytest.approx(series[:, 0] + 1.0, abs=1e-14)
    assert len(calls) == 2


def test_interp_phi_matches_full_fourier_synthesis(grid32):
    # arbitrary node values carry a Nyquist column, whose cosine weight the
    # real series must get right to reproduce the nodes
    rng = np.random.default_rng(10)
    u = ScalarField(grid32, rng.standard_normal((grid32.n_theta, grid32.n_phi)))
    assert np.max(np.abs(interp_phi(u, grid32.phi_nodes) - u.values)) < 1e-12
    phis = rng.uniform(-1.0, 8.0, 7)
    n = grid32.n_phi
    m = np.fft.fftfreq(n, d=1.0 / n)
    dense = (np.fft.fft(u.values, axis=1) / n) @ np.exp(1j * np.outer(m, phis))
    assert np.max(np.abs(interp_phi(u, phis) - dense.real)) < 1e-13
    assert interp_phi(u, 0.3).shape == (grid32.n_theta, 1)


# ---------------------------------------------------------------------------
# root refinement
# ---------------------------------------------------------------------------


def _scalar_bisection(f, a, b):
    """One bracket halved until its midpoint is one of its ends, or f is
    exactly 0 there."""
    fa = f(a)
    while True:
        mid = 0.5 * a + 0.5 * b
        if mid in (a, b):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) != (fa < 0.0):
            b = mid
        else:
            a, fa = mid, fm


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bisect_roots_refines_every_bracket_like_a_scalar_bisection():
    """Each bracket carries its own function (x^2 - c for its own c, or its
    negative), and all are refined together to what a scalar bisection of
    that one function gives.  So are brackets 1e30 wide, near the largest
    double (where a + b overflows) and on values near 1e200 (where a
    product of two overflows): their roots are doubles, which the
    halvings reach exactly."""
    c = np.array([2.0, 3.0, 0.5, 7.0])
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    a = np.array([1.0, 1.5, 0.0, 2.0])
    b = np.array([2.0, 2.0, 1.0, 3.0])
    roots = bisect_roots(lambda x: sign * (x * x - c), a, b)
    assert roots.shape == (4,)
    for i in range(4):
        expected = _scalar_bisection(
            lambda x: sign[i] * (x * x - c[i]), a[i], b[i]
        )
        assert roots[i] == expected
    assert np.max(np.abs(roots - np.sqrt(c))) < 1e-15

    funcs = (lambda x: x - 1.0, lambda x: x - 1.5e308, lambda x: 1e200 * (x - 0.3))
    a, b = [0.0, 1e308, 0.0], [1e30, 1.7e308, 1.0]
    roots = bisect_roots(lambda x: np.array([f(v) for f, v in zip(funcs, x)]), a, b)
    assert roots.tolist() == [1.0, 1.5e308, 0.3]
    assert roots.tolist() == [_scalar_bisection(*args) for args in zip(funcs, a, b)]


def test_bisect_roots_stops_at_an_exact_zero():
    roots = bisect_roots(lambda x: x - np.array([0.0, 0.3]), [-1.0, -1.0], [1.0, 1.0])
    assert roots[0] == 0.0
    assert abs(roots[1] - 0.3) < 1e-15
    assert bisect_roots(lambda x: x, np.array([-1.0]), np.array([1.0]))[0] == 0.0


def _counted(f):
    """f, and a list that grows by one per call of it."""
    calls = []

    def g(x):
        calls.append(x.copy())
        return f(x)

    return g, calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bisect_roots_newton_steps_reach_the_bisection_roots_sooner():
    """With slopes, the brackets of x^2 - c (each its own c and sign) end
    within a few units in the last place of bisection's roots, in at most
    a quarter of its evaluations."""
    c = np.array([2.0, 3.0, 0.5, 7.0])
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    a = np.array([1.0, 1.5, 0.0, 2.0])
    b = np.array([2.0, 2.0, 1.0, 3.0])
    f, bisections = _counted(lambda x: sign * (x * x - c))
    expected = bisect_roots(f, a, b)
    g, newton = _counted(lambda x: (sign * (x * x - c), sign * 2.0 * x))
    roots = bisect_roots(g, a, b, slope=True)
    assert np.all(np.abs(roots - expected) <= 4 * np.spacing(expected))
    assert 4 * len(newton) <= len(bisections)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "f, df, a, b",
    [
        # the slope is zero everywhere: every step bisects
        (lambda x: x - 0.3, lambda x: 0.0 * x, -1.0, 1.0),
        # zero at the bracket's first end, where the Newton step starts
        (lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0),
        # a slope so small that the Newton step overflows
        (lambda x: x - 0.3, lambda x: 1e-320 + 0.0 * x, -1.0, 1.0),
    ],
    ids=["zero-everywhere", "zero-at-start", "overflowing-step"],
)
def test_bisect_roots_zero_slope_ends_within_bisection_count(f, df, a, b):
    """A zero slope (or one whose Newton step overflows) takes the
    midpoint, without a warning, so the bracket ends within bisection's
    evaluation count, on a root of f."""
    plain, bisections = _counted(f)
    expected = bisect_roots(plain, np.array([a]), np.array([b]))
    guided, newton = _counted(lambda x: (f(x), df(x)))
    root = bisect_roots(guided, np.array([a]), np.array([b]), slope=True)
    assert len(newton) <= len(bisections)
    assert abs(root[0] - expected[0]) <= 4 * np.spacing(expected[0])


# ---------------------------------------------------------------------------
# field container
# ---------------------------------------------------------------------------


def test_field_shape_and_finiteness_checks(grid32):
    with pytest.raises(ParameterError):
        ScalarField(grid32, np.zeros((3, 3)))
    bad = np.zeros((grid32.n_theta, grid32.n_phi))
    bad[2, 5] = np.nan
    with pytest.raises(EvaluationError):
        ScalarField(grid32, bad)


def test_field_arithmetic_and_norms(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.cos(p))
    v = u * 2.0 - u
    assert np.allclose(v.values, u.values, atol=0)
    w = u - u
    assert w.sup_norm == 0.0
    assert u.span == pytest.approx(2.0 * u.sup_norm, rel=1e-12)
