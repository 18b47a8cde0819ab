"""Problem evaluators, the residual and the Jacobian action, ellipticity
auditing, and the homotopy-averaged coefficient identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereq import (
    NonlinearProblem,
    ParameterError,
    apply_laplacian,
    atan_elliptic,
    chafee_infante,
    detect_bifurcations,
    ellipticity_audit,
    eval_on_grid,
    harmonic_mode,
    make_grid,
    problem_from_name,
    residual,
)
from sphereq.problems import linearization_coefficients
from conftest import random_band_limited
from oracles import averaged_coefficients, reflect_phi, verify_partial_derivatives


def test_cubic_pointwise_values():
    p = chafee_infante(3.0)
    assert p.eval_F(0.0, 0.0) == 0.0
    assert p.eval_F(1.0, 0.0) == 0.0
    assert p.eval_F(-1.0, 0.0) == 0.0
    assert float(p.eval_Fu(0.0, 0.0)) == 3.0
    assert float(p.eval_Fq(0.7, -2.0)) == 1.0


def test_partial_derivatives_match_finite_differences():
    p = chafee_infante(2.3)
    err_u, err_q = verify_partial_derivatives(p, rng=0)
    assert err_u < 1e-6 and err_q < 1e-6


def test_atan_elliptic_is_fully_nonlinear():
    """The registered atan-elliptic problem: exact partials, F_q in [2, 3)
    varying with q, and its degree-l crossings at lam = 2 l(l+1)."""
    p = problem_from_name("atan-elliptic", 13.0)
    assert p.name == "atan-elliptic" and p.lam == 13.0 and p.delta_floor == 2.0
    err_u, err_q = verify_partial_derivatives(p, rng=0)
    assert err_u < 1e-6 and err_q < 1e-6
    fq = p.eval_Fq(0.0, np.array([0.0, 1.0, -10.0]))
    assert np.all((fq >= 2.0) & (fq < 3.0)) and np.ptp(fq) > 0.9
    points = detect_bifurcations(atan_elliptic, (1.0, 13.0), 3)
    assert [(round(lam, 9), l) for lam, l in points] == [(4.0, 1), (12.0, 2)]


def test_registry_round_trip():
    p = problem_from_name("chafee-infante", 4.0)
    assert p.lam == 4.0
    with pytest.raises(ParameterError):
        problem_from_name("nonexistent", 1.0)


def test_residual_constant_equilibria(grid32, op32):
    p = chafee_infante(5.0)
    zero = eval_on_grid(grid32, lambda t, ph: np.zeros_like(t))
    one = eval_on_grid(grid32, lambda t, ph: np.ones_like(t))
    assert residual(p, op32, zero).sup_norm == 0.0
    assert residual(p, op32, one).sup_norm < 1e-10


def test_residual_cubic_scaling_at_critical_lambda(grid32, op32):
    """At lam = 6 the linearization annihilates Y_2^2, so the residual of
    eps * Y_2^2 is exactly the cubic term and scales like eps^3."""
    p = chafee_infante(6.0)
    y = harmonic_mode(grid32, 2, 2)
    norms = []
    for eps in (1e-1, 1e-2, 1e-3):
        r = residual(p, op32, y * eps)
        norms.append(r.sup_norm)
    ratios = np.array(norms[:-1]) / np.array(norms[1:])
    assert np.all(np.abs(ratios - 1000.0) < 100.0)
    # absolute oracle: sup of 6 eps^3 Y^3
    expected = 6.0 * 1e-3 * np.max(np.abs(y.values)) ** 3
    assert norms[0] == pytest.approx(expected, rel=1e-6)


def test_jacobian_at_trivial_state(grid32, op32):
    p = chafee_infante(4.0)
    zero = eval_on_grid(grid32, lambda t, ph: np.zeros_like(t))
    w = random_band_limited(grid32, 6, np.random.default_rng(5))
    fu, fq = linearization_coefficients(p, zero, apply_laplacian(op32, zero))
    jw = fu * w.values + fq * apply_laplacian(op32, w).values
    expected = apply_laplacian(op32, w) + w * 4.0
    assert np.max(np.abs(jw - expected.values)) < 1e-10 * max(
        1.0, expected.sup_norm
    )


def test_jacobian_matches_directional_difference(grid32, op32):
    p = chafee_infante(3.3)
    rng = np.random.default_rng(6)
    u = random_band_limited(grid32, 6, rng, scale=0.4)
    w = random_band_limited(grid32, 6, rng, scale=0.4)
    h = 1e-5
    plus = residual(p, op32, u + w * h)
    minus = residual(p, op32, u - w * h)
    fd = (plus - minus) * (0.5 / h)
    fu, fq = linearization_coefficients(p, u, apply_laplacian(op32, u))
    jw = fu * w.values + fq * apply_laplacian(op32, w).values
    assert np.max(np.abs(jw - fd.values)) < 1e-6 * max(1.0, np.max(np.abs(jw)))


def test_jacobian_on_zero_direction(grid32, op32):
    p = chafee_infante(3.0)
    u = random_band_limited(grid32, 5, np.random.default_rng(7))
    zero = eval_on_grid(grid32, lambda t, ph: np.zeros_like(t))
    fu, fq = linearization_coefficients(p, u, apply_laplacian(op32, u))
    jw = fu * zero.values + fq * apply_laplacian(op32, zero).values
    assert np.max(np.abs(jw)) == 0.0


def test_ellipticity_audits(grid32, op32):
    sign_changing = harmonic_mode(grid32, 2, 2)
    audit = ellipticity_audit(chafee_infante(2.0), op32, sign_changing)
    assert audit.passed and audit.min_fq == 1.0

    stronger = NonlinearProblem(
        "shifted",
        eval_F=lambda u, q: q * (1.0 + u * u) + u,
        eval_Fu=lambda u, q: 2.0 * u * q + 1.0,
        eval_Fq=lambda u, q: 1.0 + u * u,
        delta_floor=1.0,
    )
    audit = ellipticity_audit(stronger, op32, sign_changing)
    assert audit.passed and audit.min_fq >= 1.0

    degenerate = NonlinearProblem(
        "degenerate",
        eval_F=lambda u, q: u * q,
        eval_Fu=lambda u, q: q,
        eval_Fq=lambda u, q: u,
        delta_floor=0.5,
    )
    audit = ellipticity_audit(degenerate, op32, sign_changing)
    assert not audit.passed and audit.min_fq < 0.0


def test_averaged_coefficients_constant_fq(grid32, op32):
    p = chafee_infante(2.5)
    u = random_band_limited(grid32, 6, np.random.default_rng(8), scale=0.5)
    u_ref = reflect_phi(u, 0.9)
    a, _ = averaged_coefficients(
        p, u.values, apply_laplacian(op32, u).values,
        u_ref.values, apply_laplacian(op32, u_ref).values,
    )
    assert np.max(np.abs(a - 1.0)) < 1e-14


def test_averaged_coefficients_at_trivial_state(grid32, op32):
    lam = 3.7
    p = chafee_infante(lam)
    zero = eval_on_grid(grid32, lambda t, ph: np.zeros_like(t))
    q = apply_laplacian(op32, zero).values
    _, b = averaged_coefficients(p, zero.values, q, zero.values, q)
    assert np.max(np.abs(b - lam)) < 1e-14


def test_averaged_coefficient_closed_form(grid32, op32):
    """For the cubic problem the tau integral of F_u has the closed form
    lam * (1 - (u^2 + u*u_ref + u_ref^2))."""
    lam = 4.2
    p = chafee_infante(lam)
    u = random_band_limited(grid32, 6, np.random.default_rng(9), scale=0.7)
    u_ref = reflect_phi(u, 2.1)
    _, b = averaged_coefficients(
        p, u.values, apply_laplacian(op32, u).values,
        u_ref.values, apply_laplacian(op32, u_ref).values,
    )
    closed = lam * (
        1.0
        - (u.values**2 + u.values * u_ref.values + u_ref.values**2)
    )
    assert np.max(np.abs(b - closed)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), eps=st.floats(0.05, 6.2))
def test_averaged_equation_reproduces_residual_difference(seed, eps):
    """a * Lap w + b * w equals F(u, Lap u) - F(u_ref, Lap u_ref) for any
    field and its reflection (fundamental theorem of calculus in tau)."""
    from sphereq import make_operator

    g = make_grid(16, 32)
    op = make_operator(g, "spectral")
    p = chafee_infante(3.1)
    u = random_band_limited(g, 6, np.random.default_rng(seed), scale=0.8)
    u_ref = reflect_phi(u, eps)
    w = u - u_ref
    a, b = averaged_coefficients(
        p, u.values, apply_laplacian(op, u).values,
        u_ref.values, apply_laplacian(op, u_ref).values,
    )
    lap_w = apply_laplacian(op, w)
    lhs = a * lap_w.values + b * w.values
    rhs = residual(p, op, u).values - residual(p, op, u_ref).values
    scale = (
        np.max(np.abs(a)) * lap_w.sup_norm + np.max(np.abs(b)) * w.sup_norm + 1e-30
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


def test_residual_equivariance(grid32, op32):
    """Reflecting a field commutes with evaluating the residual: the
    operational core of the whole symmetry argument."""
    p = chafee_infante(5.5)
    rng = np.random.default_rng(10)
    for _ in range(5):
        u = random_band_limited(grid32, 8, rng, scale=0.6)
        c = rng.uniform(0.0, 2 * np.pi)
        lhs = residual(p, op32, reflect_phi(u, c))
        rhs = reflect_phi(residual(p, op32, u), c)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9 * max(
            1.0, rhs.sup_norm
        )
