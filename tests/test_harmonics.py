"""Spherical-harmonic transform and the two operator realizations."""

import math
import tracemalloc

import numpy as np
import pytest

from sphereq import (
    ParameterError,
    ResolutionError,
    ScalarField,
    SpectralCoeffs,
    apply_laplacian,
    eval_on_grid,
    harmonic_mode,
    integrate,
    make_grid,
    make_operator,
    max_degree,
    sht_forward,
    sht_inverse,
    trivial_branch_eigenvalues,
)
from sphereq import harmonics
from conftest import random_band_limited
from oracles import (
    d_phi,
    full_block_laplacian,
    full_table_sht_forward,
    full_table_sht_inverse,
    legendre_table,
    reflect_phi,
    spectral_parity_blocks,
)

FOUR_PI = 4.0 * np.pi


def test_forward_constant_normalization(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.full_like(t, 1.0 / np.sqrt(FOUR_PI)))
    coeffs = sht_forward(u, 8)
    assert coeffs[0, 0] == pytest.approx(1.0, abs=1e-12)
    rest = coeffs.coeffs.copy()
    rest[0, 8] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_forward_unit_coefficient_at_22(grid32):
    y = harmonic_mode(grid32, 2, 2)
    # independent orthonormality oracle: quadrature of Y^2 must be 1
    assert integrate(y * y) == pytest.approx(1.0, abs=1e-12)
    coeffs = sht_forward(y, 6)
    assert coeffs[2, 2] == pytest.approx(1.0, abs=1e-12)
    rest = coeffs.coeffs.copy()
    rest[2, 6 + 2] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_round_trip_random_band_limited(grid32):
    rng = np.random.default_rng(3)
    u = random_band_limited(grid32, 12, rng)
    back = sht_inverse(sht_forward(u, 12), grid32)
    assert np.max(np.abs(back.values - u.values)) < 1e-10 * max(1.0, u.sup_norm)


def test_inverse_zero_and_dipole(grid32):
    zero = sht_inverse(SpectralCoeffs(3, np.zeros((4, 7))), grid32)
    assert zero.sup_norm == 0.0
    arr = np.zeros((2, 3))
    arr[1, 1] = 1.0  # (l, m) = (1, 0)
    dipole = sht_inverse(SpectralCoeffs(1, arr), grid32)
    ratio = dipole.values[:, 0] / np.cos(grid32.theta_nodes)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12


def test_parseval(grid32):
    rng = np.random.default_rng(4)
    u = random_band_limited(grid32, 10, rng)
    coeffs = sht_forward(u, 10)
    power = integrate(u * u)
    assert np.sum(coeffs.coeffs**2) == pytest.approx(power, rel=1e-10)


def test_resolution_guards(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.ones_like(t))
    with pytest.raises(ResolutionError):
        sht_forward(u, 32)  # needs n_theta >= 33
    small = make_grid(8, 16)
    with pytest.raises(ResolutionError):
        harmonic_mode(small, 10**6, 2)  # refused before a 14.6 TiB table


@pytest.mark.parametrize("shape", [(8, 32), (40, 16), (8, 16)])
def test_resolution_rule_refuses_by_rings_and_by_longitudes(shape):
    """max_degree is the smaller of the ring limit n_theta - 1 and the
    longitude limit n_phi / 2 - 1: 8x32 stops at degree 7 by its rings,
    40x16 by its longitudes and 8x16 by both.  The one message names what
    degree 8 needs and what the grid has."""
    grid = make_grid(*shape)
    assert max_degree(grid) == 7
    harmonic_mode(grid, 7, 0)
    message = "degree 8 needs at least 9 colatitude rings and 18 longitudes; " \
        "the grid has %d and %d" % shape
    with pytest.raises(ResolutionError, match=message):
        harmonic_mode(grid, 8, 0)


def test_legendre_against_scipy():
    from scipy.special import lpmv

    theta = make_grid(16, 32).theta_nodes
    x = np.cos(theta)
    table = legendre_table(theta, 5)
    for l, m in [(3, 2), (5, 0), (4, 4), (5, 5)]:
        norm = np.sqrt(
            (2 * l + 1) / FOUR_PI * math.factorial(l - m) / math.factorial(l + m)
        )
        ref = norm * lpmv(m, l, x)
        assert np.max(np.abs(np.abs(table[l, m]) - np.abs(ref))) < 1e-12


# ---------------------------------------------------------------------------
# operator realizations
# ---------------------------------------------------------------------------


def test_laplacian_of_constant_is_zero(grid32, op32, fd32):
    u = eval_on_grid(grid32, lambda t, p: np.full_like(t, 2.5))
    # roundoff in the transform is amplified by l*(l+1) at the degree cap
    assert apply_laplacian(op32, u).sup_norm < 1e-10 * u.sup_norm
    assert apply_laplacian(fd32, u).sup_norm < 1e-10 * u.sup_norm


def test_laplacian_dipole(grid32, op32, fd32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    spectral = apply_laplacian(op32, u)
    assert np.max(np.abs(spectral.values + 2.0 * u.values)) < 1e-10
    # independent check: the finite-difference realization on a fine grid
    fine = make_grid(128, 8)
    uf = eval_on_grid(fine, lambda t, p: np.cos(t) + 0.0 * p)
    fd_fine = apply_laplacian(make_operator(fine, "finite-difference"), uf)
    assert np.max(np.abs(fd_fine.values + 2.0 * uf.values)) < 1e-5


def test_laplacian_sectoral_quadrupole(grid32, op32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) ** 2 * np.cos(2 * p))
    lap = apply_laplacian(op32, u)
    assert np.max(np.abs(lap.values + 6.0 * u.values)) < 1e-10


def test_eigen_identity_spectral(grid32, op32):
    for l in range(9):
        target = -l * (l + 1.0)
        for m in range(-l, l + 1):
            y = harmonic_mode(grid32, l, m)
            lap = apply_laplacian(op32, y)
            err = np.max(np.abs(lap.values - target * y.values))
            assert err < 1e-10 * max(1.0, abs(target)) * y.sup_norm


def test_eigen_identity_fd(grid32, fd32):
    for l in range(5):
        target = -l * (l + 1.0)
        for m in (-l, 0, l):
            y = harmonic_mode(grid32, l, abs(m) if m == 0 else m)
            lap = apply_laplacian(fd32, y)
            err = np.max(np.abs(lap.values - target * y.values))
            assert err < 5e-3 * max(1.0, abs(target))


def test_realization_agreement_and_convergence_order():
    rng = np.random.default_rng(11)
    errors = []
    for n_theta in (16, 32, 64):
        g = make_grid(n_theta, 2 * n_theta)
        u = random_band_limited(g, 5, np.random.default_rng(11))
        spectral = apply_laplacian(make_operator(g, "spectral"), u)
        fd = apply_laplacian(make_operator(g, "finite-difference"), u)
        errors.append(np.max(np.abs(spectral.values - fd.values)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.9)


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_reflection_equivariance(grid32, realization):
    op = make_operator(grid32, realization)
    rng = np.random.default_rng(12)
    for _ in range(5):
        u = random_band_limited(grid32, 9, rng)
        c = rng.uniform(0.0, 2 * np.pi)
        lhs = apply_laplacian(op, reflect_phi(u, c))
        rhs = reflect_phi(apply_laplacian(op, u), c)
        scale = max(1.0, rhs.sup_norm)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9 * scale


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_laplacian_commutes_with_reflection_off_band(realization):
    """Lap(u o R) = (Lap u) o R to roundoff on values that are not
    band-limited and carry a Nyquist column: both realizations are real
    blocks per longitude mode, so the Nyquist mode is no exception."""
    shape = (48, 96)
    grid = make_grid(*shape)
    op = make_operator(grid, realization)
    rng = np.random.default_rng(15)
    for c in (0.0, 0.7, 2.0 * np.pi / 96, rng.uniform(0.0, 2.0 * np.pi)):
        u = ScalarField(grid, rng.standard_normal(shape))
        assert np.max(np.abs(np.fft.rfft(u.values, axis=1)[:, -1])) > 1.0
        lhs = reflect_phi(apply_laplacian(op, u), c).values
        rhs = apply_laplacian(op, reflect_phi(u, c)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_operator_symmetry_and_semidefiniteness(grid32, op32, fd32):
    rng = np.random.default_rng(13)
    u = random_band_limited(grid32, 9, rng)
    v = random_band_limited(grid32, 9, rng)
    lap_u = apply_laplacian(op32, u)
    lap_v = apply_laplacian(op32, v)
    sym = integrate(lap_u * v) - integrate(u * lap_v)
    scale = max(abs(integrate(lap_u * v)), 1.0)
    assert abs(sym) < 1e-9 * scale
    quad = integrate(lap_u * u)
    assert quad <= 1e-9 * integrate(u * u)
    # the FD realization satisfies both only to discretization accuracy
    lap_u_fd = apply_laplacian(fd32, u)
    lap_v_fd = apply_laplacian(fd32, v)
    disc = np.max(np.abs(lap_u_fd.values - lap_u.values)) * integrate(v * v) ** 0.5
    sym_fd = integrate(lap_u_fd * v) - integrate(u * lap_v_fd)
    assert abs(sym_fd) < 10.0 * (disc + 1e-9)
    quad_fd = integrate(lap_u_fd * u)
    assert quad_fd <= np.max(np.abs(lap_u_fd.values - lap_u.values)) * integrate(
        u * u
    ) ** 0.5 * 10.0 + 1e-9


# ---------------------------------------------------------------------------
# harmonic modes and the eigen table
# ---------------------------------------------------------------------------


def test_mode_constant(grid32):
    y = harmonic_mode(grid32, 0, 0)
    assert np.max(np.abs(y.values - 1.0 / np.sqrt(FOUR_PI))) < 1e-12


def test_mode_22_has_four_longitudinal_extrema(grid32):
    y = harmonic_mode(grid32, 2, 2)
    dy = d_phi(y)
    ring = dy.values[grid32.n_theta // 2]
    signs = np.sign(ring)
    flips = np.count_nonzero(signs != np.roll(signs, 1))
    assert flips == 4


def test_mode_orthogonality(grid32):
    y21 = harmonic_mode(grid32, 2, 1)
    y22 = harmonic_mode(grid32, 2, 2)
    assert abs(integrate(y21 * y22)) < 1e-12


def test_mode_unit_norms(grid32):
    for l in range(9):
        for m in (-l, 0, l):
            y = harmonic_mode(grid32, l, m)
            assert integrate(y * y) == pytest.approx(1.0, abs=1e-10)


def test_mode_rejects_bad_order(grid32):
    with pytest.raises(ParameterError):
        harmonic_mode(grid32, 2, 3)


@pytest.mark.parametrize("l_max", [2.5, float("nan"), -1])
def test_trivial_branch_eigenvalues_need_a_non_negative_integer(l_max):
    """2.5 was truncated to 2, and NaN raised a bare ValueError from int()."""
    with pytest.raises(ParameterError, match="l_max.*integer"):
        trivial_branch_eigenvalues(l_max)


def test_trivial_branch_eigenvalues(grid32, op32):
    table = trivial_branch_eigenvalues(3)
    assert table[0] == (0, 0, 1)
    assert table[1] == (1, -2, 3)
    assert table[3] == (3, -12, 7)
    # cross-check the l = 1 and l = 3 entries against the operator itself
    for l in (1, 3):
        y = harmonic_mode(grid32, l, 1)
        lap = apply_laplacian(op32, y)
        eig = integrate(lap * y)  # Rayleigh quotient, unit-norm mode
        assert eig == pytest.approx(table[l][1], abs=1e-10)


def test_mode_table_multiplicities():
    table = trivial_branch_eigenvalues(8)
    assert [row[2] for row in table] == [2 * l + 1 for l in range(9)]


def _half_block_eigenvalues(op, m):
    """Eigenvalues of mode m's operator: the union over its even and odd
    parity halves."""
    return np.concatenate([np.linalg.eigvals(half[m]).real for half in op.blocks])


def test_mode_blocks_diagonalize_near_exact(op32, fd32):
    """Eigenvalues of the per-mode colatitude blocks (the union of the two
    parity halves): the FD ones sit close to -l(l+1); the spectral ones are
    -l(l+1) for m <= l <= L and 0 on the n_theta - (L + 1 - m) unresolved
    directions."""
    for m, targets in ((0, (-2.0, -6.0, -12.0)), (2, (-6.0, -12.0))):
        eigs = np.sort(_half_block_eigenvalues(fd32, m))[::-1]
        for target in targets:
            nearest = eigs[np.argmin(np.abs(eigs - target))]
            assert abs(nearest - target) < 2e-3 * max(1.0, abs(target))
    n_theta, L = op32.grid.n_theta, max_degree(op32.grid)
    for m in range(op32.grid.n_phi // 2 + 1):
        eigs = np.sort(_half_block_eigenvalues(op32, m))
        l = np.arange(m, L + 1, dtype=float)
        zeros = n_theta - l.size
        expected = np.sort(np.concatenate((-l * (l + 1.0), np.zeros(zeros))))
        assert np.max(np.abs(eigs - expected)) < 1e-10


@pytest.mark.parametrize("n_theta", [8, 9])
@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_mode_blocks_are_parity_halves(n_theta, realization):
    """Each mode stores a ceil(n_theta/2) even and a floor(n_theta/2) odd
    block, read-only."""
    op = make_operator(make_grid(n_theta, 16), realization)
    even, odd = op.blocks
    assert even.shape == (9, (n_theta + 1) // 2, (n_theta + 1) // 2)
    assert odd.shape == (9, n_theta // 2, n_theta // 2)
    assert not even.flags.writeable and not odd.flags.writeable


@pytest.mark.parametrize(
    "shape", [(16, 32), (24, 96), (33, 66), (48, 96), (96, 192), (128, 256)]
)
def test_spectral_blocks_equal_the_per_mode_build(shape):
    """The batched product over the padded Legendre factor gives the blocks
    a mode-by-mode build gives, entry for entry (a zero may differ in
    sign); the factor's padding rows add nothing.  24x96 caps the degree
    by its rings, so its modes above the cap are all zero."""
    grid = make_grid(*shape)
    for half, reference in zip(make_operator(grid).blocks, spectral_parity_blocks(grid)):
        assert np.array_equal(half, reference)


def test_legendre_factor_rows_by_degree():
    """Row j of mode m in the parity half p holds degree m + p + 2j, bit
    for bit the full table's row, and a row past the degree cap is zero;
    the even half has the equator ring of an odd ring count.  The operator
    reads the factor at the grid's cap (None), the transform at its
    coefficients' cap below it; 24x96 has more modes than rings, so its
    modes past the cap are all padding."""
    cases = [((9, 16), None), ((9, 16), 4), ((9, 16), 0), ((24, 96), None),
             ((24, 96), 10), ((33, 66), None), ((48, 96), None), ((48, 96), 20),
             ((128, 256), None)]
    for shape, cap in cases:
        grid = make_grid(*shape)
        cap = max_degree(grid) if cap is None else cap
        plm = legendre_table(grid.theta_nodes, cap)
        h = grid.n_theta // 2
        m = np.arange(grid.n_phi // 2 + 1)[:, None]
        for parity, (p, l, w) in enumerate(harmonics._parity_legendre_factor(grid, cap)):
            size = grid.n_theta - h if parity == 0 else h
            assert p.shape == (m.size, (cap - parity) // 2 + 1, size)
            assert w.shape == (size,)
            assert np.array_equal(l, m + parity + 2 * np.arange(l.shape[1]))
            expected = plm[np.minimum(l, cap), np.minimum(m, cap), :size]
            expected[l > cap] = 0.0
            assert np.array_equal(p, expected)
            assert not (p.flags.writeable or l.flags.writeable or w.flags.writeable)


def test_legendre_factor_peaks_at_its_own_halves():
    """Forming the factor at 128x256 holds little besides the padded halves
    it returns (8.1 MiB; the build peaks at 8.8 MiB); gathered from a full
    Legendre table, it peaked at 16.3 MiB."""
    grid = make_grid(128, 256)
    cap = max_degree(grid)
    tracemalloc.start()
    try:
        halves = harmonics._parity_legendre_factor(grid, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(p.nbytes for p, l, w in halves)


@pytest.mark.parametrize("shape", [(48, 96), (96, 192), (128, 256), (33, 66)])
@pytest.mark.parametrize("kind", ["band-limited", "noise"])
def test_sht_carries_a_field_between_grids(shape, kind):
    """The audit benchmark's carry: expand a field on 48x96 at cap 47 (at
    cap 32 for 33x66, whose degree cap that is) and synthesize the series
    on another grid.  The parity-split transform matches the full-table one
    within 1e-13 of the field's sup, both ways, on a band-limited field and
    on noise that aliases."""
    source = make_grid(48, 96)
    rng = np.random.default_rng(18)
    if kind == "noise":
        u = ScalarField(source, rng.standard_normal((48, 96)))
    else:
        u = random_band_limited(source, 47, rng)
    target = make_grid(*shape)
    cap = min(47, max_degree(target))
    coeffs = sht_forward(u, cap)
    reference = full_table_sht_forward(u, cap)
    assert np.max(np.abs(coeffs.coeffs - reference.coeffs)) <= 1e-13 * u.sup_norm
    carried = sht_inverse(coeffs, target).values
    expected = full_table_sht_inverse(reference, target).values
    assert np.max(np.abs(carried - expected)) <= 1e-13 * u.sup_norm


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda u: sht_forward(u, -1), "degree cap", id="forward-cap--1"),
        pytest.param(lambda u: sht_forward(u, 2.5), "degree cap", id="forward-cap-2.5"),
        pytest.param(lambda u: sht_forward(u, float("nan")), "degree cap",
                     id="forward-cap-nan"),
        pytest.param(lambda u: SpectralCoeffs(3, np.zeros((2, 2))), "coefficients",
                     id="coeffs-shape"),
        pytest.param(lambda u: SpectralCoeffs(1.5, np.zeros((2, 3))), "degree cap",
                     id="coeffs-cap-1.5"),
        pytest.param(lambda u: SpectralCoeffs(-1, np.zeros((0, 0))), "degree cap",
                     id="coeffs-cap--1"),
        pytest.param(lambda u: SpectralCoeffs(1, np.full((2, 3), np.inf)),
                     "coefficients", id="coeffs-inf"),
        pytest.param(lambda u: harmonic_mode(u.grid, -1, 0), "degree l must",
                     id="mode-degree--1"),
        pytest.param(lambda u: harmonic_mode(u.grid, 2.5, 1), "degree l must",
                     id="mode-degree-2.5"),
        pytest.param(lambda u: harmonic_mode(u.grid, 2, 0.5), "order .m. must",
                     id="mode-order-0.5"),
        pytest.param(lambda u: harmonic_mode(u.grid, 2, -3), "order",
                     id="mode-order--3"),
    ],
)
def test_bad_degrees_and_coefficients_are_parameter_errors(grid32, call, message):
    """A degree cap, degree or order that is not a non-negative integer
    (|m| for the order, at most l), and coefficients that are not a finite
    (cap+1, 2cap+1) array, are refused by name, not by an IndexError, a
    TypeError or a silently truncated cap."""
    with pytest.raises(ParameterError, match=message):
        call(harmonic_mode(grid32, 2, 1))


def test_integral_degrees_may_be_floats(grid32):
    """2.0 is the degree 2, as the other integer arguments take it."""
    y = harmonic_mode(grid32, 2, 1)
    assert np.array_equal(harmonic_mode(grid32, 2.0, 1.0).values, y.values)
    coeffs = sht_forward(y, 4.0)
    assert coeffs.degree_cap == 4 and isinstance(coeffs.degree_cap, int)
    assert np.array_equal(coeffs.coeffs, sht_forward(y, 4).coeffs)


@pytest.mark.parametrize("shape", [(8, 16), (9, 16), (33, 64), (48, 96)])
@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_apply_matches_full_block_reference(shape, realization):
    """The parity halves apply the same Laplacian as full n_theta x n_theta
    blocks built without the equatorial symmetry, on random values that
    are not band-limited, for even and odd ring counts."""
    grid = make_grid(*shape)
    values = np.random.default_rng(16).standard_normal(shape)
    reference = full_block_laplacian(grid, realization, values)
    lap = apply_laplacian(make_operator(grid, realization), ScalarField(grid, values))
    assert np.max(np.abs(lap.values - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("shape", [(8, 16), (9, 16), (33, 64), (48, 96)])
@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_laplacian_is_exactly_equivariant_under_the_ring_flip(shape, realization):
    """Lap(u o F) == (Lap u) o F bit for bit, with F the equatorial flip
    theta -> pi - theta of the Gauss-Legendre rings."""
    grid = make_grid(*shape)
    op = make_operator(grid, realization)
    u = ScalarField(grid, np.random.default_rng(17).standard_normal(shape))
    flipped = ScalarField(grid, u.values[::-1])
    assert np.array_equal(
        apply_laplacian(op, flipped).values, apply_laplacian(op, u).values[::-1]
    )


@pytest.mark.parametrize("shape", [(48, 96), (128, 256)])
def test_spectral_apply_matches_transform_composition(shape):
    """Per-mode blocks equal sht_forward, scaling by -l(l+1), sht_inverse,
    on values that are not band-limited and carry a Nyquist column."""
    grid = make_grid(*shape)
    op = make_operator(grid, "spectral")
    u = ScalarField(grid, np.random.default_rng(14).standard_normal(shape))
    assert np.max(np.abs(np.fft.rfft(u.values, axis=1)[:, -1])) > 1.0  # Nyquist
    cap = max_degree(grid)
    coeffs = sht_forward(u, cap)
    l = np.arange(cap + 1, dtype=float)
    scaled = SpectralCoeffs(cap, coeffs.coeffs * (-l * (l + 1.0))[:, None])
    reference = sht_inverse(scaled, grid).values
    lap = apply_laplacian(op, u).values
    assert np.max(np.abs(lap - reference)) <= 1e-13 * np.max(np.abs(reference))
