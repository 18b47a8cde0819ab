"""Axial-extremum detection, leveled/reflection/midpoint checks, moving-arc
sweeps, the linear-annihilation identity, and the full audit."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sphereq import (
    AuditThresholds,
    AxialExtremumSet,
    ContractError,
    apply_laplacian,
    averaged_coefficients,
    DegenerateFieldError,
    ParameterError,
    biradial_angles,
    biradial_field,
    branch_switch,
    chafee_infante,
    check_reflection,
    detect_axial_extrema,
    eval_on_grid,
    harmonic_mode,
    linearized_annihilation,
    make_grid,
    make_operator,
    moving_arc_sweep,
    newton_solve,
    ScalarField,
    SymmetryReport,
    theorem_audit,
)
from oracles import reflect_phi, rotate_phi

TWO_PI = 2.0 * np.pi


def _cos2_field(grid):
    return eval_on_grid(grid, lambda t, p: np.sin(t) * np.cos(2 * p))


def _manual_extrema(angles, kinds, n_theta=8):
    """Minimal extremum set for checks that only need angles and kinds."""
    angles = np.asarray(angles, dtype=float)
    return AxialExtremumSet(
        angles=angles,
        kinds=tuple(kinds),
        axiality_defects=np.zeros(len(angles)),
        merged=np.zeros(len(angles), dtype=bool),
        axis_profiles=np.zeros((len(angles), n_theta)),
        non_axial_critical=np.empty(0),
        all_longitudes_critical=False,
        field_span=2.0,
    )


def _report_on(ext, thresholds=AuditThresholds()):
    """A report on the extremum set alone, for the decisions it derives
    from that set: no reflections, sweeps or residuals."""
    empty = np.empty(0)
    return SymmetryReport(ext, empty, (), empty, 0.0, thresholds, TWO_PI / 64)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detect_quadrupole(grid32):
    ext = detect_axial_extrema(_cos2_field(grid32))
    assert ext.n == 4
    assert np.allclose(ext.angles, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-10)
    assert ext.kinds == ("max", "min", "max", "min")
    assert np.max(ext.axiality_defects) < 1e-10
    assert ext.non_axial_critical.size == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_detector_soundness_pure_modes(m):
    grid = make_grid(24, 64)
    u = eval_on_grid(grid, lambda t, p: np.sin(t) * np.cos(m * p))
    ext = detect_axial_extrema(u)
    assert ext.n == 2 * m
    assert ext.kinds[::2] == ("max",) * m and ext.kinds[1::2] == ("min",) * m
    expected = np.arange(2 * m) * np.pi / m
    assert np.max(np.abs(ext.angles - expected)) < 1e-10
    assert np.max(ext.axiality_defects) < 1e-10


def test_detect_axisymmetric_reports_all_critical(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    ext = detect_axial_extrema(u)
    assert ext.all_longitudes_critical
    assert ext.n == 0


def test_detect_constant_is_degenerate(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.full_like(t, 1.3))
    with pytest.raises(DegenerateFieldError):
        detect_axial_extrema(u)


def test_detect_drifting_critical_curve(grid32):
    """When the zero set of u_phi is a curve whose longitude varies with
    colatitude, no meridian is critical at every ring."""
    u = eval_on_grid(
        grid32,
        lambda t, p: np.sin(t) * np.cos(2 * p) + 0.3 * np.sin(t) ** 2 * np.sin(2 * p),
    )
    # dense-sampling oracle: per-ring zero longitudes of u_phi drift with theta
    phis = np.linspace(0, TWO_PI, 4096, endpoint=False)
    theta_a, theta_b = grid32.theta_nodes[8], grid32.theta_nodes[16]

    def uphi(t, p):
        return -2 * np.sin(t) * np.sin(2 * p) + 0.6 * np.sin(t) ** 2 * np.cos(2 * p)

    za = phis[np.argmin(np.abs(uphi(theta_a, phis)))]
    zb = phis[np.argmin(np.abs(uphi(theta_b, phis)))]
    assert abs(za - zb) > 1e-2  # genuinely non-meridional

    ext = detect_axial_extrema(u)
    assert ext.n == 0
    assert ext.non_axial_critical.size > 0


def test_detect_phase_covariance(grid32):
    """Rotating the field rotates every detected angle and nothing else."""
    u = _cos2_field(grid32)
    base = detect_axial_extrema(u)
    delta = 0.7321
    rotated = rotate_phi(u, -delta)  # u(phi - delta): features shift by +delta
    moved = detect_axial_extrema(rotated)
    assert moved.n == base.n
    shifted = np.sort((base.angles + delta) % TWO_PI)
    assert np.max(np.abs(moved.angles - shifted)) < 1e-10
    assert np.max(np.abs(moved.axiality_defects - base.axiality_defects)) < 1e-10
    assert abs(moved.level_defect - base.level_defect) < 1e-10


def test_extremum_just_below_two_pi_is_listed_last_in_range(grid32):
    """A maximum 5e-10 or 2e-9 below 2*pi is reported there, after the
    others, for both rotations; only roundoff of 2*pi maps to 0."""
    found = []
    for shift in (5e-10, 2e-9):
        u = eval_on_grid(grid32, lambda t, p: np.sin(t) ** 2 * np.cos(2 * (p + shift)))
        ext = detect_axial_extrema(u)
        assert np.all((ext.angles >= 0.0) & (ext.angles < TWO_PI))
        assert ext.kinds == ("min", "max", "min", "max")
        assert abs(ext.angles[-1] - (TWO_PI - shift)) < 1e-12
        found.append(ext.angles)
    assert np.max(np.abs(found[0] - found[1])) < 1e-8


# ---------------------------------------------------------------------------
# leveled check
# ---------------------------------------------------------------------------


def test_leveled_exact(grid32):
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    report = _report_on(ext)
    assert report.leveled_applicable and report.leveled_passed
    assert ext.level_defect < 1e-12


def test_leveled_detects_broken_levels(grid32):
    u = eval_on_grid(
        grid32, lambda t, p: np.sin(t) * np.cos(2 * p) + 0.05 * np.sin(t) * np.cos(p)
    )
    ext = detect_axial_extrema(u)
    report = _report_on(ext, AuditThresholds(tol_lvl=1e-5))
    assert report.leveled_applicable and not report.leveled_passed
    # oracle: the maxima sit exactly at 0 and pi with peak factors 1.05/0.95,
    # so each deviates from the mean profile by 0.05 sin(theta); the minima
    # levels are found by dense sampling of the longitude profile
    phis = np.linspace(0, TWO_PI, 200001)
    h = np.cos(2 * phis) + 0.05 * np.cos(phis)
    hmin = h.min()
    smax = np.max(np.sin(grid32.theta_nodes))
    span = (h.max() - hmin) * smax
    expected = 0.05 * smax / span
    assert ext.level_defect == pytest.approx(expected, rel=1e-3)


def test_leveled_not_applicable_single_extremum(grid32):
    ext = _manual_extrema([0.3], ["max"], n_theta=grid32.n_theta)
    assert not _report_on(ext).leveled_applicable


def test_biradial_field_is_leveled():
    grid = make_grid(48, 128)
    u = biradial_field(grid)
    ext = detect_axial_extrema(u)
    assert _report_on(ext).leveled_passed and ext.level_defect < 1e-10


# ---------------------------------------------------------------------------
# reflection check
# ---------------------------------------------------------------------------


def test_reflection_even_field(grid32):
    u = _cos2_field(grid32)
    assert check_reflection(u, 0.0, np.pi / 2) < 1e-12


def test_reflection_odd_field(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.sin(t) * np.sin(2 * p))
    defect = check_reflection(u, 0.0, np.pi / 2)
    assert defect == pytest.approx(1.0, abs=1e-10)


def test_reflection_of_equilibrium():
    grid = make_grid(24, 48)
    op = make_operator(grid)
    mode = harmonic_mode(grid, 2, 2)
    eq = newton_solve(chafee_infante(6.5), op, mode * (0.3 / mode.sup_norm))
    ext = detect_axial_extrema(eq.u)
    for hi in ext.angles:
        assert check_reflection(eq.u, hi, np.pi / 2) <= 1e-7


def _lopsided_field(grid):
    return eval_on_grid(
        grid, lambda t, p: np.sin(t) * (np.sin(p) + 0.5 * np.cos(2 * p) + 0.2 * np.sin(3 * p))
    )


def _reference_reflection(u, centre, columns):
    diff = np.abs(u.values - reflect_phi(u, centre).values)[:, columns]
    return diff.max() / u.span


def test_reflection_full_circle_takes_every_column(grid32):
    u = _lopsided_field(grid32)
    every = np.ones(grid32.n_phi, dtype=bool)
    assert check_reflection(u, 0.4, TWO_PI) == pytest.approx(
        _reference_reflection(u, 0.4, every), rel=1e-13
    )


def test_reflection_empty_sector_reads_zero(grid32):
    u = _lopsided_field(grid32)
    assert check_reflection(u, 1.0, 0.0) == 0.0
    assert np.all(check_reflection(u, [1.0, 2.0], 0.0) == 0.0)


def test_reflection_sector_excludes_its_endpoints():
    """For sin(theta) cos(phi) mirrored about pi/2 the difference
    2 sin(theta) cos(phi) peaks on column phi = 0, the lower edge of the
    sector (0, pi/2); the open sector stops at the next column, pi/16."""
    g = make_grid(8, 32)
    u = eval_on_grid(g, lambda t, p: np.sin(t) * np.cos(p))
    assert check_reflection(u, np.pi / 2, np.pi / 2) == pytest.approx(
        np.cos(np.pi / 16), rel=1e-12
    )
    assert check_reflection(u, np.pi / 2, np.pi / 2 + 0.01) == pytest.approx(1.0, rel=1e-12)


def test_reflection_sector_wraps_across_two_pi():
    g = make_grid(8, 32)
    u = _lopsided_field(g)
    rel = np.mod(g.phi_nodes - 5.9, TWO_PI)
    columns = (rel > 0.0) & (rel < 1.0)
    assert columns[0] and columns[-1]
    expected = _reference_reflection(u, 6.9, columns)
    assert expected > 0.01
    for centre in (6.9, 6.9 - TWO_PI):
        assert check_reflection(u, centre, 1.0) == pytest.approx(expected, rel=1e-12)


def test_reflection_rejects_bad_widths(grid32):
    u = _lopsided_field(grid32)
    with pytest.raises(ParameterError, match="negative"):
        check_reflection(u, 1.0, -0.5)
    with pytest.raises(ParameterError, match="negative"):
        check_reflection(u, [1.0, 2.0], [0.5, -0.5])
    with pytest.raises(ParameterError, match="2\\*pi"):
        check_reflection(u, 1.0, 7.0)


def test_reflection_batch_matches_single_centres(grid32):
    """Many centres, each with its own width, in one call agree with one
    call per centre."""
    u = _lopsided_field(grid32)
    centres = np.linspace(0.1, 6.0, 19)
    widths = 0.3 + centres / 4.0
    batch = check_reflection(u, centres, widths)
    assert batch.shape == centres.shape
    assert batch == pytest.approx(
        [check_reflection(u, c, w) for c, w in zip(centres, widths)], rel=1e-14
    )
    assert np.all(batch > 0.0)


_WIDTHS = st.one_of(
    st.just(0.0),
    st.floats(1e-6, TWO_PI / 256),  # below one longitude cell of either grid
    st.floats(0.0, TWO_PI),
    st.just(TWO_PI),
)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(48, 96), (128, 256)]),
    seed=st.integers(0, 2**31),
    nyquist=st.floats(0.0, 2.0),
    sectors=st.lists(
        st.tuples(st.floats(-1.0, TWO_PI + 1.0), _WIDTHS), min_size=1, max_size=12
    ),
)
# three full turns at 128x256: 768 pairs, two blocks, and a last slice
# that is not full
@example(shape=(128, 256), seed=1, nyquist=1.0,
         sectors=[(0.0, TWO_PI), (TWO_PI - 0.1, TWO_PI), (3.0, TWO_PI)])
# twelve full turns at 48x96: 1152 pairs, three blocks
@example(shape=(48, 96), seed=2, nyquist=0.5,
         sectors=[(0.3 * k, TWO_PI) for k in range(12)])
def test_reflection_matches_full_field_reflections(shape, seed, nyquist, sectors):
    """``check_reflection`` evaluates only in-sector columns; the oracle
    reflects the whole field per centre, masks the open sector
    (c - width, c) and takes the max.  Random grid values are not band
    limited, and the alternating column adds a Nyquist mode."""
    grid = make_grid(*shape)
    rng = np.random.default_rng(seed)
    alternating = (-1.0) ** np.arange(grid.n_phi)
    u = ScalarField(grid, rng.standard_normal(shape) + nyquist * alternating)
    centres, widths = (np.array(v) for v in zip(*sectors))
    phi = grid.phi_nodes
    expected = []
    for c, width in sectors:
        if width >= TWO_PI - 1e-12:
            inside = np.ones(grid.n_phi, dtype=bool)
        else:
            rel = np.mod(phi - (c - width), TWO_PI)
            # no column within rounding of an edge, where the open sector
            # is decided by the last bit
            assume(width == 0.0 or np.all(
                (np.abs(rel - width) > 1e-9) & (rel > 1e-9) & (rel < TWO_PI - 1e-9)
            ))
            inside = (rel > 0.0) & (rel < width)
        w = np.abs(u.values - reflect_phi(u, c).values)[:, inside]
        expected.append(w.max() / u.span if inside.any() else 0.0)
    got = check_reflection(u, centres, widths)
    assert np.max(np.abs(got - expected)) <= 1e-13


# ---------------------------------------------------------------------------
# midpoint check
# ---------------------------------------------------------------------------


def test_midpoint_equally_spaced():
    ext = _manual_extrema(
        [0, np.pi / 2, np.pi, 3 * np.pi / 2], ["max", "min", "max", "min"]
    )
    assert _report_on(ext).midpoint_applicable
    assert np.max(ext.midpoint_defects) < 1e-14


def test_midpoint_uneven_spacing():
    ext = _manual_extrema(
        [0.0, np.pi / 3, np.pi, 4 * np.pi / 3], ["max", "min", "max", "min"]
    )
    # gaps are pi/3, 2pi/3, pi/3, 2pi/3: every joint mismatches by pi/3
    assert np.allclose(ext.midpoint_defects, np.pi / 3, atol=1e-12)


def test_midpoint_not_applicable(grid32):
    ext = _manual_extrema([0.1, 2.0], ["max", "min"])
    assert not _report_on(ext).midpoint_applicable


def test_midpoint_biradial_fails_at_pi_over_16():
    grid = make_grid(48, 128)
    ext = detect_axial_extrema(biradial_field(grid))
    max_defect = np.max(ext.midpoint_defects)
    assert max_defect >= np.pi / 16 - 1e-8
    assert max_defect > grid.phi_cell  # fails the one-cell tolerance


# ---------------------------------------------------------------------------
# moving-arc sweeps
# ---------------------------------------------------------------------------


def test_sweep_symmetric_field_reaches_target(grid32):
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    report = moving_arc_sweep(u, ext, 1, 1, AuditThresholds(n_eps=50))
    assert report.start_angle == pytest.approx(np.pi / 2)
    assert report.target_angle == pytest.approx(np.pi)
    assert np.max(report.w_max) <= 1e-12
    assert report.eps_star == pytest.approx(np.pi / 2, rel=1e-12)
    assert report.reaches_target and report.equality_ok
    assert report.phi_star == pytest.approx(np.pi / 2)


def test_sweep_small_eps_empty_sector_reports_zero(grid32):
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    report = moving_arc_sweep(u, ext, 1, 1, AuditThresholds(n_eps=400))
    # sectors narrower than one longitude cell hold no grid column
    n_empty = int(np.count_nonzero(report.epsilons < grid32.phi_cell))
    assert n_empty > 0
    assert np.all(report.w_max[:n_empty] == 0.0)


def test_sweep_positive_control_harmonic_mix(grid32):
    """A perturbation with a different colatitude profile dominates near the
    poles and breaks the one-signedness of w on the swept sector."""
    clean = harmonic_mode(grid32, 2, 2)
    broken = clean + harmonic_mode(grid32, 1, 1) * 0.1
    ext = detect_axial_extrema(clean)
    report = moving_arc_sweep(broken, ext, 1, 1, AuditThresholds(n_eps=100))
    assert np.max(report.w_max) > report.tol_w * report.span
    assert report.eps_star < report.epsilons[-1]
    assert not report.reaches_target


def test_sweep_equal_profile_perturbation_caught_by_reflection(grid32):
    """A perturbation sharing the colatitude profile of the base mode keeps
    w one-signed on every swept sector (the sweep passes); the broken
    symmetry shows up in the mirror check about the minima instead."""
    u = eval_on_grid(
        grid32, lambda t, p: np.sin(t) * np.cos(2 * p) + 0.1 * np.sin(t) * np.cos(p)
    )
    clean_ext = detect_axial_extrema(_cos2_field(grid32))
    for seed in (1, 3):
        for direction in (1, -1):
            report = moving_arc_sweep(
                u, clean_ext, seed, direction, AuditThresholds(n_eps=60)
            )
            assert np.max(report.w_max) <= report.tol_w * report.span
    assert check_reflection(u, np.pi / 2, np.pi / 2) > 0.05


def test_sweep_rejects_wrong_seed_kind(grid32):
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    with pytest.raises(ContractError):
        moving_arc_sweep(u, ext, 0, 1)  # index 0 is a maximum


def test_sweep_both_directions_agree_for_symmetric_field(grid32):
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    fwd = moving_arc_sweep(u, ext, 1, 1, AuditThresholds(n_eps=40))
    bwd = moving_arc_sweep(u, ext, 1, -1, AuditThresholds(n_eps=40))
    assert fwd.reaches_target and bwd.reaches_target
    assert bwd.target_angle == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# linearized annihilation
# ---------------------------------------------------------------------------


def test_annihilation_zero_for_exact_axis(grid32, op32):
    u = _cos2_field(grid32)
    lap_u = apply_laplacian(op32, u)
    assert linearized_annihilation(chafee_infante(3.0), u, lap_u, np.pi / 2) == 0.0


def test_annihilation_zero_for_trivial_state(grid32, op32):
    zero = eval_on_grid(grid32, lambda t, p: np.zeros_like(t))
    lap_zero = apply_laplacian(op32, zero)
    assert linearized_annihilation(chafee_infante(3.0), zero, lap_zero, 1.0) == 0.0


def test_annihilation_small_on_equilibrium():
    grid = make_grid(24, 48)
    op = make_operator(grid)
    mode = harmonic_mode(grid, 2, 2)
    eq = newton_solve(chafee_infante(6.5), op, mode * (0.3 / mode.sup_norm))
    lap_u = apply_laplacian(op, eq.u)
    for eps in (0.37, 1.1, 2.9):
        assert linearized_annihilation(chafee_infante(6.5), eq.u, lap_u, eps) <= 1e-7


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_annihilation_over_many_meridians_matches_per_meridian_reference(realization):
    """One call over an array of meridians equals one call per meridian,
    and both equal the residual built from averaged_coefficients with Lap
    u_ref and Lap w applied directly, although Lap u is now applied once
    and reflected."""
    grid = make_grid(48, 96)
    op = make_operator(grid, realization)
    problem = chafee_infante(6.5)
    u = harmonic_mode(grid, 2, 2) + harmonic_mode(grid, 3, 1) * 0.1
    angles = np.array([0.0, 0.37, 1.1, 2.9, 4.4])
    lap_u = apply_laplacian(op, u)
    batch = linearized_annihilation(problem, u, lap_u, angles)
    assert batch.shape == angles.shape
    single = [linearized_annihilation(problem, u, lap_u, c) for c in angles]
    assert batch.tolist() == single
    assert batch[0] == 0.0  # u is even about phi = 0
    for c, got in zip(angles[1:], batch[1:]):
        u_ref = reflect_phi(u, c)
        w = u - u_ref
        a, b = averaged_coefficients(
            problem, u.values, lap_u.values,
            u_ref.values, apply_laplacian(op, u_ref).values,
        )
        lap_w = apply_laplacian(op, w)
        resid = a * lap_w.values + b * w.values
        scale = np.max(np.abs(a)) * lap_w.sup_norm + np.max(np.abs(b)) * w.sup_norm
        assert got > 1e-3
        assert abs(got - np.max(np.abs(resid)) / scale) <= 1e-13


# ---------------------------------------------------------------------------
# full audit
# ---------------------------------------------------------------------------


def test_audit_passes_pure_harmonic(grid32, op32):
    report = theorem_audit(chafee_infante(6.0), op32, harmonic_mode(grid32, 2, 2))
    assert report.verdict == "pass"
    assert report.hypotheses_met and report.conclusions_ok
    assert len(report.arc_reports) == 4


def test_audit_biradial_fails_conclusions_only():
    grid = make_grid(48, 128)
    op = make_operator(grid)
    report = theorem_audit(chafee_infante(6.0), op, biradial_field(grid))
    assert report.hypotheses_met  # axial, alternating, leveled
    assert not report.conclusions_ok
    assert report.verdict == "not-theorem-compatible"
    assert np.max(report.extrema.midpoint_defects) > report.midpoint_tol


def test_audit_axisymmetric_hypotheses_not_met(grid32, op32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    report = theorem_audit(chafee_infante(2.0), op32, u)
    assert report.verdict == "hypotheses-not-met"
    # no extrema: nothing checked, nothing concluded
    assert report.extrema.all_longitudes_critical and report.extrema.n == 0
    assert not report.hypotheses_met and not report.conclusions_ok
    assert not report.leveled_applicable and not report.midpoint_applicable
    assert report.arc_reports == () and report.annihilation_residuals.size == 0
    assert report.reflection_defects.size == 0


def test_audit_applies_one_laplacian_per_field(grid32, op32, laplacian_calls):
    """The equation residual and the annihilation check share one Lap u,
    with or without extrema to check."""
    u = harmonic_mode(grid32, 2, 2)
    assert theorem_audit(chafee_infante(6.0), op32, u).verdict == "pass"
    assert len(laplacian_calls) == 1 and laplacian_calls[0] is u
    axisymmetric = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    theorem_audit(chafee_infante(2.0), op32, axisymmetric)
    assert len(laplacian_calls) == 2


def test_audit_constant_raises(grid32, op32):
    u = eval_on_grid(grid32, lambda t, p: np.ones_like(t))
    with pytest.raises(DegenerateFieldError):
        theorem_audit(chafee_infante(2.0), op32, u)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol_ax", float("nan")),
        ("tol_ax", 5.0),
        ("tol_lvl", 0.0),
        ("tol_w", 1.0),
        ("tol_w", -1.0),
        ("tol_w", float("inf")),
        ("midpoint_tol", float("nan")),
        ("midpoint_tol", float("inf")),
        ("midpoint_tol", 0.0),
        ("n_eps", 1),
        ("n_eps", 2.5),
        ("n_eps", 100.0),
    ],
)
def test_thresholds_reject_values_outside_their_range(field, value):
    with pytest.raises(ParameterError, match=field):
        AuditThresholds(**{field: value})


def test_thresholds_accept_their_range_edges():
    t = AuditThresholds(tol_ax=1e-300, midpoint_tol=1e-300, n_eps=np.int64(2))
    assert t.n_eps == 2 and t.midpoint_tol == 1e-300


def test_audit_rejects_fractional_arc_count(grid32, op32):
    """A fractional n_eps is refused as a parameter before the audit runs,
    not handed on to numpy's array constructors."""
    with pytest.raises(ParameterError, match="n_eps"):
        theorem_audit(
            chafee_infante(6.0), op32, harmonic_mode(grid32, 2, 2),
            AuditThresholds(n_eps=2.5),
        )


def test_stages_take_their_defaults_from_audit_thresholds(grid32):
    u = harmonic_mode(grid32, 2, 2)
    ext = detect_axial_extrema(u)
    report = moving_arc_sweep(u, ext, 1, 1)
    assert report.epsilons.size == AuditThresholds().n_eps
    assert report.tol_w == AuditThresholds().tol_w


def test_reflection_defect_matches_arc_target_sup(grid32):
    """check_reflection over a gap and the sweep's end-of-gap w measure the
    same quantity on different sample sets."""
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    report = moving_arc_sweep(u, ext, 1, 1, AuditThresholds(n_eps=20))
    refl = check_reflection(u, np.pi, np.pi / 2)
    assert report.target_reflection_sup <= 1e-12 and refl <= 1e-12

    broken = u + eval_on_grid(
        grid32, lambda t, p: 0.08 * np.sin(t) ** 3 * np.sin(3 * p)
    )
    ext_b = detect_axial_extrema(_cos2_field(grid32))
    rep_b = moving_arc_sweep(broken, ext_b, 1, 1, AuditThresholds(n_eps=20))
    refl_b = check_reflection(broken, np.pi, np.pi / 2)
    assert rep_b.target_reflection_sup > 1e-3 and refl_b > 1e-3
    assert rep_b.target_reflection_sup == pytest.approx(refl_b, rel=0.3)


# ---------------------------------------------------------------------------
# biradial construction details
# ---------------------------------------------------------------------------


def test_biradial_extrema_positions_and_count():
    grid = make_grid(48, 128)
    ext = detect_axial_extrema(biradial_field(grid))
    assert ext.n == 12
    assert ext.kinds.count("max") == 6 and ext.kinds.count("min") == 6
    assert np.max(np.abs(ext.angles - biradial_angles())) < 1e-10
    assert np.max(ext.axiality_defects) < 1e-10


def test_biradial_pi_periodicity():
    grid = make_grid(32, 128)
    u = biradial_field(grid)
    half = grid.n_phi // 2
    assert np.max(np.abs(u.values - np.roll(u.values, half, axis=1))) < 1e-12


def _reference_sweep(u, ext, seed_index, direction, n_eps):
    """Signed sector maxima of w = u - u o R_eps and the normalized sup|w|
    at the full gap, one full-field reflection per eps in the frame shifted
    to the seed (the scalar algorithm)."""
    seed = ext.angles[seed_index]
    target = ext.angles[(seed_index + direction) % ext.n]
    gap = (direction * (target - seed)) % TWO_PI
    shifted = rotate_phi(u, seed)
    if direction == -1:
        shifted = reflect_phi(shifted, 0.0)
    phi = u.grid.phi_nodes
    out = []
    for e in gap * np.arange(1, n_eps + 1) / n_eps:
        w = shifted.values - reflect_phi(shifted, e).values
        cols = (phi > 0.0) & (phi < e)
        out.append(float(w[:, cols].max()) if np.any(cols) else 0.0)
    w = shifted.values - reflect_phi(shifted, gap).values
    target_sup = float(np.abs(w[:, (phi > 0.0) & (phi < gap)]).max()) / u.span
    return np.array(out), target_sup


def _cos2_nyquist_field(grid):
    """Off-grid extrema plus a Nyquist column pattern, which the sweep must
    carry into the seed frame exactly as a grid-sampled rotation does."""
    n = grid.n_phi // 2
    return eval_on_grid(
        grid,
        lambda t, p: np.sin(t) * np.cos(2 * (p - 0.3)) + 0.01 * np.sin(t) * np.cos(n * p),
    )


@pytest.mark.parametrize(
    "shape, field, n_eps",
    [
        ((32, 64), _cos2_field, 40),
        ((32, 64), _cos2_nyquist_field, 40),
        ((128, 256), biradial_field, 100),
    ],
    ids=["cos2-32x64", "nyquist-32x64", "biradial-128x256"],
)
@pytest.mark.parametrize("direction", [1, -1])
def test_batched_sweep_matches_per_eps_reflections(shape, field, n_eps, direction):
    """The batched sweep (one FFT, in-sector columns only) reproduces the
    per-eps rotate-and-reflect sweep; at 128x256, n_eps=100 spans several
    pair blocks."""
    u = field(make_grid(*shape))
    ext = detect_axial_extrema(u)
    seed = ext.minima_indices[0]
    report = moving_arc_sweep(u, ext, seed, direction, AuditThresholds(n_eps=n_eps))
    expected, target_sup = _reference_sweep(u, ext, seed, direction, n_eps)
    assert np.max(np.abs(report.w_max - expected)) <= 1e-13 * u.span

    bound = report.tol_w * report.span
    bad = np.nonzero(expected > bound)[0]
    eps = report.epsilons
    eps_star = eps[-1] if bad.size == 0 else (0.0 if bad[0] == 0 else eps[bad[0] - 1])
    assert report.eps_star == eps_star
    gap = eps[-1]
    assert report.reaches_target == (eps_star >= gap * (1.0 - 1.0 / n_eps) - 1e-12)
    assert abs(report.target_reflection_sup - target_sup) <= 1e-13
    assert report.equality_ok == (target_sup <= report.tol_w)


@pytest.mark.parametrize("shape", [(48, 96), (96, 192)], ids=["48x96", "96x192"])
@pytest.mark.parametrize("l, m", [(2, 1), (3, 1), (3, 2)])
def test_tesseral_equilibria_have_saddle_meridians(shape, l, m):
    """Along the extremal meridians of a tesseral (0 < m < l) equilibrium
    u_phiphi changes sign across the rings: they are saddles, so the field
    is outside the audited class rather than certified non-equilibrium."""
    grid = make_grid(*shape)
    op = make_operator(grid)
    lam, guess = branch_switch(grid, float(l * (l + 1)), l, m, dlam0=0.8)
    eq = newton_solve(chafee_infante(lam), op, guess, tol=1e-9)
    report = theorem_audit(chafee_infante(lam), op, eq.u)
    assert "saddle" in report.extrema.kinds
    assert not report.hypotheses_met and report.arc_reports == ()
    assert report.verdict == "hypotheses-not-met"
