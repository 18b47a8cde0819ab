"""Axial-extremum detection, leveled/reflection/midpoint checks, moving-arc
sweeps, and the full audit."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sphereq import (
    AuditThresholds,
    AxialExtremumSet,
    ContractError,
    DegenerateFieldError,
    ParameterError,
    atan_elliptic,
    biradial_field,
    branch_switch,
    chafee_infante,
    check_reflection,
    detect_axial_extrema,
    eval_on_grid,
    harmonic_mode,
    make_grid,
    make_operator,
    moving_arc_sweep,
    newton_solve,
    ScalarField,
    SymmetryReport,
    theorem_audit,
)
from sphereq.symmetry import _EDGE_TOL, _sector
from oracles import biradial_angles, reflect_phi, rotate_phi

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
    thresholds = dataclasses.replace(thresholds, midpoint_tol=TWO_PI / 64)
    return SymmetryReport(ext, np.empty(0), (), 0.0, thresholds)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detect_quadrupole(grid32, grid33):
    for grid in (grid32, grid33):
        ext = detect_axial_extrema(_cos2_field(grid))
        assert ext.n == 4
        assert np.allclose(ext.angles, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-10)
        assert ext.kinds == ("max", "min", "max", "min")
        assert np.max(ext.axiality_defects) < 1e-10
        assert ext.non_axial_critical.size == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_detector_soundness_pure_modes(m):
    for shape in ((24, 64), (33, 66)):
        grid = make_grid(*shape)
        u = eval_on_grid(grid, lambda t, p: np.sin(t) * np.cos(m * p))
        ext = detect_axial_extrema(u)
        assert ext.n == 2 * m
        assert ext.kinds[::2] == ("max",) * m and ext.kinds[1::2] == ("min",) * m
        expected = np.arange(2 * m) * np.pi / m
        assert np.max(np.abs(ext.angles - expected)) < 1e-10
        assert np.max(ext.axiality_defects) < 1e-10


def test_detect_axisymmetric_reports_all_critical(grid32, grid33):
    for grid in (grid32, grid33):
        u = eval_on_grid(grid, lambda t, p: np.cos(t) + 0.0 * p)
        ext = detect_axial_extrema(u)
        assert ext.all_longitudes_critical
        assert ext.n == 0


def test_detect_constant_is_degenerate(grid32):
    u = eval_on_grid(grid32, lambda t, p: np.full_like(t, 1.3))
    with pytest.raises(DegenerateFieldError):
        detect_axial_extrema(u)


def test_detect_drifting_critical_curve(grid32, grid33):
    """When the zero set of u_phi is a curve whose longitude varies with
    colatitude, no meridian is critical at every ring."""

    def uphi(t, p):
        return -2 * np.sin(t) * np.sin(2 * p) + 0.6 * np.sin(t) ** 2 * np.cos(2 * p)

    for grid in (grid32, grid33):
        u = eval_on_grid(
            grid,
            lambda t, p: np.sin(t) * np.cos(2 * p) + 0.3 * np.sin(t) ** 2 * np.sin(2 * p),
        )
        # dense-sampling oracle: per-ring zero longitudes of u_phi drift
        # with theta
        phis = np.linspace(0, TWO_PI, 4096, endpoint=False)
        theta_a, theta_b = grid.theta_nodes[8], grid.theta_nodes[16]
        za = phis[np.argmin(np.abs(uphi(theta_a, phis)))]
        zb = phis[np.argmin(np.abs(uphi(theta_b, phis)))]
        assert abs(za - zb) > 1e-2  # genuinely non-meridional

        ext = detect_axial_extrema(u)
        assert ext.n == 0
        assert ext.non_axial_critical.size > 0


@pytest.mark.parametrize("shape", [(32, 64), (48, 96), (128, 256)],
                         ids=["32x64", "48x96", "128x256"])
@pytest.mark.parametrize("a", [0.5, 1.0])
def test_ring_wise_critical_points_inside_the_gaps(shape, a):
    """u = sin(theta) cos(phi) + a sin^3(theta) cos(3 phi) has a "max" at 0
    and a "min" at pi and is mirror-symmetric about both.  With s = sin(theta),
    u_phi = -s sin(phi) (1 + 3 a s^2 (3 - 4 sin^2 phi)) also vanishes where
    sin^2 phi = 3/4 + 1 / (12 a s^2): on the rings with s^2 >= 1 / (3a),
    strictly inside both gaps, and on no ring nearer the poles.  Those rings
    have ring-wise extrema inside the gaps, so the field is outside the
    audited class, whatever its sweeps show."""
    grid = make_grid(*shape)
    u = eval_on_grid(
        grid, lambda t, p: np.sin(t) * np.cos(p) + a * np.sin(t) ** 3 * np.cos(3 * p)
    )
    report = theorem_audit(chafee_infante(6.5), make_operator(grid), u)
    ext = report.extrema
    assert ext.kinds == ("max", "min")
    assert np.max(np.abs(ext.angles - [0.0, np.pi])) < 1e-12
    inside = ext.non_axial_critical
    assert inside.size == 2  # one per gap
    assert np.any(inside < np.pi) and np.any(inside > np.pi)
    # each lies near some ring's extra critical point: sin^2 phi is at
    # least its value on the ring nearest the equator
    lowest = 0.75 + 1.0 / (12.0 * a * np.max(np.sin(grid.theta_nodes)) ** 2)
    assert np.all(np.sin(inside) ** 2 >= lowest - 1e-2)
    assert report.verdict == "hypotheses-not-met"


def test_detect_phase_covariance(grid32, grid33):
    """Rotating the field rotates every detected angle and nothing else."""
    delta = 0.7321
    for grid in (grid32, grid33):
        u = _cos2_field(grid)
        base = detect_axial_extrema(u)
        rotated = rotate_phi(u, -delta)  # u(phi - delta): features shift by +delta
        moved = detect_axial_extrema(rotated)
        assert moved.n == base.n
        shifted = np.sort((base.angles + delta) % TWO_PI)
        assert np.max(np.abs(moved.angles - shifted)) < 1e-10
        assert np.max(np.abs(moved.axiality_defects - base.axiality_defects)) < 1e-10
        assert abs(moved.level_defect - base.level_defect) < 1e-10


def test_extremum_just_below_two_pi_is_listed_last_in_range(grid32, grid33):
    """A maximum 5e-10 or 2e-9 below 2*pi is reported there, after the
    others, for both rotations; only roundoff of 2*pi maps to 0."""
    for grid in (grid32, grid33):
        found = []
        for shift in (5e-10, 2e-9):
            u = eval_on_grid(grid, lambda t, p: np.sin(t) ** 2 * np.cos(2 * (p + shift)))
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


def test_reflection_even_field(grid32, grid33):
    for grid in (grid32, grid33):
        u = _cos2_field(grid)
        assert check_reflection(u, 0.0, np.pi / 2) < 1e-12


def test_reflection_odd_field(grid32, grid33):
    for grid in (grid32, grid33):
        u = eval_on_grid(grid, lambda t, p: np.sin(t) * np.sin(2 * p))
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


def test_reflection_full_circle_takes_every_column(grid32, grid33):
    for grid in (grid32, grid33):
        u = _lopsided_field(grid)
        every = np.ones(grid.n_phi, dtype=bool)
        assert check_reflection(u, 0.4, TWO_PI) == pytest.approx(
            _reference_reflection(u, 0.4, every), rel=1e-13
        )


def test_reflection_empty_sector_reads_zero(grid32, grid33):
    for grid in (grid32, grid33):
        u = _lopsided_field(grid)
        assert check_reflection(u, 1.0, 0.0) == 0.0
        assert np.all(check_reflection(u, [1.0, 2.0], 0.0) == 0.0)


def test_reflection_empty_sector_reads_positive_zero():
    """+0.0, which json writes as 0.0, and not -0.0, scalar or batched."""
    u = harmonic_mode(make_grid(16, 32), 2, 2)
    assert math.copysign(1.0, check_reflection(u, 0.3, 0.0)) == 1.0
    assert np.all(np.copysign(1.0, check_reflection(u, [0.3, 1.0], 0.0)) == 1.0)


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


@pytest.mark.parametrize(
    "centres, widths",
    [(np.pi / 2, np.nan), (np.nan, 1.0), ([1.0, np.inf], 0.5), (1.0, [0.5, np.nan])],
)
def test_reflection_rejects_non_finite_sectors(grid32, centres, widths):
    """A NaN width read 0.0, which looks like perfect symmetry."""
    u = _lopsided_field(grid32)
    with pytest.raises(ParameterError):
        check_reflection(u, centres, widths)


def test_reflection_batch_matches_single_centres(grid32, grid33):
    """Many centres, each with its own width, in one call agree with one
    call per centre."""
    centres = np.linspace(0.1, 6.0, 19)
    widths = 0.3 + centres / 4.0
    for grid in (grid32, grid33):
        u = _lopsided_field(grid)
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
    shape=st.sampled_from([(48, 96), (128, 256), (33, 66)]),
    seed=st.integers(0, 2**31),
    nyquist=st.floats(0.0, 2.0),
    sectors=st.lists(
        st.tuples(st.floats(-1.0, TWO_PI + 1.0), _WIDTHS), min_size=1, max_size=12
    ),
)
# three full turns at 128x256, one reflected copy each
@example(shape=(128, 256), seed=1, nyquist=1.0,
         sectors=[(0.0, TWO_PI), (TWO_PI - 0.1, TWO_PI), (3.0, TWO_PI)])
# twelve full turns at 48x96
@example(shape=(48, 96), seed=2, nyquist=0.5,
         sectors=[(0.3 * k, TWO_PI) for k in range(12)])
# column 0 lies exactly _EDGE_TOL behind the mirror, so it counts as on it
@example(shape=(48, 96), seed=0, nyquist=0.0, sectors=[(1e-09, 0.0078125)])
# an odd Nyquist mode (n_phi / 2 = 33), over sectors of every kind
@example(shape=(33, 66), seed=3, nyquist=1.0,
         sectors=[(0.0, TWO_PI), (1.0, 0.0), (2.5, 1.3), (6.0, 0.05)])
def test_reflection_matches_full_field_reflections(shape, seed, nyquist, sectors):
    """``check_reflection`` reflects the field's ring series; the oracle
    reflects the field's own rfft per centre, masks the open sector
    (c - width, c) by the sector rule's edges (a column within ``_EDGE_TOL``
    of either edge is outside) and takes the max.  Random grid values are
    not band limited, and the alternating column adds a Nyquist mode, odd
    on the 33x66 grid."""
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
            # each column's distance from the mirror, computed as the sector
            # rule computes it, and from the far edge, which the rule does
            # not form (it compares the first with width - _EDGE_TOL) and so
            # rounds differently: no far-edge distance may lie within
            # rounding of _EDGE_TOL
            from_mirror = np.mod(c - phi, TWO_PI)
            from_far_edge = width - from_mirror
            assume(np.all(np.abs(from_far_edge - _EDGE_TOL) > 1e-13))
            inside = (from_mirror > _EDGE_TOL) & (from_far_edge > _EDGE_TOL)
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


def test_sweep_across_a_gap_with_no_grid_column(grid32):
    """A gap narrower than one longitude cell holds no grid column, so no
    arc of its sweep does either: every w_max and the end-of-gap sup read
    0, and the sweep reaches its target."""
    u = harmonic_mode(grid32, 2, 2)
    ext = _manual_extrema([0.0, 0.05], ("min", "max"))
    assert 0.05 < grid32.phi_cell
    report = moving_arc_sweep(u, ext, 0, 1)
    assert report.epsilons.size == 101 and report.epsilons[-1] == 0.05
    assert np.all(report.w_max == 0.0)
    assert report.target_reflection_sup == 0.0
    assert report.reaches_target and report.eps_star == 0.05


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


@pytest.mark.parametrize("seed", [7, -1, 4])
def test_sweep_rejects_seed_index_out_of_range(grid32, seed):
    """Four extrema: 7 used to raise IndexError, and -1 silently swept from
    the last extremum."""
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    assert ext.n == 4
    with pytest.raises(ParameterError, match="seed_index"):
        moving_arc_sweep(u, ext, seed, 1)


@pytest.mark.parametrize(
    "seed, direction, name",
    [
        (1.0, 1, "seed_index"),
        (1.5, 1, "seed_index"),
        (np.float64(1.0), 1, "seed_index"),
        ("1", 1, "seed_index"),
        (1, -1.0, "direction"),
        (1, np.float64(1.0), "direction"),
    ],
    ids=["float", "fraction", "numpy-float", "string", "float-direction",
         "numpy-float-direction"],
)
def test_sweep_rejects_non_integer_seed_or_direction(grid32, seed, direction, name):
    """A float or string seed_index, or a float direction, raised a bare
    TypeError from tuple indexing; -1.0 passed the direction check first."""
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    with pytest.raises(ParameterError, match=name):
        moving_arc_sweep(u, ext, seed, direction)


def test_sweep_both_directions_agree_for_symmetric_field(grid32):
    u = _cos2_field(grid32)
    ext = detect_axial_extrema(u)
    fwd = moving_arc_sweep(u, ext, 1, 1, AuditThresholds(n_eps=40))
    bwd = moving_arc_sweep(u, ext, 1, -1, AuditThresholds(n_eps=40))
    assert fwd.reaches_target and bwd.reaches_target
    assert bwd.target_angle == pytest.approx(0.0, abs=1e-10)


def test_sweep_directions_agree_where_the_mirror_lands_on_a_column():
    """At 48x96 the maxima of Y_2^2 lie on grid longitudes, so the lattice
    mirror of arc k = 2r, 4r, ... (k counted back from the target) lies on
    a grid longitude too, where w is rounding noise.  That column stays
    out of the sector on either side of the mirror, so the two
    mirror-image directions read the same sector maxima (one of them read
    about 1e-18 there instead of -2.5e-4)."""
    u = harmonic_mode(make_grid(48, 96), 2, 2)
    ext = detect_axial_extrema(u)
    h = u.grid.phi_cell
    for seed in ext.minima_indices:
        fwd, bwd = (moving_arc_sweep(u, ext, seed, d) for d in (1, -1))
        eps = fwd.epsilons
        two_r = round(h / (eps[-1] - eps[-2]))
        k = np.arange(two_r, eps.size, two_r)
        arcs = eps.size - 1 - k[eps[eps.size - 1 - k] > 1.5 * h]  # sector holds a column
        mirrors = fwd.target_angle - (eps[-1] - eps[arcs])
        assert arcs.size >= 20
        assert np.max(np.abs(mirrors / h - np.round(mirrors / h))) < 1e-12
        # from a quarter to three quarters of the gap w stays clear of 0;
        # within two cells of either end it reads down to about -4.6e-5
        middle = np.abs(eps[arcs] / eps[-1] - 0.5) <= 0.25 + 1e-12
        assert np.count_nonzero(middle) >= 13
        assert np.all(fwd.w_max[arcs[middle]] < -1e-4)
        assert np.all(fwd.w_max[arcs] < -1e-5)
        assert np.max(np.abs(fwd.w_max[arcs] - bwd.w_max[arcs])) <= 1e-13 * u.span


@settings(max_examples=25, deadline=None)
@given(
    n_theta=st.integers(6, 24),
    half=st.integers(8, 40),
    shift=st.floats(0.0, np.pi),
    n_eps=st.integers(2, 150),
)
@example(n_theta=16, half=16, shift=0.3, n_eps=100)  # even n_phi / 2
@example(n_theta=17, half=33, shift=0.3, n_eps=100)  # odd n_phi / 2
@example(n_theta=8, half=9, shift=0.0, n_eps=2)  # extrema on grid columns
@example(n_theta=8, half=8, shift=1.0, n_eps=150)  # many mirrors per cell
# extrema 1e-9 off grid columns, less rounding, so a column lies within
# rounding of _EDGE_TOL of each seed minimum and each target maximum (n_phi =
# 68) or of each target alone (n_phi = 18): the sweep decides it once for the
# whole gap, and the reference decides it the same way
@example(n_theta=6, half=34, shift=1e-9, n_eps=2)
@example(n_theta=6, half=9, shift=1e-9, n_eps=2)
def test_sweep_arcs_meet_the_minimum_count_and_spacing(n_theta, half, shift, n_eps):
    """On grids with an even or an odd n_phi / 2, every sweep has at least
    n_eps arcs, evenly spaced at most gap / n_eps apart from the first arc
    on, and its last arc is exactly the gap.  The first minimum's +1 sweep
    matches the per-eps whole-field reflections at its own arcs."""
    grid = make_grid(n_theta, 2 * half)
    u = eval_on_grid(grid, lambda t, p: np.sin(t) * np.cos(2 * (p - shift)))
    ext = detect_axial_extrema(u)
    assert ext.kinds_alternate and ext.n == 4
    thresholds = AuditThresholds(n_eps=n_eps)
    for seed in ext.minima_indices:
        for direction in (1, -1):
            report = moving_arc_sweep(u, ext, seed, direction, thresholds)
            eps = report.epsilons
            target = ext.angles[(seed + direction) % ext.n]
            gap = (direction * (target - ext.angles[seed])) % TWO_PI
            assert eps.size >= n_eps
            assert eps[-1] == gap
            assert eps[0] > 0.0
            steps = np.diff(np.concatenate([[0.0], eps]))
            assert np.max(steps) <= gap / n_eps * (1 + 1e-9)
            assert np.ptp(steps[1:]) <= 1e-12 * gap
    seed = ext.minima_indices[0]
    report = moving_arc_sweep(u, ext, seed, 1, thresholds)
    expected, target_sup = _reference_sweep(u, ext, seed, 1, report.epsilons)
    assert np.max(np.abs(report.w_max - expected)) <= 1e-13 * u.span
    assert abs(report.target_reflection_sup - target_sup) <= 1e-13


def test_figure1_sweep_exceeds_the_bound_one_spacing_before_the_target():
    """figure1 at 128x256, swept from the minimum at 15*pi/16 (index 5)
    toward the next maximum: the arc one lattice spacing (0.0041) before
    the target reads w_max / span = 4.08e-3, so the sweep does not reach
    the target.  A sweep of 100 arcs 0.0059 apart stepped over it."""
    u = biradial_field(make_grid(128, 256))
    ext = detect_axial_extrema(u)
    assert ext.kinds[5] == "min" and abs(ext.angles[5] - 15 * np.pi / 16) < 1e-10
    report = moving_arc_sweep(u, ext, 5, 1)
    eps = report.epsilons
    assert eps[-1] - eps[-2] == pytest.approx(0.0041, abs=5e-5)
    assert report.w_max[-2] / report.span == pytest.approx(4.08e-3, abs=5e-5)
    assert report.w_max[-2] > report.tol_w * report.span
    assert report.eps_star < eps[-2]
    assert not report.reaches_target


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
    assert report.thresholds.midpoint_tol == grid.phi_cell
    assert np.max(report.extrema.midpoint_defects) > report.thresholds.midpoint_tol


def test_audit_axisymmetric_hypotheses_not_met(grid32, op32):
    u = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    report = theorem_audit(chafee_infante(2.0), op32, u)
    assert report.verdict == "hypotheses-not-met"
    # no extrema: nothing checked, nothing concluded
    assert report.extrema.all_longitudes_critical and report.extrema.n == 0
    assert not report.hypotheses_met and not report.conclusions_ok
    assert not report.leveled_applicable and not report.midpoint_applicable
    assert report.arc_reports == ()
    assert report.reflection_defects.size == 0


def test_audit_applies_one_laplacian_per_field(grid32, op32, laplacian_calls):
    """The equation residual applies the audit's one Lap u, with or
    without extrema to check."""
    u = harmonic_mode(grid32, 2, 2)
    assert theorem_audit(chafee_infante(6.0), op32, u).verdict == "pass"
    assert len(laplacian_calls) == 1 and laplacian_calls[0] is u
    axisymmetric = eval_on_grid(grid32, lambda t, p: np.cos(t) + 0.0 * p)
    theorem_audit(chafee_infante(2.0), op32, axisymmetric)
    assert len(laplacian_calls) == 2


@pytest.mark.parametrize(
    "make_field, n_irfft",
    [
        # 16 + 1 + 12 reflection checks + 88 lattice copies in 12 sweeps
        (biradial_field, 117),
        # 16 + 1 + 4 reflection checks + 4 sweeps of 3 lattice copies
        (lambda g: harmonic_mode(g, 2, 2), 33),
        # 16 + 1 + 2 reflection checks; saddles, so no sweep
        (lambda g: harmonic_mode(g, 2, 1), 19),
    ],
    ids=["figure1", "Y22", "Y21"],
)
def test_audit_transforms_the_field_once(make_field, n_irfft, monkeypatch):
    """One rfft forms the field's ring series, and the equation residual's
    Laplacian takes the other.  Every longitude operation reads the series:
    the irfft calls are 16 for u_phi's refined table (48 rings, 3 to a
    block), 1 for the Laplacian, and one per reflected copy: one per
    extremum for the reflection check and r per sweep, with
    r = ceil(100 * h / (2 * gap)) for the grid cell h."""
    grid = make_grid(48, 96)
    op = make_operator(grid)
    u = make_field(grid)
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    theorem_audit(chafee_infante(6.5), op, u)
    assert calls == {"rfft": 2, "irfft": n_irfft}


def test_audit_evaluates_F_alone():
    """The audit evaluates F once, for the equation residual, and never
    its partial derivatives.  On the biradial field, whose twelve
    reflections are far from symmetries, an averaged linear equation at
    each extremum would evaluate both at every tau node."""
    calls = {"eval_F": 0, "eval_Fu": 0, "eval_Fq": 0}
    problem = chafee_infante(6.5)

    def counted(name):
        def evaluator(u, q):
            calls[name] += 1
            return getattr(problem, name)(u, q)
        return evaluator

    wrapped = dataclasses.replace(problem, **{name: counted(name) for name in calls})
    grid = make_grid(48, 96)
    report = theorem_audit(wrapped, make_operator(grid), biradial_field(grid))
    assert report.extrema.n == 12
    assert calls == {"eval_F": 1, "eval_Fu": 0, "eval_Fq": 0}


def test_audit_of_a_fortran_ordered_field():
    """A field built from Fortran-ordered values is stored in C order, so
    the audit's real views of its ring series work."""
    grid = make_grid(32, 64)
    u = ScalarField(grid, np.asfortranarray(harmonic_mode(grid, 2, 2).values))
    report = theorem_audit(chafee_infante(6.0), make_operator(grid), u)
    assert report.verdict == "pass"
    assert u.values.flags.c_contiguous


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
    assert report.epsilons.size >= AuditThresholds().n_eps
    assert report.tol_w == AuditThresholds().tol_w


def test_reflection_defect_matches_arc_target_sup(grid32):
    """check_reflection over a gap and the +1 sweep's end-of-gap w measure
    the same quantity on the same grid longitudes."""
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
    assert rep_b.target_reflection_sup == refl_b


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


def _reference_sweep(u, ext, seed_index, direction, epsilons):
    """Signed sector maxima of w = u - u o R_eps at each of ``epsilons``
    and the normalized sup|w| at the last, one full-field reflection per
    eps about the mirror seed + direction * eps (the scalar algorithm).
    The mirror is counted back from the target as the sweep counts it, and
    the sector is the sweep's: the gap's grid longitudes (``_sector``), of
    which the arc eps holds those whose distance x from the target exceeds
    gap - eps by more than ``_EDGE_TOL``.  So a grid longitude within
    rounding of an edge falls on the same side of it in both."""
    target = ext.angles[(seed_index + direction) % ext.n]
    gap = epsilons[-1]
    cols, x = _sector(u.grid.phi_nodes, target, direction, gap)
    out = []
    for e in epsilons:
        w = u.values - reflect_phi(u, target - direction * (gap - e)).values
        held = cols[gap - e < x - _EDGE_TOL]
        out.append(float(w[:, held].max()) if held.size else 0.0)
    target_sup = float(np.abs(w[:, held]).max()) / u.span
    return np.array(out), target_sup


def _cos2_nyquist_field(grid):
    """Off-grid extrema plus a Nyquist column pattern, which the sweep's
    in-sector reflections must carry exactly as a whole-field reflection
    does."""
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
        ((33, 66), _cos2_field, 40),
        ((33, 66), _cos2_nyquist_field, 40),
    ],
    ids=["cos2-32x64", "nyquist-32x64", "biradial-128x256", "cos2-33x66", "nyquist-33x66"],
)
@pytest.mark.parametrize("direction", [1, -1])
def test_batched_sweep_matches_per_eps_reflections(shape, field, n_eps, direction):
    """The lattice sweep (reflected copies, then gathers of in-sector
    columns) reproduces the per-eps whole-field reflections at the report's
    own arcs; at 128x256 the table of reflected columns interleaves two
    or three copies."""
    u = field(make_grid(*shape))
    ext = detect_axial_extrema(u)
    seed = ext.minima_indices[0]
    report = moving_arc_sweep(u, ext, seed, direction, AuditThresholds(n_eps=n_eps))
    eps = report.epsilons
    assert eps.size >= n_eps
    expected, target_sup = _reference_sweep(u, ext, seed, direction, eps)
    assert np.max(np.abs(report.w_max - expected)) <= 1e-13 * u.span

    bound = report.tol_w * report.span
    bad = np.nonzero(expected > bound)[0]
    eps_star = eps[-1] if bad.size == 0 else (0.0 if bad[0] == 0 else eps[bad[0] - 1])
    assert report.eps_star == eps_star
    gap, delta = eps[-1], eps[-1] - eps[-2]
    assert report.reaches_target == (eps_star >= gap - delta - 1e-12)
    assert abs(report.target_reflection_sup - target_sup) <= 1e-13
    assert report.equality_ok == (target_sup <= report.tol_w)


@pytest.mark.parametrize(
    "shape, field",
    [
        ((48, 96), biradial_field),
        ((96, 192), biradial_field),
        ((128, 256), biradial_field),
        ((32, 64), _cos2_nyquist_field),
        ((33, 66), _cos2_nyquist_field),
    ],
    ids=["figure1-48x96", "figure1-96x192", "figure1-128x256", "nyquist-32x64",
         "nyquist-33x66"],
)
def test_forward_sweep_end_matches_reflection_check(shape, field):
    """Every +1 sweep ends on the sector the reflection check measures for
    its target, on the same grid longitudes.  At 48x96 the figure1
    extremum at 3*pi/8 is detected 0.94e-12 rad below its grid longitude,
    which the reflection check of the next extremum counted inside the
    open sector (reading 0.483 where the sweep read 0.229)."""
    u = field(make_grid(*shape))
    ext = detect_axial_extrema(u)
    assert ext.kinds_alternate
    defects = check_reflection(u, ext.angles, ext.gaps)
    for seed in ext.minima_indices:
        report = moving_arc_sweep(u, ext, seed, 1)
        target = (seed + 1) % ext.n
        assert abs(report.target_reflection_sup - defects[target]) <= 1e-15


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


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
def test_mixed_mode_equilibrium_fails_the_hypotheses(realization):
    """Newton from the Y_3^1 seed at lam = 28, with the circle normal-form
    amplitude sqrt(4 dlam / (3 lam)), for a problem whose F_q
    varies (its Y_3 pitchfork is at lam* = 24), settles on a mixed-mode
    equilibrium: mirror-symmetric about a maximum at 0 and a minimum at pi,
    with ring-wise critical points inside both gaps.  Its sweeps stop short
    of the gaps, which would certify a non-equilibrium if the field were in
    the audited class; the interior critical points put it outside."""
    grid = make_grid(48, 96)
    op = make_operator(grid, realization)
    lam, guess = branch_switch(grid, 24.0, 3, 1, dlam0=4.0,
                               amplitude=math.sqrt(4 * 4.0 / (3 * 28.0)))
    problem = atan_elliptic(lam)
    eq = newton_solve(problem, op, guess, tol=1e-9)
    report = theorem_audit(problem, op, eq.u)
    assert report.extrema.kinds == ("max", "min")
    assert report.extrema.non_axial_critical.size > 0
    assert not report.conclusions_ok
    assert report.verdict == "hypotheses-not-met"


def _circular_gap(a, b):
    """Distance between angles a and b on the circle."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


#: The sphere's symmetries the audit must commute with, each as a map of
#: the grid values, of an extremal longitude and of an extremum's kind;
#: the roll moves every column by 5 cells.
_COVARIANT_MAPS = {
    "negate": (lambda v: -v, lambda a, n: a,
               lambda k: {"max": "min", "min": "max"}.get(k, k)),
    "flip-theta": (lambda v: v[::-1], lambda a, n: a, lambda k: k),
    "roll-phi": (lambda v: np.roll(v, 5, axis=1), lambda a, n: a + 5 * TWO_PI / n,
                 lambda k: k),
    "mirror-phi": (lambda v: v[:, (-np.arange(v.shape[1])) % v.shape[1]],
                   lambda a, n: -a, lambda k: k),
}


@pytest.mark.parametrize("realization", ["spectral", "finite-difference"])
@pytest.mark.parametrize("shape", [(48, 96), (33, 66)], ids=["48x96", "33x66"])
@pytest.mark.parametrize("field", ["figure1", "Y22", "Y33", "Y21"])
def test_audit_is_covariant_under_the_sphere_symmetries(field, shape, realization):
    """u -> -u (for the odd cubic), theta -> pi - theta, a grid rotation and
    a mirror in phi map equilibria to equilibria and the audited class to
    itself: each keeps the verdict and the extremum count, and moves every
    extremal meridian, and its kind, as it moves the field."""
    grid = make_grid(*shape)
    op = make_operator(grid, realization)
    if field == "figure1":
        problem, u = chafee_infante(6.5), biradial_field(grid)
    else:
        l, m = int(field[1]), int(field[2])
        lam, guess = branch_switch(grid, float(l * (l + 1)), l, m, dlam0=0.5)
        problem = chafee_infante(lam)
        u = newton_solve(problem, op, guess, tol=1e-9).u
    base = theorem_audit(problem, op, u)
    for name, (values, angle, kind) in _COVARIANT_MAPS.items():
        moved = theorem_audit(problem, op, ScalarField(grid, values(u.values)))
        assert moved.verdict == base.verdict, name
        assert moved.extrema.n == base.extrema.n, name
        for a, k in zip(base.extrema.angles, base.extrema.kinds):
            target = angle(a, grid.n_phi)
            gaps = [_circular_gap(target, b) for b in moved.extrema.angles]
            nearest = int(np.argmin(gaps))
            assert gaps[nearest] <= 1e-12, (name, a)
            assert moved.extrema.kinds[nearest] == kind(k), (name, a)
