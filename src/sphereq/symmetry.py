"""Reflectional-symmetry auditing of fields on the sphere.

The pipeline detects meridians along which the longitudinal derivative
vanishes at every colatitude (axial extrema), labels each a maximum, a
minimum or a saddle (longitudinal curvature of both signs along it),
classifies whether all maxima (resp. minima) share one colatitude profile
(leveled), and then checks the structure a nonconstant equilibrium with
leveled axial extrema must have: extrema evenly spaced, the field
mirror-symmetric about each extremal meridian, and the swept-sector
difference field u - u o R_eps one-signed up to the next extremum.  The
linearized-annihilation check confirms that the difference of a solution
and its reflection satisfies the averaged linear equation
a * Lap w + b * w = 0.

Everything runs as batched numpy over angles: the extremum bisection
advances all candidates in lockstep, the reflection check and every
moving-arc sweep reflect through one kernel (``_sector_sup``), and the
annihilation check reflects u and Lap u from one transform each.  The
kernel evaluates the reflected field only at the grid longitudes inside
each sector, as products small enough that BLAS runs them on the calling
thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateFieldError, ParameterError
from .grid import (
    TWO_PI,
    bisect_roots,
    d_phi,
    eval_on_grid,
    interp_phi,
    oversample_phi,
    reflect_coeffs,
    ring_series,
)
from .problems import averaged_coefficients, evaluate
from .harmonics import apply_laplacian
from .solver import TRIVIAL_AMPLITUDE

_REFINE_FACTOR = 16
# Multiply-adds per slice of the stacked product in ``_sector_sup``.
# OpenBLAS runs a product this small on the calling thread; with one
# product per pair block, a 48x96 biradial sweep took 16 ms against 1.4 ms.
_SLICE_MADDS = 2 ** 18
# (sector, column) pairs per block in ``_sector_sup``, which bounds its
# tables to about 1 MB each at 128x256; with all pairs in one block, the
# audit benchmark's peak RSS rose from 106 to 119 MB.
_PAIR_BLOCK = 512
# Rings whose |u_phi| or |u_phiphi| is below this fraction of its maximum
# carry no sign information.
_SIGNIFICANT = 1e-3


@dataclass(frozen=True)
class AuditThresholds:
    """Normalized tolerances for the audit pipeline.

    The underlying statements are exact; discretization forces explicit
    thresholds, all scaled by the field span (or the sup of u_phi) so they
    are resolution- and amplitude-aware.  ``midpoint_tol`` defaults to one
    coarse longitude cell of the audited grid.

    This class alone states each default and each valid range; the audit
    stages and the command line take their thresholds from it.  Every
    value must be finite:

    - ``tol_ax``, ``tol_lvl`` and ``tol_w`` lie in (0, 1);
    - ``midpoint_tol`` is None or a number > 0;
    - ``n_eps``, the number of arcs in a moving-arc sweep, is an integer
      >= 2.

    A value outside its range raises ``ParameterError`` naming the field.
    """

    tol_ax: float = 1e-6
    tol_lvl: float = 1e-5
    tol_w: float = 1e-7
    midpoint_tol: float = None
    n_eps: int = 100

    def __post_init__(self):
        for name in ("tol_ax", "tol_lvl", "tol_w"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ParameterError("%s must lie in (0, 1), got %r" % (name, value))
        mid = self.midpoint_tol
        if mid is not None and not (math.isfinite(mid) and mid > 0.0):
            raise ParameterError(
                "midpoint_tol must be None or a finite number > 0, got %r" % (mid,)
            )
        if not isinstance(self.n_eps, (int, np.integer)) or self.n_eps < 2:
            raise ParameterError(
                "n_eps must be at least 2 and an integer, got %r" % (self.n_eps,)
            )


@dataclass(frozen=True)
class AxialExtremumSet:
    """Detected extremal meridians of a field.

    ``angles`` are sorted longitudes in [0, 2*pi); ``kinds`` label each as
    "max", "min" or "saddle" (u_phiphi takes both signs across the rings
    where it is significant, so the meridian is a maximum in some
    colatitudes and a minimum in others); ``axiality_defects`` give max
    over colatitude of |u_phi| at the axis, normalized by sup|u_phi|.
    ``axis_profiles[i]`` samples u along axis i at the grid colatitudes,
    and ``level_defect`` compares them within each kind; ``gaps`` and
    ``midpoint_defects`` measure the spacing.  Candidates that were
    critical on some rings but not all are reported separately in
    ``non_axial_critical`` and never count as extrema.
    """

    angles: np.ndarray
    kinds: tuple
    axiality_defects: np.ndarray
    merged: np.ndarray
    axis_profiles: np.ndarray
    non_axial_critical: np.ndarray
    all_longitudes_critical: bool
    field_span: float

    @property
    def n(self):
        return len(self.angles)

    @property
    def maxima_indices(self):
        return [i for i, k in enumerate(self.kinds) if k == "max"]

    @property
    def minima_indices(self):
        return [i for i, k in enumerate(self.kinds) if k == "min"]

    @property
    def kinds_alternate(self):
        """Maxima and minima alternate around the circle (no saddles)."""
        if self.n < 2 or "saddle" in self.kinds:
            return False
        return all(
            self.kinds[i] != self.kinds[(i + 1) % self.n] for i in range(self.n)
        )

    @property
    def level_defect(self):
        """Largest pointwise deviation of any axis profile from the mean
        profile of its kind (maxima, minima), normalized by the field span;
        NaN with fewer than two extrema, where levels are undefined."""
        if self.n < 2:
            return float("nan")
        worst = 0.0
        for indices in (self.maxima_indices, self.minima_indices):
            if len(indices) < 2:
                continue
            group = self.axis_profiles[indices]
            worst = max(worst, float(np.max(np.abs(group - group.mean(axis=0)))))
        return worst / self.field_span if self.field_span > 0 else 0.0

    @property
    def gaps(self):
        """``gaps[i]`` is the counterclockwise arc from extremum i - 1 to
        extremum i, in (0, 2*pi]; a lone extremum's gap is the full turn."""
        d = (self.angles - np.roll(self.angles, 1)) % TWO_PI
        return np.where(d > 0, d, TWO_PI)

    @property
    def midpoint_defects(self):
        """|gap_after - gap_before| at each extremum: the circular distance
        from R_{phi_i}(phi_{i-1}) to phi_{i+1}, zero exactly when phi_i is
        the midpoint of its neighbors.  Empty with fewer than three extrema."""
        if self.n < 3:
            return np.empty(0)
        gaps = self.gaps
        return np.abs(np.roll(gaps, -1) - gaps)


def _local_minima(values):
    left = np.roll(values, 1)
    right = np.roll(values, -1)
    return np.nonzero((values < left) & (values <= right))[0]


def detect_axial_extrema(u, thresholds=AuditThresholds()):
    """Find meridians where u_phi vanishes at every colatitude.

    The scan evaluates g(phi) = max over rings of |u_phi| on a 16x refined
    longitude grid (trigonometric interpolation); local minima of g are
    refined by bisection on the sign change of the alignment-weighted ring
    average of u_phi, then kept as axial extrema when the normalized
    defect max_theta |u_phi| / sup|u_phi| falls below ``thresholds.tol_ax``.
    Kinds come from the sign of the ring-integrated second longitudinal
    derivative, except that a meridian whose u_phiphi takes both signs
    across the significant rings (|u_phiphi| >= 1e-3 of its maximum along
    the meridian) is a "saddle".  Candidates closer than one coarse cell
    are merged (and flagged); a longitude where only some rings are
    critical is reported as non-axial instead of as an extremum.

    All candidates are refined together by ``bisect_roots``: u_phi is
    transformed once, and each bisection step sums one short trigonometric
    series per candidate at its midpoint.

    A field whose span is at most max(TRIVIAL_AMPLITUDE, 1e-12 * sup|u|)
    is a constant, or the trivial state a solve fell to, whose "extrema"
    are rounding noise: it raises ``DegenerateFieldError``.
    """
    grid = u.grid
    span = u.span
    floor = max(TRIVIAL_AMPLITUDE, 1e-12 * u.sup_norm)
    if span <= floor:
        raise DegenerateFieldError(
            "field span %.3g is at or below the floor %.3g of a constant or "
            "trivial state; axial extrema undefined" % (span, floor)
        )

    du = d_phi(u)
    d2u = d_phi(du)
    fine = oversample_phi(du, _REFINE_FACTOR)
    n_fine = fine.shape[1]
    phis_fine = TWO_PI * np.arange(n_fine) / n_fine
    abs_fine = np.abs(fine)
    g = abs_fine.max(axis=0)
    u_phi_sup = float(g.max())
    # u_phi vanishes everywhere: no meridian is singled out
    all_critical = u_phi_sup <= 1e-12 * span

    w = grid.theta_weights
    ring_sup = abs_fine.max(axis=1)
    significant = ring_sup >= _SIGNIFICANT * u_phi_sup

    # every local minimum of g is bracketed by its two refined neighbours;
    # all brackets are evaluated, bisected and tested together
    h_fine = TWO_PI / n_fine
    rows = np.empty(0, dtype=int) if all_critical else _local_minima(g)
    left = phis_fine[rows] - h_fine
    right = phis_fine[rows] + h_fine
    du_l = interp_phi(du, left)
    du_r = interp_phi(du, right)
    norm = np.max(np.abs(du_l), axis=0)
    ref = du_l / np.where(norm > 0, norm, 1.0)
    ca = w @ (du_l * ref)
    cb = w @ (du_r * ref)

    # bisection on the sign change of the alignment-weighted ring average
    # of u_phi.  That average is one trigonometric series per candidate,
    # whose coefficients are the ring series of u_phi contracted with the
    # weights once.
    bisect = ca * cb < 0.0
    series = np.einsum("tk,tm->km", w[:, None] * ref[:, bisect], ring_series(du.values))
    modes = np.arange(series.shape[1])

    def aligned_average(phis):
        mphi = np.multiply.outer(phis, modes)
        return (np.einsum("km,km->k", series.real, np.cos(mphi))
                - np.einsum("km,km->k", series.imag, np.sin(mphi)))

    # otherwise the parabolic vertex through the three refined samples of g
    gm, g0, gp = g[rows - 1], g[rows], g[(rows + 1) % n_fine]
    denom = gm - 2.0 * g0 + gp
    shift = 0.5 * (gm - gp) / np.where(denom != 0, denom, 1.0)
    phi_star = phis_fine[rows] + np.where(denom != 0, shift, 0.0) * h_fine
    phi_star[bisect] = bisect_roots(aligned_average, left[bisect], right[bisect])
    phi_star %= TWO_PI

    defect = np.max(np.abs(interp_phi(du, phi_star)), axis=0) / u_phi_sup
    axial = defect <= thresholds.tol_ax
    candidates = list(zip(phi_star[axial].tolist(), defect[axial].tolist()))
    crossing = np.any((du_l * du_r < 0.0) & significant[:, None], axis=0)
    non_axial = phi_star[~axial & crossing].tolist()

    # merge candidates closer than one coarse cell (circularly)
    candidates.sort()
    cell = grid.phi_cell
    groups = []
    for cand in candidates:
        if groups and cand[0] - groups[-1][-1][0] < cell:
            groups[-1].append(cand)
        else:
            groups.append([cand])
    if len(groups) > 1 and (TWO_PI - groups[-1][-1][0] + groups[0][0][0]) < cell:
        groups[0] = [(a - TWO_PI, d) for a, d in groups[-1]] + groups[0]
        groups.pop()

    angles, defects, merged = [], [], []
    for grp in groups:
        ang = float(np.mean([a for a, _ in grp])) % TWO_PI
        angles.append(0.0 if ang >= TWO_PI - 1e-12 else ang)  # roundoff of 2*pi
        defects.append(max(d for _, d in grp))
        merged.append(len(grp) > 1)
    order = np.argsort(angles)
    angles = np.array(angles)[order]
    defects = np.array(defects)[order]
    merged = np.array(merged, dtype=bool)[order]

    curvature = interp_phi(d2u, angles)
    mag = np.abs(curvature)
    signed = np.where(mag >= _SIGNIFICANT * mag.max(axis=0), np.sign(curvature), 0.0)
    saddle = (signed.max(axis=0) > 0) & (signed.min(axis=0) < 0)
    ring_integral = w @ curvature
    kinds = tuple(
        "saddle" if saddle[i] else "max" if ring_integral[i] < 0.0 else "min"
        for i in range(len(angles))
    )
    profiles = interp_phi(u, angles).T

    return AxialExtremumSet(
        angles=angles,
        kinds=kinds,
        axiality_defects=defects,
        merged=merged,
        axis_profiles=profiles,
        non_axial_critical=np.array(sorted(non_axial)),
        all_longitudes_critical=all_critical,
        field_span=span,
    )


def _sector_columns(phi, centres, widths):
    """Mask, one row per sector, of the longitudes ``phi`` strictly inside
    (centres - widths, centres); a width of 2*pi takes every longitude."""
    lo = centres - widths
    # offsets from the lower edge, bounded by c - lo rather than the width,
    # so a column on the mirror meridian stays outside whatever the
    # rounding of c - width
    rel = np.mod(phi - lo[:, None], TWO_PI)
    cols = (rel > 0.0) & (rel < (centres - lo)[:, None])
    cols[widths >= TWO_PI - 1e-12] = True
    return cols


def _sector_sup(values, centres, widths, absolute):
    """Max of w = u - u o R_c (of |w| when ``absolute``) over the grid
    longitudes strictly inside each sector (c - width, c); an empty sector
    reads 0.  ``values`` samples u at phi_j = 2*pi*j/n_phi; ``centres`` and
    ``widths`` are flat.

    Only the (sector, column) pairs that ``_sector_columns`` selects are
    evaluated.  The reflected value at a pair is the ring series of u
    (``ring_series``) at x = 2c - phi_j, whose basis e^{imx} is the product
    of a table of e^{2imc} per centre and one of e^{-im phi_j} per column.
    Pairs go in blocks of ``_PAIR_BLOCK``, each one stacked ``matmul``
    whose slices stay within ``_SLICE_MADDS`` multiply-adds, so memory does
    not grow with the sector count and BLAS stays on the calling thread."""
    n_theta, n_phi = values.shape
    phi = TWO_PI * np.arange(n_phi) / n_phi
    sector, column = np.nonzero(_sector_columns(phi, centres, widths))
    out = np.zeros(centres.size)
    if sector.size == 0:
        return out

    # interleaved [Re s_m, -Im s_m] against [cos mx, sin mx]: the real
    # view of conj(s) dotted with the real view of e^{imx}
    series = ring_series(values)
    coef = np.ascontiguousarray(np.conj(series).view(float).T)
    m = np.arange(series.shape[1])
    at_centre = np.exp(2j * np.multiply.outer(centres, m))
    roots = np.exp(-1j * phi)  # e^{-im phi_j} = roots[m * j mod n_phi]
    at_column = roots[np.multiply.outer(np.arange(n_phi), m) % n_phi]
    by_column = np.ascontiguousarray(values.T)

    per_slice = min(_PAIR_BLOCK, max(1, _SLICE_MADDS // coef.size))
    block = per_slice * max(1, _PAIR_BLOCK // per_slice)
    pair_sup = np.empty(sector.size)
    for start in range(0, sector.size, block):
        k = sector[start:start + block]
        j = column[start:start + block]
        n_slices = -(-k.size // per_slice)
        basis = np.empty((n_slices * per_slice, m.size), dtype=complex)
        np.multiply(at_centre[k], at_column[j], out=basis[:k.size])
        basis[k.size:] = 0.0
        stack = basis.view(float).reshape(n_slices, per_slice, 2 * m.size)
        reflected = np.matmul(stack, coef).reshape(-1, n_theta)[:k.size]
        w = np.subtract(by_column[j], reflected, out=reflected)
        if absolute:
            np.abs(w, out=w)
        pair_sup[start:start + k.size] = w.max(axis=1)

    # pairs come sector by sector, so each sector's pairs are one run
    first = np.flatnonzero(np.diff(sector, prepend=-1))
    out[sector[first]] = np.maximum.reduceat(pair_sup, first)
    return out


def check_reflection(u, centres, widths):
    """Sup of |u - u o R_c| over the grid longitudes strictly inside the
    sector (c - width, c) that ends at the mirror meridian c, divided by
    the field span when it is positive.

    ``centres`` is one longitude or an array of them, and ``widths``, each
    in [0, 2*pi], broadcasts against it.  A width of 2*pi takes every grid
    longitude; an empty sector reads 0.  Returns a float when both are
    scalars and an array of their broadcast shape otherwise.  The sups
    come from ``_sector_sup``, the kernel the moving-arc sweeps use."""
    centres, widths = np.broadcast_arrays(
        np.asarray(centres, dtype=float), np.asarray(widths, dtype=float)
    )
    if np.any(widths < 0.0):
        raise ParameterError("sector width is negative")
    if np.any(widths > TWO_PI + 1e-12):
        raise ParameterError("sector width exceeds 2*pi")
    out = _sector_sup(u.values, centres.ravel(), widths.ravel(), absolute=True)
    span = u.span
    if span > 0:
        out /= span
    return float(out[0]) if centres.ndim == 0 else out.reshape(centres.shape)


@dataclass(frozen=True)
class MovingArcReport:
    """Result of sweeping a reflection arc from a seed minimum toward the
    neighboring maximum.

    ``w_max[t]`` is the (signed) maximum of u - u o R_eps over grid points
    strictly inside the swept sector at eps = epsilons[t]; a sector that
    contains no grid longitude yet reports 0.  ``eps_star`` is the largest
    sweep value up to which every w_max stayed below tol_w * span, and
    ``phi_star`` the a-priori bound min(gap to either neighbor of the
    target maximum).  ``target_reflection_sup`` is sup|w| at the full gap,
    normalized; its smallness is the equality half of the argument.
    """

    start_angle: float
    direction: int
    target_angle: float
    epsilons: np.ndarray
    w_max: np.ndarray
    eps_star: float
    phi_star: float
    tol_w: float
    span: float
    reaches_target: bool
    target_reflection_sup: float
    equality_ok: bool


def moving_arc_sweep(u, ext, seed_index, direction, thresholds=AuditThresholds()):
    """Sweep the reflection arc from the axial minimum ``seed_index`` in
    ``direction`` (+1 counterclockwise, -1 clockwise) up to the adjacent
    maximum, recording the signed maximum of w = u - u o R_eps on the open
    sector between the seed meridian and the arc, at ``thresholds.n_eps``
    evenly spaced arcs and judged against ``thresholds.tol_w``.

    The sweep samples v(phi_j) = u(seed + direction * phi_j) at the grid
    longitudes (a phase multiply and an inverse FFT, then a column
    permutation for direction -1) and takes both the sector maxima over
    (0, eps) and the end-of-gap sup|w| from ``_sector_sup``, the kernel of
    ``check_reflection``.  Reflections are trigonometric interpolation, so
    off-grid eps are exact for band-limited fields.  The seed must be a
    minimum and its neighbor in the sweep direction a maximum."""
    if ext.n < 2:
        raise ContractError("need at least two extrema to sweep")
    if direction not in (1, -1):
        raise ParameterError("direction must be +1 or -1")
    if ext.kinds[seed_index] != "min":
        raise ContractError("moving-arc seed must be an axial minimum")
    n = ext.n
    target_index = (seed_index + direction) % n
    if ext.kinds[target_index] != "max":
        raise ContractError("extremum adjacent to the seed is not a maximum")
    seed = float(ext.angles[seed_index])
    target = float(ext.angles[target_index])
    gaps = ext.gaps.tolist()
    if direction == 1:
        gap, beyond = gaps[target_index], gaps[(target_index + 1) % n]
    else:
        gap, beyond = gaps[seed_index], gaps[target_index]
    phi_star = min(gap, beyond)
    n_eps, tol_w = thresholds.n_eps, thresholds.tol_w

    n_phi = u.grid.n_phi
    coeffs = np.fft.rfft(u.values, axis=1)
    coeffs *= np.exp(1j * np.arange(coeffs.shape[1]) * seed)
    v = np.fft.irfft(coeffs, n_phi, axis=1)
    if direction == -1:
        # take: v[:, idx] would be column-major, and FFTs of it run 2x slower
        v = np.take(v, -np.arange(n_phi) % n_phi, axis=1)

    span = u.span
    eps = gap * np.arange(1, n_eps + 1) / n_eps
    w_max = _sector_sup(v, eps, eps, absolute=False)

    # eps_star: the last arc before the first one over the bound
    over = np.nonzero(w_max > tol_w * span)[0]
    first_over = over[0] if over.size else n_eps
    eps_star = float(eps[first_over - 1]) if first_over else 0.0

    end = np.array([gap])
    target_sup = float(_sector_sup(v, end, end, absolute=True)[0]) / span

    return MovingArcReport(
        start_angle=seed,
        direction=direction,
        target_angle=target,
        epsilons=eps,
        w_max=w_max,
        eps_star=eps_star,
        phi_star=phi_star,
        tol_w=tol_w,
        span=span,
        reaches_target=eps_star >= gap * (1.0 - 1.0 / n_eps) - 1e-12,
        target_reflection_sup=target_sup,
        equality_ok=target_sup <= tol_w,
    )


def linearized_annihilation(problem, u, lap_u, eps):
    """Residual of the averaged linear equation on the reflection difference.

    For a mirror meridian ``eps`` (one longitude, or an array of them),
    builds w = u - u o R_eps and the homotopy-averaged coefficients (a, b)
    of ``averaged_coefficients`` (8-point Gauss-Legendre rule in tau);
    returns sup|a * Lap w + b * w| normalized by
    ||a|| * ||Lap w|| + ||b|| * ||w|| (sup norms), as a float for one
    longitude and an array shaped like ``eps`` for many.  Near zero for an
    equilibrium, because the reflected field is then also an equilibrium
    and the averaged equation reproduces the difference of the two
    residuals exactly.

    ``lap_u`` is Lap u, applied by the caller.  Both Laplacian
    realizations commute with longitude reflection, so it is reflected
    alongside u: Lap w = Lap u - (Lap u) o R_eps."""
    centres = np.asarray(eps, dtype=float)
    n_phi = u.grid.n_phi
    q = lap_u.values
    coeffs_u = np.fft.rfft(u.values, axis=1)
    coeffs_q = np.fft.rfft(q, axis=1)
    floor = 1e-13 * max(1.0, u.sup_norm)
    out = np.zeros(centres.size)
    # one meridian at a time: a stack of reflections would hold about
    # eight field copies per meridian through the tau quadrature
    for i, centre in enumerate(centres.ravel()):
        u_ref = np.fft.irfft(reflect_coeffs(coeffs_u, centre), n_phi, axis=1)
        w = u.values - u_ref
        w_sup = np.max(np.abs(w))
        if w_sup <= floor:
            continue  # reflection is a symmetry to machine precision
        q_ref = np.fft.irfft(reflect_coeffs(coeffs_q, centre), n_phi, axis=1)
        lap_w = q - q_ref
        a, b = averaged_coefficients(problem, u.values, q, u_ref, q_ref)
        scale = np.max(np.abs(a)) * np.max(np.abs(lap_w)) + np.max(np.abs(b)) * w_sup
        if scale > 0.0:
            out[i] = np.max(np.abs(a * lap_w + b * w)) / scale
    return float(out[0]) if centres.ndim == 0 else out.reshape(centres.shape)


VERDICT_PASS = "pass"
VERDICT_HYPOTHESES = "hypotheses-not-met"
VERDICT_FAIL = "not-theorem-compatible"


@dataclass(frozen=True)
class SymmetryReport:
    """Full audit outcome for one field: the measurements, and as
    properties the decisions derived from them, each a Python ``bool``.

    ``verdict`` is "pass" when both the hypotheses (axial, alternating,
    leveled extrema; a saddle meridian breaks the alternation) and the
    conclusions (mirror symmetry, even spacing where the midpoint check
    applies, one-signed arc sweeps) hold within thresholds;
    "hypotheses-not-met" when the field is outside the audited class (the
    conclusion checks are still reported for information); and
    "not-theorem-compatible" when the hypotheses hold but a conclusion
    fails, which certifies the field cannot be an equilibrium of any
    uniformly elliptic problem of the audited form.  The leveled check
    needs two extrema and the midpoint (even-spacing) check three."""

    extrema: AxialExtremumSet
    reflection_defects: np.ndarray
    arc_reports: tuple
    annihilation_residuals: np.ndarray
    equilibrium_residual: float
    thresholds: AuditThresholds
    midpoint_tol: float

    @property
    def leveled_applicable(self):
        return self.extrema.n >= 2

    @property
    def leveled_passed(self):
        defect = self.extrema.level_defect
        return self.leveled_applicable and bool(defect <= self.thresholds.tol_lvl)

    @property
    def reflection_passed(self):
        d = self.reflection_defects
        return bool(d.size) and bool(np.all(d <= self.thresholds.tol_w))

    @property
    def midpoint_applicable(self):
        return self.extrema.n >= 3

    @property
    def midpoint_passed(self):
        d = self.extrema.midpoint_defects
        return self.midpoint_applicable and bool(np.all(d <= self.midpoint_tol))

    @property
    def hypotheses_met(self):
        ext = self.extrema
        axial = ext.non_axial_critical.size == 0
        return bool(ext.kinds_alternate and axial and self.leveled_passed)

    @property
    def conclusions_ok(self):
        spacing_ok = self.midpoint_passed or not self.midpoint_applicable
        arcs_ok = all(r.reaches_target and r.equality_ok for r in self.arc_reports)
        return self.reflection_passed and spacing_ok and arcs_ok

    @property
    def verdict(self):
        if not self.hypotheses_met:
            return VERDICT_HYPOTHESES
        return VERDICT_PASS if self.conclusions_ok else VERDICT_FAIL


def theorem_audit(problem, op, u, thresholds=AuditThresholds()):
    """Run the full symmetry audit pipeline on a field.

    detect_axial_extrema (whose set carries the level and midpoint
    defects) -> per-extremum reflection over the preceding gap ->
    moving-arc sweeps from every minimum in both orientations, plus the
    linearized-annihilation residual at every extremal meridian and the
    equation residual of u itself (both informational, and both from one
    application of Lap to u).  Requires a nonconstant, nontrivial field.
    Only measures: the report derives every pass flag and the verdict."""
    mid = thresholds.midpoint_tol
    midpoint_tol = u.grid.phi_cell if mid is None else mid
    ext = detect_axial_extrema(u, thresholds)
    lap_u = apply_laplacian(op, u)
    eq_residual = float(
        np.max(np.abs(evaluate(problem, "F", u.values, lap_u.values)))
    )

    reflection_defects = check_reflection(u, ext.angles, ext.gaps)

    arc_reports = tuple(
        moving_arc_sweep(u, ext, i, direction, thresholds)
        for i in (ext.minima_indices if ext.kinds_alternate else ())
        for direction in (1, -1)
    )

    annihilation = linearized_annihilation(problem, u, lap_u, ext.angles)

    return SymmetryReport(
        extrema=ext,
        reflection_defects=reflection_defects,
        arc_reports=arc_reports,
        annihilation_residuals=annihilation,
        equilibrium_residual=eq_residual,
        thresholds=thresholds,
        midpoint_tol=midpoint_tol,
    )


# ---------------------------------------------------------------------------
# synthetic biradial demo field
# ---------------------------------------------------------------------------

# Extremal longitudes (units of pi/16) of the uneven-but-leveled pattern:
# a slow full sine period on each quadrant pair alternating with two
# compressed periods, repeating with period pi.
_BIRADIAL_TARGETS = np.array([2.0, 6.0, 9.0, 11.0, 13.0, 15.0]) * math.pi / 16.0


def _biradial_phase_coefficients():
    """Trigonometric phase modulation p with sin(6 phi + p(phi)) hitting
    +-1 exactly at the target longitudes; minimum-norm interpolation."""
    targets = _BIRADIAL_TARGETS
    values = math.pi / 2.0 + np.arange(6) * math.pi - 6.0 * targets
    basis = _biradial_basis(targets)
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return coef


def _biradial_basis(phi):
    phi = np.atleast_1d(phi)
    return np.stack(
        [
            np.ones_like(phi),
            np.cos(2 * phi),
            np.sin(2 * phi),
            np.cos(4 * phi),
            np.sin(4 * phi),
            np.cos(6 * phi),
            np.sin(6 * phi),
        ],
        axis=-1,
    )


def biradial_angles():
    """The twelve extremal longitudes of the biradial demo field (sorted)."""
    return np.sort(np.concatenate([_BIRADIAL_TARGETS, _BIRADIAL_TARGETS + math.pi]))


def biradial_field(grid):
    """Synthetic negative-control field with biradial (C_2v) symmetry.

    u = sin(theta) * sin(g(phi)) with a smooth, strictly increasing phase
    g, so the twelve extrema are exactly leveled (+-sin(theta)) and exactly
    axial, but unevenly spaced: two slowly varying arcs alternate with four
    compressed ones per half-turn, repeating with period pi.  Such a field
    passes the axial and leveled hypotheses yet fails the even-spacing
    conclusion, so it cannot arise as an equilibrium.  The analytic phase
    keeps the field effectively band-limited, unlike a piecewise-sine
    construction whose derivative kinks would leave Gibbs noise in every
    spectral evaluation."""
    coef = _biradial_phase_coefficients()

    def h(phi):
        return np.sin(6.0 * phi + _biradial_basis(phi) @ coef)

    return eval_on_grid(grid, lambda t, p: np.sin(t) * h(p))
