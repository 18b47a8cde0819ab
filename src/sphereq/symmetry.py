"""Reflectional-symmetry auditing of fields on the sphere.

The pipeline detects meridians along which the longitudinal derivative
vanishes at every colatitude (axial extrema), labels each a maximum, a
minimum or a saddle by the direction u_phi crosses zero there on each ring,
reports ring-wise critical points off those meridians, classifies whether
all maxima (resp. minima) share one colatitude profile (leveled), and then
checks the structure a nonconstant equilibrium with leveled axial extrema
must have: extrema evenly spaced, the field mirror-symmetric about each
extremal meridian, and the swept-sector difference field u - u o R_eps
one-signed up to the next extremum.  These are the conclusions of the
maximum principle for w = u - u o R, which satisfies the averaged linear
equation a * Lap w + b * w = r - r o R with r = F(u, Lap u); the audit
checks the conclusions, and bounds r by the equation residual of u.

Everything runs as batched numpy over angles, and every longitude
operation reads the field's one ring series (``ScalarField.ring_series``):
the extremum detector forms u_phi's series from it, and the reflection
check and every moving-arc sweep reflect the field through it, one copy
u(theta, 2c - phi) per mirror c from a phase multiply and one inverse FFT.
A sweep puts its mirrors on a lattice anchored at its target, one grid
cell over 2r apart, so r reflected copies serve all its arcs and each arc
is an index gather of them.  The extremum bisection advances all
candidates in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DegenerateFieldError, ParameterError
from .grid import TWO_PI, bisect_roots, eval_on_grid, eval_series, interp_phi
from .problems import residual
from .solver import TRIVIAL_AMPLITUDE

_REFINE_FACTOR = 16
# A grid longitude this close to a sector's mirror or far edge counts as on
# it: extrema, and so the mirrors counted from them, are detected up to
# about 2.5e-12 rad from their grid longitudes.
_EDGE_TOL = 1e-9
# Rings whose sup|u_phi| is below this fraction of the field's carry no
# sign information.
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
    - ``n_eps``, the minimum number of arcs in a moving-arc sweep, is an
      integer >= 2: a sweep spaces its arcs at most gap / n_eps apart (see
      ``moving_arc_sweep``), so it may take a few more.

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
    "max", "min" or "saddle" (u_phi crosses zero downward on some
    significant rings and upward on others, so the meridian is a maximum in
    some colatitudes and a minimum in others); ``axiality_defects`` give
    max over colatitude of |u_phi| at the axis, normalized by sup|u_phi|;
    ``merged`` flags an extremum near which some ring's u_phi changes sign
    more than once.  ``axis_profiles[i]`` samples u along axis i at the
    grid colatitudes, and ``level_defect`` compares them within each kind;
    ``gaps`` and ``midpoint_defects`` measure the spacing.  Ring-wise
    critical points off the axial meridians (u_phi vanishes on some rings
    but not all) never count as extrema; ``non_axial_critical`` gives one
    longitude of them per gap that holds any, sorted.
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


def detect_axial_extrema(u, thresholds=AuditThresholds()):
    """Find meridians where u_phi vanishes at every colatitude.

    One table drives everything: the cells of a 16x refined longitude grid
    where u_phi changes sign, on each ring whose sup|u_phi| is at least
    1e-3 of the field's.  u_phi's series is i*m times the field's ring
    series without the Nyquist term; inverse FFTs synthesize the table
    from it block by block of rings, keeping only each ring's sup and
    signs, and every later evaluation of u_phi sums it.  The
    changes fall into circular runs of refined columns within one cell of
    a change on some ring.  A run with a column within one cell of a
    change on every ring is a candidate: its angle is the sign change
    across the run of the alignment-weighted ring average of u_phi,
    refined by bisection, and it is an axial extremum when the normalized
    defect max_theta |u_phi| / sup|u_phi| there is at most
    ``thresholds.tol_ax``.
    The extremum is a "max" when u_phi crosses from + to - on all its
    rings, a "min" when from - to + on all, and a "saddle" otherwise; it
    is ``merged`` when some ring changes sign more than once in its run.
    Every other run is a ring-wise critical point off the axial meridians,
    at its middle (or at its angle).  ``non_axial_critical`` lists one of
    them per gap between consecutive extrema that holds any (the whole
    circle when there are no extrema): the first counterclockwise from the
    gap's start.

    A field whose span is at most max(TRIVIAL_AMPLITUDE, 1e-12 * sup|u|)
    is a constant, or the trivial state a solve fell to, whose "extrema"
    are rounding noise: it raises ``DegenerateFieldError``.
    """
    span = u.span
    floor = max(TRIVIAL_AMPLITUDE, 1e-12 * u.sup_norm)
    if span <= floor:
        raise DegenerateFieldError(
            "field span %.3g is at or below the floor %.3g of a constant or "
            "trivial state; axial extrema undefined" % (span, floor)
        )

    # u_phi's series, i*m*c without the Nyquist term
    c = u.ring_series
    du = c * (1j * np.arange(c.shape[1]))
    du[:, -1] = 0.0
    # its ring sups and signs on the refined longitudes (irfft pads the
    # series with zeros), one block of n_theta // 16 rings (at least one) at
    # a time: at most max(n_theta, 16) * n_phi values per block
    n_theta = u.grid.n_theta
    n_fine = _REFINE_FACTOR * u.grid.n_phi
    ring_sup = np.empty(n_theta)
    positive = np.empty((n_theta, n_fine), dtype=bool)
    per_block = max(1, n_theta // _REFINE_FACTOR)
    for start in range(0, n_theta, per_block):
        rows = slice(start, start + per_block)
        fine = np.fft.irfft(0.5 * du[rows], n_fine, axis=1, norm="forward")
        ring_sup[rows] = np.maximum(fine.max(axis=1), -fine.min(axis=1))
        np.greater(fine, 0.0, out=positive[rows])
    u_phi_sup = float(ring_sup.max())
    # u_phi vanishes everywhere: no meridian is singled out
    all_critical = u_phi_sup <= 1e-12 * span

    # the table: change[r, j] when significant ring r changes sign in the
    # refined cell from column j to column j + 1
    significant = (ring_sup >= _SIGNIFICANT * u_phi_sup) & (not all_critical)
    positive = positive[significant]
    change = positive != np.roll(positive, -1, axis=1)
    near = change | np.roll(change, 1, axis=1)

    # circular runs of columns near a change; run_of[j] is column j's run
    busy = near.any(axis=0)
    starts = busy & ~np.roll(busy, 1)
    starts[0] |= busy.all()  # one run round the whole circle
    first = np.flatnonzero(starts)
    n_runs = first.size
    run_of = np.cumsum(starts) - 1
    run_of[run_of < 0] = n_runs - 1  # the run that wraps past the end
    run_of[~busy] = -1
    length = np.bincount(run_of[busy], minlength=n_runs)
    cand = np.flatnonzero(np.bincount(run_of[near.all(axis=0) & busy], minlength=n_runs))

    # each change lies in the run that holds the column after its cell
    ring, cell = np.divmod(np.flatnonzero(change), n_fine)
    run = run_of[(cell + 1) % n_fine]
    falls = positive[ring, cell]  # + to -: a ring-wise maximum
    down = np.bincount(run, weights=falls, minlength=n_runs) > 0
    up = np.bincount(run, weights=~falls, minlength=n_runs) > 0
    per_ring = np.bincount(run * len(positive) + ring, minlength=n_runs * len(positive))
    merged = per_ring.reshape(n_runs, len(positive)).max(axis=1, initial=0) > 1

    # a run's cells span [left, right].  Candidates with a sign change there
    # of the alignment-weighted ring average of u_phi are bisected together,
    # on one trigonometric series each: the ring series of u_phi contracted
    # with the weights once.  Every other run keeps its middle.
    w = u.grid.theta_weights
    left = (first - 1) * (TWO_PI / n_fine)
    right = (first + length) * (TWO_PI / n_fine)
    phi_star = 0.5 * (left + right)
    du_l = eval_series(du, left[cand])
    norm = np.max(np.abs(du_l), axis=0)
    ref = du_l / np.where(norm > 0, norm, 1.0)
    sign_l = np.sign(w @ (du_l * ref))
    bracketed = np.abs(sign_l - np.sign(w @ (eval_series(du, right[cand]) * ref))) == 2.0
    series = np.einsum("tk,tm->km", w[:, None] * ref[:, bracketed], du)
    bisect = cand[bracketed]

    def weighted_u_phi(phis):  # series i at phis[i]: eval_series's diagonal alone
        mphi = np.multiply.outer(np.arange(series.shape[1]), phis)
        return (np.einsum("km,mk->k", series.real, np.cos(mphi))
                - np.einsum("km,mk->k", series.imag, np.sin(mphi)))

    phi_star[bisect] = bisect_roots(weighted_u_phi, left[bisect], right[bisect])
    phi_star %= TWO_PI
    defect = np.full(n_runs, np.inf)
    defect[cand] = np.max(np.abs(eval_series(du, phi_star[cand])), axis=0) / u_phi_sup
    phi_star[phi_star >= TWO_PI - 1e-12] = 0.0  # roundoff of 2*pi
    axial = defect <= thresholds.tol_ax
    order = np.flatnonzero(axial)[np.argsort(phi_star[axial])]
    kinds = np.where(down & up, "saddle", np.where(down, "max", "min"))[order]
    angles = phi_star[order]

    # one off-axis run per gap between consecutive extrema (the circle from
    # 0 without any): the first counterclockwise from the gap's start
    off = phi_star[~axial]
    gap = (np.searchsorted(angles, off) - 1) % max(angles.size, 1)
    gap_start = angles[gap] if angles.size else 0.0
    by_gap = np.lexsort(((off - gap_start) % TWO_PI, gap))
    first_in_gap = np.unique(gap[by_gap], return_index=True)[1]

    return AxialExtremumSet(
        angles=angles,
        kinds=tuple(kinds.tolist()),
        axiality_defects=defect[order],
        merged=merged[order],
        axis_profiles=interp_phi(u, angles).T,
        non_axial_critical=np.sort(off[by_gap[first_in_gap]]),
        all_longitudes_critical=all_critical,
        field_span=span,
    )


def _sector(phi, mirror, side, width):
    """The indices of the longitudes ``phi`` inside the sector of ``width``
    (in [0, 2*pi]) that ends at the meridian ``mirror`` on its ``side``,
    and each one's distance x = (side * (mirror - phi)) mod 2*pi from the
    mirror: side +1 is the sector (mirror - width, mirror), side -1 the
    sector (mirror, mirror + width).  A longitude is inside when
    _EDGE_TOL < x < width - _EDGE_TOL, so one within ``_EDGE_TOL`` of the
    mirror, where w is rounding noise, or of the far edge counts as on it;
    a width of 2*pi takes every longitude."""
    x = np.mod(side * (mirror - phi), TWO_PI)
    if width >= TWO_PI - 1e-12:
        return np.arange(phi.size), x
    cols = np.flatnonzero((x > _EDGE_TOL) & (x < width - _EDGE_TOL))
    return cols, x[cols]


def _reflection(u, mirror):
    """u(theta, 2c - phi) at every grid node, for the mirror meridian c.

    The ring series of phi -> u(theta, 2c - phi) is conj(s_m) e^{-2imc},
    for the field's ring series s (``u.ring_series``), with the Nyquist
    term kept real: the grid samples its cosine alone.  One inverse FFT
    synthesizes it, so every c reflects the field's trigonometric
    interpolant, exactly for a band-limited field."""
    series = u.ring_series
    phase = np.exp(-2j * mirror * np.arange(series.shape[1]))
    phase[1:-1] *= 0.5  # irfft doubles the interior modes
    coef = np.conj(series)
    coef *= phase
    coef[:, -1] = coef[:, -1].real
    return np.fft.irfft(coef, u.grid.n_phi, axis=1, norm="forward")


def check_reflection(u, centres, widths):
    """Sup of |u - u o R_c| over the grid longitudes of the sector
    (c - width, c) that ends at the mirror meridian c, divided by the field
    span when it is positive: those at distance x = (c - phi) mod 2*pi from
    c with _EDGE_TOL < x < width - _EDGE_TOL (``_sector``).

    ``centres`` is one finite longitude or an array of them, and ``widths``,
    each in [0, 2*pi], broadcasts against it.  A width of 2*pi takes every
    grid longitude; an empty sector reads 0.  Returns a float when both are
    scalars and an array of their broadcast shape otherwise.  Each centre
    with a nonempty sector gets one reflected copy of the field
    (``_reflection``, the reflection the moving-arc sweeps use)."""
    centres, widths = np.broadcast_arrays(
        np.asarray(centres, dtype=float), np.asarray(widths, dtype=float)
    )
    if not np.all(np.isfinite(centres)):
        raise ParameterError("sector centres must be finite")
    if not np.all((widths >= 0.0) & (widths <= TWO_PI + 1e-12)):
        raise ParameterError("sector width is negative, over 2*pi or not finite")
    phi = u.grid.phi_nodes
    out = np.zeros(centres.size)
    for i, (c, width) in enumerate(zip(centres.ravel(), widths.ravel())):
        cols, _ = _sector(phi, c, 1, width)
        if cols.size:
            w = u.values[:, cols] - _reflection(u, c)[:, cols]
            out[i] = np.max(np.abs(w))
    span = u.span
    if span > 0:
        out /= span
    return float(out[0]) if centres.ndim == 0 else out.reshape(centres.shape)


def _lattice_sweep(u, target, direction, gap, n_eps):
    """The arcs of a sweep that ends at ``target``, increasing, the signed
    max of w = u - u o R over the grid columns of each, 0 for an empty
    sector, and sup|w| over the full gap.

    With h the grid cell and r = ceil(n_eps * h / (2 * gap)), arc k mirrors
    about c_k = target - direction * k * delta, delta = h / (2r), for every
    k with a positive eps_k = gap - k * delta.  The gap's columns, at
    distances x from the target, are one ``_sector``; arc k holds column j
    when gap - eps_k < x_j - _EDGE_TOL.  gap - eps_k never decreases in
    floating point, so the arcs holding a column are a run from arc 0,
    ``held`` of them.  With k = q * r + s,
    2 c_k - phi_j = 2 c_s - phi_{j + direction * q}: arc k reflects column
    j onto column j + direction * q of the copy reflected about c_s.  The
    copies' columns go into one table, counted from the gap column next to
    the seed (the farthest from the target) and interleaved by s, so the
    reflected values of the gap's column i for arcs 0, 1, 2, ... are one
    run of the table from row i * r on.  Each column takes one slice of
    the table, one subtraction and one max over the rings."""
    h = u.grid.phi_cell
    r = math.ceil(n_eps * h / (2.0 * gap))
    delta = h / (2 * r)
    eps = gap - np.arange(math.ceil(gap / delta - 1e-9)) * delta
    n_arcs = eps.size
    hi = np.zeros(n_arcs)
    phi = u.grid.phi_nodes
    columns, x = _sector(phi, target, direction, gap)
    if not columns.size:
        return eps[::-1], hi, 0.0
    held = np.searchsorted(gap - eps, x - _EDGE_TOL)
    r = min(r, n_arcs)
    # each gap column's offset from the one next to the seed
    n_phi = phi.size
    first = columns[np.argmax(x)]
    offset = (direction * (columns - first)) % n_phi
    n_table = int(np.max(offset - (-held // r)))
    table_columns = (first + direction * np.arange(n_table)) % n_phi
    table = np.empty((n_table, r, u.grid.n_theta))
    for s in range(r):
        table[:, s] = _reflection(u, target - direction * s * delta)[:, table_columns].T
    table = table.reshape(n_table * r, -1)
    values = u.values.T[columns]

    hi[:held.max()] = -np.inf
    for c, (i, n) in enumerate(zip(offset.tolist(), held.tolist())):
        w = np.subtract(values[c], table[i * r:i * r + n])
        np.maximum(hi[:n], w.max(axis=1), out=hi[:n])
    w = values - table[offset * r]
    return eps[::-1], hi[::-1], float(np.max(np.abs(w)))


@dataclass(frozen=True)
class MovingArcReport:
    """Result of sweeping a reflection arc from a seed minimum toward the
    neighboring maximum.

    ``epsilons`` are the swept arcs, increasing, at least ``n_eps`` of them
    and evenly spaced at most gap / n_eps apart; the last is the full gap.
    ``w_max[t]`` is the (signed) maximum of u - u o R_eps over grid points
    strictly inside the swept sector at eps = epsilons[t]; a sector that
    contains no grid longitude yet reports 0.  ``eps_star`` is the largest
    sweep value up to which every w_max stayed below tol_w * span, and
    ``reaches_target`` holds when every arc before the last did, so that
    eps_star is at least the gap less one spacing.  ``phi_star`` is the
    a-priori bound min(gap to either neighbor of the target maximum).
    ``target_reflection_sup`` is sup|w| at the full gap, normalized; its
    smallness is the equality half of the argument.
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
    sector between the seed meridian and the arc, at evenly spaced arcs,
    at least ``thresholds.n_eps`` of them, judged against
    ``thresholds.tol_w``.

    The mirrors lie on a lattice anchored at the target: with h the grid
    cell and r = ceil(n_eps * h / (2 * gap)), the mirror of arc k is
    target - direction * k * h / (2r), for every k with a positive eps, so
    the arcs are at most gap / n_eps apart and the last one is the full
    gap, whose sup|w| is the end-of-gap reflection defect.  The gap's grid
    longitudes are decided once, by their distance x from the target: those
    with _EDGE_TOL < x < gap - _EDGE_TOL (``_sector``, the rule
    ``check_reflection`` uses).  The arc eps holds those with
    gap - eps < x - _EDGE_TOL, more than _EDGE_TOL farther from the target
    than its mirror, so each arc's sector contains every smaller arc's, and
    the arcs holding a column are a counted run from the full gap down.
    Their reflected values are columns of r reflected copies of the field,
    one per mirror within a half cell of the target (``_lattice_sweep``);
    ``check_reflection`` makes its copies the same way.  Reflections are
    trigonometric interpolation, so off-grid mirrors are exact for
    band-limited fields.  ``seed_index`` must be an integer in
    range(ext.n), the seed a minimum and its neighbor in the sweep
    direction a maximum."""
    if ext.n < 2:
        raise ContractError("need at least two extrema to sweep")
    if not isinstance(direction, (int, np.integer)) or direction not in (1, -1):
        raise ParameterError("direction must be +1 or -1, got %r" % (direction,))
    n = ext.n
    if not isinstance(seed_index, (int, np.integer)) or not 0 <= seed_index < n:
        raise ParameterError("seed_index %r is not in range(%d)" % (seed_index, n))
    if ext.kinds[seed_index] != "min":
        raise ContractError("moving-arc seed must be an axial minimum")
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

    span = u.span
    eps, w_max, target_sup = _lattice_sweep(u, target, direction, gap, n_eps)
    target_sup /= span

    # eps_star: the last arc before the first one over the bound
    over = np.nonzero(w_max > tol_w * span)[0]
    first_over = over[0] if over.size else eps.size
    eps_star = float(eps[first_over - 1]) if first_over else 0.0

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
        reaches_target=bool(first_over >= eps.size - 1),
        target_reflection_sup=target_sup,
        equality_ok=target_sup <= tol_w,
    )


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
    needs two extrema and the midpoint (even-spacing) check three.
    ``equilibrium_residual``, sup|F(u, Lap u)|, is informational: it also
    bounds the residual a * Lap w + b * w = r - r o R of the averaged
    linear equation of every reflection difference, by twice its value up
    to the trigonometric interpolation of r off the grid.  ``thresholds``
    are the ones the audit applied, so ``thresholds.midpoint_tol`` is a
    number (``theorem_audit`` resolves its default)."""

    extrema: AxialExtremumSet
    reflection_defects: np.ndarray
    arc_reports: tuple
    equilibrium_residual: float
    thresholds: AuditThresholds

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
        tol = self.thresholds.midpoint_tol
        return self.midpoint_applicable and bool(np.all(d <= tol))

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
    equation residual of u itself (informational, ``problems.residual``:
    one application of Lap to u and one evaluation of F).  Requires a
    nonconstant, nontrivial field.  Only measures: the report derives
    every pass flag and the verdict.  The report's thresholds are the
    given ones with ``midpoint_tol`` None resolved to the grid's longitude
    cell."""
    if thresholds.midpoint_tol is None:
        thresholds = replace(thresholds, midpoint_tol=u.grid.phi_cell)
    ext = detect_axial_extrema(u, thresholds)
    eq_residual = residual(problem, op, u).sup_norm

    reflection_defects = check_reflection(u, ext.angles, ext.gaps)

    arc_reports = tuple(
        moving_arc_sweep(u, ext, i, direction, thresholds)
        for i in (ext.minima_indices if ext.kinds_alternate else ())
        for direction in (1, -1)
    )

    return SymmetryReport(
        extrema=ext,
        reflection_defects=reflection_defects,
        arc_reports=arc_reports,
        equilibrium_residual=eq_residual,
        thresholds=thresholds,
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
