"""The benchmark workloads: seeded cases, one op per case, and the check
that decides whether an op passed.

Every call into the package goes through a module attribute looked up at
call time (``sq.solver.newton_solve``), so the tracer's wrappers see it.
Inputs are generated before timing starts; an op is timed from the first
library call to its return or raise, and its check runs untimed.

An op ends in one of three states:

* ``ok``: returned, and the check passed;
* ``failed``: raised a package error, or returned a valid answer to a
  different question (Newton settling on the trivial state).  Counted in
  ``failed``;
* ``wrong``: returned a result that breaks the package's own contract (a
  residual above the tolerance it reports, a wrong audit verdict, report
  bytes that differ between two audits of one field).  Counted in
  ``failed`` and makes the run incorrect.

A run repeats one round of cases, so per-op counts are the same however
many rounds fit, and two runs with one seed give identical counts.
"""

from __future__ import annotations

import io

TOL = 1e-9
#: Cases draw their lambda offset above the bifurcation value l(l+1) from
#: this interval.
LAM_OFFSET = (0.25, 1.5)
#: (l, m) of the solve cases: every order of degrees 2 and 3.
PAIRS = tuple((l, m) for l in (2, 3) for m in range(l + 1))
#: The README's own example: the Y_2^2 branch at lambda = 6.5.
README_LAM = 6.5


class CheckFailed(Exception):
    """The op returned, but not the answer asked for; counted as failed."""


class WrongResult(Exception):
    """The op returned a result that contradicts the package's contract."""


def _offset(rng, j, draws):
    """A lambda offset drawn uniformly from slice j of LAM_OFFSET cut into
    ``draws`` equal slices.

    Each pair draws once from every slice, so every seed's round covers
    the whole interval evenly; with free draws, a seed that happened to
    cluster its offsets moved the round's median and tail."""
    lo, hi = LAM_OFFSET
    return lo + (hi - lo) * (j + rng.random()) / draws


def _sphf_text(sq, field):
    buf = io.StringIO()
    sq.fieldio.write_field(buf, field)
    return buf.getvalue()


class Case:
    """One op's inputs; ``label`` names its stratum in the output."""

    def __init__(self, label, **inputs):
        self.label = label
        self.__dict__.update(inputs)


class Workload:
    #: (n_theta, n_phi) of every grid the workload builds, smallest first.
    grids = ()
    #: Rounds a run makes at least, whatever --seconds says.  The tail
    #: percentile is fixed from min_rounds * round size (see run.py).
    min_rounds = 1

    def __init__(self, sq):
        self.sq = sq
        self.ops = {}

    def build(self):
        """Grids and operators (Legendre tables included); part of setup."""
        for shape in self.grids:
            grid = self.sq.grid.make_grid(*shape)
            self.ops[shape] = self.sq.harmonics.make_operator(grid, "spectral")

    def cases(self, rng):
        """One round of inputs, generated from the seed."""
        raise NotImplementedError

    def warmup_case(self):
        """The fixed, cheap case run once in setup."""
        raise NotImplementedError

    def run(self, case):
        """The timed op; returns whatever ``check`` needs."""
        raise NotImplementedError

    def check(self, case, result):
        """Raise CheckFailed or WrongResult; return a dict of op counters."""
        raise NotImplementedError


class Solve(Workload):
    """Cold Newton solves of the cubic problem from the normal-form seed,
    at the README's default 48x96 grid.

    On 96x192 and 128x256, GMRES runs BLAS on two threads.  One busy core
    elsewhere on a 2-core machine then doubles the solve time, so there
    the op time tracked other processes' load more than this code."""

    grids = ((48, 96),)
    #: lambda draws per (l, m) pair in a round; 35 distinct cases make the
    #: median and the tail order statistics of many cases, not of one, and
    #: an odd count puts the median inside one case's cluster of repeats.
    draws = 5
    min_rounds = 4

    def _case(self, shape, l, m, lam):
        grid = self.ops[shape].grid
        ll1 = float(l * (l + 1))
        lam_start, guess = self.sq.solver.branch_switch(grid, ll1, l, m, dlam0=lam - ll1)
        label = "spectral.%dx%d.Y%d%d" % (shape[0], shape[1], l, m)
        return Case(label, shape=shape, lam=lam_start, guess=guess)

    def cases(self, rng):
        shape = self.grids[0]
        out = [self._case(shape, l, m, l * (l + 1) + _offset(rng, j, self.draws))
               for l, m in PAIRS for j in range(self.draws)]
        return [out[k] for k in rng.permutation(len(out))]

    def warmup_case(self):
        return self._case(self.grids[0], 2, 2, README_LAM)

    def run(self, case):
        problem = self.sq.problems.chafee_infante(case.lam)
        return self.sq.solver.newton_solve(
            problem, self.ops[case.shape], case.guess, tol=TOL
        )

    def check(self, case, eq):
        problem = self.sq.problems.chafee_infante(case.lam)
        res = self.sq.problems.residual(problem, self.ops[case.shape], eq.u).sup_norm
        if not res <= TOL:
            raise WrongResult("recomputed residual %g exceeds tol %g" % (res, TOL))
        floor = 0.5 * case.guess.sup_norm
        if not eq.amplitude > floor:
            raise CheckFailed(
                "amplitude %g fell to the trivial state (floor %g)" % (eq.amplitude, floor)
            )
        return {}


#: Expected verdict per audit field kind.
VERDICTS = {
    "equilibrium": "pass",
    "figure1": "not-theorem-compatible",
    "perturbed": "hypotheses-not-met",
}
#: Sectoral (l = m) equilibria: their extrema meet the theorem's hypotheses.
AUDIT_EQ_DEGREES = (2, 3)
#: Symmetry-breaking perturbations (pl, pm) of Y_2^2, the README's `gen
#: perturbed` family; each leaves the extrema non-alternating.  Every
#: grid gets all three.
AUDIT_PERTURBATIONS = ((1, 1), (2, 1), (3, 1))


class Audit(Workload):
    """SPHF text -> read_field -> theorem_audit -> write_report_json."""

    grids = ((48, 96), (96, 192), (128, 256))
    # Six fields per grid, 18 in a round.  The eleven cheapest (the nine
    # perturbed fields and the two 48x96 equilibria) cost 0.02-0.13 s and
    # the next one about twice the most of those, so the median sits two
    # fields below that gap; with 15 fields it sat on the gap, and a few
    # slow cheap ops moved it by a third.  Report bytes are compared
    # across rounds, so at least two.
    min_rounds = 4

    def __init__(self, sq):
        super().__init__(sq)
        # first report JSON per field, keyed by the field's SPHF text
        self.reports = {}

    def _case(self, shape, kind, field, lam):
        label = "%s.%dx%d" % (kind, shape[0], shape[1])
        return Case(label, shape=shape, kind=kind, text=_sphf_text(self.sq, field), lam=lam)

    def _equilibria(self, rng):
        """Newton equilibria on every grid: solved on the smallest, carried
        to the others by spectral interpolation, and re-converged there."""
        sq = self.sq
        base_op = self.ops[self.grids[0]]
        cap = sq.harmonics.max_degree(base_op.grid)
        out = []
        for l in AUDIT_EQ_DEGREES:
            lam = l * (l + 1) + rng.uniform(*LAM_OFFSET)
            ll1 = float(l * (l + 1))
            lam, guess = sq.solver.branch_switch(base_op.grid, ll1, l, l, dlam0=lam - ll1)
            problem = sq.problems.chafee_infante(lam)
            coeffs = sq.harmonics.sht_forward(
                sq.solver.newton_solve(problem, base_op, guess, tol=TOL).u, cap
            )
            for shape in self.grids:
                op = self.ops[shape]
                start = sq.harmonics.sht_inverse(coeffs, op.grid)
                eq = sq.solver.newton_solve(problem, op, start, tol=TOL)
                out.append(self._case(shape, "equilibrium", eq.u, lam))
        return out

    def cases(self, rng):
        sq = self.sq
        out = self._equilibria(rng)
        for shape in self.grids:
            grid = self.ops[shape].grid
            amp = rng.uniform(0.5, 2.0)
            out.append(self._case(shape, "figure1",
                                  sq.symmetry.biradial_field(grid) * amp, README_LAM))
            for pl, pm in AUDIT_PERTURBATIONS:
                eps = rng.uniform(0.05, 0.2)
                amp = rng.uniform(0.5, 2.0)
                field = (sq.harmonics.harmonic_mode(grid, 2, 2)
                         + sq.harmonics.harmonic_mode(grid, pl, pm) * eps) * amp
                out.append(self._case(shape, "perturbed", field, README_LAM))
        return [out[k] for k in rng.permutation(len(out))]

    def warmup_case(self):
        shape = self.grids[0]
        field = self.sq.symmetry.biradial_field(self.ops[shape].grid)
        return self._case(shape, "figure1", field, README_LAM)

    def run(self, case):
        sq = self.sq
        u = sq.fieldio.read_field(io.StringIO(case.text))
        report = sq.symmetry.theorem_audit(
            sq.problems.chafee_infante(case.lam), self.ops[case.shape], u
        )
        out = io.StringIO()
        sq.fieldio.write_report_json(out, report)
        return report.verdict, out.getvalue()

    def check(self, case, result):
        verdict, payload = result
        expected = VERDICTS[case.kind]
        if verdict != expected:
            raise WrongResult("verdict %r, expected %r" % (verdict, expected))
        first = self.reports.setdefault(case.text, payload)
        if payload != first:
            raise WrongResult("report JSON differs between two audits of one field")
        return {"read_bytes": len(case.text)}


WORKLOADS = {
    "solve": Solve,
    "audit": Audit,
}
