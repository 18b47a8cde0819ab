"""Equilibria of fully nonlinear elliptic equations on the sphere and
reflectional-symmetry audits of their extremal meridians."""

from .errors import (
    ContractError,
    ConvergenceError,
    DegenerateFieldError,
    EvaluationError,
    FieldFormatError,
    LinearSolveError,
    ParameterError,
    ResolutionError,
    SphereqError,
)
from .grid import (
    GridSpec,
    ScalarField,
    eval_on_grid,
    gauss_legendre,
    integrate,
    interp_phi,
    make_grid,
)
from .harmonics import (
    OperatorHandle,
    SpectralCoeffs,
    apply_laplacian,
    harmonic_mode,
    make_operator,
    max_degree,
    sht_forward,
    sht_inverse,
    trivial_branch_eigenvalues,
)
from .problems import (
    EllipticityAudit,
    NonlinearProblem,
    PROBLEM_REGISTRY,
    atan_elliptic,
    chafee_infante,
    ellipticity_audit,
    problem_from_name,
    residual,
)
from .solver import (
    Branch,
    Equilibrium,
    branch_switch,
    continue_branch,
    detect_bifurcations,
    newton_solve,
)
from .symmetry import (
    AuditThresholds,
    AxialExtremumSet,
    MovingArcReport,
    SymmetryReport,
    biradial_field,
    check_reflection,
    detect_axial_extrema,
    moving_arc_sweep,
    theorem_audit,
)
from .fieldio import (
    read_field,
    report_to_dict,
    write_branch_csv,
    write_field,
    write_report_json,
)

__version__ = "0.1.0"
