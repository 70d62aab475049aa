"""Pseudospectral solver and estimate auditor for the Calabi-Yau equation
on the Kodaira-Thurston manifold with S1-invariant data.

The reduced problem is the fully nonlinear elliptic PDE

    (u_xx + 1)(u_yy + u_tt + u_t + 1) - u_xy^2 - u_xt^2 = e^F

on a periodic 3-torus, solved by damped inexact Newton on the full datum,
falling back to a continuity method in tau when that fails, with a
preconditioned Krylov linear solver, then cross-checked against the
4-dimensional wedge-form geometry and the a-priori estimates.
"""

__version__ = "0.1.0"

from .field import (
    AXES,
    GridMismatchError,
    GridSpec,
    ScalarField,
    derivative,
    evaluate,
    gradient,
    integrate,
    mean,
    norms,
    project_mean_zero,
    random_band_limited,
    read_field,
    resample,
    sample,
    write_field,
)
from .geometry import (
    MetricField,
    OneForm,
    ThreeForm,
    TwoForm,
    alpha_from_u,
    check_j_invariance,
    exterior_d,
    exterior_d_two,
    metric_field,
    omega_theta,
    standard_form,
    wedge_ratio,
)
from .pde import (
    EllipticityReport,
    LinearizedCoeffs,
    MeanPreconditioner,
    NonPositiveLHS,
    apply_linearized,
    ellipticity_report,
    is_solution,
    linearize,
    ma_lhs,
    manufacture,
    renormalize,
    residual,
)
from .solver import (
    ContinuationStalled,
    ContinuityTrace,
    EllipticityLost,
    KrylovStalled,
    LineSearchFailed,
    NormalizationError,
    NyquistFloor,
    SolveReport,
    SolverConfig,
    SolverError,
    newton_solve,
    solve,
)
from .estimates import (
    EstimateCheck,
    EstimateReport,
    UniquenessProbe,
    uniqueness_probe,
    verify,
)
from .rotation import (
    RationalAngle,
    RotatedSolveReport,
    base_point_values,
    pullback_datum,
    rotated_grid,
    solve_rotated,
)
from . import cli  # loaded with the package, so ``ktcy.cli.main`` needs no extra import
