"""Greedy optimal-input design and identification of unknown nonlinearities
in coupled two-component semilinear elliptic systems."""

import os as _os

# One BLAS thread unless the caller sets another count: the solvers work on
# arrays of at most a few hundred kilobytes, where a second OpenBLAS thread
# spins without shortening wall time.  The pool is sized when numpy is first
# imported, so this has no effect in a process that imported numpy before.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .exceptions import GreedyFailure, NumericalError
from .forward import FixedPointConfig, SolveReport, solve_adjoint, solve_semilinear
from .greedy import GreedyConfig, GreedyRun, run_greedy
from .grid import Grid, NegLaplacian, h1_norm, inner_l2, l2_norm, laplace_norm
from .nonlinearity import (
    BasisCombo,
    ClosedForm,
    MonomialBasis,
    Nonlinearity,
    taylor_coeffs,
    unit_combo,
)
from .objectives import (
    ControlBox,
    DiscriminationObjective,
    FittingObjective,
    IdentificationObjective,
    SolverContext,
    control_to_vec,
    project_box,
    vec_to_control,
)
from .optimize import OptimConfig, OptimResult, minimize_box
from .analysis import (
    ErrorField,
    LandscapeScan,
    SolutionSet,
    StabilityStats,
    collinearity,
    constructed_control,
    error_field,
    error_values,
    generate_data,
    identify,
    landscape_scan,
    random_constant_controls,
    slice_hessian,
    solution_sets,
    stability_probe,
    taylor_error_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
