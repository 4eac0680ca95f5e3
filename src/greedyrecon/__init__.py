"""Greedy optimal-input design and identification of unknown nonlinearities
in coupled two-component semilinear elliptic systems."""

import os as _os

# One BLAS thread unless the caller sets another count: the solvers work on
# arrays of at most a few hundred kilobytes, where a second OpenBLAS thread
# spins without shortening wall time.  The pool is sized when numpy is first
# imported, so this has no effect in a process that imported numpy before.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")


def _keep_freed_arrays_in_heap() -> None:
    """Raise glibc's mmap and trim thresholds to 32 and 64 MiB.

    Below the mmap threshold an array comes from the process heap, and the
    heap gives freed memory back to the kernel only above the trim
    threshold.  With glibc's defaults the solvers' stack temporaries are
    mapped fresh, zero-filled by the kernel page by page and unmapped on
    free, over and over.  A threshold set in the environment wins, as for
    the BLAS pool; where ``mallopt`` does not exist nothing changes.
    """
    if "MALLOC_MMAP_THRESHOLD_" in _os.environ or "MALLOC_TRIM_THRESHOLD_" in _os.environ:
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_arrays_in_heap()

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
