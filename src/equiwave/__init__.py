"""equiwave: numerical toolkit for equivariant wave maps on
rotationally symmetric manifolds.

The pipeline runs in five stages: verify that a metric profile is
admissible, reduce the geometric equation to a radial semilinear wave
equation on a higher dimensional flat space, build the discrete radial
operator and its functional calculus, monitor the dispersive estimates
(Hardy, smoothing, Strichartz, dimension shift), and finally integrate
the nonlinear flow and cross-check the two formulations.

Set EQUIWAVE_THREADS to cap the BLAS thread pool.  BLAS reads its
thread variables when numpy loads, so the cap is applied here, before
any submodule imports numpy; an explicit OPENBLAS_NUM_THREADS (or
OMP_NUM_THREADS, MKL_NUM_THREADS) still wins.
"""

import os


def _apply_thread_cap():
    cap = os.environ.get("EQUIWAVE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_apply_thread_cap()

# every submodule import follows the thread cap
from .admissibility import (
    AdmissibilityReport,
    check_admissibility,
    check_perturbation,
    compute_H,
    compute_P,
    estimate_h_infinity,
)
from .errors import (
    BlowUp,
    CFLViolation,
    ClosedFormMismatch,
    DimensionError,
    DomainError,
    EquiwaveError,
    InconsistentFormulas,
    ModeMismatch,
    NegativeEigenvalue,
    NoLimit,
    NotAdmissible,
    ScenarioError,
    TruncationTooSmall,
)
from .estimates import (
    dimshift_check,
    gaussian_family,
    hardy_check,
    hardy_probe_family,
    smoothing_check,
    strichartz_monitor,
    validate_wave_pair,
)
from .jets import Jet
from .profiles import (
    MetricProfile,
    TargetProfile,
    check_normalization,
    metric_profile,
    parse_expr,
    target_profile,
)
from .reduction import compute_V, indices, weight_w
from .scenario import Scenario, load_scenario
from .solver import (
    Trajectory,
    WaveState,
    consistency_check,
    integrate,
)
from .spectral import (
    DiscreteRadialOperator,
    RadialGrid,
    build_operator,
    frac_norm,
    resolve,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BlowUp",
    "CFLViolation",
    "ClosedFormMismatch",
    "DimensionError",
    "DomainError",
    "DiscreteRadialOperator",
    "EquiwaveError",
    "InconsistentFormulas",
    "Jet",
    "MetricProfile",
    "ModeMismatch",
    "NegativeEigenvalue",
    "NoLimit",
    "NotAdmissible",
    "RadialGrid",
    "Scenario",
    "ScenarioError",
    "TargetProfile",
    "Trajectory",
    "TruncationTooSmall",
    "WaveState",
    "build_operator",
    "check_admissibility",
    "check_normalization",
    "check_perturbation",
    "compute_H",
    "compute_P",
    "compute_V",
    "consistency_check",
    "dimshift_check",
    "estimate_h_infinity",
    "frac_norm",
    "gaussian_family",
    "hardy_check",
    "hardy_probe_family",
    "indices",
    "integrate",
    "load_scenario",
    "metric_profile",
    "parse_expr",
    "resolve",
    "smoothing_check",
    "strichartz_monitor",
    "target_profile",
    "validate_wave_pair",
    "weight_w",
]
