"""Exact reduced dynamics of a harmonic oscillator coupled to a single
inverted-oscillator environment.

The package computes the exact reduced Gaussian evolution, extracts the
time-dependent master-equation coefficients of the reduced system, and
provides entropy/energy/decoherence analysis plus a deterministic CLI.
"""

from .analysis import (
    DomainError,
    WindowTooShort,
    approx_D,
    approx_f1,
    critical_time_derived,
    critical_time_paper,
    decoherence_time,
    find_divergences,
    fit_entropy_line,
    fit_entropy_log,
    kappa_default,
)
from .coefficients import (
    EnvVariance,
    MECoefficients,
    UnsupportedRegime,
    coeffs_closed,
    coeffs_general,
    contract,
    env_variance_from_cov,
)
from .evolution import (
    GridMismatch,
    IntegratorOptions,
    MOMENT_NAMES,
    StepFailure,
    Trajectory,
    TrajectoryComparison,
    compare_trajectories,
    env_state_from_variance,
    run_exact,
    run_me,
)
from .gaussian import (
    Diagnostics,
    GaussianState,
    NonPhysical,
    SqueezeSpec,
    area_ratio,
    diagnostics,
    diagnostics_from_area,
    energy,
    entropy_approx,
    entropy_exact,
    linear_entropy,
    product_state,
    propagate,
    purity,
    reduce_system,
    squeezed_pure,
)
from .modes import (
    NormalModes,
    SupersystemParams,
    derive_modes,
    gkernels,
    params_from_modes,
)
from .propagator import (
    ModeFunctions,
    SYMPLECTIC_FORM,
    cross_block,
    det_m1,
    dtilde,
    full_transition,
    mode_blocks,
    mode_functions,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # modes
    "SupersystemParams",
    "NormalModes",
    "derive_modes",
    "params_from_modes",
    "gkernels",
    # propagator
    "ModeFunctions",
    "mode_functions",
    "full_transition",
    "dtilde",
    "det_m1",
    "mode_blocks",
    "cross_block",
    "SYMPLECTIC_FORM",
    # coefficients
    "UnsupportedRegime",
    "EnvVariance",
    "MECoefficients",
    "coeffs_general",
    "coeffs_closed",
    "contract",
    "env_variance_from_cov",
    # gaussian
    "NonPhysical",
    "SqueezeSpec",
    "GaussianState",
    "Diagnostics",
    "squeezed_pure",
    "product_state",
    "propagate",
    "reduce_system",
    "area_ratio",
    "entropy_exact",
    "entropy_approx",
    "linear_entropy",
    "purity",
    "energy",
    "diagnostics",
    "diagnostics_from_area",
    # evolution
    "StepFailure",
    "GridMismatch",
    "IntegratorOptions",
    "MOMENT_NAMES",
    "Trajectory",
    "TrajectoryComparison",
    "run_exact",
    "run_me",
    "compare_trajectories",
    "env_state_from_variance",
    # analysis
    "DomainError",
    "WindowTooShort",
    "critical_time_paper",
    "critical_time_derived",
    "find_divergences",
    "approx_D",
    "approx_f1",
    "fit_entropy_line",
    "fit_entropy_log",
    "decoherence_time",
    "kappa_default",
]
