"""Exact reduced dynamics of a harmonic oscillator coupled to a single
inverted-oscillator environment.

The package computes the exact reduced Gaussian evolution, extracts the
time-dependent master-equation coefficients of the reduced system, and
provides entropy/energy/decoherence analysis plus a deterministic CLI.
Every run starts from a system and an environment ``GaussianState``
(``squeezed_pure`` builds one from a ``SqueezeSpec`` and a mean);
``run_exact``, ``run_me`` and the coefficient functions take the same
states.
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
    MECoefficients,
    UnsupportedRegime,
    coeffs_closed,
    coeffs_general,
    contract,
)
from .evolution import (
    GridMismatch,
    IntegratorOptions,
    MOMENT_NAMES,
    StepFailure,
    Trajectory,
    TrajectoryComparison,
    compare_trajectories,
    run_exact,
    run_me,
)
from .gaussian import (
    Diagnostics,
    GaussianState,
    NonPhysical,
    SqueezeSpec,
    diagnostics_from_area,
    energy,
    entropy_approx,
    entropy_exact,
    linear_entropy,
    purity,
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
    cross_block,
    det_m1,
    dtilde,
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
    "dtilde",
    "det_m1",
    "mode_blocks",
    "cross_block",
    # coefficients
    "UnsupportedRegime",
    "MECoefficients",
    "coeffs_general",
    "coeffs_closed",
    "contract",
    # gaussian
    "NonPhysical",
    "SqueezeSpec",
    "GaussianState",
    "Diagnostics",
    "squeezed_pure",
    "entropy_exact",
    "entropy_approx",
    "linear_entropy",
    "purity",
    "energy",
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
