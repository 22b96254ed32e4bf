"""Exact reduced dynamics of a harmonic oscillator coupled to a single
inverted-oscillator environment.

The package computes the exact reduced Gaussian evolution, extracts the
time-dependent master-equation coefficients of the reduced system, and
provides entropy/energy/decoherence analysis plus a deterministic CLI.
Every run starts from a system and an environment ``GaussianState``
(``squeezed_pure`` builds one from a ``SqueezeSpec`` and a mean);
``run_exact`` and ``run_me`` take the same states.  ``dtilde``,
``coeffs_general`` and ``contract`` bind the constants of a run once and
return the function the root search and the master equation call; the
coefficients depend on the modes and the time alone.  Every name
exported here is used by the program itself; the independent references
the tests check it against, among them a second closed form of the
coefficients, live in the tests.
"""

from .analysis import (
    critical_time_derived,
    find_divergences,
    fit_entropy_line,
)
from .coefficients import coeffs_general, contract
from .evolution import (
    Trajectory,
    moment_deviation,
    run_exact,
    run_me,
)
from .gaussian import (
    Diagnostics,
    GaussianState,
    SqueezeSpec,
    diagnostics_from_area,
    squeezed_pure,
)
from .modes import (
    NormalModes,
    SupersystemParams,
    derive_modes,
    gkernels,
    params_from_modes,
)
from .propagator import dtilde, system_rows

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
    "dtilde",
    "system_rows",
    # coefficients
    "coeffs_general",
    "contract",
    # gaussian
    "SqueezeSpec",
    "GaussianState",
    "Diagnostics",
    "squeezed_pure",
    "diagnostics_from_area",
    # evolution
    "Trajectory",
    "run_exact",
    "run_me",
    "moment_deviation",
    # analysis
    "critical_time_derived",
    "find_divergences",
    "fit_entropy_line",
]
