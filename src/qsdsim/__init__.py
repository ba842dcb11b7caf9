"""Stochastic quantum-trajectory estimation of Heisenberg-picture matrix
elements and two-time correlations, with a deterministic master-equation
oracle for verification."""

from .correlations import (
    correlate,
    heisenberg_element,
)
from .diffusion import (
    SCHEMES,
    QsdEngine,
    SdeConfig,
    complex_standard_error,
)
from .ensemble import (
    BenchmarkPoint,
    EnsembleError,
    EnsembleResult,
    benchmark_sweep,
    relative_rms_error,
    run_ensemble,
)
from .errors import InstabilityError
from .gisin import (
    DEFAULT_FLOOR,
    VARIANTS,
    GisinResult,
    instability_report,
    run_coupled_ensemble,
)
from .hilbert import (
    Ket,
    LindbladModel,
    Operator,
    basis_ket,
    decay_model,
    drive_hamiltonian,
    driven_decay_model,
    extend_model,
    make_doubled_state,
    sigma_minus,
    sigma_plus,
)
from .jumps import JumpEngine
from .master import (
    DegenerateSteadyStateError,
    DensityMatrix,
    build_liouvillian,
    doubled_block_evolution,
    doubled_matrix_element,
    evolve,
    regression_matrix_element,
    steady_state,
    two_time_correlation,
)
from .noise import NoiseStream

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPoint",
    "DEFAULT_FLOOR",
    "DegenerateSteadyStateError",
    "DensityMatrix",
    "EnsembleError",
    "EnsembleResult",
    "GisinResult",
    "InstabilityError",
    "JumpEngine",
    "Ket",
    "LindbladModel",
    "NoiseStream",
    "Operator",
    "QsdEngine",
    "SCHEMES",
    "SdeConfig",
    "VARIANTS",
    "basis_ket",
    "benchmark_sweep",
    "build_liouvillian",
    "complex_standard_error",
    "correlate",
    "decay_model",
    "doubled_block_evolution",
    "doubled_matrix_element",
    "drive_hamiltonian",
    "driven_decay_model",
    "evolve",
    "extend_model",
    "heisenberg_element",
    "instability_report",
    "make_doubled_state",
    "regression_matrix_element",
    "relative_rms_error",
    "run_coupled_ensemble",
    "run_ensemble",
    "sigma_minus",
    "sigma_plus",
    "steady_state",
    "two_time_correlation",
    "__version__",
]
