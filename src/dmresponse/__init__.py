"""dmresponse: density-matrix ground states, linear responses, and observable
susceptibilities via recursive spectral-projection expansions.

Dense, sparse-thresholded, finite-temperature, self-consistent,
non-orthogonal, and emulated-mixed-precision variants, each cross-checked
against eigenbasis and finite-difference oracles.
"""

from .exceptions import ConvergenceError
from .linalg import (
    EigenDecomposition,
    SpectralBounds,
    congruence_transform,
    gershgorin_bounds,
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetric_matrix,
    symmetrize,
    trace_product,
)
from .mixedprec import (
    MixedPipelineResult,
    SplitMatrix,
    mixed_response_pipeline,
    single_precision_pipeline,
    split,
)
from .mmio import MatrixMarketError, read_matrix_market, write_matrix_market
from .models import ModelSpec, generate_model
from .oracles import (
    binary16_reference_bits,
    finite_difference_response,
    projector_derivative_exact,
)
from .response import (
    dm_perturbation_forward,
    observable_position_derivative,
    orthogonal_hamiltonian_derivative,
    susceptibility_backward,
    susceptibility_forward,
    z_position_derivative,
)
from .scf import (
    BilinearKernel,
    DiagonalHubbardKernel,
    ScfConfig,
    ScfResponse,
    ScfState,
    ZeroKernel,
    apply_kernel,
    scf_dm_response,
    scf_ground_state,
    scf_response,
    scf_susceptibility,
)
from .sp2 import Sp2Trace, sp2_ground_state
from .sparse import SparseMatrix, sparsify
from .thermal import (
    canonical_dm_response,
    canonical_susceptibility,
    fermi_function,
    fermi_matrix_and_mu,
    loewner_matrix,
    trace_neutral_derivative,
)

__all__ = [
    "ConvergenceError",
    "EigenDecomposition",
    "SpectralBounds",
    "congruence_transform",
    "gershgorin_bounds",
    "inverse_sqrt_factor",
    "sym_eigendecompose",
    "symmetric_matrix",
    "symmetrize",
    "trace_product",
    "MixedPipelineResult",
    "SplitMatrix",
    "mixed_response_pipeline",
    "single_precision_pipeline",
    "split",
    "MatrixMarketError",
    "read_matrix_market",
    "write_matrix_market",
    "ModelSpec",
    "generate_model",
    "binary16_reference_bits",
    "finite_difference_response",
    "projector_derivative_exact",
    "dm_perturbation_forward",
    "observable_position_derivative",
    "orthogonal_hamiltonian_derivative",
    "susceptibility_backward",
    "susceptibility_forward",
    "z_position_derivative",
    "BilinearKernel",
    "DiagonalHubbardKernel",
    "ScfConfig",
    "ScfResponse",
    "ScfState",
    "ZeroKernel",
    "apply_kernel",
    "scf_dm_response",
    "scf_ground_state",
    "scf_response",
    "scf_susceptibility",
    "Sp2Trace",
    "sp2_ground_state",
    "SparseMatrix",
    "sparsify",
    "canonical_dm_response",
    "canonical_susceptibility",
    "fermi_function",
    "fermi_matrix_and_mu",
    "loewner_matrix",
    "trace_neutral_derivative",
]

__version__ = "0.1.0"
