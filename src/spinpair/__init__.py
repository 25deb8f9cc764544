"""Entanglement of a spin-1/2 / spin-1 pair: measures, exact model, averages.

The package is organized bottom-up:

* ``linalg``   small dense Hermitian kernel (LAPACK eigensolver with a fixed
               eigenvector phase, partial trace, qubit partial transpose,
               trace norm)
* ``states``   the 6-amplitude pure states, Schmidt decomposition, densities
* ``measures`` concurrence vector and scalars, entropies, negativity
* ``model``    the anisotropic Heisenberg pair Hamiltonian and its closed forms
* ``rng``      seeded Philox-backed random streams
* ``haar``     Haar/simplex sampling and Monte Carlo subspace averages
* ``cli``      parameter sweeps to CSV (console script ``spinpair``)
"""

from .haar import (
    McEstimate,
    average_concurrence,
    average_mixture_negativity,
    sample_haar_state,
    sample_haar_states,
    sample_simplex,
    sample_simplices,
)
from .linalg import (
    HermEig,
    eig_hermitian,
    eigvals_hermitian,
    partial_trace,
    partial_transpose_qubit,
    trace_norm,
)
from .measures import (
    binary_entropy,
    concurrence_bilinear,
    concurrence_norm,
    concurrence_vector,
    negativity,
    von_neumann_entropy,
)
from .model import (
    DegenerateGroundError,
    GroundSubspace,
    ModelParams,
    analytic_ground_pair,
    critical_fields,
    critical_ground_quartet,
    critical_mixture_negativity,
    ground_concurrence_field,
    ground_subspace,
    hamiltonian,
    mixture_negativity_closed,
    spectrum,
    superposition_concurrence,
    zero_field_ground_basis,
)
from .rng import RandomStream
from .states import (
    BASIS_TOKENS,
    SchmidtDecomp,
    basis_index,
    basis_state,
    coefficient_matrix,
    density_of_mixture,
    density_of_pure,
    overlap,
    schmidt,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_TOKENS",
    "DegenerateGroundError",
    "GroundSubspace",
    "HermEig",
    "McEstimate",
    "ModelParams",
    "RandomStream",
    "SchmidtDecomp",
    "analytic_ground_pair",
    "average_concurrence",
    "average_mixture_negativity",
    "basis_index",
    "basis_state",
    "binary_entropy",
    "coefficient_matrix",
    "concurrence_bilinear",
    "concurrence_norm",
    "concurrence_vector",
    "critical_fields",
    "critical_ground_quartet",
    "critical_mixture_negativity",
    "density_of_mixture",
    "density_of_pure",
    "eig_hermitian",
    "eigvals_hermitian",
    "ground_concurrence_field",
    "ground_subspace",
    "hamiltonian",
    "mixture_negativity_closed",
    "negativity",
    "overlap",
    "partial_trace",
    "partial_transpose_qubit",
    "sample_haar_state",
    "sample_haar_states",
    "sample_simplex",
    "sample_simplices",
    "schmidt",
    "spectrum",
    "superposition_concurrence",
    "trace_norm",
    "von_neumann_entropy",
    "zero_field_ground_basis",
]
