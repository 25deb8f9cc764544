"""Dense Hermitian linear algebra for the qubit-qutrit (2x3) Hilbert space.

Everything in this module is sized for matrices no larger than 8x8.  The
eigensolvers validate Hermiticity, symmetrize away rounding asymmetry and
hand the matrix to LAPACK (``numpy.linalg.eigh``/``eigvalsh``, which also
take stacks).  Eigenvectors get a fixed phase convention (see ``HermEig``),
so a decomposition is reproducible for a given input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

QUBIT_DIM = 2
QUTRIT_DIM = 3
PAIR_DIM = QUBIT_DIM * QUTRIT_DIM

HERMITICITY_ATOL = 1e-12
DENSITY_TRACE_ATOL = 1e-12

_MAX_DIM = 8


class HermEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    values: real eigenvalues, ascending.
    vectors: unit-norm eigenvectors in the matching columns; the phase is
        fixed so that each vector's first largest-modulus component is real
        and nonnegative.  Within a degenerate eigenvalue cluster the basis is
        an arbitrary orthonormal one: compare subspaces by projector.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_square(m, max_dim: int = _MAX_DIM) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > max_dim:
        raise ValueError(f"matrix dimension {m.shape[-1]} exceeds the supported {max_dim}")
    return m


def require_hermitian(m, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate M = M^dagger within ``atol`` elementwise; returns the array."""
    m = _as_square(m)
    dev = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max()
    if not dev <= atol:  # NaN-safe: NaN must fail, not pass
        raise ValueError(f"matrix is not Hermitian within {atol} (deviation {dev})")
    return m


def _hermitian_part(m) -> np.ndarray:
    """Validate Hermiticity, then remove the rounding asymmetry: (M + M^dagger) / 2."""
    m = require_hermitian(m)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the first largest-modulus component of each unit column real nonnegative."""
    pivot = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return vectors * np.conj(pivot / np.abs(pivot))


def eig_hermitian(m) -> HermEig:
    """Full eigendecomposition of a single Hermitian matrix (n <= 8).

    Raises ValueError on non-Hermitian input.
    """
    m = _hermitian_part(m)
    if m.ndim != 2:
        raise ValueError("eig_hermitian takes a single matrix; use eigvals_hermitian for stacks")
    values, vectors = np.linalg.eigh(m)
    return HermEig(values, _fix_phases(vectors))


def eigvals_hermitian(ms) -> np.ndarray:
    """Ascending eigenvalues of one Hermitian matrix or a stack of them.

    Input shape (..., n, n) gives output shape (..., n).
    """
    return np.linalg.eigvalsh(_hermitian_part(ms))


def require_pair_density(rho, trace_atol: float = DENSITY_TRACE_ATOL) -> np.ndarray:
    """Validate a 6x6 matrix with unit trace (Hermiticity checked separately)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (PAIR_DIM, PAIR_DIM):
        raise ValueError(f"expected a {PAIR_DIM}x{PAIR_DIM} matrix, got shape {rho.shape}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0).max()
    if not dev <= trace_atol:
        raise ValueError(f"trace differs from 1 by {dev}")
    return rho


def partial_trace(rho, part: str) -> np.ndarray:
    """Trace out one subsystem of a 6x6 pair density matrix.

    part="A" removes the qubit and returns the 3x3 qutrit state;
    part="B" removes the qutrit and returns the 2x2 qubit state.
    """
    rho = require_pair_density(rho)
    if rho.ndim != 2:
        raise ValueError("partial_trace takes a single 6x6 matrix")
    r = rho.reshape(QUBIT_DIM, QUTRIT_DIM, QUBIT_DIM, QUTRIT_DIM)
    if part == "A":
        return np.einsum("mjmk->jk", r)
    if part == "B":
        return np.einsum("mjnj->mn", r)
    raise ValueError(f"part must be 'A' or 'B', got {part!r}")


def partial_transpose_qubit(rho) -> np.ndarray:
    """Transpose the qubit indices of a 6x6 matrix (or a stack of them).

    In 2x2 block form (3x3 blocks, qubit index outer) this swaps the two
    off-diagonal blocks; it is linear, trace-preserving, Hermiticity
    preserving, and an involution.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (PAIR_DIM, PAIR_DIM):
        raise ValueError(f"expected a {PAIR_DIM}x{PAIR_DIM} matrix, got shape {rho.shape}")
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (QUBIT_DIM, QUTRIT_DIM, QUBIT_DIM, QUTRIT_DIM))
    r = np.swapaxes(r, -4, -2)
    return r.reshape(lead + (PAIR_DIM, PAIR_DIM))


def trace_norm(m):
    """Sum of absolute eigenvalues of a Hermitian matrix (or stack).

    Equals tr sqrt(M^dagger M) for Hermitian M and is at least |tr M|.
    Returns a float for a single matrix, an array for a stack.
    """
    vals = eigvals_hermitian(m)
    out = np.abs(vals).sum(axis=-1)
    return float(out) if out.ndim == 0 else out
