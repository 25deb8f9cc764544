"""Pure and mixed states of the qubit-qutrit pair.

A pure state is a plain complex vector of 6 amplitudes a[mu, j] over the
product basis, stored flat with index 3*mu + j:

    0: |uU>   1: |u0>   2: |uD>   3: |dU>   4: |d0>   5: |dD>

where u/d is the qubit (spin-1/2) up/down and U/0/D is the qutrit (spin-1)
projection +1/0/-1.  Global phases are physically irrelevant: compare states
through |<a|b>|, never componentwise.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import PAIR_DIM, QUBIT_DIM, QUTRIT_DIM

NORM_ATOL = 1e-12
WEIGHT_SUM_ATOL = 1e-12

BASIS_TOKENS = ("uU", "u0", "uD", "dU", "d0", "dD")
_TOKEN_INDEX = {tok: i for i, tok in enumerate(BASIS_TOKENS)}


def flat_index(mu: int, j: int) -> int:
    """Flat basis index of qubit level mu in {0, 1} and qutrit level j in {0, 1, 2}."""
    if mu not in (0, 1) or j not in (0, 1, 2):
        raise ValueError(f"invalid levels mu={mu}, j={j}")
    return QUTRIT_DIM * mu + j


def basis_index(token: str) -> int:
    """Flat index of a basis token such as 'uU' or 'd0'."""
    try:
        return _TOKEN_INDEX[token]
    except KeyError:
        raise ValueError(f"unknown basis token {token!r}; expected one of {BASIS_TOKENS}") from None


def basis_state(token: str) -> np.ndarray:
    """The product basis vector named by a token such as 'uU' or 'd0'."""
    psi = np.zeros(PAIR_DIM, dtype=complex)
    psi[basis_index(token)] = 1.0
    return psi


def require_normalized(psi, atol: float = NORM_ATOL) -> np.ndarray:
    """Validate unit norm along the last axis; accepts a single state or a stack."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != PAIR_DIM:
        raise ValueError(f"expected {PAIR_DIM} amplitudes, got shape {psi.shape}")
    dev = np.abs((np.abs(psi) ** 2).sum(axis=-1) - 1.0).max()
    if not dev <= atol:
        raise ValueError(f"state norm differs from 1 by {dev}")
    return psi


def coefficient_matrix(psi) -> np.ndarray:
    """The 2x3 coefficient matrix a[mu, j] of a pure state (stacks allowed)."""
    psi = np.asarray(psi, dtype=complex)
    return psi.reshape(psi.shape[:-1] + (QUBIT_DIM, QUTRIT_DIM))


def overlap(a, b) -> float:
    """|<a|b>|, the phase-insensitive overlap of two pure states."""
    return float(abs(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))))


class SchmidtDecomp(NamedTuple):
    """Schmidt form psi = kappa[0] |left[:,0]>|right[:,0]> + kappa[1] |left[:,1]>|right[:,1]>.

    kappa is descending and nonnegative with kappa[0]^2 + kappa[1]^2 = 1; the
    columns of left (qubit side, 2x2) and right (qutrit side, 3x2) are
    orthonormal.  A 2x3 pure state never has Schmidt rank above 2.
    """

    kappa: np.ndarray
    left: np.ndarray
    right: np.ndarray


def schmidt(psi) -> SchmidtDecomp:
    """Schmidt decomposition via the 2x2 qubit reduced density a a^dagger."""
    psi = require_normalized(psi)
    if psi.ndim != 1:
        raise ValueError("schmidt takes a single state")
    a = coefficient_matrix(psi)
    rho_a = a @ a.conj().T
    eig = linalg.eig_hermitian(rho_a)
    k2 = np.clip(eig.values[::-1], 0.0, None)  # descending, rounding floor at 0
    kappa = np.sqrt(k2)
    left = eig.vectors[:, ::-1]

    right = np.zeros((QUTRIT_DIM, 2), dtype=complex)
    for i in range(2):
        if kappa[i] > 1e-8:
            right[:, i] = (a.T @ left[:, i].conj()) / kappa[i]
        else:
            # Schmidt weight is zero: complete with any unit vector orthogonal
            # to the first factor.
            y0 = right[:, 0]
            cand = np.eye(QUTRIT_DIM, dtype=complex)
            resid = cand - np.outer(y0, y0.conj() @ cand)
            pick = np.linalg.norm(resid, axis=0).argmax()
            right[:, i] = resid[:, pick] / np.linalg.norm(resid[:, pick])
    return SchmidtDecomp(kappa, left, right)


def density_of_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| as a 6x6 matrix."""
    psi = require_normalized(psi)
    if psi.ndim != 1:
        raise ValueError("density_of_pure takes a single state")
    return np.outer(psi, psi.conj())


def require_weights(weights) -> np.ndarray:
    """Validate mixture weights indexed by axis 0 (further axes are a batch).

    Weights must be nonnegative and sum to 1 within 1e-12; a violation is a
    hard error rather than a silent renormalization.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("mixture weights must be nonnegative")
    total = w.sum(axis=0)
    worst = np.ravel(total)[np.abs(total - 1.0).argmax()]
    if not abs(worst - 1.0) <= WEIGHT_SUM_ATOL:
        raise ValueError(f"mixture weights sum to {worst!r}, not 1")
    return w


def density_of_mixture(weights, states: Sequence) -> np.ndarray:
    """Convex combination sum_i w_i |psi_i><psi_i| (weights as in ``require_weights``)."""
    w = np.asarray(weights, dtype=float)
    st = np.asarray([np.asarray(s, dtype=complex) for s in states])
    if w.ndim != 1 or w.shape[0] != st.shape[0]:
        raise ValueError(f"{w.shape[0] if w.ndim == 1 else w.shape} weights for {st.shape[0]} states")
    w = require_weights(w)
    st = require_normalized(st)
    return np.einsum("w,wi,wj->ij", w, st, st.conj())
