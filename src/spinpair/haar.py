"""Haar sampling over degenerate ground subspaces and Monte Carlo averages.

A state of a k-dimensional subspace is drawn by giving each basis vector an
independent complex Gaussian coefficient and normalizing; the coefficient
vector is then uniform on the unit sphere S^{2k-1} and the induced state
distribution is invariant under unitary rotations of the subspace, so every
estimate below is a property of the subspace, not of the basis chosen for it.

Mixing weights are drawn from the flat Dirichlet distribution (normalized
unit-rate exponentials), the uniform measure on the probability simplex.

Estimators consume fixed-size chunks, one substream per chunk index, and
combine the partial sums in chunk order: results are bit-for-bit reproducible
for a given (seed, stream_id, n) regardless of how chunks would be scheduled
across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures, model, rng, states

CHUNK = 1 << 16
MIN_SAMPLES = 100
ORTHO_ATOL = 1e-10


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error (sample sd / sqrt(n))."""

    mean: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"an estimate needs n >= 2 samples, got {self.n}")
        if not self.stderr >= 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")


def require_orthonormal_basis(basis) -> np.ndarray:
    """Validate and stack a sequence of pairwise orthonormal states as rows."""
    b = np.asarray([np.asarray(v, dtype=complex) for v in basis])
    if b.ndim != 2 or b.shape[0] < 1:
        raise ValueError("basis must be a nonempty sequence of states")
    states.require_normalized(b)
    gram = b @ b.conj().T
    dev = np.abs(gram - np.eye(b.shape[0])).max()
    if not dev <= ORTHO_ATOL:
        raise ValueError(f"basis is not orthonormal (Gram deviation {dev})")
    return b


def _chunk_sizes(n: int):
    for index, start in enumerate(range(0, n, CHUNK)):
        yield index, min(CHUNK, n - start)


def _haar_coefficients(bg, m: int, k: int) -> np.ndarray:
    z = rng.standard_normals(bg, 2 * m * k)
    c = (z[0::2] + 1j * z[1::2]).reshape(m, k)
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def sample_haar_states(basis, n: int, stream: rng.RandomStream) -> np.ndarray:
    """n Haar-random states of span(basis), shape (n, 6)."""
    b = require_orthonormal_basis(basis)
    out = np.empty((n, b.shape[1]), dtype=complex)
    pos = 0
    for index, m in _chunk_sizes(n):
        c = _haar_coefficients(stream.substream(index), m, b.shape[0])
        out[pos:pos + m] = c @ b
        pos += m
    return out


def sample_haar_state(basis, stream: rng.RandomStream) -> np.ndarray:
    """One Haar-random state of span(basis)."""
    return sample_haar_states(basis, 1, stream)[0]


def sample_simplices(k: int, n: int, stream: rng.RandomStream) -> np.ndarray:
    """n weight vectors uniform on the (k-1)-simplex, shape (n, k)."""
    if k < 1:
        raise ValueError(f"simplex dimension k must be >= 1, got {k}")
    out = np.empty((n, k), dtype=float)
    pos = 0
    for index, m in _chunk_sizes(n):
        e = rng.exponentials(stream.substream(index), m * k).reshape(m, k)
        out[pos:pos + m] = e / e.sum(axis=1, keepdims=True)
        pos += m
    return out


def sample_simplex(k: int, stream: rng.RandomStream) -> np.ndarray:
    """One weight vector uniform on the (k-1)-simplex."""
    return sample_simplices(k, 1, stream)[0]


def _estimate(values_per_chunk, n: int, seed: int) -> McEstimate:
    total = 0.0
    total_sq = 0.0
    for vals in values_per_chunk:
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(mean=mean, stderr=float(np.sqrt(var / n)), n=n, seed=seed)


def _require_samples(n: int) -> int:
    n = int(n)
    if n < MIN_SAMPLES:
        raise ValueError(f"Monte Carlo estimates need n >= {MIN_SAMPLES}, got {n}")
    return n


def average_concurrence(basis, n: int, stream: rng.RandomStream) -> McEstimate:
    """Subspace-averaged concurrence over Haar-random states of span(basis).

    The averaged scalar is measures.concurrence_bilinear, whose component
    interference is what makes the average drop discontinuously at the
    fourfold-degenerate critical point.
    """
    b = require_orthonormal_basis(basis)
    n = _require_samples(n)

    def chunks():
        for index, m in _chunk_sizes(n):
            c = _haar_coefficients(stream.substream(index), m, b.shape[0])
            yield measures.concurrence_bilinear(c @ b)

    return _estimate(chunks(), n, stream.seed)


def average_mixture_negativity(delta: float, n: int, stream: rng.RandomStream) -> McEstimate:
    """Average negativity of random mixtures of the zero-field ground states.

    Delta > -1: mixtures p psi1 + (1-p) psi2 with p uniform on [0, 1],
    evaluated through the closed form.  Delta = -1: flat-Dirichlet mixtures
    of the fourfold ground basis, evaluated through their 2x2-block closed
    form.  Delta < -1: mixtures of the product doublet are unentangled, so
    the average is exactly zero.
    """
    delta = float(delta)
    n = _require_samples(n)
    if delta < -1.0:
        return McEstimate(mean=0.0, stderr=0.0, n=n, seed=stream.seed)

    if delta == -1.0:
        def chunks():
            for index, m in _chunk_sizes(n):
                e = rng.exponentials(stream.substream(index), m * 4).reshape(m, 4)
                w = e / e.sum(axis=1, keepdims=True)
                yield model.critical_mixture_negativity(*w.T)

        return _estimate(chunks(), n, stream.seed)

    def chunks():
        for index, m in _chunk_sizes(n):
            p = rng.uniforms(stream.substream(index), m)
            yield model.mixture_negativity_closed(p, delta)

    return _estimate(chunks(), n, stream.seed)
