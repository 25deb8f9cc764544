"""Reference values the benchmark checks spinpair's outputs against.

Nothing here imports spinpair.  Every oracle is built from the physics in the
benchmark's own code, so an error in the package cannot hide in its own check:

* ``block_hamiltonians`` / ``block_spectra``: the 6x6 Hamiltonian written
  directly in its conserved-S_z blocks (two 1x1, two 2x2), with closed-form
  eigenvalues; eigenvectors come from LAPACK (``numpy.linalg.eigh``).
* ``doublet_moments``: mean and standard deviation of the bilinear
  concurrence over Haar-random states of a two-dimensional subspace, by
  deterministic quadrature instead of sampling.
* ``QUARTET_CONCURRENCE`` / ``QUARTET_NEGATIVITY``: the two averages that
  live on the fourfold Delta = -1 ground space, where quadrature is
  impractical.  They were recorded from an independent Monte Carlo written
  here (numpy's PCG64 generator, LAPACK eigenvalues), on a seed the
  workloads never use.  Rerun ``python3 perfbench/oracles.py`` to reproduce.

Basis order is (uU, u0, uD, dU, d0, dD): qubit u/d outer, qutrit U/0/D inner.
"""

from __future__ import annotations

import numpy as np

SQRT_HALF = np.sqrt(0.5)

# mean, standard deviation, sample count of the recorded reference runs
QUARTET_CONCURRENCE = (0.6401603896712348, 0.1795478966070614, 10_000_000)
QUARTET_NEGATIVITY = (0.07671594183829145, 0.09014587285184966, 4_000_000)
REFERENCE_SEED = 0x5EED_0F_0AC1E

# Monte Carlo means must lie within this many combined standard errors
MC_SIGMAS = 5.0


def block_hamiltonians(delta, b) -> np.ndarray:
    """H(Delta, B) at J = 1 for arrays of points, shape (..., 6, 6), real."""
    delta, b = np.broadcast_arrays(np.asarray(delta, float), np.asarray(b, float))
    h = np.zeros(delta.shape + (6, 6))
    h[..., 0, 0] = delta / 2 + 1.5 * b   # uU
    h[..., 5, 5] = delta / 2 - 1.5 * b   # dD
    h[..., 1, 1] = b / 2                 # u0
    h[..., 3, 3] = -delta / 2 + b / 2    # dU
    h[..., 2, 2] = -delta / 2 - b / 2    # uD
    h[..., 4, 4] = -b / 2                # d0
    for i, j in ((1, 3), (2, 4)):
        h[..., i, j] = h[..., j, i] = SQRT_HALF
    return h


def block_spectra(delta, b) -> np.ndarray:
    """Ascending closed-form eigenvalues of H(Delta, B), shape (..., 6)."""
    delta, b = np.broadcast_arrays(np.asarray(delta, float), np.asarray(b, float))
    root = np.sqrt(delta * delta / 16 + 0.5)
    vals = np.stack([
        delta / 2 + 1.5 * b,
        delta / 2 - 1.5 * b,
        b / 2 - delta / 4 - root,
        b / 2 - delta / 4 + root,
        -b / 2 - delta / 4 - root,
        -b / 2 - delta / 4 + root,
    ], axis=-1)
    return np.sort(vals, axis=-1)


def degeneracy(values: np.ndarray, b) -> np.ndarray:
    """Ground multiplicity under spinpair's documented 1e-9 * max(1, |J|, |B|) rule."""
    tol = 1e-9 * np.maximum(1.0, np.abs(b))
    return (values <= values[..., :1] + np.asarray(tol)[..., None]).sum(axis=-1)


def ground_spaces(delta, b):
    """(degeneracy, ground basis as rows) at each point, via LAPACK eigh."""
    values, vectors = np.linalg.eigh(block_hamiltonians(delta, b))
    deg = degeneracy(values, b)
    return deg, [vectors[i, :, :deg[i]].T for i in range(len(deg))]


def concurrence_components(psi: np.ndarray) -> np.ndarray:
    """Twice the 2x2 minors of the conjugated 2x3 coefficient matrix."""
    a = np.conj(psi).reshape(psi.shape[:-1] + (2, 3))
    return 2.0 * np.stack([a[..., 0, i] * a[..., 1, j] - a[..., 0, j] * a[..., 1, i]
                           for i, j in ((0, 1), (1, 2), (0, 2))], axis=-1)


def concurrence_norm(psi) -> np.ndarray:
    c = concurrence_components(np.asarray(psi, complex))
    return np.sqrt((np.abs(c) ** 2).sum(axis=-1))


def concurrence_bilinear(psi) -> np.ndarray:
    c = concurrence_components(np.asarray(psi, complex))
    return np.sqrt(np.abs((c * c).sum(axis=-1)))


def doublet_moments(basis, n_theta: int = 256, n_phi: int = 128) -> tuple[float, float]:
    """Haar mean and sd of the bilinear concurrence over span(v1, v2).

    A Haar state is cos(t) v1 + sin(t) e^{i phi} v2 up to a global phase,
    with cos^2 t uniform on [0, 1] and phi uniform: midpoint rule in
    (t, phi) with weight sin(2t).
    """
    v1, v2 = (np.asarray(v, complex) for v in basis)
    t = (np.arange(n_theta) + 0.5) * (np.pi / 2 / n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
    psi = (np.cos(t)[:, None, None] * v1
           + (np.sin(t)[:, None] * np.exp(1j * phi))[:, :, None] * v2)
    f = concurrence_bilinear(psi)
    w = np.sin(2 * t)[:, None] * (np.pi / 2 / n_theta) / n_phi
    mean = float((w * f).sum())
    second = float((w * f * f).sum())
    return mean, float(np.sqrt(max(second - mean * mean, 0.0)))


def quartet_basis() -> np.ndarray:
    """(|dD>, |uU>, phi1, phi2): the Delta = -1 ground quartet, as rows."""
    q = np.zeros((4, 6))
    q[0, 5] = q[1, 0] = 1.0
    q[2, 4], q[2, 2] = np.sqrt(2 / 3), -np.sqrt(1 / 3)   # phi1 on d0, uD
    q[3, 3], q[3, 1] = np.sqrt(1 / 3), -np.sqrt(2 / 3)   # phi2 on dU, u0
    return q


def concurrence_reference(basis) -> tuple[float, float, int | None]:
    """(mean, sd, reference sample count or None if exact) over span(basis)."""
    k = len(basis)
    if k == 2:
        return doublet_moments(basis) + (None,)
    if k == 4:
        return QUARTET_CONCURRENCE
    raise ValueError(f"no concurrence reference for a {k}-dimensional subspace")


def check_estimate(mean: float, stderr: float, n: int, ref_mean: float, ref_sd: float,
                   ref_n: int | None = None) -> str | None:
    """None if an MC estimate agrees with the reference, else the reason."""
    expected_se = ref_sd / np.sqrt(n)
    ref_se = ref_sd / np.sqrt(ref_n) if ref_n else 0.0
    tol = MC_SIGMAS * np.hypot(expected_se, ref_se) + 1e-9
    if not abs(mean - ref_mean) <= tol:
        return f"mean {mean!r} differs from reference {ref_mean!r} by more than {tol:.3g}"
    # the sample sd of n draws scatters by about sd / sqrt(n) relative
    se_tol = (0.05 + MC_SIGMAS / np.sqrt(n)) * expected_se + 1e-12
    if not abs(stderr - expected_se) <= se_tol:
        return f"stderr {stderr!r} differs from {expected_se!r} by more than {se_tol:.3g}"
    return None


def _record(n_conc: int = QUARTET_CONCURRENCE[2], n_neg: int = QUARTET_NEGATIVITY[2],
            chunk: int = 1 << 16) -> None:
    """Print the two recorded quartet references from an independent sampler."""
    gen = np.random.default_rng(REFERENCE_SEED)
    q = quartet_basis()
    conc = []
    for start in range(0, n_conc, chunk):
        m = min(chunk, n_conc - start)
        z = gen.standard_normal((m, 4)) + 1j * gen.standard_normal((m, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        conc.append(concurrence_bilinear(z @ q))
    neg = []
    proj = np.einsum("wi,wj->wij", q, q)
    for start in range(0, n_neg, chunk):
        m = min(chunk, n_neg - start)
        rho = np.einsum("nw,wij->nij", gen.dirichlet(np.ones(4), m), proj)
        pt = rho.reshape(m, 2, 3, 2, 3).transpose(0, 3, 2, 1, 4).reshape(m, 6, 6)
        neg.append(0.5 * (np.abs(np.linalg.eigvalsh(pt)).sum(axis=1) - 1.0))
    for name, parts, n in (("QUARTET_CONCURRENCE", conc, n_conc),
                           ("QUARTET_NEGATIVITY", neg, n_neg)):
        v = np.concatenate(parts)
        print(f"{name} = ({float(v.mean())!r}, {float(v.std(ddof=1))!r}, {n:_})")


if __name__ == "__main__":
    _record()
