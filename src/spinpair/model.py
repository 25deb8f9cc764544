"""The anisotropic Heisenberg spin-(1, 1/2) pair in a longitudinal field.

    H = (J/2) (sigma_x S_x + sigma_y S_y + Delta sigma_z S_z)
        + B (sigma_z / 2 + S_z)

sigma are the qubit Pauli matrices, S the spin-1 matrices.  J > 0 sets the
energy unit (the closed forms below take J = 1, i.e. Delta and B are measured
in units of J).  Total S_z is conserved, so the 6x6 matrix splits into four
blocks: the two stretched product states |uU>, |dD> and two 2x2 blocks
coupling |u0>/|dU> and |uD>/|d0>.

At B = 0 the spectrum is Delta/2 and (-Delta -+ sqrt(8 + Delta^2))/4, each
doubly degenerate.  The ground level crosses at Delta = -1: below it the
ground doublet is the product pair {|dD>, |uU>}, above it the entangled
doublet returned by ``analytic_ground_pair``, and at Delta = -1 exactly the
two doublets merge into a fourfold ground space.  Switching on B splits the
doublets and produces level crossings at the fields listed by
``critical_fields``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .linalg import PAIR_DIM, HermEig

_SQRT2 = np.sqrt(2.0)


class DegenerateGroundError(ValueError):
    """The ground state is degenerate here; use ground_subspace and average."""


@dataclass(frozen=True)
class ModelParams:
    """Coupling J > 0 (energy unit), anisotropy Delta, longitudinal field B."""

    delta: float
    b: float = 0.0
    j: float = 1.0

    def __post_init__(self):
        for name in ("delta", "b", "j"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.j > 0.0:
            raise ValueError(f"coupling j must be positive, got {self.j}")


@dataclass(frozen=True)
class GroundSubspace:
    """Ground energy with an orthonormal basis (rows) of the ground eigenspace."""

    energy: float
    basis: np.ndarray
    degeneracy: int


def hamiltonian(params: ModelParams) -> np.ndarray:
    """The 6x6 Hamiltonian matrix in the product basis (uU, u0, uD, dU, d0, dD)."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    w = 1.0 / _SQRT2
    bx = np.array([[0.0, w, 0.0], [w, 0.0, w], [0.0, w, 0.0]], dtype=complex)
    by = np.array([[0.0, -1.0j * w, 0.0], [1.0j * w, 0.0, -1.0j * w], [0.0, 1.0j * w, 0.0]])
    bz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    i2 = np.eye(2, dtype=complex)
    i3 = np.eye(3, dtype=complex)
    h = 0.5 * params.j * (np.kron(sx, bx) + np.kron(sy, by) + params.delta * np.kron(sz, bz))
    h += params.b * (0.5 * np.kron(sz, i3) + np.kron(i2, bz))
    return h


def spectrum(params: ModelParams) -> HermEig:
    """All six eigenvalues (ascending) and eigenvectors of the Hamiltonian."""
    return linalg.eig_hermitian(hamiltonian(params))


def default_degeneracy_tol(params: ModelParams) -> float:
    return 1e-9 * max(1.0, abs(params.j), abs(params.b))


def ground_subspace(params: ModelParams, degeneracy_tol: float | None = None) -> GroundSubspace:
    """All eigenvectors within ``degeneracy_tol`` of the minimal eigenvalue.

    The default tolerance suits the O(1) spectral gaps of this model; sweeps
    that approach a level crossing should pass an explicit tolerance.
    """
    tol = default_degeneracy_tol(params) if degeneracy_tol is None else degeneracy_tol
    if not tol > 0.0:
        raise ValueError(f"degeneracy_tol must be positive, got {tol}")
    eig = spectrum(params)
    sel = eig.values <= eig.values[0] + tol
    basis = eig.vectors[:, sel].T.copy()
    return GroundSubspace(energy=float(eig.values[0]), basis=basis, degeneracy=int(sel.sum()))


def _coeffs(delta: float):
    r = np.sqrt(8.0 + delta * delta)
    gp = (delta + r) / (2.0 * _SQRT2)
    gm = (delta - r) / (2.0 * _SQRT2)
    return r, gp, gm


def analytic_ground_pair(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The entangled zero-field ground doublet (psi1, psi2) for Delta > -1.

    psi1 lives on {|d0>, |uD>}, psi2 on {|dU>, |u0>}; both have eigenvalue
    (-Delta - sqrt(8 + Delta^2))/4 at B = 0, J = 1.  The boundary Delta = -1
    is allowed as a continuation and yields the critical pair phi1, phi2.
    """
    delta = float(delta)
    if delta < -1.0:
        raise ValueError(f"analytic ground doublet requires Delta >= -1, got {delta}")
    r, gp, gm = _coeffs(delta)
    fp = np.sqrt(gp * gp + 1.0)
    fm = np.sqrt(gm * gm + 1.0)
    psi1 = np.zeros(PAIR_DIM, dtype=complex)
    psi1[states.basis_index("d0")] = 1.0 / fp
    psi1[states.basis_index("uD")] = -gp / fp
    psi2 = np.zeros(PAIR_DIM, dtype=complex)
    psi2[states.basis_index("dU")] = 1.0 / fm
    psi2[states.basis_index("u0")] = gm / fm
    return psi1, psi2


def critical_ground_quartet() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis (|dD>, |uU>, phi1, phi2) of the fourfold ground space at Delta = -1."""
    phi1, phi2 = analytic_ground_pair(-1.0)
    return states.basis_state("dD"), states.basis_state("uU"), phi1, phi2


def zero_field_ground_basis(delta: float) -> tuple[np.ndarray, ...]:
    """Analytic orthonormal ground basis at B = 0 for any Delta.

    Product doublet below the critical anisotropy, entangled doublet above it,
    the fourfold basis at Delta = -1 exactly.
    """
    delta = float(delta)
    if delta < -1.0:
        return states.basis_state("dD"), states.basis_state("uU")
    if delta == -1.0:
        return critical_ground_quartet()
    return analytic_ground_pair(delta)


def critical_fields(delta: float) -> np.ndarray:
    """Fields where the ground level crosses, sorted ascending.

    {-w, 0, +w} with w = (3 Delta + sqrt(8 + Delta^2))/4 for Delta > -1;
    only B = 0 remains in the ferromagnetic regime Delta <= -1.
    """
    delta = float(delta)
    if delta <= -1.0:
        return np.array([0.0])
    w = (3.0 * delta + np.sqrt(8.0 + delta * delta)) / 4.0
    return np.array([-w, 0.0, w])


def ground_concurrence_field(delta: float, b: float) -> float:
    """Concurrence norm of the unique ground state at (Delta > -1, B != critical).

    Zero outside the window |B| > (3 Delta + sqrt(8 + Delta^2))/4; inside it,
    on either side of B = 0, the ground state is one of the analytic doublet
    states and the norm is 4 sqrt(2) t / (8 + t^2) with t = sqrt(8 + Delta^2)
    - Delta.  Exactly at a critical field the ground level is crossing and a
    single number is undefined: DegenerateGroundError directs the caller to
    ground_subspace plus averaging.
    """
    delta = float(delta)
    b = float(b)
    if delta <= -1.0:
        raise ValueError(f"ground_concurrence_field requires Delta > -1, got {delta}")
    w = (3.0 * delta + np.sqrt(8.0 + delta * delta)) / 4.0
    if b == 0.0 or abs(b) == w:
        raise DegenerateGroundError(f"ground level crossing at Delta={delta}, B={b}")
    if abs(b) > w:
        return 0.0
    t = np.sqrt(8.0 + delta * delta) - delta
    return float(4.0 * _SQRT2 * t / (8.0 + t * t))


def superposition_concurrence(c: complex, d: complex, delta: float) -> float:
    """Closed-form concurrence norm of c psi1 + d psi2 over the analytic doublet.

    Depends only on |c| and |d| (each concurrence component picks up a phase
    but not a magnitude change):

        |C|^2 = (8 (|c|^4 + |d|^4)
                 + 2 |c|^2 |d|^2 (4 + Delta^2 + Delta sqrt(8 + Delta^2)))
                / (8 + Delta^2)
    """
    delta = float(delta)
    if delta < -1.0:
        raise ValueError(f"superposition_concurrence requires Delta >= -1, got {delta}")
    x = abs(c) ** 2
    y = abs(d) ** 2
    if not abs(x + y - 1.0) <= states.NORM_ATOL:
        raise ValueError(f"|c|^2 + |d|^2 = {x + y!r}, not 1")
    r = np.sqrt(8.0 + delta * delta)
    num = 8.0 * (x * x + y * y) + 2.0 * x * y * (4.0 + delta * delta + delta * r)
    return float(np.sqrt(num / (8.0 + delta * delta)))


def mixture_negativity_closed(p, delta: float):
    """Negativity of p |psi1><psi1| + (1-p) |psi2><psi2| in closed form.

        N = Delta / (4 R) - 1/4 + f(p) + f(1 - p),
        f(p) = sqrt((16 - 32 p + (20 + Delta^2 - Delta R) p^2) / (8 (8 + Delta^2))),
        R = sqrt(8 + Delta^2).

    Valid for Delta > -1; p may be a float or an array of mixing weights.
    """
    delta = float(delta)
    if delta <= -1.0:
        raise ValueError(f"mixture_negativity_closed requires Delta > -1, got {delta}")
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("mixing weight p must lie in [0, 1]")
    r = np.sqrt(8.0 + delta * delta)
    k = 20.0 + delta * delta - delta * r

    def f(x):
        return np.sqrt((16.0 - 32.0 * x + k * x * x) / (8.0 * (8.0 + delta * delta)))

    out = delta / (4.0 * r) - 0.25 + f(p) + f(1.0 - p)
    return float(out) if out.ndim == 0 else out


def _negative_part(a, d, c):
    """Magnitude of the negative eigenvalue of [[a, c], [c, d]], or 0."""
    return np.maximum(0.0, np.hypot(0.5 * (a - d), c) - 0.5 * (a + d))


def critical_mixture_negativity(p1, p2, p3, p4):
    """Negativity of the Delta = -1 ground mixture with weights on (|dD>, |uU>, phi1, phi2).

    The qubit partial transpose of this mixture is the 2x2 block
    [[p2, c2], [c2, 2 p3 / 3]] on {|uU>, |d0>}, the block
    [[2 p4 / 3, c1], [c1, p1]] on {|u0>, |dD>} with c_k = -sqrt(2) p_{k+2} / 3,
    and the nonnegative diagonal entries p3 / 3, p4 / 3 on |uD>, |dU>.  The
    negativity is the sum of the blocks' negative eigenvalue magnitudes,
    max(0, hypot((a - d) / 2, c) - (a + d) / 2); it is exactly 0 when both
    blocks are positive semidefinite, which for a 2x3 system means separable.

    Each weight may be a float or an array (broadcast together); weights must
    be nonnegative and sum to 1 within 1e-12.
    """
    p1, p2, p3, p4 = states.require_weights(np.stack(np.broadcast_arrays(p1, p2, p3, p4)))
    c = _SQRT2 / 3.0
    out = _negative_part(p2, 2.0 * p3 / 3.0, c * p4) + _negative_part(2.0 * p4 / 3.0, p1, c * p3)
    return float(out) if out.ndim == 0 else out
