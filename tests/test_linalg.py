"""Kernel tests: Hermitian eigensolver, partial trace/transpose, trace norm."""

import numpy as np
import pytest

from spinpair import linalg


def random_hermitian(rng, n, count=None):
    shape = (n, n) if count is None else (count, n, n)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a + np.conj(np.swapaxes(a, -1, -2))


def random_density(rng, n=6):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestEigHermitian:
    def test_identity(self):
        eig = linalg.eig_hermitian(np.eye(3))
        assert np.allclose(eig.values, [1.0, 1.0, 1.0], atol=1e-14)

    def test_pauli_x(self):
        eig = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    def test_zero_field_pair_block_matrix(self):
        # J=1, Delta=0, B=0 coupling matrix: eigenvalues -sqrt(2)/2, 0, +sqrt(2)/2,
        # each twice
        w = 1.0 / np.sqrt(2.0)
        h = np.zeros((6, 6))
        h[1, 3] = h[3, 1] = w
        h[2, 4] = h[4, 2] = w
        expected = np.array([-w, -w, 0.0, 0.0, w, w])
        assert np.allclose(linalg.eig_hermitian(h).values, expected, atol=1e-10)

    def test_reconstruction_orthonormality_phase_1000(self):
        rng = np.random.default_rng(1)
        hs = random_hermitian(rng, 6, count=1000)
        worst = 0.0
        for h in hs[:60]:
            eig = linalg.eig_hermitian(h)
            rec = (eig.vectors * eig.values) @ eig.vectors.conj().T
            worst = max(worst, np.abs(rec - h).max())
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.abs(gram - np.eye(6)).max() < 1e-12
            lead = np.abs(eig.vectors).argmax(axis=0)
            pivots = eig.vectors[lead, np.arange(6)]
            assert np.abs(pivots.imag).max() < 1e-12
            assert pivots.real.min() > 0.0
        assert worst < 1e-10
        # the remaining matrices through the batched path, against the
        # independent LAPACK route
        vals = linalg.eigvals_hermitian(hs)
        assert np.abs(vals - np.linalg.eigvalsh(hs)).max() < 1e-10
        assert np.all(np.diff(vals, axis=-1) >= -1e-14)

    def test_charpoly_oracle_3x3(self):
        # roots of det(M - lambda I) computed symbolically from traces
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_hermitian(rng, 3)
            c2 = -np.trace(m).real
            c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
            c0 = -np.linalg.det(m).real
            roots = np.sort(np.roots([1.0, c2, c1, c0]).real)
            assert np.abs(linalg.eig_hermitian(m).values - roots).max() < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="exceeds"):
            linalg.eig_hermitian(np.eye(9))

    def test_degenerate_subspace_projector(self):
        # degenerate eigenvectors are only fixed up to rotation; the spectral
        # projector must still be exact
        h = np.diag([1.0, 1.0, 3.0]).astype(complex)
        u = linalg.eig_hermitian(random_hermitian(np.random.default_rng(3), 3)).vectors
        m = u @ h @ u.conj().T
        eig = linalg.eig_hermitian(m)
        p = eig.vectors[:, :2] @ eig.vectors[:, :2].conj().T
        p_ref = u[:, :2] @ u[:, :2].conj().T
        assert np.abs(p - p_ref).max() < 1e-10


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(4)
        rho_a = np.diag([0.3, 0.7]).astype(complex)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        rho = np.kron(rho_a, rho_b)
        assert np.abs(linalg.partial_trace(rho, "B") - rho_a).max() < 1e-14
        assert np.abs(linalg.partial_trace(rho, "A") - rho_b).max() < 1e-14

    def test_basis_state(self):
        rho = np.zeros((6, 6), dtype=complex)
        rho[0, 0] = 1.0  # |uU>
        assert np.allclose(linalg.partial_trace(rho, "A"), np.diag([1.0, 0.0, 0.0]))

    def test_bell_like_state(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[4] = 1.0 / np.sqrt(2.0)  # (|uU> + |d0>)/sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(linalg.partial_trace(rho, "B"), np.diag([0.5, 0.5]), atol=1e-14)

    def test_reduced_matrices_stay_densities(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(rng)
            for part in ("A", "B"):
                red = linalg.partial_trace(rho, part)
                assert abs(np.trace(red).real - 1.0) < 1e-12
                assert np.abs(red - red.conj().T).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="6x6"):
            linalg.partial_trace(np.eye(4) / 4.0, "A")
        with pytest.raises(ValueError, match="trace"):
            linalg.partial_trace(np.eye(6), "A")
        with pytest.raises(ValueError, match="part"):
            linalg.partial_trace(np.eye(6) / 6.0, "C")


class TestPartialTranspose:
    def test_involution_exact(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng)
        twice = linalg.partial_transpose_qubit(linalg.partial_transpose_qubit(rho))
        assert np.array_equal(twice, rho)

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        lhs = linalg.partial_transpose_qubit(np.kron(rho_a, rho_b))
        assert np.abs(lhs - np.kron(rho_a.T, rho_b)).max() < 1e-14

    def test_trace_hermiticity_linearity(self):
        rng = np.random.default_rng(8)
        rhos = np.stack([random_density(rng) for _ in range(100)])
        pt = linalg.partial_transpose_qubit(rhos)
        assert np.abs(np.trace(pt, axis1=-2, axis2=-1) - 1.0).max() < 1e-14
        assert np.abs(pt - np.conj(np.swapaxes(pt, -1, -2))).max() < 1e-14
        mix = linalg.partial_transpose_qubit(0.25 * rhos[0] + 0.75 * rhos[1])
        assert np.abs(mix - (0.25 * pt[0] + 0.75 * pt[1])).max() < 1e-14

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="6x6"):
            linalg.partial_transpose_qubit(np.eye(5))


class TestTraceNorm:
    def test_identity(self):
        assert linalg.trace_norm(np.eye(6)) == pytest.approx(6.0, abs=1e-12)

    def test_densities_have_unit_trace_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert linalg.trace_norm(random_density(rng)) == pytest.approx(1.0, abs=1e-12)

    def test_partial_transpose_of_maximally_entangled_doublet(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[4] = 1.0 / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        value = linalg.trace_norm(linalg.partial_transpose_qubit(rho))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_lower_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            rho = random_density(rng)
            assert linalg.trace_norm(rho) >= abs(np.trace(rho)) - 1e-12
            pt_norm = linalg.trace_norm(linalg.partial_transpose_qubit(rho))
            assert pt_norm >= 1.0 - 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
