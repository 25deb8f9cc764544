"""The anisotropic pair Hamiltonian: spectrum, ground spaces, closed forms."""

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinpair import linalg, measures, model, states

SQRT2 = np.sqrt(2.0)

weight = st.floats(0.0, 1.0) | st.just(0.0)


def zero_field_levels(delta):
    """Independent closed forms for the B = 0 spectrum (each level twice)."""
    r = np.sqrt(8.0 + delta * delta)
    return np.sort([delta / 2.0, (-delta - r) / 4.0, (-delta + r) / 4.0])


class TestHamiltonian:
    def test_explicit_matrix_at_unit_anisotropy(self):
        h = model.hamiltonian(model.ModelParams(delta=1.0))
        expected = np.zeros((6, 6))
        expected[np.arange(6), np.arange(6)] = [0.5, 0.0, -0.5, -0.5, 0.0, 0.5]
        expected[1, 3] = expected[3, 1] = 1.0 / SQRT2
        expected[2, 4] = expected[4, 2] = 1.0 / SQRT2
        assert np.abs(h - expected).max() < 1e-15

    def test_general_diagonal_and_couplings(self):
        j, delta, b = 1.7, -0.4, 0.9
        h = model.hamiltonian(model.ModelParams(delta=delta, b=b, j=j))
        diag = [delta * j / 2 + 1.5 * b, b / 2, -b / 2 - delta * j / 2,
                b / 2 - delta * j / 2, -b / 2, delta * j / 2 - 1.5 * b]
        assert np.abs(np.diag(h) - np.array(diag)).max() < 1e-14
        off = np.array(h)
        off[np.arange(6), np.arange(6)] = 0.0
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 3] = mask[3, 1] = mask[2, 4] = mask[4, 2] = True
        assert np.abs(off[mask] - j / SQRT2).max() < 1e-14
        assert np.abs(off[~mask]).max() == 0.0

    def test_zeeman_only(self):
        # the coupling term vanishes in the j -> 0 limit; probe it tiny
        h = model.hamiltonian(model.ModelParams(delta=0.0, b=1.0, j=1e-300))
        assert np.allclose(np.diag(h).real, [1.5, 0.5, -0.5, 0.5, -0.5, -1.5], atol=1e-200)

    def test_real_and_hermitian(self):
        h = model.hamiltonian(model.ModelParams(delta=-2.3, b=0.7))
        assert np.abs(h.imag).max() == 0.0
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_total_sz_commutes(self):
        sz_tot = np.diag([1.5, 0.5, -0.5, 0.5, -0.5, -1.5]).astype(complex)
        for delta, b in [(0.0, 0.0), (1.0, 0.5), (-2.0, -1.3), (5.0, 2.0)]:
            h = model.hamiltonian(model.ModelParams(delta=delta, b=b))
            comm = h @ sz_tot - sz_tot @ h
            assert np.abs(comm).max() < 1e-12

    def test_coupling_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            model.ModelParams(delta=1.0, j=0.0)

    @pytest.mark.parametrize("field", ["delta", "b", "j"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_parameters_must_be_finite(self, field, value):
        kwargs = {"delta": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            model.ModelParams(**kwargs)


class TestSpectrum:
    def test_zero_field_closed_forms(self):
        for delta in (-3.0, -1.5, -1.0, -0.5, 0.0, 1.0, 5.0):
            vals = model.spectrum(model.ModelParams(delta=delta)).values
            expected = np.sort(np.repeat(zero_field_levels(delta), 2))
            assert np.abs(vals - expected).max() < 1e-10

    def test_isotropic_point(self):
        vals = model.spectrum(model.ModelParams(delta=1.0)).values
        assert np.allclose(vals, [-1.0, -1.0, 0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_ferromagnetic_ground_multiplicity(self):
        vals = model.spectrum(model.ModelParams(delta=-2.0)).values
        assert vals[0] == pytest.approx(-1.0, abs=1e-12)
        assert vals[1] == pytest.approx(-1.0, abs=1e-12)
        assert vals[2] > -1.0 + 1e-6

    def test_ground_branch_crossover(self):
        # product branch Delta/2 wins below the critical anisotropy, the
        # entangled branch above it
        for delta in (-3.0, -1.2):
            assert delta / 2.0 < (-delta - np.sqrt(8 + delta * delta)) / 4.0
        for delta in (-0.8, 0.0, 4.0):
            assert delta / 2.0 > (-delta - np.sqrt(8 + delta * delta)) / 4.0


class TestGroundSubspace:
    def test_ferromagnetic_doublet(self):
        gs = model.ground_subspace(model.ModelParams(delta=-2.0))
        assert gs.degeneracy == 2
        assert gs.energy == pytest.approx(-1.0, abs=1e-12)
        proj = gs.basis.conj().T @ gs.basis
        ref = sum(np.outer(states.basis_state(t), states.basis_state(t)) for t in ("uU", "dD"))
        assert np.abs(proj - ref).max() < 1e-10

    def test_fourfold_critical_point(self):
        gs = model.ground_subspace(model.ModelParams(delta=-1.0))
        assert gs.degeneracy == 4
        assert gs.energy == pytest.approx(-0.5, abs=1e-12)
        quartet = np.asarray(model.critical_ground_quartet())
        ref = quartet.T @ quartet.conj()
        proj = gs.basis.conj().T @ gs.basis
        assert np.abs(proj - ref.conj()).max() < 1e-10

    def test_polarized_in_strong_field(self):
        gs = model.ground_subspace(model.ModelParams(delta=1.0, b=2.0))
        assert gs.degeneracy == 1
        assert gs.energy == pytest.approx(-2.5, abs=1e-12)
        assert states.overlap(gs.basis[0], states.basis_state("dD")) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_property_and_orthonormality(self):
        params = model.ModelParams(delta=0.3, b=0.2)
        h = model.hamiltonian(params)
        gs = model.ground_subspace(params)
        for vec in gs.basis:
            assert np.abs(h @ vec - gs.energy * vec).max() < 1e-10
        gram = gs.basis @ gs.basis.conj().T
        assert np.abs(gram - np.eye(gs.degeneracy)).max() < 1e-10

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            model.ground_subspace(model.ModelParams(delta=1.0), degeneracy_tol=0.0)


class TestAnalyticGroundPair:
    def test_critical_pair_values(self):
        phi1, phi2 = model.analytic_ground_pair(-1.0)
        ref1 = np.zeros(6)
        ref1[4], ref1[2] = np.sqrt(2.0 / 3.0), -np.sqrt(1.0 / 3.0)
        ref2 = np.zeros(6)
        ref2[3], ref2[1] = np.sqrt(1.0 / 3.0), -np.sqrt(2.0 / 3.0)
        assert np.abs(phi1 - ref1).max() < 1e-12
        assert np.abs(phi2 - ref2).max() < 1e-12

    def test_isotropic_xy_point(self):
        psi1, _ = model.analytic_ground_pair(0.0)
        ref = (states.basis_state("d0") - states.basis_state("uD")) / SQRT2
        assert np.abs(psi1 - ref).max() < 1e-12

    def test_eigenvectors_of_the_hamiltonian(self):
        for delta in (-1.0, -0.5, 0.0, 0.7, 2.0, 10.0):
            h = model.hamiltonian(model.ModelParams(delta=delta))
            energy = (-delta - np.sqrt(8.0 + delta * delta)) / 4.0
            for psi in model.analytic_ground_pair(delta):
                assert np.abs(h @ psi - energy * psi).max() < 1e-10

    def test_orthogonal_pair(self):
        for delta in np.linspace(-1.0, 6.0, 15):
            psi1, psi2 = model.analytic_ground_pair(delta)
            assert abs(np.vdot(psi1, psi2)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError, match="Delta"):
            model.analytic_ground_pair(-1.0001)


class TestCriticalFields:
    def test_isotropic(self):
        assert np.allclose(model.critical_fields(1.0), [-1.5, 0.0, 1.5], atol=1e-15)

    def test_xy_point(self):
        w = SQRT2 / 2.0
        assert np.allclose(model.critical_fields(0.0), [-w, 0.0, w], atol=1e-15)

    def test_ferromagnetic(self):
        assert np.array_equal(model.critical_fields(-2.0), [0.0])

    def test_level_crossings_appear_at_the_critical_fields(self):
        # the minimum eigenvalue is piecewise linear in B; slope kinks sit at
        # the critical fields and nowhere else
        for delta in (0.0, 1.0):
            grid = np.linspace(-3.0, 3.0, 601)
            e0 = np.array([
                model.spectrum(model.ModelParams(delta=delta, b=float(b))).values[0]
                for b in grid
            ])
            d2 = np.abs(e0[:-2] - 2.0 * e0[1:-1] + e0[2:])
            kinks = grid[1:-1][d2 > 10.0 * np.median(d2) + 1e-9]
            crit = model.critical_fields(delta)
            step = grid[1] - grid[0]
            assert len(kinks) > 0
            for kink in kinks:
                assert np.abs(crit - kink).min() <= step + 1e-12
            for c in crit:
                assert np.abs(kinks - c).min() <= step + 1e-12


class TestGroundConcurrenceField:
    def test_maximal_at_xy_point(self):
        assert model.ground_concurrence_field(0.0, -0.3) == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_window_value(self):
        assert model.ground_concurrence_field(1.0, 0.5) == pytest.approx(
            2.0 * SQRT2 / 3.0, abs=1e-12)

    def test_zero_outside_window(self):
        assert model.ground_concurrence_field(1.0, 2.0) == 0.0

    def test_agrees_with_numeric_ground_state(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            delta = rng.uniform(-0.9, 5.0)
            w = (3.0 * delta + np.sqrt(8.0 + delta * delta)) / 4.0
            b = rng.uniform(-2.0 * w, 2.0 * w)
            if b == 0.0 or abs(abs(b) - w) < 1e-6:
                continue
            gs = model.ground_subspace(model.ModelParams(delta=delta, b=b))
            assert gs.degeneracy == 1
            direct = measures.concurrence_norm(gs.basis[0])
            assert abs(model.ground_concurrence_field(delta, b) - direct) < 1e-10

    def test_degenerate_points_are_flagged(self):
        with pytest.raises(model.DegenerateGroundError):
            model.ground_concurrence_field(1.0, 0.0)
        with pytest.raises(model.DegenerateGroundError):
            model.ground_concurrence_field(1.0, 1.5)

    def test_domain(self):
        with pytest.raises(ValueError, match="Delta"):
            model.ground_concurrence_field(-1.0, 0.5)


class TestSuperpositionConcurrence:
    def test_single_branch_consistency(self):
        # a lone doublet state reproduces the field-window closed form
        for delta in np.linspace(-0.99, 10.0, 50):
            lone = model.superposition_concurrence(1.0, 0.0, delta)
            window = model.ground_concurrence_field(delta, min(0.1, 0.5 * (
                3.0 * delta + np.sqrt(8.0 + delta * delta)) / 4.0))
            assert abs(lone - window) < 1e-10

    def test_matches_direct_concurrence_for_real_coefficients(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            c, d = np.cos(angle), np.sin(angle)
            delta = rng.uniform(-0.99, 8.0)
            psi1, psi2 = model.analytic_ground_pair(delta)
            direct = measures.concurrence_norm(c * psi1 + d * psi2)
            assert abs(model.superposition_concurrence(c, d, delta) - direct) < 1e-10

    def test_matches_direct_concurrence_for_complex_coefficients(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c, d = z / np.linalg.norm(z)
            delta = rng.uniform(-0.99, 8.0)
            psi1, psi2 = model.analytic_ground_pair(delta)
            direct = measures.concurrence_norm(c * psi1 + d * psi2)
            assert abs(model.superposition_concurrence(c, d, delta) - direct) < 1e-10

    def test_known_values(self):
        assert model.superposition_concurrence(1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert model.superposition_concurrence(1.0, 0.0, 1.0) == pytest.approx(
            2.0 * SQRT2 / 3.0, abs=1e-12)

    def test_normalization_required(self):
        with pytest.raises(ValueError, match="not 1"):
            model.superposition_concurrence(1.0, 0.5, 1.0)


class TestMixtureNegativityClosed:
    def test_equilibrium_at_isotropic_point(self):
        assert abs(model.mixture_negativity_closed(0.5, 1.0) - 1.0 / 3.0) < 1e-12

    def test_pure_endpoint_at_xy_point(self):
        assert model.mixture_negativity_closed(0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_at_large_anisotropy(self):
        assert model.mixture_negativity_closed(0.5, 1e6) < 1e-5

    def test_matches_matrix_pipeline(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            p = rng.uniform()
            delta = rng.uniform(-0.999, 8.0)
            psi1, psi2 = model.analytic_ground_pair(delta)
            rho = states.density_of_mixture([p, 1.0 - p], [psi1, psi2])
            assert abs(model.mixture_negativity_closed(p, delta)
                       - measures.negativity(rho)) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError, match="Delta"):
            model.mixture_negativity_closed(0.5, -1.0)
        with pytest.raises(ValueError, match="p"):
            model.mixture_negativity_closed(1.5, 1.0)


class TestCriticalMixtureNegativity:
    def test_pure_product_corner(self):
        assert model.critical_mixture_negativity(1.0, 0.0, 0.0, 0.0) == 0.0

    def test_pure_entangled_corner(self):
        assert model.critical_mixture_negativity(0.0, 0.0, 1.0, 0.0) == pytest.approx(
            SQRT2 / 3.0, abs=1e-12)

    def test_equal_weight_mixture_is_ppt(self):
        # the maximally mixed state on the fourfold ground space is separable:
        # its qubit partial transpose stays positive semidefinite
        assert model.critical_mixture_negativity(0.25, 0.25, 0.25, 0.25) < 1e-12

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            model.critical_mixture_negativity(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            model.critical_mixture_negativity(0.5, 0.5, 0.5, -0.5)

    def test_array_weights_are_validated(self):
        w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        assert model.critical_mixture_negativity(*w.T).shape == (3,)
        with pytest.raises(ValueError, match="sum"):
            model.critical_mixture_negativity(*(w.T + [[0.0, 0.0, 1e-9]]))
        with pytest.raises(ValueError, match="nonnegative"):
            model.critical_mixture_negativity(*(w.T * [[1.0, 1.0, -1.0]]))


def on_simplex(p):
    total = sum(p)
    assume(total > 0.0)
    return [x / total for x in p]


def matrix_negativity(w):
    return measures.negativity(states.density_of_mixture(w, model.critical_ground_quartet()))


class TestCriticalMixtureClosedFormProperties:
    """The 2x2-block closed form against the 6x6 partial-transpose route."""

    @settings(deadline=None)
    @given(st.tuples(weight, weight, weight, weight))
    @example((1.0, 0.0, 0.0, 0.0))
    @example((0.0, 1.0, 0.0, 0.0))
    @example((0.0, 0.0, 1.0, 0.0))
    @example((0.0, 0.0, 0.0, 1.0))
    @example((0.0, 0.0, 0.5, 0.5))
    @example((0.5, 0.5, 0.0, 0.0))
    @example((0.25, 0.25, 0.25, 0.25))
    def test_matches_matrix_route(self, p):
        w = on_simplex(p)
        assert abs(model.critical_mixture_negativity(*w) - matrix_negativity(w)) < 1e-12

    @settings(deadline=None)
    @given(weight, weight, weight, st.booleans())
    @example(1.0, 1.0, 1.0, True)
    @example(1.0, 1.0, 1.0, False)
    def test_matches_matrix_route_on_switching_surfaces(self, x, y, z, first_block):
        # block {uU, d0} turns negative across p4^2 = 3 p2 p3, block {u0, dD}
        # across p3^2 = 3 p1 p4 (c^2 = a d); both sides are homogeneous, so
        # normalizing keeps the point on the surface
        if first_block:
            p = (x, y, z, np.sqrt(3.0 * y * z))
        else:
            p = (x, z, np.sqrt(3.0 * x * y), y)
        w = on_simplex(p)
        assert abs(model.critical_mixture_negativity(*w) - matrix_negativity(w)) < 1e-12

    @settings(deadline=None)
    @given(st.lists(st.tuples(weight, weight, weight, weight), min_size=1, max_size=20))
    def test_array_form_equals_scalar_form(self, points):
        w = np.array([on_simplex(p) for p in points])
        batch = model.critical_mixture_negativity(*w.T)
        assert batch.tolist() == [model.critical_mixture_negativity(*row) for row in w]


def test_equal_weight_critical_mixture_exact_spectrum():
    """Exact oracle for acceptance criterion 5a: the equal-weight mixture is PPT.

    At Delta = -1, B = 0 the ground space is fourfold, so the equal-weight
    mixture of any orthonormal ground basis is P / 4 with P the ground
    projector.  Its qubit partial transpose has spectrum {1/3 x2, 1/12 x4}:
    positive, hence separable (2x3), hence negativity exactly 0.
    """
    r = sympy.sqrt(2) / 2
    sx = sympy.Matrix([[0, 1], [1, 0]])
    sy = sympy.Matrix([[0, -sympy.I], [sympy.I, 0]])
    sz = sympy.diag(1, -1)
    bx = sympy.Matrix([[0, r, 0], [r, 0, r], [0, r, 0]])
    by = sympy.Matrix([[0, -sympy.I * r, 0], [sympy.I * r, 0, -sympy.I * r], [0, sympy.I * r, 0]])
    bz = sympy.diag(1, 0, -1)
    kron = sympy.kronecker_product
    h = (kron(sx, bx) + kron(sy, by) - kron(sz, bz)) / 2
    null = (h + sympy.eye(6) / 2).nullspace()
    assert len(null) == 4
    n = sympy.Matrix.hstack(*null)
    rho = sympy.simplify(n * (n.H * n).inv() * n.H / 4)

    pt = sympy.zeros(6, 6)
    for mu in range(2):
        for j in range(3):
            for nu in range(2):
                for k in range(3):
                    pt[3 * nu + j, 3 * mu + k] = rho[3 * mu + j, 3 * nu + k]
    assert pt.eigenvals() == {sympy.Rational(1, 3): 2, sympy.Rational(1, 12): 4}

    quartet = states.density_of_mixture([0.25] * 4, model.critical_ground_quartet())
    assert np.abs(quartet - np.array(rho.evalf(), dtype=complex)).max() < 1e-15
    assert model.critical_mixture_negativity(0.25, 0.25, 0.25, 0.25) == 0.0
