"""State-factory constructors and their defining marginal/symmetry identities."""
import numpy as np
import pytest

from catcost.measures import d_max
from catcost.operators import (
    FactorShape,
    density_from_matrix,
    partial_trace,
    permute_factors,
    relabel,
    trace_distance,
)
from catcost.states import (
    GibbsQubit,
    IsotropicParams,
    classical_mix,
    gibbs_qubit,
    isotropic,
    isotropic_from_fidelity,
    isotropic_twirl,
    max_entangled,
    max_entangled_fraction,
    max_entangled_matrix,
    symmetric_two_broadcast,
)

from conftest import random_density


class TestMaxEntangled:
    def test_bell_pair_entries(self):
        phi = max_entangled(2)
        v = np.zeros(4)
        v[0] = v[3] = 1 / np.sqrt(2)
        assert np.allclose(phi.entries, np.outer(v, v), atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_unvalidated_entries_are_the_states(self, d):
        entries = max_entangled_matrix(d)
        assert np.array_equal(entries, max_entangled(d).entries)
        v = np.zeros(d * d)
        v[:: d + 1] = 1.0 / np.sqrt(d)
        assert np.array_equal(entries, np.outer(v, v) / np.vdot(v, v))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_marginals_maximally_mixed(self, d):
        phi = max_entangled(d)
        split = relabel(phi.op, FactorShape(((d, 1), (1, d))))
        for keep in ({0}, {1}):
            marginal = partial_trace(split, keep)
            assert np.allclose(marginal.entries, np.eye(d) / d, atol=1e-12)

    def test_purity(self):
        phi = max_entangled(4)
        assert abs(np.trace(phi.entries @ phi.entries).real - 1.0) <= 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestIsotropic:
    def test_extremes(self):
        d = 3
        assert np.allclose(isotropic(IsotropicParams(d, 0.0)).entries,
                           np.eye(9) / 9, atol=1e-15)
        assert np.allclose(isotropic(IsotropicParams(d, 1.0)).entries,
                           max_entangled(d).entries, atol=1e-15)

    def test_fidelity_with_max_entangled(self):
        rho = isotropic(IsotropicParams(2, 0.5))
        assert abs(max_entangled_fraction(rho) - 5 / 8) <= 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            IsotropicParams(1, 0.5)
        with pytest.raises(ValueError):
            IsotropicParams(2, 1.5)

    def test_valid_density_across_lam(self):
        for lam in np.linspace(0, 1, 7):
            isotropic(IsotropicParams(2, float(lam)))  # validation in constructor


class TestSymmetricBroadcast:
    def test_equal_halves_give_product(self, rng):
        rho = random_density(rng, 2, 2)
        mu = symmetric_two_broadcast(rho, rho)
        assert np.abs(mu.entries - np.kron(rho.entries, rho.entries)).max() <= 1e-12

    def test_half_mixed_family_instance(self):
        phi = max_entangled(2)
        white = isotropic(IsotropicParams(2, 0.0))
        mu = symmetric_two_broadcast(phi, white)
        expected = (np.kron(phi.entries, np.eye(4) / 4)
                    + np.kron(np.eye(4) / 4, phi.entries)) / 2
        assert np.allclose(mu.entries, expected, atol=1e-15)

    def test_marginals_are_even_mixture(self, rng):
        s0 = random_density(rng, 2, 2)
        s1 = random_density(rng, 2, 2)
        mu = symmetric_two_broadcast(s0, s1)
        expected = (s0.entries + s1.entries) / 2
        for keep in ({0}, {1}):
            assert np.abs(partial_trace(mu.op, keep).entries - expected).max() <= 1e-12

    def test_swap_symmetry(self, rng):
        s0 = random_density(rng, 2, 2)
        s1 = random_density(rng, 2, 2)
        mu = symmetric_two_broadcast(s0, s1)
        swapped = permute_factors(mu.op, [1, 0])
        assert np.abs(swapped.entries - mu.entries).max() <= 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            symmetric_two_broadcast(random_density(rng, 2, 2), random_density(rng, 3, 3))


class TestClassicalStates:
    def test_gibbs_extremes(self):
        gamma = gibbs_qubit(0.25)
        assert np.allclose(gamma.entries, np.diag([0.75, 0.25]), atol=1e-15)
        assert gamma.shape.factors == ((2, 1),)

    def test_gibbs_range(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                gibbs_qubit(bad)
        with pytest.raises(ValueError):
            GibbsQubit(0.5)

    def test_classical_mix_values(self):
        assert np.allclose(classical_mix(1.0, 0.25).entries,
                           gibbs_qubit(0.25).entries, atol=1e-15)
        assert np.allclose(classical_mix(0.0, 0.25).entries,
                           np.diag([1.0, 0.0]), atol=1e-15)
        # q=1/2, p=1/4: diag(7/8, 1/8)
        assert np.allclose(classical_mix(0.5, 0.25).entries,
                           np.diag([7 / 8, 1 / 8]), atol=1e-15)

    def test_classical_mix_range(self):
        with pytest.raises(ValueError):
            classical_mix(1.5, 0.25)


class TestTwirl:
    def test_isotropic_fixed_point(self):
        rho = isotropic(IsotropicParams(3, 0.4))
        assert trace_distance(isotropic_twirl(rho).op, rho.op) <= 1e-12

    def test_idempotent(self, rng):
        x = random_density(rng, 3, 3)
        once = isotropic_twirl(x)
        twice = isotropic_twirl(once)
        assert trace_distance(once.op, twice.op) <= 1e-12

    def test_preserves_entangled_fraction(self, rng):
        # product rotation changes the state; the twirl keeps whatever
        # fraction the rotated state has
        phi = max_entangled(2)
        ua = np.linalg.qr(rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)))[0]
        ub = np.linalg.qr(rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)))[0]
        u = np.kron(ua, ub)
        rotated = density_from_matrix(u @ phi.entries @ u.conj().T, phi.shape)
        f_before = max_entangled_fraction(rotated)
        twirled = isotropic_twirl(rotated)
        assert abs(max_entangled_fraction(twirled) - f_before) <= 1e-12

    def test_rejects_non_square_factor(self, rng):
        with pytest.raises(ValueError):
            isotropic_twirl(random_density(rng, 2, 3))

    def test_never_increases_dmax_to_isotropic_reference(self, rng):
        # data-processing sanity on sampled states with isotropic references
        for _ in range(5):
            x = random_density(rng, 2, 2)
            ref = isotropic_from_fidelity(2, 0.3)
            assert d_max(isotropic_twirl(x), ref) <= d_max(x, ref) + 1e-9


class TestIsotropicFromFidelity:
    def test_matches_mixing_parametrization(self):
        d, lam = 3, 0.6
        f = lam + (1 - lam) / d ** 2
        a = isotropic(IsotropicParams(d, lam))
        b = isotropic_from_fidelity(d, f)
        assert np.abs(a.entries - b.entries).max() <= 1e-12

    def test_extreme_fidelities_are_states(self):
        isotropic_from_fidelity(2, 0.0)
        isotropic_from_fidelity(2, 1.0)
        with pytest.raises(ValueError):
            isotropic_from_fidelity(2, 1.2)
