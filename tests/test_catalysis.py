"""Protocol execution and every advantage/witness certificate."""
import math

import numpy as np
import pytest

from catcost.catalysis import (
    catalytic_cost_upper_bound,
    nonconvexity_witness,
    pure_additivity_check,
    run_prop1_protocol,
    superadditivity_violation,
    thermo_advantage,
)
from catcost.measures import BinegativityReport, gated_ppt_cost, log_negativity
from catcost.operators import (
    FactorShape,
    ResourceLimitError,
    density_from_matrix,
    density_from_vector,
    plain_shape,
    tensor_power,
)
from catcost.states import (
    IsotropicParams,
    classical_mix,
    gibbs_qubit,
    isotropic,
    max_entangled,
    symmetric_two_broadcast,
)

from conftest import random_density


def half_mixed(d=2):
    return isotropic(IsotropicParams(d, 0.5))


def correlated_broadcast(d=2):
    return symmetric_two_broadcast(max_entangled(d), isotropic(IsotropicParams(d, 0.0)))


def product_broadcast(rho):
    return density_from_matrix(tensor_power(rho.op, 2).entries, rho.shape.copies(2))


class TestProtocol:
    def test_half_mixed_instance_is_exact(self):
        trace = run_prop1_protocol(correlated_broadcast(2), half_mixed(2), n=1)
        assert trace.exact
        assert max(trace.residuals.values()) <= 1e-12
        assert [label for label, _ in trace.stages] == ["dilution-output", "after-swap"]
        assert trace.final_catalyst.shape == half_mixed(2).shape
        assert trace.final_system.shape == half_mixed(2).shape.copies(2)

    def test_product_broadcast_trivially_passes(self, rng):
        rho = random_density(rng, 2, 1)
        trace = run_prop1_protocol(product_broadcast(rho), rho, n=1)
        assert max(trace.residuals.values()) <= 1e-12

    def test_classical_purification_broadcast(self, rng):
        p = rng.random(2) + 0.1
        p /= p.sum()
        v = np.zeros(4)
        v[0], v[3] = math.sqrt(p[0]), math.sqrt(p[1])
        psi = density_from_vector(v, FactorShape(((2, 1), (2, 1))))
        rho = density_from_matrix(np.diag(p), plain_shape(2))
        trace = run_prop1_protocol(psi, rho, n=1)
        assert max(trace.residuals.values()) <= 1e-12

    def test_two_round_protocol_within_budget(self, rng):
        rho = random_density(rng, 2, 1)
        trace = run_prop1_protocol(product_broadcast(rho), rho, n=2)
        assert max(trace.residuals.values()) <= 1e-12

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            run_prop1_protocol(correlated_broadcast(3), half_mixed(3), n=1)

    @pytest.mark.parametrize("n", [2, 10 ** 20])
    def test_budget_checked_before_anything_is_built(self, n, request):
        mu, rho = correlated_broadcast(2), half_mixed(2)
        request.getfixturevalue("forbid_dense_operators")
        with pytest.raises(ResourceLimitError, match="budget"):
            run_prop1_protocol(mu, rho, n=n)

    def test_non_broadcast_rejected(self):
        rho = half_mixed(2)
        white = density_from_matrix(np.eye(16) / 16, rho.shape.copies(2))
        with pytest.raises(ValueError):
            run_prop1_protocol(white, rho, n=1)


class TestCostUpperBound:
    @pytest.mark.parametrize("d", [2, 3])
    def test_halving_gap(self, d):
        rho = half_mixed(d)
        cert = catalytic_cost_upper_bound(rho, correlated_broadcast(d))
        assert cert.valid
        ln = log_negativity(rho)
        assert abs(cert.gap - ln / 2) <= 1e-9
        assert abs(cert.cost_upper_catalytic - ln / 2) <= 1e-9

    def test_d2_numbers(self):
        cert = catalytic_cost_upper_bound(half_mixed(2), correlated_broadcast(2))
        assert abs(cert.cost_standard.bits - 0.3219281) <= 1e-7
        assert abs(cert.cost_upper_catalytic - 0.1609640) <= 1e-7
        assert cert.gap > 0

    def test_product_broadcast_gives_no_advantage(self):
        rho = half_mixed(2)
        cert = catalytic_cost_upper_bound(rho, product_broadcast(rho))
        assert abs(cert.gap) <= 1e-9

    def test_uncorrelated_broadcast_never_beats_standard_cost(self, rng):
        # strict-catalysis contrast: additivity kills the advantage (all
        # two-qubit states sit inside the binegativity gate)
        for _ in range(10):
            rho = random_density(rng, 2, 2)
            cert = catalytic_cost_upper_bound(rho, product_broadcast(rho))
            assert cert.gap <= 1e-9


class TestNonconvexityWitness:
    def test_ppt_instance_rejects_convex_pair(self):
        # midpoint convexity holds for Phi and white noise; the witness
        # must report a non-positive violation
        phi = max_entangled(2)
        white = isotropic(IsotropicParams(2, 0.0))
        witness = nonconvexity_witness(phi, white)
        assert witness.violation < 0
        assert abs(witness.violation - (closed := log_negativity(half_mixed(2)) - 0.5)) <= 1e-9
        assert witness.broadcast_cost is None

    def test_work_cost_instance_is_a_witness(self):
        p = 0.25
        witness = nonconvexity_witness(classical_mix(0.0, p), gibbs_qubit(p),
                                       gamma=gibbs_qubit(p))
        expected = math.log2(7 / 6) - 0.5 * math.log2(4 / 3)
        assert abs(witness.violation - expected) <= 1e-12
        assert witness.violation > 0
        assert witness.chain_ok

    def test_equal_halves_no_violation(self, rng):
        rho = half_mixed(2)
        witness = nonconvexity_witness(rho, rho)
        assert abs(witness.violation) <= 1e-12


class TestSuperadditivity:
    @pytest.mark.parametrize("d,expected", [(2, 0.3219281), (3, 0.7369656)])
    def test_violation_equals_one_unit(self, d, expected):
        violation = superadditivity_violation(half_mixed(d), correlated_broadcast(d))
        assert abs(violation - expected) <= 1e-7
        assert violation > 0.3

    def test_product_broadcast_no_violation(self):
        rho = half_mixed(2)
        assert abs(superadditivity_violation(rho, product_broadcast(rho))) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_certificate_reading_is_exact(self, d):
        rho, mu = half_mixed(d), correlated_broadcast(d)
        violation = catalytic_cost_upper_bound(rho, mu).superadditivity_violation()
        assert violation == 2.0 * gated_ppt_cost(rho)[1].bits - gated_ppt_cost(mu)[1].bits
        assert violation == superadditivity_violation(rho, mu)

    def test_certificate_reading_needs_positive_gates(self):
        cert = catalytic_cost_upper_bound(half_mixed(2), correlated_broadcast(2))
        failed = cert._replace(gate_broadcast=BinegativityReport(-0.1, False, 1e-10))
        with pytest.raises(ValueError, match="binegativity"):
            failed.superadditivity_violation()


class TestThermoAdvantage:
    def test_quarter_population_numbers(self):
        cert = thermo_advantage(0.25)
        assert abs(cert.cost_standard.bits - math.log2(7 / 6)) <= 1e-12
        assert abs(cert.cost_upper_catalytic - 0.5 * math.log2(4 / 3)) <= 1e-12
        assert abs(cert.gap - 0.0148737) <= 1e-7
        assert cert.valid

    def test_p04_closed_form(self):
        cert = thermo_advantage(0.4)
        expected = math.log2(0.8 / 0.6) - 0.5 * math.log2(1 / 0.6)
        assert abs(cert.gap - expected) <= 1e-12
        assert cert.gap > 0

    def test_gap_vanishes_as_p_goes_to_zero(self):
        gaps = [thermo_advantage(p).gap for p in (0.2, 0.1, 0.05, 0.01)]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            thermo_advantage(0.6)


class TestPureAdditivity:
    def test_max_entangled_pair(self):
        assert pure_additivity_check(max_entangled(2), max_entangled(3)) == 0.0

    def test_with_product_state(self):
        v = np.zeros(4); v[0] = 1.0
        product = density_from_vector(v, FactorShape(((2, 2),)))
        assert pure_additivity_check(max_entangled(3), product) == 0.0

    def test_weakly_entangled_factor(self):
        eps = 1e-3
        v = np.zeros(4)
        v[0], v[3] = math.sqrt(1 - eps ** 2), eps
        psi = density_from_vector(v, FactorShape(((2, 2),)))
        assert pure_additivity_check(psi, max_entangled(2)) == 0.0

    def test_mixed_inputs_rejected(self):
        with pytest.raises(ValueError):
            pure_additivity_check(half_mixed(2), max_entangled(2))
