"""Catalytic dilution protocol execution and every advantage certificate.

The dilution channel that produces the broadcast state is invoked at the
optimal asymptotic rate, so the protocol trace substitutes the broadcast
state itself at the first stage; explicit small-instance channels live in
the map-synthesis module.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .broadcast import RIGIDITY_TOL, max_twirled_distance_to_product, verify_broadcast
from .measures import (
    Applicability,
    BinegativityReport,
    CostValue,
    IsotropicCopies,
    binegativity,
    exact_locc_cost_pure,
    gated_ppt_cost,
    work_cost_semiclassical,
)
from .operators import (
    DensityOperator,
    _Frozen,
    check_power_budget,
    density_from_matrix,
    merge_factors,
    partial_trace,
    permute_factors,
    tensor,
    tensor_power,
    trace_distance,
)
from .states import (
    classical_mix,
    gibbs_qubit,
    symmetric_two_broadcast,
)

PROTOCOL_TOL = 1e-10


class RateRecord(_Frozen):
    """Ebit count m against target copy count n."""

    def __init__(self, m: int, n: int) -> None:
        if m < 0 or n < 1:
            raise ValueError("need m >= 0 and n >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def rate(self) -> float:
        return self.m / self.n

    @property
    def catalytic_rate(self) -> float:
        """Rate per prepared copy when the broadcast covers two copies."""
        return self.rate / 2.0


class ProtocolTrace(NamedTuple):
    """Density-operator stages of the catalytic dilution protocol."""

    stages: tuple[tuple[str, DensityOperator], ...]
    final_catalyst: DensityOperator
    final_system: DensityOperator
    residuals: dict[str, float]
    tol: float

    @property
    def exact(self) -> bool:
        return max(self.residuals.values()) <= self.tol


class AdvantageCertificate(NamedTuple):
    """Verified gap between standard cost and the catalytic upper bound."""

    cost_standard: CostValue
    cost_upper_catalytic: float
    gap: float
    gate_target: BinegativityReport
    gate_broadcast: BinegativityReport

    @property
    def valid(self) -> bool:
        return (self.gate_target.positive and self.gate_broadcast.positive
                and self.cost_standard.applicability is Applicability.EXACT_FORMULA
                and math.isfinite(self.gap))

    def superadditivity_violation(self) -> float:
        """cost(rho) + cost(rho) - cost(mu), read off the certificate.

        Twice the gap, since the catalytic upper bound is cost(mu) / 2;
        both binegativity gates must be positive.
        """
        if not (self.gate_target.positive and self.gate_broadcast.positive):
            raise ValueError("states must have positive binegativity")
        return 2.0 * self.cost_standard.bits - 2.0 * self.cost_upper_catalytic


class NonconvexityWitness(NamedTuple):
    """Midpoint-convexity violation record for a pair of states."""

    sigma0: DensityOperator
    sigma1: DensityOperator
    midpoint: DensityOperator
    cost0: CostValue
    cost1: CostValue
    cost_midpoint: CostValue
    violation: float
    broadcast_cost: CostValue | None
    chain_ok: bool | None


def run_prop1_protocol(mu: DensityOperator, rho: DensityOperator, n: int = 1) -> ProtocolTrace:
    """Execute the two-stage catalytic dilution protocol at the state level.

    Stage one places n copies of the broadcast state on the system pair
    (S, S') next to the catalyst copies rho^n on C; stage two swaps every
    S' subsystem with its catalyst partner.  The returned residuals
    measure the final catalyst marginal against rho^n and the final
    system marginal against rho^n x rho^n.
    """
    check_power_budget(mu.dim * rho.dim, n, "protocol instance")
    report = verify_broadcast(mu, rho, 2)
    if not report.is_broadcast:
        raise ValueError(f"not a 2-copy broadcast: residuals {report.residuals}")

    k = rho.shape.n_factors
    system = tensor_power(mu.op, n)
    catalyst = tensor_power(rho.op, n)
    stage1 = DensityOperator(tensor(system, catalyst))

    # swap S'_i (second half of broadcast copy i) with catalyst block C_i
    perm = list(range(3 * k * n))
    for i in range(n):
        s_prime = range(2 * k * i + k, 2 * k * i + 2 * k)
        c_block = range(2 * k * n + k * i, 2 * k * n + k * (i + 1))
        for a, b in zip(s_prime, c_block):
            perm[a], perm[b] = perm[b], perm[a]
    swapped = permute_factors(stage1.op, perm)
    stage2 = DensityOperator(swapped)

    catalyst_out = partial_trace(swapped, keep=range(2 * k * n, 3 * k * n))
    system_out = partial_trace(swapped, keep=range(2 * k * n))
    residuals = {
        "catalyst": trace_distance(catalyst_out, tensor_power(rho.op, n)),
        "system": trace_distance(system_out, tensor_power(rho.op, 2 * n)),
    }
    return ProtocolTrace(
        stages=(("dilution-output", stage1), ("after-swap", stage2)),
        final_catalyst=DensityOperator(catalyst_out),
        final_system=DensityOperator(system_out),
        residuals=residuals,
        tol=PROTOCOL_TOL,
    )


def catalytic_cost_upper_bound(rho: DensityOperator | IsotropicCopies,
                               mu: DensityOperator | IsotropicCopies) -> AdvantageCertificate:
    """Certificate for: catalytic exact cost <= half the exact cost of a broadcast.

    rho and mu are both dense or both ``IsotropicCopies``.
    """
    report = verify_broadcast(mu, rho, 2)
    if not report.is_broadcast:
        raise ValueError(f"not a 2-copy broadcast: residuals {report.residuals}")
    gate_rho, cost_rho = gated_ppt_cost(rho)
    gate_mu, cost_mu = gated_ppt_cost(mu)
    upper = cost_mu.bits / 2.0
    return AdvantageCertificate(
        cost_standard=cost_rho,
        cost_upper_catalytic=upper,
        gap=cost_rho.bits - upper,
        gate_target=gate_rho,
        gate_broadcast=gate_mu,
    )


def nonconvexity_witness(s0: DensityOperator, s1: DensityOperator,
                         gamma: DensityOperator | None = None) -> NonconvexityWitness:
    """Evaluate the midpoint-convexity defect of the exact cost at (s0 + s1) / 2.

    With ``gamma`` supplied the exact work cost against that reference is
    used instead of the PPT entanglement cost; both inputs must then be
    diagonal.  A positive violation is completed into the full chained
    inequality through the symmetric two-copy broadcast.
    """
    if s0.shape != s1.shape:
        raise ValueError("witness states must share a shape")
    midpoint = density_from_matrix((s0.entries + s1.entries) / 2.0, s0.shape)

    if gamma is None:
        gate0, cost0 = gated_ppt_cost(s0)
        gate1, cost1 = gated_ppt_cost(s1)
        if not (gate0.positive and gate1.positive):
            raise ValueError("witness states must have positive binegativity")
        _, cost_mid = gated_ppt_cost(midpoint)
        cost_of = lambda state, ref: gated_ppt_cost(state)[1]
        reference2 = None
    else:
        def cost_of(state, ref):
            return CostValue(work_cost_semiclassical(state, ref), Applicability.EXACT_FORMULA)
        reference2 = DensityOperator(tensor(gamma.op, gamma.op))
        cost0 = cost_of(s0, gamma)
        cost1 = cost_of(s1, gamma)
        cost_mid = cost_of(midpoint, gamma)

    violation = cost_mid.bits - (cost0.bits + cost1.bits) / 2.0
    broadcast_cost = None
    chain_ok = None
    if violation > 0:
        mu = symmetric_two_broadcast(s0, s1)
        broadcast_cost = cost_of(mu, reference2)
        chain_ok = (broadcast_cost.bits <= cost0.bits + cost1.bits + 1e-10
                    and cost0.bits + cost1.bits < 2.0 * cost_mid.bits + 1e-10)
    return NonconvexityWitness(
        sigma0=s0, sigma1=s1, midpoint=midpoint,
        cost0=cost0, cost1=cost1, cost_midpoint=cost_mid,
        violation=violation, broadcast_cost=broadcast_cost, chain_ok=chain_ok,
    )


def superadditivity_violation(rho: DensityOperator | IsotropicCopies,
                              mu: DensityOperator | IsotropicCopies) -> float:
    """cost(rho) + cost(rho) - cost(mu) for a verified broadcast mu.

    A strictly positive return exhibits the failure of strong
    superadditivity with the broadcast as the joint state.
    """
    return catalytic_cost_upper_bound(rho, mu).superadditivity_violation()


def thermo_advantage(p: float) -> AdvantageCertificate:
    """Catalytic advantage for the exact work cost of mixing a pure level with heat.

    The target is the even mixture of the ground state with the Gibbs
    qubit at excited population p; the broadcast correlates the two
    components across the copies.
    """
    gamma = gibbs_qubit(p)
    ground = classical_mix(0.0, p)
    rho = classical_mix(0.5, p)
    mu = symmetric_two_broadcast(ground, gamma)
    gamma2 = DensityOperator(tensor(gamma.op, gamma.op))
    standard = work_cost_semiclassical(rho, gamma)
    upper = work_cost_semiclassical(mu, gamma2) / 2.0
    return AdvantageCertificate(
        cost_standard=CostValue(standard, Applicability.EXACT_FORMULA),
        cost_upper_catalytic=upper,
        gap=standard - upper,
        gate_target=binegativity(rho),
        gate_broadcast=binegativity(mu),
    )


def pure_additivity_check(psi: DensityOperator, phi: DensityOperator) -> float:
    """Schmidt-rank multiplicativity defect |cost(psi x phi) - cost(psi) - cost(phi)|.

    Zero for all bipartite pure states; the exact LOCC cost is additive
    on pure tensor factors.
    """
    joint = merge_factors(tensor(psi.op, phi.op))
    total = exact_locc_cost_pure(DensityOperator(joint))
    return abs(total - exact_locc_cost_pure(psi) - exact_locc_cost_pure(phi))


def distillation_no_advantage_check(d: int) -> bool:
    """Confirm the broadcast set of the maximally entangled state is a single point.

    The two-copy broadcast set of the rank-one target, computed exactly in
    the per-copy twirl algebra (the path of the ``rigidity`` scenario),
    must lie within RIGIDITY_TOL of its double tensor power, which
    collapses the distillation bound to the trivial one.
    """
    return max_twirled_distance_to_product(d) <= RIGIDITY_TOL
