"""Scalar resource measures: logarithmic negativity, exact PPT cost with its
binegativity gate, max-relative entropy, Schmidt rank, and semiclassical
work cost."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    FactorShape,
    hermitian_spectrum,
    partial_trace,
    relabel,
    require_pure,
    trace_distance,
)
from .states import isotropic_twirl, max_entangled_fraction

# Eigendirections of the reference below this threshold count as outside
# its support, so that infinite divergences are decidable numerically.
SUPPORT_TOL = 1e-11


class Applicability(enum.Enum):
    EXACT_FORMULA = "exact-formula"
    UPPER_BOUND_ONLY = "upper-bound-only"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class CostValue:
    """A cost in bits together with the scope of the formula that produced it."""

    bits: float
    applicability: Applicability

    def __post_init__(self) -> None:
        if math.isfinite(self.bits) and self.applicability is Applicability.UNDEFINED:
            raise ValueError("a finite cost cannot have undefined applicability")


@dataclass(frozen=True)
class BinegativityReport:
    min_eigenvalue: float
    positive: bool
    tol: float


def log_negativity(rho: DensityOperator) -> float:
    """log2 of the trace norm of the partial transpose; zero on PPT states."""
    w, _ = rho.partial_transpose_eigh
    return max(0.0, math.log2(float(np.abs(w).sum())))


def binegativity(rho: DensityOperator, tol: float = 1e-10) -> BinegativityReport:
    """Min eigenvalue of the twice partially transposed absolute value."""
    lo = rho.binegativity_min_eigenvalue
    return BinegativityReport(min_eigenvalue=lo, positive=lo >= -tol, tol=tol)


def gated_ppt_cost(rho: DensityOperator,
                   gate_tol: float = 1e-10) -> tuple[BinegativityReport, CostValue]:
    """Binegativity gate together with the exact PPT cost it scopes.

    The cost equals the logarithmic negativity whenever the gate passes;
    outside that regime no formula is claimed and the cost is reported
    as undefined.
    """
    gate = binegativity(rho, tol=gate_tol)
    if gate.positive:
        return gate, CostValue(log_negativity(rho), Applicability.EXACT_FORMULA)
    return gate, CostValue(math.nan, Applicability.UNDEFINED)


def exact_ppt_cost(rho: DensityOperator, gate_tol: float = 1e-10) -> CostValue:
    """Exact preparation cost under PPT operations; see ``gated_ppt_cost``."""
    return gated_ppt_cost(rho, gate_tol)[1]


def d_max(rho: DensityOperator, sigma: DensityOperator, support_tol: float = SUPPORT_TOL) -> float:
    """Max-relative entropy log2 inf{s : rho <= s * sigma}.

    Returns +inf when the support of rho leaks outside the support of
    sigma by more than ``support_tol``.
    """
    if rho.shape != sigma.shape:
        raise ValueError("states must share a shape")
    w, v = hermitian_spectrum(sigma.entries, vectors=True)
    inside = w > support_tol
    if not inside.all():
        v_out = v[:, ~inside]
        leak = float(np.einsum("ij,jk,ki->", v_out.conj().T, rho.entries, v_out).real)
        if leak > support_tol:
            return math.inf
    v_in = v[:, inside]
    core = (v_in / np.sqrt(w[inside])).conj().T @ rho.entries @ (v_in / np.sqrt(w[inside]))
    top = float(hermitian_spectrum(core).max())
    return math.log2(max(top, 1e-300))


def d_max_to_ppt_isotropic(rho: DensityOperator, symmetry_tol: float = 1e-10) -> float:
    """Max-relative entropy to the PPT set for isotropic-symmetric states.

    Twirling reduces the feasible set to the isotropic PPT segment with
    entangled fraction g in (0, 1/d] (Vollbrecht-Werner).  An isotropic
    rho_f commutes with every sigma_g, so D_max = log2 max(f/g, (1-f)/(1-g)),
    whose minimum over the segment is max(0, log2(d f)).
    """
    if trace_distance(rho.op, isotropic_twirl(rho).op) > symmetry_tol:
        raise ValueError("state is not isotropic-symmetric within tolerance")
    (d, _), = rho.shape.factors
    f = max_entangled_fraction(rho)
    if f <= 1.0 / d + 1e-12:
        return 0.0
    return math.log2(d * f)


def _pure_state_marginal(psi: DensityOperator, purity_tol: float = 1e-9) -> np.ndarray:
    if psi.shape.n_factors != 1:
        raise ValueError("expected a single bipartite factor; merge factors first")
    require_pure(psi, purity_tol)
    (da, db), = psi.shape.factors
    split = relabel(psi.op, FactorShape(((da, 1), (1, db))))
    marginal = partial_trace(split, keep={0})
    return hermitian_spectrum(marginal.entries)


def schmidt_rank(psi: DensityOperator, tol: float = 1e-9) -> int:
    """Number of marginal eigenvalues above tol for a bipartite pure state."""
    return int((_pure_state_marginal(psi) > tol).sum())


def exact_locc_cost_pure(psi: DensityOperator, tol: float = 1e-9) -> float:
    """log2 of the Schmidt rank: the exact LOCC preparation cost of a pure state."""
    return math.log2(schmidt_rank(psi, tol))


def work_cost_semiclassical(rho: DensityOperator, gamma: DensityOperator,
                            diag_tol: float = 1e-10) -> float:
    """Exact work cost D_max(rho || gamma) for commuting (diagonal) states."""
    if rho.shape != gamma.shape:
        raise ValueError("states must share a shape")
    for name, s in (("state", rho), ("reference", gamma)):
        off = s.entries - np.diag(np.diag(s.entries))
        if np.abs(off).max() > diag_tol:
            raise ValueError(f"{name} is not diagonal in the supplied basis")
    p = np.diag(rho.entries).real
    g = np.diag(gamma.entries).real
    outside = g <= SUPPORT_TOL
    if outside.any() and p[outside].sum() > SUPPORT_TOL:
        return math.inf
    ratios = p[~outside] / g[~outside]
    return math.log2(max(float(ratios.max()), 1e-300))
