"""n-copy broadcast verification and the purity-rigidity projection check."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    FactorShape,
    density_from_matrix,
    hermitian_part,
    partial_trace,
    tensor,
    trace_distance,
)
from .projections import (
    FeasibilityResult,
    project_psd,
    random_density_matrix,
    solve_feasibility,
)


@dataclass(frozen=True)
class BroadcastReport:
    """Per-copy marginal trace distances of a candidate n-copy broadcast."""

    n: int
    residuals: tuple[float, ...]
    is_broadcast: bool
    tol: float


def _copy_factor_indices(rho_shape: FactorShape, i: int) -> set[int]:
    k = rho_shape.n_factors
    return set(range(i * k, (i + 1) * k))


def verify_broadcast(mu: DensityOperator, rho: DensityOperator, n: int,
                     tol: float = 1e-9) -> BroadcastReport:
    """Check that every single-copy marginal of mu equals rho."""
    if n < 1:
        raise ValueError("copy count must be >= 1")
    if mu.shape != rho.shape.copies(n):
        raise ValueError(
            f"broadcast shape {mu.shape.factors} is not {n} copies of {rho.shape.factors}")
    residuals = []
    for i in range(n):
        marginal = partial_trace(mu.op, _copy_factor_indices(rho.shape, i))
        residuals.append(trace_distance(marginal, rho.op))
    return BroadcastReport(n=n, residuals=tuple(residuals),
                           is_broadcast=max(residuals) <= tol, tol=tol)


def pure_broadcast_uniqueness(mu: DensityOperator, phi: DensityOperator,
                              tol: float = 1e-9, purity_tol: float = 1e-9) -> bool:
    """For pure phi the two-copy broadcast set is the single point phi x phi.

    Returns whether a verified broadcast mu coincides with it; a False
    return flags a numerical violation of the purity argument.
    """
    top = float(np.linalg.eigvalsh(hermitian_part(phi.entries)).max())
    if top < 1.0 - purity_tol:
        raise ValueError(f"reference state is not pure: largest eigenvalue {top}")
    report = verify_broadcast(mu, phi, 2, tol=max(tol, 1e-9))
    if not report.is_broadcast:
        raise ValueError(f"candidate is not a 2-copy broadcast: residuals {report.residuals}")
    return trace_distance(mu.op, tensor(phi.op, phi.op)) <= tol


# ---------------------------------------------------------------------------
# projection onto the two-copy broadcast constraint set


def _marginal_projections(phi: np.ndarray):
    """Joint orthogonal projection onto {Tr_2 X = phi, Tr_1 X = phi}."""
    dc = phi.shape[0]
    eye = np.eye(dc)

    def proj(x: np.ndarray) -> np.ndarray:
        t4 = x.reshape(dc, dc, dc, dc)
        r1 = np.einsum("aibi->ab", t4) - phi
        r2 = np.einsum("iaib->ab", t4) - phi
        # minimal-norm multipliers; the one-dimensional Gram degeneracy is
        # split symmetrically between the two constraints
        t = (np.trace(r1) + np.trace(r2)).real / (4.0 * dc)
        y1 = (r1 - t * eye) / dc
        y2 = (r2 - t * eye) / dc
        return x - np.kron(y1, eye) - np.kron(eye, y2)

    def residual(x: np.ndarray) -> dict[str, float]:
        t4 = x.reshape(dc, dc, dc, dc)
        lo = float(np.linalg.eigvalsh(x).min())
        return {
            "marginal_1": float(np.abs(np.einsum("aibi->ab", t4) - phi).max()),
            "marginal_2": float(np.abs(np.einsum("iaib->ab", t4) - phi).max()),
            "psd": max(0.0, -lo),
        }

    return proj, residual


def project_to_two_copy_broadcast(phi: DensityOperator, start: np.ndarray,
                                  tol: float = 1e-9, max_iter: int = 5000) -> FeasibilityResult:
    """Project a Hermitian start matrix onto the two-copy broadcast set of phi."""
    proj_affine, residual = _marginal_projections(phi.entries)
    return solve_feasibility([proj_affine, project_psd], start, residual,
                             tol=tol, max_iter=max_iter, check_every=5)


def sample_two_copy_broadcasts(phi: DensityOperator, n_starts: int = 50, seed: int = 0,
                               feasibility_tol: float = 1e-9,
                               max_iter: int = 5000) -> list[DensityOperator]:
    """Random-start projections onto the broadcast set of phi.

    Each start is an independent Ginibre density matrix; a run that fails
    to reach the feasibility tolerance raises, since the set is nonempty.
    """
    rng = np.random.default_rng(seed)
    dim = phi.dim ** 2
    shape = phi.shape.copies(2)
    points = []
    for trial in range(n_starts):
        start = random_density_matrix(dim, rng)
        result = project_to_two_copy_broadcast(phi, start, tol=feasibility_tol,
                                               max_iter=max_iter)
        if not result.converged:
            raise RuntimeError(
                f"projection start {trial} did not reach feasibility: {result.residuals}")
        m = result.point
        points.append(density_from_matrix(m / np.trace(m).real, shape))
    return points
