"""n-copy broadcast verification and the purity-rigidity projection check."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import IsotropicCopies
from .operators import (
    MAX_ENTRIES,
    DensityOperator,
    FactorShape,
    check_entry_budget,
    density_from_matrix,
    partial_trace,
    require_pure,
    tensor,
    trace_distance,
)
from .projections import (
    FeasibilityResult,
    project_psd,
    random_density_matrix,
    solve_feasibility_batch,
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


def verify_broadcast(mu: DensityOperator | IsotropicCopies,
                     rho: DensityOperator | IsotropicCopies, n: int,
                     tol: float = 1e-9) -> BroadcastReport:
    """Check that every single-copy marginal of mu equals rho.

    mu and rho are both dense, or both ``IsotropicCopies``, whose
    marginals and trace distances are closed forms.
    """
    if n < 1:
        raise ValueError("copy count must be >= 1")
    if type(mu) is not type(rho):
        raise ValueError("broadcast and target must be both dense or both IsotropicCopies")
    # n_factors first: a huge n is a mismatch, which rho.shape.copies(n) would refuse
    if mu.shape.n_factors != n * rho.shape.n_factors or mu.shape != rho.shape.copies(n):
        raise ValueError(
            f"broadcast shape {mu.shape.factors} is not {n} copies of {rho.shape.factors}")
    residuals = []
    for i in range(n):
        keep = _copy_factor_indices(rho.shape, i)
        if isinstance(mu, IsotropicCopies):
            residuals.append(mu.marginal(keep).trace_distance(rho))
        else:
            residuals.append(trace_distance(partial_trace(mu.op, keep), rho.op))
    return BroadcastReport(n=n, residuals=tuple(residuals),
                           is_broadcast=max(residuals) <= tol, tol=tol)


def pure_broadcast_uniqueness(mu: DensityOperator, phi: DensityOperator,
                              tol: float = 1e-9, purity_tol: float = 1e-9) -> bool:
    """For pure phi the two-copy broadcast set is the single point phi x phi.

    Returns whether a verified broadcast mu coincides with it; a False
    return flags a numerical violation of the purity argument.
    """
    require_pure(phi, purity_tol, "reference state")
    report = verify_broadcast(mu, phi, 2, tol=max(tol, 1e-9))
    if not report.is_broadcast:
        raise ValueError(f"candidate is not a 2-copy broadcast: residuals {report.residuals}")
    return trace_distance(mu.op, tensor(phi.op, phi.op)) <= tol


# ---------------------------------------------------------------------------
# projection onto the two-copy broadcast constraint set


def _marginal_projections(phi: np.ndarray):
    """Joint orthogonal projection onto {Tr_2 X = phi, Tr_1 X = phi}.

    Both functions act on a matrix or on each matrix of a stack; the
    residuals come back with the stack's leading shape.
    """
    dc = phi.shape[0]
    eye = np.eye(dc)

    def proj(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        t = out.reshape(*x.shape[:-2], dc, dc, dc, dc)
        r1 = np.einsum("...aibi->...ab", t) - phi
        r2 = np.einsum("...iaib->...ab", t) - phi
        # minimal-norm multipliers; the one-dimensional Gram degeneracy is
        # split symmetrically between the two constraints
        s = (np.trace(r1, axis1=-2, axis2=-1)
             + np.trace(r2, axis1=-2, axis2=-1)).real[..., None, None] / (4.0 * dc)
        y1 = (r1 - s * eye) / dc
        y2 = (r2 - s * eye) / dc
        # subtract y1 (x) I and I (x) y2 through writable diagonal views
        np.einsum("...aibi->...aib", t)[...] -= y1[..., :, None, :]
        np.einsum("...aiaj->...iaj", t)[...] -= y2[..., :, None, :]
        return out

    def residual(x: np.ndarray) -> dict[str, np.ndarray]:
        t = x.reshape(*x.shape[:-2], dc, dc, dc, dc)
        lo = np.linalg.eigvalsh(x).min(axis=-1)
        return {
            "marginal_1": np.abs(np.einsum("...aibi->...ab", t) - phi).max(axis=(-2, -1)),
            "marginal_2": np.abs(np.einsum("...iaib->...ab", t) - phi).max(axis=(-2, -1)),
            "psd": np.maximum(0.0, -lo),
        }

    return proj, residual


def _project_starts(phi: DensityOperator, starts: np.ndarray, tol: float,
                    max_iter: int) -> list[FeasibilityResult]:
    proj_affine, residual = _marginal_projections(phi.entries)
    return solve_feasibility_batch([proj_affine, project_psd], starts, residual,
                                   tol=tol, max_iter=max_iter, check_every=5)


def project_to_two_copy_broadcast(phi: DensityOperator, start: np.ndarray,
                                  tol: float = 1e-9, max_iter: int = 5000) -> FeasibilityResult:
    """Project a Hermitian start matrix onto the two-copy broadcast set of phi."""
    return _project_starts(phi, np.asarray(start)[None], tol, max_iter)[0]


def sample_two_copy_broadcasts(phi: DensityOperator, n_starts: int = 50, seed: int = 0,
                               feasibility_tol: float = 1e-9,
                               max_iter: int = 5000) -> list[DensityOperator]:
    """Random-start projections onto the broadcast set of phi.

    Each start is an independent Ginibre density matrix, drawn in order
    from one generator, in the dtype of ``phi.entries``.  For a real phi
    the set is closed under entrywise conjugation, so it is the single
    point phi x phi exactly when its real symmetric part is, and the
    search runs in float64.  The starts are solved in lockstep, in blocks
    whose stack holds at most MAX_ENTRIES entries.  A run that fails to
    reach the feasibility tolerance raises, since the set is nonempty.
    """
    dim = phi.dim ** 2
    check_entry_budget(dim, "two-copy broadcast projection")
    block = MAX_ENTRIES // (dim * dim)
    rng = np.random.default_rng(seed)
    shape = phi.shape.copies(2)
    points = []
    for first in range(0, n_starts, block):
        # drawing block by block keeps the order of one up-front draw
        starts = np.stack([random_density_matrix(dim, rng, phi.entries.dtype)
                           for _ in range(min(block, n_starts - first))])
        for trial, result in enumerate(
                _project_starts(phi, starts, feasibility_tol, max_iter), start=first):
            if not result.converged:
                raise RuntimeError(
                    f"projection start {trial} did not reach feasibility: {result.residuals}")
            m = result.point
            points.append(density_from_matrix(m / np.trace(m).real, shape))
    return points
