"""n-copy broadcast verification and the purity-rigidity projection check.

The two-copy broadcast set S = {X >= 0 : Tr_1 X = Tr_2 X = phi} of a pure
phi is the single point phi x phi.  ``sample_two_copy_broadcasts`` tests
this by dense Douglas-Rachford from random d^4 x d^4 starts, for any
pure phi.  For phi = Phi_d, ``sample_twirled_two_copy_broadcasts`` runs
the same test in the per-copy twirl algebra: (U x conj U) x (V x conj V)
fixes phi, so it maps S into S, and twirling a start leaves four
coefficients on span{Phi, 1 - Phi}^(x 2) (``IsotropicCopies``, k = 2).
There the marginal equations and positivity leave only phi x phi, and
since phi x phi is pure, a twirl average equal to it forces every point
of S to equal it.  ``max_twirled_distance_to_product`` is that test as
one number, for the ``rigidity`` scenario and the distillation check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import IsotropicCopies, copy_ranks, twirl_coefficients
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
    clip,
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


def _marginals_and_cone(proj_affine, proj_cone):
    """Projection onto (marginal equations) x (cone), block by block of a stack."""
    def project(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        out[:, 0] = proj_affine(z[:, 0])
        out[:, 1] = proj_cone(z[:, 1])
        return out

    return project


def _project_starts(phi: DensityOperator, starts: np.ndarray, tol: float,
                    max_iter: int) -> list[FeasibilityResult]:
    proj_affine, residual = _marginal_projections(phi.entries)
    return solve_feasibility_batch(_marginals_and_cone(proj_affine, project_psd), 2, starts,
                                   residual, tol=tol, max_iter=max_iter, check_every=5)


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
    shape = phi.shape.copies(2)
    points = []
    for starts in _start_blocks(dim, n_starts, seed, phi.entries.dtype):
        for result in _project_starts(phi, starts, feasibility_tol, max_iter):
            if not result.converged:
                raise RuntimeError(f"projection start {len(points)} did not reach "
                                   f"feasibility: {result.residuals}")
            m = result.point
            points.append(density_from_matrix(m / np.trace(m).real, shape))
    return points


def _start_blocks(dim: int, n_starts: int, seed: int, dtype: np.dtype):
    """The seeded dim x dim starts, drawn in order from one generator, in stacks.

    A stack holds at most MAX_ENTRIES entries (the callers check that one
    start fits); drawing block by block keeps the order of one up-front draw.
    """
    block = MAX_ENTRIES // (dim * dim)
    rng = np.random.default_rng(seed)
    for first in range(0, n_starts, block):
        yield np.stack([random_density_matrix(dim, rng, dtype)
                        for _ in range(min(block, n_starts - first))])


# ---------------------------------------------------------------------------
# the same search in the per-copy twirl algebra of Phi_d


def _twirled_marginal_projections(d: int):
    """Projection onto the marginal equations of Phi_d's broadcast set, and residuals.

    A point is a diagonal 4 x 4 matrix y = sqrt(r) c, with c the
    coefficients (c00, c01, c10, c11) of ``IsotropicCopies`` and
    r = (1, D) x (1, D) their ranks, D = d^2 - 1: in these coordinates
    the Frobenius norm is the Hilbert-Schmidt norm of the state, and the
    PSD projection clips the diagonal (``projections.clip``).  Tr_2 X = Phi and
    Tr_1 X = Phi read c00 + D c01 = 1, c10 + D c11 = 0, c00 + D c10 = 1
    (the fourth row follows), which in y is the line
    e00 + t (D, -sqrt D, -sqrt D, 1).
    A marginal residual is the largest deviation of the marginal's
    coefficients from Phi's (1, 0): its operator-norm distance from Phi.
    """
    rank = d * d - 1.0  # D, the rank of 1 - Phi
    root = np.sqrt(copy_ranks(d, 2).ravel())
    unit = np.array([rank, -root[1], -root[1], 1.0]) / (rank + 1.0)
    phi = np.array([1.0, 0.0])  # the marginal's coefficients

    def proj(x: np.ndarray) -> np.ndarray:
        t = (np.diagonal(x, axis1=1, axis2=2) * unit).sum(axis=1) - unit[0]
        out = np.zeros_like(x)
        diagonal = np.einsum("sii->si", out)
        diagonal[...] = t[:, None] * unit
        diagonal[:, 0] += 1.0
        return out

    def residual(x: np.ndarray) -> dict[str, np.ndarray]:
        y = np.diagonal(x, axis1=1, axis2=2)
        c = (y / root).reshape(-1, 2, 2)
        return {
            "marginal_1": np.abs(c[:, :, 0] + rank * c[:, :, 1] - phi).max(axis=1),
            "marginal_2": np.abs(c[:, 0] + rank * c[:, 1] - phi).max(axis=1),
            "psd": np.maximum(0.0, -y.min(axis=1)),
        }

    return root, proj, residual


def sample_twirled_two_copy_broadcasts(d: int, n_starts: int = 50,
                                       seed: int = 0) -> list[IsotropicCopies]:
    """``sample_two_copy_broadcasts`` for phi = Phi_d, in 4 coefficients a start.

    The starts are the dense search's, drawn in order from one generator
    as real d^4 x d^4 density matrices (Phi_d is real) and twirled a
    stack at a time (``twirl_coefficients``); the solve runs on diagonal
    (s, 4, 4) ``float64`` stacks (see ``_twirled_marginal_projections``),
    with no eigendecomposition.
    The feasibility tolerance (1e-9) and cycle cap (5000) are the dense
    search's defaults; a run that fails to reach the tolerance raises.
    """
    dim = d ** 4
    check_entry_budget(dim, "two-copy broadcast start")
    root, proj_affine, residual = _twirled_marginal_projections(d)
    coeffs = np.concatenate([twirl_coefficients(d, starts).reshape(-1, 4)
                             for starts in _start_blocks(dim, n_starts, seed, np.float64)])
    starts = np.zeros((n_starts, 4, 4))
    np.einsum("sii->si", starts)[...] = root * coeffs
    results = solve_feasibility_batch(_marginals_and_cone(proj_affine, clip), 2, starts,
                                      residual, readout=clip, tol=1e-9, max_iter=5000,
                                      check_every=5)
    points = []
    for trial, result in enumerate(results):
        if not result.converged:
            raise RuntimeError(
                f"projection start {trial} did not reach feasibility: {result.residuals}")
        y = np.diagonal(result.point)
        points.append(IsotropicCopies(d, (y / root / (y * root).sum()).reshape(2, 2)))
    return points


def max_twirled_distance_to_product(d: int, n_starts: int = 50, seed: int = 0) -> float:
    """Largest trace distance from phi x phi, phi = Phi_d, of the twirled search's points.

    The rigidity claim in one number: every sampled point of Phi_d's
    two-copy broadcast set lies within this distance of Phi_d x Phi_d.
    """
    phi = IsotropicCopies.isotropic(d, 1.0)
    product = IsotropicCopies.symmetric_two_broadcast(phi, phi)
    points = sample_twirled_two_copy_broadcasts(d, n_starts=n_starts, seed=seed)
    return max(point.trace_distance(product) for point in points)
