"""n-copy broadcast verification and the purity-rigidity projection check.

The two-copy broadcast set S = {X >= 0 : Tr_1 X = Tr_2 X = phi} of a pure
phi is the single point phi x phi.  ``sample_two_copy_broadcasts`` tests
this by dense Douglas-Rachford from random d^4 x d^4 starts, for any
pure phi.  For phi = Phi_d, ``max_twirled_distance_to_product`` decides
it exactly in the per-copy twirl algebra: (U x conj U) x (V x conj V)
fixes phi, so it maps S into S, and the twirl of a point of S has four
coefficients on span{Phi, 1 - Phi}^(x 2) (``IsotropicCopies``, k = 2).
There the marginal equations are a line and positivity cuts it to a
segment, computed in closed form, which is the single point phi x phi;
since phi x phi is pure, a twirl average equal to it forces every point
of S to equal it.  The ``rigidity`` scenario reads that segment's
distance to phi x phi, with no draw and no matrix.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .measures import IsotropicCopies
from .operators import (
    DensityOperator,
    check_entry_budget,
    density_from_matrix,
    partial_trace,
    trace_distance,
)
from .projections import Cone, FeasibilityResult, random_density_matrix, solve_feasibility

# the settings of the dense search, verify_broadcast's default and the rigidity bound
FEASIBILITY_TOL = 1e-9
MAX_CYCLES = 5000
BROADCAST_TOL = 1e-9
RIGIDITY_TOL = 1e-6


class BroadcastReport(NamedTuple):
    """Per-copy marginal trace distances of a candidate n-copy broadcast."""

    n: int
    residuals: tuple[float, ...]
    is_broadcast: bool
    tol: float


def verify_broadcast(mu: DensityOperator | IsotropicCopies,
                     rho: DensityOperator | IsotropicCopies, n: int,
                     tol: float = BROADCAST_TOL) -> BroadcastReport:
    """Check that every single-copy marginal of mu equals rho.

    mu and rho are both dense, or both ``IsotropicCopies``, whose
    marginals and trace distances are closed forms.
    """
    if n < 1:
        raise ValueError("copy count must be >= 1")
    if type(mu) is not type(rho):
        raise ValueError("broadcast and target must be both dense or both IsotropicCopies")
    if isinstance(rho, IsotropicCopies):
        # (d, k) fixes the shape: one (d, d) factor per copy
        k = rho.coeffs.ndim
        matches = (mu.d, mu.coeffs.ndim) == (rho.d, n * k)
    else:
        # n_factors first: a huge n is a mismatch, which rho.shape.copies(n) would refuse
        k = rho.shape.n_factors
        matches = mu.shape.n_factors == n * k and mu.shape == rho.shape.copies(n)
    if not matches:
        raise ValueError(
            f"broadcast shape {mu.shape.factors} is not {n} copies of {rho.shape.factors}")
    residuals = []
    for i in range(n):
        keep = set(range(i * k, (i + 1) * k))
        if isinstance(mu, IsotropicCopies):
            residuals.append(mu.marginal(keep).trace_distance(rho))
        else:
            residuals.append(trace_distance(partial_trace(mu.op, keep), rho.op))
    return BroadcastReport(n=n, residuals=tuple(residuals),
                           is_broadcast=max(residuals) <= tol, tol=tol)


# ---------------------------------------------------------------------------
# projection onto the two-copy broadcast constraint set


def _marginal_projections(phi: np.ndarray):
    """Joint orthogonal projection onto {Tr_2 X = phi, Tr_1 X = phi}.

    Both functions act on a matrix or on each matrix of a stack; the
    residuals, of the marginal equations alone (a candidate is the engine's
    PSD readout), come back with the stack's leading shape.
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
        return {
            "marginal_1": np.abs(np.einsum("...aibi->...ab", t) - phi).max(axis=(-2, -1)),
            "marginal_2": np.abs(np.einsum("...iaib->...ab", t) - phi).max(axis=(-2, -1)),
        }

    return proj, residual


def project_to_two_copy_broadcast(phi: DensityOperator, start: np.ndarray) -> FeasibilityResult:
    """Project a Hermitian start matrix onto the two-copy broadcast set of phi."""
    marginals, residual = _marginal_projections(phi.entries)
    return solve_feasibility([marginals, Cone()], start, residual, tol=FEASIBILITY_TOL,
                             max_iter=MAX_CYCLES)


def sample_two_copy_broadcasts(phi: DensityOperator, n_starts: int = 50,
                               seed: int = 0) -> list[DensityOperator]:
    """Random-start projections onto the broadcast set of phi.

    Each start is an independent Ginibre density matrix
    (``random_density_matrix``), drawn in order from one generator seeded
    with ``seed``, in the dtype of ``phi.entries``; starts over the entry
    budget are refused before any is drawn.  For a real phi the set is
    closed under entrywise conjugation, so it is the single point phi x phi
    exactly when its real symmetric part is, and the search runs in
    float64.  Each start is projected on its own
    (``project_to_two_copy_broadcast``).  A run that fails to reach the
    feasibility tolerance raises, since the set is nonempty.
    """
    if n_starts < 1:
        raise ValueError("start count must be >= 1")
    check_entry_budget(phi.dim ** 2, "two-copy broadcast projection")
    shape = phi.shape.copies(2)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n_starts):
        start = random_density_matrix(phi.dim ** 2, rng, phi.entries.dtype)
        result = project_to_two_copy_broadcast(phi, start)
        if not result.converged:
            raise RuntimeError(f"projection start {len(points)} did not reach "
                               f"feasibility: {result.residuals}")
        m = result.point
        points.append(density_from_matrix(m / np.trace(m).real, shape))
    return points


# ---------------------------------------------------------------------------
# the same set in the per-copy twirl algebra of Phi_d, exactly


def _twirled_broadcast_segment(d: int):
    """Phi_d's broadcast set in twirl coefficients: the segment e00 + [lo, hi] u.

    A point is c = (c00, c01, c10, c11), the coefficients of
    ``IsotropicCopies`` (k = 2), and the PSD cone is c >= 0.  With
    D = d^2 - 1, the rank of 1 - Phi, Tr_2 X = Phi and Tr_1 X = Phi read
    c00 + D c01 = 1, c10 + D c11 = 0, c00 + D c10 = 1 (the fourth row
    follows): the line e00 + t u, u = (D^2, -D, -D, 1).  Coordinate i of
    c >= 0 bounds t by -e00_i / u_i, from below where u_i > 0 and from
    above where u_i < 0.  Returns u, lo and hi; lo = hi = 0 at every d,
    so the set is the single point e00.
    """
    rank = d * d - 1.0  # D, the rank of 1 - Phi
    direction = np.array([rank * rank, -rank, -rank, 1.0])
    bounds = -np.eye(4)[0] / direction  # u has no zero coordinate
    return direction, float(bounds[direction > 0].max()), float(bounds[direction < 0].min())


def max_twirled_distance_to_product(d: int) -> float:
    """Largest trace distance from phi x phi, phi = Phi_d, of a point of phi's broadcast set.

    The rigidity claim in one number: every point of Phi_d's two-copy
    broadcast set lies within this distance of Phi_d x Phi_d.  The set is
    the exact segment of ``_twirled_broadcast_segment``, and a trace
    distance is convex, so the largest is at one of its two end points,
    taken as ``IsotropicCopies``: 0.0, with no random draw and no BLAS or
    LAPACK call.  A d < 2, which has no segment, is refused first, then a
    d whose d^4 x d^4 dense start (``sample_two_copy_broadcasts``) would
    exceed MAX_ENTRIES, on the integer d before any float arithmetic on it.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    check_entry_budget(d ** 4, "two-copy broadcast start")
    direction, lo, hi = _twirled_broadcast_segment(d)
    phi = IsotropicCopies.isotropic(d, 1.0)
    product = IsotropicCopies.symmetric_two_broadcast(phi, phi)
    ends = (IsotropicCopies(d, (np.eye(4)[0] + t * direction).reshape(2, 2)) for t in (lo, hi))
    return max(end.trace_distance(product) for end in ends)
