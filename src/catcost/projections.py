"""Convex feasibility engine for intersections of matrix constraint sets.

Product-space Douglas-Rachford splitting over a list of projections onto
closed convex sets of Hermitian matrices.  Iterates are kept exactly on
the Hermitian subspace: the affine-projection formulas are only
orthogonal there, and anti-Hermitian rounding noise is otherwise
amplified by the reflections.

The engine runs a stack of starts in lockstep: every projection, the
readout and the residuals act on an ``(s, n, n)`` array at once, which
``np.linalg.eigh`` decomposes in one call.  Each start keeps its own
stopping bookkeeping and leaves the stack at the cycle it would have
stopped at if run alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import hermitian_part

Projection = Callable[[np.ndarray], np.ndarray]
ResidualFn = Callable[[np.ndarray], dict[str, float]]
BatchResidualFn = Callable[[np.ndarray], dict[str, np.ndarray]]


def _store_hermitian_part(out: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Write (m + m^dagger) / 2 into ``out``, a buffer other than ``m``; return it.

    The same arithmetic as ``hermitian_part(m)``, without its two temporaries.
    """
    out[...] = m.swapaxes(-1, -2)
    np.conjugate(out, out=out)
    out += m
    out /= 2
    return out


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm, per matrix of a stack.

    ``m`` must be Hermitian: ``eigh`` reads only its lower triangle.
    """
    w, v = np.linalg.eigh(m)
    scaled = v * np.clip(w, 0.0, None)[..., None, :]
    np.conjugate(v, out=v)  # v is ours: its conjugate in place, not a copy
    return _store_hermitian_part(scaled, scaled @ v.swapaxes(-1, -2))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-ensemble density matrix, optionally rank-deficient."""
    cols = dim if rank is None else rank
    g = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
    m = g @ g.conj().T
    return m / np.trace(m).real


@dataclass
class FeasibilityResult:
    """Outcome of a feasibility solve.

    ``best_history`` records the best-so-far maximum residual at every
    check, so the reported series is non-increasing by construction.
    """

    point: np.ndarray
    converged: bool
    stalled: bool
    iterations: int
    residuals: dict[str, float]
    best_history: list[float] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _update_in_place(y: np.ndarray, step: np.ndarray, avg: np.ndarray) -> None:
    """Set y to ``hermitian_part(y + step - avg)`` with no temporary stack.

    The sum accumulates in ``step``, the projection's output, and its
    Hermitian part is written into y's buffer.  Passing ``step`` in ends
    its life with this call, before the next projection allocates.
    """
    step += y
    step -= avg
    _store_hermitian_part(y, step)


def solve_feasibility_batch(
    projections: list[Projection],
    starts: np.ndarray,
    residual_fn: BatchResidualFn,
    readout: Projection = project_psd,
    tol: float = 1e-6,
    max_iter: int = 20000,
    check_every: int = 10,
    stall_window: int = 500,
    stall_rtol: float = 1e-9,
) -> list[FeasibilityResult]:
    """Run product-space Douglas-Rachford on a stack of starts in lockstep.

    The governing sequence holds one ``(s, n, n)`` stack per constraint
    set; each cycle reflects their average through every set.
    ``readout`` maps the average to the candidate points, and
    ``residual_fn`` returns one ``(s,)`` array per residual name.  A start
    stops when its best maximum residual reaches ``tol``, on a stall (no
    relative improvement of it over ``stall_window`` cycles; infeasible
    problems end up here), or at ``max_iter``.  Results come back in the
    order of the starts.

    Each projection must return a writable array of its argument's dtype
    that no one else holds, such as a fresh array or the argument itself:
    the update is accumulated into it.  The stacks keep the dtype of
    ``starts``, so real symmetric starts with real projections stay real.
    """
    k = len(projections)
    y = [hermitian_part(np.asarray(starts)) for _ in projections]
    best_point = readout(y[0])
    best_res = residual_fn(best_point)
    best_max = np.max(list(best_res.values()), axis=0)
    history = [[float(b)] for b in best_max]
    last_improvement = np.zeros(len(best_point), dtype=int)
    live = np.arange(len(best_point))  # input position of each start left in the stack
    results: list[FeasibilityResult | None] = [None] * len(best_point)

    def retire(done, converged, stalled, it) -> None:
        for j in np.flatnonzero(done):
            results[live[j]] = FeasibilityResult(
                best_point[j].copy(), bool(converged[j]), bool(stalled[j]), it,
                {name: float(r[j]) for name, r in best_res.items()}, history[j])

    it = 0
    while live.size and it < max_iter:
        it += 1
        # y holds exactly Hermitian stacks, and so do avg and 2 avg - y[i]:
        # one symmetrization per update keeps it that way
        avg = sum(y) / k
        for i, proj in enumerate(projections):
            _update_in_place(y[i], proj(2.0 * avg - y[i]), avg)
        if it % check_every and it != max_iter:
            continue
        candidate = readout(sum(y) / k)
        res = residual_fn(candidate)
        res_max = np.max(list(res.values()), axis=0)
        last_improvement[res_max < best_max * (1.0 - stall_rtol)] = it
        better = res_max < best_max
        best_point = np.where(better[:, None, None], candidate, best_point)
        best_res = {name: np.where(better, res[name], r) for name, r in best_res.items()}
        best_max = np.where(better, res_max, best_max)
        for h, b in zip(history, best_max):
            h.append(float(b))
        converged = best_max <= tol
        stalled = ~converged & (it - last_improvement >= stall_window)
        done = converged | stalled | (it == max_iter)
        if not done.any():
            continue
        retire(done, converged, stalled, it)
        keep = ~done
        y = [m[keep] for m in y]
        best_point, best_max = best_point[keep], best_max[keep]
        best_res = {name: r[keep] for name, r in best_res.items()}
        last_improvement, live = last_improvement[keep], live[keep]
        history = [h for h, kept in zip(history, keep) if kept]
    if live.size:  # max_iter < 1: no cycle ran
        idle = np.zeros(live.size, dtype=bool)
        retire(~idle, idle, idle, max_iter)
    return results


def solve_feasibility(
    projections: list[Projection],
    start: np.ndarray,
    residual_fn: ResidualFn,
    readout: Projection = project_psd,
    tol: float = 1e-6,
    max_iter: int = 20000,
    check_every: int = 10,
    stall_window: int = 500,
    stall_rtol: float = 1e-9,
) -> FeasibilityResult:
    """Douglas-Rachford from one start; ``solve_feasibility_batch`` on a stack of one.

    The projections, the readout and ``residual_fn`` take and return
    single ``(n, n)`` matrices; ``residual_fn`` returns floats.
    """
    def on_stack(fn: Projection) -> Projection:
        return lambda m: fn(m[0])[None]

    def residuals(m: np.ndarray) -> dict[str, np.ndarray]:
        return {name: np.array([value]) for name, value in residual_fn(m[0]).items()}

    [result] = solve_feasibility_batch(
        [on_stack(p) for p in projections], np.asarray(start)[None], residuals,
        readout=on_stack(readout), tol=tol, max_iter=max_iter, check_every=check_every,
        stall_window=stall_window, stall_rtol=stall_rtol)
    return result
