"""Convex feasibility engine for intersections of constraint sets.

Product-space Douglas-Rachford (DR) splitting: the governing sequence
holds one point per start and constraint set C_1, ..., C_k, and each
cycle evaluates T(y) = y + P(2 avg - y) - avg once, P the projection onto
C_1 x ... x C_k and avg the average over the sets.  On Hermitian
matrices, kept exactly Hermitian (the affine-projection formulas are only
orthogonal there), T calls P once on the whole stack, so a P that sends
every cone block through one ``project_psd`` makes one stacked ``eigh``.
On coefficient vectors (the twirl-algebra searches) T is one
affine-clip-affine map folded from their ``clipped_affine_product`` P.
LAPACK and ``matmul`` work start by start inside a stack, so each start
keeps the bits, and leaves at the cycle, it would have alone.

T is accelerated by safeguarded type-II Anderson mixing (Fu-Zhang-Boyd,
arXiv:1908.11482; Zhang-O'Donoghue-Boyd, arXiv:1808.03971) on the
stack's float64 rows, where the Euclidean inner product is the Frobenius
one.  The Anderson depth and the stall rule are module constants; the
per-call options are declared on ``solve_feasibility_batch`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv  # LAPACK gesv, without np.linalg's wrapper

from .measures import copy_ranks, twirl_coefficients
from .operators import MAX_ENTRIES, check_entry_budget, hermitian_part

Projection = Callable[[np.ndarray], np.ndarray]
ResidualFn = Callable[[np.ndarray], dict[str, float]]
BatchResidualFn = Callable[[np.ndarray], dict[str, np.ndarray]]


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm, per matrix of a stack.

    ``m`` must be Hermitian: ``eigh`` reads only its lower triangle.
    """
    w, v = np.linalg.eigh(m)
    scaled = v * np.maximum(w, 0.0)[..., None, :]
    if v.dtype.kind == "c":
        np.conjugate(v, out=v)  # v is ours: its conjugate in place, not a copy
    return hermitian_part(scaled @ v.swapaxes(-1, -2), out=scaled)


def random_density_matrix(dim: int, rng: np.random.Generator,
                          dtype: np.dtype = np.complex128) -> np.ndarray:
    """Ginibre-ensemble density matrix in ``dtype``, the dtype of the search's data.

    A real one is the real part of the complex draw from the same
    generator state: Re rho = (rho + conj rho) / 2 is still PSD with unit
    trace, and the generator advances as for a complex draw.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return m if np.issubdtype(dtype, np.complexfloating) else m.real.copy()


def seeded_starts(dim: int, n_starts: int, seed: int, what: str,
                  dtype: np.dtype = np.float64, twirl: int | None = None):
    """The seeded dim x dim ``random_density_matrix`` starts, drawn in order from one generator.

    They come in stacks of at most MAX_ENTRIES entries, which keeps the
    order of one up-front draw; a start over the entry budget is refused
    as ``what`` before any is drawn.  Given ``twirl`` = d, each stack of
    k-copy starts comes twirled, as the (s, 2^k) ``float64`` vectors
    y = sqrt(r) c of its ``twirl_coefficients`` c, r their ranks.
    """
    check_entry_budget(dim, what)
    block = MAX_ENTRIES // (dim * dim)
    rng = np.random.default_rng(seed)
    for first in range(0, n_starts, block):
        starts = np.stack([random_density_matrix(dim, rng, dtype)
                           for _ in range(min(block, n_starts - first))])
        if twirl is not None:
            c = twirl_coefficients(twirl, starts)
            starts = (np.sqrt(copy_ranks(twirl, c.ndim - 1)) * c).reshape(len(c), -1)
        yield starts


def clipped_affine_product(sets) -> Projection:
    """P onto a product of sets of coefficient vectors, each y -> max(y F, s + floor) B + o.

    ``sets`` holds one (F, B, s, floor, o) a set, for row vectors: a clip
    at the shift s in an orthonormal frame F, with B = F^T and floor 0,
    or an affine projection y -> y B + o, with F = 1, s = 0 and floor
    -inf.  P acts on an (s, k, n) array, or on an (s, n) one when k = 1,
    as two products with block-diagonal matrices, start by start; its
    ``parts`` (F, B, clip, o) are those of the whole product.
    """
    frames, backs, shifts, floors, offsets = zip(*sets)
    k, n = len(sets), len(shifts[0])
    forward, backward = np.zeros((2, k, n, k, n))
    forward[range(k), :, range(k)], backward[range(k), :, range(k)] = frames, backs
    forward, backward = forward.reshape(k * n, -1), backward.reshape(k * n, -1)
    clip, offset = np.concatenate(shifts) + np.repeat(floors, n), np.concatenate(offsets)

    def project(z: np.ndarray) -> np.ndarray:
        y = z.reshape(len(z), 1, -1)  # one product a start: its bits do not depend on the others
        return (np.maximum(y @ forward, clip) @ backward + offset).reshape(z.shape)

    project.parts = forward, backward, clip, offset
    return project


def _folded_dr_map(project: Projection, n_sets: int) -> Callable[[np.ndarray], np.ndarray]:
    """T(y) = y + P(2 avg - y) - avg on (s, k n) rows, P from ``clipped_affine_product``.

    With M the set-average matrix, T(y) = y (I - M) + max(y (2M - I) F, clip) B + o,
    one affine-clip-affine map: y [I - M | (2M - I) F | 0], clipped at
    [-inf | clip | 1], times [I; B; o].  Each row is its own product, as in P.
    """
    forward, backward, clip, offset = project.parts
    eye = np.eye(len(clip))
    avg = np.kron(np.full((n_sets, n_sets), 1.0 / n_sets), np.eye(len(clip) // n_sets))
    fold = np.hstack([eye - avg, (2.0 * avg - eye) @ forward, np.zeros((len(clip), 1))])
    floor = np.concatenate([np.full(len(clip), -np.inf), clip, [1.0]])
    back = np.vstack([eye, backward, offset])

    def dr_map(y: np.ndarray) -> np.ndarray:
        z = y[:, None] @ fold
        return (np.maximum(z, floor, out=z) @ back)[:, 0]

    return dr_map


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


# Anderson acceleration: differences kept per start, and the ridge weight
# of its least-squares problem relative to the squared sizes of those
# differences.  The stall rule: a start stops after STALL_WINDOW cycles in
# which its best maximum residual did not fall by a relative _STALL_RTOL.
ANDERSON_DEPTH = 3
_ANDERSON_REG = 1e-10
STALL_WINDOW = 500
_STALL_RTOL = 1e-9
_TINY = np.finfo(float).tiny


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching rows, each flattened; a row's value depends on no other row."""
    return np.matmul(a.reshape(len(a), 1, -1), b.reshape(len(b), -1, 1))[:, 0, 0]


def _compact_rows(a: np.ndarray, rows: np.ndarray) -> None:
    """Move rows ``rows`` (increasing) of ``a`` to its front, one row at a time."""
    for new, old in enumerate(rows):
        if new != old:
            a[new] = a[old]


class _AndersonHistory:
    """Safeguarded type-II Anderson acceleration of a fixed-point map T, per start.

    Rows are starts, as float64 vectors.  Each keeps its current point
    ``x`` (the last returned, never written), the pair ``fg`` = (f, g) of T
    and g = T - id at its last accepted point, ``g_norm2`` = |g|^2, the
    last ``ANDERSON_DEPTH`` differences ``dfg`` = (df, dg) of that pair,
    ``gram`` = dg dg^T (one new row a step), ``scale`` = |df_j|^2 + |dg_j|^2
    for the ridge, ``gamma`` and ``extrapolated``.  The buffers are
    allocated once; ``keep`` compacts them in place when starts retire.
    """

    def __init__(self, x0: np.ndarray) -> None:
        (s, dim), depth = x0.shape, ANDERSON_DEPTH
        self.eye, self.x = np.eye(depth), x0
        self.slot = -1  # ring slot of the newest difference; -1 before the first step
        self._buffers = (np.zeros((s, 2, dim)), np.zeros(s), np.zeros((s, depth, 2, dim)),
                         np.zeros((s, depth, depth)), np.zeros((s, depth)), np.zeros((s, depth)),
                         np.zeros(s, dtype=bool))
        self.keep(np.ones(s, dtype=bool))  # names the rows, and makes x a copy of x0

    @property
    def _rows(self) -> tuple[np.ndarray, ...]:
        return (self.x,) + tuple(a[:len(self.x)] for a in self._buffers)

    def step(self, t: np.ndarray) -> np.ndarray:
        """Take T at the current points; return the next points, in a new array.

        A start whose extrapolated point has a larger |g| than the point it
        left from rejects it: it goes on from the T it holds, history cleared.
        """
        pair, fg = self.pair, self.fg
        pair[:, 0] = t
        r = np.subtract(t, self.x, out=pair[:, 1])
        r_norm2 = _row_dots(r, r)
        if self.slot < 0:  # the first step is a plain one
            self.slot = ANDERSON_DEPTH - 1
            fg[...], self.g_norm2[...] = pair, r_norm2
            self.x = t.copy()
            return self.x
        rejected = self.extrapolated & (r_norm2 > self.g_norm2)
        self.slot = j = (self.slot + 1) % ANDERSON_DEPTH
        dfg_j = np.subtract(pair, fg, out=self.dfg[:, j])
        row = np.matmul(self.dg, dfg_j[:, 1, :, None])[..., 0]
        self.gram[:, j, :] = self.gram[:, :, j] = row
        self.scale[:, j] = _row_dots(dfg_j, dfg_j)
        if np.count_nonzero(rejected):
            for a in (self.dfg, self.gram, self.scale):
                a[rejected] = 0.0
            accepted = ~rejected
            np.copyto(fg, pair, where=accepted[:, None, None])
            np.copyto(self.g_norm2, r_norm2, where=accepted)
            self.extrapolated[...] = accepted
        else:
            fg[...], self.g_norm2[...], self.extrapolated[...] = pair, r_norm2, True
        # gamma = argmin |g - dg gamma|^2 + ridge |gamma|^2, the ridge scaled
        # by the sizes of both difference sets (Fu-Zhang-Boyd); a cleared
        # column gets gamma 0, and an all-clear history the plain step
        ridge = _ANDERSON_REG * np.add.reduce(self.scale, 1) + _TINY
        lhs = self.gram + np.multiply.outer(ridge, self.eye)
        self.gamma[...] = _gesv(lhs, np.matmul(self.dg, self.g[..., None]))[..., 0]
        self.x = self.f - np.matmul(self.gamma[:, None, :], self.df)[:, 0]
        return self.x

    def keep(self, keep: np.ndarray) -> None:
        """Keep the rows where ``keep`` holds, moved in place to the front, and name them."""
        rows = np.flatnonzero(keep)
        for a in self._buffers:
            _compact_rows(a, rows)
        self.x = self.x[rows]
        (self.fg, self.g_norm2, self.dfg, self.gram, self.scale, self.gamma,
         self.extrapolated) = (a[:len(rows)] for a in self._buffers)
        self.f, self.g, self.df, self.dg = (self.fg[:, 0], self.fg[:, 1], self.dfg[:, :, 0],
                                            self.dfg[:, :, 1])
        self.pair = np.empty_like(self.fg)  # T and g at the current point


def _floats(y: np.ndarray) -> np.ndarray:
    """A C-contiguous stack as one float64 row per start, a view; complex entries as (re, im)."""
    return y.view(np.float64).reshape(len(y), -1)


def solve_feasibility_batch(
    project: Projection,
    n_sets: int,
    starts: np.ndarray,
    residual_fn: BatchResidualFn,
    readout: Projection = project_psd,
    tol: float = 1e-6,
    max_iter: int = 20000,
    check_every: int = 10,
) -> list[FeasibilityResult]:
    """Run product-space Douglas-Rachford on a stack of starts in lockstep.

    y holds k = ``n_sets`` points a start: an ``(s, k, n, n)`` stack of
    Hermitian matrices for ``(s, n, n)`` starts, or flat ``(s, k n)`` rows
    of coefficient vectors for ``(s, n)`` ones, whose ``project`` must come
    from ``clipped_affine_product``.  ``project`` is P onto the product of
    the sets, block by block, in its argument's shape and dtype, so the
    stacks keep the dtype of ``starts``.  Each cycle evaluates T once, at
    the point ``_AndersonHistory`` chose.  ``readout`` maps the average of
    T over the sets to the candidates, and ``residual_fn`` returns one
    ``(s,)`` array per residual name.  A start stops when its best maximum
    residual reaches ``tol``, on a stall (no relative improvement by
    ``_STALL_RTOL`` over ``STALL_WINDOW`` cycles: infeasible problems end
    here), or at ``max_iter``, and leaves the stack.  Results come back in
    the order of the starts.
    """
    starts = np.asarray(starts)
    if starts.ndim == 3:
        points = hermitian_part(starts)
        y = np.stack([points] * n_sets, axis=1)
        anderson = _AndersonHistory(_floats(y))

        def dr_map(y: np.ndarray) -> np.ndarray:
            # in y's buffer, kept exactly Hermitian by a P that keeps it so:
            # entries (i, j) and (j, i) see the same additions, up to sign
            avg = y.sum(axis=1, keepdims=True) / n_sets
            y += project(2.0 * avg - y)
            y -= avg
            return y

        def accelerate(y: np.ndarray) -> np.ndarray:
            return hermitian_part(anderson.step(_floats(y)).view(y.dtype).reshape(y.shape), out=y)
    else:
        points, y = starts, np.tile(starts, n_sets)
        anderson, dr_map = _AndersonHistory(y), _folded_dr_map(project, n_sets)
        accelerate = anderson.step
    best_point = readout(points)
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
        # y holds T at the current points, which the last check read out
        y = dr_map(accelerate(y) if it else y)
        it += 1
        if it % check_every and it != max_iter:
            continue
        candidate = readout(y.reshape(len(y), n_sets, *points.shape[1:]).sum(axis=1) / n_sets)
        res = residual_fn(candidate)
        res_max = np.max(list(res.values()), axis=0)
        last_improvement[res_max < best_max * (1.0 - _STALL_RTOL)] = it
        better = res_max < best_max
        best_point = np.where(better.reshape(-1, *[1] * (starts.ndim - 1)), candidate, best_point)
        best_res = {name: np.where(better, res[name], r) for name, r in best_res.items()}
        best_max = np.where(better, res_max, best_max)
        for h, b in zip(history, best_max):
            h.append(float(b))
        converged = best_max <= tol
        stalled = ~converged & (it - last_improvement >= STALL_WINDOW)
        done = converged | stalled | (it == max_iter)
        if not done.any():
            continue
        retire(done, converged, stalled, it)
        keep = ~done
        y = y[keep]
        anderson.keep(keep)
        best_point, best_max = best_point[keep], best_max[keep]
        best_res = {name: r[keep] for name, r in best_res.items()}
        last_improvement, live = last_improvement[keep], live[keep]
        history = [h for h, kept in zip(history, keep) if kept]
    if live.size:  # max_iter < 1: no cycle ran
        idle = np.zeros(live.size, dtype=bool)
        retire(~idle, idle, idle, max_iter)
    return results


def solve_feasibility(project: Projection, n_sets: int, start: np.ndarray,
                      residual_fn: ResidualFn, **options) -> FeasibilityResult:
    """Douglas-Rachford from one start; ``solve_feasibility_batch`` on a stack of one.

    ``project`` and ``readout`` act on that stack of one, as in the
    batch; ``residual_fn`` takes the single candidate point and returns
    floats.  ``options`` go to the batch, which declares them.
    """
    def residuals(m: np.ndarray) -> dict[str, np.ndarray]:
        return {name: np.array([value]) for name, value in residual_fn(m[0]).items()}

    [result] = solve_feasibility_batch(project, n_sets, np.asarray(start)[None], residuals,
                                       **options)
    return result
