"""Convex feasibility engine for intersections of constraint sets.

Product-space Douglas-Rachford splitting: the governing sequence holds
one point, a Hermitian matrix or a coefficient vector, per constraint
set C_1, ..., C_k, and each cycle reflects their average through the
product set C_1 x ... x C_k with one call of its projection P on the
whole ``(s, k, ...)`` array of starts and sets.  Matrices are kept
exactly on the Hermitian subspace: the affine-projection formulas are
only orthogonal there, and anti-Hermitian rounding noise is otherwise
amplified by the reflections.

The starts run in lockstep, so a P that sends every cone block through
one ``project_psd`` call decomposes them all in one ``np.linalg.eigh``
on a stack; LAPACK and ``matmul`` work matrix by matrix inside it, so
stacking changes no bit.  Each start keeps its own stopping bookkeeping
and leaves the stack at the cycle it would have stopped at if run alone.
A search in twirl coefficients runs on vectors, with the P that
``clipped_affine_product`` builds: no eigendecomposition.

The Douglas-Rachford map T is accelerated by safeguarded type-II
Anderson mixing (Fu-Zhang-Boyd, arXiv:1908.11482; Zhang-O'Donoghue-Boyd,
arXiv:1808.03971) over the last ``ANDERSON_DEPTH`` differences.  The
history is kept on the stacks' own float64 view, a complex entry as its
(re, im) pair: the Euclidean inner product there is the Frobenius inner
product Re tr(A^dagger B) of the Hermitian matrices.  T is evaluated
once per cycle, and ``hermitian_part`` makes the extrapolated
stack exactly Hermitian once per cycle, written into the stack's buffer.
The Anderson depth and the stall rule are module constants; the per-call
options are declared on ``solve_feasibility_batch`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    """P onto a product of sets of coefficient vectors, each y -> max(y F - s, floor) B + o.

    ``sets`` holds one (F, B, s, floor, o) a set, for row vectors: a clip
    at the shift s in an orthonormal frame F, with B = F^T and floor 0,
    or an affine projection y -> y B + o, with F = 1, s = 0 and floor
    -inf.  P acts on an (s, k, n) array, or on an (s, n) one when k = 1,
    as two products with block-diagonal matrices, start by start.
    """
    frames, backs, shifts, floors, offsets = zip(*sets)
    k, n = len(sets), len(shifts[0])
    forward, backward = np.zeros((2, k, n, k, n))
    forward[range(k), :, range(k)], backward[range(k), :, range(k)] = frames, backs
    forward, backward = forward.reshape(k * n, -1), backward.reshape(k * n, -1)
    shift, floor = np.concatenate(shifts), np.repeat(floors, n)
    offset = shift @ backward + np.concatenate(offsets)

    def project(z: np.ndarray) -> np.ndarray:
        y = z.reshape(len(z), 1, -1)  # one product a start: its bits do not depend on the others
        return (np.maximum(y @ forward - shift, floor) @ backward + offset).reshape(z.shape)

    return project


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
    """Inner products of matching rows; each row's value does not depend on the others."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _compact_rows(a: np.ndarray, rows: np.ndarray) -> None:
    """Move rows ``rows`` (increasing) of ``a`` to its front, one row at a time."""
    for new, old in enumerate(rows):
        if new != old:
            a[new] = a[old]


class _AndersonHistory:
    """Safeguarded type-II Anderson acceleration of a fixed-point map T, per start.

    Rows are starts, as float64 vectors.  Each start keeps T and
    g = T - id at its last accepted point, the last ``ANDERSON_DEPTH``
    differences of both in rolling buffers, and the Gram matrix of the g
    differences, updated by one row per step.  Its current point is
    ``f - df @ gamma`` and is not stored.  The buffers are allocated once;
    ``keep`` compacts them in place when starts retire.
    """

    def __init__(self, x0: np.ndarray) -> None:
        s, dim = x0.shape
        depth = ANDERSON_DEPTH
        self.eye = np.eye(depth)
        self.slot = -1  # ring slot of the newest difference; -1 before the first step
        self._buffers = (
            x0.copy(),                    # f: T at the last accepted point; at first x0
            np.zeros((s, dim)),           # g at that point
            np.zeros(s),                  # |g|^2 there
            np.zeros((s, depth, dim)),    # df: differences of T
            np.zeros((s, depth, dim)),    # dg: differences of g
            np.zeros((s, depth, depth)),  # gram: dg dg^T
            np.zeros((s, depth)),         # |df_j|^2 + |dg_j|^2, which scales the ridge
            np.zeros((s, depth)),         # gamma
            np.zeros(s, dtype=bool),      # the current point is an extrapolation
        )
        self._rows = self._buffers

    def step(self, t: np.ndarray) -> np.ndarray:
        """Take T at the current points; return the next points, in a new array.

        A start whose current point is an extrapolation with a larger
        ``|g|`` than the point it left from rejects it: it goes on from
        the T it already holds and clears its history.
        """
        f, g, g_norm2, df, dg, gram, scale, gamma, extrapolated = self._rows
        # r = g at the current point x = f - df @ gamma
        r = np.matmul(gamma[:, None, :], df)[:, 0]
        r += t
        r -= f
        r_norm2 = _row_dots(r, r)
        if self.slot < 0:  # the first step is a plain one
            self.slot = ANDERSON_DEPTH - 1
            f[...], g[...], g_norm2[...] = t, r, r_norm2
            return t.copy()
        rejected = extrapolated & (r_norm2 > g_norm2)
        self.slot = j = (self.slot + 1) % ANDERSON_DEPTH
        df_j, dg_j = df[:, j], dg[:, j]
        np.subtract(r, g, out=dg_j)
        np.subtract(t, f, out=df_j)
        row = np.matmul(dg, dg_j[..., None])[..., 0]
        gram[:, j, :] = row
        gram[:, :, j] = row
        scale[:, j] = row[:, j] + _row_dots(df_j, df_j)
        if np.count_nonzero(rejected):
            for a in (df, dg, gram, scale):
                a[rejected] = 0.0
            accepted = ~rejected
            np.copyto(f, t, where=accepted[:, None])
            np.copyto(g, r, where=accepted[:, None])
            np.copyto(g_norm2, r_norm2, where=accepted)
            extrapolated[...] = accepted
        else:
            f[...], g[...], g_norm2[...], extrapolated[...] = t, r, r_norm2, True
        # gamma = argmin |g - dg gamma|^2 + ridge |gamma|^2, the ridge scaled
        # by the sizes of both difference sets (Fu-Zhang-Boyd); a cleared
        # column gets gamma 0, and an all-clear history the plain step
        ridge = _ANDERSON_REG * np.add.reduce(scale, 1) + _TINY
        lhs = gram + ridge[:, None, None] * self.eye
        gamma[...] = np.linalg.solve(lhs, np.matmul(dg, g[..., None]))[..., 0]
        np.matmul(gamma[:, None, :], df, out=r[:, None, :])
        np.subtract(f, r, out=r)
        return r

    def keep(self, keep: np.ndarray) -> None:
        """Keep the rows where ``keep`` holds, moved in place to the front."""
        rows = np.flatnonzero(keep)
        for a in self._buffers:
            _compact_rows(a, rows)
        self._rows = tuple(a[:len(rows)] for a in self._buffers)


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

    The governing sequence y holds an ``(s, k, ...)`` array, one point per
    start and constraint set, k = ``n_sets``: a Hermitian matrix for
    ``(s, n, n)`` starts, a coefficient vector for ``(s, n)`` ones.
    ``project`` is the projection onto the product of the k sets, block
    by block along axis 1, and the DR map T sends y to
    y + P(2 avg - y) - avg, avg the average over the sets.  Each cycle
    evaluates T once, at the point Anderson acceleration chose from T's
    last values (see ``_AndersonHistory``), which runs on the array's
    float64 view and whose matrix output ``hermitian_part`` makes exactly
    Hermitian in y's own buffer once per cycle.  ``readout`` maps the
    average of T at the current points, an ``(s, ...)`` stack, to the
    candidate points, and ``residual_fn`` returns one ``(s,)`` array per
    residual name.  Every matrix handed to ``project`` or to ``readout``
    is exactly Hermitian when ``project`` returns exactly Hermitian
    blocks.  A start stops when its best maximum residual reaches
    ``tol``, on a stall (no relative improvement of it by ``_STALL_RTOL``
    over ``STALL_WINDOW`` cycles; infeasible problems end up here), or at
    ``max_iter``.  A stopped start leaves the stack, and its rows of the
    Anderson buffers are compacted away in place.  Results come back in
    the order of the starts.

    ``project`` returns an array of its argument's shape and dtype; the
    engine only reads it.  The stacks keep the dtype of ``starts``, so
    real symmetric starts with a real projection stay real.
    """
    starts = np.asarray(starts)
    matrices = starts.ndim == 3
    y = np.stack([hermitian_part(starts) if matrices else starts] * n_sets, axis=1)
    anderson = _AndersonHistory(_floats(y))
    best_point = readout(y[:, 0])
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
        if it:
            # y holds T at the current points, which the last check read
            # out; the accelerated next points, made exactly Hermitian,
            # replace it
            step = anderson.step(_floats(y)).view(y.dtype).reshape(y.shape)
            y = hermitian_part(step, out=y) if matrices else step
        it += 1
        # y, avg and 2 avg - y are exactly Hermitian, and a projection
        # that keeps that keeps y so: entries (i, j) and (j, i) see the
        # same additions, up to sign
        avg = y.sum(axis=1, keepdims=True)
        avg /= n_sets
        y += project(2.0 * avg - y)
        y -= avg
        if it % check_every and it != max_iter:
            continue
        candidate = readout(y.sum(axis=1) / n_sets)
        res = residual_fn(candidate)
        res_max = np.max(list(res.values()), axis=0)
        last_improvement[res_max < best_max * (1.0 - _STALL_RTOL)] = it
        better = res_max < best_max
        best_point = np.where(better.reshape((-1,) + (1,) * (starts.ndim - 1)), candidate,
                              best_point)
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
