"""Convex feasibility engine for intersections of constraint sets.

Product-space Douglas-Rachford (DR) splitting: the governing sequence
holds one point per start and constraint set C_1, ..., C_k, and each
cycle evaluates T(y) = y + P(2 avg - y) - avg once, P the projection onto
C_1 x ... x C_k and avg the average over the sets.  A search states its
sets (``Cone``s and affine projections); the engine builds P, T and the
readout, the PSD projection of the average, from them and the starts'
shape.  On Hermitian matrices, kept exactly Hermitian (the affine
formulas are only orthogonal there), P sends every cone block of the
stack through one ``eigh`` (``product_projection``).  On coefficient
vectors (the twirl-algebra synthesis search) T is one
affine-clip-affine map.  LAPACK and ``matmul`` work start by start inside a stack, so each start
keeps the bits, and leaves at the cycle, it would have alone.

T is accelerated by safeguarded type-II Anderson mixing (Fu-Zhang-Boyd,
arXiv:1908.11482; Zhang-O'Donoghue-Boyd, arXiv:1808.03971) on the
stack's float64 rows, where the Euclidean inner product is the Frobenius
one.  The Anderson depth and the stall rule are module constants; the
per-call options are declared on ``solve_feasibility_batch`` alone.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv  # LAPACK gesv, without np.linalg's wrapper

from .operators import MAX_ENTRIES, check_entry_budget, hermitian_part

Projection = Callable[[np.ndarray], np.ndarray]
ResidualFn = Callable[[np.ndarray], dict[str, float]]
BatchResidualFn = Callable[[np.ndarray], dict[str, np.ndarray]]

# matrix entries a Ginibre draw holds at once: a start block draws in 32 parts
DRAW_ENTRIES = MAX_ENTRIES // 32


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm, per matrix of a stack.

    ``m`` must be Hermitian: ``eigh`` reads only its lower triangle.
    """
    w, v = np.linalg.eigh(m)
    scaled = v * np.maximum(w, 0.0)[..., None, :]
    if v.dtype.kind == "c":
        np.conjugate(v, out=v)  # v is ours: its conjugate in place, not a copy
    return hermitian_part(scaled @ v.swapaxes(-1, -2), out=scaled)


def random_density_matrices(dim: int, count: int, rng: np.random.Generator,
                            dtype: np.dtype = np.complex128) -> np.ndarray:
    """``count`` Ginibre-ensemble density matrices in ``dtype``, the dtype of the search's data.

    Each is g g^H / Tr(g g^H), g = a + i b with a and b standard normal.
    They are drawn DRAW_ENTRIES matrix entries at a time (at least one
    start), which bounds the transient arrays and keeps them in cache:
    one ``standard_normal`` call a part draws its (a, b) pairs, in C order
    the stream of drawing a then b start by start, and one stacked
    ``matmul`` and one trace normalisation give each start the bits it
    gets alone.  A real one is the real part of the complex draw from the
    same generator state: Re rho = (rho + conj rho) / 2 is still PSD with
    unit trace, and the generator advances as for a complex draw.
    """
    real = not np.issubdtype(dtype, np.complexfloating)
    step = max(1, DRAW_ENTRIES // (dim * dim))
    parts = []
    for first in range(0, count, step):
        ab = rng.standard_normal((min(step, count - first), 2, dim, dim))
        g = ab[:, 0] + 1j * ab[:, 1]
        m = g @ g.conj().swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        parts.append(m.real.copy() if real else m)
    return np.concatenate(parts)


def random_density_matrix(dim: int, rng: np.random.Generator,
                          dtype: np.dtype = np.complex128) -> np.ndarray:
    """One ``random_density_matrices`` draw."""
    return random_density_matrices(dim, 1, rng, dtype)[0]


def seeded_starts(dim: int, n_starts: int, seed: int, what: str,
                  dtype: np.dtype = np.float64):
    """The seeded dim x dim ``random_density_matrices`` starts, drawn in order from one generator.

    They come in stacks of at most MAX_ENTRIES entries, each drawn by one
    ``random_density_matrices`` call, not start by start; the stacks keep
    the order, and the bits, of drawing the starts one by one.
    A start over the entry budget is refused as ``what`` before any is drawn.
    """
    check_entry_budget(dim, what)
    block = MAX_ENTRIES // (dim * dim)
    rng = np.random.default_rng(seed)
    for first in range(0, n_starts, block):
        yield random_density_matrices(dim, min(block, n_starts - first), rng, dtype)


class Cone(NamedTuple):
    """The set {x : F x - shift is PSD} of a search, F an orthogonal ``frame``.

    F is a matrix on coefficient vectors, where the cone is a clip, and an
    index array permuting the n^2 entries of n x n matrices, keeping them
    Hermitian, such as the partial transpose; None is the identity.  Any
    other set is an affine projection: a pair (B, o), y -> y B + o, on
    coefficient vectors, or a callable on (s, n, n) stacks of matrices.
    """

    frame: np.ndarray | None = None
    shift: np.ndarray | float = 0.0


def product_projection(sets, n: int) -> Projection:
    """P onto a product of sets of n x n Hermitian matrices, on (s, k, n, n) stacks.

    A cone maps its block x to F^-1 (s + P_psd(F x - s)), or to P_psd(x)
    with neither frame nor shift.  One index gathers every cone block of
    the stack, in its frame and shifted, into one ``project_psd`` call and
    scatters the results back; each affine set's callable maps its block.
    """
    cones = [(i, c) for i, c in enumerate(sets) if isinstance(c, Cone)]
    # entry j of cone c is entry gather[c, j] of a start's flattened blocks
    gather = np.stack([i * n * n + (np.arange(n * n) if c.frame is None else c.frame)
                       for i, c in cones])
    shifts = np.stack([np.broadcast_to(np.ravel(c.shift), n * n) for _, c in cones])
    restore = [j for j, (_, c) in enumerate(cones) if c.frame is not None or np.any(c.shift)]

    def project(z: np.ndarray) -> np.ndarray:
        s = len(z)
        psd = z.reshape(s, -1)[:, gather]
        psd -= shifts
        psd = project_psd(psd.reshape(-1, n, n)).reshape(psd.shape)
        psd[:, restore] += shifts[restore]
        out = np.empty_like(z)
        out.reshape(s, -1)[:, gather] = psd
        for i, c in enumerate(sets):
            if not isinstance(c, Cone):
                out[:, i] = c(z[:, i])
        return out

    return project


def _folded_dr_map(sets, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """T(y) = y + P(2 avg - y) - avg on (s, k n) rows, for k sets of n coefficients.

    For row vectors P(y) = max(y F, clip) B + o, block by block: a cone is
    y -> max(y F^T, shift) F, an affine set y -> max(y, -inf) B + o.  With
    M the set-average matrix, T(y) = y (I - M) + max(y (2M - I) F, clip) B + o,
    one affine-clip-affine map: y [I - M | (2M - I) F | 0], clipped at
    [-inf | clip | 1], times [I; B; o].  Each row is its own product.
    """
    identity, k = np.eye(n), len(sets)

    def parts(c):  # (F, B, clip, o) of one set
        if isinstance(c, Cone):
            frame = identity if c.frame is None else c.frame
            return frame.T, frame, c.shift + np.zeros(n), np.zeros(n)
        return identity, c[0], np.full(n, -np.inf), c[1]

    frames, backs, clips, offsets = zip(*map(parts, sets))
    forward, backward = np.zeros((2, k, n, k, n))
    forward[range(k), :, range(k)], backward[range(k), :, range(k)] = frames, backs
    forward, backward = forward.reshape(k * n, -1), backward.reshape(k * n, -1)
    clip, offset = np.concatenate(clips), np.concatenate(offsets)
    eye, avg = np.eye(k * n), np.kron(np.full((k, k), 1.0 / k), identity)
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
    """Inner products of matching rows, each flattened; a row's value depends on no other row.

    The formula of the Anderson step's sizes |g|^2 and |df_j|^2 + |dg_j|^2,
    which the step computes through views of the same shapes.
    """
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
    Each step's products go into scratch buffers allocated once too, and
    ``keep`` names every view a step reads or writes, so a step makes no
    index, reshape or temporary beyond the new point.
    """

    def __init__(self, x0: np.ndarray) -> None:
        (s, dim), depth = x0.shape, ANDERSON_DEPTH
        self.x = x0
        self.slot = -1  # ring slot of the newest difference; -1 before the first step
        self._buffers = (np.zeros((s, 2, dim)), np.zeros(s), np.zeros((s, depth, 2, dim)),
                         np.zeros((s, depth, depth)), np.zeros((s, depth)),
                         np.zeros((s, depth, 1)), np.zeros(s, dtype=bool))
        # every step overwrites these before it reads them: (T, g) at the
        # current point, |g|^2, the ridge, the ridged Gram system, dg g and
        # gamma df; ``keep`` shortens them and moves nothing
        self._scratch = (np.empty((s, 2, dim)), np.empty((s, 1, 1)), np.empty(s),
                         np.empty((s, depth, depth)), np.empty((s, depth, 1)),
                         np.empty((s, 1, dim)))
        self.keep(np.ones(s, dtype=bool))  # names the rows, and makes x a copy of x0

    @property
    def _rows(self) -> tuple[np.ndarray, ...]:
        return (self.x,) + tuple(a[:len(self.x)] for a in self._buffers)

    def step(self, t: np.ndarray) -> np.ndarray:
        """Take T at the current points; return the next points, in a new array.

        A start whose extrapolated point has a larger |g| than the point it
        left from rejects it: it goes on from the T it holds, history cleared.
        """
        fg, g_norm2 = self.fg, self.g_norm2
        self.t[...] = t
        np.subtract(t, self.x, self.r)
        np.matmul(self.r_row, self.r_col, self.r_dot)  # |r|^2 in self.r_norm2
        if self.slot < 0:  # the first step is a plain one
            self.slot = ANDERSON_DEPTH - 1
            fg[...], g_norm2[...] = self.pair, self.r_norm2
            self.x = t.copy()
            return self.x
        rejected = self.extrapolated & (self.r_norm2 > g_norm2)
        self.slot = j = (self.slot + 1) % ANDERSON_DEPTH
        # the new difference, its Gram row (and column), and its size
        dfg_j, dfg_row, dfg_col, dg_col, gram_row, gram_col, scale_j = self.slots[j]
        np.subtract(self.pair, fg, dfg_j)
        np.matmul(self.dg, dg_col, gram_row)
        gram_col[...] = gram_row
        np.matmul(dfg_row, dfg_col, scale_j)
        if np.count_nonzero(rejected):
            for a in (self.dfg, self.gram, self.scale):
                a[rejected] = 0.0
            accepted = ~rejected
            np.copyto(fg, self.pair, where=accepted[:, None, None])
            np.copyto(g_norm2, self.r_norm2, where=accepted)
            self.extrapolated[...] = accepted
        else:
            fg[...], g_norm2[...], self.extrapolated[...] = self.pair, self.r_norm2, True
        # gamma = argmin |g - dg gamma|^2 + ridge |gamma|^2, the ridge scaled
        # by the sizes of both difference sets (Fu-Zhang-Boyd) and added
        # onto the diagonal of a copy of the Gram matrix; a cleared column
        # gets gamma 0, and an all-clear history the plain step
        ridge = self.ridge
        np.add.reduce(self.scale, 1, None, ridge)
        np.multiply(_ANDERSON_REG, ridge, ridge)
        np.add(ridge, _TINY, ridge)
        self.lhs[...] = self.gram
        np.add(self.lhs_diag, self.ridge_col, self.lhs_diag)
        np.matmul(self.dg, self.g_col, self.rhs)
        _gesv(self.lhs, self.rhs, self.gamma_col)
        np.matmul(self.gamma_row, self.df, self.step_row)
        self.x = self.f - self.step_flat
        return self.x

    def keep(self, keep: np.ndarray) -> None:
        """Keep the rows where ``keep`` holds, moved in place to the front, and name them.

        Every view a step uses is named here, on the kept rows, in the
        shapes and strides of the formulas it stands for, so each product
        runs the kernel it would on a fresh array.
        """
        rows = np.flatnonzero(keep)
        s, dim = len(rows), self.x.shape[1]
        for a in self._buffers:
            _compact_rows(a, rows)
        self.x = self.x[rows]
        (self.fg, self.g_norm2, self.dfg, self.gram, self.scale, self.gamma_col,
         self.extrapolated) = (a[:s] for a in self._buffers)
        self.pair, self.r_dot, self.ridge, self.lhs, self.rhs, self.step_row = (
            a[:s] for a in self._scratch)
        self.f, self.g, self.df, self.dg = (self.fg[:, 0], self.fg[:, 1], self.dfg[:, :, 0],
                                            self.dfg[:, :, 1])
        self.t, self.r = self.pair[:, 0], self.pair[:, 1]  # T and g at the current point
        self.r_row, self.r_col = self.r.reshape(s, 1, dim), self.r.reshape(s, dim, 1)
        self.r_norm2 = self.r_dot[:, 0, 0]
        # per ring slot j: (df, dg)_j, flat as a row and as a column, dg_j as
        # a column, row and column j of the Gram matrix, and scale_j
        dfg = [self.dfg[:, j] for j in range(ANDERSON_DEPTH)]
        self.slots = [(a, a.reshape(s, 1, 2 * dim), a.reshape(s, 2 * dim, 1), a[:, 1, :, None],
                       self.gram[:, j, :, None], self.gram[:, :, j, None],
                       self.scale[:, j, None, None]) for j, a in enumerate(dfg)]
        self.ridge_col = self.ridge[:, None]
        self.lhs_diag = np.einsum("sii->si", self.lhs)  # a writable view
        self.g_col = self.g[..., None]
        self.gamma = self.gamma_col[..., 0]
        self.gamma_row = self.gamma[:, None, :]
        self.step_flat = self.step_row[:, 0]


def _largest(res: dict[str, np.ndarray]) -> np.ndarray:
    """Each start's largest residual: an ``np.maximum`` over the names, in their order."""
    return functools.reduce(np.maximum, res.values())


def _floats(y: np.ndarray) -> np.ndarray:
    """A C-contiguous stack as one float64 row per start, a view; complex entries as (re, im)."""
    return y.view(np.float64).reshape(len(y), -1)


def solve_feasibility_batch(
    sets,
    starts: np.ndarray,
    residual_fn: BatchResidualFn,
    tol: float,
    max_iter: int,
    check_every: int = 10,
) -> list[FeasibilityResult]:
    """Run product-space Douglas-Rachford on a stack of starts in lockstep.

    y holds one point a start and set of ``sets``: an ``(s, k, n, n)``
    stack of Hermitian matrices for ``(s, n, n)`` starts, in their dtype,
    or flat ``(s, k n)`` rows of coefficient vectors for ``(s, n)`` ones.
    Each cycle evaluates T once, at the point ``_AndersonHistory`` chose.
    The candidates are the PSD projection of the average of T over the
    sets, and ``residual_fn`` returns one ``(s,)`` array per residual name.  A start stops when its
    best maximum residual reaches ``tol``, on a stall (no relative
    improvement by ``_STALL_RTOL`` over ``STALL_WINDOW`` cycles:
    infeasible problems end here), or at ``max_iter``, and leaves the
    stack.  Results come back in the order of the starts.
    """
    starts = np.asarray(starts)
    n_sets, n = len(sets), starts.shape[-1]
    if starts.ndim == 3:
        points, readout = hermitian_part(starts), project_psd
        project = product_projection(sets, n)
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
        anderson, dr_map = _AndersonHistory(y), _folded_dr_map(sets, n)
        accelerate = anderson.step

        def readout(y: np.ndarray) -> np.ndarray:
            return np.maximum(y, 0.0)
    best_point = readout(points)
    best_res = residual_fn(best_point)
    best_max = _largest(best_res)
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
        res_max = _largest(res)
        last_improvement[res_max < best_max * (1.0 - _STALL_RTOL)] = it
        # a start keeps its point and residuals from the first check that
        # reached its best: a tie does not replace them, and a check where
        # no start improved rebuilds nothing
        better = res_max < best_max
        if np.count_nonzero(better):
            best_point = np.where(better.reshape(-1, *[1] * (starts.ndim - 1)), candidate,
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


def solve_feasibility(sets, start: np.ndarray, residual_fn: ResidualFn,
                      **options) -> FeasibilityResult:
    """Douglas-Rachford from one start; ``solve_feasibility_batch`` on a stack of one.

    ``residual_fn`` takes the single candidate point and returns floats.
    ``options`` go to the batch, which declares them.
    """
    def residuals(m: np.ndarray) -> dict[str, np.ndarray]:
        return {name: np.array([value]) for name, value in residual_fn(m[0]).items()}

    [result] = solve_feasibility_batch(sets, np.asarray(start)[None], residuals, **options)
    return result
