"""Convex feasibility engine for intersections of constraint sets.

Product-space Douglas-Rachford (DR) splitting from one start: the
governing sequence holds one point per constraint set C_1, ..., C_k, and
each cycle evaluates T(y) = y + P(2 avg - y) - avg once, P the projection
onto C_1 x ... x C_k and avg the average over the sets.  A search states
its sets (``Cone``s and affine projections); the engine builds P, T and
the readout, the PSD projection of the average, from them and the
start's shape.  On Hermitian matrices, kept exactly Hermitian (the affine
formulas are only orthogonal there), P sends every cone block through
one ``eigh`` (``product_projection``).  On coefficient vectors (the
twirl-algebra synthesis search) T is one affine-clip-affine map, and a
cycle one product and one clip.

Safeguarded type-II Anderson mixing (Fu-Zhang-Boyd, arXiv:1908.11482;
Zhang-O'Donoghue-Boyd, arXiv:1808.03971) accelerates T on matrices alone, on
the point's float64 entries as one vector (a Frobenius inner product): there
T costs an ``eigh``, and a fused vector cycle a tenth of a step.  The Anderson
depth and the stall rule are module constants; the per-call options are
declared on ``solve_feasibility``.

A search passes its start.  The broadcast sampler's random starts are
Ginibre density matrices drawn here (``seeded_starts``); the synthesis
search starts at I/D and draws nothing.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv  # LAPACK gesv, without np.linalg's wrapper

from .operators import hermitian_part

Projection = Callable[[np.ndarray], np.ndarray]
ResidualFn = Callable[[np.ndarray], dict[str, float]]


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
    """A Ginibre-ensemble density matrix in ``dtype``, the dtype of the search's data.

    It is g g^H / Tr(g g^H), g = a + i b with a and b standard normal,
    drawn a then b.  A real one is the real part of the complex draw from
    the same generator state: Re rho = (rho + conj rho) / 2 is still PSD
    with unit trace, and the generator advances as for a complex draw.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m if np.issubdtype(dtype, np.complexfloating) else m.real.copy()


def seeded_starts(dim: int, n_starts: int, seed: int, dtype: np.dtype = np.float64):
    """The seeded dim x dim ``random_density_matrix`` starts, drawn in order from one generator."""
    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        yield random_density_matrix(dim, rng, dtype)


class Cone(NamedTuple):
    """The set {x : F x - shift is PSD} of a search, F an orthogonal ``frame``.

    F is a matrix on coefficient vectors, where the cone is a clip, and an
    index array permuting the n^2 entries of n x n matrices, keeping them
    Hermitian, such as the partial transpose; None is the identity.  Any
    other set is an affine projection: a pair (B, o), y -> y B + o, on
    coefficient vectors, or a callable on one n x n matrix.
    """

    frame: np.ndarray | None = None
    shift: np.ndarray | float = 0.0


def product_projection(sets, n: int) -> Projection:
    """P onto a product of sets of n x n Hermitian matrices, on (k, n, n) arrays.

    A cone maps its block x to F^-1 (s + P_psd(F x - s)), or to P_psd(x)
    with neither frame nor shift.  One index gathers every cone block, in
    its frame and shifted, into one ``project_psd`` call and scatters the
    results back; each affine set's callable maps its block.
    """
    cones = [(i, c) for i, c in enumerate(sets) if isinstance(c, Cone)]
    # entry j of cone c is entry gather[c, j] of the flattened blocks
    gather = np.stack([i * n * n + (np.arange(n * n) if c.frame is None else c.frame)
                       for i, c in cones])
    shifts = np.stack([np.broadcast_to(np.ravel(c.shift), n * n) for _, c in cones])
    restore = [j for j, (_, c) in enumerate(cones) if c.frame is not None or np.any(c.shift)]

    def project(z: np.ndarray) -> np.ndarray:
        psd = z.reshape(-1)[gather]
        psd -= shifts
        psd = project_psd(psd.reshape(-1, n, n)).reshape(psd.shape)
        psd[restore] += shifts[restore]
        out = np.empty_like(z)
        out.reshape(-1)[gather] = psd
        for i, c in enumerate(sets):
            if not isinstance(c, Cone):
                out[i] = c(z[i])
        return out

    return project


def _folded_dr_map(sets, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, floor, B) of T(y) = y + P(2 avg - y) - avg = max(y F, floor) B, y of k sets of n.

    For row vectors P(y) = max(y F, clip) B + o, block by block: a cone is
    y -> max(y F^T, shift) F, an affine set y -> max(y, -inf) B + o.  With
    M the set-average matrix, T(y) = y (I - M) + max(y (2M - I) F, clip) B + o,
    one affine-clip-affine map: F = [I - M | (2M - I) F | 0], floor
    [-inf | clip | 1] and B = [I; B; o].  A solve iterates w = max(y F, floor):
    T^j(y) = w_j B, and a cycle is w -> max(w B F, floor).
    """
    k = len(sets)
    size = k * n
    eye = np.eye(size)
    identity = eye[:n, :n]
    avg = np.tile(identity / k, (k, k))
    # F's frames and B's rows [I; B; o], and the floor [-inf | clip | 1],
    # written block by block into zeros and -infs
    forward, back = np.zeros((size, size)), np.zeros((2 * size + 1, size))
    floor = np.full(2 * size + 1, -np.inf)
    back[:size], floor[-1] = eye, 1.0
    backward, clip, offset = back[size:-1], floor[size:-1], back[-1]
    for i, c in enumerate(sets):
        block = slice(i * n, (i + 1) * n)
        if isinstance(c, Cone):
            frame = identity if c.frame is None else c.frame
            forward[block, block], backward[block, block] = frame.T, frame
            clip[block] = c.shift + 0.0  # a clip at zero is +0.0
        else:
            forward[block, block], backward[block, block], offset[block] = identity, c[0], c[1]
    fold = np.empty((size, len(floor)))
    fold[:, :size], fold[:, size:-1], fold[:, -1] = eye - avg, (2.0 * avg - eye) @ forward, 0.0
    return fold, floor, back


class FeasibilityResult(NamedTuple):
    """Outcome of a feasibility solve.

    ``best_history`` records the best-so-far maximum residual at every
    check, so the reported series is non-increasing by construction.
    """

    point: np.ndarray
    converged: bool
    stalled: bool
    iterations: int
    residuals: dict[str, float]
    best_history: list[float]


# Anderson acceleration: differences kept, and the ridge weight of its
# least-squares problem relative to the squared sizes of those
# differences.  The stall rule: a solve stops after STALL_WINDOW cycles in
# which its best maximum residual did not fall by a relative _STALL_RTOL.
ANDERSON_DEPTH = 3
_ANDERSON_REG = 1e-10
STALL_WINDOW = 500
_STALL_RTOL = 1e-9
_TINY = np.finfo(float).tiny


class _AndersonHistory:
    """Safeguarded type-II Anderson acceleration of a fixed-point map T on one float64 vector.

    It keeps the current point ``x`` (the last returned, never written),
    the pair ``fg`` = (f, g) of T and g = T - id at its last accepted
    point, ``g_norm2`` = |g|^2, the last ``ANDERSON_DEPTH`` differences
    ``dfg`` = (df, dg) of that pair in a ring, ``gram`` = dg dg^T (one new
    row a step), ``scale`` = |df_j|^2 + |dg_j|^2 for the ridge, and whether
    the current point was ``extrapolated``.  Each inner product is a dot or
    a matrix-vector product of the plain formula, so no sum is reordered.
    """

    def __init__(self, x0: np.ndarray) -> None:
        depth = ANDERSON_DEPTH
        self.x = x0.copy()
        self.slot = -1  # ring slot of the newest difference; -1 before the first step
        self.fg, self.g_norm2 = np.zeros((2, len(x0))), 0.0
        self.dfg, self.gram = np.zeros((depth, 2, len(x0))), np.zeros((depth, depth))
        self.scale, self.extrapolated = np.zeros(depth), False

    def step(self, t: np.ndarray) -> np.ndarray:
        """Take T at the current point; return the next point, in a new array.

        An extrapolated point with a larger |g| than the point it left from
        is rejected: the solve goes on from the T it holds, history cleared.
        """
        g = t - self.x
        g_norm2 = g @ g
        pair = np.stack((t, g))
        if self.slot < 0:  # the first step is a plain one
            self.slot = ANDERSON_DEPTH - 1
            self.fg, self.g_norm2, self.x = pair, g_norm2, t.copy()
            return self.x
        self.slot = j = (self.slot + 1) % ANDERSON_DEPTH
        dfg, gram, scale = self.dfg, self.gram, self.scale
        if self.extrapolated and g_norm2 > self.g_norm2:
            dfg[...] = gram[...] = scale[...] = 0.0
            self.extrapolated = False
        else:  # the new difference, its Gram row (and column), and its size
            dfg[j] = pair - self.fg
            gram[j] = gram[:, j] = dfg[:, 1] @ dfg[j, 1]
            scale[j] = dfg[j].ravel() @ dfg[j].ravel()
            self.fg, self.g_norm2, self.extrapolated = pair, g_norm2, True
        # gamma = argmin |g - dg gamma|^2 + ridge |gamma|^2, the ridge scaled
        # by the sizes of both difference sets (Fu-Zhang-Boyd) and added
        # onto the diagonal of a copy of the Gram matrix; a cleared column
        # gets gamma 0, and an all-clear history the plain step
        lhs = gram.copy()
        lhs.flat[::ANDERSON_DEPTH + 1] += _ANDERSON_REG * scale.sum() + _TINY
        gamma = _gesv(lhs, (dfg[:, 1] @ self.fg[1])[:, None])[:, 0]
        self.x = self.fg[0] - gamma @ dfg[:, 0]
        return self.x


def _largest(res: dict[str, float]) -> float:
    """The largest residual, over the names in their order, in plain Python.

    As a reduction with ``np.maximum``: a NaN wins, and a tie takes the later name.
    """
    largest = -math.inf
    for r in res.values():
        if r >= largest or r != r:
            largest = r
    return largest


def solve_feasibility(sets, start: np.ndarray, residual_fn: ResidualFn, tol: float,
                      max_iter: int, check_every: int = 10) -> FeasibilityResult:
    """Run product-space Douglas-Rachford from one start.

    y holds one point a set of ``sets``: a ``(k, n, n)`` array of Hermitian
    matrices for an ``(n, n)`` start, in its dtype, or a flat ``(k n,)``
    vector of coefficients for an ``(n,)`` one.  Each cycle evaluates T
    once: on matrices, where T costs an ``eigh``, at the point
    ``_AndersonHistory`` chose from y's float64 view; on vectors, where T
    costs a fraction of an Anderson step, at the last T (plain DR).  A
    check, every ``check_every`` cycles and at ``max_iter``, reads out the
    PSD projection of the average of T over the sets, an ``(n, n)`` or
    ``(n,)`` candidate, and ``residual_fn`` maps it to one float per
    residual name.  The solve stops when its best maximum residual reaches
    ``tol``, on a stall (no relative improvement by ``_STALL_RTOL`` over
    ``STALL_WINDOW`` cycles: infeasible problems end here), or at
    ``max_iter``.  ``max_iter`` and ``check_every`` must be at least 1.
    """
    if max_iter < 1:
        raise ValueError("cycle cap must be >= 1")
    if check_every < 1:
        raise ValueError("check interval must be >= 1")
    start = np.asarray(start)
    n_sets, n = len(sets), start.shape[-1]
    if start.ndim == 2:
        points = hermitian_part(start)
        project, best_point = product_projection(sets, n), project_psd(points)
        y = np.stack([points] * n_sets)
        anderson = _AndersonHistory(y.view(np.float64).ravel())

        def dr_map(y: np.ndarray) -> np.ndarray:
            # in y's buffer, kept exactly Hermitian by a P that keeps it so:
            # entries (i, j) and (j, i) see the same additions, up to sign
            avg = y.sum(axis=0) / n_sets
            y += project(2.0 * avg - y)
            y -= avg
            return y

        def run(y: np.ndarray, done: int, stop: int) -> np.ndarray:
            """Cycles done + 1 to stop: T at the start, then T at the point Anderson takes from T."""
            if done == 0:
                y, done = dr_map(y), 1
            for _ in range(done, stop):
                x = anderson.step(y.view(np.float64).ravel())
                y = dr_map(hermitian_part(x.view(y.dtype).reshape(y.shape), out=y))
            return y

        def readout(y: np.ndarray) -> np.ndarray:
            return project_psd(y.sum(axis=0) / n_sets)
    else:  # y holds w, T = w B (``_folded_dr_map``), from a w with w B = the tiled start
        fold, floor, back = _folded_dr_map(sets, n)
        cycle, average = back @ fold, back.reshape(-1, n_sets, n).sum(axis=1) / n_sets
        y = np.zeros(len(floor))
        y[:n_sets * n].reshape(n_sets, n)[...] = start
        z, best_point = np.empty_like(y), np.maximum(start, 0.0)

        def run(w: np.ndarray, done: int, stop: int) -> np.ndarray:
            """Cycles done + 1 to stop, in w's buffer: w <- max(w BF, floor)."""
            for _ in range(done, stop):
                np.dot(w, cycle, out=z)
                np.maximum(z, floor, out=w)
            return w

        def readout(w: np.ndarray) -> np.ndarray:
            return np.maximum(np.dot(w, average), 0.0)
    best_res = residual_fn(best_point)
    best_max = _largest(best_res)
    history = [float(best_max)]
    last_improvement = it = 0
    while True:
        # the cycles up to the next check; y then holds T at the current point
        stop = min(it + check_every, max_iter)
        y, it = run(y, it, stop), stop
        candidate = readout(y)
        res = residual_fn(candidate)
        res_max = _largest(res)
        if res_max < best_max * (1.0 - _STALL_RTOL):
            last_improvement = it
        # a tie keeps the point and residuals of the first check that reached the best
        if res_max < best_max:
            best_point, best_res, best_max = candidate, res, res_max
        history.append(float(best_max))
        converged = bool(best_max <= tol)
        stalled = not converged and it - last_improvement >= STALL_WINDOW
        if converged or stalled or it == max_iter:
            return FeasibilityResult(best_point, converged, stalled, it,
                                     {name: float(r) for name, r in best_res.items()}, history)
