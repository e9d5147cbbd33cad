"""Lockstep Douglas-Rachford: a stack of starts against each start run alone."""
import tracemalloc

import numpy as np
import pytest

from catcost import broadcast, projections
from catcost.broadcast import (
    _marginal_projections,
    sample_two_copy_broadcasts,
)
from catcost.choi import _twirled_dilution, synthesize_ppt_dilution
from catcost.cli import _named_target, scenario_rigidity
from catcost.measures import copy_ranks, twirl_coefficients
from catcost.operators import (
    MAX_ENTRIES,
    bipartite_shape,
    density_from_matrix,
    hermitian_part,
    tensor,
    trace_distance,
)
from catcost.projections import (
    ANDERSON_DEPTH,
    DRAW_ENTRIES,
    _ANDERSON_REG,
    _TINY,
    _AndersonHistory,
    _floats,
    _folded_dr_map,
    _gesv,
    _row_dots,
    Cone,
    product_projection,
    project_psd,
    random_density_matrix,
    seeded_starts,
    solve_feasibility,
    solve_feasibility_batch,
)
from catcost.states import max_entangled

from conftest import spectral_calls


def scalar_residuals(residual_fn):
    return lambda x: {name: float(value) for name, value in residual_fn(x).items()}


def assert_same_outcome(batched, alone):
    assert (batched.iterations, batched.converged, batched.stalled) == (
        alone.iterations, alone.converged, alone.stalled)
    assert batched.best_history == alone.best_history
    assert batched.residuals == alone.residuals


def hermitian_signature(x):
    return x.dtype, bool(np.array_equal(x, x.conj().swapaxes(-1, -2)))


def spy_on_engine_inputs(monkeypatch, module, describe=hermitian_signature):
    """Record ``describe`` of every array the engine hands on: (dtype, exactly Hermitian).

    Wraps ``module.solve_feasibility_batch`` so that the product
    projection it builds for matrix starts and ``residual_fn`` record
    their argument first, and the product projection its output too.  A
    vector search's T is folded from its sets, and calls no projection.
    """
    seen = set()
    batch, build = projections.solve_feasibility_batch, projections.product_projection

    def record(x):
        seen.add(describe(x))

    def recording_build(sets, n):
        project = build(sets, n)

        def spied(z):
            record(z)
            out = project(z)
            record(out)
            return out
        return spied

    def spying_batch(sets, starts, residual_fn, **kwargs):
        def residuals(x):
            record(x)
            return residual_fn(x)
        return batch(sets, starts, residuals, **kwargs)

    monkeypatch.setattr(projections, "product_projection", recording_build)
    monkeypatch.setattr(module, "solve_feasibility_batch", spying_batch)
    return seen


def vector_product(sets):
    """P onto a product of sets of coefficient vectors, block by block: each set's formula."""
    def block(c, y):
        if not isinstance(c, Cone):
            return y @ c[0] + c[1]
        frame = np.eye(y.shape[-1]) if c.frame is None else c.frame
        return np.maximum(y @ frame.T, c.shift) @ frame  # frame^T max(frame x, shift), row-wise

    return lambda z: np.stack([block(c, z[:, i]) for i, c in enumerate(sets)], axis=1)


def trace_minus_one(n):
    """Projection onto {tr X = -1}, which misses the PSD cone, and the residuals."""
    def proj(x):
        tr = np.trace(x, axis1=-2, axis2=-1).real
        return x - ((tr + 1.0) / n)[..., None, None] * np.eye(n)

    def residual(x):
        return {"psd": np.maximum(0.0, -np.linalg.eigvalsh(x).min(axis=-1)),
                "trace": np.abs(np.trace(x, axis1=-2, axis2=-1).real + 1.0)}

    return proj, residual


# every product the twirled search builds: synthesis of a k = 1 and a
# k = 2 copy target at m = 0..3
TWIRLED_SEARCHES = [f"{name} --m {m}" for name in ("noisy-phi-2", "broadcast-phi-2")
                    for m in range(4)]


def twirled_search(case, n_starts):
    """A twirled search: its sets, seeded vector starts and batch residuals."""
    name, _, m = case.split()
    target = _named_target(name)
    sets, _, residual, _ = _twirled_dilution(int(m), target, 0)
    [drawn] = seeded_starts(target.shape.total_dim, n_starts, 0, "start")
    root = np.sqrt(copy_ranks(target.d, target.coeffs.ndim).ravel())
    starts = root * twirl_coefficients(target.d, drawn).reshape(n_starts, -1)

    def residuals(ys):  # of one vector, as the search passes it, or of a stack
        if ys.ndim == 1:
            return residual(ys)
        rows = [residual(y) for y in ys]
        return {key: np.array([row[key] for row in rows]) for key in rows[0]}

    return sets, starts, residuals


class TestLockstepOracle:
    @pytest.mark.parametrize("points", ["matrices"] + TWIRLED_SEARCHES)
    def test_stack_matches_single_starts(self, rng, points):
        if points == "matrices":
            proj, residual = _marginal_projections(max_entangled(2).entries)
            starts = np.stack([random_density_matrix(16, rng) for _ in range(5)])
            sets = [proj, Cone()]
        else:
            sets, starts, residual = twirled_search(points, 5)
            assert starts.dtype == np.float64
        # the twirled synthesis at m = 0 searches an NPT target, and stalls
        feasible = not points.endswith("--m 0")
        kwargs = dict(tol=1e-9, max_iter=5000, check_every=5)
        batched = solve_feasibility_batch(sets, starts, residual, **kwargs)
        assert len(batched) == 5
        for start, result in zip(starts, batched):
            alone = solve_feasibility(sets, start, scalar_residuals(residual), **kwargs)
            assert result.converged == feasible and result.stalled != feasible
            assert result.point.shape == start.shape
            assert_same_outcome(result, alone)
            if points == "matrices":
                assert np.abs(result.point - alone.point).max() <= 1e-12
            else:  # each row's bits do not depend on the stack
                assert np.array_equal(result.point, alone.point)
            hist = result.best_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestFoldedMap:
    @pytest.mark.parametrize("case", TWIRLED_SEARCHES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_folded_map_is_the_reflection(self, rng, case, scale):
        sets, starts, _ = twirled_search(case, 1)
        n_sets, n = len(sets), starts.shape[1]
        y = scale * rng.standard_normal((7, n_sets, n))
        avg = y.sum(axis=1, keepdims=True) / n_sets
        reflection = y + vector_product(sets)(2.0 * avg - y) - avg
        folded = _folded_dr_map(sets, n)(y.reshape(len(y), -1))
        assert folded.shape == (7, y[0].size) and folded.dtype == np.float64
        # a few ulps of the stack's scale: the fold sums in another order
        size = max(np.abs(y).max(), np.abs(reflection).max())
        assert np.abs(folded.reshape(y.shape) - reflection).max() <= 4 * np.finfo(float).eps * size

    def test_direct_solve_is_numpys(self, rng):
        for s in (1, 5, 50):
            a = rng.standard_normal((s, 3, 3))
            lhs = a @ a.swapaxes(1, 2) + 1e-10 * np.eye(3)
            rhs = rng.standard_normal((s, 3, 1))
            assert np.array_equal(_gesv(lhs, rhs), np.linalg.solve(lhs, rhs))


class TestStarts:
    @pytest.mark.parametrize("dim", [3, 16])
    def test_real_start_is_the_real_part_of_the_same_draw(self, dim):
        complex_rng, real_rng = np.random.default_rng(7), np.random.default_rng(7)
        draw = random_density_matrix(dim, complex_rng)
        real = random_density_matrix(dim, real_rng, np.float64)
        assert draw.dtype == np.complex128 and real.dtype == np.float64
        assert np.array_equal(real, draw.real)
        assert np.linalg.eigvalsh(real).min() >= 0.0
        assert abs(np.trace(real) - 1.0) <= 1e-15
        # both generators advanced alike: the next draws agree too
        assert np.array_equal(random_density_matrix(dim, real_rng, np.float64),
                              random_density_matrix(dim, complex_rng).real)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("dim, n_starts", [
        (4, 3),
        (16, 7),    # within one draw part: DRAW_ENTRIES // 256 = 8 starts
        (16, 20),   # across draw parts
        (16, 300),  # across a MAX_ENTRIES block of 256 starts
        (256, 2),   # one start a block, over a draw part on its own
    ])
    def test_stacked_draw_is_the_sequential_draw(self, dtype, dim, n_starts):
        # every seeded search start, every pinned cycle count, rests on these bits
        assert (DRAW_ENTRIES // dim ** 2, MAX_ENTRIES // dim ** 2) in {(128, 4096), (8, 256), (0, 1)}
        drawn = list(seeded_starts(dim, n_starts, 5, "start", dtype))
        assert [len(stack) for stack in drawn[:-1]] == [MAX_ENTRIES // dim ** 2] * (len(drawn) - 1)
        stacked = np.concatenate(drawn)
        assert stacked.dtype == dtype and stacked.shape == (n_starts, dim, dim)
        one_by_one = np.random.default_rng(5)
        assert np.array_equal(stacked, np.stack([random_density_matrix(dim, one_by_one, dtype)
                                                 for _ in range(n_starts)]))
        # and the per-start formula, two draws a start, gives the same bits
        rng = np.random.default_rng(5)
        for start in stacked:
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            m = m / np.trace(m).real
            assert np.array_equal(start, m if dtype == np.complex128 else m.real)


class TestRetirement:
    @pytest.fixture
    def problem(self, rng):
        proj, residual = trace_minus_one(3)
        scales = (1e-4, 1e-1, 1e2, 1e5, 1e8)
        starts = np.stack([random_density_matrix(3, rng) * s for s in scales])
        return [Cone(), proj], residual, starts

    def test_infeasible_starts_stall_at_their_own_cycle(self, problem, monkeypatch):
        monkeypatch.setattr(projections, "STALL_WINDOW", 50)
        sets, residual, starts = problem
        batched = solve_feasibility_batch(sets, starts, residual, tol=1e-6, max_iter=20000)
        assert all(r.stalled and not r.converged for r in batched)
        # starts leave the stack at different cycles
        assert len({r.iterations for r in batched}) > 1
        for start, result in zip(starts, batched):
            # a stall ends the run 50 cycles after the last relative
            # improvement; checks fall every 10 cycles
            hist = result.best_history
            last = max(i for i in range(1, len(hist)) if hist[i] < hist[i - 1] * (1 - 1e-9))
            assert result.iterations == 10 * last + 50
            alone = solve_feasibility(sets, start, scalar_residuals(residual),
                                      tol=1e-6, max_iter=20000)
            assert_same_outcome(result, alone)
            assert np.array_equal(result.point, alone.point)

    def test_iteration_cap(self, problem):
        sets, residual, starts = problem
        batched = solve_feasibility_batch(sets, starts, residual, tol=1e-6, max_iter=15)
        assert [(r.converged, r.stalled, r.iterations) for r in batched] == [
            (False, False, 15)] * len(starts)
        # the cap forces a final check off the check_every grid
        assert all(len(r.best_history) == 3 for r in batched)


def hermitian_formula(m):
    return (m + m.conj().swapaxes(-1, -2)) / 2


class TestInPlaceArithmetic:
    """The buffer-reusing kernels repeat the plain formulas bit for bit."""

    @pytest.mark.parametrize("n", [4, 9, 16])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_hermitian_part_into_a_buffer_matches_the_formula(self, rng, dtype, n):
        g = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        m = g.real.copy() if dtype is np.float64 else g
        before = m.copy()
        buf = np.empty_like(m)
        oracle = hermitian_formula(m)
        assert oracle.dtype == dtype
        # byte for byte: the signs of zeros too
        assert hermitian_part(m).tobytes() == oracle.tobytes()
        assert hermitian_part(m, out=buf) is buf
        assert buf.tobytes() == oracle.tobytes()
        assert m.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_project_psd_matches_the_formula(self, rng, dtype):
        g = rng.standard_normal((4, 9, 9)) + 1j * rng.standard_normal((4, 9, 9))
        m = hermitian_part(g).real.copy() if dtype is np.float64 else hermitian_part(g)
        w, v = np.linalg.eigh(m)
        oracle = hermitian_formula((v * np.clip(w, 0.0, None)[..., None, :])
                                   @ v.conj().swapaxes(-1, -2))
        got = project_psd(m)
        assert got.dtype == dtype
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("n", [4, 9, 16])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_stacked_project_psd_equals_per_block_calls(self, rng, dtype, n):
        g = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        m = hermitian_part(g).real.copy() if dtype is np.float64 else hermitian_part(g)
        stacked = project_psd(m)
        assert np.array_equal(stacked, np.stack([project_psd(block) for block in m]))
        # a block of a larger stack, as the product projections pass them
        assert np.array_equal(stacked[2:4], project_psd(m[2:4]))

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_product_projection_repeats_the_per_set_formulas(self, rng, dtype):
        # a shifted cone, a cone in a frame that permutes rows and columns
        # alike (no involution), and an affine set, on one stack
        n = 5
        g = rng.standard_normal((3, 3, n, n)) + 1j * rng.standard_normal((3, 3, n, n))
        z = hermitian_part(g).real.copy() if dtype is np.float64 else hermitian_part(g)
        shift = z[0, 0] / 3.0
        p = rng.permutation(n)
        frame = (p[:, None] * n + p[None, :]).ravel()

        def trace_free(x):
            return x - (np.trace(x, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)

        project = product_projection([Cone(None, shift), Cone(frame), trace_free], n)
        q = np.argsort(p)
        framed = project_psd(z[:, 1][:, p][:, :, p])[:, q][:, :, q]
        blocks = [shift + project_psd(z[:, 0] - shift), framed, trace_free(z[:, 2])]
        got = project(z)
        assert got.dtype == dtype
        assert np.array_equal(got, np.stack(blocks, axis=1))


class TestFloatView:
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_row_dots_are_frobenius_products(self, rng, dtype):
        a, b = (hermitian_part(rng.standard_normal((4, 3, 5, 5))
                               + 1j * rng.standard_normal((4, 3, 5, 5))) for _ in range(2))
        if dtype is np.float64:
            a, b = a.real.copy(), b.real.copy()
        x = _floats(a)
        assert x.dtype == np.float64 and np.shares_memory(x, a)
        assert x.shape == (4, 3 * 25 * (2 if dtype is np.complex128 else 1))
        # Re tr(A^dagger B) summed over the k matrices of each start
        frobenius = np.array([np.vdot(p, q) for p, q in zip(a, b)])
        assert np.abs(frobenius.imag).max() <= 1e-13
        dots = _row_dots(x, _floats(b))
        assert np.abs(dots - frobenius.real).max() <= 1e-14 * np.abs(frobenius).max()


def affine_contraction(rng, dim):
    """T(x) = a x + b row by row, a symmetric with spectrum in [0, 0.99]; and T's fixed point."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a, b = (q * np.linspace(0.0, 0.99, dim)) @ q.T, rng.standard_normal(dim)
    return (lambda x: np.stack([a @ row + b for row in x])), np.linalg.solve(np.eye(dim) - a, b)


class TestAnderson:
    def test_rejected_extrapolation_continues_from_the_held_step(self, rng):
        t, _ = affine_contraction(rng, 8)
        x0 = rng.standard_normal((2, 8))
        history = _AndersonHistory(x0)
        df, dg, gram, scale, gamma, extrapolated = (
            history.df, history.dg, history.gram, history.scale, history.gamma,
            history.extrapolated)
        x1 = history.step(t(x0))
        assert not extrapolated.any()  # the first step is a plain one
        t1 = t(x1)
        x2 = history.step(t1)
        assert extrapolated.all() and not np.array_equal(x2, t1)
        # T at x2: start 0 reports a residual ten times the one at x1, so
        # it rejects x2; start 1 reports its true value
        step = t(x2)
        step[0] = x2[0] + 10.0 * (t1[0] - x1[0])
        x3 = history.step(step)
        assert np.array_equal(x3[0], t1[0])
        assert not extrapolated[0] and extrapolated[1]
        for buffer in (df, dg, gram, scale, gamma):
            assert not buffer[0].any() and buffer[1].any()
        # start 0 builds a new history from the step it went on from
        history.step(t(x3))
        assert extrapolated.all()

    def test_acceleration_beats_plain_iteration_on_a_contraction(self, rng):
        t, fixed = affine_contraction(rng, 8)
        history = _AndersonHistory(np.zeros((1, 8)))
        x = plain = np.zeros((1, 8))
        for _ in range(30):
            x = history.step(t(x))
            plain = t(plain)
        assert np.abs(x - fixed).max() <= 1e-3 * np.abs(plain - fixed).max()

    def test_compaction_keeps_each_rows_history(self, rng):
        t, _ = affine_contraction(rng, 6)
        starts = rng.standard_normal((3, 6))
        stacked = _AndersonHistory(starts)
        alone = _AndersonHistory(starts[2:])
        x, y = starts, starts[2:]
        for i in range(5):
            x, y = stacked.step(t(x)), alone.step(t(y))
            if i == 2:
                stacked.keep(np.array([False, False, True]))
                x = x[2:]
        assert np.array_equal(x, y)
        assert all(np.array_equal(a, b) for a, b in zip(stacked._rows, alone._rows))


class AndersonOracle:
    """The Anderson step in its plain formulas, on fresh arrays: the engine's reference.

    The rows and every product are the engine's: (T, g) pairs side by
    side, the differences in a ring of ANDERSON_DEPTH slots, ``_row_dots``
    for the sizes, the ridged system built as gram + ridge (x) eye, and
    ``np.count_nonzero`` deciding a rejection.  ``rejections`` counts the
    rows that rejected a step.
    """

    def __init__(self, x0):
        (s, dim), depth = x0.shape, ANDERSON_DEPTH
        self.x, self.slot, self.rejections = x0.copy(), -1, 0
        self.fg, self.g_norm2 = np.zeros((s, 2, dim)), np.zeros(s)
        self.dfg, self.gram = np.zeros((s, depth, 2, dim)), np.zeros((s, depth, depth))
        self.scale, self.extrapolated = np.zeros((s, depth)), np.zeros(s, dtype=bool)

    def step(self, t):
        pair = np.stack([t, t - self.x], axis=1)
        r_norm2 = _row_dots(pair[:, 1], pair[:, 1])
        if self.slot < 0:
            self.slot, self.fg, self.g_norm2 = ANDERSON_DEPTH - 1, pair, r_norm2
            self.x = t.copy()
            return self.x
        rejected = self.extrapolated & (r_norm2 > self.g_norm2)
        self.slot = j = (self.slot + 1) % ANDERSON_DEPTH
        self.dfg[:, j] = pair - self.fg
        dg = self.dfg[:, :, 1]
        row = np.matmul(dg, self.dfg[:, j, 1, :, None])[..., 0]
        self.gram[:, j, :] = self.gram[:, :, j] = row
        self.scale[:, j] = _row_dots(self.dfg[:, j], self.dfg[:, j])
        if np.count_nonzero(rejected):
            self.rejections += np.count_nonzero(rejected)
            self.dfg[rejected] = self.gram[rejected] = self.scale[rejected] = 0.0
            self.fg = np.where(rejected[:, None, None], self.fg, pair)
            self.g_norm2 = np.where(rejected, self.g_norm2, r_norm2)
            self.extrapolated = ~rejected
        else:
            self.fg, self.g_norm2 = pair, r_norm2
            self.extrapolated = np.ones(len(t), dtype=bool)
        ridge = _ANDERSON_REG * np.add.reduce(self.scale, 1) + _TINY
        lhs = self.gram + np.multiply.outer(ridge, np.eye(ANDERSON_DEPTH))
        gamma = _gesv(lhs, np.matmul(dg, self.fg[:, 1, :, None]))[..., 0]
        self.x = self.fg[:, 0] - np.matmul(gamma[:, None, :], self.dfg[:, :, 0])[:, 0]
        return self.x

    def keep(self, keep):
        (self.x, self.fg, self.g_norm2, self.dfg, self.gram, self.scale,
         self.extrapolated) = (a[keep] for a in (self.x, self.fg, self.g_norm2, self.dfg,
                                                 self.gram, self.scale, self.extrapolated))


def stalled_synthesis_map():
    """T of the infeasible twirled ``synthesize noisy-phi-2 --m 0`` and four starts, as rows."""
    sets, starts, _ = twirled_search("noisy-phi-2 --m 0", 4)
    return _folded_dr_map(sets, starts.shape[1]), np.tile(starts, len(sets))


def infeasible_complex_map(rng):
    """T of PSD cone against {tr X = -1} on 3x3 complex matrices, on float rows; four starts."""
    proj, _ = trace_minus_one(3)
    project = product_projection([Cone(), proj], 3)
    shape = (4, 2, 3, 3)  # (starts, sets, n, n)

    def dr_map(rows):
        y = hermitian_part(rows.view(np.complex128).reshape(-1, *shape[1:]))
        avg = y.sum(axis=1, keepdims=True) / 2
        return _floats(y + project(2.0 * avg - y) - avg)

    starts = np.stack([[random_density_matrix(3, rng) * scale] * 2
                       for scale in (1e-2, 1.0, 3.0, 1e2)])
    return dr_map, _floats(starts).copy()


class TestAndersonOracle:
    """The engine's Anderson step repeats the plain formulas bit for bit."""

    @pytest.mark.parametrize("case", ["float64 vectors", "complex matrices"])
    def test_iterates_equal_the_oracles(self, rng, case):
        if case == "float64 vectors":
            dr_map, x0 = stalled_synthesis_map()
        else:
            dr_map, x0 = infeasible_complex_map(rng)
        engine, oracle = _AndersonHistory(x0), AndersonOracle(x0)
        x = x0
        for i in range(320):
            if i == 160:  # rows 0 and 2 retire, and the others move to the front
                keep = np.array([False, True, False, True])
                engine.keep(keep)
                oracle.keep(keep)
                x = x[keep]
            t = dr_map(x)
            if i % 37 == 36:  # row 0 reports ten times its residual: a rejection
                t[0] = x[0] + 10.0 * (t[0] - x[0])
            x = engine.step(t)
            expected = oracle.step(t)
            assert x.dtype == np.float64 and x.shape == expected.shape
            assert x.tobytes() == expected.tobytes(), f"step {i}"
        # the safeguard fired at least as often as a rejection was forced
        assert oracle.rejections >= 320 // 37


class TestCheckTies:
    def test_a_tie_keeps_the_first_check_that_reached_the_best(self, monkeypatch):
        # (r, q) of starts 0 and 1 at the starts and at checks 1-3: start 0
        # improves at checks 1 and 2, start 1 at check 1 and ties its best
        # at check 2 with other residuals; at check 3 both tie, and nothing
        # is rebuilt
        script = [((1.0, 0.5), (1.0, 0.2)), ((0.5, 0.1), (0.5, 0.1)),
                  ((0.25, 0.1), (0.5, 0.3)), ((0.25, 0.2), (0.5, 0.4))]
        candidates, rebuilt = [], []
        where = np.where

        def residuals(x):
            candidates.append(x.copy())
            (r0, q0), (r1, q1) = script[len(candidates) - 1]
            return {"r": np.array([r0, r1]), "q": np.array([q0, q1])}

        def spy(*args):
            rebuilt.append(len(candidates) - 1)
            return where(*args)

        monkeypatch.setattr(np, "where", spy)
        sets = [Cone(), (np.zeros((2, 2)), np.array([1.0, -1.0]))]  # they do not meet
        starts = np.array([[0.3, 0.7], [2.0, 0.5]])
        first, second = solve_feasibility_batch(sets, starts, residuals, tol=1e-9, max_iter=3,
                                                check_every=1)
        # the candidates move from check to check, so a kept point is told apart
        assert not np.array_equal(candidates[1], candidates[2])
        assert not np.array_equal(candidates[2], candidates[3])
        assert np.array_equal(first.point, candidates[2][0])
        assert first.residuals == {"r": 0.25, "q": 0.1}
        assert first.best_history == [1.0, 0.5, 0.25, 0.25]
        assert np.array_equal(second.point, candidates[1][1])
        assert second.residuals == {"r": 0.5, "q": 0.1}
        assert second.best_history == [1.0, 0.5, 0.5, 0.5]
        # checks 1 and 2 rebuilt the bests with np.where; check 3 did not
        assert set(rebuilt) == {1, 2}


class TestAcceleratedSolves:
    def test_real_search_keeps_iterates_and_history_float64(self, monkeypatch):
        history = set()

        class History(_AndersonHistory):
            def step(self, t):
                rows = (self.x, self.fg, self.g_norm2, self.dfg, self.gram, self.scale, self.gamma)
                history.update({a.dtype for a in rows} | {t.dtype})
                return super().step(t)

        monkeypatch.setattr(projections, "_AndersonHistory", History)
        seen = spy_on_engine_inputs(monkeypatch, projections)
        report = synthesize_ppt_dilution(2, _named_target("noisy-phi-3").to_density(), seed=0)
        assert report.converged
        assert seen == {(np.dtype(np.float64), True)}
        assert history == {np.dtype(np.float64)}

    @pytest.mark.parametrize("name, m", [("noisy-phi-2", 0), ("broadcast-phi-2", 1),
                                         ("noisy-phi-3", 2)])
    def test_twirled_search_keeps_float64_vector_iterates(self, monkeypatch, name, m):
        seen = spy_on_engine_inputs(monkeypatch, projections, lambda x: (x.dtype, x.shape[1:]))
        iterates = set()

        class History(_AndersonHistory):
            def step(self, t):
                iterates.add((t.dtype, t.shape[1:]))
                return super().step(t)

        monkeypatch.setattr(projections, "_AndersonHistory", History)
        symmetrized = []
        monkeypatch.setattr(projections, "hermitian_part", symmetrized.append)
        target = _named_target(name)
        synthesize_ppt_dilution(m, target, seed=0)
        # flat (s, sets * 2^k) iterates, whose folded T calls no projection,
        # (s, 2^k) read-outs and candidates, and no symmetrization: a
        # vector has no anti-Hermitian part
        n_sets, n = 3 if m == 0 else 4, 2 ** target.coeffs.ndim
        assert iterates == {(np.dtype(np.float64), (n_sets * n,))}
        assert seen == {(np.dtype(np.float64), (n,))}
        assert symmetrized == []

    def test_complex_search_keeps_complex_iterates(self, monkeypatch):
        seen = spy_on_engine_inputs(monkeypatch, projections)
        u = np.kron(np.eye(2), np.diag([1.0, 1j]))
        rho = _named_target("noisy-phi-2").to_density().entries
        target = density_from_matrix(u @ rho @ u.conj().T, bipartite_shape(2, 2))
        assert synthesize_ppt_dilution(1, target, seed=0).converged
        assert seen == {(np.dtype(np.complex128), True)}

    def test_infeasible_solve_still_stalls(self):
        target = _named_target("noisy-phi-2").to_density()
        for seed, cycles in enumerate([510, 510, 510, 590, 510]):
            report = synthesize_ppt_dilution(0, target, seed=seed)
            assert report.stalled and not report.converged
            assert report.npt_witness == pytest.approx(-0.125, abs=1e-12)
            hist = report.best_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            # the stall rule is unchanged: 500 cycles after the last improvement
            last = max(i for i in range(1, len(hist)) if hist[i] < hist[i - 1] * (1 - 1e-9))
            assert report.iterations == 10 * last + 500 == cycles

    def test_rigidity_work_counts(self, monkeypatch):
        cycles, calls = [], []
        eigh, batch = np.linalg.eigh, broadcast.solve_feasibility_batch

        def counting_eigh(a, *args, **kwargs):
            calls.append((np.shape(a), np.asarray(a).dtype))
            return eigh(a, *args, **kwargs)

        def counting_batch(*args, **kwargs):
            results = batch(*args, **kwargs)
            cycles.extend(r.iterations for r in results)
            return results

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(broadcast, "solve_feasibility_batch", counting_batch)
        assert len(sample_two_copy_broadcasts(max_entangled(2), n_starts=50, seed=42)) == 50
        # the plain engine took 14 160 cycles and 343 stacked eigh calls, the
        # accelerated one in complex128 8 280 and 223; in float64 8 785 and 229
        assert len(cycles) == 50 and sum(cycles) <= 9000
        assert len(calls) <= 240 and {shape[-1] for shape, _ in calls} == {16}
        assert {dtype for _, dtype in calls} == {np.dtype(np.float64)}

    def test_rigidity_stacks_are_float64(self, monkeypatch):
        seen = spectral_calls(monkeypatch)
        assert len(sample_two_copy_broadcasts(max_entangled(2), n_starts=5, seed=0)) == 5
        stacked = {(name, dtype) for name, shape, dtype in seen if len(shape) == 3}
        assert stacked == {("eigh", np.dtype(np.float64)), ("eigvalsh", np.dtype(np.float64))}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rigidity_scenario_makes_no_solve_and_no_eigendecomposition(self, monkeypatch, d):
        def refuse(*args, **kwargs):
            raise AssertionError("rigidity ran a Douglas-Rachford solve")

        monkeypatch.setattr(broadcast, "solve_feasibility_batch", refuse)
        monkeypatch.setattr(projections, "solve_feasibility_batch", refuse)
        seen = spectral_calls(monkeypatch)
        report = scenario_rigidity(d, 50, 42)
        # each twirled start is clamped onto the exact segment, the point e00
        assert report.passed
        assert report.results["max_distance_to_product"].value == 0.0
        assert seen == []

    @pytest.mark.parametrize("name, m", [("noisy-phi-2", 0), ("noisy-phi-2", 1),
                                         ("broadcast-phi-2", 1), ("noisy-phi-3", 2)])
    def test_synthesis_makes_one_eigh_per_cycle(self, monkeypatch, name, m):
        target = _named_target(name).to_density()
        target.partial_transpose_eigh  # the m = 0 witness, decomposed before the count
        n = target.dim
        seen = spectral_calls(monkeypatch)
        report = synthesize_ppt_dilution(m, target, seed=0)
        checks = len(report.best_history)  # the start's readout, then one per check
        eigh = [shape for kind, shape, _ in seen if kind == "eigh"]
        # every cone block of a cycle in one stacked eigh: the PSD and the
        # partially transposed block at m = 0, and both shifted PPT blocks
        # at m >= 1; the readout of a check makes the one other
        cones = 2 if m == 0 else 3
        assert eigh.count((cones, n, n)) == report.iterations
        assert eigh.count((1, n, n)) == checks
        assert len(eigh) == report.iterations + checks
        # the four residual spectra of a check in one stacked eigvalsh
        assert [shape for kind, shape, _ in seen if kind == "eigvalsh"] == [(4, n, n)] * checks

    def test_phased_rigidity_keeps_complex_iterates(self, monkeypatch):
        seen = spy_on_engine_inputs(monkeypatch, broadcast)
        # a local phase on B: a pure state that is not real
        u = np.kron(np.eye(2), np.diag([1.0, 1j]))
        phi = density_from_matrix(u @ max_entangled(2).entries @ u.conj().T,
                                  bipartite_shape(2, 2))
        assert phi.entries.dtype == np.complex128
        product = tensor(phi.op, phi.op)
        points = sample_two_copy_broadcasts(phi, n_starts=3, seed=0)
        assert seen == {(np.dtype(np.complex128), True)}
        assert max(trace_distance(x.op, product) for x in points) <= 1e-6

    def test_rigidity_lands_on_the_product_at_d3(self):
        report = scenario_rigidity(3, 1, 0)
        assert report.passed
        assert report.results["max_distance_to_product"].value <= 1e-6

    def test_rigidity_heap_peak(self):
        phi = max_entangled(2)
        sample_two_copy_broadcasts(phi, n_starts=1)  # first-use allocations outside the run
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert len(sample_two_copy_broadcasts(phi, n_starts=50, seed=42)) == 50
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        # the plain engine peaked at 2.17 MB; the history may add 2 MB
        assert peak <= 4.17e6
