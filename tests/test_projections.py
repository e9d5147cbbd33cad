"""The Douglas-Rachford engine from one start, and the solves that use it.

Its product projection, folded vector map and Anderson step against their
plain formulas, its stop rules, and the work of the synthesis solves and
of the dense two-copy broadcast sampler (``sample_two_copy_broadcasts``).
"""
import functools
import math
import tracemalloc

import numpy as np
import pytest

from catcost import broadcast, choi, projections
from catcost.broadcast import _marginal_projections, sample_two_copy_broadcasts
from catcost.choi import _dense_dilution, _twirled_dilution, synthesize_ppt_dilution
from catcost.cli import _named_target, scenario_rigidity
from catcost.measures import IsotropicCopies, copy_ranks
from catcost.operators import (
    bipartite_shape,
    density_from_matrix,
    hermitian_part,
    tensor,
    trace_distance,
)
from catcost.projections import (
    ANDERSON_DEPTH,
    STALL_WINDOW,
    _ANDERSON_REG,
    _STALL_RTOL,
    _TINY,
    _AndersonHistory,
    _folded_dr_map,
    _gesv,
    Cone,
    FeasibilityResult,
    product_projection,
    project_psd,
    random_density_matrix,
    seeded_starts,
    solve_feasibility,
)
from catcost.states import max_entangled

from conftest import spectral_calls


def hermitian_signature(x):
    return x.dtype, bool(np.array_equal(x, x.conj().swapaxes(-1, -2)))


def spy_on_engine_inputs(monkeypatch, module, describe=hermitian_signature):
    """Record ``describe`` of every array the engine hands on: (dtype, exactly Hermitian).

    Wraps ``module.solve_feasibility`` so that the product projection it
    builds for a matrix start and ``residual_fn`` record their argument
    first, and the product projection its output too.  A vector search's
    T is folded from its sets, and calls no projection.
    """
    seen = set()
    solve, build = projections.solve_feasibility, projections.product_projection

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

    def spying_solve(sets, start, residual_fn, **kwargs):
        def residuals(x):
            record(x)
            return residual_fn(x)
        return solve(sets, start, residuals, **kwargs)

    monkeypatch.setattr(projections, "product_projection", recording_build)
    monkeypatch.setattr(module, "solve_feasibility", spying_solve)
    return seen


def vector_product(sets):
    """P onto a product of sets of coefficient vectors, block by block: each set's formula."""
    def block(c, y):
        if not isinstance(c, Cone):
            return y @ c[0] + c[1]
        frame = np.eye(len(y)) if c.frame is None else c.frame
        return np.maximum(y @ frame.T, c.shift) @ frame  # frame^T max(frame x, shift)

    return lambda z: np.stack([block(c, z[i]) for i, c in enumerate(sets)])


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
    """A twirled search's sets, random vector starts and residuals.

    A start is sqrt(r) c, c the coefficients of a twirled Ginibre state of
    size N = sum r: independent Gamma(r_j N) masses over the projectors,
    normalised, drawn at seed 0.
    """
    name, _, m = case.split()
    target = _named_target(name)
    sets, _, residual, _ = _twirled_dilution(int(m), target)
    ranks = copy_ranks(target.d, target.coeffs.ndim).ravel()
    masses = np.random.default_rng(0).standard_gamma(ranks * ranks.sum(), (n_starts, ranks.size))
    starts = np.sqrt(ranks) * (masses / (ranks * masses.sum(axis=1, keepdims=True)))
    return sets, starts, residual


def assert_same_outcome(first, second):
    assert (first.iterations, first.converged, first.stalled) == (
        second.iterations, second.converged, second.stalled)
    assert first.best_history == second.best_history
    assert first.residuals == second.residuals
    assert np.array_equal(first.point, second.point)


class TestOneStartSolves:
    @pytest.mark.parametrize("points", ["matrices"] + TWIRLED_SEARCHES)
    def test_each_start_reaches_its_verdict_whatever_ran_before(self, rng, points,
                                                                 monkeypatch):
        monkeypatch.setattr(projections, "CHECK_EVERY", 5)
        if points == "matrices":
            proj, residual = _marginal_projections(max_entangled(2).entries)
            starts = [random_density_matrix(16, rng) for _ in range(5)]
            sets = [proj, Cone()]
        else:
            sets, stack, residual = twirled_search(points, 5)
            assert stack.dtype == np.float64
            starts = list(stack)
        # the twirled synthesis at m = 0 searches an NPT target, and stalls
        feasible = not points.endswith("--m 0")
        kwargs = dict(tol=1e-9, max_iter=5000)
        forward = [solve_feasibility(sets, start, residual, **kwargs) for start in starts]
        backward = [solve_feasibility(sets, start, residual, **kwargs)
                    for start in reversed(starts)][::-1]
        for start, result, again in zip(starts, forward, backward):
            assert result.converged == feasible and result.stalled != feasible
            assert result.point.shape == start.shape
            assert set(result.residuals) == set(residual(result.point))
            # a solve carries nothing over from the solves before it
            assert_same_outcome(result, again)
            hist = result.best_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestFoldedMap:
    @pytest.mark.parametrize("case", TWIRLED_SEARCHES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_folded_map_is_the_reflection(self, rng, case, scale):
        sets, starts, _ = twirled_search(case, 1)
        n_sets, n = len(sets), starts.shape[1]
        fold, floor, back = _folded_dr_map(sets, n)
        for _ in range(7):
            y = scale * rng.standard_normal((n_sets, n))
            avg = y.sum(axis=0) / n_sets
            reflection = y + vector_product(sets)(2.0 * avg - y) - avg
            folded = np.maximum(y.ravel() @ fold, floor) @ back
            assert folded.shape == (y.size,) and folded.dtype == np.float64
            # a few ulps of the point's scale: the fold sums in another order
            size = max(np.abs(y).max(), np.abs(reflection).max())
            assert np.abs(folded.reshape(y.shape) - reflection).max() <= (
                4 * np.finfo(float).eps * size)

    @pytest.mark.parametrize("case", TWIRLED_SEARCHES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_fused_cycles_are_the_unfused_map(self, rng, case, scale):
        # the engine iterates w = max(y F, floor), one cycle w -> max(w B F, floor),
        # and T^j(y) = w_j B
        sets, starts, _ = twirled_search(case, 1)
        fold, floor, back = _folded_dr_map(sets, starts.shape[1])
        cycle = back @ fold
        for _ in range(3):
            y = scale * rng.standard_normal(len(fold))
            w, size = np.maximum(y @ fold, floor), np.abs(y).max()
            for j in range(1, 61):
                y = np.maximum(y @ fold, floor) @ back
                size = max(size, np.abs(y).max())
                # a few ulps of the point's scale per cycle: T is nonexpansive
                assert np.abs(w @ back - y).max() <= 4 * j * np.finfo(float).eps * size, j
                w = np.maximum(w @ cycle, floor)

    def test_direct_solve_is_numpys(self, rng):
        for s in (1, 5, 50):
            a = rng.standard_normal((s, 3, 3))
            lhs = a @ a.swapaxes(1, 2) + 1e-10 * np.eye(3)
            rhs = rng.standard_normal((s, 3, 1))
            assert np.array_equal(_gesv(lhs, rhs), np.linalg.solve(lhs, rhs))
            # one system, as an Anderson step solves it
            assert np.array_equal(_gesv(lhs[0], rhs[0]), np.linalg.solve(lhs[0], rhs[0]))


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
    @pytest.mark.parametrize("dim, n_starts", [(4, 3), (16, 7), (16, 20), (16, 300), (256, 2)])
    def test_seeded_starts_are_the_per_start_formula_in_order(self, dtype, dim, n_starts):
        # every sampler start, and the sampler's pinned cycle count, rests on these bits
        drawn = list(seeded_starts(dim, n_starts, 5, dtype))
        assert len(drawn) == n_starts
        one_by_one = np.random.default_rng(5)
        assert all(np.array_equal(start, random_density_matrix(dim, one_by_one, dtype))
                   for start in drawn)
        # and the per-start formula, two draws a start, gives the same bits
        rng = np.random.default_rng(5)
        for start in drawn:
            assert start.dtype == dtype and start.shape == (dim, dim)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            m = m / np.trace(m).real
            assert np.array_equal(start, m if dtype == np.complex128 else m.real)


class TestStops:
    @pytest.fixture
    def problem(self, rng):
        proj, residual = trace_minus_one(3)
        scales = (1e-4, 1e-1, 1e2, 1e5, 1e8)
        starts = [random_density_matrix(3, rng) * s for s in scales]
        return [Cone(), proj], residual, starts

    def test_infeasible_start_stalls_a_window_after_its_last_improvement(self, problem,
                                                                          monkeypatch):
        monkeypatch.setattr(projections, "STALL_WINDOW", 50)
        sets, residual, starts = problem
        results = [solve_feasibility(sets, start, residual, tol=1e-6, max_iter=20000)
                   for start in starts]
        assert all(r.stalled and not r.converged for r in results)
        assert len({r.iterations for r in results}) > 1
        for result in results:
            # a stall ends the run 50 cycles after the last relative
            # improvement; checks fall every 10 cycles
            hist = result.best_history
            last = max(i for i in range(1, len(hist)) if hist[i] < hist[i - 1] * (1 - 1e-9))
            assert result.iterations == 10 * last + 50

    def test_iteration_cap(self, problem):
        sets, residual, starts = problem
        result = solve_feasibility(sets, starts[0], residual, tol=1e-6, max_iter=15)
        assert (result.converged, result.stalled, result.iterations) == (False, False, 15)
        # the cap forces a final check off the CHECK_EVERY grid
        assert len(result.best_history) == 3

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_cycle_cap_below_one_is_refused(self, problem, max_iter):
        sets, residual, starts = problem
        with pytest.raises(ValueError, match="cycle cap"):
            solve_feasibility(sets, starts[0], residual, tol=1e-6, max_iter=max_iter)
        # a solve that ran no cycle reported -3 iterations and no convergence
        # with a best residual of 0.0
        with pytest.raises(ValueError, match="cycle cap"):
            synthesize_ppt_dilution(1, IsotropicCopies.isotropic(2, 0.5), max_iter=max_iter)


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
        # alike (no involution), and an affine set, on one point
        n = 5
        g = rng.standard_normal((3, 3, n, n)) + 1j * rng.standard_normal((3, 3, n, n))
        points = hermitian_part(g).real.copy() if dtype is np.float64 else hermitian_part(g)
        shift = points[0, 0] / 3.0
        p = rng.permutation(n)
        frame = (p[:, None] * n + p[None, :]).ravel()

        def trace_free(x):
            return x - np.trace(x) / n * np.eye(n)

        project = product_projection([Cone(None, shift), Cone(frame), trace_free], n)
        q = np.argsort(p)
        for z in points:
            framed = project_psd(z[1][p][:, p])[q][:, q]
            blocks = [shift + project_psd(z[0] - shift), framed, trace_free(z[2])]
            got = project(z)
            assert got.dtype == dtype and got.shape == z.shape
            assert np.array_equal(got, np.stack(blocks))


def float_view(y):
    """The engine's float64 view of a (k, n, n) point: one vector, complex as (re, im)."""
    return y.view(np.float64).ravel()


class TestFloatView:
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_float_view_dots_are_frobenius_products(self, rng, dtype):
        for _ in range(4):
            a, b = (hermitian_part(rng.standard_normal((3, 5, 5))
                                   + 1j * rng.standard_normal((3, 5, 5))) for _ in range(2))
            if dtype is np.float64:
                a, b = a.real.copy(), b.real.copy()
            x = float_view(a)
            assert x.dtype == np.float64 and np.shares_memory(x, a)
            assert x.shape == (3 * 25 * (2 if dtype is np.complex128 else 1),)
            # Re tr(A^dagger B) summed over the k matrices of the point
            frobenius = np.vdot(a, b)
            assert abs(frobenius.imag) <= 1e-13
            assert abs(x @ float_view(b) - frobenius.real) <= 1e-14 * abs(frobenius)


def affine_contraction(rng, dim):
    """T(x) = a x + b, a symmetric with spectrum in [0, 0.99]; and T's fixed point."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a, b = (q * np.linspace(0.0, 0.99, dim)) @ q.T, rng.standard_normal(dim)
    return (lambda x: a @ x + b), np.linalg.solve(np.eye(dim) - a, b)


class TestAnderson:
    def test_rejected_extrapolation_continues_from_the_held_step(self, rng):
        t, _ = affine_contraction(rng, 8)
        x0 = rng.standard_normal(8)
        history, accepting = _AndersonHistory(x0), _AndersonHistory(x0)
        x1 = history.step(t(x0))
        assert not history.extrapolated  # the first step is a plain one
        t1 = t(x1)
        x2 = history.step(t1)
        assert history.extrapolated and not np.array_equal(x2, t1)
        # T at x2 reports a residual ten times the one at x1: x2 is rejected
        x3 = history.step(x2 + 10.0 * (t1 - x1))
        assert np.array_equal(x3, t1)
        assert not history.extrapolated
        for buffer in (history.dfg, history.gram, history.scale):
            assert not buffer.any()
        # it builds a new history from the step it went on from
        history.step(t(x3))
        assert history.extrapolated
        # the same steps with T's true value at x2 keep their history
        for x in (x0, x1, x2):
            accepting.step(t(x))
        assert accepting.extrapolated
        for buffer in (accepting.dfg, accepting.gram, accepting.scale):
            assert buffer.any()

    def test_acceleration_beats_plain_iteration_on_a_contraction(self, rng):
        t, fixed = affine_contraction(rng, 8)
        history = _AndersonHistory(np.zeros(8))
        x = plain = np.zeros(8)
        for _ in range(30):
            x = history.step(t(x))
            plain = t(plain)
        assert np.abs(x - fixed).max() <= 1e-3 * np.abs(plain - fixed).max()


class AndersonOracle:
    """The Anderson step in its plain formulas, on fresh arrays: the engine's reference.

    The products are the engine's: the (T, g) pair stacked, the
    differences in a ring of ANDERSON_DEPTH slots, |g|^2 and each
    |(df, dg)_j|^2 as one dot, the ridged system built as
    gram + ridge I, and a rejection clearing the ring into new zeros.
    ``rejections`` counts the rejected steps.
    """

    def __init__(self, x0):
        depth = ANDERSON_DEPTH
        self.x, self.slot, self.rejections = x0.copy(), -1, 0
        self.dfg, self.gram = np.zeros((depth, 2, len(x0))), np.zeros((depth, depth))
        self.scale, self.extrapolated = np.zeros(depth), False

    def step(self, t):
        pair = np.stack([t, t - self.x])
        g_norm2 = pair[1] @ pair[1]
        if self.slot < 0:
            self.slot, self.fg, self.g_norm2 = ANDERSON_DEPTH - 1, pair, g_norm2
            self.x = t.copy()
            return self.x
        self.slot = j = (self.slot + 1) % ANDERSON_DEPTH
        if self.extrapolated and g_norm2 > self.g_norm2:
            self.rejections += 1
            self.dfg, self.gram, self.scale = map(np.zeros_like, (self.dfg, self.gram, self.scale))
            self.extrapolated = False
        else:
            self.dfg[j] = pair - self.fg
            self.gram[j, :] = self.gram[:, j] = self.dfg[:, 1] @ self.dfg[j, 1]
            self.scale[j] = self.dfg[j].ravel() @ self.dfg[j].ravel()
            self.fg, self.g_norm2, self.extrapolated = pair, g_norm2, True
        ridge = _ANDERSON_REG * np.add.reduce(self.scale) + _TINY
        lhs = self.gram + ridge * np.eye(ANDERSON_DEPTH)
        gamma = _gesv(lhs, (self.dfg[:, 1] @ self.fg[1])[:, None])[:, 0]
        self.x = self.fg[0] - gamma @ self.dfg[:, 0]
        return self.x


def stalled_synthesis_map():
    """T of the infeasible twirled ``synthesize noisy-phi-2 --m 0``, and four starts."""
    sets, starts, _ = twirled_search("noisy-phi-2 --m 0", 4)
    fold, floor, back = _folded_dr_map(sets, starts.shape[1])

    def dr_map(y):
        return np.maximum(y @ fold, floor) @ back

    return dr_map, [np.tile(x, len(sets)) for x in starts]


def infeasible_complex_map(rng):
    """T of PSD cone against {tr X = -1} on 3x3 complex matrices, on float vectors; four starts."""
    proj, _ = trace_minus_one(3)
    project = product_projection([Cone(), proj], 3)

    def dr_map(x):
        y = hermitian_part(x.view(np.complex128).reshape(2, 3, 3))
        avg = y.sum(axis=0) / 2
        return float_view(y + project(2.0 * avg - y) - avg)

    starts = [float_view(np.stack([random_density_matrix(3, rng) * scale] * 2))
              for scale in (1e-2, 1.0, 3.0, 1e2)]
    return dr_map, starts


class TestAndersonOracle:
    """The engine's Anderson step repeats the plain formulas bit for bit."""

    @pytest.mark.parametrize("case", ["float64 vectors", "complex matrices"])
    def test_iterates_equal_the_oracles(self, rng, case):
        if case == "float64 vectors":
            dr_map, starts = stalled_synthesis_map()
        else:
            dr_map, starts = infeasible_complex_map(rng)
        for x0 in starts:
            engine, oracle = _AndersonHistory(x0), AndersonOracle(x0)
            x = x0
            for i in range(320):
                t = dr_map(x)
                if i % 37 == 36:  # T reports ten times its residual: a rejection
                    t = x + 10.0 * (t - x)
                x = engine.step(t)
                expected = oracle.step(t)
                assert x.dtype == np.float64 and x.shape == expected.shape == x0.shape
                assert x.tobytes() == expected.tobytes(), f"step {i}"
            # the safeguard fired at least as often as a rejection was forced
            assert oracle.rejections >= 320 // 37


class TestCheckTies:
    @pytest.mark.parametrize("start, script, kept, residuals, history", [
        # (r, q) at the start and at checks 1-3: improves at checks 1 and 2,
        # then ties its best
        ([0.3, 0.7], [(1.0, 0.5), (0.5, 0.1), (0.25, 0.1), (0.25, 0.2)], 2,
         {"r": 0.25, "q": 0.1}, [1.0, 0.5, 0.25, 0.25]),
        # improves at check 1, then ties its best with other residuals
        ([2.0, 0.5], [(1.0, 0.2), (0.5, 0.1), (0.5, 0.3), (0.5, 0.4)], 1,
         {"r": 0.5, "q": 0.1}, [1.0, 0.5, 0.5, 0.5]),
    ])
    def test_a_tie_keeps_the_first_check_that_reached_the_best(self, start, script, kept,
                                                               residuals, history, monkeypatch):
        monkeypatch.setattr(projections, "CHECK_EVERY", 1)
        candidates = []

        def residual_fn(x):
            candidates.append(x.copy())
            r, q = script[len(candidates) - 1]
            return {"r": r, "q": q}

        sets = [Cone(), (np.zeros((2, 2)), np.array([1.0, -1.0]))]  # they do not meet
        result = solve_feasibility(sets, np.array(start), residual_fn, tol=1e-9, max_iter=3)
        # the candidates move from check to check, so a kept point is told apart
        assert not np.array_equal(candidates[1], candidates[2])
        assert not np.array_equal(candidates[2], candidates[3])
        assert np.array_equal(result.point, candidates[kept])
        assert result.residuals == residuals
        assert result.best_history == history


def per_cycle_solve(sets, start, residual_fn, tol, max_iter, check_every):
    """The solve with a check test after every cycle, on fresh arrays: the engine's reference.

    Cycle 1 is T at the start; on matrices each later cycle is T at the
    point Anderson takes from the last T, on vectors the fused cycle
    w -> max(w BF, floor).  A check falls at each multiple of
    ``check_every`` and at ``max_iter``, and its largest residual is an
    ``np.maximum`` over the names.
    """
    n_sets, n = len(sets), start.shape[-1]
    if start.ndim == 2:
        points = hermitian_part(start)
        project, best_point = product_projection(sets, n), project_psd(points)
        y = np.stack([points] * n_sets)
        anderson = _AndersonHistory(y.view(np.float64).ravel())

        def dr_map(y):
            avg = y.sum(axis=0) / n_sets
            return y + project(2.0 * avg - y) - avg

        def advance(y):
            x = anderson.step(y.view(np.float64).ravel())
            return dr_map(hermitian_part(x.view(y.dtype).reshape(y.shape)))

        def readout(y):
            return project_psd(y.sum(axis=0) / n_sets)
    else:
        fold, floor, back = _folded_dr_map(sets, n)
        cycle, average = back @ fold, back.reshape(-1, n_sets, n).sum(axis=1) / n_sets
        y = np.concatenate([np.tile(start, n_sets), np.zeros(len(floor) - n_sets * n)])
        best_point = np.maximum(start, 0.0)

        def dr_map(w):
            return np.maximum(w @ cycle, floor)
        advance = dr_map

        def readout(w):
            return np.maximum(w @ average, 0.0)
    best_res = residual_fn(best_point)
    best_max = functools.reduce(np.maximum, best_res.values())
    history, last_improvement = [float(best_max)], 0
    for it in range(1, max_iter + 1):
        y = advance(y) if it > 1 else dr_map(y)
        if it % check_every and it != max_iter:
            continue
        candidate = readout(y)
        res = residual_fn(candidate)
        res_max = functools.reduce(np.maximum, res.values())
        if res_max < best_max * (1.0 - _STALL_RTOL):
            last_improvement = it
        if res_max < best_max:
            best_point, best_res, best_max = candidate, res, res_max
        history.append(float(best_max))
        converged = bool(best_max <= tol)
        stalled = not converged and it - last_improvement >= STALL_WINDOW
        if converged or stalled or it == max_iter:
            return FeasibilityResult(best_point, converged, stalled, it,
                                     {name: float(r) for name, r in best_res.items()}, history)


def reference_case(case):
    """(sets, start, residuals) of a named synthesis search: twirled, or dense on its D x D matrix."""
    kind, name, m = case.split()
    target = _named_target(name)
    if kind == "dense":
        sets, start, residual, _ = _dense_dilution(int(m), target.to_density())
    else:
        sets, start, residual, _ = _twirled_dilution(int(m), target)
    return sets, start, residual


class TestBlockedCycles:
    """The cycles between two checks run as one block: every outcome is the per-cycle loop's."""

    @pytest.mark.parametrize("case", ["twirled noisy-phi-2 0", "twirled broadcast-phi-2 1",
                                      "twirled noisy-phi-3 2", "dense noisy-phi-2 0",
                                      "dense noisy-phi-2 1"])
    @pytest.mark.parametrize("max_iter", [1, 7, 25, 20000])
    @pytest.mark.parametrize("check_every", [1, 3, 10])
    def test_outcome_is_the_per_cycle_loops(self, case, max_iter, check_every, monkeypatch):
        monkeypatch.setattr(projections, "CHECK_EVERY", check_every)
        sets, start, residual = reference_case(case)
        result = solve_feasibility(sets, start, residual, tol=1e-6, max_iter=max_iter)
        expected = per_cycle_solve(sets, start, residual, 1e-6, max_iter, check_every)
        assert_same_outcome(result, expected)
        assert result.point.tobytes() == expected.point.tobytes()
        assert [x.hex() for x in result.best_history] == [x.hex() for x in expected.best_history]
        # a check at each multiple of CHECK_EVERY up to the stop, and one at the stop
        assert len(result.best_history) == 1 + -(-result.iterations // check_every)

    @pytest.mark.parametrize("res", [
        {"a": 0.5, "b": 2.0, "c": 1.0}, {"a": 2.0, "b": 2.0}, {"a": -0.0, "b": 0.0},
        {"a": 0.0, "b": -0.0}, {"a": math.nan, "b": 1.0}, {"a": 1.0, "b": math.nan, "c": 3.0},
        {"a": math.inf, "b": 1.0}, {"a": -math.inf}, {"a": 1.0, "b": np.float64(1.5)},
        {"a": np.float64(math.nan), "b": 0.0}])
    def test_largest_is_the_maximum_reduction(self, res):
        largest, reduced = projections._largest(res), functools.reduce(np.maximum, res.values())
        # the sign np.maximum gives a tie of zeros is the platform's; any other value is one float
        if largest != 0.0:
            assert repr(float(largest)) == repr(float(reduced))
        for other in (-math.inf, -1.0, 0.0, 1.5, 2.0, 3.0, math.inf, math.nan):
            assert (largest < other, other < largest, largest <= other) == (
                reduced < other, other < reduced, reduced <= other)


class TestAcceleratedSolves:
    def test_real_search_keeps_iterates_and_history_float64(self, monkeypatch):
        history = set()

        class History(_AndersonHistory):
            def step(self, t):
                kept = (self.x, self.g_norm2, self.dfg, self.gram, self.scale)
                history.update({np.asarray(a).dtype for a in kept} | {t.dtype})
                return super().step(t)

        monkeypatch.setattr(projections, "_AndersonHistory", History)
        seen = spy_on_engine_inputs(monkeypatch, choi)
        report = synthesize_ppt_dilution(2, _named_target("noisy-phi-3").to_density())
        assert report.converged
        assert seen == {(np.dtype(np.float64), True)}
        assert history == {np.dtype(np.float64)}

    @pytest.mark.parametrize("name, m", [("noisy-phi-2", 0), ("broadcast-phi-2", 1),
                                         ("noisy-phi-3", 2)])
    def test_twirled_search_keeps_float64_vector_iterates(self, monkeypatch, name, m):
        seen = spy_on_engine_inputs(monkeypatch, choi, lambda x: (x.dtype, x.shape))
        products, fold = [], projections._folded_dr_map

        class Factor(np.ndarray):
            """F, B or a matrix made of them: records each vector multiplied into it.

            A product is an ``np.matmul`` (``@``) or an ``np.dot``.
            """

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products.extend((x.dtype, x.shape) for x in inputs
                                if ufunc is np.matmul and not isinstance(x, Factor))
                out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
                return out.view(Factor) if out.ndim == 2 else out

            def __array_function__(self, func, types, args, kwargs):
                if func is not np.dot:
                    return super().__array_function__(func, types, args, kwargs)
                products.extend((x.dtype, x.shape) for x in args if not isinstance(x, Factor))
                out = func(*(np.asarray(x) for x in args), **kwargs)
                return out.view(Factor) if out.ndim == 2 else out

        def spied_fold(sets, n):
            return tuple(f.view(Factor) if f.ndim == 2 else f for f in fold(sets, n))

        def refuse(*args, **kwargs):
            raise AssertionError("a vector search built an Anderson history")

        monkeypatch.setattr(projections, "_folded_dr_map", spied_fold)
        monkeypatch.setattr(projections, "_AndersonHistory", refuse)
        symmetrized = []
        monkeypatch.setattr(projections, "hermitian_part", symmetrized.append)
        target = _named_target(name)
        report = synthesize_ppt_dilution(m, target)
        assert report.iterations > 1
        # plain DR, one product a cycle and one a check, each of the
        # (2 sets * 2^k + 1,) point w, by B F in a cycle and by B A at a check;
        # 2^k candidates, and no symmetrization: a vector has no anti-Hermitian part
        n_sets, n = 3 if m == 0 else 4, 2 ** target.coeffs.ndim
        checks = len(report.best_history) - 1
        assert products == [(np.dtype(np.float64), (2 * n_sets * n + 1,))] * (
            report.iterations + checks)
        assert seen == {(np.dtype(np.float64), (n,))}
        assert symmetrized == []

    def test_complex_search_keeps_complex_iterates(self, monkeypatch):
        seen = spy_on_engine_inputs(monkeypatch, choi)
        u = np.kron(np.eye(2), np.diag([1.0, 1j]))
        rho = _named_target("noisy-phi-2").to_density().entries
        target = density_from_matrix(u @ rho @ u.conj().T, bipartite_shape(2, 2))
        assert synthesize_ppt_dilution(1, target).converged
        assert seen == {(np.dtype(np.complex128), True)}

    def test_infeasible_solve_still_stalls(self):
        report = synthesize_ppt_dilution(0, _named_target("noisy-phi-2").to_density())
        assert report.stalled and not report.converged
        assert report.npt_witness == pytest.approx(-0.125, abs=1e-12)
        hist = report.best_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        # the stall rule is unchanged: 500 cycles after the last improvement
        last = max(i for i in range(1, len(hist)) if hist[i] < hist[i - 1] * (1 - 1e-9))
        assert report.iterations == 10 * last + 500 == 510

    def test_sample_two_copy_broadcasts_work_counts(self, monkeypatch):
        solves, calls = [], []
        eigh, solve = np.linalg.eigh, broadcast.solve_feasibility

        def counting_eigh(a, *args, **kwargs):
            calls.append((np.shape(a), np.asarray(a).dtype))
            return eigh(a, *args, **kwargs)

        def counting_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            solves.append(result)
            return result

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(broadcast, "solve_feasibility", counting_solve)
        assert len(sample_two_copy_broadcasts(max_entangled(2), n_starts=50, seed=42)) == 50
        # checked every CHECK_EVERY = 10 cycles in float64 (the README's count)
        assert len(solves) == 50 and sum(r.iterations for r in solves) == 9030
        # a start's one PSD block a cycle, a (1, 16, 16) eigh, and its
        # readout at the start and at each check, a (16, 16) one
        block, readout = ((1, 16, 16), np.dtype(np.float64)), ((16, 16), np.dtype(np.float64))
        assert calls.count(block) == sum(r.iterations for r in solves)
        assert calls.count(readout) == sum(len(r.best_history) for r in solves)
        assert set(calls) == {block, readout}

    def test_sample_two_copy_broadcasts_is_float64(self, monkeypatch):
        seen = spectral_calls(monkeypatch)
        assert len(sample_two_copy_broadcasts(max_entangled(2), n_starts=5, seed=0)) == 5
        # the Cholesky factorisation accepts the states the search builds
        # the residuals make no spectrum: a candidate is the PSD readout
        assert {(name, dtype) for name, _, dtype in seen} == {
            ("eigh", np.dtype(np.float64)), ("cholesky", np.dtype(np.float64))}

    def test_sample_two_copy_broadcasts_checks_the_marginals_and_validates_each_point(
            self, monkeypatch):
        solves, solve = [], broadcast.solve_feasibility

        def recording_solve(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(broadcast, "solve_feasibility", recording_solve)
        phi = max_entangled(2)
        seen = spectral_calls(monkeypatch)
        assert len(sample_two_copy_broadcasts(phi, n_starts=4, seed=3)) == 4
        assert [list(r.residuals) for r in solves] == [["marginal_1", "marginal_2"]] * 4
        # each returned point passed DensityOperator's Cholesky test
        cholesky = ("cholesky", (16, 16), np.dtype(np.float64))
        assert [call for call in seen if call[0] == "cholesky"] == [cholesky] * 4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rigidity_scenario_makes_no_solve_and_no_eigendecomposition(self, monkeypatch, d):
        def refuse(*args, **kwargs):
            raise AssertionError("rigidity ran a Douglas-Rachford solve")

        monkeypatch.setattr(broadcast, "solve_feasibility", refuse)
        monkeypatch.setattr(projections, "solve_feasibility", refuse)
        seen = spectral_calls(monkeypatch)
        report = scenario_rigidity(d, 50, 42)
        # the exact segment is the point e00, computed with no search
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
        report = synthesize_ppt_dilution(m, target)
        checks = len(report.best_history)  # the start's readout, then one per check
        eigh = [shape for kind, shape, _ in seen if kind == "eigh"]
        # every cone block of a cycle in one stacked eigh: the PSD and the
        # partially transposed block at m = 0, and both shifted PPT blocks
        # at m >= 1; the readout of a check makes the one other
        cones = 2 if m == 0 else 3
        assert eigh.count((cones, n, n)) == report.iterations
        assert eigh.count((n, n)) == checks
        assert len(eigh) == report.iterations + checks
        # the four residual spectra of a check in one stacked eigvalsh
        assert [shape for kind, shape, _ in seen if kind == "eigvalsh"] == [(4, n, n)] * checks

    def test_phased_sample_two_copy_broadcasts_keeps_complex_iterates(self, monkeypatch):
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

    def test_sample_two_copy_broadcasts_heap_peak(self):
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
        # one start's iterate and Anderson history at a time: about 0.2 MB
        assert peak <= 1e6
