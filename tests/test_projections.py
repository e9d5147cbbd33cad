"""Lockstep Douglas-Rachford: a stack of starts against each start run alone."""
import numpy as np
import pytest

from catcost.broadcast import _marginal_projections
from catcost.operators import hermitian_part
from catcost.projections import (
    _update_in_place,
    project_psd,
    random_density_matrix,
    solve_feasibility,
    solve_feasibility_batch,
)
from catcost.states import max_entangled


def scalar_residuals(residual_fn):
    return lambda x: {name: float(value) for name, value in residual_fn(x).items()}


def assert_same_outcome(batched, alone):
    assert (batched.iterations, batched.converged, batched.stalled) == (
        alone.iterations, alone.converged, alone.stalled)
    assert batched.best_history == alone.best_history
    assert batched.residuals == alone.residuals


def trace_minus_one(n):
    """Projection onto {tr X = -1}, which misses the PSD cone, and the residuals."""
    def proj(x):
        tr = np.trace(x, axis1=-2, axis2=-1).real
        return x - ((tr + 1.0) / n)[..., None, None] * np.eye(n)

    def residual(x):
        return {"psd": np.maximum(0.0, -np.linalg.eigvalsh(x).min(axis=-1)),
                "trace": np.abs(np.trace(x, axis1=-2, axis2=-1).real + 1.0)}

    return proj, residual


class TestLockstepOracle:
    def test_stack_matches_single_starts(self, rng):
        proj, residual = _marginal_projections(max_entangled(2).entries)
        starts = np.stack([random_density_matrix(16, rng) for _ in range(5)])
        kwargs = dict(tol=1e-9, max_iter=5000, check_every=5)
        batched = solve_feasibility_batch([proj, project_psd], starts, residual, **kwargs)
        assert len(batched) == 5
        for start, result in zip(starts, batched):
            alone = solve_feasibility([proj, project_psd], start,
                                      scalar_residuals(residual), **kwargs)
            assert result.converged
            assert_same_outcome(result, alone)
            assert np.abs(result.point - alone.point).max() <= 1e-12
            hist = result.best_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestRetirement:
    @pytest.fixture
    def problem(self, rng):
        proj, residual = trace_minus_one(3)
        scales = (1.0, 3.0, 10.0, 0.1, 30.0)
        starts = np.stack([random_density_matrix(3, rng) * s for s in scales])
        return [project_psd, proj], residual, starts

    def test_infeasible_starts_stall_at_their_own_cycle(self, problem):
        projections, residual, starts = problem
        batched = solve_feasibility_batch(projections, starts, residual, stall_window=50)
        assert all(r.stalled and not r.converged for r in batched)
        # starts leave the stack at different cycles
        assert len({r.iterations for r in batched}) > 1
        for start, result in zip(starts, batched):
            # a stall ends the run 50 cycles after the last relative
            # improvement; checks fall every 10 cycles
            hist = result.best_history
            last = max(i for i in range(1, len(hist)) if hist[i] < hist[i - 1] * (1 - 1e-9))
            assert result.iterations == 10 * last + 50
            alone = solve_feasibility(projections, start, scalar_residuals(residual),
                                      stall_window=50)
            assert_same_outcome(result, alone)
            assert np.array_equal(result.point, alone.point)

    def test_iteration_cap(self, problem):
        projections, residual, starts = problem
        batched = solve_feasibility_batch(projections, starts, residual, max_iter=15)
        assert [(r.converged, r.stalled, r.iterations) for r in batched] == [
            (False, False, 15)] * len(starts)
        # the cap forces a final check off the check_every grid
        assert all(len(r.best_history) == 3 for r in batched)


class TestInPlaceArithmetic:
    """The buffer-reusing kernels repeat the plain formulas bit for bit."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_project_psd_matches_the_formula(self, rng, dtype):
        g = rng.standard_normal((4, 9, 9)) + 1j * rng.standard_normal((4, 9, 9))
        m = hermitian_part(g).real.copy() if dtype is np.float64 else hermitian_part(g)
        w, v = np.linalg.eigh(m)
        oracle = hermitian_part((v * np.clip(w, 0.0, None)[..., None, :])
                                @ v.conj().swapaxes(-1, -2))
        got = project_psd(m)
        assert got.dtype == dtype
        assert np.array_equal(got, oracle)

    def test_update_matches_the_formula(self, rng):
        y, step, avg = (hermitian_part(rng.standard_normal((3, 6, 6))
                                       + 1j * rng.standard_normal((3, 6, 6)))
                        for _ in range(3))
        oracle = hermitian_part(y + step - avg)
        _update_in_place(y, step, avg)
        assert np.array_equal(y, oracle)
