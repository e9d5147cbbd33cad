"""Broadcast verification and the purity-rigidity projection machinery."""
import math
import tracemalloc

import numpy as np
import pytest

import catcost.broadcast
from catcost.broadcast import (
    _marginal_projections,
    _nearest_on_segment,
    _twirled_broadcast_segment,
    max_twirled_distance_to_product,
    project_to_two_copy_broadcast,
    pure_broadcast_uniqueness,
    sample_twirled_two_copy_broadcasts,
    sample_two_copy_broadcasts,
    verify_broadcast,
)
from catcost.cli import scenario_rigidity
from catcost.measures import IsotropicCopies, copy_ranks
from catcost.operators import (
    MAX_ENTRIES,
    FactorShape,
    density_from_matrix,
    density_from_vector,
    permute_factors,
    plain_shape,
    tensor,
    tensor_power,
    trace_distance,
)
from catcost.projections import random_density_matrix
from catcost.states import IsotropicParams, isotropic, max_entangled, symmetric_two_broadcast

from conftest import random_density


def half_mixed(d=2):
    return isotropic(IsotropicParams(d, 0.5))


def correlated_broadcast(d=2):
    return symmetric_two_broadcast(max_entangled(d), isotropic(IsotropicParams(d, 0.0)))


class TestVerifyBroadcast:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tensor_power_is_broadcast(self, rng, n):
        rho = random_density(rng, 2, 1)
        mu = density_from_matrix(tensor_power(rho.op, n).entries, rho.shape.copies(n))
        report = verify_broadcast(mu, rho, n)
        assert report.is_broadcast
        assert max(report.residuals) <= 1e-12

    def test_symmetric_broadcast_of_half_mixed(self):
        report = verify_broadcast(correlated_broadcast(2), half_mixed(2), 2)
        assert report.is_broadcast

    def test_purification_of_classical_state(self, rng):
        # sum_i sqrt(p_i) |ii> broadcasts the classical distribution
        p = rng.random(3) + 0.1
        p /= p.sum()
        v = np.zeros(9)
        for i in range(3):
            v[i * 3 + i] = math.sqrt(p[i])
        psi = density_from_vector(v, FactorShape(((3, 1), (3, 1))))
        rho = density_from_matrix(np.diag(p), plain_shape(3))
        assert verify_broadcast(psi, rho, 2).is_broadcast

    def test_shape_mismatch_rejected(self, rng):
        rho = random_density(rng, 2, 2)
        with pytest.raises(ValueError):
            verify_broadcast(rho, rho, 2)

    def test_convexity_of_broadcast_property(self, rng):
        rho = half_mixed(2)
        mu0 = correlated_broadcast(2)
        mu1 = density_from_matrix(tensor_power(rho.op, 2).entries, rho.shape.copies(2))
        mix = density_from_matrix(0.3 * mu0.entries + 0.7 * mu1.entries, mu0.shape)
        report = verify_broadcast(mix, rho, 2)
        assert report.is_broadcast

    def test_copy_permutation_preserves_property(self):
        mu = correlated_broadcast(2)
        permuted = density_from_matrix(permute_factors(mu.op, [1, 0]).entries, mu.shape)
        assert verify_broadcast(permuted, half_mixed(2), 2).is_broadcast


class TestPureBroadcastUniqueness:
    def test_product_double_passes(self):
        phi = max_entangled(2)
        mu = density_from_matrix(tensor(phi.op, phi.op).entries, phi.shape.copies(2))
        assert pure_broadcast_uniqueness(mu, phi)

    def test_mixed_reference_rejected(self):
        rho = half_mixed(2)
        mu = density_from_matrix(tensor(rho.op, rho.op).entries, rho.shape.copies(2))
        with pytest.raises(ValueError):
            pure_broadcast_uniqueness(mu, rho)

    def test_non_broadcast_candidate_rejected(self):
        phi = max_entangled(2)
        white = density_from_matrix(np.eye(16) / 16, phi.shape.copies(2))
        with pytest.raises(ValueError):
            pure_broadcast_uniqueness(white, phi)


class TestProjectionRigidity:
    def test_projection_lands_on_product(self, rng):
        phi = max_entangled(2)
        target = tensor(phi.op, phi.op)
        start = random_density_matrix(16, rng)
        result = project_to_two_copy_broadcast(phi, start)
        assert result.converged
        assert 0.5 * np.abs(np.linalg.eigvalsh(result.point - target.entries)).sum() <= 1e-6

    def test_sampled_projections_are_broadcasts(self):
        phi = max_entangled(2)
        points = sample_two_copy_broadcasts(phi, n_starts=5, seed=11)
        product = tensor(phi.op, phi.op)
        for point in points:
            assert verify_broadcast(point, phi, 2, tol=1e-6).is_broadcast
            assert trace_distance(point.op, product) <= 1e-6
            assert pure_broadcast_uniqueness(point, phi, tol=1e-6)

    def test_best_history_non_increasing(self, rng):
        phi = max_entangled(2)
        result = project_to_two_copy_broadcast(phi, random_density_matrix(16, rng))
        hist = result.best_history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_stacked_marginal_projection_matches_kron_formula(self, rng):
        phi = max_entangled(2).entries
        eye = np.eye(4)
        proj, _ = _marginal_projections(phi)

        def reference(x):
            t4 = x.reshape(4, 4, 4, 4)
            r1 = np.einsum("aibi->ab", t4) - phi
            r2 = np.einsum("iaib->ab", t4) - phi
            t = (np.trace(r1) + np.trace(r2)).real / 16.0
            return x - np.kron((r1 - t * eye) / 4, eye) - np.kron(eye, (r2 - t * eye) / 4)

        g = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
        stack = g + g.conj().swapaxes(-1, -2)
        assert np.array_equal(proj(stack), np.stack([reference(x) for x in stack]))

    def test_blocks_respect_the_entry_budget(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        # the block rule does not depend on convergence: a loose tolerance
        # lets every start finish at its first check
        monkeypatch.setattr(catcost.broadcast, "FEASIBILITY_TOL", 1.0)
        points = sample_two_copy_broadcasts(max_entangled(3), n_starts=20)
        assert len(points) == 20
        assert all(math.prod(shape) <= MAX_ENTRIES for shape in shapes)
        assert {shape[0] for shape in shapes} == {MAX_ENTRIES // 81 ** 2, 20 % 9}


class TestTwirledRigidity:
    """The exact four-coefficient set of ``rigidity`` against the dense path."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_readout_is_the_projector_traces(self, d):
        # a seeded dense start, and P_i x P_j / rank as the dense state of
        # the coefficient tensor with one entry 1 / rank
        x = random_density_matrix(d ** 4, np.random.default_rng(0), np.float64)
        coeffs = IsotropicCopies.from_twirl(d, x).coeffs
        ranks = np.multiply.outer([1.0, d * d - 1.0], [1.0, d * d - 1.0])
        for i, j in np.ndindex(2, 2):
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0 / ranks[i, j]
            projector = IsotropicCopies(d, unit).to_density().entries
            assert abs(np.trace(x @ projector) - coeffs[i, j]) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_points_are_the_dense_product(self, d):
        phi = max_entangled(d)
        product = tensor(phi.op, phi.op)
        one = IsotropicCopies.isotropic(d, 1.0)
        for point in sample_twirled_two_copy_broadcasts(d, n_starts=5, seed=0):
            assert trace_distance(point.to_density().op, product) <= 1e-6
            assert verify_broadcast(point, one, 2, tol=1e-9).is_broadcast

    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_and_algebra_paths_pass_at_one_seed(self, d):
        phi = max_entangled(d)
        product = tensor(phi.op, phi.op)
        dense = sample_two_copy_broadcasts(phi, n_starts=2, seed=7)
        assert max(trace_distance(x.op, product) for x in dense) <= 1e-6
        report = scenario_rigidity(d, 2, 7)
        assert report.passed
        assert report.results["max_distance_to_product"].value <= 1e-6

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_segment_is_the_product_point(self, d):
        root, unit, lo, hi = _twirled_broadcast_segment(d)
        assert lo == hi == 0
        assert abs(unit @ unit - 1.0) <= 1e-15
        # the whole line meets both marginal equations: each marginal's
        # coefficients are Phi's (1, 0)
        rank = d * d - 1.0
        e00 = np.eye(4)[0]
        for t in (-1.0, -1e-3, 0.0, 0.5):
            c = ((e00 + t * unit) / root).reshape(2, 2)
            assert np.abs(c[:, 0] + rank * c[:, 1] - [1.0, 0.0]).max() <= 1e-12
            assert np.abs(c[0, :] + rank * c[1, :] - [1.0, 0.0]).max() <= 1e-12
        # and any step off the point along it leaves the PSD cone
        for t in (-1e-9, 1e-9):
            assert (e00 + t * unit).min() < 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_clamp_is_the_nearest_point_of_the_segment(self, d, rng):
        _, unit, lo, hi = _twirled_broadcast_segment(d)
        e00 = np.eye(4)[0]
        ys = np.concatenate([rng.standard_normal((20, 4)) * scale for scale in (1e-2, 1.0, 10.0)])
        # the exact segment, and wider ones cut from the same line
        for a, b in [(lo, hi), (-0.3, 0.0), (0.0, 0.7), (-1.0, 2.0)]:
            grid = e00 + np.linspace(a, b, 30001)[:, None] * unit
            nearest = _nearest_on_segment(ys, unit, a, b)
            for y, point in zip(ys, nearest):
                t = (point - e00) @ unit
                assert a - 1e-15 <= t <= b + 1e-15
                assert np.abs(e00 + t * unit - point).max() <= 1e-12
                on_grid = np.linalg.norm(grid - y, axis=1).min()
                assert np.linalg.norm(point - y) <= on_grid + 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_stacked_distance_is_the_largest_point_distance(self, d, seed):
        n = 20 if d == 4 else 60
        phi = IsotropicCopies.isotropic(d, 1.0)
        product = IsotropicCopies.symmetric_two_broadcast(phi, phi)
        points = sample_twirled_two_copy_broadcasts(d, n, seed)
        assert len(points) == n
        worst = max_twirled_distance_to_product(d, n, seed)
        assert type(worst) is float
        assert worst == max(point.trace_distance(product) for point in points)

    def test_largest_request_builds_no_matrix(self, forbid_dense_operators, monkeypatch):
        # 8 192 starts at d = 4 from their law: no dense start, no dense
        # twirl and no linear algebra, and a heap of a few (s, 4) arrays
        def refuse(*args, **kwargs):
            raise AssertionError("a dense start was drawn or twirled")

        class NoLinalg:
            def __getattr__(self, name):
                raise AssertionError(f"np.linalg.{name} was called")

        monkeypatch.setattr("catcost.projections.random_density_matrices", refuse)
        monkeypatch.setattr("catcost.measures.twirl_coefficients", refuse)
        monkeypatch.setattr(np, "linalg", NoLinalg())
        scenario_rigidity(4, 1, 0)  # first-use allocations outside the run
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = scenario_rigidity(4, 8192, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert report.passed
        assert report.results["max_distance_to_product"].value == 0.0
        # eight (8192, 4) float64 arrays; one dense 256 x 256 complex start
        # alone holds 1 MiB, and its draw three times that
        assert peak <= 8 * 8192 * 4 * 8

    @pytest.mark.parametrize("row", [[0.5, 0.0, 0.0, 0.0], [1.2, -0.1, 0.0, 0.1 / 3.0],
                                     [float("nan"), 0.0, 0.0, 0.0]])
    def test_a_projection_that_is_no_state_is_refused(self, row, monkeypatch):
        # the stacked state check, once on all (s, 4) projections, as
        # IsotropicCopies checks one
        def one_bad_row(ys, unit, lo, hi):
            points = nearest(ys, unit, lo, hi)
            points[3] = row * np.sqrt(copy_ranks(2, 2).ravel())
            return points

        nearest = _nearest_on_segment
        monkeypatch.setattr(catcost.broadcast, "_nearest_on_segment", one_bad_row)
        for sample in (sample_twirled_two_copy_broadcasts, max_twirled_distance_to_product):
            with pytest.raises(ValueError, match="trace|positive semidefinite"):
                sample(2, 5, 0)

    # refused before Phi_d's segment is computed, where d = 1 divides by zero
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sample", [sample_twirled_two_copy_broadcasts,
                                        max_twirled_distance_to_product])
    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_local_dimension_below_two_is_refused(self, sample, d):
        with pytest.raises(ValueError, match="local dimension must be >= 2"):
            sample(d, 3)

    @pytest.mark.parametrize("sample", [
        lambda n: sample_twirled_two_copy_broadcasts(2, n),
        lambda n: max_twirled_distance_to_product(2, n),
        lambda n: sample_two_copy_broadcasts(max_entangled(2), n),
    ])
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_start_is_refused(self, sample, n):
        with pytest.raises(ValueError, match="start count must be >= 1"):
            sample(n)
