"""Broadcast verification and the purity-rigidity projection machinery."""
import math
import tracemalloc

import numpy as np
import pytest

import catcost.broadcast
from catcost.broadcast import (
    _marginal_projections,
    _twirled_broadcast_segment,
    max_twirled_distance_to_product,
    project_to_two_copy_broadcast,
    sample_two_copy_broadcasts,
    verify_broadcast,
)
from catcost.cli import main, scenario_rigidity
from catcost.measures import IsotropicCopies
from catcost.operators import (
    FactorShape,
    ResourceLimitError,
    bipartite_shape,
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

    @pytest.mark.parametrize("phase", [1.0, 1j])
    def test_samples_are_the_projections_of_the_seeded_draws_in_order(self, phase):
        # a local phase on B makes phi complex, and its starts complex128
        u = np.kron(np.eye(2), np.diag([1.0, phase]))
        phi = density_from_matrix(u @ max_entangled(2).entries @ u.conj().T,
                                  bipartite_shape(2, 2))
        rng = np.random.default_rng(11)
        expected = []
        for _ in range(3):
            m = project_to_two_copy_broadcast(
                phi, random_density_matrix(16, rng, phi.entries.dtype)).point
            expected.append(m / np.trace(m).real)
        points = sample_two_copy_broadcasts(phi, n_starts=3, seed=11)
        assert [p.entries.dtype for p in points] == [phi.entries.dtype] * 3
        assert all(np.array_equal(p.entries, m) for p, m in zip(points, expected))


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
        root, unit, lo, hi = _twirled_broadcast_segment(d)
        for t in (lo, hi):
            point = IsotropicCopies(d, ((np.eye(4)[0] + t * unit) / root).reshape(2, 2))
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

    def test_largest_request_builds_no_matrix(self, forbid_dense_operators, monkeypatch):
        # the largest request, 8 192 starts at d = 4: no dense start, no
        # dense twirl and no linear algebra, and a heap of a few kB
        def refuse(*args, **kwargs):
            raise AssertionError("a dense start was drawn or twirled")

        class NoLinalg:
            def __getattr__(self, name):
                raise AssertionError(f"np.linalg.{name} was called")

        monkeypatch.setattr("catcost.projections.random_density_matrix", refuse)
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
        # about 8 kB: the end points, the product state and the report; one
        # (8192, 4) float64 array of twirled starts alone holds 256 KiB, and
        # one dense 256 x 256 complex start 1 MiB
        assert peak <= 16 * 1024

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_no_random_number_is_drawn(self, d, monkeypatch, capsys):
        # the set is computed, not sampled: --starts and --seed are echoed
        # and change nothing else in the report
        def refuse(*args, **kwargs):
            raise AssertionError("a random number was drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        reports = []
        for starts, seed in [("8192", "42"), ("1", "0"), ("50", "1")]:
            assert main(["rigidity", "--d", str(d), "--starts", starts, "--seed", seed]) == 0
            out = capsys.readouterr().out
            params = f"param starts = {starts}\nparam seed = {seed}\n"
            assert params in out
            assert "result max_distance_to_product = 0.0  [tol=1e-06]\n" in out
            reports.append(out.replace(params, ""))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_distance_is_the_farther_end_point(self, d, monkeypatch):
        # a segment patched onto a trace-preserving line of states, so that
        # its ends lie at different distances: the larger dense distance is
        # returned, at whichever end it lies
        root = _twirled_broadcast_segment(d)[0]
        line = np.array([-root[1], root[0], 0.0, 0.0]) / np.hypot(root[0], root[1])
        phi = max_entangled(d)
        product = tensor(phi.op, phi.op)
        for unit, lo, hi in [(line, 0.0, 0.5), (-line, -0.5, 0.0), (line, 0.25, 0.5)]:
            monkeypatch.setattr(catcost.broadcast, "_twirled_broadcast_segment",
                                lambda d, segment=(root, unit, lo, hi): segment)
            ends = [IsotropicCopies(d, ((np.eye(4)[0] + t * unit) / root).reshape(2, 2))
                    for t in (lo, hi)]
            dense = max(trace_distance(end.to_density().op, product) for end in ends)
            worst = max_twirled_distance_to_product(d)
            assert type(worst) is float
            assert worst > 0.1
            assert abs(worst - dense) <= 1e-12

    # a segment patched past Phi_d's, or with a nan end: the end point is
    # no state, and IsotropicCopies refuses it with its own message
    @pytest.mark.parametrize("ends", [(-0.1, 0.0), (0.0, 0.1), (float("nan"), 0.0)],
                             ids=["below", "above", "nan"])
    def test_an_end_point_that_is_no_state_is_refused(self, ends, monkeypatch):
        root, unit, _, _ = _twirled_broadcast_segment(2)
        monkeypatch.setattr(catcost.broadcast, "_twirled_broadcast_segment",
                            lambda d: (root, unit, *ends))
        with pytest.raises(ValueError, match="trace nan|positive semidefinite"):
            max_twirled_distance_to_product(2)

    # refused before Phi_d's segment is computed, where d = 1 divides by zero
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_local_dimension_below_two_is_refused(self, d):
        with pytest.raises(ValueError, match="local dimension must be >= 2"):
            max_twirled_distance_to_product(d)

    # refused on the integer d, before Phi_d's segment or the product state
    # takes a float of it, which overflows at d = 10^200
    @pytest.mark.parametrize("d", [5, 10 ** 200], ids=["5", "10^200"])
    def test_local_dimension_over_the_budget_is_refused(self, d, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the segment was computed")
        monkeypatch.setattr(catcost.broadcast, "_twirled_broadcast_segment", refuse)
        with pytest.raises(ResourceLimitError, match="budget"):
            max_twirled_distance_to_product(d)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_start_is_refused(self, n):
        with pytest.raises(ValueError, match="start count must be >= 1"):
            sample_two_copy_broadcasts(max_entangled(2), n)

    def test_sampler_over_the_budget_is_refused_before_a_draw(self, monkeypatch):
        # Phi_5's two copies are 625 x 625 starts
        def refuse(*args, **kwargs):
            raise AssertionError("a random number generator was made")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(ResourceLimitError, match="two-copy broadcast projection needs"):
            sample_two_copy_broadcasts(max_entangled(5), 1)
