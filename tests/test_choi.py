"""Choi-operator machinery: named channels, PPT verification, dilution synthesis."""
import math
import tracemalloc

import numpy as np
import pytest

from catcost import choi
from catcost.cli import _named_target, main
from catcost.choi import (
    SYNTHESIS_MAX_CYCLES,
    SYNTHESIS_TOL,
    ChoiOperator,
    TwirledChoi,
    _apply_matrix,
    _dense_dilution,
    _twirled_dilution,
    analytic_mixer_choi,
    apply_choi,
    coin_flip_broadcast_choi,
    identity_choi,
    replacer_choi,
    synthesize_ppt_dilution,
    transpose_map_choi,
    verify_ppt_operation,
)
from catcost.measures import (
    IsotropicCopies,
    _per_copy,
    copies_matrix,
    copy_ranks,
    log_negativity,
    partial_transpose_spectrum,
)
from catcost.operators import (
    FactorShape,
    ResourceLimitError,
    bipartite_shape,
    density_from_matrix,
    hermitian_part,
    partial_transpose,
    partial_transpose_entries,
    tensor_power,
    trace_distance,
)
from catcost.projections import product_projection, project_psd, solve_feasibility
from catcost.serialize import save_operator
from catcost.states import IsotropicParams, isotropic, max_entangled, symmetric_two_broadcast

from conftest import random_density, random_hermitian, spectral_calls


def half_mixed(d=2):
    return isotropic(IsotropicParams(d, 0.5))


def correlated_broadcast(d=2):
    return symmetric_two_broadcast(max_entangled(d), isotropic(IsotropicParams(d, 0.0)))


class TestNamedChannels:
    def test_identity_channel_acts_trivially(self, rng):
        x = random_density(rng, 2, 2)
        choi = identity_choi(x.shape)
        assert trace_distance(apply_choi(choi, x).op, x.op) <= 1e-12

    def test_replacer_outputs_its_state(self, rng):
        x = random_density(rng, 2, 2)
        sigma = random_density(rng, 2, 1)
        choi = replacer_choi(sigma, x.shape)
        assert trace_distance(apply_choi(choi, x).op, sigma.op) <= 1e-12

    def test_mixer_maps_max_entangled_to_half_mixed(self):
        choi = analytic_mixer_choi(2)
        out = apply_choi(choi, max_entangled(2))
        assert trace_distance(out.op, half_mixed(2).op) <= 1e-12

    def test_mixer_is_a_ppt_operation(self):
        report = verify_ppt_operation(analytic_mixer_choi(2), tol=1e-12)
        assert report.converged
        assert max(report.residuals.values()) <= 1e-12

    def test_mixer_ppt_residual_by_eigenvalue_oracle(self):
        choi = analytic_mixer_choi(2)
        eigs = np.linalg.eigvalsh(partial_transpose(choi.op).entries)
        assert eigs.min() >= -1e-12

    def test_identity_is_a_ppt_operation(self):
        report = verify_ppt_operation(identity_choi(bipartite_shape(2, 2)))
        assert report.converged
        assert max(report.residuals.values()) <= 1e-12

    def test_transpose_map_is_not_cp(self):
        report = verify_ppt_operation(transpose_map_choi(2))
        assert not report.converged
        assert report.residuals["cp"] > 0.5

    def test_coin_flip_broadcast_channel(self):
        # analytic feasible point for the broadcast target, solver-independent
        choi = coin_flip_broadcast_choi(2)
        report = verify_ppt_operation(choi, tol=1e-12)
        assert report.converged
        out = apply_choi(choi, max_entangled(2))
        assert trace_distance(out.op, correlated_broadcast(2).op) <= 1e-12

    def test_apply_choi_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_choi(identity_choi(bipartite_shape(2, 2)), random_density(rng, 3, 3))

    def test_choi_factor_partition_validated(self):
        good = identity_choi(bipartite_shape(2, 2))
        with pytest.raises(ValueError):
            ChoiOperator(good.op, (0,), (0, 1))
        with pytest.raises(ValueError):
            ChoiOperator(good.op, (1,), (0,))


class TestSynthesis:
    def test_dilution_to_half_mixed(self):
        report = synthesize_ppt_dilution(1, half_mixed(2), tol=1e-6)
        assert report.converged
        assert report.iterations <= 20000
        assert max(report.residuals.values()) <= 1e-6
        # self-verification: the feasible point is a PPT operation and
        # reproduces the target
        check = verify_ppt_operation(report.feasible_point.to_choi(), tol=1e-6)
        assert check.converged
        out = apply_choi(report.feasible_point.to_choi(), max_entangled(2), validate_tol=1e-6)
        assert trace_distance(out.op, half_mixed(2).op) <= 1e-5

    def test_dilution_to_broadcast(self):
        target = correlated_broadcast(2)
        report = synthesize_ppt_dilution(1, target, tol=1e-6)
        assert report.converged
        assert max(report.residuals.values()) <= 1e-6
        assert verify_ppt_operation(report.feasible_point.to_choi(), tol=1e-6).converged
        input_state = max_entangled(2)
        out = apply_choi(report.feasible_point.to_choi(), input_state, validate_tol=1e-6)
        assert trace_distance(out.op, target.op) <= 1e-5

    def test_npt_target_without_input_is_infeasible(self):
        target = half_mixed(2)
        report = synthesize_ppt_dilution(0, target, tol=1e-6)
        assert not report.converged
        assert report.stalled
        assert report.npt_witness is not None
        assert abs(report.npt_witness + 1 / 8) <= 1e-12
        # the witness is the target's one cached partial-transpose spectrum
        assert report.npt_witness == target.partial_transpose_eigh[0][0]
        # residual floor certified by the witness: ppt + sqrt(dim) * correctness
        res = report.residuals
        assert res["ppt"] + 2.0 * res["correctness"] >= 1 / 8 - 1e-9

    @pytest.mark.parametrize("dense", [False, True], ids=["twirled", "dense"])
    @pytest.mark.parametrize("name", ["noisy-phi-4", "broadcast-phi-4"])
    def test_target_above_m_ebits_carries_its_log_negativity(self, name, dense):
        # E_N = log2(17/4) - 1 > 1 = E_N of one ebit, and E_N is a PPT monotone
        target = _named_target(name)
        if dense:
            target = target.to_density()
        report = synthesize_ppt_dilution(1, target)
        assert report.stalled and report.npt_witness is None
        assert report.log_negativity == log_negativity(target)
        assert abs(report.log_negativity - (math.log2(17 / 4) - 1)) <= 1e-12

    def test_feasible_target_carries_no_certificate(self):
        report = synthesize_ppt_dilution(1, _named_target("noisy-phi-2"))
        assert report.converged
        assert report.log_negativity is None and report.npt_witness is None

    def test_ppt_target_without_input_is_feasible(self, rng):
        a = random_density(rng, 2, 1)
        b = random_density(rng, 2, 1)
        sep = density_from_matrix(np.kron(a.entries, b.entries), bipartite_shape(2, 2))
        report = synthesize_ppt_dilution(0, sep, tol=1e-6)
        assert report.converged

    def test_best_history_non_increasing(self):
        report = synthesize_ppt_dilution(1, half_mixed(2), tol=1e-10, max_iter=500)
        hist = report.best_history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_budget_enforced(self):
        # the search is target-sized; only the dense Choi matrix is over budget
        big = density_from_matrix(np.eye(81) / 81, bipartite_shape(9, 9))
        report = synthesize_ppt_dilution(2, big)
        assert report.converged
        with pytest.raises(ResourceLimitError):
            report.feasible_point.to_choi()

    def test_budget_checked_before_the_input_is_built(self, request):
        target = half_mixed(2)
        request.getfixturevalue("forbid_dense_operators")
        report = synthesize_ppt_dilution(4, target)
        assert report.converged
        with pytest.raises(ResourceLimitError, match="budget"):
            report.feasible_point.to_choi()

    @pytest.mark.parametrize("m", [0, 1])
    def test_dense_target_refused_over_the_entry_budget_before_any_build(self, monkeypatch, m):
        # 289 x 289 entries, over the 2^16 budget, stored dense
        target = density_from_matrix(np.eye(289) / 289, bipartite_shape(17, 17))

        def refuse(*args, **kwargs):
            raise AssertionError("a partial transpose was built")

        monkeypatch.setattr(choi, "partial_transpose_entries", refuse)
        with pytest.raises(ResourceLimitError, match="^synthesis start needs 289\\^2 entries"):
            synthesize_ppt_dilution(m, target)

    def test_runs_are_deterministic(self):
        a = synthesize_ppt_dilution(1, half_mixed(2), tol=1e-6)
        b = synthesize_ppt_dilution(1, half_mixed(2), tol=1e-6)
        assert a.iterations == b.iterations
        assert np.array_equal(a.feasible_point.to_choi().op.entries,
                              b.feasible_point.to_choi().op.entries)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_block_residuals_match_the_dense_choi_matrix(self, m, rng):
        target = random_density(rng, 2, 2)
        phi = np.ones((1, 1)) if m == 0 else tensor_power(max_entangled(2).op, m).entries
        for a in (target.entries, random_hermitian(rng, 4)):
            b = a if m == 0 else random_hermitian(rng, 4)
            point = TwirledChoi(m, target.shape, a, b)
            block = point.residuals(target.entries)
            choi = point.to_choi()
            dense = dict(verify_ppt_operation(choi).residuals)
            out = _apply_matrix(choi.op.entries, len(phi), 4, phi)
            dense["correctness"] = float(np.abs(out - target.entries).max())
            assert block.keys() == dense.keys()
            assert all(abs(block[k] - dense[k]) <= 1e-12 for k in block), (block, dense)
        # the random Hermitian blocks leave every residual nonzero
        assert min(block.values()) > 0

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_product_projection_repeats_the_per_set_projections(self, m, dtype, rng):
        target = random_density(rng, 2, 3)
        real = dtype is np.float64
        if real:
            target = density_from_matrix(target.entries.real.copy(), target.shape)
        rho = target.entries
        sets, *_ = _dense_dilution(m, target)
        n_sets, project = len(sets), product_projection(sets, 6)

        def pt(x):
            return partial_transpose_entries(x, target.shape)

        def cone(x, shift):
            return pt(shift + project_psd(pt(x) - shift))

        for _ in range(3):
            z = np.stack([random_hermitian(rng, 6) for _ in range(n_sets)])
            z = z.real.copy() if real else z
            if m == 0:
                blocks = [project_psd(z[0]), cone(z[1], 0.0), hermitian_part(rho)]
            else:
                e, rho_pt = 2.0 ** -m, pt(rho)
                blocks = [project_psd(z[0]), z[1] - (np.trace(z[1]).real - 1.0) / 6 * np.eye(6),
                          cone(z[2], -e / (1.0 - e) * rho_pt), cone(z[3], e / (1.0 + e) * rho_pt)]
            # one gathered project_psd call and one scatter, bit for bit the per-set formulas
            got = project(z)
            assert got.dtype == dtype and got.shape == z.shape and n_sets == len(blocks)
            assert np.array_equal(got, np.stack(blocks))

    @pytest.mark.parametrize("argv, code", [(["noisy-phi-3", "--m", "2"], 0),
                                            (["broadcast-phi-2", "--m", "1"], 0),
                                            (["noisy-phi-2", "--m", "0"], 4)])
    def test_named_search_makes_no_eigendecomposition(self, argv, code, monkeypatch, capsys):
        seen = spectral_calls(monkeypatch)
        inside, solve = [], choi.solve_feasibility

        def counting_solve(*args, **kwargs):
            before = len(seen)
            result = solve(*args, **kwargs)
            inside.append(len(seen) - before)
            return result

        monkeypatch.setattr(choi, "solve_feasibility", counting_solve)
        assert main(["synthesize", *argv, "--seed", "0"]) == code
        # the twirl algebra clips coefficient vectors: no spectral call in
        # the Douglas-Rachford loop, and none at all (the dense feasible
        # point is built from Phi_d's entries, unvalidated)
        assert inside == [0]
        assert seen == []


NAMED = [(name, m) for name in ("noisy-phi-2", "noisy-phi-3", "broadcast-phi-2")
         for m in (0, 1, 2)]


ALL_NAMED = [(name, m) for name in ("noisy-phi-2", "noisy-phi-3", "noisy-phi-4", "noisy-phi-5",
                                     "noisy-phi-9", "broadcast-phi-2", "broadcast-phi-3",
                                     "broadcast-phi-4") for m in range(4)]


def per_copy_residuals(target, m, y):
    """The twirled residuals from per-copy maps of c = y / sqrt(r), and c.

    cp and ppt the least coefficients of a, b and the two cone operators
    (``partial_transpose_spectrum``), tp = |r.c - 1|, and at m = 0 the
    correctness the largest entry of sigma - rho: per copy,
    c0 Phi + c1 (1 - Phi) has the entries c0/d + c1 (1 - 1/d) at |ii><ii|,
    (c0 - c1)/d at |ii><jj| and c1 at |ij><ij| (i != j), and 0 elsewhere.
    """
    d, rho = target.d, target.coeffs
    ranks = copy_ranks(d, rho.ndim)
    c = y.reshape(rho.shape) / np.sqrt(ranks)
    e = math.ldexp(1.0, -m)
    b_pt = partial_transpose_spectrum(d, c)
    a_pt = b_pt if m == 0 else target.partial_transpose_coeffs
    ppt = min((e * a_pt + (1.0 - e) * b_pt).min(), ((1.0 + e) * b_pt - e * a_pt).min())
    cp = c.min() if m == 0 else min(c.min(), rho.min())
    classes = (1.0 / d, 1.0 - 1.0 / d), (1.0 / d, -1.0 / d), (0.0, 1.0)
    largest_entry = float(np.abs(_per_copy(classes, c - rho)).max())
    return {"cp": max(0.0, -float(cp)), "ppt": max(0.0, -float(ppt)),
            "tp": abs(float((c * ranks).sum()) - 1.0),
            "correctness": largest_entry if m == 0 else 0.0}, c


def ebits(m):
    """Phi_2^(x m) as the Choi input; at m = 0 the one-dimensional state."""
    if m == 0:
        return density_from_matrix(np.ones((1, 1)), FactorShape(((1, 1),)))
    phi = tensor_power(max_entangled(2).op, m)
    return density_from_matrix(phi.entries, phi.shape)


class TestTwirledSynthesis:
    """The named targets' search in the twirl algebra against the dense D x D one."""

    @pytest.mark.parametrize("name, m", NAMED)
    def test_closed_form_residuals_match_the_dense_blocks(self, name, m, rng):
        target = _named_target(name)
        rho = target.to_density().entries
        _, start, residuals, point = _twirled_dilution(m, target)
        root = np.sqrt(copy_ranks(target.d, target.coeffs.ndim).ravel())
        # the start I/D, and coefficients of either sign, which
        # leave cp, ppt and tp (and at m = 0 the correctness) nonzero
        largest = dict.fromkeys(["cp", "ppt", "tp", "correctness"], 0.0)
        for y in [start] + [root * rng.standard_normal(len(root)) for _ in range(6)]:
            closed, dense = residuals(y), point(y).residuals(rho)
            assert list(closed) == list(dense) == list(largest)
            assert all(abs(closed[k] - dense[k]) <= 1e-12 for k in closed), (closed, dense)
            largest = {k: max(v, closed[k]) for k, v in largest.items()}
        assert min(largest[k] for k in ("cp", "ppt", "tp")) > 0
        assert (largest["correctness"] > 0) == (m == 0)

    @pytest.mark.parametrize("name, m", ALL_NAMED)
    def test_affine_residuals_are_the_per_copy_forms(self, name, m, rng):
        target = _named_target(name)
        _, start, residuals, point = _twirled_dilution(m, target)
        ranks = copy_ranks(target.d, target.coeffs.ndim).ravel()
        candidates = [start] + [scale * np.sqrt(ranks) * rng.standard_normal(len(ranks))
                                for scale in (1e-3, 1.0, 1e3) for _ in range(3)]
        rho = target.to_density().entries
        for y in candidates:
            affine = residuals(y)
            expected, c = per_copy_residuals(target, m, y)
            assert list(affine) == list(expected)
            # a few ulps of the terms r |c| that the sums add
            scale = max(1.0, float(np.abs(c).ravel() @ ranks))
            assert all(abs(affine[k] - expected[k]) <= 4 * np.finfo(float).eps * scale
                       for k in affine), (affine, expected)
            # and 1e-12 of that scale from the dense blocks' spectra
            dense = point(y).residuals(rho)
            assert all(abs(affine[k] - dense[k]) <= 1e-12 * scale for k in affine), (affine, dense)

    def test_cp_reads_a_target_coefficient_below_zero(self):
        # a state within DEFAULT_PSD_TOL of PSD: at m >= 1 the block a = rho
        # is part of the Choi operator, and its least coefficient part of cp
        target = IsotropicCopies(2, np.array([1.0 + 1.5e-10, -5e-11]))
        for m in range(3):
            _, start, residuals, _ = _twirled_dilution(m, target)
            assert start.min() > 0
            assert residuals(start)["cp"] == (0.0 if m == 0 else 5e-11)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_correctness_rows_read_the_largest_dense_entry(self, d, k, rng):
        # at m = 0 the correctness of sigma = rho + c is the largest |entry|
        # of the dense operator with coefficients c, of either sign
        weights = rng.random((2,) * k)
        target = IsotropicCopies(d, weights / (weights * copy_ranks(d, k)).sum())
        _, _, residuals, _ = _twirled_dilution(0, target)
        root = np.sqrt(copy_ranks(d, k).ravel())
        for _ in range(5):
            c = rng.standard_normal((2,) * k)
            correctness = residuals(root * (target.coeffs + c).ravel())["correctness"]
            assert correctness == pytest.approx(np.abs(copies_matrix(d, c)).max(), abs=1e-15)

    @pytest.mark.parametrize("target, m", [
        (_named_target(name), m) for name, m in NAMED if m] + [
        (IsotropicCopies.isotropic(2, 0.25), 0), (IsotropicCopies.isotropic(3, 0.2), 0)],
        ids=[f"{name}-{m}" for name, m in NAMED if m] + ["ppt-isotropic-2-0", "ppt-isotropic-3-0"])
    def test_converged_point_is_a_ppt_dilution(self, target, m):
        report = synthesize_ppt_dilution(m, target)
        assert report.converged and max(report.residuals.values()) <= 1e-6
        choi_op = report.feasible_point.to_choi()
        assert verify_ppt_operation(choi_op, tol=1e-6).converged
        out = apply_choi(choi_op, ebits(m), validate_tol=1e-6)
        assert trace_distance(out.op, target.to_density().op) <= 1e-5

    @pytest.mark.parametrize("name, m", NAMED)
    def test_algebra_and_dense_searches_agree(self, name, m):
        target = _named_target(name)
        twirled = synthesize_ppt_dilution(m, target)
        dense = synthesize_ppt_dilution(m, target.to_density())
        assert (twirled.converged, twirled.stalled) == (dense.converged, dense.stalled)
        assert (twirled.npt_witness is None) == (dense.npt_witness is None) == (m > 0)
        if m == 0:
            assert twirled.npt_witness == pytest.approx(dense.npt_witness, abs=1e-12)

    def test_boundary_instance_converges(self):
        # on the feasibility boundary: its one-shot exact PPT cost W is 2, so
        # one ebit is just enough, and plain Douglas-Rachford takes 110 cycles
        report = synthesize_ppt_dilution(1, _named_target("broadcast-phi-3"))
        assert report.converged and not report.stalled
        assert report.iterations == 110
        assert max(report.residuals.values()) <= 1e-6

    def test_infeasible_solve_stalls(self):
        report = synthesize_ppt_dilution(0, _named_target("noisy-phi-2"))
        assert report.stalled and not report.converged and report.iterations == 520
        # partial_transpose_coeffs.min(), exactly
        assert report.npt_witness == -0.125
        # the stalled (ppt, correctness) from I/D: the stalled point on that
        # face is not unique, and the start picks it
        res = report.residuals
        assert res["ppt"] == pytest.approx(0.0624941, abs=1e-6)
        assert res["correctness"] == pytest.approx(0.0323012, abs=1e-6)
        # the floor the witness certifies: ppt + sqrt(dim) * correctness
        assert res["ppt"] + 2.0 * res["correctness"] >= 1 / 8 - 1e-9

    @pytest.mark.parametrize("name", ["noisy-phi-2", "noisy-phi-3", "noisy-phi-4", "noisy-phi-5",
                                      "noisy-phi-9", "broadcast-phi-2", "broadcast-phi-3",
                                      "broadcast-phi-4"])
    def test_named_table_converges_or_stalls_certified(self, name):
        # at m = 0..3: a solve converges unstalled within the tolerance, or
        # stalls with its certificate, and it converges exactly when it has none
        target = _named_target(name)
        for m in range(4):
            report = synthesize_ppt_dilution(m, target)
            certificate, other = ((report.npt_witness, report.log_negativity) if m == 0
                                  else (report.log_negativity, report.npt_witness))
            assert other is None
            assert report.converged == (certificate is None), m
            if report.converged:
                assert not report.stalled
                assert max(report.residuals.values()) <= SYNTHESIS_TOL
            else:
                assert report.stalled
                assert certificate < 0 if m == 0 else certificate > m

    @pytest.mark.parametrize("name", ["noisy-phi-2", "noisy-phi-3", "broadcast-phi-2",
                                      "broadcast-phi-3"])
    @pytest.mark.parametrize("m", [0, 1])
    def test_start_is_the_dense_start(self, name, m):
        # y = sqrt(r) / N is I/D, the start of the dense search of the same target
        target = _named_target(name)
        _, start, _, point = _twirled_dilution(m, target)
        _, dense_start, _, _ = _dense_dilution(m, target.to_density())
        assert start.shape == (target.coeffs.size,) and start.dtype == np.float64
        assert dense_start.dtype == np.float64
        assert np.abs(point(start).b - dense_start).max() <= 1e-15

    @pytest.mark.parametrize("dense", [False, True], ids=["named", "matrix"])
    @pytest.mark.parametrize("m", [0, 1])
    def test_solve_draws_no_random_number(self, dense, m, monkeypatch):
        target = _named_target("broadcast-phi-2")
        target = target.to_density() if dense else target

        class NoRandom:
            def __getattr__(self, name):
                raise AssertionError(f"np.random.{name} was called")

        monkeypatch.setattr(np, "random", NoRandom())
        report = synthesize_ppt_dilution(m, target)
        assert report.converged == (m == 1)

    def test_named_solve_builds_nothing_dense(self, forbid_dense_operators, monkeypatch):
        # a 256 x 256 target, stalled at m = 0 from I/D: no dense start
        # drawn or twirled, and no linear algebra
        target = _named_target("broadcast-phi-4")

        def refuse(*args, **kwargs):
            raise AssertionError("a dense start was drawn or twirled")

        class NoLinalg:
            def __getattr__(self, name):
                raise AssertionError(f"np.linalg.{name} was called")

        monkeypatch.setattr("catcost.projections.random_density_matrix", refuse)
        monkeypatch.setattr("catcost.measures.twirl_coefficients", refuse)
        monkeypatch.setattr(np, "linalg", NoLinalg())
        synthesize_ppt_dilution(0, target)  # first-use allocations outside the run
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = synthesize_ppt_dilution(0, target)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert report.stalled and not report.converged
        assert report.npt_witness == target.partial_transpose_coeffs.min() < 0
        # a quarter of one 256 x 256 float64 matrix: a dense start I/D alone
        # takes four times that
        assert peak <= 256 * 256 * 8 // 4

    def test_start_refused_over_the_entry_budget(self, request, monkeypatch):
        # refused on the dense blocks of a point, before any start is built
        request.getfixturevalue("forbid_dense_operators")

        def refuse(*args, **kwargs):
            raise AssertionError("a random number generator was made")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(ResourceLimitError, match="synthesis start"):
            synthesize_ppt_dilution(1, IsotropicCopies.isotropic(17, 0.5))


def eigh_dtypes(monkeypatch):
    """Record the dtype of every ``np.linalg.eigh`` argument from here on."""
    seen = []
    eigh = np.linalg.eigh

    def spy(m, *args, **kwargs):
        seen.append(np.asarray(m).dtype)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


class TestRealSubspace:
    @pytest.mark.parametrize("name, m, cycles", [
        ("noisy-phi-2", 1, 10), ("broadcast-phi-2", 1, 20), ("noisy-phi-3", 2, 10)],
        ids=["noisy-phi-2-1", "broadcast-phi-2-1", "noisy-phi-3-2"])
    def test_named_targets_solve_in_float64(self, name, m, cycles, monkeypatch):
        target = _named_target(name).to_density()
        seen = eigh_dtypes(monkeypatch)
        report = synthesize_ppt_dilution(m, target)
        monkeypatch.undo()
        assert seen and set(seen) == {np.dtype(np.float64)}
        assert report.converged and report.iterations == cycles
        choi = report.feasible_point.to_choi()
        assert verify_ppt_operation(choi, tol=1e-6).converged
        phi = tensor_power(max_entangled(2).op, m)
        out = apply_choi(choi, density_from_matrix(phi.entries, phi.shape),
                         validate_tol=1e-6)
        assert trace_distance(out.op, target.op) <= 1e-5

    def test_complex_target_file_keeps_complex128(self, tmp_path, monkeypatch, capsys):
        # a local phase on B: as entangled as noisy-phi-2, but not real
        u = np.kron(np.eye(2), np.diag([1.0, 1j]))
        rho = _named_target("noisy-phi-2").to_density().entries
        target = density_from_matrix(u @ rho @ u.conj().T, bipartite_shape(2, 2))
        assert np.abs(target.entries.imag).max() > 0.1
        path = tmp_path / "phased.json"
        save_operator(target.op, path)
        seen = eigh_dtypes(monkeypatch)
        assert main(["synthesize", str(path), "--m", "1", "--seed", "0"]) == 0
        assert set(seen) == {np.dtype(np.complex128)}
        assert "overall: PASS" in capsys.readouterr().out


class TestFeasiblePointOnRead:
    """A converged report builds its ``TwirledChoi`` on the first read of ``feasible_point``."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls, copies = [], choi.copies_matrix

        def counting(*args):
            calls.append(args)
            return copies(*args)

        monkeypatch.setattr(choi, "copies_matrix", counting)
        return calls

    @pytest.mark.parametrize("fmt", ["text", "csv", "json-like-keyvalue"])
    def test_converged_cli_run_builds_no_dense_block(self, fmt, built, capsys):
        assert main(["--format", fmt, "synthesize", "noisy-phi-3", "--m", "2"]) == 0
        assert capsys.readouterr().out
        assert built == []

    @pytest.mark.parametrize("target, m", [
        ("noisy-phi-3", 2), ("broadcast-phi-2", 1), ("noisy-phi-2", 1),
        (IsotropicCopies.isotropic(2, 0.2), 0), ("dense noisy-phi-2", 1)],
        ids=["noisy-phi-3-2", "broadcast-phi-2-1", "noisy-phi-2-1", "ppt-0", "dense-1"])
    def test_point_is_the_eager_one_built_once(self, target, m, built):
        if isinstance(target, str):
            *dense, name = target.split()
            target = _named_target(name).to_density() if dense else _named_target(name)
        search = _twirled_dilution if isinstance(target, IsotropicCopies) else _dense_dilution
        sets, start, residuals, point = search(m, target)
        result = solve_feasibility(sets, start, residuals, tol=SYNTHESIS_TOL,
                                   max_iter=SYNTHESIS_MAX_CYCLES)
        eager = point(result.point)
        del built[:]
        report = synthesize_ppt_dilution(m, target)
        assert report.converged and built == []
        lazy = report.feasible_point
        # the named search's dense blocks: b, and a = rho at m >= 1
        dense_blocks = 0 if search is _dense_dilution else 1 if m == 0 else 2
        assert len(built) == dense_blocks
        assert type(lazy) is TwirledChoi
        assert (lazy.m, lazy.output_shape) == (eager.m, eager.output_shape)
        for got, want in ((lazy.a, eager.a), (lazy.b, eager.b)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert report.feasible_point is lazy and len(built) == dense_blocks

    def test_unconverged_and_verified_points(self, built):
        report = synthesize_ppt_dilution(0, _named_target("noisy-phi-2"))
        assert report.stalled and report.feasible_point is None
        mixer = analytic_mixer_choi(2)
        assert verify_ppt_operation(mixer).feasible_point is mixer
        assert verify_ppt_operation(transpose_map_choi(2)).feasible_point is None
        assert built == []
