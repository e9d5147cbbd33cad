"""Resource measures against closed forms and independent eigenvalue oracles."""
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcost.broadcast import verify_broadcast
from catcost.catalysis import catalytic_cost_upper_bound
from catcost.cli import scenario_werner
from catcost.measures import (
    Applicability,
    CostValue,
    IsotropicCopies,
    _per_copy,
    binegativity,
    copies_matrix,
    copy_ranks,
    d_max,
    d_max_to_ppt_isotropic,
    exact_locc_cost_pure,
    gated_ppt_cost,
    log_negativity,
    partial_transpose_isometry,
    partial_transpose_spectrum,
    schmidt_rank,
    twirl_coefficients,
    work_cost_semiclassical,
)
from catcost.operators import (
    DEFAULT_PSD_TOL,
    DensityOperator,
    FactorShape,
    LabeledOperator,
    abs_operator,
    bipartite_shape,
    density_from_matrix,
    density_from_vector,
    eig_hermitian,
    hermitian_part,
    is_psd,
    partial_trace,
    partial_transpose,
    partial_transpose_entries,
    plain_shape,
    tensor,
    trace_distance,
    trace_norm,
)
from catcost.states import (
    IsotropicParams,
    classical_mix,
    gibbs_qubit,
    isotropic,
    max_entangled,
    symmetric_two_broadcast,
)

from conftest import random_density, random_state_matrix, spectral_calls


def half_mixed(d):
    return isotropic(IsotropicParams(d, 0.5))


def broadcast_of_half_mixed(d):
    return symmetric_two_broadcast(max_entangled(d), isotropic(IsotropicParams(d, 0.0)))


def closed_form_ln(d):
    return math.log2((d * d + 1) / d) - 1.0


class TestLogNegativity:
    def test_separable_product_is_zero(self, rng):
        a = random_state_matrix(rng, 2)
        b = random_state_matrix(rng, 3)
        rho = density_from_matrix(np.kron(a, b), bipartite_shape(2, 3))
        assert log_negativity(rho) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_half_mixed_closed_form(self, d):
        assert abs(log_negativity(half_mixed(d)) - closed_form_ln(d)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_broadcast_has_same_value(self, d):
        assert abs(log_negativity(broadcast_of_half_mixed(d)) - closed_form_ln(d)) <= 1e-9

    def test_broadcast_pt_spectrum_oracle(self):
        # d=2: eigenvalues {1/8 x9, 0 x6, -1/8 x1}
        mu = broadcast_of_half_mixed(2)
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(mu.op).entries))
        expected = np.sort([1 / 8] * 9 + [0.0] * 6 + [-1 / 8])
        assert np.abs(eigs - expected).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled_value(self, d):
        assert abs(log_negativity(max_entangled(d)) - math.log2(d)) <= 1e-12

    def test_additive_on_tensor_products(self, rng):
        for _ in range(10):
            a = random_density(rng, 2, 2)
            b = random_density(rng, 2, 2)
            prod = density_from_matrix(tensor(a.op, b.op).entries,
                                       a.shape.concat(b.shape))
            assert abs(log_negativity(prod)
                       - log_negativity(a) - log_negativity(b)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_nonnegative_and_zero_on_ppt(self, seed, separable):
        rng = np.random.default_rng(seed)
        if separable:
            a = random_state_matrix(rng, 2)
            b = random_state_matrix(rng, 2)
            rho = density_from_matrix(np.kron(a, b), bipartite_shape(2, 2))
        else:
            rho = random_density(rng, 2, 2)
        value = log_negativity(rho)
        assert value >= 0.0
        if is_psd(partial_transpose(rho.op)).ok:
            assert value <= 1e-12


def sample_negative_binegativity_state(seed=2024, max_draws=60):
    """Rejection-sample a rank-2 two-qutrit state outside the gate."""
    rng = np.random.default_rng(seed)
    for _ in range(max_draws):
        rho = density_from_matrix(random_state_matrix(rng, 9, rank=2),
                                  bipartite_shape(3, 3))
        if binegativity(rho).min_eigenvalue < -1e-6:
            return rho
    raise AssertionError("no negative-binegativity sample found")


class TestBinegativity:
    def test_ppt_state_is_its_own_binegativity(self, rng):
        # for PPT rho the doubly transposed absolute value is rho itself
        a = random_state_matrix(rng, 2)
        b = random_state_matrix(rng, 2)
        rho = density_from_matrix(np.kron(a, b), bipartite_shape(2, 2))
        assert binegativity(rho).positive

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gates_pass_on_the_headline_family(self, d):
        assert binegativity(half_mixed(d)).positive
        assert binegativity(broadcast_of_half_mixed(d)).positive

    def test_negative_sample_exists(self):
        rho = sample_negative_binegativity_state()
        assert binegativity(rho).min_eigenvalue < -1e-6

    def test_closed_under_tensor_products_on_family(self):
        for d in (2, 3):
            rho = half_mixed(d)
            mu = broadcast_of_half_mixed(d)
            pair = density_from_matrix(tensor(rho.op, rho.op).entries,
                                       rho.shape.copies(2))
            assert binegativity(pair).positive
            cross = density_from_matrix(tensor(rho.op, mu.op).entries,
                                        rho.shape.concat(mu.shape))
            assert binegativity(cross).positive


class TestExactPptCost:
    def test_half_mixed_value(self):
        cost = gated_ppt_cost(half_mixed(2))[1]
        assert cost.applicability is Applicability.EXACT_FORMULA
        assert abs(cost.bits - 0.3219281) <= 1e-7

    def test_ppt_state_costs_nothing(self, rng):
        a = random_state_matrix(rng, 2)
        b = random_state_matrix(rng, 2)
        rho = density_from_matrix(np.kron(a, b), bipartite_shape(2, 2))
        cost = gated_ppt_cost(rho)[1]
        assert cost.applicability is Applicability.EXACT_FORMULA
        assert cost.bits <= 1e-12

    def test_gate_failure_flags_undefined(self):
        cost = gated_ppt_cost(sample_negative_binegativity_state())[1]
        assert cost.applicability is Applicability.UNDEFINED
        assert math.isnan(cost.bits)

    def test_exact_on_family_up_to_d5(self):
        for d in range(2, 6):
            assert gated_ppt_cost(half_mixed(d))[1].applicability is Applicability.EXACT_FORMULA

    def test_cost_value_invariant(self):
        with pytest.raises(ValueError):
            CostValue(1.0, Applicability.UNDEFINED)


class TestDmax:
    def test_self_divergence_zero(self, rng):
        rho = random_density(rng, 2, 2)
        assert abs(d_max(rho, rho)) <= 1e-9

    def test_max_entangled_vs_white_noise(self):
        phi = max_entangled(2)
        white = isotropic(IsotropicParams(2, 0.0))
        assert abs(d_max(phi, white) - 2.0) <= 1e-12

    def test_diagonal_closed_forms(self):
        p = 0.25
        gamma = gibbs_qubit(p)
        assert abs(d_max(classical_mix(0.5, p), gamma) - math.log2(7 / 6)) <= 1e-12
        assert abs(d_max(classical_mix(0.0, p), gamma) - math.log2(4 / 3)) <= 1e-12

    def test_infinite_when_support_leaks(self):
        ground = classical_mix(0.0, 0.25)          # pure |0><0|
        excited = density_from_matrix(np.diag([0.0, 1.0]), plain_shape(2))
        assert d_max(excited, ground) == math.inf

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            d_max(random_density(rng, 2, 2), random_density(rng, 3, 3))

    def test_separates_distinct_states(self, rng):
        # zero divergence forces equality on unit-trace inputs
        for _ in range(10):
            rho = random_density(rng, 2, 1)
            sigma = random_density(rng, 2, 1)
            if np.abs(rho.entries - sigma.entries).max() > 1e-6:
                assert d_max(rho, sigma) > 1e-9

    def test_quasi_convex_in_first_argument(self, rng):
        for _ in range(20):
            p0 = np.sort(rng.random(4)); p0 /= p0.sum()
            p1 = np.sort(rng.random(4)); p1 /= p1.sum()
            q = rng.random(4) + 0.1; q /= q.sum()
            sigma = density_from_matrix(np.diag(q), plain_shape(4))
            r0 = density_from_matrix(np.diag(p0), plain_shape(4))
            r1 = density_from_matrix(np.diag(p1), plain_shape(4))
            mid = density_from_matrix(np.diag((p0 + p1) / 2), plain_shape(4))
            assert d_max(mid, sigma) <= max(d_max(r0, sigma), d_max(r1, sigma)) + 1e-9


def dense_isotropic(d, lam):
    return isotropic(IsotropicParams(d, lam))


def isotropic_at_fraction(d, f):
    """The dense isotropic state of maximally entangled fraction f."""
    return IsotropicCopies(d, [f, (1.0 - f) / (d * d - 1)]).to_density()


class TestDmaxToPpt:
    @pytest.mark.parametrize("build", [dense_isotropic, IsotropicCopies.isotropic],
                             ids=["dense", "algebra"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lam", [0.5, 0.75, 1.0])
    def test_matches_log_negativity(self, build, d, lam):
        rho = build(d, lam)
        assert abs(d_max_to_ppt_isotropic(rho) - log_negativity(rho)) <= 1e-6

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("lam", [0.0, 0.1, "boundary", 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_closed_form_matches_dense_oracle(self, d, lam):
        # the closed form is the dense d_max at the best g of the PPT
        # segment: 1/d above the boundary lam = 1/(d+1), and f (sigma_g =
        # rho, so 0) at or below it; no sigma_g on the segment does better,
        # and one IsotropicCopies copy, read at f = c0, gives the same value
        lam = 1.0 / (d + 1) if lam == "boundary" else lam
        rho = dense_isotropic(d, lam)
        closed = d_max_to_ppt_isotropic(rho)
        f = lam + (1.0 - lam) / (d * d)
        assert abs(closed - d_max(rho, isotropic_at_fraction(d, min(f, 1.0 / d)))) <= 1e-12
        for g in np.linspace(0.05, 1.0 / d, 8):
            assert d_max(rho, isotropic_at_fraction(d, g)) >= closed - 1e-9
        assert abs(d_max_to_ppt_isotropic(IsotropicCopies.isotropic(d, lam)) - closed) <= 1e-12
        if lam <= 1.0 / (d + 1):
            assert closed == 0.0

    def test_d3_closed_form(self):
        rho = half_mixed(3)
        assert abs(d_max_to_ppt_isotropic(rho) - (math.log2(10 / 3) - 1)) <= 1e-6

    def test_ppt_boundary_gives_zero(self):
        rho = isotropic_at_fraction(2, 0.5)  # f = 1/d
        assert d_max_to_ppt_isotropic(rho) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_non_symmetric_states(self, d, rng):
        rho = random_density(rng, d, d)
        with pytest.raises(ValueError, match="not isotropic-symmetric"):
            d_max_to_ppt_isotropic(rho)

    def test_rejects_a_non_square_factor(self, rng):
        with pytest.raises(ValueError):
            d_max_to_ppt_isotropic(random_density(rng, 2, 3))

    def test_accepts_a_state_validated_at_a_looser_trace_tolerance(self):
        # the coefficients are read as they are, not revalidated as a state
        entries = dense_isotropic(2, 0.75).entries * (1.0 + 1e-11)
        rho = DensityOperator(LabeledOperator(bipartite_shape(2, 2), entries), trace_tol=1e-6)
        assert abs(d_max_to_ppt_isotropic(rho) - d_max_to_ppt_isotropic(
            IsotropicCopies.isotropic(2, 0.75))) <= 1e-10

    def test_rejects_more_than_one_algebra_copy(self):
        rho = IsotropicCopies.isotropic(2, 0.5)
        with pytest.raises(ValueError, match="expected one isotropic copy, got 2"):
            d_max_to_ppt_isotropic(IsotropicCopies.symmetric_two_broadcast(rho, rho))


class TestSchmidtRank:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled(self, d):
        assert schmidt_rank(max_entangled(d)) == d
        assert abs(exact_locc_cost_pure(max_entangled(d)) - math.log2(d)) <= 1e-12

    def test_product_state(self):
        v = np.zeros(4); v[0] = 1.0
        psi = density_from_vector(v, bipartite_shape(2, 2))
        assert schmidt_rank(psi) == 1
        assert exact_locc_cost_pure(psi) == 0.0

    def test_discontinuity_at_weak_entanglement(self):
        # marginal eigenvalues {1 - eps^2, eps^2} stay above the rank cut
        eps = 1e-3
        v = np.zeros(4)
        v[0], v[3] = math.sqrt(1 - eps ** 2), eps
        psi = density_from_vector(v, bipartite_shape(2, 2))
        assert schmidt_rank(psi) == 2
        assert exact_locc_cost_pure(psi) == 1.0

    def test_mixed_input_rejected(self):
        with pytest.raises(ValueError):
            schmidt_rank(half_mixed(2))


class TestWorkCost:
    def test_gibbs_costs_nothing(self):
        gamma = gibbs_qubit(0.25)
        assert work_cost_semiclassical(gamma, gamma) == 0.0

    def test_ground_state_cost(self):
        assert abs(work_cost_semiclassical(classical_mix(0.0, 0.25), gibbs_qubit(0.25))
                   - math.log2(4 / 3)) <= 1e-12

    def test_even_mixture_cost(self):
        assert abs(work_cost_semiclassical(classical_mix(0.5, 0.25), gibbs_qubit(0.25))
                   - math.log2(7 / 6)) <= 1e-12

    def test_non_commuting_rejected(self):
        plus = density_from_matrix(np.full((2, 2), 0.5), plain_shape(2))
        with pytest.raises(ValueError):
            work_cost_semiclassical(plus, gibbs_qubit(0.25))


def real_density(rng, d):
    """A real-valued (d, d) state, NPT through its Phi_d component."""
    g = rng.standard_normal((d * d, d * d))
    m = g @ g.T
    m = 0.4 * m / np.trace(m) + 0.6 * max_entangled(d).entries.real
    return density_from_matrix(m, bipartite_shape(d, d))


def complex_pt_eigh(rho):
    """Dense eigh of rho^Gamma forced to complex128."""
    pt = partial_transpose(rho.op).entries.astype(np.complex128)
    return np.linalg.eigh(hermitian_part(pt))


class TestPartialTransposeSpectrum:
    """Every PPT measure comes from one cached decomposition of rho^Gamma."""

    @staticmethod
    def dense_log_negativity(rho):
        return max(0.0, math.log2(trace_norm(partial_transpose(rho.op))))

    @staticmethod
    def dense_binegativity(rho):
        b = partial_transpose(abs_operator(partial_transpose(rho.op)))
        return float(np.linalg.eigvalsh(hermitian_part(b.entries)).min())

    def oracle_states(self, rng):
        return [random_density(rng, 2, 2), random_density(rng, 2, 3),
                random_density(rng, 3, 3, rank=2),
                density_from_matrix(random_state_matrix(rng, 16),
                                    FactorShape(((2, 2), (2, 2)))),
                sample_negative_binegativity_state(),
                broadcast_of_half_mixed(2)]

    def test_cached_measures_match_dense_formulas(self, rng):
        for rho in self.oracle_states(rng):
            ln = log_negativity(rho)
            lo = binegativity(rho).min_eigenvalue
            assert abs(ln - self.dense_log_negativity(rho)) <= 1e-12
            assert abs(lo - self.dense_binegativity(rho)) <= 1e-12
            assert log_negativity(rho) == ln
            assert binegativity(rho).min_eigenvalue == lo

    def test_cache_is_read_only(self, rng):
        w, v = random_density(rng, 2, 2).partial_transpose_eigh
        assert not w.flags.writeable and not v.flags.writeable

    def test_gated_cost_shares_the_gate(self):
        rho = half_mixed(3)
        gate, cost = gated_ppt_cost(rho)
        assert gate == binegativity(rho) and gate.tol == DEFAULT_PSD_TOL
        assert cost == gated_ppt_cost(rho)[1]
        assert cost.bits == log_negativity(rho)
        gate, cost = gated_ppt_cost(sample_negative_binegativity_state())
        assert not gate.positive and cost.applicability is Applicability.UNDEFINED

    @pytest.mark.parametrize("d", [2, 3])
    def test_real_states_decompose_in_float64_and_match_complex(self, d, rng, monkeypatch):
        for _ in range(3):
            rho = real_density(rng, d)
            pt = partial_transpose(rho.op)
            seen = spectral_calls(monkeypatch)
            ln, lo = log_negativity(rho), binegativity(rho).min_eigenvalue
            norm, psd = trace_norm(pt), is_psd(pt)
            spec, v = eig_hermitian(pt)
            monkeypatch.undo()
            assert seen and {dtype for _, _, dtype in seen} == {np.dtype(np.float64)}

            w, vc = complex_pt_eigh(rho)
            absolute = hermitian_part((vc * np.abs(w)) @ vc.conj().T)
            b = partial_transpose_entries(absolute, rho.shape)
            assert ln > 0.1 and abs(ln - math.log2(np.abs(w).sum())) <= 1e-12
            assert abs(lo - np.linalg.eigvalsh(hermitian_part(b)).min()) <= 1e-12
            assert abs(norm - np.abs(w).sum()) <= 1e-12
            assert not psd.ok and abs(psd.min_eigenvalue - w.min()) <= 1e-12
            assert np.abs(np.array(spec.eigenvalues) - w[::-1]).max() <= 1e-12
            rebuilt = (v * np.array(spec.eigenvalues)) @ v.conj().T
            assert np.abs(rebuilt - pt.entries).max() <= 1e-12

    def test_a_tiny_imaginary_pair_keeps_complex128(self, monkeypatch):
        # a local phase of 1e-12 rad on B: Hermitian, within every
        # tolerance of the real state, but not real, so it stays complex
        real = half_mixed(2).entries
        u = np.kron(np.eye(2), np.diag([1.0, np.exp(1e-12j)]))
        entries = u @ real @ u.conj().T
        assert 0 < np.abs(entries.imag).max() < 1e-12
        seen = spectral_calls(monkeypatch)
        rho = density_from_matrix(entries, bipartite_shape(2, 2))
        assert rho.entries.dtype == np.complex128 and np.array_equal(rho.entries, entries)
        log_negativity(rho), binegativity(rho)
        trace_norm(rho.op), is_psd(rho.op), eig_hermitian(rho.op)
        monkeypatch.undo()
        # five spectra, and the one Cholesky factorisation that accepts rho
        names = [name for name, _, _ in seen]
        assert len(seen) == 6 and names.count("cholesky") == 1
        assert {dtype for _, _, dtype in seen} == {np.dtype(np.complex128)}
        assert abs(log_negativity(rho) - log_negativity(half_mixed(2))) <= 1e-12

    def test_werner_makes_no_two_copy_decomposition(self, monkeypatch):
        # rho and mu of werner-example are closed forms in the
        # isotropic-copies algebra: no spectrum is computed at any d,
        # so none at n = d^4 (the dense path made 1 eigh + 2 eigvalsh there)
        seen = spectral_calls(monkeypatch)
        for d in range(2, 9):
            assert scenario_werner(d).passed
            assert seen == [], d


def nested_per_copy(m, c):
    """m on every axis of c, one (2,) slice pair and one output row at a time."""
    for axis in range(c.ndim):
        head = (slice(None),) * axis
        c0, c1 = c[head + (0,)], c[head + (1,)]
        out = np.empty(c.shape[:axis] + (len(m),) + c.shape[axis + 1:])
        for i, (u, v) in enumerate(m):
            out[head + (i,)] = u * c0 + v * c1
        c = out
    return c


# at d = 3: Gamma, its way back, the twirl's (Phi, 1) -> (Phi, 1 - Phi)
# map, and the 3-row map of the entry classes of a copy
PER_COPY_MAPS = {
    "gamma": ((1.0 / 3, 1.0 - 1.0 / 3), (-1.0 / 3, 1.0 + 1.0 / 3)),
    "back": ((0.5 * 4.0, 0.5 * -2.0), (0.5, 0.5)),
    "twirl": ((1.0, 0.0), (-1.0 / 8, 1.0 / 8)),
    "classes": ((1.0 / 3, 1.0 - 1.0 / 3), (1.0 / 3, -1.0 / 3), (0.0, 1.0)),
}


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)])))


class TestPerCopyKernel:
    """``_per_copy`` against the nested per-axis formula, bit for bit."""

    @staticmethod
    def inputs(rng, k):
        """Mixed signs over 40 decades, then -0.0 and subnormals in place, then all -0.0."""
        shape = (2,) * k
        drawn = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        special = drawn.copy()
        flat = special.reshape(-1)
        flat[0], flat[-1] = -0.0, 5e-324
        if k > 1:
            flat[1], flat[2] = -2.5e-310, 1e-308
        return [drawn, special, np.full(shape, -0.0)]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("name", PER_COPY_MAPS)
    def test_every_bit_of_the_nested_formula(self, name, k, rng):
        m = PER_COPY_MAPS[name]
        for c in self.inputs(rng, k):
            got, want = _per_copy(m, c), nested_per_copy(m, c)
            assert got.shape == (len(m),) * k and got.dtype == np.float64
            assert same_bits(got, want), (name, k)
        assert np.signbit(got).any()  # the all -0.0 input gives signed zeros

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", PER_COPY_MAPS)
    def test_nan_and_infinities_propagate_as_in_the_nested_formula(self, name, k, rng):
        m = PER_COPY_MAPS[name]
        for special in (math.nan, math.inf, -math.inf):
            c = rng.standard_normal((2,) * k)
            c.reshape(-1)[-1] = special
            with np.errstate(invalid="ignore"):
                got, want = _per_copy(m, c), nested_per_copy(m, c)
            assert same_bits(got, want), (name, k, special)
            assert not np.isfinite(got).all()

    def test_a_strided_input_is_read_by_value(self, rng):
        c = rng.standard_normal((2, 2, 2)).transpose(2, 0, 1)
        m = PER_COPY_MAPS["classes"]
        assert same_bits(_per_copy(m, c), nested_per_copy(m, c))


def off_werner_copies(d):
    """Two copies with coefficients proportional to [[0, 1], [1/2, 0]]: gate -1/72."""
    c = np.array([[0.0, 1.0], [0.5, 0.0]])
    ranks = np.multiply.outer([1.0, d * d - 1.0], [1.0, d * d - 1.0])
    return IsotropicCopies(d, c / (c * ranks).sum())


class TestIsotropicCopies:
    """The closed-form algebra against the dense path it replaces."""

    @staticmethod
    def pairs(d):
        rho = IsotropicCopies.isotropic(d, 0.5)
        mu = IsotropicCopies.symmetric_two_broadcast(IsotropicCopies.isotropic(d, 1.0),
                                                     IsotropicCopies.isotropic(d, 0.0))
        return rho, mu, half_mixed(d), broadcast_of_half_mixed(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_measures_match_the_dense_path(self, d):
        rho, mu, rho_dense, mu_dense = self.pairs(d)
        for state, dense in ((rho, rho_dense), (mu, mu_dense)):
            assert state.shape == dense.shape
            assert np.abs(state.to_density().entries - dense.entries).max() <= 1e-12
            assert abs(log_negativity(state) - log_negativity(dense)) <= 1e-12
            assert abs(binegativity(state).min_eigenvalue
                       - binegativity(dense).min_eigenvalue) <= 1e-12
        cert = catalytic_cost_upper_bound(rho, mu)
        dense_cert = catalytic_cost_upper_bound(rho_dense, mu_dense)
        assert cert.valid and dense_cert.valid
        assert abs(cert.gap - dense_cert.gap) <= 1e-12
        assert abs(cert.superadditivity_violation()
                   - dense_cert.superadditivity_violation()) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_copy_marginals_match_partial_trace(self, d):
        rho, mu, rho_dense, mu_dense = self.pairs(d)
        for i in range(2):
            marginal = mu.marginal({i})
            dense = partial_trace(mu_dense.op, {i})
            assert np.abs(marginal.to_density().entries - dense.entries).max() <= 1e-12
            assert marginal.trace_distance(rho) <= 1e-15
        assert np.array_equal(mu.marginal({0, 1}).coeffs, mu.coeffs)
        report = verify_broadcast(mu, rho, 2)
        dense_report = verify_broadcast(mu_dense, rho_dense, 2)
        assert report.is_broadcast and dense_report.is_broadcast
        assert max(report.residuals) <= 1e-12 and max(dense_report.residuals) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_distance_matches_dense(self, d):
        a = IsotropicCopies.isotropic(d, 0.5)
        b = IsotropicCopies.isotropic(d, 0.2)
        dense = trace_distance(a.to_density().op, b.to_density().op)
        assert abs(a.trace_distance(b) - dense) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_gate_is_undefined_on_both_types(self, d):
        state = off_werner_copies(d)
        for x in (state, state.to_density()):
            gate, cost = gated_ppt_cost(x)
            assert abs(gate.min_eigenvalue - (-1.0 / 72.0)) <= 1e-12
            assert not gate.positive
            assert cost.applicability is Applicability.UNDEFINED and math.isnan(cost.bits)

    def test_cache_is_read_only(self):
        state = IsotropicCopies.isotropic(2, 0.5)
        assert not state.coeffs.flags.writeable
        assert not state.partial_transpose_coeffs.flags.writeable

    @pytest.mark.parametrize("d, coeffs", [
        (1, [1.0, 0.0]),                      # local dimension below 2
        (2, [[1.0, 0.0, 0.0]]),               # not (2,) * k
        (2, [0.5, 0.5]),                      # trace 2
        (2, [1.3, -0.1]),                     # negative eigenvalue
        (2, [float("nan"), 0.0]),
    ])
    def test_invalid_coefficients_are_refused(self, d, coeffs):
        with pytest.raises(ValueError):
            IsotropicCopies(d, np.array(coeffs))

    @pytest.mark.parametrize("bad, message", [
        ([0.5, 0.5], "trace 2.0 is not 1"),
        ([1.3, -0.1], "min eigenvalue -1.000e-01"),
        ([float("nan"), 0.0], "trace nan"),
    ])
    def test_a_non_state_is_refused_with_its_message(self, bad, message):
        with pytest.raises(ValueError, match=message):
            IsotropicCopies(2, np.array(bad))

    def test_pairs_need_one_shape(self):
        one = IsotropicCopies.isotropic(2, 0.5)
        two = IsotropicCopies.symmetric_two_broadcast(one, one)
        assert one.trace_distance(IsotropicCopies.isotropic(2, 0.5)) == 0.0
        for other in (IsotropicCopies.isotropic(3, 0.5), two, one.to_density()):
            with pytest.raises(ValueError, match="one shape"):
                one.trace_distance(other)
        for other in (IsotropicCopies.isotropic(3, 0.5), two):
            with pytest.raises(ValueError, match="share a shape"):
                IsotropicCopies.symmetric_two_broadcast(one, other)

    def test_mixed_types_and_bad_marginals_are_refused(self):
        rho, mu, rho_dense, mu_dense = self.pairs(2)
        with pytest.raises(ValueError):
            verify_broadcast(mu, rho_dense, 2)
        with pytest.raises(ValueError):
            verify_broadcast(mu_dense, rho, 2)
        with pytest.raises(ValueError):
            mu.marginal({2})
        with pytest.raises(ValueError):
            mu.marginal(set())

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_twirl_fixes_the_algebra(self, d, k, rng):
        c = rng.random((2,) * k)
        ranks = functools.reduce(np.multiply.outer, [np.array([1.0, d * d - 1.0])] * k)
        state = IsotropicCopies(d, c / (c * ranks).sum())
        twirled = twirl_coefficients(d, state.to_density().entries)
        assert np.abs(twirled - state.coeffs).max() <= 1e-12

    @pytest.mark.parametrize("d, dim", [(1, 1), (2, 8), (2, 32), (3, 16)])
    def test_twirl_refuses_a_matrix_of_no_copy_count(self, d, dim):
        with pytest.raises(ValueError):
            twirl_coefficients(d, np.eye(dim) / dim)

    @pytest.mark.parametrize("shape", [(), (16,), (3, 16, 16), (1, 16, 16)])
    def test_twirl_refuses_anything_but_one_matrix(self, shape):
        with pytest.raises(ValueError, match="is not k copies"):
            twirl_coefficients(2, np.full(shape, 1.0 / 16))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_raw_coefficient_maps_match_the_dense_operator(self, d, k, rng):
        # coefficients of either sign and any trace: a search's iterates
        c = rng.standard_normal((2,) * k)
        dense = copies_matrix(d, c)
        dense_pt = partial_transpose_entries(dense, bipartite_shape(d, d).copies(k))
        spectrum = np.sort(np.linalg.eigvalsh(dense_pt))
        s = partial_transpose_spectrum(d, c)
        q = functools.reduce(np.multiply.outer, [np.array([d * (d + 1) / 2, d * (d - 1) / 2])] * k)
        expected = np.sort(np.repeat(s.ravel(), q.ravel().astype(int)))
        assert np.abs(spectrum - expected).max() <= 1e-12
        assert float((c * copy_ranks(d, k)).sum()) == pytest.approx(np.trace(dense), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_transpose_isometry_is_orthogonal(self, d, k, rng):
        gamma = partial_transpose_isometry(d, k)
        assert np.abs(gamma @ gamma.T - np.eye(2 ** k)).max() <= 1e-15
        c = rng.standard_normal((2,) * k)
        q = functools.reduce(np.multiply.outer, [np.array([d * (d + 1) / 2, d * (d - 1) / 2])] * k)
        weighted = gamma @ (np.sqrt(copy_ranks(d, k)) * c).ravel()
        expected = (np.sqrt(q) * partial_transpose_spectrum(d, c)).ravel()
        assert np.abs(weighted - expected).max() <= 1e-14 * np.abs(expected).max()


def haar_unitary(rng, n):
    """A Haar-random n x n unitary: the Q of a complex Ginibre matrix, R's phases divided out."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTwirlCoefficients:
    """The U x conj(U) twirl of ``twirl_coefficients`` against a dense oracle."""

    @staticmethod
    def projectors(d):
        # Phi = |v><v|, v = sum_i |ii> / sqrt(d), and 1 - Phi, written out
        v = np.zeros(d * d)
        v[:: d + 1] = 1.0 / math.sqrt(d)
        phi = np.outer(v, v)
        return phi, np.eye(d * d) - phi

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_form(self, d, k, rng):
        # one copy: f Phi + (1 - f)(1 - Phi)/(d^2 - 1), f = Tr(Phi x); on
        # two, each product P x Q of Phi and 1 - Phi keeps its mass
        # Tr((P x Q) x), spread evenly over its rank
        x = random_state_matrix(rng, d ** (2 * k))
        phi, rest = self.projectors(d)
        if k == 1:
            f = np.trace(phi @ x).real
            expected = f * phi + (1.0 - f) * rest / (d * d - 1)
        else:
            products = [np.kron(p, q) for p, q in itertools.product((phi, rest), repeat=2)]
            expected = sum(np.trace(pq @ x).real * pq / np.trace(pq) for pq in products)
        c = twirl_coefficients(d, x)
        assert c.shape == (2,) * k
        assert np.abs(copies_matrix(d, c) - expected).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_invariant_under_haar_random_u_x_conj_u(self, d, k, rng):
        x = random_state_matrix(rng, d ** (2 * k))
        unitaries = [haar_unitary(rng, d) for _ in range(k)]
        w = functools.reduce(np.kron, [np.kron(u, u.conj()) for u in unitaries])
        rotated = w @ x @ w.conj().T
        assert np.abs(rotated - x).max() > 1e-3
        assert np.abs(twirl_coefficients(d, rotated) - twirl_coefficients(d, x)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_idempotent(self, d, k, rng):
        c = twirl_coefficients(d, random_state_matrix(rng, d ** (2 * k)))
        assert np.abs(twirl_coefficients(d, copies_matrix(d, c)) - c).max() <= 1e-12

    def test_preserves_entangled_fraction(self, rng):
        # a product rotation changes Phi_2; the twirl keeps whatever
        # fraction the rotated state has
        phi, _ = self.projectors(2)
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = u @ phi @ u.conj().T
        twirled = copies_matrix(2, twirl_coefficients(2, rotated))
        assert abs(np.trace(phi @ twirled) - np.trace(phi @ rotated)) <= 1e-12

    def test_never_increases_dmax_to_isotropic_reference(self, rng):
        # data-processing sanity on sampled states with isotropic references
        ref = isotropic_at_fraction(2, 0.3)
        for _ in range(5):
            x = random_density(rng, 2, 2)
            twirled = density_from_matrix(copies_matrix(2, twirl_coefficients(2, x.entries)),
                                          x.shape)
            assert d_max(twirled, ref) <= d_max(x, ref) + 1e-9


class TestHugeDimensions:
    """A (d, k) whose ranks (d^2 - 1)^k overflow a float is refused with ValueError."""

    @pytest.mark.parametrize("build", [
        lambda: IsotropicCopies.isotropic(10 ** 160, 0.5),
        lambda: IsotropicCopies(10 ** 160, [1.0, 0.0]),
        lambda: IsotropicCopies(10 ** 80, [[1.0, 0.0], [0.0, 0.0]]),
        lambda: copy_ranks(10 ** 80, 2),
    ], ids=["isotropic", "one-copy", "two-copies", "copy-ranks"])
    def test_refused_before_float_arithmetic_on_d(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="is no finite float"):
                build()

    def test_a_huge_d_is_named_by_its_digit_count(self):
        with pytest.raises(ValueError, match="at d = <a 5001-digit integer> is no finite float"):
            IsotropicCopies.isotropic(10 ** 5000, 0.5)

    def test_largest_finite_ranks_are_accepted(self):
        one = IsotropicCopies.isotropic(10 ** 80, 0.5)
        assert one.coeffs[1] > 0.0 and abs(one.coeffs[0] - 0.5) <= 1e-15
        # (d^2 - 1)^2 = 1e304 at d = 10^76 is still a float
        assert np.isfinite(copy_ranks(10 ** 76, 2)).all()
