"""Operator-core behaviour, checked against independent dense-matrix oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcost.operators import (
    DEFAULT_PSD_TOL,
    MAX_ENTRIES,
    FactorShape,
    LabeledOperator,
    ResourceLimitError,
    abs_operator,
    bipartite_shape,
    check_entry_budget,
    check_power_budget,
    density_from_matrix,
    eig_hermitian,
    hermitian_part,
    is_psd,
    merge_factors,
    partial_trace,
    partial_transpose,
    partial_transpose_entries,
    permute_factors,
    plain_shape,
    relabel,
    require_pure,
    tensor,
    tensor_power,
    trace_distance,
    trace_norm,
)
from catcost.states import max_entangled, isotropic, IsotropicParams

from conftest import (
    hermitian_operator,
    matrix_with_spectrum,
    random_state_matrix,
    spectral_calls,
    unit_trace_spectrum,
)


def bell_pair():
    return max_entangled(2)


def half_mixed(d=2):
    return isotropic(IsotropicParams(d, 0.5))


def swap_matrix(d):
    # independent construction: SWAP |i,j> = |j,i>
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


class TestShapes:
    def test_total_dim(self):
        shape = FactorShape(((2, 2), (3, 1)))
        assert shape.total_dim == 12
        assert shape.factor_dims == (4, 3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            FactorShape(((0, 2),))
        with pytest.raises(ValueError):
            FactorShape(())

    def test_copies_refused_over_32_factors_before_the_tuple_is_formed(self):
        assert bipartite_shape(2, 2).copies(32).n_factors == 32
        assert FactorShape(((2, 2), (3, 1))).copies(16).n_factors == 32
        with pytest.raises(ResourceLimitError):
            FactorShape(((2, 2), (3, 1))).copies(17)
        with pytest.raises(ResourceLimitError):
            bipartite_shape(2, 2).copies(10 ** 9)

    def test_entries_must_match_shape(self):
        with pytest.raises(ValueError):
            LabeledOperator(bipartite_shape(2, 2), np.eye(3))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            density_from_matrix(np.eye(2), plain_shape(2))  # trace 2
        with pytest.raises(ValueError):
            density_from_matrix(np.diag([1.5, -0.5]), plain_shape(2))  # not PSD
        m = np.array([[0.5, 0.5j], [0.5j, 0.5]])
        with pytest.raises(ValueError):
            density_from_matrix(m, plain_shape(2))  # not Hermitian

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, bad):
        # every trace, Hermiticity and PSD comparison is False for NaN
        m = np.diag([1.0, 0.0, 0.0, 0.0])
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            density_from_matrix(m, bipartite_shape(2, 2))

    def test_equality_and_hash_are_identity(self):
        a, b = max_entangled(2), max_entangled(2)
        assert a == a and a != b
        assert a.op == a.op and a.op != b.op
        assert hash(a) == hash(a) and hash(a.op) == hash(a.op)
        assert len({a, b, a.op, b.op}) == 4


class TestEntryBudget:
    # a size is printed in digits up to the 4300 that Python prints of an
    # int, and named by its digit count past them
    @pytest.mark.parametrize("dim, size", [
        (257, "257"),
        (10 ** 200, "1" + "0" * 200),
        (10 ** 4400 - 1, "<a 4400-digit integer>"),
        (10 ** 4400, "<a 4401-digit integer>"),
    ], ids=["257", "10^200", "10^4400-1", "10^4400"])
    def test_a_size_is_named_in_digits_or_by_their_count(self, dim, size):
        with pytest.raises(ResourceLimitError) as exc:
            check_entry_budget(dim, "state")
        assert str(exc.value) == f"state needs {size}^2 entries, budget is {MAX_ENTRIES}"

    @pytest.mark.parametrize("base, n, times, size", [
        (4, 10 ** 6, 1, "(4^1000000)^2"),
        (2, 100, 3, "(3*2^100)^2"),
        (10 ** 4800, 1, 1, "<a 4801-digit integer>^2"),
        (10 ** 4800, 2, 1, "(<a 4801-digit integer>^2)^2"),
    ], ids=["4^10^6", "3*2^100", "10^4800", "(10^4800)^2"])
    def test_a_power_is_named_in_digits_or_by_their_count(self, base, n, times, size):
        with pytest.raises(ResourceLimitError) as exc:
            check_power_budget(base, n, "instance", times=times)
        assert str(exc.value) == f"instance needs {size} entries, budget is {MAX_ENTRIES}"


class TestTensor:
    def test_identity_case(self):
        eye2 = LabeledOperator(plain_shape(2), np.eye(2))
        out = tensor(eye2, eye2)
        assert np.allclose(out.entries, np.eye(4))
        assert out.shape.factors == ((2, 1), (2, 1))

    def test_trace_multiplies(self):
        phi = bell_pair()
        white = density_from_matrix(np.eye(4) / 4, bipartite_shape(2, 2))
        out = tensor(phi.op, white.op)
        assert out.dim == 16
        assert abs(out.trace() - 1.0) < 1e-12

    def test_rank_one_products_stay_rank_one(self, rng):
        # eigenvalue oracle on a 4-dim instance
        for _ in range(5):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p1 = np.outer(v, v.conj()) / np.vdot(v, v).real
            p2 = np.outer(w, w.conj()) / np.vdot(w, w).real
            prod = tensor(LabeledOperator(plain_shape(2), p1),
                          LabeledOperator(plain_shape(2), p2))
            eigs = np.linalg.eigvalsh(prod.entries)
            assert (eigs > 1e-12).sum() == 1

    def test_tensor_power_is_repeated_tensor(self):
        phi = bell_pair().op
        assert tensor_power(phi, 1) is phi
        cube = tensor_power(phi, 3)
        assert cube.shape == phi.shape.copies(3)
        assert np.array_equal(cube.entries, tensor(tensor(phi, phi), phi).entries)
        with pytest.raises(ValueError):
            tensor_power(phi, 0)

    def test_tensor_power_budget_checked_before_any_product(self, request):
        phi = bell_pair().op
        assert tensor_power(phi, 4).dim == 256  # exactly the budget
        request.getfixturevalue("forbid_dense_operators")
        for n in (5, 10**9):
            with pytest.raises(ResourceLimitError, match="tensor power"):
                tensor_power(phi, n)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        split = relabel(bell_pair().op, FactorShape(((2, 1), (1, 2))))
        marginal = partial_trace(split, keep={0})
        assert np.allclose(marginal.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self, rng):
        a = random_state_matrix(rng, 3)
        b = random_state_matrix(rng, 4)
        prod = LabeledOperator(FactorShape(((3, 1), (4, 1))), np.kron(a, b))
        assert np.allclose(partial_trace(prod, {0}).entries, a, atol=1e-12)
        assert np.allclose(partial_trace(prod, {1}).entries, b, atol=1e-12)

    def test_symmetric_broadcast_marginal(self):
        # marginal of the correlated broadcast is the even mixture
        phi = bell_pair()
        white = np.eye(4) / 4
        mu = (np.kron(phi.entries, white) + np.kron(white, phi.entries)) / 2
        op = LabeledOperator(FactorShape(((2, 2), (2, 2))), mu)
        expected = (phi.entries + white) / 2
        for keep in ({0}, {1}):
            assert np.allclose(partial_trace(op, keep).entries, expected, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair().op, set())

    def test_trace_preserved_and_linear(self, rng):
        x = hermitian_operator(rng, [(2, 2), (3, 1)])
        y = hermitian_operator(rng, [(2, 2), (3, 1)])
        for keep in ({0}, {1}, {0, 1}):
            px = partial_trace(x, keep)
            assert abs(px.trace() - x.trace()) < 1e-10
            mix = partial_trace(0.3 * x + 0.7 * y, keep)
            assert np.allclose(mix.entries,
                               0.3 * px.entries + 0.7 * partial_trace(y, keep).entries,
                               atol=1e-12)


class TestPartialTranspose:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        x = hermitian_operator(rng, [(2, 2), (2, 1)])
        twice = partial_transpose(partial_transpose(x))
        assert np.abs(twice.entries - x.entries).max() <= 1e-12

    def test_product_across_cut_stays_psd(self, rng):
        a = random_state_matrix(rng, 2)
        b = random_state_matrix(rng, 3)
        sep = LabeledOperator(bipartite_shape(2, 3), np.kron(a, b))
        pt = partial_transpose(sep)
        assert np.allclose(pt.entries, np.kron(a, b.T), atol=1e-12)
        assert is_psd(pt).ok

    @pytest.mark.parametrize("d", [2, 3])
    def test_max_entangled_pt_spectrum(self, d):
        # oracle: Phi_d^Gamma equals SWAP / d entrywise
        pt = partial_transpose(max_entangled(d).op)
        assert np.allclose(pt.entries, swap_matrix(d) / d, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(pt.entries))
        n_neg = d * (d - 1) // 2
        assert np.allclose(eigs[:n_neg], -1.0 / d, atol=1e-12)
        assert np.allclose(eigs[n_neg:], 1.0 / d, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self, rng):
        x = hermitian_operator(rng, [(2, 3)])
        pt = partial_transpose(x)
        assert abs(pt.trace() - x.trace()) < 1e-12
        assert pt.hermiticity_defect() < 1e-12

    def test_entries_form_keeps_dtype(self, rng):
        x = hermitian_operator(rng, [(2, 2), (3, 1), (1, 2)])
        assert np.array_equal(partial_transpose_entries(x.entries, x.shape),
                              partial_transpose(x).entries)
        real = x.entries.real.copy()
        pt = partial_transpose_entries(real, x.shape)
        assert pt.dtype == np.float64
        assert np.array_equal(pt, partial_transpose(LabeledOperator(x.shape, real)).entries.real)


class TestEigHermitian:
    def test_diagonal(self):
        x = LabeledOperator(plain_shape(3), np.diag([1.0, 3.0, 2.0]))
        spec, _ = eig_hermitian(x)
        assert spec.eigenvalues == (3.0, 2.0, 1.0)

    def test_pure_state_spectrum(self):
        spec, _ = eig_hermitian(bell_pair().op)
        assert np.allclose(spec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_half_mixed_pt_spectrum(self):
        # hand computation: eigenvalues (1 +- d) / (2 d^2) + ... at d=2: {3/8 x3, -1/8}
        pt = partial_transpose(half_mixed().op)
        spec, _ = eig_hermitian(pt)
        assert np.allclose(spec.eigenvalues, [3 / 8, 3 / 8, 3 / 8, -1 / 8], atol=1e-12)

    def test_reconstruction(self, rng):
        x = hermitian_operator(rng, [(3, 2)])
        spec, v = eig_hermitian(x)
        rebuilt = (v * np.array(spec.eigenvalues)) @ v.conj().T
        scale = np.abs(x.entries).max()
        assert np.abs(rebuilt - x.entries).max() <= 1e-9 * scale
        assert np.abs(v.conj().T @ v - np.eye(x.dim)).max() <= 1e-9

    def test_non_hermitian_rejected(self):
        x = LabeledOperator(plain_shape(2), np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            eig_hermitian(x)

    def test_density_spectrum_sums_to_one(self, rng):
        rho = density_from_matrix(random_state_matrix(rng, 6), bipartite_shape(2, 3))
        spec, _ = eig_hermitian(rho.op)
        assert len(spec.eigenvalues) == 6
        assert abs(sum(spec.eigenvalues) - 1.0) <= 1e-10


class TestAbsAndTraceNorm:
    def test_psd_fixed_point(self, rng):
        m = random_state_matrix(rng, 4)
        x = LabeledOperator(bipartite_shape(2, 2), m)
        assert np.abs(abs_operator(x).entries - m).max() <= 1e-10

    def test_abs_of_bell_pt(self):
        pt = partial_transpose(bell_pair().op)
        assert np.allclose(abs_operator(pt).entries, np.eye(4) / 2, atol=1e-12)

    def test_trace_norm_matches_abs(self, rng):
        x = hermitian_operator(rng, [(2, 2)])
        assert abs(trace_norm(x) - abs_operator(x).trace().real) <= 1e-10

    def test_density_trace_norm_is_one(self, rng):
        rho = density_from_matrix(random_state_matrix(rng, 6), bipartite_shape(2, 3))
        assert abs(trace_norm(rho.op) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d,expected", [(2, 5 / 4), (3, 5 / 3)])
    def test_half_mixed_pt_trace_norm(self, d, expected):
        # (d^2 + 1) / (2 d) from the eigenvalue oracle
        pt = partial_transpose(half_mixed(d).op)
        assert abs(trace_norm(pt) - expected) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled_pt_trace_norm(self, d):
        assert abs(trace_norm(partial_transpose(max_entangled(d).op)) - d) <= 1e-12


class TestPermuteFactors:
    def test_identity(self, rng):
        x = hermitian_operator(rng, [(2, 1), (3, 1)])
        assert np.allclose(permute_factors(x, [0, 1]).entries, x.entries)

    def test_swap_product(self, rng):
        a = random_state_matrix(rng, 2)
        b = random_state_matrix(rng, 3)
        prod = LabeledOperator(FactorShape(((2, 1), (3, 1))), np.kron(a, b))
        swapped = permute_factors(prod, [1, 0])
        assert swapped.shape.factors == ((3, 1), (2, 1))
        assert np.allclose(swapped.entries, np.kron(b, a), atol=1e-12)

    def test_swap_twice_is_identity(self, rng):
        x = hermitian_operator(rng, [(2, 2), (2, 1)])
        back = permute_factors(permute_factors(x, [1, 0]), [1, 0])
        assert np.abs(back.entries - x.entries).max() <= 1e-12

    def test_spectrum_invariant(self, rng):
        x = hermitian_operator(rng, [(2, 1), (2, 2), (3, 1)])
        before = np.sort(np.linalg.eigvalsh(x.entries))
        after = np.sort(np.linalg.eigvalsh(permute_factors(x, [2, 0, 1]).entries))
        assert np.abs(before - after).max() <= 1e-10

    def test_commutes_with_partial_trace(self, rng):
        x = hermitian_operator(rng, [(2, 1), (3, 1), (2, 1)])
        lhs = partial_trace(permute_factors(x, [2, 0, 1]), {0, 1})
        rhs = permute_factors(partial_trace(x, {0, 2}), [1, 0])
        assert np.abs(lhs.entries - rhs.entries).max() <= 1e-12

    def test_rejects_non_permutation(self, rng):
        x = hermitian_operator(rng, [(2, 1), (3, 1)])
        with pytest.raises(ValueError):
            permute_factors(x, [0, 0])


class TestDensityAcceptance:
    """The Cholesky acceptance returns the verdicts of the spectral rule it replaces."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 16, 81, 256])
    @pytest.mark.parametrize("least", [-2.0, -1.001, -0.999, -0.75, -0.501, -0.499, 0.0, None],
                             ids=lambda x: "definite" if x is None else f"{x}eps")
    def test_verdict_and_message_match_the_least_eigenvalue_rule(self, least, n, complex_,
                                                                  rng, monkeypatch):
        if least == 0.0:  # pure
            lam = np.eye(n)[0]
        elif least is None:  # definite: least eigenvalue 0.1 at n = 2, 0.2/n at every n
            lam = unit_trace_spectrum(rng, n, 0.2 / n)
        else:  # least times eps, eps = DEFAULT_PSD_TOL at unit trace
            lam = unit_trace_spectrum(rng, n, least * DEFAULT_PSD_TOL)
        m = matrix_with_spectrum(rng, lam, complex_)
        assert (m.dtype.kind == "c") == complex_
        # the spectral rule: least eigenvalue of the Hermitian part
        # against -DEFAULT_PSD_TOL times the trace
        lo = float(np.linalg.eigvalsh(hermitian_part(m)).min())
        refused = lo < -DEFAULT_PSD_TOL * abs(np.trace(m))
        assert refused == (least is not None and least < -1.0)
        seen = spectral_calls(monkeypatch)
        if refused:
            with pytest.raises(ValueError) as info:
                density_from_matrix(m, plain_shape(n))
            assert str(info.value) == f"not positive semidefinite: min eigenvalue {lo:.3e}"
        else:
            density_from_matrix(m, plain_shape(n))
        monkeypatch.undo()
        names = [name for name, _, _ in seen]
        assert names.count("cholesky") == 1
        # the factorisation fails well inside its eps/2 margin and succeeds
        # on every state at least 0: only then is no spectrum computed
        if least is not None and least <= -0.75:
            assert names.count("eigvalsh") == 1
        elif least is None or least >= 0.0:
            assert names.count("eigvalsh") == 0


class TestIsPsd:
    def test_maximally_mixed(self):
        assert is_psd(LabeledOperator(plain_shape(3), np.eye(3)) * (1 / 3)).ok

    def test_bell_pt_witness(self):
        report = is_psd(partial_transpose(bell_pair().op))
        assert not report.ok
        assert abs(report.min_eigenvalue + 0.5) <= 1e-12

    def test_mixture_of_states(self):
        assert is_psd(half_mixed().op).ok


class TestSpectralDtype:
    """Spectra run in the dtype LabeledOperator stored, decided at construction."""

    def test_complex_input_with_no_imaginary_part_is_stored_float64(self):
        m = bell_pair().entries.astype(np.complex128)
        real = LabeledOperator(bell_pair().shape, m).entries
        assert real.dtype == np.float64 and not np.shares_memory(real, m)
        assert np.array_equal(real, m.real)

    def test_any_imaginary_entry_keeps_the_input(self):
        m = bell_pair().entries.astype(np.complex128)
        m[0, 3] += 1e-300j
        x = LabeledOperator(bell_pair().shape, m).entries
        assert x.dtype == np.complex128 and np.array_equal(x, m)
        x = np.eye(2)
        assert LabeledOperator(plain_shape(2), x).entries.dtype == np.float64

    @pytest.mark.parametrize("off", [0.25, 0.25j])
    def test_a_write_to_the_callers_array_does_not_reach_the_entries(self, off):
        m = np.array([[0.5, off], [np.conj(off), 0.5]])
        x = LabeledOperator(plain_shape(2), m)
        assert x.entries.dtype == m.dtype and not x.entries.flags.writeable
        m[0, 1] = 7.0
        assert x.entries[0, 1] == off

    def test_require_pure(self):
        require_pure(bell_pair())
        with pytest.raises(ValueError, match="^state is not pure: largest eigenvalue"):
            require_pure(half_mixed())


class TestRegrouping:
    def test_merge_two_bipartite_factors(self):
        phi2, phi3 = max_entangled(2), max_entangled(3)
        merged = merge_factors(tensor(phi2.op, phi3.op))
        assert merged.shape.factors == ((6, 6),)
        # merged state is the maximally entangled state of dimension 6
        assert np.abs(merged.entries - max_entangled(6).entries).max() <= 1e-12

    def test_relabel_requires_layout_match(self):
        x = bell_pair().op
        split = relabel(x, FactorShape(((2, 1), (1, 2))))
        assert split.shape.factors == ((2, 1), (1, 2))
        with pytest.raises(ValueError):
            relabel(x, FactorShape(((4, 1),)))

    def test_trace_distance_zero_on_equal(self):
        assert trace_distance(bell_pair().op, bell_pair().op) == 0.0


class TestSeparablePtProperty:
    def test_random_separable_mixtures_stay_ppt(self, rng):
        # convex mixtures of products have PSD partial transpose
        for _ in range(20):
            m = np.zeros((6, 6), dtype=complex)
            for _ in range(4):
                a = random_state_matrix(rng, 2, rank=1)
                b = random_state_matrix(rng, 3, rank=1)
                m += rng.random() * np.kron(a, b)
            m /= np.trace(m).real
            sep = LabeledOperator(bipartite_shape(2, 3), m)
            assert is_psd(partial_transpose(sep)).ok
