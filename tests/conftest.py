import numpy as np
import pytest

from catcost.operators import (
    LabeledOperator,
    FactorShape,
    bipartite_shape,
    density_from_matrix,
    hermitian_part,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def forbid_dense_operators(monkeypatch):
    """Fail at the first dense operator built: every dense state goes through LabeledOperator."""
    def refuse(self, shape, entries):
        raise AssertionError(f"a {shape.total_dim}-dimensional operator was built")
    monkeypatch.setattr(LabeledOperator, "__init__", refuse)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g)


def random_state_matrix(rng, dim, rank=None):
    cols = dim if rank is None else rank
    g = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
    m = g @ g.conj().T
    return m / np.trace(m).real


def matrix_with_spectrum(rng, lam, complex_=True):
    """U diag(lam) U^dagger for a random unitary (orthogonal unless ``complex_``) U."""
    n = len(lam)
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    return hermitian_part((u * np.asarray(lam)) @ u.conj().T)


def unit_trace_spectrum(rng, n, least):
    """n eigenvalues summing to one with least value ``least``, the others spread above it."""
    rest = rng.uniform(0.5, 1.5, n - 1)
    return np.concatenate([[least], rest * (1.0 - least) / rest.sum()])


def random_density(rng, d_a, d_b, rank=None):
    return density_from_matrix(random_state_matrix(rng, d_a * d_b, rank),
                               bipartite_shape(d_a, d_b))


def hermitian_operator(rng, factors):
    shape = FactorShape(tuple(factors))
    return LabeledOperator(shape, random_hermitian(rng, shape.total_dim))


def spectral_calls(monkeypatch):
    """Record (name, shape, dtype) of every ``eigh``/``eigvalsh``/``cholesky`` call from here on."""
    seen = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        original = getattr(np.linalg, name)

        def spy(m, *args, _name=name, _original=original, **kwargs):
            seen.append((_name, np.shape(m), np.asarray(m).dtype))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return seen
