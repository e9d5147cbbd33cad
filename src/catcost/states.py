"""Constructors for the named states used throughout the toolkit."""
from __future__ import annotations

import numpy as np

from .operators import (
    DensityOperator,
    _Frozen,
    bipartite_shape,
    density_from_matrix,
    plain_shape,
    tensor,
)


class IsotropicParams(_Frozen):
    """Mixing weight lam of the maximally entangled state with white noise."""

    def __init__(self, d: int, lam: float) -> None:
        if d < 2:
            raise ValueError("local dimension must be >= 2")
        if not 0.0 <= lam <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lam", lam)


def max_entangled_matrix(d: int) -> np.ndarray:
    """The entries of ``max_entangled(d)``, built as ``density_from_vector`` does, unvalidated."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(v, v) / float(np.vdot(v, v))


def max_entangled(d: int) -> DensityOperator:
    """Maximally entangled state sum_i |ii> / sqrt(d) on a single (d, d) factor."""
    return density_from_matrix(max_entangled_matrix(d), bipartite_shape(d, d))


def isotropic(params: IsotropicParams) -> DensityOperator:
    """lam * Phi_d + (1 - lam) * identity / d^2."""
    d = params.d
    m = params.lam * max_entangled_matrix(d) + (1.0 - params.lam) * np.eye(d * d) / (d * d)
    return density_from_matrix(m, bipartite_shape(d, d))


def symmetric_two_broadcast(s0: DensityOperator, s1: DensityOperator) -> DensityOperator:
    """(s0 x s1 + s1 x s0) / 2; both single-copy marginals equal (s0 + s1) / 2."""
    if s0.shape != s1.shape:
        raise ValueError("broadcast halves must share a shape")
    a = tensor(s0.op, s1.op)
    b = tensor(s1.op, s0.op)
    m = (a.entries + b.entries) / 2
    return density_from_matrix(m, a.shape)


def gibbs_qubit(p: float) -> DensityOperator:
    """Diagonal thermal qubit (1-p)|0><0| + p|1><1| on a plain factor, p in (0, 1/2)."""
    if not 0.0 < p < 0.5:
        raise ValueError("excited population must lie in (0, 1/2)")
    return density_from_matrix(np.diag([1.0 - p, p]), plain_shape(2))


def classical_mix(q: float, p: float) -> DensityOperator:
    """(1-q)|0><0| + q * gibbs_qubit(p), still diagonal."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixing weight q must lie in [0, 1]")
    gamma = gibbs_qubit(p)
    m = (1.0 - q) * np.diag([1.0, 0.0]) + q * gamma.entries
    return density_from_matrix(m, plain_shape(2))
