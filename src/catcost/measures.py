"""Scalar resource measures: logarithmic negativity, exact PPT cost with its
binegativity gate, max-relative entropy, Schmidt rank, and semiclassical
work cost.

The PPT measures take a dense ``DensityOperator`` or an ``IsotropicCopies``
state, which gives the same partial-transpose quantities in closed form.
The algebra's maps are also module functions on raw coefficient arrays
(``copy_ranks``, ``partial_transpose_spectrum``, ``partial_transpose_isometry``,
``copies_matrix``): the twirled search's iterates have any sign and trace,
and ``IsotropicCopies`` validates a state.  ``twirl_coefficients`` maps one
dense matrix into the algebra.
"""
from __future__ import annotations

import enum
import functools
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operators import (
    DEFAULT_PSD_TOL,
    DEFAULT_TRACE_TOL,
    DensityOperator,
    FactorShape,
    LabeledOperator,
    _Frozen,
    _int_text,
    bipartite_shape,
    density_from_matrix,
    hermitian_spectrum,
    partial_trace,
    relabel,
    require_pure,
    trace_distance,
)
from .states import IsotropicParams, max_entangled_matrix

# the bounds of d_max's support test (which makes infinite divergences
# decidable), the isotropic symmetry test, the PPT boundary f <= 1/d of
# d_max_to_ppt_isotropic, the Schmidt rank and diagonality
SUPPORT_TOL = 1e-11
SYMMETRY_TOL = 1e-10
PPT_BOUNDARY_TOL = 1e-12
SCHMIDT_TOL = 1e-9
DIAGONAL_TOL = 1e-10


class Applicability(enum.Enum):
    EXACT_FORMULA = "exact-formula"
    UPPER_BOUND_ONLY = "upper-bound-only"
    UNDEFINED = "undefined"


class CostValue(_Frozen):
    """A cost in bits together with the scope of the formula that produced it.

    == and hash compare (bits, applicability).
    """

    def __init__(self, bits: float, applicability: Applicability) -> None:
        if math.isfinite(bits) and applicability is Applicability.UNDEFINED:
            raise ValueError("a finite cost cannot have undefined applicability")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "applicability", applicability)

    def __eq__(self, other) -> bool:
        if type(other) is not CostValue:
            return NotImplemented
        return (self.bits, self.applicability) == (other.bits, other.applicability)

    def __hash__(self) -> int:
        return hash((self.bits, self.applicability))

    def __repr__(self) -> str:
        return f"CostValue(bits={self.bits!r}, applicability={self.applicability!r})"


class BinegativityReport(NamedTuple):
    min_eigenvalue: float
    positive: bool
    tol: float


def log_negativity(rho: DensityOperator | IsotropicCopies) -> float:
    """log2 of the trace norm of the partial transpose; zero on PPT states."""
    return max(0.0, math.log2(rho.partial_transpose_trace_norm))


def binegativity(rho: DensityOperator | IsotropicCopies) -> BinegativityReport:
    """Min eigenvalue of the twice partially transposed absolute value, a PSD test."""
    lo, tol = rho.binegativity_min_eigenvalue, DEFAULT_PSD_TOL
    return BinegativityReport(min_eigenvalue=lo, positive=lo >= -tol, tol=tol)


def gated_ppt_cost(rho: DensityOperator | IsotropicCopies) -> tuple[BinegativityReport, CostValue]:
    """Binegativity gate together with the exact PPT cost it scopes.

    The cost equals the logarithmic negativity whenever the gate passes;
    outside that regime no formula is claimed and the cost is reported
    as undefined.
    """
    gate = binegativity(rho)
    if gate.positive:
        return gate, CostValue(log_negativity(rho), Applicability.EXACT_FORMULA)
    return gate, CostValue(math.nan, Applicability.UNDEFINED)


def d_max(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Max-relative entropy log2 inf{s : rho <= s * sigma}.

    Returns +inf when the support of rho leaks outside the support of
    sigma by more than SUPPORT_TOL.
    """
    if rho.shape != sigma.shape:
        raise ValueError("states must share a shape")
    w, v = hermitian_spectrum(sigma.entries, vectors=True)
    inside = w > SUPPORT_TOL
    if not inside.all():
        v_out = v[:, ~inside]
        leak = float(np.einsum("ij,jk,ki->", v_out.conj().T, rho.entries, v_out).real)
        if leak > SUPPORT_TOL:
            return math.inf
    v_in = v[:, inside]
    core = (v_in / np.sqrt(w[inside])).conj().T @ rho.entries @ (v_in / np.sqrt(w[inside]))
    top = float(hermitian_spectrum(core).max())
    return math.log2(max(top, 1e-300))


def d_max_to_ppt_isotropic(rho: DensityOperator | IsotropicCopies) -> float:
    """Max-relative entropy to the PPT set for isotropic-symmetric states.

    Twirling reduces the feasible set to the isotropic PPT segment with
    entangled fraction g in (0, 1/d] (Vollbrecht-Werner).  An isotropic
    rho_f commutes with every sigma_g, so D_max = log2 max(f/g, (1-f)/(1-g)),
    whose minimum over the segment is max(0, log2(d f)).

    f is the Phi coefficient c0 of one isotropic copy, since Phi has rank
    1; more copies are refused.  One copy of ``IsotropicCopies`` is
    isotropic by construction.  A dense rho is read through its twirl
    coefficients (``twirl_coefficients``), and must lie within
    SYMMETRY_TOL of the state they weigh.
    """
    if isinstance(rho, IsotropicCopies):
        d, c = rho.d, rho.coeffs
    else:
        d = rho.shape.factors[0][0]
        c = twirl_coefficients(d, rho.entries)
        if trace_distance(rho.op, LabeledOperator(rho.shape, copies_matrix(d, c))) > SYMMETRY_TOL:
            raise ValueError("state is not isotropic-symmetric within tolerance")
    if c.ndim != 1:
        raise ValueError(f"expected one isotropic copy, got {c.ndim}")
    f = float(c[0])
    if f <= 1.0 / d + PPT_BOUNDARY_TOL:
        return 0.0
    return math.log2(d * f)


def _per_copy(m, c: np.ndarray) -> np.ndarray:
    """Apply the matrix m, one (2,) row (u, v) per output index, to every axis of c.

    Axis by axis from the first, each output row is u * c0 + v * c1 of
    the axis's two slices.  A round reads the next axis, always the first,
    as c's two halves, forms c0 * u and c1 * v for every row in one
    broadcast product and adds them, which puts the new axis last: after
    k rounds the axes are back in order.  These are the products and sums
    of a slice-at-a-time loop, in the same order, in five numpy calls a
    round.  Elementwise arithmetic, no BLAS call: the result does not
    depend on the BLAS configuration.
    """
    w = np.array(m, dtype=np.float64).T[:, None, :]  # (2, 1, rows): u and v
    k = c.ndim
    for _ in range(k):
        p = c.reshape(2, -1, 1) * w
        c = p[0] + p[1]
    return c.reshape((len(m),) * k)


# Per copy of a (d, d) system: the ranks of Phi and 1 - Phi, and the map
# of rho's (Phi, 1 - Phi) coefficients to rho^Gamma's (P_sym, P_anti)
# ones, whose ranks are d(d+1)/2 and d(d-1)/2.
def _ranks(d: int) -> tuple[float, float]:
    return 1.0, d * d - 1.0


def _partial_transpose_ranks(d: int) -> tuple[float, float]:
    return d * (d + 1) / 2.0, d * (d - 1) / 2.0


def _partial_transpose_map(d: int):
    return (1.0 / d, 1.0 - 1.0 / d), (-1.0 / d, 1.0 + 1.0 / d)


def _outer_power(w: tuple[float, float], k: int) -> np.ndarray:
    """The (2,) * k outer product of the per-copy weights w."""
    return functools.reduce(np.multiply.outer, [np.array(w)] * k)


def _kron_power(m: np.ndarray, k: int) -> np.ndarray:
    """m (x) ... (x) m, k >= 1 factors: ``np.kron``'s products, in its order, without its wrapper."""
    out = m
    for _ in range(k - 1):
        out = (out[:, None, :, None] * m[:, None, :]).reshape(len(out) * len(m), -1)
    return out


def _require_float_ranks(d: int, k: int) -> None:
    """Refuse a (d, k) whose largest rank (d^2 - 1)^k is no finite float.

    Read before any other float arithmetic on d, and formed as
    ``copy_ranks`` forms it, one factor at a time.
    """
    try:
        rank = _ranks(d)[1]
    except OverflowError:  # d * d has no float
        rank = math.inf
    if not math.isfinite(math.prod([rank] * k)):
        raise ValueError(f"largest rank (d^2 - 1)^{k} at d = {_int_text(d)} is no finite float")


@functools.lru_cache(maxsize=128)
def copy_ranks(d: int, k: int) -> np.ndarray:
    """The (2,) * k ranks of the projectors that ``IsotropicCopies`` coefficients weigh.

    Read-only and built once per (d, k): every state check and trace
    distance reads them.  A (d, k) whose ranks overflow a float is refused.
    """
    _require_float_ranks(d, k)
    ranks = _outer_power(_ranks(d), k)
    ranks.setflags(write=False)
    return ranks


def partial_transpose_spectrum(d: int, c: np.ndarray) -> np.ndarray:
    """The (P_sym, P_anti)^(x k) coefficients of rho^Gamma from rho's (2,) * k ones."""
    return _per_copy(_partial_transpose_map(d), c)


def partial_transpose_isometry(d: int, k: int) -> np.ndarray:
    """Gamma on k copies as an orthogonal 2^k x 2^k matrix, in sqrt(rank)-weighted coordinates.

    Row-major over the (2,) * k coefficients: it sends y = sqrt(r) c to
    sqrt(q) s, with s = ``partial_transpose_spectrum(d, c)`` and q the
    P_sym/P_anti ranks.  Gamma permutes entries, so it keeps the
    Hilbert-Schmidt norm, which these coordinates make Euclidean.
    """
    per_copy = (np.sqrt(_partial_transpose_ranks(d))[:, None]
                * np.array(_partial_transpose_map(d)) / np.sqrt(_ranks(d)))
    return _kron_power(per_copy, k)


def copies_matrix(d: int, c: np.ndarray) -> np.ndarray:
    """The dense d^(2k) x d^(2k) operator with (2,) * k coefficients c, unvalidated."""
    phi = max_entangled_matrix(d)
    basis = (phi, np.eye(d * d) - phi)
    return sum(v * functools.reduce(np.kron, [basis[i] for i in idx])
               for idx, v in np.ndenumerate(c))


def twirl_coefficients(d: int, x: np.ndarray) -> np.ndarray:
    """The U x conj(U) twirl, on every copy, of a dense k-copy matrix.

    Contracting each copy with Phi and with the identity gives the
    traces Tr x (A_1 x ... x A_k), A_j in {Phi, 1}: for k = 2,
    Tr x (Phi x Phi), Tr x (Phi x 1), Tr x (1 x Phi) and Tr x.  Per copy,
    (Phi, 1) -> (Phi, 1 - Phi) turns them into the masses of the
    projectors, and dividing by the ranks (1, d^2 - 1) into their
    (2,) * k coefficients.  One ``einsum`` and elementwise arithmetic, no
    BLAS call.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    n = d * d
    x = np.asarray(x)
    k = max(1, round(math.log(max(x.shape[-1], 1), n))) if x.ndim == 2 else 1
    if x.shape != (n ** k, n ** k):
        raise ValueError(f"matrix of shape {x.shape} is not k copies of a ({d}, {d}) system")
    diagonal = np.eye(d).ravel()  # sqrt(d) times the vector of Phi
    pair = np.stack([np.outer(diagonal, diagonal) / d, np.eye(n)])
    operands = [x.reshape((n,) * (2 * k)), list(range(2 * k))]
    for j in range(k):
        operands += [pair, [2 * k + j, j, k + j]]
    traces = np.einsum(*operands, list(range(2 * k, 3 * k))).real
    return _per_copy(((1.0, 0.0), (-1.0 / (n - 1), 1.0 / (n - 1))), traces)


# == and hash are by identity: a field-wise == would compare the
# coefficient arrays and raise
class IsotropicCopies(_Frozen):
    """A state of k copies of a (d, d) system in span{Phi, 1 - Phi}^(x k).

    ``coeffs`` has shape (2,) * k; entry (i_1, ..., i_k) weighs the tensor
    product over copies of Phi (i_j = 0) or 1 - Phi (i_j = 1).  These
    products are orthogonal projectors of rank prod_j (1, d^2 - 1)[i_j],
    so ``coeffs`` is the spectrum.  Isotropic states and their symmetric
    broadcasts lie in this commutative algebra (the U x conj(U) twirl
    commutant of Vollbrecht-Werner, PRA 64, 062307).

    The partial transpose of each copy maps it onto span{P_sym, P_anti},
    since Phi^Gamma = F / d: (c0, c1) goes to
    (c0/d + c1 (1 - 1/d), -c0/d + c1 (1 + 1/d)), with ranks
    (d(d+1)/2, d(d-1)/2), and (s, a) goes back to
    ((1+d)/2 s + (1-d)/2 a, (s + a)/2).  So E_N, the binegativity gate,
    copy marginals and trace distances are closed forms in 2^k numbers,
    and no eigendecomposition is made.  ``to_density`` builds the dense
    state, for checks against the dense path.

    Validated as ``DensityOperator`` is: trace within ``DEFAULT_TRACE_TOL``
    of one and least coefficient >= -``DEFAULT_PSD_TOL``.
    """

    def __init__(self, d: int, coeffs: np.ndarray) -> None:
        if d < 2:
            raise ValueError("local dimension must be >= 2")
        c = np.array(coeffs, dtype=np.float64)
        if c.ndim < 1 or c.shape != (2,) * c.ndim:
            raise ValueError(f"coefficients have shape {c.shape}, expected (2,) * k")
        c.setflags(write=False)
        tr = float(np.add.reduce(c * copy_ranks(d, c.ndim), axis=None))
        if not abs(tr - 1.0) <= DEFAULT_TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {DEFAULT_TRACE_TOL:.1e}")
        least = np.minimum.reduce(c, axis=None)
        if least < -DEFAULT_PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {least:.3e}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def isotropic(cls, d: int, lam: float) -> IsotropicCopies:
        """One copy of lam * Phi_d + (1 - lam) * identity / d^2 (``states.isotropic``)."""
        IsotropicParams(d, lam)  # validates d and lam
        _require_float_ranks(d, 1)
        white = (1.0 - lam) / (d * d)
        return cls(d, [lam + white, white])

    @classmethod
    def symmetric_two_broadcast(cls, s0: IsotropicCopies,
                                s1: IsotropicCopies) -> IsotropicCopies:
        """(s0 x s1 + s1 x s0) / 2 (``states.symmetric_two_broadcast``)."""
        if (s0.d, s0.coeffs.ndim) != (s1.d, s1.coeffs.ndim):  # (d, k) fixes the shape
            raise ValueError("broadcast halves must share a shape")
        # s1 x s0 is s0 x s1 with the two halves' axes swapped: the same products
        k = s0.coeffs.ndim
        p = np.multiply.outer(s0.coeffs, s1.coeffs)
        return cls(s0.d, (p + p.transpose([*range(k, 2 * k), *range(k)])) / 2)

    @cached_property
    def shape(self) -> FactorShape:
        """One (d, d) factor per copy, as the dense state has; built on first read."""
        return bipartite_shape(self.d, self.d).copies(self.coeffs.ndim)

    @cached_property
    def partial_transpose_coeffs(self) -> np.ndarray:
        """Spectrum of rho^Gamma on span{P_sym, P_anti}^(x k), read-only."""
        s = partial_transpose_spectrum(self.d, self.coeffs)
        s.setflags(write=False)
        return s

    @cached_property
    def partial_transpose_trace_norm(self) -> float:
        """Trace norm of rho^Gamma: sum of |s| times the P_sym/P_anti ranks."""
        ranks = _outer_power(_partial_transpose_ranks(self.d), self.coeffs.ndim)
        return float(np.add.reduce(np.abs(self.partial_transpose_coeffs) * ranks, axis=None))

    @cached_property
    def binegativity_min_eigenvalue(self) -> float:
        """Least coefficient of |rho^Gamma|^Gamma, back on span{Phi, 1 - Phi}^(x k)."""
        d = self.d
        back = ((0.5 * (1.0 + d), 0.5 * (1.0 - d)), (0.5, 0.5))
        return float(np.minimum.reduce(_per_copy(back, np.abs(self.partial_transpose_coeffs)),
                                       axis=None))

    def marginal(self, keep) -> IsotropicCopies:
        """Trace out every copy not in ``keep``, as ``operators.partial_trace``.

        Each copy is one factor, so ``keep`` lists copies; tracing one out
        contracts its axis with the traces (1, d^2 - 1).
        """
        keep = set(int(i) for i in keep)
        k = self.coeffs.ndim
        if not keep or not keep <= set(range(k)):
            raise ValueError(f"keep indices {sorted(keep)} out of range for {k} copies")
        c = self.coeffs
        for axis in reversed(range(k)):
            if axis not in keep:
                head = (slice(None),) * axis
                c = c[head + (0,)] + (self.d ** 2 - 1) * c[head + (1,)]
        return IsotropicCopies(self.d, c)

    def trace_distance(self, other: IsotropicCopies) -> float:
        """Half the sum of |coefficient differences| times their ranks."""
        # (d, k) fixes the shape: one (d, d) factor per copy
        if (not isinstance(other, IsotropicCopies)
                or (other.d, other.coeffs.ndim) != (self.d, self.coeffs.ndim)):
            raise ValueError("trace distance needs two IsotropicCopies of one shape")
        ranks = copy_ranks(self.d, self.coeffs.ndim)
        return 0.5 * float(np.add.reduce(np.abs(self.coeffs - other.coeffs) * ranks, axis=None))

    def to_density(self) -> DensityOperator:
        """The dense state, with d^(2k) x d^(2k) entries."""
        return density_from_matrix(copies_matrix(self.d, self.coeffs), self.shape)


def _pure_state_marginal(psi: DensityOperator) -> np.ndarray:
    if psi.shape.n_factors != 1:
        raise ValueError("expected a single bipartite factor; merge factors first")
    require_pure(psi)
    (da, db), = psi.shape.factors
    split = relabel(psi.op, FactorShape(((da, 1), (1, db))))
    marginal = partial_trace(split, keep={0})
    return hermitian_spectrum(marginal.entries)


def schmidt_rank(psi: DensityOperator) -> int:
    """Number of marginal eigenvalues above SCHMIDT_TOL for a bipartite pure state."""
    return int((_pure_state_marginal(psi) > SCHMIDT_TOL).sum())


def exact_locc_cost_pure(psi: DensityOperator) -> float:
    """log2 of the Schmidt rank: the exact LOCC preparation cost of a pure state."""
    return math.log2(schmidt_rank(psi))


def work_cost_semiclassical(rho: DensityOperator, gamma: DensityOperator) -> float:
    """Exact work cost D_max(rho || gamma) for commuting (diagonal) states."""
    if rho.shape != gamma.shape:
        raise ValueError("states must share a shape")
    for name, s in (("state", rho), ("reference", gamma)):
        off = s.entries - np.diag(np.diag(s.entries))
        if np.abs(off).max() > DIAGONAL_TOL:
            raise ValueError(f"{name} is not diagonal in the supplied basis")
    p = np.diag(rho.entries).real
    g = np.diag(gamma.entries).real
    outside = g <= SUPPORT_TOL
    if outside.any() and p[outside].sum() > SUPPORT_TOL:
        return math.inf
    ratios = p[~outside] / g[~outside]
    return math.log2(max(float(ratios.max()), 1e-300))
