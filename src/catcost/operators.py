"""Dense operator algebra over labelled tensor factors.

The dtype is decided once, at construction (``LabeledOperator``): entries
with no imaginary part, as every named state in catcost has, are stored
as float64, any others as complex128.  Every operation keeps the dtype of
its inputs, so a real state is traced, multiplied and decomposed in float64.

Every operator carries an ordered list of factors, each factor a pair
(dimA, dimB) of local dimensions.  The flattened matrix index runs
row-major over (a0, b0, a1, b1, ...), so the B sides of all factors
together form the global A:B cut used by the partial transpose.  A
plain, non-bipartite subsystem is encoded as (d, 1).

All values are immutable after construction and every operation is a
pure function; concurrent use needs no synchronisation.  The spectra a
DensityOperator caches on first use are pure functions of its read-only
entries, so a concurrent first use at worst computes them twice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Dense desk-scale budget: matrices with more than 2**16 entries are
# refused by the protocol and synthesis drivers (dimension <= 256).
MAX_ENTRIES = 2 ** 16

DEFAULT_HERM_TOL = 1e-9
DEFAULT_PSD_TOL = 1e-10
DEFAULT_TRACE_TOL = 1e-12
PURITY_TOL = 1e-9


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the dense-storage entry budget."""


def _int_text(n: int) -> str:
    """n in decimal digits, or its digit count past Python's int-to-str limit.

    str() refuses an int of more digits than sys.get_int_max_str_digits()
    (4300 by default), which a refusal of a huge size must not raise.
    """
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # converts an int of any size
        return f"<a {Decimal(n).adjusted() + 1}-digit integer>"


def check_entry_budget(dim: int, what: str) -> None:
    """Refuse a dim x dim matrix with more than MAX_ENTRIES entries."""
    if dim * dim > MAX_ENTRIES:
        raise ResourceLimitError(
            f"{what} needs {_int_text(dim)}^2 entries, budget is {MAX_ENTRIES}")


def check_power_budget(base: int, n: int, what: str, times: int = 1) -> None:
    """check_entry_budget for a ``times * base**n`` dimension.

    ``base**n`` is never formed: a copy count n can be large enough for
    that integer alone to exhaust memory, while the budget is exceeded
    after a few factors.
    """
    dim = times
    for _ in range(n if base > 1 else 0):
        if dim * dim > MAX_ENTRIES:
            size = f"{_int_text(base)}^{_int_text(n)}"
            size = size if times == 1 else f"{times}*{size}"
            raise ResourceLimitError(f"{what} needs ({size})^2 entries, budget is {MAX_ENTRIES}")
        dim *= base
    check_entry_budget(dim, what)


def hermitian_part(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(m + m^dagger) / 2 of a float or complex matrix, or of each matrix of a stack.

    Written with no temporary into ``out`` if given: a buffer of the
    result's shape and dtype that shares no memory with ``m``.
    """
    if out is None:
        out = np.empty_like(m)
    if out.dtype.kind == "c":
        np.conjugate(m.swapaxes(-1, -2), out=out)
        out += m
    else:
        np.add(m.swapaxes(-1, -2), m, out=out)
    out /= 2  # in place: one temporary fewer at large n
    return out


def hermitian_spectrum(m: np.ndarray,
                       vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the Hermitian part of ``m`` (a matrix or a stack).

    With ``vectors``, returns ``(w, v)`` with eigenvector columns, as
    ``np.linalg.eigh`` does.  Every measure and validation spectrum goes
    through here, in the dtype of ``m``: float64 for an operator stored
    real, whose real eigendecomposition is one of it as a Hermitian
    matrix (Gatermann-Parrilo 2004).
    """
    h = hermitian_part(m)
    return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)


@dataclass(frozen=True)
class FactorShape:
    """Ordered list of (dimA, dimB) local dimension pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((int(a), int(b)) for a, b in self.factors)
        if not factors:
            raise ValueError("shape needs at least one factor")
        if any(a < 1 or b < 1 for a, b in factors):
            raise ValueError(f"factor dimensions must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @cached_property
    def factor_dims(self) -> tuple[int, ...]:
        """Total dimension a*b of each factor; computed once per shape."""
        return tuple(a * b for a, b in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

    def concat(self, other: FactorShape) -> FactorShape:
        return FactorShape(self.factors + other.factors)

    def copies(self, n: int) -> FactorShape:
        """n copies; more than 32 factors in all are refused before the tuple is formed."""
        if n < 1:
            raise ValueError("copy count must be >= 1")
        if n * len(self.factors) > 32:
            raise ResourceLimitError(f"{n} copies of {len(self.factors)} factors exceed 32")
        return FactorShape(self.factors * n)


def plain_shape(d: int) -> FactorShape:
    """Shape of a single non-bipartite d-dimensional system."""
    return FactorShape(((d, 1),))


def bipartite_shape(d_a: int, d_b: int) -> FactorShape:
    return FactorShape(((d_a, d_b),))


# eq=False on the two operator types: a field-wise == would compare the
# entry arrays and raise, so == and hash are by identity
@dataclass(frozen=True, eq=False)
class LabeledOperator:
    """Square matrix together with its factor structure.

    Stores a read-only C-contiguous copy of ``entries``: float64 when they
    have no imaginary part (``not m.imag.any()``, a test, not a
    tolerance), complex128 otherwise.
    """

    shape: FactorShape
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if np.iscomplexobj(m) and m.imag.any():
            m = np.array(m, dtype=np.complex128, order="C")
        else:
            m = np.array(m.real, dtype=np.float64, order="C")
        n = self.shape.total_dim
        if m.shape != (n, n):
            raise ValueError(f"entries have shape {m.shape}, expected ({n}, {n})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.shape.total_dim

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def __add__(self, other: LabeledOperator) -> LabeledOperator:
        _require_same_shape(self, other)
        return LabeledOperator(self.shape, self.entries + other.entries)

    def __sub__(self, other: LabeledOperator) -> LabeledOperator:
        _require_same_shape(self, other)
        return LabeledOperator(self.shape, self.entries - other.entries)

    def __mul__(self, scalar: complex) -> LabeledOperator:
        return LabeledOperator(self.shape, self.entries * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> LabeledOperator:
        return LabeledOperator(self.shape, -self.entries)


def identity_operator(shape: FactorShape) -> LabeledOperator:
    return LabeledOperator(shape, np.eye(shape.total_dim))


def _require_same_shape(a: LabeledOperator, b: LabeledOperator) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape.factors} vs {b.shape.factors}")


def _require_hermitian(x: LabeledOperator) -> None:
    defect, tol = x.hermiticity_defect(), DEFAULT_HERM_TOL
    if defect > tol:
        raise ValueError(f"operator is not Hermitian (defect {defect:.3e} > {tol:.1e})")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive-semidefinite LabeledOperator.

    Validation: finite entries, trace within ``trace_tol`` of one,
    Hermitian within ``trace_tol``, minimum eigenvalue >= -``psd_tol`` * trace.

    With eps = ``psd_tol`` * |trace|, a state is accepted when the Cholesky
    factorisation of H + (eps/2) I succeeds, H being the Hermitian part of
    the entries.  Success proves lambda_min(H) >= -eps/2 - O(n u ||H||)
    (Demmel, LAPACK Working Note 14, 1989; Higham, Accuracy and Stability
    of Numerical Algorithms, section 10.1); at n <= 256, ||H|| ~ 1 and
    eps >= DEFAULT_PSD_TOL, the smallest ``psd_tol`` any caller passes, the
    rounding term is some 500 times smaller than the eps/2 margin, so the
    spectral rule accepts too.  Only when the factorisation fails is the
    spectrum of H computed, and the state refused, with its least
    eigenvalue, unless that is >= -eps.  A ``psd_tol`` far below
    DEFAULT_PSD_TOL puts eps/2 at rounding level, where a successful
    factorisation no longer proves the -eps bound.
    """

    op: LabeledOperator
    trace_tol: float = DEFAULT_TRACE_TOL
    psd_tol: float = DEFAULT_PSD_TOL

    def __post_init__(self) -> None:
        # every comparison below is False for NaN, so none of them would fail
        if not np.isfinite(self.op.entries).all():
            raise ValueError("entries must be finite")
        tr = self.op.trace()
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr} is not 1 within {self.trace_tol:.1e}")
        defect = self.op.hermiticity_defect()
        if defect > self.trace_tol:
            raise ValueError(f"not Hermitian: defect {defect:.3e}")
        eps = self.psd_tol * abs(tr)
        h = hermitian_part(self.op.entries)
        h[np.diag_indices_from(h)] += eps / 2
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            lo = float(hermitian_spectrum(self.op.entries).min())
            if lo < -eps:
                raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}") from None

    @property
    def shape(self) -> FactorShape:
        return self.op.shape

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @cached_property
    def partial_transpose_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns of rho^Gamma.

        Computed on first use and kept for the life of the instance; the
        entries are read-only, so the cache is a pure function of it.
        Every PPT measure (log negativity, binegativity, exact PPT cost)
        is derived from this one decomposition.
        """
        w, v = hermitian_spectrum(partial_transpose_entries(self.entries, self.shape), vectors=True)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    @cached_property
    def partial_transpose_trace_norm(self) -> float:
        """Sum of |w| over the spectrum of rho^Gamma."""
        w, _ = self.partial_transpose_eigh
        return float(np.abs(w).sum())

    @cached_property
    def binegativity_min_eigenvalue(self) -> float:
        """Min eigenvalue of |rho^Gamma|^Gamma, with |rho^Gamma| = V diag|w| V^dagger."""
        w, v = self.partial_transpose_eigh
        # the partial transpose commutes with taking the Hermitian part,
        # which hermitian_spectrum does once
        b = partial_transpose_entries((v * np.abs(w)) @ v.conj().T, self.shape)
        return float(hermitian_spectrum(b).min())


def density_from_matrix(entries: np.ndarray, shape: FactorShape) -> DensityOperator:
    return DensityOperator(LabeledOperator(shape, entries))


def density_from_vector(psi: np.ndarray, shape: FactorShape) -> DensityOperator:
    """Rank-1 density operator |psi><psi| / <psi|psi>."""
    v = np.asarray(psi).ravel()
    norm2 = float(np.vdot(v, v).real)
    if norm2 <= 0:
        raise ValueError("zero state vector")
    return density_from_matrix(np.outer(v, v.conj()) / norm2, shape)


def require_pure(rho: DensityOperator, what: str = "state") -> None:
    """Refuse ``rho`` unless its largest eigenvalue is >= 1 - PURITY_TOL."""
    top = float(hermitian_spectrum(rho.entries).max())
    if top < 1.0 - PURITY_TOL:
        raise ValueError(f"{what} is not pure: largest eigenvalue {top}")


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted in descending order."""

    eigenvalues: tuple[float, ...]

    @property
    def max(self) -> float:
        return self.eigenvalues[0]

    @property
    def min(self) -> float:
        return self.eigenvalues[-1]


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness test with its witness."""

    ok: bool
    min_eigenvalue: float
    tol: float


# ---------------------------------------------------------------------------
# operations


def tensor(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product; factor lists concatenate, traces multiply."""
    return LabeledOperator(a.shape.concat(b.shape), np.kron(a.entries, b.entries))


def tensor_power(x: LabeledOperator, n: int) -> LabeledOperator:
    """x tensored with itself n times; a power over the entry budget is refused first."""
    if n < 1:
        raise ValueError("copy count must be >= 1")
    check_power_budget(x.dim, n, "tensor power")
    out = x
    for _ in range(n - 1):
        out = tensor(out, x)
    return out


def partial_trace(x: LabeledOperator, keep) -> LabeledOperator:
    """Trace out every factor not listed in ``keep``.

    Kept factors appear in their original order; the trace is preserved.
    """
    keep = sorted(set(int(i) for i in keep))
    k = x.shape.n_factors
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= k:
        raise ValueError(f"keep indices {keep} out of range for {k} factors")
    dims = list(x.shape.factor_dims)
    m = x.entries
    for idx in reversed(range(k)):
        if idx in keep:
            continue
        pre = math.prod(dims[:idx])
        post = math.prod(dims[idx + 1:])
        t = m.reshape(pre, dims[idx], post, pre, dims[idx], post)
        m = np.einsum("pdqrds->pqrs", t).reshape(pre * post, pre * post)
        del dims[idx]
    return LabeledOperator(FactorShape(tuple(x.shape.factors[i] for i in keep)), m)


def partial_transpose_entries(m: np.ndarray, shape: FactorShape) -> np.ndarray:
    """Partial transpose of a bare ``(n, n)`` matrix laid out by ``shape``.

    Keeps the dtype of ``m``: a real symmetric matrix maps to a real
    symmetric one.  Returns ``m`` itself when no factor has a B side.
    """
    n = shape.total_dim
    # running dims with the current factor's B index isolated
    for idx, (a, b) in enumerate(shape.factors):
        if b == 1:
            continue
        pre = math.prod(shape.factor_dims[:idx]) * a
        post = math.prod(shape.factor_dims[idx + 1:])
        t = m.reshape(pre, b, post, pre, b, post)
        m = t.transpose(0, 4, 2, 3, 1, 5).reshape(n, n)
    return m


def partial_transpose(x: LabeledOperator) -> LabeledOperator:
    """Transpose the B side of every factor (the global A:B cut).

    Involutive, trace-preserving, Hermiticity-preserving.
    """
    return LabeledOperator(x.shape, partial_transpose_entries(x.entries, x.shape))


def permute_factors(x: LabeledOperator, perm) -> LabeledOperator:
    """Reorder factors so that new position j holds old factor perm[j]."""
    perm = [int(p) for p in perm]
    k = x.shape.n_factors
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of range({k})")
    if 2 * k > 32:
        raise ResourceLimitError("too many factors to permute")
    dims = x.shape.factor_dims
    t = x.entries.reshape(dims + dims)
    axes = perm + [k + p for p in perm]
    n = x.dim
    out = t.transpose(axes).reshape(n, n)
    return LabeledOperator(FactorShape(tuple(x.shape.factors[p] for p in perm)), out)


def merge_factors(x: LabeledOperator) -> LabeledOperator:
    """Regroup all factors into a single (prod dimA, prod dimB) factor.

    Permutes the tensor axes so all A sides precede all B sides; the
    global A:B cut is unchanged.
    """
    facs = x.shape.factors
    k = len(facs)
    if 4 * k > 32:
        raise ResourceLimitError("too many factors to merge")
    dims = [d for a, b in facs for d in (a, b)]
    t = x.entries.reshape(dims + dims)
    a_axes = [2 * i for i in range(k)]
    b_axes = [2 * i + 1 for i in range(k)]
    row = a_axes + b_axes
    axes = row + [2 * k + ax for ax in row]
    n = x.dim
    da = math.prod(a for a, _ in facs)
    db = math.prod(b for _, b in facs)
    return LabeledOperator(bipartite_shape(da, db), t.transpose(axes).reshape(n, n))


def relabel(x: LabeledOperator, new_shape: FactorShape) -> LabeledOperator:
    """Reinterpret the factor structure without touching the entries.

    Valid only when the flattened index layout is unchanged, i.e. the
    sequences of non-trivial local dimensions agree.
    """
    old = [d for pair in x.shape.factors for d in pair if d > 1]
    new = [d for pair in new_shape.factors for d in pair if d > 1]
    if old != new or new_shape.total_dim != x.dim:
        raise ValueError(f"layout-incompatible relabel {x.shape.factors} -> {new_shape.factors}")
    return LabeledOperator(new_shape, x.entries)


def eig_hermitian(x: LabeledOperator) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition of an operator Hermitian within DEFAULT_HERM_TOL.

    Returns the spectrum sorted descending and the matrix of matching
    eigenvector columns, in the dtype of ``x.entries``: float64 for an
    operator stored real.
    """
    _require_hermitian(x)
    w, v = hermitian_spectrum(x.entries, vectors=True)
    order = np.argsort(w)[::-1]
    return Spectrum(tuple(float(t) for t in w[order])), v[:, order]


def abs_operator(x: LabeledOperator) -> LabeledOperator:
    """Operator absolute value V diag(|lambda|) V^dagger of a Hermitian x."""
    spec, v = eig_hermitian(x)
    w = np.abs(np.array(spec.eigenvalues))
    return LabeledOperator(x.shape, hermitian_part((v * w) @ v.conj().T))


def trace_norm(x: LabeledOperator) -> float:
    """Sum of absolute eigenvalues (Hermitian inputs only)."""
    _require_hermitian(x)
    return float(np.abs(hermitian_spectrum(x.entries)).sum())


def trace_distance(a: LabeledOperator, b: LabeledOperator) -> float:
    return 0.5 * trace_norm(a - b)


def is_psd(x: LabeledOperator) -> PsdReport:
    """Test min eigenvalue >= -DEFAULT_PSD_TOL * max(1, |trace|); reports the witness."""
    _require_hermitian(x)
    lo = float(hermitian_spectrum(x.entries).min())
    scale = max(1.0, abs(x.trace()))
    return PsdReport(ok=lo >= -DEFAULT_PSD_TOL * scale, min_eigenvalue=lo, tol=DEFAULT_PSD_TOL)
