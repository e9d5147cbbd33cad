"""PPT channel synthesis through Choi-operator feasibility.

A channel between bipartite systems is represented by its Choi operator
with factor order (input factors, output factors).  The channel is a PPT
operation exactly when the Choi operator stays positive semidefinite
under the global B-side partial transpose, which covers the B indices of
input and output factors alike.

``synthesize_ppt_dilution`` decides PPT dilution from m ebits with a
target-sized search: D x D matrices for a dense target, and vectors of
2^k twirl coefficients for an ``IsotropicCopies`` one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DEFAULT_PSD_TOL,
    DEFAULT_TRACE_TOL,
    DensityOperator,
    FactorShape,
    LabeledOperator,
    bipartite_shape,
    check_power_budget,
    density_from_matrix,
    hermitian_part,
    hermitian_spectrum,
    partial_transpose_entries,
    permute_factors,
    tensor,
    tensor_power,
)
from .measures import (
    IsotropicCopies,
    copies_matrix,
    copy_ranks,
    largest_entry,
    log_negativity,
    partial_transpose_isometry,
    partial_transpose_spectrum,
    twirl_coefficients,
)
from .projections import Cone, seeded_starts, solve_feasibility
from .states import max_entangled_matrix

SYNTHESIS_TOL = 1e-6
SYNTHESIS_MAX_CYCLES = 20000


@dataclass(frozen=True)
class ChoiOperator:
    """Choi representation of a channel, inputs before outputs."""

    op: LabeledOperator
    input_factors: tuple[int, ...]
    output_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        ins = tuple(int(i) for i in self.input_factors)
        outs = tuple(int(i) for i in self.output_factors)
        k = self.op.shape.n_factors
        if sorted(ins + outs) != list(range(k)):
            raise ValueError("input and output factors must partition the factor list")
        if ins != tuple(range(len(ins))):
            raise ValueError("input factors must come first")
        object.__setattr__(self, "input_factors", ins)
        object.__setattr__(self, "output_factors", outs)

    @property
    def input_shape(self) -> FactorShape:
        return FactorShape(tuple(self.op.shape.factors[i] for i in self.input_factors))

    @property
    def output_shape(self) -> FactorShape:
        return FactorShape(tuple(self.op.shape.factors[i] for i in self.output_factors))

    @property
    def input_dim(self) -> int:
        return self.input_shape.total_dim

    @property
    def output_dim(self) -> int:
        return self.output_shape.total_dim


@dataclass(frozen=True, eq=False)
class TwirledChoi:
    """Choi operator Phi_K (x) a + (1 - Phi_K) (x) b, the input Phi_K = Phi_2^(x m).

    The U (x) conj(U) twirl of a channel's input fixes Phi_K and leaves
    this form, so it decides PPT dilution from m ebits with output-sized
    blocks (Audenaert-Plenio-Eisert, PRL 90, 027901 (2003)).  At m = 0
    the Choi operator is a, and b = a keeps every formula.  ``to_choi``
    builds the dense operator, for checks against the dense path.
    """

    m: int
    output_shape: FactorShape
    a: np.ndarray
    b: np.ndarray

    def residuals(self, target: np.ndarray) -> dict[str, float]:
        """Dense cp/ppt/tp and correctness on Phi_K; Phi_K^Gamma = (P_sym - P_anti)/K."""
        e = math.ldexp(1.0, -self.m)  # 1/K; a float 2.0**m overflows from m = 1024
        a_pt = partial_transpose_entries(self.a, self.output_shape)
        b_pt = partial_transpose_entries(self.b, self.output_shape)
        lo = hermitian_spectrum(np.stack([self.a, self.b, e * a_pt + (1.0 - e) * b_pt,
                                          (1.0 + e) * b_pt - e * a_pt])).min(axis=1)
        cp, ppt = min(lo[0], lo[1]), min(lo[2], lo[3])
        return {"cp": max(0.0, -float(cp)), "ppt": max(0.0, -float(ppt)),
                "tp": abs(float(np.trace(self.b).real) - 1.0),
                "correctness": float(np.abs(self.a - target).max())}

    def to_choi(self) -> ChoiOperator:
        """The dense Choi operator, inputs (2, 2)^m first; refused over the entry budget."""
        check_power_budget(4, self.m, "Choi", times=self.output_shape.total_dim)
        if self.m == 0:
            in_shape, phi = FactorShape(((1, 1),)), np.ones((1, 1))
        else:
            in_shape = bipartite_shape(2, 2).copies(self.m)
            phi = tensor_power(LabeledOperator(bipartite_shape(2, 2), max_entangled_matrix(2)),
                               self.m).entries
        j = np.kron(phi, self.a) + np.kron(np.eye(len(phi)) - phi, self.b)
        shape = in_shape.concat(self.output_shape)
        k_in = in_shape.n_factors
        return ChoiOperator(LabeledOperator(shape, j), tuple(range(k_in)),
                            tuple(range(k_in, shape.n_factors)))


@dataclass(frozen=True)
class SolveReport:
    """Residuals and outcome of a feasibility solve or verification.

    cp and ppt residuals are negative-eigenvalue magnitudes; tp and
    correctness are largest absolute entry deviations from the affine
    targets.  ``best_history`` is the best-so-far maximum residual per
    check, non-increasing by construction.
    """

    converged: bool
    iterations: int
    residuals: dict[str, float]
    feasible_point: ChoiOperator | TwirledChoi | None
    stalled: bool = False
    npt_witness: float | None = None
    log_negativity: float | None = None
    best_history: tuple[float, ...] = field(default_factory=tuple)


def _apply_matrix(j: np.ndarray, din: int, dout: int, x: np.ndarray) -> np.ndarray:
    return np.einsum("ki,kaib->ab", x, j.reshape(din, dout, din, dout))


def apply_choi(choi: ChoiOperator, x: DensityOperator,
               validate_tol: float = 0.0) -> DensityOperator:
    """Channel action on a state through the Choi operator.

    ``validate_tol`` relaxes the output-state validation, for channels
    that satisfy their defining constraints only within a solver tolerance.
    """
    if x.shape != choi.input_shape:
        raise ValueError(
            f"input shape {x.shape.factors} does not match {choi.input_shape.factors}")
    out = _apply_matrix(choi.op.entries, choi.input_dim, choi.output_dim, x.entries)
    return DensityOperator(LabeledOperator(choi.output_shape, hermitian_part(out)),
                           max(DEFAULT_TRACE_TOL, validate_tol), max(DEFAULT_PSD_TOL, validate_tol))


def identity_choi(shape: FactorShape) -> ChoiOperator:
    d = shape.total_dim
    vec = np.eye(d).reshape(-1)
    k = shape.n_factors
    op = LabeledOperator(shape.concat(shape), np.outer(vec, vec.conj()))
    return ChoiOperator(op, tuple(range(k)), tuple(range(k, 2 * k)))


def replacer_choi(sigma: DensityOperator, input_shape: FactorShape) -> ChoiOperator:
    """Channel that discards its input and prepares sigma."""
    din = input_shape.total_dim
    op = tensor(LabeledOperator(input_shape, np.eye(din)), sigma.op)
    k_in = input_shape.n_factors
    k_out = sigma.shape.n_factors
    return ChoiOperator(op, tuple(range(k_in)), tuple(range(k_in, k_in + k_out)))


def transpose_map_choi(d: int) -> ChoiOperator:
    """Choi of the full transpose on a plain d-level system; not CP."""
    j = np.zeros((d * d, d * d))
    for i in range(d):
        for k in range(d):
            j[i * d + k, k * d + i] = 1.0
    shape = FactorShape(((d, 1), (d, 1)))
    return ChoiOperator(LabeledOperator(shape, j), (0,), (1,))


def analytic_mixer_choi(d: int) -> ChoiOperator:
    """Choi of X -> X/2 + tr(X) * identity / (2 d^2) on a (d, d) system.

    An even coin flip between doing nothing and replacing the state with
    white noise: implementable locally, hence a PPT operation, and a
    known-feasible dilution point for the half-mixed target.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    shape = bipartite_shape(d, d)
    ident = identity_choi(shape)
    white = density_from_matrix(np.eye(d * d) / (d * d), shape)
    repl = replacer_choi(white, shape)
    op = LabeledOperator(ident.op.shape, (ident.op.entries + repl.op.entries) / 2.0)
    return ChoiOperator(op, ident.input_factors, ident.output_factors)


def coin_flip_broadcast_choi(d: int) -> ChoiOperator:
    """Choi of a channel sending one (d, d) system to its symmetric broadcast.

    Flips an even coin over which output copy receives the input, filling
    the other copy with white noise; local preparation plus relabeling,
    hence a PPT operation.  Maps the maximally entangled state to the
    symmetric broadcast of the half-mixed target.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    shape = bipartite_shape(d, d)
    ident = identity_choi(shape)
    white = LabeledOperator(shape, np.eye(d * d) / (d * d))
    first = tensor(ident.op, white)               # [in, out1(kept), out2(noise)]
    second = permute_factors(tensor(ident.op, white), [0, 2, 1])
    op = LabeledOperator(first.shape, (first.entries + second.entries) / 2.0)
    return ChoiOperator(op, (0,), (1, 2))


def verify_ppt_operation(choi: ChoiOperator, tol: float = 1e-9) -> SolveReport:
    """Check complete positivity, the PPT condition, and trace preservation."""
    j, din, dout = choi.op.entries, choi.input_dim, choi.output_dim
    cp = max(0.0, -float(hermitian_spectrum(j).min()))
    ppt = max(0.0, -float(hermitian_spectrum(partial_transpose_entries(j, choi.op.shape)).min()))
    tr_out = np.einsum("aibi->ab", hermitian_part(j).reshape(din, dout, din, dout))
    res = {"cp": cp, "ppt": ppt, "tp": float(np.abs(tr_out - np.eye(din)).max())}
    ok = max(res.values()) <= tol
    return SolveReport(converged=ok, iterations=0, residuals=res,
                       feasible_point=choi if ok else None)


def _dense_dilution(m: int, target: DensityOperator, seed: int):
    """The D x D search: its sets, start, residuals and point.

    The sets, in order: at m = 0, b over the PSD cone, the partially
    transposed PSD cone and the target; at m >= 1, b over the PSD cone,
    unit trace, and the two shifted cones {x : x^Gamma >= shift}.  Gamma
    permutes entries and keeps matrices Hermitian, so it is the frame of
    those cones.  The input is real, so the search runs in the dtype of
    ``target.entries``: float64 for a target stored real.
    """
    rho, shape, dim = target.entries, target.shape, target.dim
    gamma = partial_transpose_entries(np.arange(dim * dim).reshape(dim, dim), shape).ravel()
    if m == 0:
        fixed = hermitian_part(rho)  # exactly Hermitian, as the engine's blocks must be
        sets = [Cone(), Cone(gamma), lambda x: fixed]
    else:
        e = math.ldexp(1.0, -m)  # 1/K
        rho_pt = partial_transpose_entries(rho, shape)

        def unit_trace(x: np.ndarray) -> np.ndarray:
            tr = np.trace(x, axis1=-2, axis2=-1).real
            return x - ((tr - 1.0) / dim)[:, None, None] * np.eye(dim)

        sets = [Cone(), unit_trace, Cone(gamma, -e / (1.0 - e) * rho_pt),
                Cone(gamma, e / (1.0 + e) * rho_pt)]

    def point(x: np.ndarray) -> TwirledChoi:
        return TwirledChoi(m, shape, x if m == 0 else rho, x)

    # real data: the feasible set is closed under complex conjugation, so its
    # real part is feasible, and a real start keeps the search real symmetric
    [[start]] = seeded_starts(dim, 1, seed, "synthesis start", rho.dtype)
    return sets, start, lambda x: point(x).residuals(rho), point


def _twirled_dilution(m: int, target: IsotropicCopies, seed: int):
    """``_dense_dilution`` in the twirl algebra of an ``IsotropicCopies`` target.

    A point is the ``float64`` vector y = sqrt(r) c of 2^k numbers, with c
    the coefficients of a twirl-invariant sigma and r their ranks, so the
    Euclidean norm of y is the Hilbert-Schmidt norm of sigma.  The
    target's twirl symmetry maps every set into itself, so P restricted to
    these points is P of the dense search, and each set is a ``Cone`` in an
    orthonormal frame of the coefficients, where it is a clip, or an
    affine map (B, o):

    - the PSD cone: y -> max(y, 0);
    - unit trace: the hyperplane <sqrt(r), y> = 1;
    - each cone {x : x^Gamma >= shift}: y -> Q^T (s + max(Q y - s, 0)),
      with Q the orthogonal ``partial_transpose_isometry`` and
      s = Q sqrt(r) c_shift;
    - the target at m = 0: the fixed point sqrt(r) c_rho.

    The start is the twirl of the dense search's seeded start.  The
    residuals are those of ``TwirledChoi.residuals`` on the dense blocks,
    in closed form: cp and ppt the least coefficients of a, b and the two
    cone operators, tp = |r.c - 1|, and the correctness at m = 0 the
    largest entry of sigma - rho (``largest_entry``); at m >= 1, a = rho
    exactly.  ``point`` builds the dense blocks.
    """
    d, rho = target.d, target.coeffs
    ranks = copy_ranks(d, rho.ndim).ravel()
    root = np.sqrt(ranks)
    gamma = partial_transpose_isometry(d, rho.ndim)
    y_rho = root * rho.ravel()
    e = math.ldexp(1.0, -m)  # 1/K; at m = 0, a = b and both cones read sigma^Gamma >= 0
    if m == 0:
        sets = [Cone(), Cone(gamma), (np.zeros((len(root), len(root))), y_rho)]
    else:
        s, n = gamma @ y_rho, ranks.sum()
        sets = [Cone(), (np.eye(len(root)) - np.outer(root, root) / n, root / n),
                Cone(gamma, -e / (1.0 - e) * s), Cone(gamma, e / (1.0 + e) * s)]

    def coeffs(y: np.ndarray) -> np.ndarray:
        return (y / root).reshape(rho.shape)

    # at m >= 1 the least coefficient of a and e a^Gamma are constants, and
    # a check reuses them; at m = 0 a = b, and a check computes each once
    least = np.minimum.reduce  # ``ndarray.min`` without its Python wrapper
    a_least, e_a_pt = (None, None) if m == 0 else (least(rho, None),
                                                   e * target.partial_transpose_coeffs)

    def residuals(y: np.ndarray) -> dict[str, float]:
        c = coeffs(y)
        c_least = least(c, None)
        b_pt = partial_transpose_spectrum(d, c)
        ea_pt = e * b_pt if m == 0 else e_a_pt
        ppt = min(least(ea_pt + (1.0 - e) * b_pt, None), least((1.0 + e) * b_pt - ea_pt, None))
        cp = c_least if m == 0 else min(c_least, a_least)
        return {"cp": max(0.0, -float(cp)), "ppt": max(0.0, -float(ppt)),
                "tp": abs(float(c.ravel() @ ranks) - 1.0),
                "correctness": largest_entry(d, c - rho) if m == 0 else 0.0}

    def point(y: np.ndarray) -> TwirledChoi:
        b = copies_matrix(d, coeffs(y))
        return TwirledChoi(m, target.shape, b if m == 0 else copies_matrix(d, rho), b)

    [drawn] = seeded_starts(target.shape.total_dim, 1, seed, "synthesis start")
    start = root * twirl_coefficients(d, drawn)[0].ravel()
    return sets, start, residuals, point


def synthesize_ppt_dilution(m: int, target: DensityOperator | IsotropicCopies,
                            max_iter: int = SYNTHESIS_MAX_CYCLES, tol: float = SYNTHESIS_TOL,
                            seed: int = 0) -> SolveReport:
    """Search for a PPT operation taking m maximally entangled pairs to the target.

    Alternating reflections over one target-sized block of a ``TwirledChoi``
    with a = target: b over the PSD cone, unit trace, and the two cones of
    the PPT condition, b^Gamma >= -rho^Gamma e/(1-e) and >= rho^Gamma e/(1+e)
    with e = 2^-m; at m = 0, a = b over the PSD cone, the partial-transposed
    PSD cone and the target.  Infeasible instances surface as a residual
    stall, with a certificate where one applies: an NPT target's negative
    partial-transpose eigenvalue at m = 0, its E_N (a PPT monotone, m on m
    ebits) above m + ``tol`` at m >= 1.  A ``DensityOperator`` target is
    searched as a D x D matrix (``_dense_dilution``), an ``IsotropicCopies``
    one as a vector of its 2^k twirl coefficients (``_twirled_dilution``),
    with no eigendecomposition, from one seeded start (``seeded_starts``).
    """
    if m < 0:
        raise ValueError("ebit count must be >= 0")
    twirled = isinstance(target, IsotropicCopies)
    sets, start, residuals, point = (
        _twirled_dilution if twirled else _dense_dilution)(m, target, seed)
    result = solve_feasibility(sets, start, residuals, tol=tol, max_iter=max_iter)

    npt_witness = ln = None
    if m == 0:
        lo = float(target.partial_transpose_coeffs.min() if twirled
                   else target.partial_transpose_eigh[0][0])
        npt_witness = lo if lo < 0 else None
    elif not result.converged:
        e_n = log_negativity(target)
        ln = e_n if m < e_n and e_n - m > tol else None  # m < e_n: no float(m) of a huge m
    return SolveReport(
        converged=result.converged,
        iterations=result.iterations,
        residuals=result.residuals,
        feasible_point=point(result.point) if result.converged else None,
        stalled=result.stalled,
        npt_witness=npt_witness,
        log_negativity=ln,
        best_history=tuple(result.best_history),
    )
