"""PPT channel synthesis through Choi-operator feasibility.

A channel between bipartite systems is represented by its Choi operator
with factor order (input factors, output factors).  The channel is a PPT
operation exactly when the Choi operator stays positive semidefinite
under the global B-side partial transpose, which covers the B indices of
input and output factors alike.

``synthesize_ppt_dilution`` decides PPT dilution from m ebits with a
target-sized search: D x D matrices for a dense target, and vectors of
2^k twirl coefficients for an ``IsotropicCopies`` one.  Both start at the
maximally mixed state I/D, the same state in either representation, so a
solve draws no random number.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .operators import (
    DEFAULT_PSD_TOL,
    DEFAULT_TRACE_TOL,
    DensityOperator,
    FactorShape,
    LabeledOperator,
    _Frozen,
    bipartite_shape,
    check_entry_budget,
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
    _kron_power,
    copies_matrix,
    copy_ranks,
    log_negativity,
    partial_transpose_isometry,
)
from .projections import Cone, solve_feasibility
from .states import max_entangled_matrix

SYNTHESIS_TOL = 1e-6
SYNTHESIS_MAX_CYCLES = 20000


class ChoiOperator(_Frozen):
    """Choi representation of a channel, inputs before outputs."""

    def __init__(self, op: LabeledOperator, input_factors: tuple[int, ...],
                 output_factors: tuple[int, ...]) -> None:
        ins = tuple(int(i) for i in input_factors)
        outs = tuple(int(i) for i in output_factors)
        k = op.shape.n_factors
        if sorted(ins + outs) != list(range(k)):
            raise ValueError("input and output factors must partition the factor list")
        if ins != tuple(range(len(ins))):
            raise ValueError("input factors must come first")
        object.__setattr__(self, "op", op)
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


class TwirledChoi(_Frozen):
    """Choi operator Phi_K (x) a + (1 - Phi_K) (x) b, the input Phi_K = Phi_2^(x m).

    The U (x) conj(U) twirl of a channel's input fixes Phi_K and leaves
    this form, so it decides PPT dilution from m ebits with output-sized
    blocks (Audenaert-Plenio-Eisert, PRL 90, 027901 (2003)).  At m = 0
    the Choi operator is a, and b = a keeps every formula.  ``to_choi``
    builds the dense operator, for checks against the dense path.  == and
    hash are by identity.
    """

    def __init__(self, m: int, output_shape: FactorShape, a: np.ndarray, b: np.ndarray) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "output_shape", output_shape)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

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


class SolveReport(_Frozen):
    """Residuals and outcome of a feasibility solve or verification.

    cp and ppt residuals are negative-eigenvalue magnitudes; tp and
    correctness are largest absolute entry deviations from the affine
    targets.  ``best_history`` is the best-so-far maximum residual per
    check, non-increasing by construction.  ``feasible_point`` is built
    on its first read, by ``_build_point`` (None: no feasible point), and
    kept: a named target's ``TwirledChoi`` holds dense blocks that a
    caller reading the verdict alone never pays for.
    """

    def __init__(self, converged: bool, iterations: int, residuals: dict[str, float],
                 _build_point: Callable[[], ChoiOperator | TwirledChoi] | None = None,
                 stalled: bool = False, npt_witness: float | None = None,
                 log_negativity: float | None = None,
                 best_history: tuple[float, ...] = ()) -> None:
        object.__setattr__(self, "converged", converged)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "_build_point", _build_point)
        object.__setattr__(self, "stalled", stalled)
        object.__setattr__(self, "npt_witness", npt_witness)
        object.__setattr__(self, "log_negativity", log_negativity)
        object.__setattr__(self, "best_history", best_history)

    @functools.cached_property
    def feasible_point(self) -> ChoiOperator | TwirledChoi | None:
        return None if self._build_point is None else self._build_point()


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
                       _build_point=(lambda: choi) if ok else None)


def _dense_dilution(m: int, target: DensityOperator):
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
            return x - (np.trace(x).real - 1.0) / dim * np.eye(dim)

        sets = [Cone(), unit_trace, Cone(gamma, -e / (1.0 - e) * rho_pt),
                Cone(gamma, e / (1.0 + e) * rho_pt)]

    def point(x: np.ndarray) -> TwirledChoi:
        return TwirledChoi(m, shape, x if m == 0 else rho, x)

    # real data: the feasible set is closed under complex conjugation, so its
    # real part is feasible, and the real start I/D keeps the search real symmetric
    start = np.eye(dim, dtype=rho.dtype) / dim
    return sets, start, lambda x: point(x).residuals(rho), point


def _twirled_dilution(m: int, target: IsotropicCopies):
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

    The start is the dense search's I/D, c = 1/N on every projector
    (N = D = sum r), so y = sqrt(r) / N.  The residuals are those of
    ``TwirledChoi.residuals`` on the dense blocks, in closed form: cp and
    ppt the least coefficients of a, b and the two cone operators,
    tp = |r.c - 1|, and the correctness at m = 0 the largest entry of
    sigma - rho; at m >= 1, a = rho exactly.  Each is affine in the
    candidate x: a check is one v = x R + o, built once, and the least
    entry of each section of v.  Per copy, c0 Phi + c1 (1 - Phi) has the
    entries c0/d + c1 (1 - 1/d) at |ii><ii|, (c0 - c1)/d at |ii><jj|, c1 at
    |ij><ij| (i != j) and 0 elsewhere, and an entry of k copies is a
    product of one class a copy.  ``point`` builds the dense blocks.
    """
    d, rho = target.d, target.coeffs
    ranks = copy_ranks(d, rho.ndim).ravel()
    root = np.sqrt(ranks)
    gamma = partial_transpose_isometry(d, rho.ndim)
    y_rho, n = root * rho.ravel(), ranks.sum()
    e = math.ldexp(1.0, -m)  # 1/K; at m = 0, a = b and both cones read sigma^Gamma >= 0
    if m == 0:
        sets = [Cone(), Cone(gamma), (np.zeros((len(root), len(root))), y_rho)]
    else:
        s = gamma @ y_rho
        sets = [Cone(), (np.eye(len(root)) - root[:, None] * root / n, root / n),
                Cone(gamma, -e / (1.0 - e) * s), Cone(gamma, e / (1.0 + e) * s)]

    # (R, o) of cp (c = x / sqrt(r)), ppt (b's Gamma coefficients: Q sqrt(r)
    # = sqrt(q), since Gamma fixes the identity), tp and correctness
    b_pt, zeros = gamma.T / (gamma @ root), np.zeros(len(root))
    if m == 0:  # each entry class of sigma - rho, with both signs
        per_copy = np.array(((1.0 / d, 1.0 / d, 0.0), (1.0 - 1.0 / d, -1.0 / d, 1.0)))
        entries = _kron_power(per_copy, rho.ndim)
        entries = np.concatenate([entries, -entries], axis=1)
        pt_rows, entry_rows = (b_pt, zeros), (entries / root[:, None], -(rho.ravel() @ entries))
    else:  # a = rho: its cone operators' terms are constants, and a - rho is 0
        e_a_pt = e * target.partial_transpose_coeffs.ravel()
        pt_rows = (np.concatenate([(1 - e) * b_pt, (1 + e) * b_pt], axis=1),
                   np.concatenate([e_a_pt, -e_a_pt]))
        entry_rows = zeros[:, None], [0.0]
    sections = [(np.diag(1.0 / root), zeros), pt_rows, (root[:, None], [-1.0]), entry_rows]
    rows = np.concatenate([r for r, _ in sections], axis=1)
    offset = np.concatenate([o for _, o in sections])
    starts = np.array([0, *itertools.accumulate(len(o) for _, o in sections[:-1])])
    a_least = math.inf if m == 0 else float(rho.min())

    def residuals(x: np.ndarray) -> dict[str, float]:
        cp, ppt, tp, correctness = np.minimum.reduceat(x @ rows + offset, starts).tolist()
        return {"cp": max(0.0, -min(cp, a_least)), "ppt": max(0.0, -ppt),
                "tp": abs(tp), "correctness": abs(correctness)}

    def point(y: np.ndarray) -> TwirledChoi:
        b = copies_matrix(d, (y / root).reshape(rho.shape))
        return TwirledChoi(m, target.shape, b if m == 0 else copies_matrix(d, rho), b)

    return sets, root / n, residuals, point


def synthesize_ppt_dilution(m: int, target: DensityOperator | IsotropicCopies,
                            max_iter: int = SYNTHESIS_MAX_CYCLES,
                            tol: float = SYNTHESIS_TOL) -> SolveReport:
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
    with no eigendecomposition.  Each search starts at the maximally mixed
    state I/D, twirl-invariant and real, and draws nothing: the problem is
    convex, so a start moves only cycle counts and where a stall lands.
    A target over the entry budget is refused before either search starts:
    a converged point's ``TwirledChoi`` holds D x D blocks.
    """
    if m < 0:
        raise ValueError("ebit count must be >= 0")
    check_entry_budget(target.shape.total_dim, "synthesis start")
    twirled = isinstance(target, IsotropicCopies)
    sets, start, residuals, point = (
        _twirled_dilution if twirled else _dense_dilution)(m, target)
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
        _build_point=functools.partial(point, result.point) if result.converged else None,
        stalled=result.stalled,
        npt_witness=npt_witness,
        log_negativity=ln,
        best_history=tuple(result.best_history),
    )
