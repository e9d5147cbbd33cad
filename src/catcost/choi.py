"""PPT channel synthesis through Choi-operator feasibility.

A channel between bipartite systems is represented by its Choi operator
with factor order (input factors, output factors).  The channel is a PPT
operation exactly when the Choi operator stays positive semidefinite
under the global B-side partial transpose, which covers the B indices of
input and output factors alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
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
from .projections import project_psd, random_density_matrix, solve_feasibility
from .states import max_entangled


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
    feasible_point: ChoiOperator | None
    stalled: bool = False
    npt_witness: float | None = None
    best_history: tuple[float, ...] = field(default_factory=tuple)


def _apply_matrix(j: np.ndarray, din: int, dout: int, x: np.ndarray) -> np.ndarray:
    return np.einsum("ki,kaib->ab", x, j.reshape(din, dout, din, dout))


def _trace_out_output(j: np.ndarray, din: int, dout: int) -> np.ndarray:
    return np.einsum("aibi->ab", j.reshape(din, dout, din, dout))


def apply_choi(choi: ChoiOperator, x: DensityOperator,
               validate_tol: float | None = None) -> DensityOperator:
    """Channel action on a state through the Choi operator.

    ``validate_tol`` relaxes the output-state validation, for channels
    that satisfy their defining constraints only within a solver tolerance.
    """
    if x.shape != choi.input_shape:
        raise ValueError(
            f"input shape {x.shape.factors} does not match {choi.input_shape.factors}")
    out = _apply_matrix(choi.op.entries, choi.input_dim, choi.output_dim, x.entries)
    tols = {}
    if validate_tol is not None:
        tols = {"trace_tol": max(1e-12, validate_tol), "psd_tol": max(1e-10, validate_tol)}
    return density_from_matrix(hermitian_part(out), choi.output_shape, **tols)


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


def _named_residuals(j: np.ndarray, choi_shape: FactorShape, din: int, dout: int,
                     x_in: np.ndarray | None, target: np.ndarray | None) -> dict[str, float]:
    cp = max(0.0, -float(hermitian_spectrum(j).min()))
    ppt = max(0.0, -float(hermitian_spectrum(partial_transpose_entries(j, choi_shape)).min()))
    jh = hermitian_part(j)
    tp = float(np.abs(_trace_out_output(jh, din, dout) - np.eye(din)).max())
    res = {"cp": cp, "ppt": ppt, "tp": tp}
    if target is not None:
        res["correctness"] = float(np.abs(_apply_matrix(jh, din, dout, x_in) - target).max())
    return res


def _affine_projection(x_in: np.ndarray, target: np.ndarray, din: int, dout: int):
    """Orthogonal projection onto {Tr_out J = I, J(x_in) = target}.

    J - y (x) I - x_in (x) r2 with the minimal-norm multipliers, formed by
    broadcasting into the (in, out, in, out) index layout; real input
    data keep a real symmetric J real.
    """
    eye_in = np.eye(din)

    def proj(j: np.ndarray) -> np.ndarray:
        r1 = _trace_out_output(j, din, dout) - eye_in
        r2 = _apply_matrix(j, din, dout, x_in) - target
        y = (r1 - np.trace(r2).real * x_in) / dout
        out = j.reshape(din, dout, din, dout).copy()
        # subtract y (x) I through a writable diagonal view, then x_in (x) r2
        np.einsum("aibi->aib", out)[...] -= y[:, None, :]
        out -= x_in[:, None, :, None] * r2[None, :, None, :]
        return out.reshape(din * dout, din * dout)

    return proj


def verify_ppt_operation(choi: ChoiOperator, tol: float = 1e-9) -> SolveReport:
    """Check complete positivity, the PPT condition, and trace preservation."""
    res = _named_residuals(choi.op.entries, choi.op.shape,
                           choi.input_dim, choi.output_dim, None, None)
    ok = max(res.values()) <= tol
    return SolveReport(converged=ok, iterations=0, residuals=res,
                       feasible_point=choi if ok else None)


def synthesize_ppt_dilution(m: int, target: DensityOperator, max_iter: int = 20000,
                            tol: float = 1e-6, seed: int = 0,
                            check_every: int = 10) -> SolveReport:
    """Search for a PPT operation taking m maximally entangled pairs to the target.

    Alternating reflections over the PSD cone (complete positivity), the
    partial-transposed PSD cone (PPT condition), and the affine set
    combining trace preservation with exact correctness on the input.
    Infeasible instances surface as a residual stall; when the input is
    trivial and the target is NPT, the negative partial-transpose
    eigenvalue is attached as an analytic witness.  The input is real, so
    the search runs in the dtype of ``target.entries``: in float64 over
    real symmetric Choi matrices for a target stored real, in complex128
    for any other.
    """
    if m < 0:
        raise ValueError("ebit count must be >= 0")
    # the Choi matrix is (4^m * target.dim)-dimensional: refused before any input is built
    check_power_budget(4, m, "Choi", times=target.dim)
    if m == 0:
        in_shape = FactorShape(((1, 1),))
        x_in = np.ones((1, 1))
    else:
        in_shape = bipartite_shape(2, 2).copies(m)
        x_in = tensor_power(max_entangled(2).op, m).entries
    din, dout = in_shape.total_dim, target.dim
    dim = din * dout
    choi_shape = in_shape.concat(target.shape)

    def proj_ppt_cone(j: np.ndarray) -> np.ndarray:
        pt = partial_transpose_entries(j, choi_shape)
        return partial_transpose_entries(project_psd(pt), choi_shape)

    def residual_fn(j: np.ndarray) -> dict[str, float]:
        return _named_residuals(j, choi_shape, din, dout, x_in, target.entries)

    # real data: the feasible set is closed under complex conjugation, so
    # (J + conj J) / 2 of any feasible J is feasible and a real start keeps
    # the search on real symmetric matrices
    start = random_density_matrix(dim, np.random.default_rng(seed), target.entries.dtype) * din
    result = solve_feasibility(
        [project_psd, proj_ppt_cone, _affine_projection(x_in, target.entries, din, dout)],
        start, residual_fn,
        tol=tol, max_iter=max_iter, check_every=check_every,
    )

    npt_witness = None
    if din == 1:
        lo = float(target.partial_transpose_eigh[0][0])
        if lo < 0:
            npt_witness = lo

    feasible = None
    if result.converged:
        k_in = in_shape.n_factors
        k = choi_shape.n_factors
        feasible = ChoiOperator(LabeledOperator(choi_shape, result.point),
                                tuple(range(k_in)), tuple(range(k_in, k)))
    return SolveReport(
        converged=result.converged,
        iterations=result.iterations,
        residuals=result.residuals,
        feasible_point=feasible,
        stalled=result.stalled,
        npt_witness=npt_witness,
        best_history=tuple(result.best_history),
    )
