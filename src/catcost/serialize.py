"""Matrix interchange format.

A JSON text document with two fields: ``shape``, a list of [dimA, dimB]
pairs, and ``entries``, the row-major list of [re, im] pairs.  Choi
documents add ``input_factors``, the list of input factor indices.
"""
from __future__ import annotations

import gc
import itertools
import json
from pathlib import Path

import numpy as np

from .choi import ChoiOperator
from .operators import (
    DensityOperator,
    FactorShape,
    LabeledOperator,
    check_entry_budget,
)


def operator_to_document(x: LabeledOperator) -> dict:
    flat = x.entries.reshape(-1)
    return {
        "shape": [[a, b] for a, b in x.shape.factors],
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple if each is exactly a JSON integer.

    By exact type: true/false, whose bool is an int, and 2.0, 2.7 and "2",
    which ``int`` would coerce, are refused.
    """
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise ValueError(f"{what} must be integers, got {list(values)!r}")
    return values


def operator_from_document(doc: dict) -> LabeledOperator:
    try:
        factors = tuple(_integers(pair, "shape dimensions") for pair in doc["shape"])
        pairs = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc
    shape = FactorShape(factors)
    n = shape.total_dim
    check_entry_budget(n, "operator")
    return LabeledOperator(shape, _entries_from_pairs(pairs, n))


def _entries_from_pairs(pairs, n: int) -> np.ndarray:
    """The n x n complex matrix of a list of n^2 [re, im] pairs of finite JSON numbers."""
    expected = f"expected {n * n} [re, im] pairs of numbers"
    try:
        if len(pairs) != n * n or set(map(len, pairs)) != {2}:
            raise ValueError(expected)
        flat = list(itertools.chain.from_iterable(pairs))
        # by exact type: JSON numbers read as int or float, and true/false,
        # whose bool is an int, are refused with strings, nulls and containers
        if not set(map(type, flat)) <= {int, float}:
            raise ValueError(expected)
        parts = np.fromiter(flat, np.float64, count=2 * n * n)
    except (TypeError, OverflowError) as exc:
        raise ValueError(expected) from exc
    if not np.isfinite(parts).all():
        raise ValueError("entries must be finite")
    return parts.view(np.complex128).reshape(n, n)


def choi_to_document(choi: ChoiOperator) -> dict:
    doc = operator_to_document(choi.op)
    doc["input_factors"] = list(choi.input_factors)
    return doc


def choi_from_document(doc: dict) -> ChoiOperator:
    op = operator_from_document(doc)
    try:
        ins = _integers(doc["input_factors"], "input factors")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Choi document: {exc}") from exc
    outs = tuple(i for i in range(op.shape.n_factors) if i not in ins)
    return ChoiOperator(op, ins, outs)


def save_operator(x: LabeledOperator, path: str | Path) -> None:
    Path(path).write_text(json.dumps(operator_to_document(x)))


def _load(path: str | Path, what: str, build):
    text = Path(path).read_text()
    collecting = gc.isenabled()
    gc.disable()  # the decoded lists hold no cycles, but each collection walks them all
    try:  # a nesting deeper than the parser's recursion limit is malformed too
        return build(json.loads(text))
    except RecursionError as exc:
        raise ValueError(f"malformed {what} document: nested too deeply") from exc
    finally:
        if collecting:
            gc.enable()


def load_operator(path: str | Path) -> LabeledOperator:
    return _load(path, "operator", operator_from_document)


def load_density(path: str | Path) -> DensityOperator:
    return DensityOperator(load_operator(path))


def save_choi(choi: ChoiOperator, path: str | Path) -> None:
    Path(path).write_text(json.dumps(choi_to_document(choi)))


def load_choi(path: str | Path) -> ChoiOperator:
    return _load(path, "Choi", choi_from_document)
