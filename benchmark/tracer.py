"""Outside-in tracer: spans around catcost's public functions, installed by the benchmark.

Nothing under ``src/`` knows about it.  ``install`` replaces every public
function at every module binding (``from .operators import trace_norm``
copies the name into ``measures``, so wrapping ``catcost.operators``
alone would miss cross-module calls), two methods
(``DensityOperator.__post_init__``, the validation run on construction,
and ``ScenarioReport.render``), and ``numpy.linalg.eigh``/``eigvalsh``.
Eigendecompositions are counted at numpy because ``solve_feasibility``
binds ``readout=project_psd`` at definition time, out of reach of a
module-level wrapper.

Spans (operation, start, end, parent) are kept in flat arrays and
reduced at the end: a span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import math
import time
from array import array
from pathlib import Path
from types import ModuleType

import numpy as np

# function -> operation name, where the benchmark's metric name differs
# from "<module>.<function>"
ALIASES = {
    "catalysis.catalytic_cost_upper_bound": "catalysis.cost_bound",
    "catalysis.superadditivity_violation": "catalysis.superadditivity",
    "catalysis.run_prop1_protocol": "catalysis.protocol",
    "broadcast.verify_broadcast": "broadcast.verify",
    "broadcast.sample_two_copy_broadcasts": "broadcast.sample",
    "projections.solve_feasibility": "projections.solve",
    "choi.synthesize_ppt_dilution": "choi.synthesize",
    "serialize.load_density": "serialize.load",
    "serialize.load_operator": "serialize.load",
    "serialize.load_choi": "serialize.load",
    "serialize.operator_from_document": "serialize.load",
    "serialize.choi_from_document": "serialize.load",
}
# modules whose public functions form one operation
GROUPS = {"states": "states.build"}
EIG_SIZES = (4, 16, 64, 144, 625)  # the eigh sizes the benchmark reports


def operation_name(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    if module in GROUPS:
        return GROUPS[module]
    name = f"{module}.{fn.__name__}"
    return ALIASES.get(name, name)


class Tracer:
    """Span recorder for one traced phase; ``install`` before it, ``uninstall`` after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.eigs: list[tuple[int, int, int]] = []  # span, matrix order, matrices in the call
        self.solves: list[tuple[int, int, bool, bool]] = []  # span, iterations, converged, stalled
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def _op_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, eig: bool = False, on_result=None):
        op = self._op_id(name)
        ops, parent, start, end = self.op, self.parent, self.start, self.end
        eigs, stack = self.eigs, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ops)
            ops.append(op)
            parent.append(stack[-1])
            if eig:
                shape = np.shape(args[0])
                eigs.append((i, shape[-1], math.prod(shape[:-2])))
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(i, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _record_solve(self, span: int, result) -> None:
        self.solves.append((span, result.iterations, result.converged, result.stalled))

    def install(self, modules: list[ModuleType]) -> None:
        from catcost.operators import DensityOperator
        from catcost.reports import ScenarioReport

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("catcost")):
                    continue
                if id(obj) not in self._wrapped:
                    name = operation_name(obj)
                    hook = self._record_solve if name == "projections.solve" else None
                    self._wrapped[id(obj)] = self._wrap(obj, name, on_result=hook)
                self._patch(module, attr, self._wrapped[id(obj)])
        self._patch(DensityOperator, "__post_init__",
                    self._wrap(DensityOperator.__post_init__, "operators.density_check"))
        self._patch(ScenarioReport, "render",
                    self._wrap(ScenarioReport.render, "reports.render"))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr,
                        self._wrap(getattr(np.linalg, attr), f"operators.{attr}", eig=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass counters and self times of every traced operation.

        ``<op>.calls`` counts outermost entries (a call nested inside the
        same operation is part of it); ``<op>.s`` is summed self time.
        """
        ops, parent = self.op, self.parent
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(ops)
        calls: dict[str, float] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        # children follow their parent, so in reverse order a span's child
        # time is complete when the span is reached
        for i in reversed(range(len(ops))):
            name = self.names[ops[i]]
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
            if p < 0 or ops[p] != ops[i]:
                calls[name] = calls.get(name, 0) + 1
                total_s[name] = total_s.get(name, 0.0) + duration[i]
            self_s[name] = self_s.get(name, 0.0) + duration[i] - child[i]
        eig: dict[str, float] = {}
        for i, n, batch in self.eigs:
            name = self.names[ops[i]]
            eig[f"{name}.n3"] = eig.get(f"{name}.n3", 0) + batch * n ** 3
            eig[f"{name}.n{n}.calls"] = eig.get(f"{name}.n{n}.calls", 0) + 1
            eig[f"{name}.n{n}.s"] = eig.get(f"{name}.n{n}.s", 0.0) + duration[i]

        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls.get(name, 0) / passes
            out[f"{name}.s"] = self_s.get(name, 0.0) / passes
        # every size that occurred, and zeros for the reported sizes that did not
        for key in ("operators.eigh.n3", "operators.eigvalsh.n3"):
            eig.setdefault(key, 0)
        for n in EIG_SIZES:
            for stat in ("calls", "s"):
                eig.setdefault(f"operators.eigh.n{n}.{stat}", 0)
        out.update({key: value / passes for key, value in eig.items()})

        scenario_s = sum(s for name, s in total_s.items() if name.startswith("cli.scenario_"))
        out["cli.overhead.s"] = (total_s.get("cli.main", 0.0) - scenario_s) / passes

        solves = len(self.solves)
        cycles = sum(it for _, it, _, _ in self.solves)
        solve_s = sum(duration[span] for span, _, _, _ in self.solves)
        out["projections.solves"] = solves / passes
        out["projections.cycles"] = cycles / passes
        out["projections.cycles_per_solve"] = cycles / solves if solves else 0.0
        out["projections.cycle_s"] = solve_s / cycles if cycles else 0.0
        out["projections.converged_ratio"] = (
            sum(conv for _, _, conv, _ in self.solves) / solves if solves else 0.0)
        out["projections.stalled"] = sum(st for _, _, _, st in self.solves) / passes
        out["projections.stall_cycles"] = sum(
            it for _, it, _, st in self.solves if st) / passes
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: operation, start and end in seconds, parent index."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.op)):
                f.write(f"{i},{self.names[self.op[i]]},{self.start[i] - t0:.9f},"
                        f"{self.end[i] - t0:.9f},{self.parent[i]}\n")
