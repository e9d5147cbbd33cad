"""Self-test of the benchmark: exact work counters and the correctness gate.

Run from the repository root:

    python3 -m pytest -q benchmark/test_counters.py

Importing ``run`` pins the BLAS thread count before numpy is loaded.  The
pinned counts were measured with catcost 0.1.0 at one BLAS thread; a
change that alters them does different work and has to say so.
"""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

EXACT = ("operators.eigh.calls", "operators.eigh.n3",
         "operators.eigvalsh.calls", "projections.cycles")


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield Path(path)
    shutil.rmtree(path, ignore_errors=True)


def traced_pass(calls) -> Tracer:
    """One checked pass over ``calls`` with the tracer installed."""
    passes = run.Passes(calls)
    tracer = Tracer()
    tracer.install(run.catcost_modules())
    try:
        passes.run()
    finally:
        tracer.uninstall()
    assert passes.failed == 0, passes.problems
    return tracer


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_for_a_seed(workload, workdir):
    first = traced_pass(workloads.build(workload, 7, workdir)).metrics(1)
    second = traced_pass(workloads.build(workload, 7, workdir)).metrics(1)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    per_layer = {m["name"] for m in run.load_spec()["per_layer"]}
    assert per_layer - {"trace.overhead_s"} <= set(first)


def test_werner_d5_decompositions():
    metrics = traced_pass([workloads.werner(5)]).metrics(1)
    assert metrics["operators.eigh.n625.calls"] == 6
    assert metrics["operators.eigvalsh.n625.calls"] == 4


def test_rigidity_seed_42_cycles():
    metrics = traced_pass([workloads.rigidity(42)]).metrics(1)
    assert metrics["projections.solves"] == 50
    assert metrics["projections.cycles"] == 14160


def test_synthesis_seed_0_cycles():
    tracer = traced_pass([workloads.synthesize("noisy-phi-3", 2, 0),
                          workloads.synthesize("broadcast-phi-2", 1, 0),
                          workloads.synthesize("noisy-phi-2", 0, 0)])
    assert [(it, stalled) for _, it, _, stalled in tracer.solves] == [
        (70, False), (80, False), (520, True)]


def test_gate_rejects_wrong_values_and_exit_codes():
    import catcost.cli

    call = workloads.werner(2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = catcost.cli.main(list(call.argv))
    report = out.getvalue()
    assert call.check(rc, report) == []
    doc = json.loads(report)
    doc["results"]["ln_rho"]["value"] += 1e-8
    assert call.check(rc, json.dumps(doc))
    assert call.check(4, report)
    assert workloads.synthesize("noisy-phi-2", 0, 0).check(0, report)
