"""The value and record classes: immutability, equality, validation and caching.

catcost declares them as ``typing.NamedTuple`` records or as plain classes
with an explicit ``__init__``, so that importing it compiles no generated
methods; the last tests guard that, and that no module imports a name it
never uses.
"""
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catcost
from catcost.broadcast import BroadcastReport, verify_broadcast
from catcost.catalysis import (
    AdvantageCertificate,
    NonconvexityWitness,
    ProtocolTrace,
    RateRecord,
    catalytic_cost_upper_bound,
    nonconvexity_witness,
    run_prop1_protocol,
)
from catcost.choi import (
    ChoiOperator,
    SolveReport,
    TwirledChoi,
    identity_choi,
    verify_ppt_operation,
)
from catcost.measures import (
    Applicability,
    BinegativityReport,
    CostValue,
    IsotropicCopies,
    binegativity,
    gated_ppt_cost,
)
from catcost.operators import (
    DensityOperator,
    FactorShape,
    LabeledOperator,
    PsdReport,
    Spectrum,
    bipartite_shape,
    eig_hermitian,
    identity_operator,
    is_psd,
    plain_shape,
)
from catcost.reports import ResultRow, ScenarioReport
from catcost.states import (
    GibbsQubit,
    IsotropicParams,
    isotropic,
    max_entangled,
    symmetric_two_broadcast,
)

from conftest import spectral_calls


def half_mixed(d=2):
    return isotropic(IsotropicParams(d, 0.5))


def correlated_broadcast(d=2):
    return symmetric_two_broadcast(max_entangled(d), isotropic(IsotropicParams(d, 0.0)))


def twirled_choi():
    a = np.eye(4) / 4
    return TwirledChoi(0, bipartite_shape(2, 2), a, a)


# class -> (a builder of one instance, the fields of a plain class)
PLAIN = {
    FactorShape: (lambda: bipartite_shape(2, 2), ("factors",)),
    LabeledOperator: (lambda: identity_operator(plain_shape(2)), ("shape", "entries")),
    DensityOperator: (half_mixed, ("op", "trace_tol", "psd_tol")),
    IsotropicCopies: (lambda: IsotropicCopies.isotropic(2, 0.5), ("d", "coeffs")),
    ChoiOperator: (lambda: identity_choi(plain_shape(2)),
                   ("op", "input_factors", "output_factors")),
    TwirledChoi: (twirled_choi, ("m", "output_shape", "a", "b")),
    SolveReport: (lambda: verify_ppt_operation(identity_choi(plain_shape(2))),
                  ("converged", "iterations", "residuals", "_build_point", "stalled",
                   "npt_witness", "log_negativity", "best_history")),
    CostValue: (lambda: gated_ppt_cost(half_mixed())[1], ("bits", "applicability")),
    RateRecord: (lambda: RateRecord(3, 2), ("m", "n")),
    IsotropicParams: (lambda: IsotropicParams(2, 0.5), ("d", "lam")),
    GibbsQubit: (lambda: GibbsQubit(0.25), ("p",)),
}

# NamedTuple class -> a builder of one instance
RECORDS = {
    BroadcastReport: lambda: verify_broadcast(correlated_broadcast(), isotropic(
        IsotropicParams(2, 0.5)), 2),
    ProtocolTrace: lambda: run_prop1_protocol(correlated_broadcast(), isotropic(
        IsotropicParams(2, 0.5))),
    AdvantageCertificate: lambda: catalytic_cost_upper_bound(half_mixed(), correlated_broadcast()),
    NonconvexityWitness: lambda: nonconvexity_witness(max_entangled(2), isotropic(
        IsotropicParams(2, 0.0))),
    BinegativityReport: lambda: binegativity(half_mixed()),
    Spectrum: lambda: eig_hermitian(half_mixed().op)[0],
    PsdReport: lambda: is_psd(half_mixed().op),
    ResultRow: lambda: ResultRow(0.5, 1e-9),
}

# the records whose fields are all values: two builds are equal and hash alike
HASHABLE_RECORDS = (BroadcastReport, AdvantageCertificate, BinegativityReport, Spectrum,
                    PsdReport, ResultRow)


def test_every_class_is_listed():
    assert len(PLAIN) + len(RECORDS) == 19


@pytest.mark.parametrize("cls", list(PLAIN) + list(RECORDS), ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    if cls in PLAIN:
        build, fields = PLAIN[cls]
    else:
        build, fields = RECORDS[cls], cls._fields
    obj = build()
    assert type(obj) is cls and fields
    for name in fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.unlisted = 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_compare_field_wise(cls):
    obj = RECORDS[cls]()
    copy = cls(*obj)
    assert copy == obj and copy is not obj
    assert repr(obj).startswith(f"{cls.__name__}({obj._fields[0]}=")
    if cls in HASHABLE_RECORDS:
        other = RECORDS[cls]()
        assert other == obj and hash(other) == hash(obj)
        assert len({obj, other}) == 1
    assert obj._replace(**{obj._fields[0]: object()}) != obj


def test_shapes_compare_by_value():
    a, b = FactorShape(((2, 2), (3, 1))), FactorShape([(2.0, 2), (3, True)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != FactorShape(((2, 2),)) and a != a.factors
    assert bipartite_shape(2, 2).copies(2) == FactorShape(((2, 2), (2, 2)))
    assert repr(a) == "FactorShape(factors=((2, 2), (3, 1)))"


def test_costs_compare_by_value():
    rho = half_mixed(3)
    a, b = gated_ppt_cost(rho)[1], gated_ppt_cost(rho)[1]
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != CostValue(a.bits, Applicability.UPPER_BOUND_ONLY)
    assert repr(a) == f"CostValue(bits={a.bits!r}, applicability={Applicability.EXACT_FORMULA!r})"


@pytest.mark.parametrize("build", [lambda: IsotropicCopies.isotropic(2, 0.5), twirled_choi],
                         ids=["IsotropicCopies", "TwirledChoi"])
def test_array_holders_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def op2(m):
    return LabeledOperator(plain_shape(2), np.array(m))


# the message of every validation refusal, as the code has always worded it
@pytest.mark.parametrize("build, message", [
    (lambda: FactorShape(()), "shape needs at least one factor"),
    (lambda: FactorShape(((0, 2),)), "factor dimensions must be >= 1, got ((0, 2),)"),
    (lambda: FactorShape(((2, -1), (3, 1))),
     "factor dimensions must be >= 1, got ((2, -1), (3, 1))"),
    (lambda: LabeledOperator(bipartite_shape(2, 2), np.eye(3)),
     "entries have shape (3, 3), expected (4, 4)"),
    (lambda: DensityOperator(op2([[np.nan, 0], [0, 1.0]])), "entries must be finite"),
    (lambda: DensityOperator(op2([[1.0, 0], [0, 1.0]])), "trace (2+0j) is not 1 within 1.0e-12"),
    (lambda: DensityOperator(op2([[0.5, 0.25], [0, 0.5]])), "not Hermitian: defect 2.500e-01"),
    (lambda: DensityOperator(op2([[1.5, 0], [0, -0.5]])),
     "not positive semidefinite: min eigenvalue -5.000e-01"),
    (lambda: IsotropicCopies(1, np.array([1.0, 0.0])), "local dimension must be >= 2"),
    (lambda: IsotropicCopies(2, np.array([1.0, 0.0, 0.0])),
     "coefficients have shape (3,), expected (2,) * k"),
    (lambda: IsotropicCopies(2, np.array([0.5, 0.5])), "trace 2.0 is not 1 within 1.0e-12"),
    (lambda: IsotropicCopies(2, np.array([1.3, -0.1])),
     "not positive semidefinite: min eigenvalue -1.000e-01"),
    (lambda: ChoiOperator(identity_choi(plain_shape(2)).op, (0,), (0, 1)),
     "input and output factors must partition the factor list"),
    (lambda: ChoiOperator(identity_choi(plain_shape(2)).op, (1,), (0,)),
     "input factors must come first"),
    (lambda: CostValue(1.0, Applicability.UNDEFINED),
     "a finite cost cannot have undefined applicability"),
    (lambda: RateRecord(-1, 1), "need m >= 0 and n >= 1"),
    (lambda: RateRecord(1, 0), "need m >= 0 and n >= 1"),
    (lambda: IsotropicParams(1, 0.5), "local dimension must be >= 2"),
    (lambda: IsotropicParams(2, 1.5), "mixing weight must lie in [0, 1]"),
    (lambda: GibbsQubit(0.5), "excited population must lie in (0, 1/2)"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_scenario_reports_share_no_dict():
    a, b = ScenarioReport("a"), ScenarioReport("b")
    assert a.version == b.version == catcost.__version__
    for name in ("parameters", "results", "checks"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    a.add_result("x", 1.0)
    a.add_check("ok", True)
    a.parameters["d"] = 2
    assert b.results == b.checks == b.parameters == {}
    a.scenario = "renamed"  # a report is filled in after it is built
    assert a.scenario == "renamed"


def test_scenario_report_keeps_the_dict_it_is_given():
    parameters = {"d": 2}
    report = ScenarioReport("a", parameters=parameters)
    assert report.parameters is parameters


@pytest.mark.parametrize("build, name", [
    (lambda: bipartite_shape(2, 3), "factor_dims"),
    (half_mixed, "partial_transpose_eigh"),
    (half_mixed, "partial_transpose_trace_norm"),
    (half_mixed, "binegativity_min_eigenvalue"),
    (lambda: IsotropicCopies.isotropic(2, 0.5), "shape"),
    (lambda: IsotropicCopies.isotropic(2, 0.5), "partial_transpose_coeffs"),
    (lambda: IsotropicCopies.isotropic(2, 0.5), "partial_transpose_trace_norm"),
    (lambda: IsotropicCopies.isotropic(2, 0.5), "binegativity_min_eigenvalue"),
    (lambda: verify_ppt_operation(identity_choi(plain_shape(2))), "feasible_point"),
])
def test_cached_property_is_kept_on_the_instance(build, name):
    obj = build()
    assert name not in vars(obj)
    first = getattr(obj, name)
    assert vars(obj)[name] is first and getattr(obj, name) is first


def test_cached_property_is_computed_once(monkeypatch):
    rho = half_mixed()
    seen = spectral_calls(monkeypatch)
    w, _ = rho.partial_transpose_eigh
    assert rho.partial_transpose_eigh[0] is w
    assert [name for name, _, _ in seen] == ["eigh"]

    built = []
    report = SolveReport(True, 0, {}, lambda: built.append(1) or "point")
    assert report.feasible_point == report.feasible_point == "point"
    assert built == [1]
    assert SolveReport(False, 0, {}).feasible_point is None


# ---------------------------------------------------------------------------
# start-up generates no code


def test_no_class_has_generated_fields():
    modules = [catcost] + [importlib.import_module(f"catcost.{m.name}")
                           for m in pkgutil.iter_modules(catcost.__path__)]
    classes = [obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__.startswith("catcost")]
    assert SolveReport in classes and ScenarioReport in classes
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []


def test_no_source_imports_dataclasses():
    sources = sorted(Path(catcost.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [n.split(".")[0] for n in names], path.name


def test_no_module_imports_a_name_it_never_uses():
    # module-level imports against every ast.Name read; __init__.py imports
    # to re-export, and annotations names a compiler directive
    sources = [p for p in sorted(Path(catcost.__file__).parent.glob("*.py"))
               if p.name != "__init__.py"]
    assert len(sources) > 1
    for path in sources:
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used - {"annotations"} == set(), path.name


def test_import_loads_no_dataclasses_module():
    """If numpy leaves ``dataclasses`` or ``csv`` unloaded, so does ``import catcost.cli``."""
    code = ("import sys, numpy\n"
            "names = ('dataclasses', 'csv')\n"
            "before = [n in sys.modules for n in names]\n"
            "import catcost.cli\n"
            "print(*[n for n, b in zip(names, before) if not b and n in sys.modules])")
    src = str(Path(catcost.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == []
