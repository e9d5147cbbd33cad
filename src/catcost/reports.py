"""Machine-readable scenario reports with text, CSV, and key-value rendering."""
from __future__ import annotations

import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__


def _encoded(value) -> str:
    """``json.dumps(value)`` for a key or scalar, with no encoder call for a plain one.

    Strings, ints and finite floats are encoded as the C encoder encodes
    them; NaN, the infinities and anything else go through ``json.dumps``.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for nested dicts of scalars.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder, whose
    closures leave a reference cycle per call; keys and leaves encoded
    one at a time (``_encoded``) leave none.
    """
    if not isinstance(value, dict):
        return _encoded(value)
    inner = indent + "  "
    return _block([f"{inner}{_encoded(key)}: {_indented_json(value[key], inner)}"
                   for key in sorted(value)], indent)


def _block(items: list[str], indent: str) -> str:
    """An object of the indented dump, at ``indent``, from its rendered items."""
    return "{\n" + ",\n".join(items) + "\n" + indent + "}" if items else "{}"


class ResultRow(NamedTuple):
    """A numeric result together with the tolerance its check used."""

    value: float
    tol: float | None = None


class ScenarioReport:
    """A scenario's parameters (the dict passed, or a new one), results and checks."""

    def __init__(self, scenario: str, parameters: dict | None = None) -> None:
        self.scenario = scenario
        self.version = __version__
        self.parameters = {} if parameters is None else parameters
        self.results = {}
        self.checks = {}

    def add_result(self, name: str, value: float, tol: float | None = None) -> None:
        self.results[name] = ResultRow(float(value), tol)

    def add_check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}", f"version: {self.version}"]
        for name, value in self.parameters.items():
            lines.append(f"param {name} = {value!r}")
        for name, row in self.results.items():
            tol = "" if row.tol is None else f"  [tol={row.tol!r}]"
            lines.append(f"result {name} = {row.value!r}{tol}")
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = [("section", "name", "value", "tol"), ("scenario", self.scenario, "", ""),
                ("version", self.version, "", "")]
        rows += [("param", name, repr(value), "") for name, value in self.parameters.items()]
        rows += [("result", name, repr(row.value), "" if row.tol is None else repr(row.tol))
                 for name, row in self.results.items()]
        rows += [("check", name, "PASS" if ok else "FAIL", "") for name, ok in self.checks.items()]
        rows.append(("overall", "", "PASS" if self.passed else "FAIL", ""))
        import csv  # only this format uses it

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)  # quotes a field where it must
        return out.getvalue()

    def to_keyvalue(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the report, written directly.

        The document's keys are fixed and written in sorted order: checks,
        overall, parameters, results (each a {tol, value} pair), scenario
        and version.  Every name and scalar goes through ``_encoded`` and
        the parameters through ``_indented_json``, so any value renders as
        ``json.dumps`` renders it.
        """
        checks = [f"    {_encoded(name)}: {_encoded(self.checks[name])}"
                  for name in sorted(self.checks)]
        results = [f'    {_encoded(name)}: {{\n      "tol": {_encoded(row.tol)},\n'
                   f'      "value": {_encoded(row.value)}\n    }}'
                   for name, row in sorted(self.results.items())]
        return (f'{{\n  "checks": {_block(checks, "  ")},\n'
                f'  "overall": {_encoded(self.passed)},\n'
                f'  "parameters": {_indented_json(self.parameters, "  ")},\n'
                f'  "results": {_block(results, "  ")},\n'
                f'  "scenario": {_encoded(self.scenario)},\n'
                f'  "version": {_encoded(self.version)}\n}}\n')

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json-like-keyvalue":
            return self.to_keyvalue()
        raise ValueError(f"unknown format {fmt!r}")
