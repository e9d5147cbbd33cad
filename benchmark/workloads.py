"""The benchmark's workloads: the CLI invocations of one pass and their checks.

A workload is built from the benchmark seed alone.  Every catcost seed
(``rigidity --seed``, ``synthesize --seed``) and every drawn parameter
(``--lam``, ``--p``, the random states behind the ``verify-broadcast``
files) comes from that seed, so catcost receives only generated argv and
files.  Every pass of one run repeats the same invocations, which keeps
per-pass work counters exact.

Each invocation renders its report as JSON; the check parses it and
compares values against closed forms at the acceptance tolerances.
Values, not bytes, are compared: the last digits of some reports depend
on the BLAS thread count.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# one check returns the list of problems it found; empty means correct
Check = Callable[[int | None, str], list[str]]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its scenario kind, argv, and the check on its output."""

    kind: str
    argv: tuple[str, ...]
    check: Check


def _report(rc: int | None, out: str, want_rc: int) -> tuple[dict | None, list[str]]:
    if rc != want_rc:
        return None, [f"exit code {rc}, expected {want_rc}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]


def _value(doc: dict, name: str) -> float:
    return doc["results"][name]["value"]


def _near(doc: dict, name: str, want: float, tol: float) -> list[str]:
    got = _value(doc, name)
    if abs(got - want) <= tol:
        return []
    return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]


def _at_most(doc: dict, name: str, limit: float) -> list[str]:
    got = _value(doc, name)
    return [] if got <= limit else [f"{name} = {got!r} exceeds {limit:g}"]


def _passed(doc: dict) -> list[str]:
    failed = [name for name, ok in doc["checks"].items() if not ok]
    if doc["overall"] and not failed:
        return []
    return [f"report checks failed: {failed}"]


def _checked(want_rc: int, body: Callable[[dict], list[str]]) -> Check:
    def check(rc: int | None, out: str) -> list[str]:
        doc, problems = _report(rc, out, want_rc)
        if doc is None:
            return problems
        try:
            return body(doc)
        except (KeyError, TypeError) as exc:
            return [f"report lacks a field: {exc!r}"]
    return check


def _argv(*args) -> tuple[str, ...]:
    return ("--format", "json-like-keyvalue") + tuple(str(a) for a in args)


# ---------------------------------------------------------------------------
# one builder per scenario kind


def half_mixed_log_negativity(d: int) -> float:
    """E_N of the lam = 1/2 isotropic state: log2((d^2 + 1) / d) - 1."""
    return math.log2((d * d + 1) / d) - 1.0


def werner(d: int) -> Call:
    ln = half_mixed_log_negativity(d)

    def body(doc: dict) -> list[str]:
        problems = _passed(doc) + _near(doc, "ln_rho", ln, 1e-9)
        if d ** 4 <= 1000:
            problems += (_near(doc, "ln_mu", ln, 1e-9)
                         + _near(doc, "cost_standard", ln, 1e-9)
                         + _near(doc, "cost_upper_catalytic", ln / 2.0, 1e-9)
                         + _near(doc, "advantage_gap", ln / 2.0, 1e-9)
                         + _near(doc, "superadditivity_violation", ln, 1e-9))
            for name in ("binegativity_rho", "binegativity_mu"):
                if _value(doc, name) < -1e-9:
                    problems.append(f"{name} = {_value(doc, name)!r} is negative")
        return problems

    return Call("werner", _argv("werner-example", "--d", d), _checked(0, body))


def thermo(p: float) -> Call:
    standard = math.log2((1.0 - p / 2.0) / (1.0 - p))
    upper = 0.5 * math.log2(1.0 / (1.0 - p))

    def body(doc: dict) -> list[str]:
        problems = _passed(doc)
        for name in doc["results"]:
            if name.startswith("w(q="):
                q = float(name[4:-1])
                problems += _near(doc, name, math.log2((1.0 - q * p) / (1.0 - p)), 1e-12)
        problems += (_near(doc, "midpoint_violation", standard - upper, 1e-12)
                     + _near(doc, "work_cost_standard", standard, 1e-12)
                     + _near(doc, "work_cost_upper_catalytic", upper, 1e-12)
                     + _near(doc, "thermo_gap", standard - upper, 1e-12))
        return problems

    return Call("thermo", _argv("thermo-example", "--p", p), _checked(0, body))


def dmax(d: int, lam: float) -> Call:
    fidelity = lam + (1.0 - lam) / (d * d)
    ln = max(0.0, math.log2(d * fidelity))

    def body(doc: dict) -> list[str]:
        return (_passed(doc) + _near(doc, "ln", ln, 1e-9)
                + _near(doc, "dmax_to_ppt", ln, 1e-6))

    return Call("dmax", _argv("dmax-ppt", "--d", d, "--lam", lam), _checked(0, body))


def protocol(d: int) -> Call:
    def body(doc: dict) -> list[str]:
        return (_passed(doc) + _at_most(doc, "catalyst_residual", 1e-10)
                + _at_most(doc, "system_residual", 1e-10))

    return Call("protocol", _argv("protocol", "--d", d), _checked(0, body))


def verify_broadcast(mu_path: Path, rho_path: Path) -> Call:
    def body(doc: dict) -> list[str]:
        problems = _passed(doc)
        for i in range(2):
            problems += _at_most(doc, f"marginal_residual_{i}", 1e-9)
        return problems

    return Call("verify_broadcast",
                _argv("verify-broadcast", mu_path, rho_path, "--n", 2), _checked(0, body))


def rigidity(seed: int) -> Call:
    def body(doc: dict) -> list[str]:
        return _passed(doc) + _at_most(doc, "max_distance_to_product", 1e-6)

    return Call("rigidity", _argv("rigidity", "--d", 2, "--starts", 50, "--seed", seed),
                _checked(0, body))


def synthesize(target: str, m: int, seed: int) -> Call:
    argv = _argv("synthesize", target, "--m", m, "--seed", seed)

    def feasible(doc: dict) -> list[str]:
        problems = _passed(doc)
        for name in doc["results"]:
            if name.startswith("residual_"):
                problems += _at_most(doc, name, 1e-6)
        if doc["parameters"]["stalled"]:
            problems.append("feasible solve stalled")
        return problems

    def infeasible(doc: dict) -> list[str]:
        # noisy-phi-d is the lam = 1/2 isotropic state; its partial transpose
        # has least eigenvalue -lam/d + (1 - lam)/d^2
        d = int(target.rsplit("-", 1)[1])
        problems = _near(doc, "npt_witness", -0.5 / d + 0.5 / (d * d), 1e-9)
        if not doc["parameters"]["stalled"]:
            problems.append("infeasible solve did not stall")
        if not _value(doc, "npt_witness") < 0:
            problems.append("npt_witness is not negative")
        return problems

    if m == 0:
        return Call("infeasible", argv, _checked(4, infeasible))
    return Call("synthesize", argv, _checked(0, feasible))


# ---------------------------------------------------------------------------
# workloads


def _draw_seed(rnd: random.Random) -> int:
    return rnd.randrange(2 ** 31)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _write_matrix(path: Path, shape: list[list[int]], m: np.ndarray) -> None:
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    path.write_text(json.dumps({"shape": shape, "entries": entries}))


def broadcast_files(d: int, rng: np.random.Generator, workdir: Path) -> tuple[Path, Path]:
    """Write a random two-copy broadcast mu of rho = (s0 + s1)/2 on a (d, d) system."""
    s0, s1 = _random_state(rng, d * d), _random_state(rng, d * d)
    rho = (s0 + s1) / 2.0
    mu = (np.kron(s0, s1) + np.kron(s1, s0)) / 2.0
    mu_path, rho_path = workdir / f"mu_d{d}.json", workdir / f"rho_d{d}.json"
    _write_matrix(mu_path, [[d, d], [d, d]], mu)
    _write_matrix(rho_path, [[d, d]], rho)
    return mu_path, rho_path


def werner_d5(rnd: random.Random, workdir: Path) -> list[Call]:
    return [werner(5)]


def rigidity_d2(rnd: random.Random, workdir: Path) -> list[Call]:
    return [rigidity(_draw_seed(rnd))]


def synthesis(rnd: random.Random, workdir: Path) -> list[Call]:
    return [synthesize("noisy-phi-3", 2, _draw_seed(rnd)),
            synthesize("broadcast-phi-2", 1, _draw_seed(rnd)),
            synthesize("noisy-phi-2", 0, _draw_seed(rnd))]


def sweep(rnd: random.Random, workdir: Path) -> list[Call]:
    calls = [werner(d) for d in (2, 3, 4)]
    calls.append(thermo(round(rnd.uniform(0.05, 0.45), 6)))
    calls += [dmax(d, round(rnd.uniform(0.25, 0.95), 6)) for d in range(2, 9)]
    calls.append(protocol(2))
    rng = np.random.default_rng(_draw_seed(rnd))
    calls += [verify_broadcast(*broadcast_files(d, rng, workdir)) for d in (2, 3, 4)]
    calls.append(synthesize("noisy-phi-2", 1, _draw_seed(rnd)))
    return calls


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Call]]] = {
    "werner-d5": werner_d5,
    "rigidity-d2": rigidity_d2,
    "synthesis": synthesis,
    "sweep": sweep,
}


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    """The invocations of one pass of ``workload``, derived from ``seed``."""
    return WORKLOADS[workload](random.Random(seed), workdir)
