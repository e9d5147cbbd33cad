"""Command-line frontend: every headline example as a named scenario.

Exit codes: 0 all checks pass, 2 usage, 3 file or parse error,
4 numerical failure (any failed check; residuals are in the report).
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .broadcast import (BROADCAST_TOL, RIGIDITY_TOL, max_twirled_distance_to_product,
                        verify_broadcast)
from .catalysis import (
    catalytic_cost_upper_bound,
    nonconvexity_witness,
    run_prop1_protocol,
    thermo_advantage,
)
from .choi import SYNTHESIS_MAX_CYCLES, SYNTHESIS_TOL, synthesize_ppt_dilution
from .measures import (
    IsotropicCopies,
    d_max_to_ppt_isotropic,
    log_negativity,
    work_cost_semiclassical,
)
from .operators import (
    ResourceLimitError,
    check_entry_budget,
    check_power_budget,
)
from .reports import ScenarioReport
from .serialize import load_density
from .states import classical_mix, gibbs_qubit

# thermo-example makes one work-cost evaluation and one report line per
# grid point; a larger grid is refused before np.linspace allocates it.
MAX_Q_GRID = 10_000


# The half-mixed state and its broadcast with white noise lie in the
# isotropic-copies algebra: 2 and 4 coefficients.  Each scenario that
# names them builds them here; protocol runs on their to_density().
def _half_mixed(d: int) -> IsotropicCopies:
    return IsotropicCopies.isotropic(d, 0.5)


def _broadcast_of_half_mixed(d: int) -> IsotropicCopies:
    return IsotropicCopies.symmetric_two_broadcast(IsotropicCopies.isotropic(d, 1.0),
                                                   IsotropicCopies.isotropic(d, 0.0))


def scenario_werner(d: int) -> ScenarioReport:
    # every value below is a closed form in the coefficients of rho and mu
    report = ScenarioReport("werner-example", parameters={"d": d})
    rho = _half_mixed(d)
    ln_rho = log_negativity(rho)
    closed_form = math.log2((d * d + 1) / d) - 1.0
    report.add_result("ln_rho", ln_rho, 1e-9)
    report.add_result("closed_form", closed_form, 1e-9)
    report.add_check("werner_formula", abs(ln_rho - closed_form) <= 1e-9)

    mu = _broadcast_of_half_mixed(d)
    ln_mu = log_negativity(mu)
    report.add_result("ln_mu", ln_mu, 1e-9)
    report.add_check("broadcast_equality", abs(ln_mu - ln_rho) <= 1e-9)
    cert = catalytic_cost_upper_bound(rho, mu)
    gate_rho, gate_mu = cert.gate_target, cert.gate_broadcast
    report.add_result("binegativity_rho", gate_rho.min_eigenvalue, 1e-9)
    report.add_result("binegativity_mu", gate_mu.min_eigenvalue, 1e-9)
    report.add_check("binegativity_gates", gate_rho.positive and gate_mu.positive)
    report.add_result("cost_standard", cert.cost_standard.bits, 1e-9)
    report.add_result("cost_upper_catalytic", cert.cost_upper_catalytic, 1e-9)
    report.add_result("advantage_gap", cert.gap, 1e-9)
    report.add_check("halving_identity", cert.valid and abs(cert.gap - ln_rho / 2.0) <= 1e-9)
    violation = cert.superadditivity_violation()
    report.add_result("superadditivity_violation", violation, 1e-9)
    report.add_check("superadditivity_violated", abs(violation - ln_rho) <= 1e-9 and violation > 0)
    return report


def scenario_thermo(p: float, q_grid: int = 5) -> ScenarioReport:
    report = ScenarioReport("thermo-example", parameters={"p": p, "q_grid": q_grid})
    gamma = gibbs_qubit(p)
    # the grid ends at exactly 0.0 and 1.0, where classical_mix(1.0, p) is
    # gamma bit for bit: its first and last costs are the closed-form checks
    costs = []
    for q in np.linspace(0.0, 1.0, q_grid):
        costs.append(work_cost_semiclassical(classical_mix(float(q), p), gamma))
        report.add_result(f"w(q={q:.6f})", costs[-1], 1e-12)
    report.add_check("w_at_q0", abs(costs[0] - math.log2(1.0 / (1.0 - p))) <= 1e-12)
    report.add_check("w_at_q1", abs(costs[-1]) <= 1e-12)

    ground = classical_mix(0.0, p)
    witness = nonconvexity_witness(ground, gamma, gamma=gamma)
    closed_violation = (math.log2((1.0 - p / 2.0) / (1.0 - p))
                        - 0.5 * math.log2(1.0 / (1.0 - p)))
    report.add_result("midpoint_violation", witness.violation, 1e-12)
    report.add_result("midpoint_violation_closed_form", closed_violation, 1e-12)
    report.add_check("nonconvexity", abs(witness.violation - closed_violation) <= 1e-12
                     and witness.violation > 0)
    report.add_check("witness_chain", bool(witness.chain_ok))

    cert = thermo_advantage(p)
    report.add_result("work_cost_standard", cert.cost_standard.bits, 1e-12)
    report.add_result("work_cost_upper_catalytic", cert.cost_upper_catalytic, 1e-12)
    report.add_result("thermo_gap", cert.gap, None)
    report.add_check("thermo_gap_positive", cert.gap > 0)
    return report


def scenario_dmax_ppt(d: int, lam: float) -> ScenarioReport:
    # rho is two coefficients, so the budget guards no allocation: it is
    # the CLI's size cap, and it runs first, before IsotropicCopies refuses
    # a d of ranks past the float range with a ValueError that main does
    # not catch
    check_entry_budget(d * d, "dmax-ppt state")
    report = ScenarioReport("dmax-ppt", parameters={"d": d, "lam": lam})
    rho = IsotropicCopies.isotropic(d, lam)
    ln = log_negativity(rho)
    dm = d_max_to_ppt_isotropic(rho)
    report.add_result("ln", ln, 1e-6)
    report.add_result("dmax_to_ppt", dm, 1e-6)
    report.add_check("dmax_equals_ln", abs(dm - ln) <= 1e-6)
    return report


# family -> (the target's constructor, its dimension as a power of D)
_NAMED_TARGETS = {"noisy": (_half_mixed, 2), "broadcast": (_broadcast_of_half_mixed, 4)}


def _parse_named_target(name: str) -> tuple[str, int] | None:
    """(family, D) for a ``noisy-phi-D`` or ``broadcast-phi-D`` name, else None.

    D is spelled as Python prints it, in ASCII digits with no leading
    zero, so the report's target is the target searched; any other
    spelling names a matrix file.
    """
    parts = name.split("-")
    if (len(parts) == 3 and parts[0] in _NAMED_TARGETS and parts[1] == "phi"
            and re.fullmatch("0|[1-9][0-9]*", parts[2])):
        return parts[0], int(parts[2])
    return None


def _named_target(name: str):
    """The named target as ``IsotropicCopies``, None for a matrix file.

    Refused over the entry budget of its dense D x D blocks.
    """
    parsed = _parse_named_target(name)
    if parsed is None:
        return None
    family, d = parsed
    build, power = _NAMED_TARGETS[family]
    check_power_budget(d, power, "synthesis target")
    return build(d)


def scenario_synthesize(m: int, target_name: str, tol: float, max_iter: int,
                        seed: int) -> ScenarioReport:
    # every search starts at I/D, so seed acts on nothing; it is accepted
    # and echoed because callers pass it
    target = _named_target(target_name)
    if target is None:
        target = load_density(target_name)
    report = ScenarioReport("synthesize", parameters={"m": m, "target": target_name, "tol": tol,
                                                      "max_iter": max_iter, "seed": seed})
    solve = synthesize_ppt_dilution(m, target, max_iter=max_iter, tol=tol)
    for name, value in solve.residuals.items():
        report.add_result(f"residual_{name}", value, tol)
    report.parameters["iterations"] = solve.iterations
    report.parameters["stalled"] = solve.stalled
    for certificate in ("npt_witness", "log_negativity"):
        if getattr(solve, certificate) is not None:
            report.add_result(certificate, getattr(solve, certificate), None)
            report.parameters["infeasible"] = True
    report.add_check("converged", solve.converged)
    return report


def scenario_verify_broadcast(mu_path: str, rho_path: str, n: int, tol: float) -> ScenarioReport:
    mu = load_density(mu_path)
    rho = load_density(rho_path)
    report = ScenarioReport("verify-broadcast", parameters={"mu": mu_path, "rho": rho_path, "n": n})
    result = verify_broadcast(mu, rho, n, tol=tol)
    for i, r in enumerate(result.residuals):
        report.add_result(f"marginal_residual_{i}", r, tol)
    report.add_check("is_broadcast", result.is_broadcast)
    return report


def scenario_protocol(d: int, n: int) -> ScenarioReport:
    # rho is d^2- and its broadcast d^4-dimensional: the instance is refused
    # on d^(6n) before either is built
    check_power_budget(d ** 6, n, "protocol instance")
    report = ScenarioReport("protocol", parameters={"d": d, "n": n})
    rho = _half_mixed(d).to_density()
    mu = _broadcast_of_half_mixed(d).to_density()
    trace = run_prop1_protocol(mu, rho, n=n)
    report.add_result("catalyst_residual", trace.residuals["catalyst"], trace.tol)
    report.add_result("system_residual", trace.residuals["system"], trace.tol)
    report.add_check("catalyst_returned", trace.residuals["catalyst"] <= trace.tol)
    report.add_check("system_prepared", trace.residuals["system"] <= trace.tol)
    return report


def scenario_rigidity(d: int, starts: int, seed: int, tol: float = RIGIDITY_TOL) -> ScenarioReport:
    # Phi_d's broadcast set is computed, not sampled, so starts and seed act
    # on nothing; they are accepted and echoed because callers pass them
    report = ScenarioReport("rigidity", parameters={"d": d, "starts": starts, "seed": seed})
    worst = max_twirled_distance_to_product(d)
    report.add_result("max_distance_to_product", worst, tol)
    report.add_check("broadcast_set_is_singleton", worst <= tol)
    return report


def _checked(kind, accept, expected: str):
    """An argparse type: ``kind(text)``, a usage error unless ``accept`` holds for it."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:  # also an integer of more digits than int() reads
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _int_in(lo: int, hi: int | None = None):
    if hi is None:
        return _checked(int, lambda v: v >= lo, f"an integer >= {lo}")
    return _checked(int, lambda v: lo <= v <= hi, f"an integer in {lo}..{hi}")


# every tolerance; inf would pass every residual check and is not JSON
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")


def _target(text: str) -> str:
    named = _parse_named_target(text)
    if named is not None and named[1] < 2:
        raise argparse.ArgumentTypeError(f"{text}: the local dimension D must be >= 2")
    return text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The scenario table: each scenario's name, help, runner and arguments.

    Each argument's ``type`` checks its range, so out-of-range input is a
    usage error before the runner starts.  One parser per process:
    parse_args leaves it unchanged, and a parser built per call is ~300
    objects of cyclic garbage that repeated in-process calls leave to the
    collector.
    """
    parser = argparse.ArgumentParser(
        prog="catcost",
        description="Exact PPT entanglement cost and catalytic dilution toolkit")
    parser.add_argument("--format", choices=["text", "csv", "json-like-keyvalue"],
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario(name: str, run: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        # by name: main looks the runner up in this module at call time, so
        # a rebinding of catcost.cli.scenario_* is what runs
        p.set_defaults(scenario=run)
        return p

    p = scenario("werner-example", "scenario_werner", "half-mixed entangled family, closed forms")
    p.add_argument("--d", type=_int_in(2, 8), default=2)

    p = scenario("thermo-example", "scenario_thermo", "exact work cost and its catalytic gap")
    # below about 5.6e-17, 1 - p rounds to 1: the Gibbs state is pure in
    # float64 and the nonconvexity gap reads 0
    p.add_argument("--p", type=_checked(float, lambda p: 0.0 < p < 0.5 and 1.0 - p < 1.0,
                                        "a number in (0, 0.5) with 1 - p < 1 in float64"),
                   default=0.25)
    p.add_argument("--q-grid", type=_int_in(2, MAX_Q_GRID), default=5)

    p = scenario("dmax-ppt", "scenario_dmax_ppt", "max-relative entropy to the PPT set")
    p.add_argument("--d", type=_int_in(2), default=2)
    p.add_argument("--lam", type=_checked(float, lambda lam: 0.0 <= lam <= 1.0,
                                          "a number in [0, 1]"), default=0.5)

    p = scenario("synthesize", "scenario_synthesize", "solve for a PPT dilution channel")
    p.add_argument("target_name", metavar="target", type=_target,
                   help="named target (noisy-phi-D, broadcast-phi-D) or a matrix file")
    p.add_argument("--m", type=_int_in(0), default=1)
    p.add_argument("--tol", type=_POSITIVE, default=SYNTHESIS_TOL)
    p.add_argument("--max-iter", type=_int_in(1), default=SYNTHESIS_MAX_CYCLES)
    p.add_argument("--seed", type=_int_in(0), default=0)

    p = scenario("verify-broadcast", "scenario_verify_broadcast",
                 "check per-copy marginals of a state file")
    p.add_argument("mu_path", metavar="mu_file")
    p.add_argument("rho_path", metavar="rho_file")
    p.add_argument("--n", type=_int_in(1), default=2)
    p.add_argument("--tol", type=_POSITIVE, default=BROADCAST_TOL)

    p = scenario("protocol", "scenario_protocol", "run the catalytic dilution protocol")
    p.add_argument("--d", type=_int_in(2), default=2)
    p.add_argument("--n", type=_int_in(1), default=1)

    p = scenario("rigidity", "scenario_rigidity",
                 "compute the broadcast set of a maximally entangled state")
    p.add_argument("--d", type=_int_in(2), default=2)
    p.add_argument("--starts", type=_int_in(1, 8192), default=50)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--tol", type=_POSITIVE, default=RIGIDITY_TOL)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = vars(parser.parse_args(argv))
    fmt, command = args.pop("format"), args.pop("command")
    run = globals()[args.pop("scenario")]
    try:
        report = run(**args)
    except ResourceLimitError as exc:
        parser.error(str(exc))
    except (OSError, ValueError) as exc:
        # file loading and document parsing failures
        if command in ("synthesize", "verify-broadcast"):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        raise
    sys.stdout.write(report.render(fmt))
    return 0 if report.passed else 4


if __name__ == "__main__":
    sys.exit(main())
