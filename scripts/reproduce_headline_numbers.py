#!/usr/bin/env python3
"""Run every named scenario in sequence and print the reports.

Covers the closed-form entangled family, the thermodynamic work-cost gap,
the max-relative-entropy reduction, the dilution protocol, broadcast
rigidity, and channel synthesis (one feasible and one certified-infeasible
instance).  Exits nonzero if any scenario check fails.  Runs from a
checkout without installing: ``src/`` goes on ``sys.path``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from catcost.cli import (  # noqa: E402

    scenario_dmax_ppt,
    scenario_protocol,
    scenario_rigidity,
    scenario_synthesize,
    scenario_thermo,
    scenario_werner,
)


def main() -> int:
    reports = [
        scenario_werner(2),
        scenario_werner(3),
        scenario_werner(8),
        scenario_thermo(0.25, q_grid=5),
        scenario_dmax_ppt(2, 0.5),
        scenario_dmax_ppt(3, 0.75),
        scenario_protocol(2, 1),
        scenario_rigidity(2, starts=50, seed=42),
        scenario_synthesize(1, "noisy-phi-2"),
        scenario_synthesize(1, "broadcast-phi-2"),
    ]
    failures = 0
    for report in reports:
        print(report.to_text())
        failures += 0 if report.passed else 1

    # expected infeasible: preparing an NPT state from nothing
    infeasible = scenario_synthesize(0, "noisy-phi-2")
    print(infeasible.to_text())
    if infeasible.passed:
        print("unexpected: the infeasible synthesis converged")
        failures += 1

    print(f"{failures} unexpected scenario failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
