#!/usr/bin/env python3
"""Run every named scenario through the CLI and print the reports.

Covers the closed-form entangled family, the thermodynamic work-cost gap,
the max-relative-entropy reduction, the dilution protocol, broadcast
rigidity, and channel synthesis (one feasible and one certified-infeasible
instance).  Each instance is a command line with the exit code it must
give: 0, or 4 for the infeasible synthesis.  Exits 1 if any instance
exits otherwise.  Runs from a checkout without installing: ``src/`` goes
on ``sys.path``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from catcost.cli import main as catcost  # noqa: E402

INSTANCES = [
    ("werner-example --d 2", 0),
    ("werner-example --d 3", 0),
    ("werner-example --d 8", 0),
    ("thermo-example --p 0.25 --q-grid 5", 0),
    ("dmax-ppt --d 2 --lam 0.5", 0),
    ("dmax-ppt --d 3 --lam 0.75", 0),
    ("protocol --d 2 --n 1", 0),
    ("rigidity --d 2 --starts 50 --seed 42", 0),
    ("synthesize noisy-phi-2 --m 1", 0),
    ("synthesize broadcast-phi-2 --m 1", 0),
    # preparing an NPT state from nothing: certified infeasible
    ("synthesize noisy-phi-2 --m 0", 4),
]


def main() -> int:
    failures = 0
    for argv, expected in INSTANCES:
        code = catcost(argv.split())
        if code != expected:
            print(f"unexpected: catcost {argv} exited {code}, expected {expected}")
            failures += 1
    print(f"{failures} unexpected scenario failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
