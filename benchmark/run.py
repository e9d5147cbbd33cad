#!/usr/bin/env python3
"""catcost benchmark: CLI workloads, end-to-end metrics, and a traced layer run.

    python3 benchmark/run.py --workload werner-d5 --seed 1 --trace 0
    python3 benchmark/run.py --seed 1          # every workload, untraced and traced

Run from the repository root.  One workload runs in this process, one
thread, closed loop: passes repeat until ``--seconds`` have elapsed, the
first pass being a warm-up that is checked but not timed.  Every
invocation goes through ``catcost.cli.main(argv)`` and its report is
checked.  The last line of standard output is the JSON result; with
``--trace 0`` it holds the end-to-end metrics named in BENCHMARK.json,
timed in normalised seconds (see ``untraced_metrics``), with
``--trace 1`` the per-layer ones.  The full record, with per-kind and
raw times and the environment, goes to ``.bench_out/``.
"""
import os

# The BLAS thread count is pinned here, before anything imports numpy, and
# reaches the set-up probes through the inherited environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 10  # at most, one per tenth of the run
# The reference kernel's time, in its faster phases, on the host of the
# noise table in README.md, a 2-vCPU Xeon VM at 2.1 GHz; normalised
# seconds are seconds on a host where the kernel takes this long.
REFERENCE_S = 0.018

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_sources() -> None:
    if not (SRC / "catcost" / "__init__.py").is_file():
        sys.exit(f"error: catcost sources not found under {SRC}; run from a full checkout")


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import catcost

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "catcost": catcost.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# ---------------------------------------------------------------------------
# running passes


def invoke(main, call) -> tuple[float, list[str]]:
    """Run one CLI invocation; return its wall time and the problems found."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(list(call.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            rc = None
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
    problems = call.check(rc, out.getvalue()) if rc is not None else [error]
    return elapsed, [f"{' '.join(call.argv[2:])}: {p}" for p in problems]


class Passes:
    """Closed-loop passes over one workload's invocations, with their tallies."""

    def __init__(self, calls) -> None:
        import catcost.cli

        self.calls = calls
        self.cli = catcost.cli  # main is looked up per call, so the tracer sees it
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> dict[str, float]:
        """One pass; returns the summed invocation time per kind and in total."""
        gc.collect()
        times = {"wall": 0.0}
        for call in self.calls:
            elapsed, problems = invoke(self.cli.main, call)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems
            times["wall"] += elapsed
            times[call.kind] = times.get(call.kind, 0.0) + elapsed
        return times


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports catcost and builds the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    t_start = time.perf_counter()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        calls = workloads.build(workload, seed, workdir)
        passes = Passes(calls)
        if trace:
            values, record = traced_metrics(passes, workload, seed, t_start, seconds), {}
            specs = spec["per_layer"]
        else:
            values, record = untraced_metrics(passes, workload, seed, t_start, seconds)
            specs = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    failed_ratio = passes.failed / passes.attempted
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "invocations_per_pass": len(calls), "attempted": passes.attempted,
        "failed": passes.failed, "failed_ratio": failed_ratio,
        "problems": passes.problems[:20], "metrics": metrics, "env": environment(seed),
    })
    (OUT / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for problem in passes.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}: {passes.attempted} invocations, "
          f"{passes.failed} failed (failed_ratio {failed_ratio:g} ratio)")
    for name, kind_s in record.get("kind_s", {}).items():
        print(f"{name} = {kind_s:.6f} s")
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in record:
            print(f"{name} = {record[name]:.6f} s (not normalised)")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": passes.failed == 0, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0 if passes.failed == 0 else 1


def catcost_modules() -> list:
    """The package and every module whose bindings the tracer wraps."""
    import catcost
    import catcost.cli
    import catcost.serialize

    return [catcost] + [getattr(catcost, name) for name in (
        "operators", "states", "measures", "broadcast", "catalysis", "projections",
        "choi", "serialize", "reports", "cli")]


def reference_kernel():
    """A timer for a fixed kernel that no catcost change can touch.

    The kernel mixes the two kinds of work catcost does, interpreted Python
    and small LAPACK eigendecompositions and products, so it slows down
    with the host as catcost does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = []
    for n in (16, 64, 144):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(g + g.conj().T)

    def reference_s() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for m in mats:
            np.linalg.eigh(m)
        for _ in range(1000):
            np.trace(mats[0] @ mats[0])
        return time.perf_counter() - t0

    reference_s()  # the first call pays for lazy set-up in numpy
    return reference_s


def normalised(reference_s, measure):
    """Run ``measure`` between two timings of the reference kernel.

    Returns its result and the factor that turns its seconds into
    normalised seconds: seconds on a host where the kernel takes
    ``REFERENCE_S``.
    """
    before = reference_s()
    result = measure()
    after = reference_s()
    return result, 2.0 * REFERENCE_S / (before + after)


def untraced_metrics(passes: Passes, workload: str, seed: int,
                     t_start: float, seconds: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics, and the raw times and factors behind them.

    Every timed pass and every set-up probe is normalised by the reference
    kernel timed just before and after it.  The host this benchmark was
    tuned on changes speed by up to 2x within seconds; the raw times
    follow it, their ratio to the kernel does not.  Set-up probes run
    spread over the run, at most ``SETUP_PROBES`` of them.
    """
    reference_s = reference_kernel()
    passes.run()  # warm-up: checked, not timed
    timed: list[tuple[dict[str, float], float]] = []
    setups: list[tuple[float, float]] = []
    last_probe = -math.inf
    while not timed or time.perf_counter() < t_start + seconds:
        if time.perf_counter() - last_probe >= seconds / SETUP_PROBES:
            last_probe = time.perf_counter()
            setups.append(normalised(reference_s, lambda: setup_probe(workload, seed)))
        timed.append(normalised(reference_s, passes.run))

    kinds = {key: statistics.median(t[key] * f for t, f in timed) for key in timed[0][0]}
    values = {
        "wall_s": kinds.pop("wall"),
        "setup_s": statistics.median(s * f for s, f in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "kind_s": {f"{k}_s": v for k, v in sorted(kinds.items())},
        "raw_wall_s": statistics.median(t["wall"] for t, _ in timed),
        "raw_setup_s": statistics.median(s for s, _ in setups),
        "pass_wall_s": [t["wall"] for t, _ in timed],
        "pass_factor": [f for _, f in timed],
        "setup_probe_s": [s for s, _ in setups],
        "setup_factor": [f for _, f in setups],
    }
    return values, record


def traced_metrics(passes: Passes, workload: str, seed: int,
                   t_start: float, seconds: float) -> dict[str, float]:
    """Per-layer metrics from traced passes that alternate with untraced ones.

    After an untraced warm-up, passes run in pairs, one traced and one
    untraced, the order swapping from pair to pair so that drift favours
    neither side.  ``trace.overhead_s`` is the median over pairs of traced
    minus untraced pass time, in normalised seconds; it can read below
    zero when the tracer costs less than the noise between two passes.
    """
    from tracer import Tracer

    tracer = Tracer()
    modules = catcost_modules()
    reference_s = reference_kernel()

    def traced_pass() -> dict[str, float]:
        tracer.install(modules)
        try:
            return passes.run()
        finally:
            tracer.uninstall()

    def wall(measure) -> float:
        times, factor = normalised(reference_s, measure)
        return times["wall"] * factor

    passes.run()
    differences: list[float] = []
    while not differences or time.perf_counter() < t_start + seconds:
        if len(differences) % 2 == 0:
            untraced = wall(passes.run)
            traced = wall(traced_pass)
        else:
            traced = wall(traced_pass)
            untraced = wall(passes.run)
        differences.append(traced - untraced)
    values = tracer.metrics(len(differences))
    values["trace.overhead_s"] = statistics.median(differences)
    tracer.write_spans(OUT / f"spans-{workload}-s{seed}.csv.gz")
    return values


def setup_only(workload: str, seed: int) -> int:
    import catcost.cli  # noqa: F401
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        workloads.build(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# every workload


def run_all(names: list[str], seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced; print every metric."""
    combined = {"seed": seed, "seconds": seconds, "results": []}
    status = 0
    for trace in (0, 1):
        for workload in names:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            path = OUT / f"result-{workload}-s{seed}-t{trace}.json"
            path.unlink(missing_ok=True)
            rc = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
            if rc != 0:
                print(f"{workload} trace={trace}: exit code {rc}")
                status = 1
            if not path.is_file():
                continue
            record = json.loads(path.read_text())
            combined["results"].append(record)
            print(f"\n{workload} (trace {trace}): {record['attempted']} invocations, "
                  f"failed_ratio = {record['failed_ratio']:g} ratio")
            for name, metric in record["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            for name, value in record.get("kind_s", {}).items():
                print(f"  {name} = {value:.6g} s")
    path = OUT / f"all-s{seed}.json"
    path.write_text(json.dumps(combined, indent=2) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    require_sources()
    import workloads

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == set(workloads.WORKLOADS), "BENCHMARK.json and workloads.py disagree"
    if args.workload is None:
        return run_all(names, args.seed, seconds)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
