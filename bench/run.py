"""Benchmark of su2fourier, run from the root of a source tree.

    python3 bench/run.py --workload witness-3d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1          # every workload, untraced and traced

The program is imported from ``src/`` beside this directory and nowhere else:
without it the benchmark exits with code 2.  One workload runs in one
process.  The run prints a header record as a JSON line, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
untraced passes for half of ``--seconds`` and traced ones (``spans.py``)
for the other half, and reports the per-layer metrics.  Every task result is
checked against ``reference.py``; a task fails when it raises, when a CLI call
exits with a code other than 0, or when its error exceeds the test suite's
tolerance for the same quantity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"  # at most nproc; one thread keeps pass times steady on a shared host
SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # per measured phase, even when a phase outlasts its seconds
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import su2fourier\n"
    "print(time.perf_counter() - t, su2fourier.__file__)\n"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import su2fourier from ``src/`` of this tree; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "su2fourier", "__init__.py")):
        fail(f"no su2fourier sources under {SRC}")
    sys.path.insert(0, SRC)
    import su2fourier
    import su2fourier.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(su2fourier.__file__).startswith(SRC + os.sep):
        fail(f"imported su2fourier from {su2fourier.__file__}, not from {SRC}")
    return su2fourier


def import_seconds() -> float:
    """Median time of ``import su2fourier`` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, SRC],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        if not os.path.abspath(out[1]).startswith(SRC + os.sep):
            fail(f"import probe loaded {out[1]}")
        samples.append(float(out[0]))
    return statistics.median(samples)


class Tally:
    """Tasks attempted and failed, and each pass's worst relative error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pass_worst = []

    def add(self, workload, outcomes):
        worst = 0.0
        for label, value, exc in outcomes:
            self.attempted += 1
            if exc is None:
                try:
                    err, ok = workload.check(label, value)
                except Exception as check_exc:  # a malformed result fails its task
                    exc = check_exc
            if exc is not None:
                self.failed += 1
                print(f"bench: task {label} failed:", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
                continue
            if not ok:
                self.failed += 1
                print(f"bench: task {label} out of tolerance: rel err {err:.3e}", file=sys.stderr)
            if math.isfinite(err):
                worst = max(worst, float(err))
        self.pass_worst.append(worst)


def one_pass(tasks):
    """Run the task list back to back; a task that raises is recorded, not fatal."""
    out = []
    for label, call in tasks:
        try:
            out.append((label, call(), None))
        except Exception as exc:
            out.append((label, None, exc))
    return out


def measure(workload, seconds, tally, tracer=None):
    """Pass wall times over at least ``seconds`` and MIN_PASSES passes."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        tasks = workload.tasks(len(times))
        t0 = time.perf_counter()
        if tracer is None:
            outcomes = one_pass(tasks)
        else:
            outcomes = tracer.root("pass", lambda: one_pass(tasks))
        times.append(time.perf_counter() - t0)
        tally.add(workload, outcomes)  # outside the timed region
    return times


def blas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def run_workload(args, spec) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import numpy as np

    sf = load_program()
    from spans import Tracer, digits
    from workloads import WORKLOADS

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version(np),
        "loop": "closed, one client",
    }
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as workdir:
        if args.trace:
            workload = WORKLOADS[args.workload](sf, args.seed, workdir)
            workload.setup()
            workload.references()
            plain = measure(workload, args.seconds / 2, tally)
            tracer = Tracer(sf)
            workload = WORKLOADS[args.workload](sf, args.seed, workdir, tracer)
            tracer.install()
            try:
                tracer.root("setup", workload.setup)
                workload.references()
                traced = measure(workload, args.seconds / 2, tally, tracer)
            finally:
                tracer.remove()
            values = tracer.report()
            values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
            header.update(passes=len(plain), traced_passes=len(traced))
            names = spec["per_layer"]
        else:
            load_s = import_seconds()
            workload = WORKLOADS[args.workload](sf, args.seed, workdir)
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            workload.references()  # outside setup_s and outside every pass
            times = measure(workload, args.seconds, tally)
            values = {
                "setup_s": load_s + statistics.median(setups),
                "wall_s": statistics.median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
                "min_digits": statistics.median(digits(e) for e in tally.pass_worst),
            }
            header.update(passes=len(times), pass_s=times, setup_repeats=SETUP_REPEATS, import_s=load_s)
            names = spec["end_to_end"]
    header["tasks"] = [label for label, _ in workload.tasks(0)]
    print(json.dumps({"header": header}))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, untraced then traced; prints every
    metric by name with its unit, then one JSON object of all results."""
    results, status = {}, 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(w["name"], {})["per_layer" if trace else "end_to_end"] = result
            for name, m in result["metrics"].items():
                print(f"{w['name']:<12} {name:<48} {m['value']:.6g} {m['unit']}")
            status = status or (0 if result["correct"] else 1)
    print(json.dumps(results))
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
