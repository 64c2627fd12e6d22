"""Run one gridfreq benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload loadloss --seed 0 --seconds 30 --trace 0

The workload is repeated for as long as another repetition still fits in
--seconds.  Each repetition sets up every system it needs (case load plus
`build_system`) and then runs them; wall time excludes that set-up, which
is timed on its own.  Every repetition's outputs are checked against
bench/reference.json.

Times are reported in seconds at a reference host speed: the calibration
kernel of hostspeed.py runs around and during every measured segment (an
operation, or a batch of set-up passes), and the segment is scaled by how
much faster or slower the host ran the kernel then than on the reference
host.  This takes out the swings in speed of a shared host, which last
longer than a run; the raw times are printed too.

--trace 0 reports the end-to-end metrics: median scaled wall time of one
repetition, median scaled set-up time and peak resident memory.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (raw times), plus the tracing
overhead; the spans of the last traced repetition go to bench/out/.

The last line of standard output is the result object; the line before
it holds the samples, the raw times, the failure fraction, the largest
deviation from the reference and the software versions.  The process is
single-threaded: BLAS is limited to one thread before numpy loads; the
kernel samples taken during a segment run in a SIGALRM handler of the
same thread.  The program is imported from src/ of the same checkout,
never from an installed copy; without it the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before anything loads numpy: the benchmark is the
# plain single-threaded baseline.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up takes a few milliseconds, so after each repetition it is repeated
# this many times more and reported as a median of the whole run.
SETUP_PASSES_PER_REP = 15


def import_gridfreq():
    """Import gridfreq from this checkout's src/; raise ImportError if absent."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gridfreq
    if Path(gridfreq.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"gridfreq imported from {gridfreq.__file__}, not from {SRC}")
    return gridfreq


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Repetition:
    """Set up and run every operation of a workload once, then check it.

    `setup_s` and `wall_s` are scaled to the reference host speed by
    `clock`; `raw_setup_s` and `raw_wall_s` are as measured, without the
    time of the kernel samples.  A traced repetition is only bracketed by
    kernel samples, so that its spans hold program time only.
    """

    def __init__(self, workload, ops, reference, clock, traced=False):
        self.setup_s = self.wall_s = self.raw_setup_s = self.raw_wall_s = 0.0
        outputs, errors = {}, {}
        for op in ops:
            clock.start(sample=not traced)
            try:
                system = op.setup()
                setup = clock.lap()
                outputs[op.label] = op.run(*system)
                wall = clock.lap()
            except Exception as exc:  # a failed operation is counted, not fatal
                errors[op.label] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                f = clock.stop()
            self.setup_s += setup * f
            self.wall_s += wall * f
            self.raw_setup_s += setup
            self.raw_wall_s += wall
        checks = workload.check(outputs, reference)
        self.attempted = len(ops)
        self.failed = [op.label for op in ops
                       if op.label in errors or not checks[op.label].ok]
        self.notes = [f"{lb}: {e}" for lb, e in errors.items()]
        self.notes += [f"{lb}: {n}" for lb, c in checks.items() for n in c.notes]
        devs = [c.dev for c in checks.values() if c.dev is not None]
        self.max_dev = max(devs) if devs else None


def setup_pass(ops) -> None:
    for op in ops:
        try:
            op.setup()
        except Exception:  # the repetitions count this failure
            pass


def setup_passes(ops, clock) -> tuple[list[float], list[float]]:
    """SETUP_PASSES_PER_REP set-up passes: (scaled, raw) times."""
    clock.start()
    raw = []
    for _ in range(SETUP_PASSES_PER_REP):
        setup_pass(ops)
        raw.append(clock.lap())
    f = clock.stop()
    return [t * f for t in raw], raw


def measure(workload, seconds: float, trace: bool, reference: dict) -> dict:
    """Repeat the workload within `seconds`; return metrics and run details."""
    ops = workload.ops()
    setup_pass(ops)  # warm-up: lazy imports and first-call set-up
    clock = hostspeed.Clock()
    setup_samples, raw_setup_samples = [], []

    reps, traced, layer_samples, tracer = [], [], [], None
    t0 = perf_counter()
    while True:
        t_iter = perf_counter()
        if trace and (len(reps) + len(traced)) % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rep = Repetition(workload, ops, reference, clock, traced=True)
            finally:
                tracer.uninstall()
            traced.append(rep)
            layer_samples.append(tracer.metrics(workload.points))
        else:
            rep = Repetition(workload, ops, reference, clock)
            reps.append(rep)
        scaled, raw = setup_passes(ops, clock)
        setup_samples += [rep.setup_s] + scaled
        raw_setup_samples += [rep.raw_setup_s] + raw
        now = perf_counter()
        # stop when the next iteration, as long as this one, would overrun
        if now - t0 + (now - t_iter) > seconds and (traced or not trace):
            break

    every = reps + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(len(r.failed) for r in every)
    devs = [r.max_dev for r in every if r.max_dev is not None]
    wall = [r.wall_s for r in reps]
    raw_wall = [r.raw_wall_s for r in reps]
    details = {
        "workload": workload.name,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "wall_s": {"median": statistics.median(wall), "n": len(wall), "samples": wall,
                   "raw_median": statistics.median(raw_wall), "raw_samples": raw_wall,
                   "unit": "s"},
        "setup_s": {"median": statistics.median(setup_samples),
                    "raw_median": statistics.median(raw_setup_samples),
                    "n": len(setup_samples), "unit": "s"},
        "host_factor": {"median": statistics.median(clock.factors),
                        "min": min(clock.factors), "max": max(clock.factors),
                        "reference_kernel_s": hostspeed.REFERENCE_S},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "fail_frac": {"value": failed / attempted, "unit": "fraction"},
        "max_dev": {"value": max(devs) if devs else None, "unit": "pu"},
        "failures": sorted({n for r in every for n in r.notes}),
    }
    if trace:
        metrics = {}
        for key in layer_samples[0]:
            vals = [m[key] for m in layer_samples]
            metrics[key] = None if None in vals else statistics.median_low(vals)
        metrics["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                          / statistics.median(wall) - 1.0)
        details["absent_layers"] = tracer.absent
        details["spans"] = str(OUT.relative_to(ROOT) / f"spans_{workload.name}.npz")
        tracer.save(ROOT / details["spans"])
    else:
        metrics = {"wall_s": details["wall_s"]["median"],
                   "setup_s": details["setup_s"]["median"],
                   "peak_rss_mb": details["peak_rss_mb"]["value"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details}


def result_line(res: dict, trace: bool) -> dict:
    """The result object: the metrics BENCHMARK.json names, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": res["metrics"][k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("loadloss", "load_steps", "smallsig"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        import_gridfreq()
    except ImportError as exc:
        print(f"bench: cannot import gridfreq from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports gridfreq, so only once src/ is on the path

    res = measure(workloads.make(args.workload, args.seed), args.seconds,
                  bool(args.trace), workloads.load_reference())
    res["details"].update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                          environment=environment())
    print(json.dumps({"details": res["details"]}))
    print(json.dumps(result_line(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
