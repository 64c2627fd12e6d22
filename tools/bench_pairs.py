"""Run the benchmark on two commits in alternating pairs and record the result.

From the root of a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --seed 0 --pairs 10
    python3 tools/bench_pairs.py PARENT CHANGE --seed 1 --pairs 3 --workload smallsig

Each commit is extracted with `git archive` into a fresh directory, and
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` runs
there, one run at a time, with T the benchmark's run length (`run_seconds`
of BENCHMARK.json).  Pair i runs the parent first when i is odd and
the change first when i is even.  Each side's end-to-end metrics are
summarized over its runs (median, quartiles, IQR, min, max and the
samples), with the ratio of the medians and the `verdict` against the
metric's bound in BENCHMARK.json (the share of pairs the change won, the
gap of the medians in parent IQRs, and "gain", "worse", "unresolved" or
"within bound"), which is also printed as one line per workload; the
document also holds each side's failure fraction, largest deviation from
bench/reference.json, and solver stats from untimed passes of every
operation, three processes per side with the sides interleaved:
`TimeSeries.stats` and the counted `SystemModel.residual` calls of the
first.  From those counts, `unit_costs` gives each side's median wall_s
per accepted step and per residual pass of one repetition (us), with
`residual_us`, the cost of one `SystemModel.residual` pass alone (the
minimum over 7 `timeit` blocks at each operation's set-up state, taken in
each untimed pass, averaged over the operations), `devices_us`, the cost
of one `SystemModel._machine_block` call there, the device kernels of that
pass (timed the same way; None where a checkout lacks that method or its
(x list, y list, omega_coi) signature), `record_us`, the cost
of one `dae.record` row of every recordable channel there (timed the same
way, after one warm call), and `setup_us`, the cost of one operation's
set-up (timed the same way), each the median of the three processes;
`repetition_counts` holds each side's accepted steps, residual passes, Newton
iterations, extrapolated Newton starts (None for a checkout that does not
count them), Jacobian builds and `lu_factorizations` (the integrator's
`np.linalg.inv` calls) of one repetition, both also on the printed line.  The
first pass saves every output of every operation, and the state [x; y]
its set-up built (`setup_x`, `setup_y`), so a change to the set-up path is
checked too: `outputs` holds each side's sha-256 digest of each, and the
largest absolute deviation of each output whose digests differ, summed up
on a second printed line.  The CLI's own tables are checked the same way, once
per side before the timed pairs: `ksweep.csv` of `gridfreq ksweep` and
`timeseries.csv` of `gridfreq run --scenario demos/scenario_load_loss.json`,
each written into a temporary `--out`; `cli_tables`, at the top of the
document, holds each side's sha-256 of each file and, where they differ,
the largest absolute deviation of each column.  A table whose CLI run
fails is missing on that side (its deviation reads None).  They do not
depend on the seed, so a run that finds them in the document for the same
two commits does not run the CLI again.

The result goes to BENCH_<short change sha>.json at the repo root.  When
that file already holds the same two commits, a run with another seed is
added under "other_seeds" and one with the same seed replaces the
workloads it ran.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("loadloss", "load_steps", "smallsig")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
# each end-to-end metric (all lower-is-better), with the fraction of the
# parent's median by which the change's median may exceed it
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

# One untimed pass of every operation of a workload, run in a checkout:
# prints {label: stats} as JSON and saves every output of every operation
# to the .npz file named by its third argument, as "<label>/<output>",
# with the state its set-up built, as "<label>/setup_x" and "<label>/setup_y".
# The stats are the program's own counters where it integrates
# (TimeSeries.stats), plus counted SystemModel.residual calls,
# "residual_us", one uncounted pass at the set-up state, "devices_us", the
# device loop of that pass alone (left out where the checkout has no
# `_machine_block(x list, y list, omega_coi)`), "record_us",
# one output row of every recordable channel there (`dae.record` through a
# fresh integrator's `evaluate`, after one warm call that fills its cache),
# and "setup_us", one call of the operation's set-up: each the minimum over
# 7 timeit blocks of `number` calls (`setups` for the set-up), in us per call.
STATS_SCRIPT = r"""
import json, sys, timeit
import numpy as np
sys.path[:0] = ["src", "bench"]
import gridfreq as gf
import workloads
calls, number, setups = [0], 1000, 20
residual = gf.SystemModel.residual
def counted(self, x, y):
    calls[0] += 1
    return residual(self, x, y)
gf.SystemModel.residual = counted
simulate, last = gf.simulate, {}
def recorded(*args, **kwargs):
    ts = simulate(*args, **kwargs)
    last.update(ts.stats)
    return ts
gf.simulate = recorded
out, arrays = {}, {}
for op in workloads.make(sys.argv[1], int(sys.argv[2])).ops():
    system = op.setup()
    builds = timeit.repeat(op.setup, repeat=7, number=setups)
    arrays[f"{op.label}/setup_x"] = system[1].x.copy()
    arrays[f"{op.label}/setup_y"] = system[1].y.copy()
    model, state = system
    blocks = timeit.repeat(lambda: residual(model, state.x, state.y), repeat=7, number=number)
    xl, yl = state.x.tolist(), state.y.tolist()
    try:
        args = (xl, yl, model.coi_speed(xl))
        model._machine_block(*args)
    except (AttributeError, TypeError):
        devices = None
    else:
        devices = timeit.repeat(lambda: model._machine_block(*args), repeat=7, number=number)
    evaluate = gf.dae.TrapezoidalIntegrator(model).evaluate
    row = lambda: gf.dae.record(model, state, None, evaluate)
    row()
    rows = timeit.repeat(row, repeat=7, number=number)
    last.clear()
    calls[0] = 0
    outputs = op.run(*system)
    st = {str(k): v for k, v in last.items()}
    st["residual_calls_counted"] = calls[0]
    st["residual_us"] = 1e6 * min(blocks) / number
    if devices is not None:
        st["devices_us"] = 1e6 * min(devices) / number
    st["record_us"] = 1e6 * min(rows) / number
    st["setup_us"] = 1e6 * min(builds) / setups
    if "steps" in st:
        st["residual_calls_per_step"] = calls[0] / st["steps"]
    out[op.label] = st
    arrays.update({f"{op.label}/{name}": np.asarray(v) for name, v in outputs.items()})
np.savez(sys.argv[3], **arrays)
print(json.dumps(out))
"""


# the CLI's tables: file -> the `python3 -m gridfreq` arguments that write it
CLI_TABLES = {"ksweep.csv": ["ksweep"],
              "timeseries.csv": ["run", "--scenario", "demos/scenario_load_loss.json"]}


def resolve_commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def extract(sha: str, dest: Path) -> Path:
    """A fresh checkout of sha's committed files in dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    """The result and details lines of one bench/run.py run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return {"details": json.loads(details)["details"], "result": json.loads(result)}


# untimed passes per side, and the unit costs each times
UNTIMED_PASSES = 3
TIMED_US = ("residual_us", "devices_us", "record_us", "setup_us")


def untimed_pass(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(solver stats by operation, outputs by "<operation>/<output>") of one
    untimed pass of every operation in checkout (`STATS_SCRIPT`)."""
    saved = checkout / f"outputs_{workload}.npz"
    proc = subprocess.run([sys.executable, "-c", STATS_SCRIPT, workload, str(seed), str(saved)],
                          cwd=checkout, check=True, capture_output=True, text=True)
    with np.load(saved) as outputs:
        return json.loads(proc.stdout), dict(outputs)


def median_stats(passes: list[dict]) -> dict:
    """The `untimed_pass` stats of the first of passes, with each of
    `TIMED_US` the median over all of them: one process's timings move by
    about 10 % on unchanged code."""
    return {op: {**st, **{k: statistics.median(p[op][k] for p in passes)
                          for k in TIMED_US if k in st}}
            for op, st in passes[0].items()}


def digest(a: np.ndarray) -> str:
    """sha-256 of an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def compare_outputs(parent: dict[str, np.ndarray], change: dict[str, np.ndarray]) -> dict:
    """Each side's sha-256 `digest` of every output, whether all of them are
    equal, and, for each output whose digests differ, the largest
    abs(change - parent), None where it is missing on one side or the
    shapes differ."""
    digests = {"parent": {k: digest(a) for k, a in parent.items()},
               "change": {k: digest(a) for k, a in change.items()}}
    max_abs_dev = {}
    for k in sorted(parent.keys() | change.keys()):
        if digests["parent"].get(k) == digests["change"].get(k):
            continue
        same_shape = k in parent and k in change and parent[k].shape == change[k].shape
        max_abs_dev[k] = (float(np.max(np.abs(change[k] - parent[k]), initial=0.0))
                          if same_shape else None)
    return {"bitwise_equal": not max_abs_dev, "max_abs_dev": max_abs_dev, "sha256": digests}


def cli_tables(checkout: Path) -> dict[str, bytes]:
    """The bytes of each of `CLI_TABLES`, written by the CLI of checkout
    into a temporary output directory; a table whose run exits nonzero or
    does not write it is left out, with a note on stderr."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    tables = {}
    for name, args in CLI_TABLES.items():
        with tempfile.TemporaryDirectory(prefix="bench_pairs_cli_") as out:
            proc = subprocess.run([sys.executable, "-m", "gridfreq", *args, "--out", out],
                                  cwd=checkout, env=env, capture_output=True, text=True)
            table = Path(out) / name
            if proc.returncode == 0 and table.exists():
                tables[name] = table.read_bytes()
            else:
                print(f"{checkout.name}: no {name} (gridfreq {args[0]} exit "
                      f"{proc.returncode}) {proc.stderr.strip()[-200:]}", file=sys.stderr)
    return tables


def csv_columns(name: str, text: bytes) -> dict[str, np.ndarray]:
    """The columns of a CLI table (a header line of names over rows of
    numbers), by "<file>/<column>"."""
    header = text.splitlines()[0].decode().split(",")
    values = np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)
    return {f"{name}/{col}": values[:, k] for k, col in enumerate(header)}


def compare_tables(parent: dict[str, bytes], change: dict[str, bytes]) -> dict:
    """Each side's sha-256 of each table file, whether all of them are
    equal, and, for each file whose digests differ, the largest deviation
    of each of its columns by `compare_outputs` (0.0 for the file when its
    values are equal, None where it is missing on one side)."""
    digests = {side: {k: hashlib.sha256(v).hexdigest() for k, v in tables.items()}
               for side, tables in (("parent", parent), ("change", change))}
    max_abs_dev = {}
    for k in sorted(parent.keys() | change.keys()):
        if digests["parent"].get(k) == digests["change"].get(k):
            continue
        if k in parent and k in change:
            devs = compare_outputs(csv_columns(k, parent[k]), csv_columns(k, change[k]))
            max_abs_dev.update(devs["max_abs_dev"] or {k: 0.0})
        else:
            max_abs_dev[k] = None
    return {"bitwise_equal": not max_abs_dev, "max_abs_dev": max_abs_dev, "sha256": digests}


def outputs_line(workload: str, comparison: dict) -> str:
    """One line: the outputs are bitwise equal, or the largest deviation of
    each that is not."""
    if comparison["bitwise_equal"]:
        return f"{workload} outputs: bitwise equal"
    return f"{workload} outputs: max abs dev " + ", ".join(
        f"{k} " + ("n/a" if d is None else f"{d:.3g}")
        for k, d in comparison["max_abs_dev"].items())


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(samples), "max": max(samples)}


def verdict(parent: list[float], change: list[float], bound: float) -> dict:
    """The rule of choosing-metrics sec. 8 for one lower-is-better metric,
    where parent[i] and change[i] are the runs of pair i.

    "gain": the change won at least nine tenths of the pairs (ties count
    for neither side) and its median is below the parent's by more than
    the parent's IQR.  "worse": the change's median exceeds the parent's
    by more than bound times the parent's median.  Otherwise "unresolved"
    when either side's IQR is wider than that bound, unless every run of
    the change reads better than every run of the parent, and "within
    bound" when it is not.
    """
    p, c = summary(parent), summary(change)
    wins = sum(b < a for a, b in zip(parent, change))
    gap = p["median"] - c["median"]
    if c["median"] > (1.0 + bound) * p["median"]:
        call = "worse"
    elif wins >= 0.9 * len(parent) and gap > p["iqr"]:
        call = "gain"
    elif max(p["iqr"], c["iqr"]) > bound * p["median"] and not max(change) < min(parent):
        call = "unresolved"
    else:
        call = "within bound"
    return {"verdict": call, "win_share": wins / len(parent), "median_gap": gap,
            "gap_over_parent_iqr": gap / p["iqr"] if p["iqr"] else None}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Per-metric summaries of both sides, the median ratio, and the
    `verdict` against the metric's bound with its share of pairs won."""
    metrics = {}
    for name, bound in BOUNDS.items():
        vals = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                for side in runs}
        metrics[name] = {
            "parent": summary(vals["parent"]), "change": summary(vals["change"]),
            "median_ratio": statistics.median(vals["change"])
            / statistics.median(vals["parent"]),
            "bound": bound, **verdict(vals["parent"], vals["change"], bound),
            "parent_samples": vals["parent"], "change_samples": vals["change"]}
    return metrics


def unit_costs(wall_s: float, stats: dict) -> dict:
    """wall_s, the median wall time of one repetition, per accepted step and
    per residual pass of that repetition (us), from `untimed_pass` stats of its
    operations; None where the workload makes no such unit.  They show
    whether a change moved the cost of a unit or the number of units.
    residual_us is the mean over the operations of the time of one residual
    pass alone at its set-up state (us), None where no operation has one:
    the layer's own cost, beside the share of wall_s each pass carries.
    devices_us is the same mean of the time of that pass's device kernels
    (`SystemModel._machine_block`), record_us of the time of one output row
    of every recordable channel at the set-up state, and setup_us of the
    time of one operation's set-up.  A change that drops cheap steps, such as
    those a run holding its initial state at rest no longer takes, raises
    us_per_step while wall_s falls: read it beside the step count of
    `repetition_counts`."""
    steps = sum(st.get("steps", 0) for st in stats.values())
    passes = sum(st["residual_calls_counted"] for st in stats.values())

    def mean(key):
        timed = [st[key] for st in stats.values() if key in st]
        return statistics.fmean(timed) if timed else None

    return {"us_per_step": 1e6 * wall_s / steps if steps else None,
            "us_per_residual_pass": 1e6 * wall_s / passes if passes else None,
            **{key: mean(key) for key in TIMED_US}}


# the solver counts of one repetition, by the `untimed_pass` stats key each sums
COUNTS = {"steps": "steps", "residual_passes": "residual_calls_counted",
          "newton_iterations": "newton_iterations",
          "extrapolated_starts": "extrapolated_starts", "jacobian_builds": "jacobian_builds",
          "lu_factorizations": "lu_factorizations"}


def repetition_counts(stats: dict) -> dict:
    """The accepted steps, residual passes, Newton iterations, extrapolated
    Newton starts, Jacobian builds and inversions (`lu_factorizations`) of
    one repetition, summed over the `untimed_pass` stats of its operations;
    None where no operation integrates (no `TimeSeries.stats`) or, for a
    count a checkout does not keep, where no operation reports it."""
    counts = {}
    for name, key in COUNTS.items():
        values = [st[key] for st in stats.values() if key in st]
        counts[name] = sum(values) if values else None
    return counts


def summary_line(workload: str, metrics: dict, costs: dict, counts: dict) -> str:
    """One line: each metric's verdict, pairs won, medians and gap in parent
    IQRs, then the wall time per step and per residual pass of each side,
    the time of one residual pass alone, of its device kernels, of one
    output row and of one set-up, and each side's solver counts of one
    repetition."""
    parts = []
    for name, m in metrics.items():
        iqrs = m["gap_over_parent_iqr"]
        parts.append(f"{name} {m['verdict']} (won {m['win_share']:.0%}, median "
                     f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g}, gap "
                     + ("n/a" if iqrs is None else f"{iqrs:.3g}") + " parent IQR)")
    for unit, label in (("us_per_step", "wall_s per step"),
                        ("us_per_residual_pass", "wall_s per residual pass"),
                        ("residual_us", "one residual pass"),
                        ("devices_us", "one device pass"),
                        ("record_us", "one record row"),
                        ("setup_us", "one set-up")):
        values = [costs[s].get(unit) for s in ("parent", "change")]
        if values != [None, None]:   # a cost one side lacks reads n/a
            parts.append(f"{label} " + " -> ".join(
                "n/a" if v is None else f"{v:.4g}" for v in values) + " us")
    for name in COUNTS:
        if counts["parent"][name] is not None or counts["change"][name] is not None:
            parts.append(f"{name.replace('_', ' ')} {counts['parent'][name]} -> "
                         f"{counts['change'][name]}")
    return f"{workload}: " + "; ".join(parts)


def run_pairs(checkouts: dict[str, Path], workloads: list[str], seed: int,
              pairs: int) -> dict:
    """The record of each workload."""
    result = {}
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(1, pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(bench_run(checkouts[side], w, seed))
            print(f"{w} pair {i}/{pairs}: " + ", ".join(
                f"{s} {runs[s][-1]['result']['metrics']['wall_s']['value']:.4g} s"
                for s in order), file=sys.stderr)
        metrics = compare(runs)
        passes = {s: [] for s in runs}
        for _ in range(UNTIMED_PASSES):
            for s in runs:   # the sides interleaved
                passes[s].append(untimed_pass(checkouts[s], w, seed))
        stats = {s: median_stats([st for st, _ in passes[s]]) for s in runs}
        outputs = compare_outputs(passes["parent"][0][1], passes["change"][0][1])
        costs = {s: unit_costs(metrics["wall_s"][s]["median"], stats[s]) for s in runs}
        counts = {s: repetition_counts(stats[s]) for s in runs}
        print(summary_line(w, metrics, costs, counts))
        print(outputs_line(w, outputs))
        result[w] = {
            "pairs": pairs, "metrics": metrics, "unit_costs": costs,
            "repetition_counts": counts, "outputs": outputs,
            "fail_frac": {s: statistics.fmean(r["details"]["fail_frac"]["value"]
                                              for r in runs[s]) for s in runs},
            "max_dev": {s: max((r["details"]["max_dev"]["value"] for r in runs[s]
                                if r["details"]["max_dev"]["value"] is not None),
                               default=None) for s in runs},
            "stats": {s: {w: stats[s]} for s in runs}}
    return result


def host() -> str:
    import scipy
    return (f"{len(os.sched_getaffinity(0))}-core {platform.system()}, "
            f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, one BLAS thread")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (for quartiles)")

    shas = {"parent": resolve_commit(args.parent), "change": resolve_commit(args.change)}
    out = ROOT / f"BENCH_{shas['change'][:7]}.json"
    workloads = args.workload or list(WORKLOADS)
    method = (f"python3 bench/run.py --workload W --seed {args.seed} "
              f"--seconds {RUN_SECONDS} --trace 0, run in fresh `git archive` "
              f"checkouts of each commit; {args.pairs} pairs per workload, the parent "
              "first in odd pairs and the change first in even pairs, one run at a "
              "time. Times are the benchmark's scaled seconds (host-speed corrected), "
              "medians of one run's repetitions; the per-workload summaries are over "
              "the runs of each side.")
    doc = json.loads(out.read_text()) if out.exists() else {}
    if doc.get("parent") != shas["parent"] or doc.get("change") != shas["change"]:
        doc = {**shas, "method": method, "host": host(), "seed": args.seed,
               "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: extract(sha, Path(tmp) / side) for side, sha in shas.items()}
        if "cli_tables" not in doc:
            doc["cli_tables"] = compare_tables(*(cli_tables(checkouts[s])
                                                 for s in ("parent", "change")))
            print(outputs_line("cli", doc["cli_tables"]))
        result = run_pairs(checkouts, workloads, args.seed, args.pairs)
    section = doc
    if doc["seed"] != args.seed:
        section = doc.setdefault("other_seeds", {}).setdefault(
            str(args.seed), {"method": method, "workloads": {}})
    section["workloads"].update(result)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
