"""The pairs verdict, the unit costs and the output and CLI-table
comparisons of `tools/bench_pairs.py` on synthetic samples, and one
untimed pass of its stats script; no benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridfreq.casefile import load_bundled_case
from gridfreq.cli import write_csv
from gridfreq.dae import build_system

ROOT = Path(__file__).resolve().parents[1]
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(bench_pairs):
    return bench_pairs.verdict


# median 1.005, quartiles 0.9925 and 1.0175: IQR 0.025
PARENT = [1.00, 1.02, 0.99, 1.01, 1.03, 0.98, 1.00, 1.01, 0.99, 1.02]
# median 1.25, IQR 0.5
WIDE = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.0, 1.5, 1.0, 1.5]


@pytest.mark.parametrize("parent, change, bound, call, share", [
    # 10 of 10 pairs won, medians 0.2 apart against a parent IQR of 0.025
    (PARENT, [0.8 * p for p in PARENT], 0.2, "gain", 1.0),
    # 8 of 10 won: short of nine tenths however large the gap
    (PARENT, [0.8 * p for p in PARENT[:8]] + [1.1, 1.1], 0.2, "within bound", 0.8),
    # every pair won, but by less than the parent's IQR
    (PARENT, [p - 0.005 for p in PARENT], 0.2, "within bound", 1.0),
    # ties count for neither side
    (PARENT, PARENT, 0.2, "within bound", 0.0),
    (PARENT, [1.3 * p for p in PARENT], 0.2, "worse", 0.0),
    (PARENT, [1.05 * p for p in PARENT], 0.2, "within bound", 0.0),
    (PARENT, [1.05 * p for p in PARENT], 0.01, "worse", 0.0),
    # a spread wider than the bound leaves a small move unresolved ...
    (WIDE, [p - 0.05 for p in WIDE], 0.1, "unresolved", 1.0),
    # ... unless every run of the change beats every run of the parent
    (WIDE, [0.95] * 10, 0.1, "within bound", 1.0),
])
def test_verdict_on_synthetic_pairs(verdict, parent, change, bound, call, share):
    v = verdict(parent, change, bound)
    assert v["verdict"] == call
    assert v["win_share"] == share


def test_verdict_gap_in_parent_iqrs(verdict):
    v = verdict(PARENT, [p - 0.1 for p in PARENT], 0.2)
    assert v["median_gap"] == pytest.approx(0.1)
    assert v["gap_over_parent_iqr"] == pytest.approx(0.1 / 0.025)
    assert verdict([1.0] * 4, [0.9] * 4, 0.2)["gap_over_parent_iqr"] is None


def test_unit_costs_divide_the_median_by_one_repetition(bench_pairs):
    """Steps and residual passes are summed over the operations of one
    repetition; a workload that takes no step has no cost per step."""
    stats = {"a": {"steps": 300, "residual_calls_counted": 700},
             "b": {"steps": 100, "residual_calls_counted": 300}}
    costs = bench_pairs.unit_costs(0.2, stats)
    assert costs["us_per_step"] == pytest.approx(500.0)
    assert costs["us_per_residual_pass"] == pytest.approx(200.0)
    no_steps = bench_pairs.unit_costs(0.016, {"nominal": {"residual_calls_counted": 32}})
    assert no_steps == {"us_per_step": None, "us_per_residual_pass": pytest.approx(500.0),
                        "residual_us": None, "devices_us": None, "record_us": None,
                        "setup_us": None}
    counts = bench_pairs.repetition_counts(stats)
    line = bench_pairs.summary_line("w", {}, {"parent": costs, "change": costs},
                                    {"parent": counts, "change": counts})
    assert line == ("w: wall_s per step 500 -> 500 us; wall_s per residual pass 200 -> 200 us; "
                    "steps 400 -> 400; residual passes 1000 -> 1000")
    counts = bench_pairs.repetition_counts({"nominal": {"residual_calls_counted": 32}})
    line = bench_pairs.summary_line("w", {}, {"parent": no_steps, "change": no_steps},
                                    {"parent": counts, "change": counts})
    assert line == "w: wall_s per residual pass 500 -> 500 us; residual passes 32 -> 32"


def test_residual_us_is_the_mean_of_the_operations_one_pass_times(bench_pairs):
    """The timed cost of one residual pass at each operation's set-up state
    is averaged over the operations of a repetition, and printed for each
    side after the wall time per residual pass."""
    parent = bench_pairs.unit_costs(0.2, {
        "no_cig": {"steps": 300, "residual_calls_counted": 700, "residual_us": 21.0},
        "cig_omega": {"steps": 100, "residual_calls_counted": 300, "residual_us": 24.0}})
    change = bench_pairs.unit_costs(0.18, {
        "no_cig": {"steps": 300, "residual_calls_counted": 700, "residual_us": 18.0},
        "cig_omega": {"steps": 100, "residual_calls_counted": 300, "residual_us": 21.5}})
    assert parent["residual_us"] == pytest.approx(22.5)
    assert change["residual_us"] == pytest.approx(19.75)
    counts = {"steps": None, "residual_passes": 1000, "newton_iterations": None,
              "extrapolated_starts": None, "jacobian_builds": None, "lu_factorizations": None}
    line = bench_pairs.summary_line("w", {}, {"parent": parent, "change": change},
                                    {"parent": counts, "change": counts})
    assert line == ("w: wall_s per step 500 -> 450 us; wall_s per residual pass 200 -> 180 us; "
                    "one residual pass 22.5 -> 19.75 us; residual passes 1000 -> 1000")


def test_record_us_is_the_mean_of_the_operations_row_times(bench_pairs):
    """The timed cost of one output row of every channel at each
    operation's set-up state is averaged over the operations of a
    repetition, and printed for each side after the residual pass."""
    def stats(residual_us, record_us):
        return {ctl: {"steps": 2000, "residual_calls_counted": 4000, "residual_us": res,
                      "record_us": rec}
                for ctl, res, rec in zip(("no_cig", "cig_omega", "cig_omega_tilde"),
                                         residual_us, record_us)}

    parent = bench_pairs.unit_costs(0.78, stats((25.5, 33.0, 33.0), (28.9, 35.1, 34.5)))
    change = bench_pairs.unit_costs(0.78, stats((25.5, 33.0, 33.0), (12.6, 15.6, 15.5)))
    assert parent["record_us"] == pytest.approx(32.8333333)
    assert change["record_us"] == pytest.approx(14.5666667)
    assert bench_pairs.unit_costs(0.2, {"a": {"residual_calls_counted": 1,
                                              "residual_us": 30.0}})["record_us"] is None
    counts = {"steps": None, "residual_passes": 12000, "newton_iterations": None,
              "extrapolated_starts": None, "jacobian_builds": None, "lu_factorizations": None}
    line = bench_pairs.summary_line("loadloss", {}, {"parent": parent, "change": change},
                                    {"parent": counts, "change": counts})
    assert line == ("loadloss: wall_s per step 130 -> 130 us; "
                    "wall_s per residual pass 65 -> 65 us; one residual pass 30.5 -> 30.5 us; "
                    "one record row 32.83 -> 14.57 us; residual passes 12000 -> 12000")


def test_devices_us_is_the_mean_of_the_operations_device_pass_times(bench_pairs):
    """The timed cost of one pass of the device kernels at each operation's
    set-up state is averaged over the operations of a repetition, and
    printed for each side after the residual pass; a side that has none
    (a checkout without the device loop) reads n/a."""
    def stats(devices_us):
        return {ctl: {"steps": 2000, "residual_calls_counted": 4000, "residual_us": 14.0,
                      **({} if t is None else {"devices_us": t})}
                for ctl, t in zip(("no_cig", "cig_omega", "cig_omega_tilde"), devices_us)}

    parent = bench_pairs.unit_costs(0.78, stats((5.5, 8.2, 8.3)))
    change = bench_pairs.unit_costs(0.72, stats((5.0, 7.2, 7.4)))
    assert parent["devices_us"] == pytest.approx(7.3333333)
    assert change["devices_us"] == pytest.approx(6.5333333)
    old = bench_pairs.unit_costs(0.78, stats((None, None, None)))
    assert old["devices_us"] is None
    counts = {"steps": None, "residual_passes": 12000, "newton_iterations": None,
              "extrapolated_starts": None, "jacobian_builds": None, "lu_factorizations": None}
    line = bench_pairs.summary_line("loadloss", {}, {"parent": parent, "change": change},
                                    {"parent": counts, "change": counts})
    assert line == ("loadloss: wall_s per step 130 -> 120 us; "
                    "wall_s per residual pass 65 -> 60 us; one residual pass 14 -> 14 us; "
                    "one device pass 7.333 -> 6.533 us; residual passes 12000 -> 12000")
    line = bench_pairs.summary_line("loadloss", {}, {"parent": old, "change": change},
                                    {"parent": counts, "change": counts})
    assert "; one device pass n/a -> 6.533 us; " in line


# a checkout whose package has no device loop of today's signature: the
# least the stats script runs, one operation at a zero state
STUB_PACKAGE = """
import sys
import numpy as np
class SystemModel:
    def residual(self, x, y):
        return np.concatenate([x, y]), {}
    def coi_speed(self, x):
        return 1.0
%s
class State:
    x, y = np.zeros(2), np.zeros(2)
class TrapezoidalIntegrator:
    def __init__(self, model):
        self.evaluate = None
def record(model, state, channels, evaluate):
    return {}
def simulate(*args, **kwargs):
    raise AssertionError("not called")
dae = sys.modules[__name__]
"""
STUB_WORKLOADS = """
import types
import numpy as np
import gridfreq as gf
def make(name, seed):
    op = types.SimpleNamespace(label="nominal", setup=lambda: (gf.SystemModel(), gf.State()),
                               run=lambda model, state: {"go": np.zeros(1)})
    return types.SimpleNamespace(ops=lambda: [op])
"""


@pytest.mark.parametrize("block", [
    "",                                              # no device loop
    "    def _machine_block(self, x):\n        return [], [], [], {}\n",   # another signature
])
def test_stats_script_leaves_out_devices_us_where_the_checkout_has_no_device_loop(
        bench_pairs, tmp_path, block):
    """A checkout whose `SystemModel` lacks `_machine_block`, or has one of
    another signature, gets no devices_us; its other costs are timed."""
    (tmp_path / "src" / "gridfreq").mkdir(parents=True)
    (tmp_path / "src" / "gridfreq" / "__init__.py").write_text(STUB_PACKAGE % block)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(STUB_WORKLOADS)
    proc = subprocess.run([sys.executable, "-c", bench_pairs.STATS_SCRIPT, "smallsig", "0",
                           str(tmp_path / "outputs.npz")], cwd=tmp_path, check=True,
                          capture_output=True, text=True)
    stats = json.loads(proc.stdout)["nominal"]
    assert "devices_us" not in stats
    assert {"residual_us", "record_us", "setup_us"} <= set(stats)
    assert bench_pairs.unit_costs(0.01, {"nominal": stats})["devices_us"] is None


def test_setup_us_is_the_mean_of_the_operations_set_up_times(bench_pairs):
    """The timed cost of one set-up of each operation is averaged over the
    operations of a repetition, and printed for each side last among the
    unit costs; a workload with no timed set-up has none."""
    def stats(setup_us):
        return {label: {"residual_calls_counted": 24, "setup_us": t}
                for label, t in zip(("nominal", "point1"), setup_us)}

    parent = bench_pairs.unit_costs(0.01, stats((500.0, 520.0)))
    change = bench_pairs.unit_costs(0.009, stats((380.0, 390.0)))
    assert parent["setup_us"] == pytest.approx(510.0)
    assert change["setup_us"] == pytest.approx(385.0)
    assert bench_pairs.unit_costs(0.2, {"a": {"residual_calls_counted": 1}})["setup_us"] is None
    counts = bench_pairs.repetition_counts(stats((0.0, 0.0)))
    line = bench_pairs.summary_line("smallsig", {}, {"parent": parent, "change": change},
                                    {"parent": counts, "change": counts})
    assert line == ("smallsig: wall_s per residual pass 208.3 -> 187.5 us; "
                    "one set-up 510 -> 385 us; residual passes 48 -> 48")


def test_median_stats_take_each_timed_cost_over_the_passes(bench_pairs):
    """Each timed unit cost of an operation is the median over the passes;
    the counts are the first pass's, and a cost a pass did not time stays
    missing."""
    passes = [{"a": {"steps": 10, "residual_calls_counted": 20, "residual_us": r,
                     "record_us": 2 * r, "setup_us": 100 * r},
               "b": {"residual_calls_counted": 4, "setup_us": 50 * r}}
              for r in (3.0, 1.0, 2.0)]
    stats = bench_pairs.median_stats(passes)
    assert stats == {"a": {"steps": 10, "residual_calls_counted": 20, "residual_us": 2.0,
                           "record_us": 4.0, "setup_us": 200.0},
                     "b": {"residual_calls_counted": 4, "setup_us": 100.0}}
    assert passes[0]["a"]["residual_us"] == 3.0   # the passes are left as they were


def test_repetition_counts_sum_the_solver_counts_of_one_repetition(bench_pairs):
    """Accepted steps, residual passes, Newton iterations, extrapolated
    starts, Jacobian builds and inversions are summed over the operations
    of one repetition, each side's on the printed line; a workload that
    does not integrate has no steps, Newton iterations, builds or
    inversions, and a checkout that keeps no count of extrapolated starts
    reads None there."""
    def stats(passes, solves, builds, inversions):
        return {ctl: {"steps": 2000, "residual_calls_counted": p, "residual_passes": p,
                      "newton_iterations": n, "jacobian_builds": b, "lu_factorizations": i}
                for ctl, p, n, b, i in zip(("no_cig", "cig_omega", "cig_omega_tilde"),
                                           passes, solves, builds, inversions)}

    parent = bench_pairs.repetition_counts(stats((4348, 4094, 4100), (2327, 2064, 2070),
                                                 (2, 3, 3), (4, 5, 5)))
    change = bench_pairs.repetition_counts(stats((3877, 3856, 3850), (1838, 1817, 1820),
                                                 (4, 4, 3), (8, 8, 6)))
    assert parent == {"steps": 6000, "residual_passes": 12542, "newton_iterations": 6461,
                      "extrapolated_starts": None, "jacobian_builds": 8,
                      "lu_factorizations": 14}
    assert change == {"steps": 6000, "residual_passes": 11583, "newton_iterations": 5475,
                      "extrapolated_starts": None, "jacobian_builds": 11,
                      "lu_factorizations": 22}
    costs = {"us_per_step": None, "us_per_residual_pass": None}
    line = bench_pairs.summary_line("loadloss", {}, {"parent": costs, "change": costs},
                                    {"parent": parent, "change": change})
    assert line == ("loadloss: steps 6000 -> 6000; residual passes 12542 -> 11583; "
                    "newton iterations 6461 -> 5475; jacobian builds 8 -> 11; "
                    "lu factorizations 14 -> 22")
    assert bench_pairs.repetition_counts({"nominal": {"residual_calls_counted": 24}}) == {
        "steps": None, "residual_passes": 24, "newton_iterations": None,
        "extrapolated_starts": None, "jacobian_builds": None, "lu_factorizations": None}
    started = bench_pairs.repetition_counts(
        {ctl: {**st, "extrapolated_starts": 1798}
         for ctl, st in stats((2536, 2224, 2227), (2513, 2200, 2203), (2, 2, 2), (4, 4, 4)).items()})
    assert started["extrapolated_starts"] == 5394
    line = bench_pairs.summary_line("loadloss", {}, {"parent": costs, "change": costs},
                                    {"parent": change, "change": started})
    assert "; newton iterations 5475 -> 6916; extrapolated starts None -> 5394; " in line


def test_compare_outputs_digests_each_output_and_measures_those_that_differ(bench_pairs):
    """Equal outputs are bitwise equal by digest; a changed one gets its
    largest abs deviation (complex ones too), a changed shape or a missing
    output gets None."""
    parent = {"a/omega_coi": np.array([1.0, 0.99, 1.01]), "b/eigenvalue": np.array(-0.1 + 0.5j),
              "b/ratio": np.ones(4), "b/go": np.array(0.5)}
    same = bench_pairs.compare_outputs(parent, {k: v.copy() for k, v in parent.items()})
    assert same["bitwise_equal"] and same["max_abs_dev"] == {}
    assert same["sha256"]["parent"] == same["sha256"]["change"]
    assert set(same["sha256"]["parent"]) == set(parent)
    change = {"a/omega_coi": np.array([1.0, 0.99 + 2e-9, 1.01 - 5e-9]),
              "b/eigenvalue": np.array(-0.1 + (0.5 + 3e-12) * 1j),
              "b/ratio": np.ones(5), "c/new": np.zeros(2)}
    diff = bench_pairs.compare_outputs(parent, change)
    assert not diff["bitwise_equal"]
    assert diff["max_abs_dev"] == {"a/omega_coi": pytest.approx(5e-9, rel=1e-6),
                                   "b/eigenvalue": pytest.approx(3e-12, rel=1e-3),
                                   "b/go": None, "b/ratio": None, "c/new": None}
    assert bench_pairs.outputs_line("w", same) == "w outputs: bitwise equal"
    assert bench_pairs.outputs_line("w", diff) == (
        "w outputs: max abs dev a/omega_coi 5e-09, b/eigenvalue 3e-12, b/go n/a, "
        "b/ratio n/a, c/new n/a")


def test_digest_tells_dtype_shape_and_signed_zero(bench_pairs):
    """Arrays with the same values in another dtype or shape, or a zero of
    the other sign, have other digests."""
    a = np.arange(4.0)
    digests = {bench_pairs.digest(x) for x in
               (a, a.astype(np.float32), a.reshape(2, 2), a.copy(), np.array([-0.0, 1, 2, 3]))}
    assert len(digests) == 4
    assert bench_pairs.digest(a[::-1][::-1]) == bench_pairs.digest(a)


def test_compare_tables_digests_each_file_and_measures_the_columns_that_differ(
        bench_pairs, tmp_path):
    """Tables written as the CLI writes them: equal files are bitwise equal
    by digest; a file that differs gets the largest abs deviation of each
    column that differs, 0.0 when only its text does, and None when it is
    missing on one side."""
    def table(name, header, columns):
        write_csv(tmp_path / name, header, columns)
        return (tmp_path / name).read_bytes()

    t = np.linspace(0.0, 1.0, 6)
    omega = 1.0 + 0.01 * np.sin(t)
    parent = {"ksweep.csv": table("ksweep.csv", ["k", "ratio"], [t, 2.0 * t]),
              "timeseries.csv": table("timeseries.csv", ["t", "omega_coi", "p_cig"],
                                      [t, omega, 0.5 * t])}
    same = bench_pairs.compare_tables(parent, dict(parent))
    assert same["bitwise_equal"] and same["max_abs_dev"] == {}
    assert same["sha256"]["parent"] == same["sha256"]["change"]
    assert set(same["sha256"]["parent"]) == set(bench_pairs.CLI_TABLES)
    change = {"timeseries.csv": table("timeseries.csv", ["t", "omega_coi", "p_cig"],
                                      [t, omega + 2e-11 * t, 0.5 * t])}
    diff = bench_pairs.compare_tables(parent, change)
    assert not diff["bitwise_equal"]
    assert diff["max_abs_dev"] == {"ksweep.csv": None,
                                   "timeseries.csv/omega_coi": pytest.approx(2e-11, rel=1e-3)}
    spaced = {**parent, "ksweep.csv": parent["ksweep.csv"].replace(b"\n", b"\r\n")}
    assert bench_pairs.compare_tables(parent, spaced)["max_abs_dev"] == {"ksweep.csv": 0.0}
    assert bench_pairs.outputs_line("cli", diff) == (
        "cli outputs: max abs dev ksweep.csv n/a, timeseries.csv/omega_coi 2e-11")


def test_cli_tables_leave_out_a_table_whose_run_fails(bench_pairs, tmp_path):
    """A checkout whose `ksweep` exits nonzero: its table is left out and
    the other is kept, so the comparison records it as missing on that
    side instead of the whole record being lost."""
    package = tmp_path / "src" / "gridfreq"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "import sys, pathlib\n"
        "args = sys.argv[1:]\n"
        "if args[0] == 'ksweep':\n"
        "    sys.exit(2)\n"
        "out = pathlib.Path(args[args.index('--out') + 1])\n"
        "(out / 'timeseries.csv').write_text('t,omega_coi\\n0.0,1.0\\n')\n")
    tables = bench_pairs.cli_tables(tmp_path)
    assert tables == {"timeseries.csv": b"t,omega_coi\n0.0,1.0\n"}
    parent = {**tables, "ksweep.csv": b"k,ratio\n0.0,1.0\n"}
    assert bench_pairs.compare_tables(parent, tables)["max_abs_dev"] == {"ksweep.csv": None}


def test_stats_script_saves_each_set_up_state(bench_pairs, tmp_path):
    """One untimed `smallsig` pass, seed 0, on this checkout: beside the
    outputs, the .npz holds the [x; y] each operation's set-up built, the
    nominal one equal to `build_system` on the bundled case, and the stats
    hold each operation's timed residual pass, its device kernels, output
    row and set-up."""
    saved = tmp_path / "outputs.npz"
    proc = subprocess.run([sys.executable, "-c", bench_pairs.STATS_SCRIPT, "smallsig", "0",
                           str(saved)], cwd=ROOT, check=True, capture_output=True, text=True)
    stats = json.loads(proc.stdout)
    labels = list(stats)
    assert labels == ["nominal", "point1", "point2", "point3"]
    assert all(0.0 < stats[label]["residual_us"] < 1e4 for label in labels)
    assert all(0.0 < stats[label]["devices_us"] < stats[label]["residual_us"]
               for label in labels)
    assert all(0.0 < stats[label]["record_us"] < 1e4 for label in labels)
    assert all(0.0 < stats[label]["setup_us"] < 1e5 for label in labels)
    with np.load(saved) as outputs:
        arrays = dict(outputs)
    for label in labels:
        assert {f"{label}/setup_x", f"{label}/setup_y", f"{label}/ratio"} <= set(arrays)
    _, state = build_system(load_bundled_case(), "cig_omega_tilde", freq_loop=False)
    assert arrays["nominal/setup_x"].tobytes() == state.x.tobytes()
    assert arrays["nominal/setup_y"].tobytes() == state.y.tobytes()
    assert arrays["point1/setup_y"].shape == state.y.shape
    assert arrays["point1/setup_y"].tobytes() != state.y.tobytes()
