"""Self-test of the benchmark harness on short runs (about 20 s).

    python3 -m pytest -q bench/test_harness.py

It checks that a short run of every workload emits every metric that
BENCHMARK.json names, with its unit; that the correctness gate fires on a
perturbed reference; that traced counts repeat exactly; and that a layer
missing from the program reads as absent instead of crashing the run.
"""

import copy
import json

import pytest

import run
import tracing

run.import_gridfreq()

import workloads  # noqa: E402  (imports gridfreq from src/)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def short_run(name, reference, trace=False):
    return run.measure(workloads.make(name, 0, short=True), 0.0, trace, reference)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_short_run_emits_every_metric(name, trace, reference):
    res = short_run(name, reference, trace)
    line = run.result_line(res, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in named] == list(line["metrics"])
    for m in named:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0.0, m["name"]
    assert res["details"]["fail_frac"]["value"] == 0.0
    assert res["details"]["max_dev"]["value"] is not None


def _bump(values, i, by):
    values[i] += by


# Move one checked output of each workload ten tolerances off its reference.
PERTURB = {
    "loadloss": lambda ref: _bump(ref["omega_coi"]["cig_omega"], 300, 10 * ref["tol"]),
    "load_steps": lambda ref: _bump(ref["omega_coi"], 50, -10 * ref["tol"]),
    "smallsig": lambda ref: _bump(ref["eigenvalue"], 1, 10 * ref["tol"]),
}


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_reference_fails_the_check(name, reference):
    bad = copy.deepcopy(reference)
    PERTURB[name](bad[name])
    res = short_run(name, bad)
    assert res["failed"] > 0
    assert not run.result_line(res, False)["correct"]
    assert res["details"]["fail_frac"]["value"] > 0.0
    assert res["details"]["max_dev"]["value"] > reference[name]["tol"]


def test_traced_counts_repeat(reference):
    first, second = (short_run("load_steps", reference, trace=True)["metrics"]
                     for _ in range(2))
    for key, value in first.items():
        if key.endswith(".n") or key.endswith("_per_step"):
            assert second[key] == value, key


def test_missing_layer_reads_absent(reference, monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "dae.f", ("gridfreq.dae", "SystemModel.no_such_f"))
    res = short_run("load_steps", reference, trace=True)
    m = res["metrics"]
    assert res["details"]["absent_layers"] == ["dae.f"]
    assert m["dae.f.n"] is None and m["dae.f.self_s"] is None
    assert m["dae.residual_per_step"] is None
    assert m["dae.g.n"] > 0 and m["dae.step.n"] > 0
