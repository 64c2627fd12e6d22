"""Tests for the command-line front end: scenarios, CSV/SVG output,
manifests, and exit codes."""

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gridfreq
import gridfreq.cli
import gridfreq.dae
from gridfreq.cli import (
    OUT_DIR_ENV,
    Scenario,
    ScenarioError,
    load_scenario,
    main,
    render_svg,
    write_csv,
)
from gridfreq.dae import StepError


def read_manifest(out):
    """The manifest.json in out, parsed as strict JSON: NaN and Infinity raise."""
    def reject(name):
        raise ValueError(f"{name} in {out / 'manifest.json'} is not JSON")

    return json.loads((out / "manifest.json").read_text(), parse_constant=reject)


@pytest.fixture(autouse=True)
def manifests_are_strict_json(tmp_path):
    yield
    for path in tmp_path.rglob("manifest.json"):
        read_manifest(path.parent)


def run_cli(args, tmp_path, monkeypatch, env_out=None):
    if env_out is not None:
        monkeypatch.setenv(OUT_DIR_ENV, str(env_out))
    else:
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    return main(args + ["--out", str(tmp_path)]) if env_out is None else main(args)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenario_defaults():
    sc = load_scenario(None, {})
    assert sc.case == "wscc9"
    assert sc.control == "cig_omega_tilde"
    assert sc.events == []


def test_scenario_file_and_overrides(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({
        "control": "cig_omega", "t_end": 5.0,
        "events": [{"t": 1.0, "type": "load_scale", "bus": 5, "factor": 0.5}]}))
    sc = load_scenario(str(p), {"t_end": 2.0})
    assert sc.control == "cig_omega"
    assert sc.t_end == 2.0  # CLI flag wins
    assert len(sc.events) == 1
    assert sc.events[0].time == 1.0
    assert len(sc.digest) == 64


def test_scenario_rejects_unknown_fields(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"controll": "no_cig"}')
    with pytest.raises(ScenarioError, match="unknown fields"):
        load_scenario(str(p), {})


@pytest.mark.parametrize("channels", [[["omega_coi"]], [5], ["omega_coi", None]])
def test_scenario_rejects_channel_entries_that_are_not_names(tmp_path, channels):
    """A channel entry that is not a string is a scenario error, as a field
    of the wrong type is, before any model is built."""
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"channels": channels}))
    with pytest.raises(ScenarioError, match="channels must be a list of names"):
        load_scenario(str(p), {})


def test_scenario_rejects_unknown_event_fields(tmp_path):
    """A misspelt field is an error, not the default it would leave in place
    (here the bolted fault, g = 1e4)."""
    p = tmp_path / "s.json"
    p.write_text('{"events": [{"t": 1.0, "type": "fault_on", "bus": 7, "G": 5.0}]}')
    with pytest.raises(ScenarioError, match=r"unknown fields \['G'\]"):
        load_scenario(str(p), {})


@pytest.mark.parametrize("event, error", [
    ({"t": 1.0, "type": "meteor", "bus": 5}, "unknown event type 'meteor'"),
    ({"t": 1.0, "type": "load_scale", "bus": 5.7, "factor": 0.5},
     "bus must be an integer id, got 5.7"),
    ({"t": 1.0, "type": "load_scale", "bus": True, "factor": 0.5},
     "bus must be an integer id, got True"),
    ({"t": 1.0, "type": "load_scale", "bus": 5, "factor": "0.5"},
     "factor must be a number, got '0.5'"),
    ({"t": "1", "type": "fault_off", "bus": 7}, "t must be a number, got '1'"),
], ids=["meteor", "bus 5.7", "bus true", "factor string", "t string"])
def test_scenario_rejects_bad_event(tmp_path, event, error):
    """An unknown event type, a bus id that is not an int, or a number
    given as a string is an error, never coerced (5.7 to bus 5, true to
    bus 1, "0.5" to 0.5)."""
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"events": [event]}))
    with pytest.raises(ScenarioError, match=re.escape(error)):
        load_scenario(str(p), {})


@pytest.mark.parametrize("control", ["cig_omega", "no_cig"])
def test_scenario_rejects_a_k_its_control_would_not_run(tmp_path, monkeypatch, capsys, control):
    """Only cig_omega_tilde runs the compensation gain (`build_system`
    forces K = 0 under cig_omega, and no_cig has no converter): a k under
    another control is bad input, from the file or the flag, exit 2 with
    no manifest, while the default k = None runs."""
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"control": control, "k": 1.2}))
    with pytest.raises(ScenarioError, match=f"k is the gain of cig_omega_tilde; '{control}'"):
        load_scenario(str(p), {})
    p.write_text(json.dumps({"control": control}))
    with pytest.raises(ScenarioError, match="k is the gain of cig_omega_tilde"):
        load_scenario(str(p), {"k": 0.0})
    assert load_scenario(str(p), {}).k is None
    rc = run_cli(["ksweep", "--scenario", str(p), "--k", "1.2"], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err == (f"error: k is the gain of cig_omega_tilde; "
                                       f"'{control}' would not run k = 1.2\n")
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "ksweep.csv").exists()


def test_scenario_digest_covers_overrides():
    base = load_scenario(None, {})
    assert load_scenario(None, {}).digest == base.digest
    d1 = load_scenario(None, {"k": 1.0}).digest
    d2 = load_scenario(None, {"k": 2.0}).digest
    assert len({base.digest, d1, d2}) == 3
    assert load_scenario(None, {"t_end": 2.0}).digest != base.digest


def test_scenario_digest_same_from_file_or_flags(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"k": 1, "t_end": 2, "h": 0.01, "out_dir": "elsewhere"}))
    from_flags = load_scenario(None, {"k": 1.0, "t_end": 2.0, "h": 0.01})
    assert load_scenario(str(p), {}).digest == from_flags.digest


def test_scenario_digest_covers_events(tmp_path):
    def digest(events):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"events": events}))
        return load_scenario(str(p), {}).digest

    ev = {"t": 1.0, "type": "load_scale", "bus": 5, "factor": 0.5}
    digests = {digest([]), digest([ev]), digest([{**ev, "t": 1.5}]),
               digest([{"t": 1.0, "type": "fault_off", "bus": 5}])}
    assert len(digests) == 4
    assert digest([]) == load_scenario(None, {}).digest


def test_scenario_bundled_case_loads():
    assert Scenario(case="wscc9").load_case().network.n_bus == 9


def test_a_directory_named_like_the_bundled_case_is_not_read(tmp_path, monkeypatch):
    """A case name is a path only with the .case suffix or when it names a
    file: a directory wscc9/ in the working directory leaves the bundled
    case in use."""
    (tmp_path / "wscc9").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run_cli(["eig"], tmp_path / "out", monkeypatch) == 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_pf_writes_nine_rows(tmp_path, monkeypatch):
    assert run_cli(["pf", "--tol", "1e-10"], tmp_path, monkeypatch) == 0
    rows = (tmp_path / "powerflow.csv").read_text().strip().splitlines()
    assert len(rows) == 10  # header + 9 buses
    man = read_manifest(tmp_path)
    assert man["command"] == "pf"
    assert man["scenario_sha256"] == load_scenario(None, {}).digest
    assert man["max_mismatch"] <= 1e-10
    assert_versions(man)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_pf_bad_tolerance_exits_2(tmp_path, monkeypatch, capsys, tol):
    rc = run_cli(["pf", "--tol", tol], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: power-flow tolerance tol must be finite and positive, got {float(tol):g}")
    assert not (tmp_path / "manifest.json").exists()


# three buses, one branch: bus 3 is isolated
ISOLATED_BUS_CASE = """SYSTEM 100 60
BUS 1 slack 1.0 0 0 0 0 0 0
BUS 2 pq 1.0 0.5 0.1 0 0 0 0
BUS 3 pq 1.0 0.2 0 0 0 0 0
BRANCH 1 2 0.01 0.1 0 1 1
"""
NAN_LOAD_CASE = (ISOLATED_BUS_CASE.replace("1.0 0.2", "1.0 nan")
                 + "BRANCH 2 3 0.01 0.1 0 1 1\n")


@pytest.mark.parametrize("text, error", [
    (ISOLATED_BUS_CASE, "singular power-flow Jacobian at iteration 0"),
    (NAN_LOAD_CASE, "non-finite power-flow mismatch nan at iteration 0"),
], ids=["isolated_bus", "nan_load"])
def test_pf_failing_power_flow_exits_2(tmp_path, monkeypatch, capsys, text, error):
    """A case with an isolated PQ bus, or a NaN load, fails the power flow
    at once: exit 2 with an error line naming the iteration."""
    case = tmp_path / "failing.case"
    case.write_text(text)
    rc = run_cli(["pf", "--case", str(case)], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "manifest.json").exists()


def assert_versions(man):
    assert man["versions"] == {"gridfreq": gridfreq.__version__, "numpy": np.__version__,
                               "python": platform.python_version()}


def test_the_cli_loads_no_scipy():
    """numpy is the only run-time dependency: a fresh process that imports
    the CLI, and with it the package, loads no scipy module."""
    code = ("import sys, gridfreq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(gridfreq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_pf_broken_case_nonzero_exit(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "broken.case"
    bad.write_text("SYSTEM 100 60\nBUS 1 slack 1.0 0 0 0 0 0\n")  # short row
    rc = run_cli(["pf", "--case", str(bad)], tmp_path, monkeypatch)
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_run_emits_csv_and_svg(tmp_path, monkeypatch):
    sc = tmp_path / "s.json"
    sc.write_text(json.dumps({
        "control": "cig_omega_tilde", "k": 1.2, "t_end": 2.0,
        "h": 0.02, "output_dt": 0.1,
        "events": [{"t": 0.5, "type": "load_scale", "bus": 5, "factor": 0.5}],
        "channels": ["omega_coi", "v_bus7", "p_cig", "q_cig"]}))
    assert run_cli(["run", "--scenario", str(sc)], tmp_path, monkeypatch) == 0
    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t,omega_coi,v_bus7,p_cig,q_cig"
    man = read_manifest(tmp_path)
    assert_versions(man)
    stats = man["stats"]
    # at rest until the load loss: 0.5 s held, 75 steps of 20 ms after it
    assert stats["held_s"] == 0.5 and stats["steps"] == 75 and stats["newton_iterations"] > 0
    assert stats["jacobian_builds"] >= 1 and stats["lu_factorizations"] >= 1
    assert 0 <= stats["jacobian_refreshes"] < stats["jacobian_builds"]
    assert 0.0 < stats["max_residual"] < 1e-8  # Newton's tolerance
    for ch in ("omega_coi", "v_bus7", "p_cig", "q_cig"):
        svg = (tmp_path / f"{ch}.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


def test_run_cleared_fault_from_the_docstring_scenario(tmp_path, monkeypatch):
    """The module docstring's events, a load loss and a 5 pu fault at bus 7
    cleared after 100 ms, run to the end, with one re-solve per event
    instant; the manifest holds the resolved scenario, the very object its
    digest hashes, and as a scenario file it reruns the same run."""
    events = [{"t": 1.0, "type": "load_scale", "bus": 5, "factor": 0.5},
              {"t": 1.0, "type": "fault_on", "bus": 7, "g": 5.0, "b": 0.0},
              {"t": 1.1, "type": "fault_off", "bus": 7}]
    sc = tmp_path / "s.json"
    sc.write_text(json.dumps({"control": "cig_omega_tilde", "t_end": 1.5, "h": 0.01,
                              "output_dt": 0.01, "events": events}))
    assert run_cli(["run", "--scenario", str(sc)], tmp_path, monkeypatch) == 0
    man = read_manifest(tmp_path)
    assert man["stats"]["resolves"] == 2   # one per event instant
    scenario = man["scenario"]
    assert scenario["events"] == [{**ev, "b": 0.0} if ev["type"] == "fault_on" else ev
                                  for ev in events]
    assert scenario["control"] == "cig_omega_tilde" and scenario["t_end"] == 1.5
    canon = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == man["scenario_sha256"]
    rows = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert len(rows) == 1 + 151 and rows[-1].startswith("1.5,")
    again = tmp_path / "again"
    (tmp_path / "resolved.json").write_text(json.dumps(scenario))
    assert run_cli(["run", "--scenario", str(tmp_path / "resolved.json")], again,
                   monkeypatch) == 0
    assert read_manifest(again)["scenario_sha256"] == man["scenario_sha256"]
    assert ((again / "timeseries.csv").read_bytes()
            == (tmp_path / "timeseries.csv").read_bytes())


def test_run_is_deterministic(tmp_path, monkeypatch):
    args = ["run", "--t-end", "1.0", "--h", "0.02"]
    assert run_cli(args, tmp_path / "a", monkeypatch) == 0
    assert run_cli(args, tmp_path / "b", monkeypatch) == 0
    csv_a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    csv_b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b


def test_run_step_error_exits_2(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise StepError("Newton failed at t=1.0000s with h=0.02s")

    monkeypatch.setattr(gridfreq.cli, "simulate", fail)
    rc = run_cli(["run", "--t-end", "1.0"], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: Newton failed at t=1.0000s")


def test_run_double_load_step_exits_2(tmp_path, monkeypatch, capsys):
    """The x2 load at bus 5 fails after the event: exit 2, and a manifest
    with the error, the last accepted time and the solver stats so far."""
    sc = tmp_path / "s.json"
    sc.write_text(json.dumps({
        "control": "no_cig", "t_end": 3.0, "h": 0.005, "output_dt": 0.005,
        "events": [{"t": 1.0, "type": "load_scale", "bus": 5, "factor": 2.0}]}))
    rc = run_cli(["run", "--scenario", str(sc)], tmp_path, monkeypatch)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Newton failed at t=")
    doc = read_manifest(tmp_path)
    assert doc["command"] == "run" and f"error: {doc['error']}\n" == err
    assert 1.0 <= doc["t_last"] < 3.0
    stats = doc["stats"]
    assert stats["resolves"] == 1 and stats["step_halvings"] >= 4
    assert sum(stats["newton_histogram"].values()) == stats["steps"]
    assert not (tmp_path / "timeseries.csv").exists()


@pytest.mark.parametrize("doc", ['5', '{"events": [5]}', '{"events": "ab"}', '{"case": 5}',
                                 '{"h": null}', '{"t_end": [1]}', '{"channels": 5}',
                                 '{"channels": [["omega_coi"]]}', '{"channels": [5]}',
                                 '{"out_dir": null}', '{"out_dir": 5}'])
def test_run_malformed_scenario_exits_2(tmp_path, monkeypatch, capsys, doc):
    """A scenario that is not an object, or has a field of the wrong type,
    is bad input: exit 2 with an error line, before anything runs."""
    sc = tmp_path / "s.json"
    sc.write_text(doc)
    rc = run_cli(["run", "--scenario", str(sc)], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("doc, field", [
    ('{"output_dt": 0}', "output_dt"),
    ('{"output_dt": -0.1}', "output_dt"),
    ('{"t_end": Infinity}', "t_end"),
    ('{"h": NaN}', "h"),
    ('{"t_end": NaN}', "t_end"),
    ('{"k": NaN}', "k"),
    ('{"events": [{"t": 1.0, "type": "load_scale", "bus": 5, "factor": Infinity}]}', "factor"),
    ('{"t_end": "2"}', "t_end"),
    ('{"k": true}', "k"),
    ('{"events": [{"t": 1.0, "type": "load_scale", "bus": 5, "factor": "0.5"}]}', "factor"),
    pytest.param('{"h": 1%s}' % ("0" * 400), "h", id="h beyond the float range"),
])
def test_run_bad_number_exits_2(tmp_path, monkeypatch, capsys, doc, field):
    """A value that is not a number (a string or a bool), a NaN or
    infinite number, or a step, output interval or horizon that is not
    positive, is bad input: exit 2 with an error naming the field, no
    manifest, and no integrator built (a missed check fails here instead
    of hanging the run)."""
    def built(model):
        raise AssertionError("an integrator was built")

    monkeypatch.setattr(gridfreq.dae, "TrapezoidalIntegrator", built)
    sc = tmp_path / "s.json"
    sc.write_text(doc)
    rc = run_cli(["run", "--scenario", str(sc)], tmp_path, monkeypatch)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{field} must be finite" in err or f"{field} must be a number" in err
    assert not (tmp_path / "manifest.json").exists()


def test_run_infeasible_dispatch_exits_2(tmp_path, monkeypatch, capsys):
    """A case whose dispatch the machine limits cannot hold (here every
    p_max lowered to 0.5) is bad input: exit 2 with an error line, before
    any manifest is written."""
    text = resources.files("gridfreq.data").joinpath("wscc9.case").read_text()
    case = tmp_path / "low_pmax.case"
    case.write_text("\n".join(ln.replace(" 0.0 2.5", " 0.0 0.5") if ln.startswith("MACHINE")
                              else ln for ln in text.splitlines()) + "\n")
    rc = run_cli(["run", "--case", str(case), "--t-end", "1.0"], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err == "error: mechanical power 0.716 outside governor limits\n"
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", [["run", "--t-end", "1.0"], ["eig"], ["ksweep"]])
def test_case_with_two_converters_exits_2(tmp_path, monkeypatch, capsys, command):
    """A case with a second CIG record under a converter control is bad
    input: exit 2 with an error line, before any manifest is written."""
    text = resources.files("gridfreq.data").joinpath("wscc9.case").read_text()
    second = next(ln for ln in text.splitlines() if ln.startswith("CIG")).replace("CIG 7", "CIG 5")
    case = tmp_path / "two_cigs.case"
    case.write_text(text + second + "\n")
    rc = run_cli([*command, "--case", str(case)], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: a converter control needs one CIG record, the case has 2\n")
    assert not (tmp_path / "manifest.json").exists()


def test_converter_on_a_case_without_pv_unit_exits_2(tmp_path, monkeypatch, capsys):
    """The bundled case with its PV buses turned to PQ under `cig_omega`:
    no unit can give up the converter's p_ref, exit 2 naming the cause."""
    text = resources.files("gridfreq.data").joinpath("wscc9.case").read_text()
    case = tmp_path / "no_pv.case"
    case.write_text(text.replace(" pv ", " pq "))
    sc = tmp_path / "s.json"
    sc.write_text(json.dumps({"case": str(case), "control": "cig_omega", "t_end": 1.0}))
    rc = run_cli(["run", "--scenario", str(sc)], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no PV unit can supply the converter's p_ref: the case has no PV bus\n")
    assert not (tmp_path / "manifest.json").exists()


def test_run_empty_horizon_fails(tmp_path, monkeypatch, capsys):
    rc = run_cli(["run", "--t-end", "0.0"], tmp_path, monkeypatch)
    assert rc != 0


def test_eig_flags_frequency_mode(tmp_path, monkeypatch):
    assert run_cli(["eig", "--mode-shapes"], tmp_path, monkeypatch) == 0
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    i_f = header.index("frequency_mode")
    flagged = [ln for ln in lines[1:] if ln.split(",")[i_f] == "1"]
    assert len(flagged) == 1
    shapes = (tmp_path / "mode_shapes.csv").read_text().strip().splitlines()
    assert len(shapes) == 4  # header + 3 machines
    man = read_manifest(tmp_path)
    assert man["frequency_mode"] is not None
    assert man["any_unstable"] is False
    assert_versions(man)


def test_ksweep_grid_and_ratio(tmp_path, monkeypatch):
    rc = run_cli(["ksweep", "--k-min", "-0.1", "--k-max", "2.0",
                  "--k-step", "0.05"], tmp_path, monkeypatch)
    assert rc == 0
    lines = (tmp_path / "ksweep.csv").read_text().strip().splitlines()
    assert len(lines) == 44  # header + 43 grid points
    data = {float(k): float(r) for k, r in
            (ln.split(",") for ln in lines[1:])}
    assert data[0.0] == 1.0
    assert (tmp_path / "ksweep.svg").exists()
    assert_versions(read_manifest(tmp_path))


@pytest.mark.parametrize("args", [["run", "--t-end", "0.1"], ["eig"],
                                  ["ksweep", "--k-min", "0.0", "--k-max", "1.0",
                                   "--k-step", "0.5"]])
def test_manifest_records_the_set_up_time(tmp_path, monkeypatch, args):
    """`run`, `eig` and `ksweep` write the seconds of their set-up (case
    load plus `build_system`) as phase_s.setup."""
    assert run_cli(args, tmp_path, monkeypatch) == 0
    setup = read_manifest(tmp_path)["phase_s"]["setup"]
    assert isinstance(setup, float) and 0.0 <= setup < math.inf


def test_ksweep_grid_stops_at_k_max(tmp_path, monkeypatch):
    """A step that does not divide the span ends the grid at the last whole
    step below k_max: 0, 0.35, 0.70, not 1.05."""
    rc = run_cli(["ksweep", "--k-min", "0", "--k-max", "1", "--k-step", "0.35"],
                 tmp_path, monkeypatch)
    assert rc == 0
    k = [float(ln.split(",")[0]) for ln in
         (tmp_path / "ksweep.csv").read_text().splitlines()[1:]]
    assert k == pytest.approx([0.0, 0.35, 0.70], abs=1e-12)


@pytest.mark.parametrize("grid, message", [
    (["--k-step", "0"], "--k-step must be positive"),
    (["--k-step", "-0.05"], "--k-step must be positive"),
    (["--k-min", "1", "--k-max", "0"], "--k-max 0 is below --k-min 1"),
    (["--k-max", "inf"], "--k-min, --k-max and --k-step must be finite"),
    (["--k-step", "1e-9"], "the K grid holds 3.5e+09 gains, more than 10001"),
])
def test_ksweep_bad_grid_exits_2(tmp_path, monkeypatch, capsys, grid, message):
    rc = run_cli(["ksweep"] + grid, tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("control, rc", [("no_cig", 2), ("cig_omega", 0)])
def test_ksweep_runs_the_scenario_control(tmp_path, monkeypatch, capsys, control, rc):
    """`ksweep` builds the control its manifest records: without a
    converter there is no measurement point, exit 2 before any manifest."""
    sc = tmp_path / "s.json"
    sc.write_text(json.dumps({"control": control}))
    assert run_cli(["ksweep", "--scenario", str(sc), "--k-max", "1.0"],
                   tmp_path, monkeypatch) == rc
    if rc == 2:
        assert capsys.readouterr().err.startswith("error: output rows require a converter")
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "ksweep.csv").exists()
    else:
        assert read_manifest(tmp_path)["scenario"]["control"] == control


def test_output_dir_env_var(tmp_path, monkeypatch):
    out = tmp_path / "via_env"
    assert run_cli(["pf"], tmp_path, monkeypatch, env_out=out) == 0
    assert (out / "powerflow.csv").exists()


# ---------------------------------------------------------------------------
# CSV and SVG rendering
# ---------------------------------------------------------------------------

def test_write_csv_text(tmp_path):
    write_csv(tmp_path / "t.csv", ["i", "x"], [np.arange(1, 4), [-0.0, 1e-300, 1 / 3]])
    assert (tmp_path / "t.csv").read_text() == "i,x\n1,-0\n2,1e-300\n3,0.333333333333\n"


def test_render_svg_well_formed():
    t = np.linspace(0, 1, 20)
    svg = render_svg(t, {"a": np.sin(t), "b": np.cos(t)}, title="demo")
    assert svg.count("<polyline") == 2
    assert svg.count("</svg>") == 1
    assert "demo" in svg


def test_render_svg_flat_series():
    t = np.linspace(0, 1, 5)
    svg = render_svg(t, {"flat": np.ones(5)})
    assert "NaN" not in svg and "nan" not in svg
