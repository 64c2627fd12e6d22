"""Tests for the command-line front end: scenarios, CSV/SVG output,
manifests, and exit codes."""

import json
import platform

import numpy as np
import pytest
import scipy

import gridfreq
import gridfreq.cli
from gridfreq.cli import (
    OUT_DIR_ENV,
    Scenario,
    ScenarioError,
    load_scenario,
    main,
    render_svg,
)
from gridfreq.dae import StepError


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


def test_scenario_rejects_bad_event(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"events": [{"t": 1.0, "type": "meteor", "bus": 5}]}')
    with pytest.raises(ScenarioError, match="meteor"):
        load_scenario(str(p), {})


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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_pf_writes_nine_rows(tmp_path, monkeypatch):
    assert run_cli(["pf", "--tol", "1e-10"], tmp_path, monkeypatch) == 0
    rows = (tmp_path / "powerflow.csv").read_text().strip().splitlines()
    assert len(rows) == 10  # header + 9 buses
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["command"] == "pf"
    assert man["scenario_sha256"] == load_scenario(None, {}).digest
    assert man["max_mismatch"] <= 1e-10
    assert_versions(man)


def assert_versions(man):
    assert man["versions"] == {"gridfreq": gridfreq.__version__, "numpy": np.__version__,
                               "scipy": scipy.__version__,
                               "python": platform.python_version()}


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
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert_versions(man)
    stats = man["stats"]
    assert stats["steps"] == 100 and stats["newton_iterations"] > 0
    assert stats["jacobian_builds"] >= 1 and stats["lu_factorizations"] >= 1
    for ch in ("omega_coi", "v_bus7", "p_cig", "q_cig"):
        svg = (tmp_path / f"{ch}.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


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
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["command"] == "run" and f"error: {doc['error']}\n" == err
    assert 1.0 <= doc["t_last"] < 3.0
    stats = doc["stats"]
    assert stats["resolves"] == 1 and stats["step_halvings"] >= 4
    assert sum(stats["newton_histogram"].values()) == stats["steps"]
    assert not (tmp_path / "timeseries.csv").exists()


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
    man = json.loads((tmp_path / "manifest.json").read_text())
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
    assert_versions(json.loads((tmp_path / "manifest.json").read_text()))


@pytest.mark.parametrize("grid, message", [
    (["--k-step", "0"], "--k-step must be positive"),
    (["--k-step", "-0.05"], "--k-step must be positive"),
    (["--k-min", "1", "--k-max", "0"], "--k-max 0 is below --k-min 1"),
    (["--k-max", "inf"], "--k-min, --k-max and --k-step must be finite"),
])
def test_ksweep_bad_grid_exits_2(tmp_path, monkeypatch, capsys, grid, message):
    rc = run_cli(["ksweep"] + grid, tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "manifest.json").exists()


def test_output_dir_env_var(tmp_path, monkeypatch):
    out = tmp_path / "via_env"
    assert run_cli(["pf"], tmp_path, monkeypatch, env_out=out) == 0
    assert (out / "powerflow.csv").exists()


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

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
