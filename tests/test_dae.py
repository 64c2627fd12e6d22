"""Tests for DAE assembly, initialization, and trapezoidal integration."""

import numpy as np
import pytest

from gridfreq.casefile import load_bundled_case
from gridfreq.dae import (
    Event,
    StepError,
    SystemState,
    TrapezoidalIntegrator,
    build_system,
    simulate,
    step_trapezoidal,
)
from gridfreq.network import LoadScale


@pytest.fixture(scope="module")
def case():
    return load_bundled_case()


# ---------------------------------------------------------------------------
# Assembly and initialization
# ---------------------------------------------------------------------------

def test_build_system_no_cig(case):
    model, st = build_system(case, "no_cig")
    assert model.n_bus == 9
    assert model.n_x == 3 * 9
    r = np.concatenate([model.f(st.x, st.y), model.g(st.x, st.y)])
    assert np.max(np.abs(r)) < 1e-10


def test_build_system_synthesizes_converter_terminal(case):
    model, st = build_system(case, "cig_omega_tilde")
    # terminal bus behind the step-up transformer is added at assembly
    assert model.n_bus == 10
    assert model.n_x == 3 * 9 + 7
    assert model.cig_bus == 9  # index of the synthesized bus
    r = np.concatenate([model.f(st.x, st.y), model.g(st.x, st.y)])
    assert np.max(np.abs(r)) < 1e-10


def test_build_system_moves_dispatch_to_converter(case):
    model, st = build_system(case, "cig_omega")
    out = model.cig_outputs(st.x, st.y)
    assert out["p_cig"] == pytest.approx(1.0, abs=1e-6)  # 100 MW
    # unit 2 backed off by the converter dispatch
    assert model.net.bus(2).p_gen == pytest.approx(0.63)


def test_equilibrium_invariant_under_compensation_gain(case):
    """rho = 0 at steady state, so K never shifts the operating point."""
    ref = None
    for k in (0.0, 1.2, -0.03):
        _, st = build_system(case, "cig_omega_tilde", k=k)
        z = np.concatenate([st.x, st.y])
        if ref is None:
            ref = z
        else:
            assert np.max(np.abs(z - ref)) < 1e-9


def test_control_mode_validation(case):
    with pytest.raises(ValueError):
        build_system(case, "bogus")


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def test_flat_run_stays_at_equilibrium(case):
    model, st = build_system(case, "cig_omega_tilde")
    ts = simulate(model, st, [], t_end=2.0, h=0.02, output_dt=0.5)
    for name, vals in ts.channels.items():
        assert np.max(np.abs(vals - vals[0])) < 1e-8, name


def test_single_step_accuracy_against_reference(case):
    model, st0 = build_system(case, "cig_omega_tilde")
    # kick one machine speed slightly so there is actual dynamics
    st0 = SystemState(st0.x.copy(), st0.y.copy(), 0.0)
    st0.x[1] += 1e-3
    st0.y = model.solve_algebraic(st0.x, st0.y)

    def advance(h, n):
        integ = TrapezoidalIntegrator(model)
        s = st0.copy()
        for _ in range(n):
            s = integ.step(s, h)
        return s.x

    ref = advance(0.0025, 80)
    e1 = np.max(np.abs(advance(0.02, 10) - ref))
    e2 = np.max(np.abs(advance(0.01, 20) - ref))
    order = np.log2(e1 / e2)
    assert order > 1.8  # trapezoidal rule is second order


def test_step_rejects_bad_stepsize(case):
    model, st = build_system(case, "no_cig")
    with pytest.raises(ValueError):
        step_trapezoidal(model, st, -0.1)


def test_simulate_validates_horizon_and_events(case):
    model, st = build_system(case, "no_cig")
    with pytest.raises(ValueError):
        simulate(model, st, [], t_end=0.0)
    ev = [Event(99.0, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(ValueError):
        simulate(model, st, ev, t_end=10.0)


def test_event_changes_loads_and_resolves_network(case):
    model, st = build_system(case, "cig_omega_tilde")
    ev = [Event(0.5, LoadScale(bus=5, factor=0.5))]
    ts = simulate(model, st, ev, t_end=3.0, h=0.01, output_dt=0.01)
    # the event acted on a copy: the caller's model keeps its network
    assert model.net.bus(5).p_load == pytest.approx(1.25)
    w = ts["omega_coi"]
    assert w[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(w) > 1.001  # load loss drives overfrequency
    # voltages jump at the event but remain finite and reasonable
    v5 = ts["v_bus5"]
    assert np.all((v5 > 0.9) & (v5 < 1.2))


def test_output_grid_is_uniform(case):
    model, st = build_system(case, "no_cig")
    ts = simulate(model, st, [], t_end=1.0, h=0.02, output_dt=0.1)
    assert ts.times[0] == 0.0
    assert ts.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diff(ts.times), 0.1)


def test_timeseries_csv_roundtrip_and_determinism(case):
    model, st = build_system(case, "cig_omega_tilde")
    ev = [Event(0.2, LoadScale(bus=5, factor=0.8))]
    a = simulate(model, st, ev, t_end=1.0, h=0.02, output_dt=0.1).to_csv()
    b = simulate(model, st, ev, t_end=1.0, h=0.02, output_dt=0.1).to_csv()
    assert a == b
    header = a.splitlines()[0].split(",")
    assert header[0] == "t"
    assert "omega_coi" in header and "p_cig" in header and "v_bus7" in header
    rows = a.splitlines()[1:]
    assert len(rows) == 11


def test_ringdown_decays_to_new_equilibrium(case):
    model, st = build_system(case, "cig_omega_tilde")
    ev = [Event(0.5, LoadScale(bus=5, factor=0.9))]
    ts = simulate(model, st, ev, t_end=40.0, h=0.05, output_dt=0.5)
    w = ts["omega_coi"]
    # settled: last two samples essentially equal and above nominal
    assert abs(w[-1] - w[-2]) < 1e-7
    assert w[-1] > 1.0


def test_failed_event_resolve_names_the_event_and_restores_network(case, monkeypatch):
    model, st = build_system(case, "no_cig")
    net0 = model.net

    def stall(x, y):
        raise StepError("algebraic solve stalled, residual 1.0e+00")

    monkeypatch.setattr(model, "solve_algebraic", stall)
    ev = [Event(0.3, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(StepError, match=r"event at t=0\.3s.*stalled"):
        simulate(model, st, ev, t_end=1.0, h=0.02)
    assert model.net is net0
    r = model.g(st.x, st.y)
    assert np.max(np.abs(r)) < 1e-10  # Ybus and loads are the pre-event ones
