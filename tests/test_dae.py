"""Tests for DAE assembly, initialization, and trapezoidal integration."""

import cmath
import copy
import dataclasses
import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import gridfreq
import gridfreq.cig
import gridfreq.dae
import gridfreq.machines
import gridfreq.smallsignal
from gridfreq.casefile import CIGSpec, load_bundled_case
from gridfreq.dae import (
    CONTROLS,
    Event,
    StepError,
    SystemModel,
    SystemState,
    _HISTORY,
    _PREDICTOR_WEIGHTS,
    TrapezoidalIntegrator,
    build_system,
    record,
    simulate,
)
from gridfreq.machines import N_STATES, sm_kernel
from gridfreq.network import FaultOff, FaultOn, LoadScale, apply_event, build_ybus
from gridfreq.smallsignal import _central_jacobians, linearize


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
    r = model.residual(st.x, st.y)[0]
    assert np.max(np.abs(r)) < 1e-10


def test_build_system_synthesizes_converter_terminal(case):
    model, st = build_system(case, "cig_omega_tilde")
    # terminal bus behind the step-up transformer is added at assembly
    assert model.n_bus == 10
    assert model.n_x == 3 * 9 + 7
    assert model.cig_bus == 9  # index of the synthesized bus
    r = model.residual(st.x, st.y)[0]
    assert np.max(np.abs(r)) < 1e-10


def _mutable_parts(net, machines, cigs) -> set[int]:
    """ids of every mutable object reachable from a network and device specs;
    the frozen device records may be shared."""
    parts = [net, net.buses, net.branches, net.fault_shunts, *net.buses, *net.branches,
             machines, cigs]
    for m in machines:
        parts += [m, m.params, m.avr, m.gov]
    for c in cigs:
        parts += [c, c.params]
    return {id(p) for p in parts
            if not (dataclasses.is_dataclass(p) and type(p).__dataclass_params__.frozen)}


@pytest.mark.parametrize("control", CONTROLS)
def test_build_system_leaves_the_case_alone(control):
    case = load_bundled_case()
    before = copy.deepcopy(case)
    model, _ = build_system(case, control, k=0.7, freq_loop=False)
    assert case == before
    ours = _mutable_parts(model.net, model.machines, [model.cig] if model.cig else [])
    theirs = _mutable_parts(case.network, case.machines, case.cigs)
    assert not ours & theirs


def test_device_records_are_frozen():
    """An attribute assignment on any of the six device record types
    raises: to change a parameter, build a new model."""
    model, _ = build_system(load_bundled_case(), "cig_omega_tilde")
    m, c = model.machines[0], model.cig
    records = [(m, "bus"), (m.params, "H"), (m.avr, "v_ref"), (m.gov, "p_ref"),
               (c, "bus"), (c.params, "K")]
    assert len({type(r) for r, _ in records}) == 6
    for record, name in records:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))


def test_build_system_moves_dispatch_to_converter(case):
    model, st = build_system(case, "cig_omega")
    _, out = model.residual(st.x, st.y)
    assert out["p_cig"] == pytest.approx(1.0, abs=1e-6)  # 100 MW
    # unit 2 backed off by the converter dispatch
    assert model.net.bus(2).p_gen == pytest.approx(0.63)


def test_build_system_converter_on_a_machine_bus():
    """A converter on a machine's bus, with no step-up reactance, takes its
    dispatch off that machine: the built state is an equilibrium."""
    case = load_bundled_case()
    case.cigs[0] = CIGSpec(2, dataclasses.replace(case.cigs[0].params, x_t=0.0))
    model, st = build_system(case, "cig_omega_tilde")
    assert model.cig_bus == model.mach_bus[1]
    assert np.max(np.abs(model.residual(st.x, st.y)[0])) < 1e-8


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


@pytest.mark.parametrize("k", [math.inf, math.nan, "1.2"])
def test_build_system_rejects_a_k_that_is_not_a_finite_number(case, monkeypatch, k):
    """An infinite or NaN gain would build a model whose first residual is
    NaN, and a string would fail inside the kernel: each is a ValueError
    naming k, raised before the power flow runs."""
    def no_power_flow(net):
        raise AssertionError("the power flow ran")

    monkeypatch.setattr(gridfreq.dae, "solve_power_flow", no_power_flow)
    with pytest.raises(ValueError, match="^k must be None or a finite real number, got "):
        build_system(case, "cig_omega_tilde", k=k)


def _scaled_loads_case():
    """The bundled case with the loads of buses 5, 6 and 8 scaled by numpy
    factors, as the benchmark's operating points scale them."""
    case = load_bundled_case()
    for bus_id, s in zip((5, 6, 8), np.array([0.9, 1.1, 1.05])):
        bus = case.network.bus(bus_id)
        bus.p_load *= s
        bus.q_load *= s
    return case


def _numpy_inertia_case():
    """The bundled case with machine 1's H a numpy scalar."""
    case = load_bundled_case()
    m = case.machines[0]
    case.machines[0] = dataclasses.replace(
        m, params=dataclasses.replace(m.params, H=np.float64(m.params.H)))
    return case


def _floats(record) -> dict:
    """A record's fields by name, freq_loop left out."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if f.name != "freq_loop"}


@pytest.mark.parametrize("control, k, make_case, freq_loop", [
    *[(control, None, load_bundled_case, True) for control in CONTROLS],
    ("cig_omega_tilde", np.float64(1.2), load_bundled_case, True),
    ("cig_omega_tilde", None, _scaled_loads_case, False),
    ("cig_omega_tilde", None, _numpy_inertia_case, True),
], ids=[*CONTROLS, "numpy_k", "numpy_load_scales", "numpy_H"])
def test_device_kernel_constants_are_python_floats(control, k, make_case, freq_loop):
    """Every constant a device kernel reads is a Python float (numpy
    scalars, a float subclass, would make every kernel call do numpy-scalar
    arithmetic), and freq_loop a bool: each machine's row of `_devices` and
    its AVR and governor records, set points included, and the converter's
    row and record, also where the gain, the loads or an inertia the model
    is built from are numpy scalars."""
    model, _ = build_system(make_case(), control, k=k, freq_loop=freq_loop)
    for row in model._devices:
        constants = row[8]
        values = constants if isinstance(constants, tuple) else _floats(constants).values()
        assert {type(v) for v in values} == {float}, row[0]
    for m in model.machines:
        assert {type(v) for v in [*_floats(m.avr).values(), *_floats(m.gov).values()]} == {float}
    if model.cig is not None:
        assert model._devices[-1][8] is model.cig.params
        assert {type(v) for v in _floats(model.cig.params).values()} == {float}
        assert type(model.cig.params.freq_loop) is bool


@pytest.mark.parametrize("n_cigs", [0, 2])
def test_converter_control_needs_one_cig_record(n_cigs):
    """A converter control on a case with no CIG record, or with two, is an
    AssemblyError naming the count; without the converter the case builds."""
    case = load_bundled_case()
    case.cigs = case.cigs * n_cigs
    for control in CONTROLS[1:]:
        with pytest.raises(gridfreq.dae.AssemblyError,
                           match=f"needs one CIG record, the case has {n_cigs}"):
            build_system(case, control)
    build_system(case, "no_cig")


def test_converter_control_needs_a_pv_unit():
    """The converter's p_ref is taken from a PV unit: a case whose PV buses
    are all PQ is an AssemblyError naming that, not max()'s ValueError."""
    case = load_bundled_case()
    for bus in case.network.buses:
        if bus.kind == "pv":
            bus.kind = "pq"
    with pytest.raises(gridfreq.dae.AssemblyError,
                       match="^no PV unit can supply the converter's p_ref: "
                             "the case has no PV bus$"):
        build_system(case, "cig_omega")


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
    st0 = TrapezoidalIntegrator(model).resolve(st0)

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
    for h in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step size must be finite and positive"):
            TrapezoidalIntegrator(model).step(st, h)


def test_simulate_validates_horizon_and_events(case, monkeypatch):
    """Bad arguments raise ValueError before the integrator is built (so a
    missed check fails here instead of hanging the run); h, output_dt and
    t_end - t0 must be finite and positive."""
    def built(model):
        raise AssertionError("simulate built an integrator")

    monkeypatch.setattr(gridfreq.dae, "TrapezoidalIntegrator", built)
    model, st = build_system(case, "no_cig")
    with pytest.raises(ValueError, match="t_end - t0 must be finite and positive"):
        simulate(model, st, [], t_end=0.0)
    for bad, name in (({"output_dt": 0.0}, "output_dt"), ({"output_dt": -0.1}, "output_dt"),
                      ({"t_end": math.inf}, "t_end - t0"), ({"t_end": math.nan}, "t_end - t0"),
                      ({"h": math.nan}, "h"), ({"h": math.inf}, "h")):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite and positive"):
            simulate(model, st, [], **{"t_end": 1.0, "h": 0.02, "output_dt": 0.1, **bad})
    ev = [Event(99.0, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(ValueError):
        simulate(model, st, ev, t_end=10.0)
    with pytest.raises(ValueError, match="unknown channels"):
        simulate(model, st, [], t_end=0.1, h=0.02, channels=["omega_coi", "p_cig"])
    with pytest.raises(ValueError, match="unknown channels"):
        simulate(model, st, [], t_end=0.1, h=0.02, channels=[["omega_coi"]])


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
    a = simulate(model, st, ev, t_end=1.0, h=0.02, output_dt=0.1)
    b = simulate(model, st, ev, t_end=1.0, h=0.02, output_dt=0.1)
    assert list(a.channels) == list(b.channels)
    assert "omega_coi" in a.channels and "p_cig" in a.channels and "v_bus7" in a.channels
    assert a.times.tobytes() == b.times.tobytes() and len(a.times) == 11
    for name in a.channels:
        assert a[name].tobytes() == b[name].tobytes()


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

    def stall(self, state):
        raise StepError("algebraic solve stalled, residual 1.0e+00")

    monkeypatch.setattr(TrapezoidalIntegrator, "resolve", stall)
    ev = [Event(0.3, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(StepError, match=r"event at t=0\.3s.*stalled"):
        simulate(model, st, ev, t_end=1.0, h=0.02)
    assert model.net is net0
    r = model.residual(st.x, st.y)[0]
    assert np.max(np.abs(r)) < 1e-10  # Ybus and loads are the pre-event ones


# ---------------------------------------------------------------------------
# A run that starts at rest holds its state until the first event
# ---------------------------------------------------------------------------

def test_the_paper_run_holds_its_equilibrium_until_the_load_loss(case, monkeypatch):
    """The paper's run (cig_omega_tilde, K = 1.2, 50 % load loss at bus 5
    at t = 1 s, h = 5 ms): every default channel's rows before the event
    are the initial row bitwise, 1 s is held and 1 800 steps are taken.
    The hold costs the pass and the Jacobian build of a first step, no
    more: that is all the run has done when the event's re-solve starts."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    resolve, at_event = TrapezoidalIntegrator.resolve, []

    def recorded(self, state):
        at_event.append(dict(self.stats))
        return resolve(self, state)

    monkeypatch.setattr(TrapezoidalIntegrator, "resolve", recorded)
    ts = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))], t_end=10.0,
                  h=0.005, output_dt=0.005)
    assert ts.stats["held_s"] == 1.0 and ts.stats["steps"] == 1800
    before = ts.times < 1.0
    assert before.sum() == 200
    for name, values in ts.channels.items():
        assert (values[before] == values[0]).all(), name
    groups = len(model.jacobian_structure()[1])
    held, = at_event
    assert held["residual_passes"] == 1 + groups
    assert (held["steps"], held["newton_iterations"], held["jacobian_builds"],
            held["lu_factorizations"]) == (0, 0, 1, 2)


def test_a_start_off_rest_is_integrated_from_t0(case):
    """Machine 1's delta moved by 1e-6 leaves the start off rest: nothing is
    held, and the 2 s run takes its 400 steps."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    st.x[0] += 1e-6
    ts = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))], t_end=2.0,
                  h=0.005, output_dt=0.005, channels=["omega_coi"])
    assert ts.stats["held_s"] == 0.0 and ts.stats["steps"] == 400


@pytest.mark.parametrize("control", CONTROLS)
def test_an_event_free_run_holds_to_t_end(case, control):
    """Without an event a run at rest holds to t_end: no step, no Newton
    iteration, one pass and one Jacobian build, and every row of every
    channel is the initial state's."""
    model, st = build_system(case, control, k=1.2 if control == "cig_omega_tilde" else None)
    ts = simulate(model, st, [], t_end=2.0, h=0.02, output_dt=0.1)
    stats = ts.stats
    assert stats["held_s"] == 2.0
    assert stats["steps"] == stats["newton_iterations"] == 0
    assert stats["residual_passes"] == 1 + len(model.jacobian_structure()[1])
    assert stats["jacobian_builds"] == 1 and stats["newton_histogram"] == {}
    assert len(ts.times) == 21
    first = record(model, st, None, TrapezoidalIntegrator(model).evaluate)
    for name, values in ts.channels.items():
        assert (values == first[name]).all(), name


def test_an_event_at_t0_holds_nothing(case):
    """An event at t0 changes the model before any step: the run is
    integrated from t0, as a run off rest is."""
    model, st = build_system(case, "no_cig")
    ts = simulate(model, st, [Event(0.0, LoadScale(bus=5, factor=0.9))], t_end=0.5,
                  h=0.01, output_dt=0.01, channels=["omega_coi"])
    assert ts.stats["held_s"] == 0.0 and ts.stats["steps"] == 50


def test_a_held_run_records_on_the_output_grid(case):
    """With output_dt = 0.03 and the event at t = 1 s, off the grid, the rows
    lie at t0 + k output_dt and t_end, bitwise those of a run off rest."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    off = st.copy()
    off.x[0] += 1e-6
    ev = [Event(1.0, LoadScale(bus=5, factor=0.5))]
    held, stepped = (simulate(model, s, ev, t_end=2.0, h=0.01, output_dt=0.03,
                              channels=["omega_coi"]) for s in (st, off))
    assert held.stats["held_s"] == 1.0 and stepped.stats["held_s"] == 0.0
    assert held.times.tolist() == [0.0 + k * 0.03 for k in range(67)] + [2.0]
    assert held.times.tobytes() == stepped.times.tobytes()


# ---------------------------------------------------------------------------
# One residual pass per Newton iterate
# ---------------------------------------------------------------------------

def test_load_loss_evaluates_each_device_at_most_five_times_per_step(case, call_counts):
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    h, t_end = 0.005, 2.0
    call_counts.update(machines=0, cig=0)
    simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))],
             t_end=t_end, h=h, output_dt=h, channels=["omega_coi"])
    steps = round(t_end / h)
    assert call_counts["machines"] <= 5 * steps
    assert call_counts["cig"] <= 5 * steps


def test_f_and_g_are_the_parts_of_residual(case):
    model, st = build_system(case, "cig_omega_tilde")
    x, y = st.x.copy(), st.y.copy()
    x[1] += 1e-3  # off the equilibrium, so f and g are nonzero
    y[3] -= 1e-3
    r, outputs = model.residual(x, y)
    assert r.shape == (model.n_x + 2 * model.n_bus,)
    assert np.array_equal(model.f(x, y), r[: model.n_x])
    assert np.array_equal(model.g(x, y), r[model.n_x:])
    assert np.abs(r[: model.n_x]).max() > 0 and np.abs(r[model.n_x:]).max() > 0
    assert sorted(outputs) == ["omega_est", "omega_tilde", "p_cig", "q_cig", "rho_est"]
    assert model.residual(x, y)[1] == outputs


def test_record_computes_only_requested_channels(case, call_counts):
    model, st = build_system(case, "cig_omega_tilde")
    evaluate = TrapezoidalIntegrator(model).evaluate
    call_counts.update(machines=0, cig=0)
    assert list(record(model, st, ["omega_coi"], evaluate)) == ["omega_coi"]
    assert call_counts["cig"] == 0
    full = record(model, st, None, evaluate)
    assert call_counts["cig"] == 1
    assert full["p_cig"] == model.residual(st.x, st.y)[1]["p_cig"]
    assert record(model, st, ["v_bus7", "omega_sm2"], evaluate) == {
        "v_bus7": full["v_bus7"], "omega_sm2": full["omega_sm2"]}


def test_record_reads_the_accepted_newton_outputs(case, call_counts, monkeypatch):
    """With the default channels, `simulate` records the converter outputs
    of the integrator's last evaluation: no more machine-block calls than a
    run recording omega_coi alone, and the traces of recomputing them."""
    ev = [Event(1.0, LoadScale(bus=5, factor=0.5))]

    def run(channels=None):
        model, st = build_system(case, "cig_omega_tilde", k=1.2)
        call_counts.update(machines=0, cig=0)
        ts = simulate(model, st, ev, t_end=2.0, h=0.005, output_dt=0.005,
                      channels=channels)
        return ts, call_counts["machines"]

    ts, n_default = run()
    _, n_coi = run(["omega_coi"])
    assert n_default <= n_coi

    def record_recomputing(model, state, channels, evaluate):
        return record(model, state, channels,
                      lambda x, y: (None, model.residual(x, y)[1]))

    monkeypatch.setattr(gridfreq.dae, "record", record_recomputing)
    fresh, n_fresh = run()
    assert n_fresh > n_default
    assert list(fresh.channels) == list(ts.channels)
    for name in ts.channels:
        assert fresh[name].tobytes() == ts[name].tobytes(), name


# ---------------------------------------------------------------------------
# The layout tables: devices and channels
# ---------------------------------------------------------------------------

SM_STATES = ("delta", "omega", "eq1", "ed1", "efd", "rf", "vr", "psv", "pm")
CIG_STATES = ("theta_pll", "xi_pll", "z_rho", "w_wash", "x_v", "i_d", "i_q")
CIG_OUTPUTS = ["p_cig", "q_cig", "omega_est", "rho_est", "omega_tilde"]


@pytest.fixture(scope="module")
def layout_models(case, shared_bus_model):
    """(model, set-up state) of each layout the tables are pinned on: no
    converter; the converter behind x_t on the synthesized bus 10; the
    converter on machine bus 2 with x_t = 0; a second unit on bus 2."""
    moved = load_bundled_case()
    moved.cigs[0] = CIGSpec(2, dataclasses.replace(moved.cigs[0].params, x_t=0.0))
    shared, x, v = shared_bus_model
    return {"no_cig": build_system(case, "no_cig"),
            "cig_omega_tilde": build_system(case, "cig_omega_tilde", k=1.2),
            "converter_on_bus2": build_system(moved, "cig_omega_tilde"),
            "shared_bus": (shared, SystemState(x, np.concatenate([v.real, v.imag]), 0.0))}


def kinds_pattern(model: SystemModel) -> np.ndarray:
    """The Jacobian pattern as `jacobian_structure` built it from one entry
    per kind of device (the machines, then the converter), each kind's
    devices as the rows of one index array."""
    n_x, n = model.n_x, model.n_bus
    pattern = np.zeros((n_x + 2 * n, n_x + 2 * n), dtype=bool)
    pattern[n_x:, n_x:] = (model._y_real != 0.0) | np.tile(np.eye(n, dtype=bool), (2, 2))
    speeds = model.speed_indices
    kinds = [(gridfreq.machines.STATE_NAMES, gridfreq.machines.KERNEL_READS, "omega_coi",
              [(N_STATES * i, b) for i, b in enumerate(model.mach_bus)])]
    if model.cig:
        kinds.append((gridfreq.cig.STATE_NAMES, gridfreq.cig.kernel_reads(model.cig.params),
                      "omega_frame", [(n_x - gridfreq.cig.N_STATES, model.cig_bus)]))
    for names, reads, frame, slots in kinds:
        rows, cols = gridfreq.dae._read_pairs(names, tuple(reads.items()), frame, len(speeds))
        at = np.array([[*range(start, start + len(names)), n_x + b, n_x + n + b, *speeds]
                       for start, b in slots])
        pattern[at[:, rows], at[:, cols]] = True
    return pattern


@pytest.mark.parametrize("which, machines, cig, buses", [
    ("no_cig", 3, False, 9),
    ("cig_omega_tilde", 3, True, 10),
    ("converter_on_bus2", 3, True, 9),
    ("shared_bus", 4, False, 9),
])
def test_layout_tables_of_each_layout(layout_models, which, machines, cig, buses):
    """State labels, n_x and the recordable channels in their default order,
    against literal lists; the converter's outputs are the names of its
    channels; the device table gives the pattern of the kinds of device."""
    model, st = layout_models[which]
    labels = [f"sm{k}_{s}" for k in range(1, machines + 1) for s in SM_STATES]
    labels += [f"cig_{s}" for s in CIG_STATES] if cig else []
    assert model.state_labels == labels
    assert model.n_x == 9 * machines + (7 if cig else 0) == len(st.x)
    channels = ["omega_coi", *(f"omega_sm{k}" for k in range(1, machines + 1)),
                *(f"v_bus{b}" for b in range(1, buses + 1)), *(CIG_OUTPUTS if cig else [])]
    assert list(model.channels) == channels
    outputs = model.residual(st.x, st.y)[1]
    assert set(outputs) == (set(gridfreq.cig.OUTPUT_NAMES) if cig else set())
    assert model.jacobian_structure()[0].tobytes() == kinds_pattern(model).tobytes()


def record_by_name(model: SystemModel, state: SystemState, channels: list[str],
                   evaluate) -> dict[str, float]:
    """`record` as it parsed each channel name on every call: the reference
    the channel table reproduces bitwise."""
    out = {}
    v = outputs = None
    for name in channels:
        if name == "omega_coi":
            out[name] = model.coi_speed(state.x.tolist())
        elif name.startswith("omega_sm"):
            out[name] = float(state.x[model.speed_indices[int(name[8:]) - 1]])
        elif name.startswith("v_bus"):
            if v is None:
                v = state.y[:model.n_bus] + 1j * state.y[model.n_bus:]
            out[name] = float(abs(v[model.net.bus_index(int(name[5:]))]))
        else:
            if outputs is None:
                outputs = evaluate(state.x, state.y)[1]
            out[name] = outputs[name]
    return out


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(which=hst.sampled_from(["no_cig", "cig_omega_tilde", "converter_on_bus2", "shared_bus"]),
       dx=hst.lists(hst.floats(-0.05, 0.05), min_size=36, max_size=36),
       vmag=hst.lists(hst.floats(0.5, 1.3), min_size=10, max_size=10),
       vang=hst.lists(hst.floats(-math.pi, math.pi), min_size=10, max_size=10),
       data=hst.data())
def test_record_is_bitwise_the_name_parsing_record(layout_models, which, dx, vmag, vang, data):
    """Any subset of the recordable channels, in any order, or all of them
    (None), near the set-up state at any bus voltages: the same floats, in
    the same order, as parsing each name."""
    model, st = layout_models[which]
    n = model.n_bus
    v = np.array(vmag[:n]) * np.exp(1j * np.array(vang[:n]))
    state = SystemState(st.x + np.array(dx[: model.n_x]), np.concatenate([v.real, v.imag]), 0.0)
    names = data.draw(hst.permutations(list(model.channels)))
    channels = data.draw(hst.none() | hst.integers(1, len(names)).map(lambda k: names[:k]))
    evaluate = TrapezoidalIntegrator(model).evaluate
    got = record(model, state, channels, evaluate)
    want = record_by_name(model, state, list(model.channels) if channels is None else channels,
                          evaluate)
    assert list(got) == list(want)
    assert got == want
    assert all(type(value) is float for value in got.values())


# ---------------------------------------------------------------------------
# Solver counts
# ---------------------------------------------------------------------------

def test_stats_equal_the_counted_solver_calls(case, monkeypatch):
    """TimeSeries.stats against counted calls of the finite-difference
    Jacobian, of `np.linalg.inv`, of the product of each update with the
    inverse of the step Jacobian that `_factor` returns and of the residual:
    the event re-solve runs through the same Newton, so every call is the
    integrator's; the refreshes against the Jacobians `_accept` dropped; and
    the extrapolated starts against the `_factor` calls at a point the
    residual was not last evaluated at, the starts that take no pass.
    The histogram holds every step, by the solves it took,
    and the worst final residual lies below Newton's tolerance.  The entry
    points the benchmark traces run once per unit of work: `step` once per
    accepted step, `record` once per output row and `_machine_block` once
    per residual pass.  The run holds its state at rest until the event, so
    it steps only after it."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    counts = {"jacobian": 0, "inv": 0, "solve": 0, "residual": 0, "resolve_solve": 0,
              "step": 0, "record": 0, "machine_block": 0, "dropped": 0, "unevaluated": 0}
    resolve, accept = TrapezoidalIntegrator.resolve, TrapezoidalIntegrator._accept
    factor, residual = TrapezoidalIntegrator._factor, SystemModel.residual
    evaluated = [b""]   # the bytes of [x; y] of the last residual pass

    class CountedInverse(np.ndarray):
        """An inverse that counts the updates solved with it."""

        def __matmul__(self, other):
            counts["solve"] += 1
            return np.asarray(self) @ other

    def counted_factor(self, z, h, r0):
        counts["unevaluated"] += z.tobytes() != evaluated[0]
        inv = factor(self, z, h, r0)
        return None if inv is None else inv.view(CountedInverse)

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(gridfreq.dae, "_fd_jacobian", "jacobian")
    count(np.linalg, "inv", "inv")
    monkeypatch.setattr(TrapezoidalIntegrator, "_factor", counted_factor)
    def counted_residual(self, x, y):
        counts["residual"] += 1
        evaluated[0] = x.tobytes() + y.tobytes()
        return residual(self, x, y)

    monkeypatch.setattr(SystemModel, "residual", counted_residual)
    count(TrapezoidalIntegrator, "step", "step")
    count(gridfreq.dae, "record", "record")
    count(SystemModel, "_machine_block", "machine_block")

    def counted_resolve(self, state):
        before = counts["solve"]
        out = resolve(self, state)
        counts["resolve_solve"] += counts["solve"] - before
        return out

    def counted_accept(self, solves, on_jacobian):
        held = self._reduced is not None
        accept(self, solves, on_jacobian)
        counts["dropped"] += held and self._reduced is None

    monkeypatch.setattr(TrapezoidalIntegrator, "resolve", counted_resolve)
    monkeypatch.setattr(TrapezoidalIntegrator, "_accept", counted_accept)
    h, t_end = 0.005, 2.0
    ts = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))],
                  t_end=t_end, h=h, output_dt=h, channels=["omega_coi"])
    steps = round((t_end - 1.0) / h)
    hist = ts.stats["newton_histogram"]
    assert 0.0 < ts.stats["max_residual"] < TrapezoidalIntegrator.tol
    assert ts.stats == {"steps": steps,
                        "newton_iterations": counts["solve"],
                        "extrapolated_starts": counts["unevaluated"],
                        "jacobian_builds": counts["jacobian"],
                        "jacobian_refreshes": counts["dropped"],
                        "lu_factorizations": counts["inv"],
                        "step_halvings": 0,
                        "resolves": 1,
                        "residual_passes": counts["residual"],
                        "newton_histogram": hist,
                        "max_residual": ts.stats["max_residual"],
                        "held_s": 1.0}
    assert sum(hist.values()) == steps and list(hist) == sorted(hist)
    assert sum(k * n for k, n in hist.items()) == counts["solve"] - counts["resolve_solve"]
    assert counts["solve"] > 0 and counts["jacobian"] >= 2  # start, and after the event
    assert counts["unevaluated"] > 0
    assert counts["step"] == steps
    assert counts["record"] == len(ts.times) == round(t_end / h) + 1
    assert counts["machine_block"] == counts["residual"]


def test_stats_report_step_halvings(case, monkeypatch):
    """A step whose Newton fails once is taken as two halves: one halving,
    two accepted steps in its place.  The start is moved off rest (machine
    1's delta + 1e-6), so that the run steps from t0."""
    model, st = build_system(case, "no_cig")
    st.x[0] += 1e-6
    newton = TrapezoidalIntegrator._newton
    calls = []

    def fail_first(self, state, h):
        calls.append(h)
        return None if len(calls) == 1 else newton(self, state, h)

    monkeypatch.setattr(TrapezoidalIntegrator, "_newton", fail_first)
    ts = simulate(model, st, [], t_end=0.1, h=0.02, output_dt=0.02)
    assert calls[:3] == [0.02, 0.01, 0.01]
    assert ts.stats["step_halvings"] == 1
    assert ts.stats["steps"] == 6


def test_steps_are_exactly_h_and_share_one_factorization(case, monkeypatch):
    """On a time grid of h = output_dt every top-level step is exactly h,
    not h up to the rounding of the grid: two inversions per Jacobian, that
    of g_y when it is built and that of I - h/2 A for the one h.  The event
    re-solve at h = 0 inverts nothing, neither on the pre-event Jacobian nor
    on the one it built, which the first step after it inverts for h.  The
    run holds its state at rest until the event, and steps only after it."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    step = TrapezoidalIntegrator.step
    sizes = []

    def recorded(self, state, h, _depth=0):
        if _depth == 0:
            sizes.append(h)
        return step(self, state, h, _depth)

    monkeypatch.setattr(TrapezoidalIntegrator, "step", recorded)
    h = 0.005
    ts = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))],
                  t_end=2.0, h=h, output_dt=h, channels=["omega_coi"])
    assert len(sizes) == 200 and set(sizes) == {h}
    assert ts.stats["lu_factorizations"] == 2 * ts.stats["jacobian_builds"]


def test_failed_newton_builds_one_jacobian(case):
    """A Newton call that fails from a cached Jacobian refreshes it once,
    between its two attempts, and builds none after the second."""
    model, st = build_system(case, "no_cig")
    integ = TrapezoidalIntegrator(model)
    s1 = integ.step(st, 0.01)
    builds, iters = integ.stats["jacobian_builds"], integ.stats["newton_iterations"]
    model._set_network(apply_event(model.net, FaultOn(bus=7, g=20.0)))
    with np.errstate(all="ignore"):
        assert integ._newton(s1, 0.0) is None
    assert integ.stats["jacobian_builds"] - builds == 1
    assert integ.stats["newton_iterations"] - iters == 2 * integ.max_iter


# ---------------------------------------------------------------------------
# Extrapolated predictor and rent-or-buy Jacobian refresh
# ---------------------------------------------------------------------------

def test_first_step_after_resolve_is_a_fresh_integrators(case):
    """An event re-solve ends the step history and keeps only a Jacobian it
    built: the next step, whose start point is the last accepted one and
    whose h is the history's, is bitwise a fresh integrator's holding that
    Jacobian."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    h = 0.005
    integ = TrapezoidalIntegrator(model)
    s = st
    for _ in range(5):
        s = integ.step(s, h)
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    s = integ.resolve(s)
    fresh = TrapezoidalIntegrator(model)
    fresh._reduced = integ._reduced
    a, b = integ.step(s, h), fresh.step(s, h)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_first_step_after_a_resolve_that_dropped_its_jacobian_is_a_fresh_integrators(case):
    """A 15 % load step re-solves on the pre-event Jacobian and drops it: the
    next step is bitwise that of an integrator that never stepped."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    h = 0.005
    integ = TrapezoidalIntegrator(model)
    s = st
    for _ in range(5):
        s = integ.step(s, h)
    builds = integ.stats["jacobian_builds"]
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=1.15)))
    s = integ.resolve(s)
    assert integ.stats["jacobian_builds"] == builds and integ._reduced is None
    a, b = integ.step(s, h), TrapezoidalIntegrator(model).step(s, h)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


@pytest.mark.parametrize("k", range(2, _HISTORY + 1))
@pytest.mark.parametrize("spacing", [0.1, 0.005])
def test_predictor_weights_extrapolate_polynomials(k, spacing):
    """The weights through k equally spaced points give the next point of
    any polynomial of degree k - 1 through them."""
    rng = np.random.default_rng(k)
    for _ in range(5):
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, k))
        t = 1.0 + spacing * np.arange(k + 1)
        predicted = _PREDICTOR_WEIGHTS[k] @ poly(t[:k])
        assert abs(predicted - poly(t[k])) <= 1e-12


def started_steps(model, monkeypatch):
    """An integrator on model, and the list its Newton start points go to:
    the point each attempt passes to `_factor`."""
    integ = TrapezoidalIntegrator(model)
    starts = []
    factor = integ._factor
    monkeypatch.setattr(integ, "_factor",
                        lambda z, h, r0: starts.append(z.copy()) or factor(z, h, r0))
    return integ, starts


def test_newton_starts_from_the_quartic_through_the_last_five_points(case, monkeypatch):
    """After six steps of one h, the seventh starts from the quartic through
    the last five accepted [x; y], not through more or fewer of them."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    integ, starts = started_steps(model, monkeypatch)
    s = integ.resolve(st)
    accepted = []
    for _ in range(6):
        s = integ.step(s, 0.005)
        accepted.append(np.concatenate([s.x, s.y]))
    starts.clear()
    integ.step(s, 0.005)
    p = accepted[-5:]
    quartic = p[0] - 5.0 * p[1] + 10.0 * p[2] - 10.0 * p[3] + 5.0 * p[4]
    assert np.allclose(starts[0], quartic, rtol=0.0, atol=1e-13)
    cubic = -p[1] + 4.0 * p[2] - 6.0 * p[3] + 4.0 * p[4]
    assert np.max(np.abs(cubic - quartic)) > 1e-9  # the two starts are told apart


def test_a_change_of_h_ends_the_step_history(case, monkeypatch):
    """A step of another h starts from the explicit Euler point with y held,
    and so does the next one, which has only one point of its h behind it."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    integ, starts = started_steps(model, monkeypatch)
    s = integ.resolve(st)
    for _ in range(5):
        s = integ.step(s, 0.005)
    for _ in range(2):
        starts.clear()
        f0 = integ.evaluate(s.x, s.y)[0]
        euler = np.concatenate([s.x + 0.0025 * f0, s.y])
        s = integ.step(s, 0.0025)
        assert np.array_equal(starts[0], euler)


def test_a_non_finite_update_is_a_newton_failure(case, monkeypatch):
    """An inverse whose first update is not finite fails the Newton of that
    step, which is then taken as two halves, with no float warning on the way."""
    model, st = build_system(case, "no_cig")
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    integ = TrapezoidalIntegrator(model)
    s = integ.resolve(st)
    factor = integ._factor
    calls = []

    def inf_first(z, h, r0):
        calls.append(1)
        inv = factor(z, h, r0)
        return np.full_like(inv, np.inf) if len(calls) == 1 else inv

    monkeypatch.setattr(integ, "_factor", inf_first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = integ.step(s, 0.01)
    assert integ.stats["step_halvings"] == 1 and integ.stats["steps"] == 2
    assert np.isfinite(s.x).all() and s.t == 0.01


def test_a_singular_step_jacobian_is_a_step_error(case, monkeypatch):
    """A step Jacobian that cannot be inverted fails Newton, and after 4
    halvings the run ends in a StepError naming t and h, with no LAPACK
    error or warning on the way."""
    model, st = build_system(case, "no_cig")
    monkeypatch.setattr(gridfreq.dae, "_fd_jacobian",
                        lambda model, z0, r0: np.zeros((z0.size, z0.size)))
    with warnings.catch_warnings(), pytest.raises(StepError, match=r"t=0\.0000s .* after 4 halvings"):
        warnings.simplefilter("error")
        simulate(model, st, [], t_end=0.05, h=0.01, output_dt=0.01)


def step_jacobian(jfull, n_x, h):
    """The step Jacobian [[I - h/2 f_x, -h/2 f_y], [g_x, g_y]] of d[f; g]/d[x; y]."""
    jac = np.vstack([-0.5 * h * jfull[:n_x], jfull[n_x:]])
    jac[:n_x, :n_x] += np.eye(n_x)
    return jac


@pytest.fixture(scope="module")
def reduction_models(case):
    return {c: build_system(case, c, k=1.2) for c in ("no_cig", "cig_omega_tilde")}


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(dz=hst.lists(hst.floats(-0.05, 0.05), min_size=54, max_size=54))
def test_assembled_inverse_equals_the_inverse_of_the_step_jacobian(reduction_models, dz):
    """The inverse `_factor` assembles from the reduction of a Jacobian
    equals `np.linalg.inv` of the whole step Jacobian to 1e-12 relative, at
    states near the set-up state, for h = 0.005 and 0.01 and for the
    re-solve's h = 0, all three from one build."""
    for control, (model, st) in reduction_models.items():
        n_x = model.n_x
        z = np.concatenate([st.x, st.y]) + np.array(dz[: n_x + 2 * model.n_bus])
        r0 = model.residual(z[:n_x], z[n_x:])[0]
        jfull = gridfreq.dae._fd_jacobian(model, z, r0)
        integ = TrapezoidalIntegrator(model)
        for h in (0.005, 0.01, 0.0):
            reference = np.linalg.inv(step_jacobian(jfull, n_x, h))
            deviation = np.abs(integ._factor(z, h, r0) - reference).max()
            assert deviation <= 1e-12 * np.abs(reference).max(), (control, h)
        assert integ.stats["jacobian_builds"] == 1


@pytest.mark.parametrize("control", ["no_cig", "cig_omega_tilde"])
def test_the_integrator_inverts_g_y_and_the_n_x_block_only(case, control, monkeypatch):
    """Over a run with load steps every `np.linalg.inv` call takes g_y or
    I - h/2 A, no larger matrix; a re-solve on the last step's Jacobian
    inverts nothing, and its update leaves x bitwise as it was."""
    model, st = build_system(case, control, k=1.2)
    n_x, n_bus = model.n_x, model.n_bus
    inv, shapes = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    ts = simulate(model, st, [Event(0.05, LoadScale(bus=5, factor=1.1)),
                              Event(0.1, LoadScale(bus=6, factor=0.9))],
                  t_end=0.2, h=0.01, output_dt=0.01, channels=["omega_coi"])
    assert set(shapes) == {(n_x, n_x), (2 * n_bus, 2 * n_bus)}
    assert len(shapes) == ts.stats["lu_factorizations"]
    integ = TrapezoidalIntegrator(model)
    s = integ.step(st, 0.01)
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=1.15)))
    shapes.clear()
    with np.errstate(all="ignore"):
        z = integ._newton(s, 0.0)
    assert shapes == [] and integ.stats["jacobian_builds"] == 1
    assert np.array_equal(z[:n_x], s.x)


def test_a_singular_g_y_is_a_step_error(case, monkeypatch):
    """A Jacobian whose g_y is singular, while the whole step Jacobian is
    not, fails Newton: the DAE is index 1 only where g_y is regular.  After
    4 halvings the run ends in a StepError naming t and h, with no LAPACK
    error or warning on the way."""
    model, st = build_system(case, "no_cig")
    n_x = model.n_x
    fd_jacobian = gridfreq.dae._fd_jacobian

    def singular_g_y(model, z0, r0):
        jac = fd_jacobian(model, z0, r0)
        jac[n_x + model.mach_bus[0], n_x:] = 0.0   # a machine bus's row of g_y
        return jac

    z0 = np.concatenate([st.x, st.y])
    jac = singular_g_y(model, z0, model.residual(st.x, st.y)[0])
    assert np.linalg.matrix_rank(step_jacobian(jac, n_x, 0.01)) == z0.size
    monkeypatch.setattr(gridfreq.dae, "_fd_jacobian", singular_g_y)
    with warnings.catch_warnings(), pytest.raises(StepError, match=r"t=0\.0000s .* after 4 halvings"):
        warnings.simplefilter("error")
        simulate(model, st, [], t_end=0.05, h=0.01, output_dt=0.01)


def test_linearize_and_the_integrator_reduce_through_one_routine(case, monkeypatch):
    """`linearize` reduces its Jacobian through `reduce_algebraic` once, and
    the integrator once per Jacobian build."""
    calls = []
    reduce = gridfreq.dae.reduce_algebraic

    def counted(*blocks):
        calls.append(1)
        return reduce(*blocks)

    monkeypatch.setattr(gridfreq.dae, "reduce_algebraic", counted)
    monkeypatch.setattr(gridfreq.smallsignal, "reduce_algebraic", counted)
    model, st = build_system(case, "cig_omega_tilde", freq_loop=False)
    linearize(model, st)
    assert len(calls) == 1
    ts = simulate(model, st, [Event(0.05, LoadScale(bus=5, factor=0.5))], t_end=0.2,
                  h=0.01, output_dt=0.01, channels=["omega_coi"])
    assert len(calls) == 1 + ts.stats["jacobian_builds"] >= 3


@pytest.mark.parametrize("control", CONTROLS)
def test_load_loss_takes_at_most_1_5_residual_passes_per_step(case, control):
    """The paper's 10 s load-loss run at h = 5 ms: the quartic start, its
    first update taken from the extrapolated [f; g] with no pass, and the
    rent-or-buy refresh keep Newton near one pass a step.  It takes
    2 536 / 2 224 / 2 227 residual passes and 2 513 / 2 200 / 2 203 Newton
    iterations over 1 800 steps, its first second held at rest (integrated
    from t0: 2 736 / 2 423 / 2 426 and 2 711 / 2 398 / 2 401 over 2 000
    steps).  A pass at the quartic start took 3 560 / 3 540 / 3 534 passes
    and 1 721 / 1 700 / 1 703 iterations, a refresh only where a step's
    contraction predicted more than two solves 4 348 / 4 094 / 4 100
    passes, the quadratic start 2.94 / 2.82 / 2.83 passes per step, and an
    Euler start on a Jacobian kept from the event on 4.36 / 4.09 / 4.09."""
    model, st = build_system(case, control, k=1.2)
    stats = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))], t_end=10.0,
                     h=0.005, output_dt=0.005, channels=["omega_coi"]).stats
    assert stats["residual_passes"] / stats["steps"] <= 1.5
    assert stats["residual_passes"] <= 2700
    assert stats["newton_iterations"] <= 2650


@pytest.mark.parametrize("control", ["no_cig", "cig_omega_tilde"])
def test_load_loss_lies_within_1e_8_of_the_run_at_tol_1e_11(case, control, monkeypatch):
    """Every default channel of the paper's 10 s load loss at h = 5 ms lies
    within 1e-8 of the same run at a Newton tolerance of 1e-11: 1.4e-9 /
    1.4e-9 (`no_cig` / `cig_omega_tilde`), where a pass at the quartic
    start, whose residual carries the Newton noise of the points it
    extrapolates, read 4.2e-8 (`v_bus5`) / 2.3e-8 (`p_cig`).  The horizon
    matters: over 3 s that start read 8.3e-9."""
    model, st = build_system(case, control, k=1.2)

    def run():
        return simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))], t_end=10.0,
                        h=0.005, output_dt=0.005)

    ts = run()
    monkeypatch.setattr(TrapezoidalIntegrator, "tol", 1e-11)
    tight = run()
    assert list(ts.channels) == list(model.channels)
    worst = {name: float(np.max(np.abs(ts[name] - tight[name]))) for name in ts.channels}
    assert max(worst.values()) <= 1e-8, worst


def load_step_events(seed):
    """91 load changes 0.1 s apart from t = 0.5 s, each setting a bus drawn
    from 5, 6 and 8 to a level drawn from 0.85-1.15 of its base load: the
    events of the benchmark's `load_steps` run of that seed."""
    rng = random.Random(seed)
    level = {b: 1.0 for b in (5, 6, 8)}
    events = []
    for i in range(91):
        bus, target = rng.choice((5, 6, 8)), rng.uniform(0.85, 1.15)
        events.append(Event(round(0.5 + 0.1 * i, 9),
                            LoadScale(bus=bus, factor=target / level[bus])))
        level[bus] = target
    return events


@pytest.mark.parametrize("seed, passes", [(0, 4167), (1, 4188), (2, 4063)])
def test_load_step_storm_takes_no_more_residual_passes(case, seed, passes):
    """The benchmark's `load_steps` run (`load_step_events`, h = 10 ms):
    the rent-or-buy refresh takes no more residual passes than a refresh
    only where a step's contraction predicted more than two solves did
    (4 167 / 4 188 / 4 063 on seeds 0-2; now 4 163 / 4 177 / 4 057
    integrated from t0, and 4 113 / 4 127 / 4 007 with its first 0.5 s
    held at rest)."""
    model, st = build_system(case, "no_cig")
    ts = simulate(model, st, load_step_events(seed), t_end=10.0, h=0.01, output_dt=0.01,
                  channels=["omega_coi"])
    assert ts.stats["resolves"] == 91
    assert ts.stats["residual_passes"] <= passes


def test_rent_or_buy_refresh_pays_off_at_the_cli_step(case):
    """The CLI's default h = 20 ms on a 15 s, 50 % load loss at bus 5: the
    refresh of a Jacobian once the solves its steps took beyond their
    first have cost three builds holds the run to 2 290 residual passes (a
    refresh only where a step's contraction predicted more than two solves
    took 2 428); without a refresh it builds only the Jacobians of the
    start and of the event, and takes 2 775."""
    model, st = build_system(case, "no_cig")
    stats = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))], t_end=15.0,
                     h=0.02, output_dt=0.02, channels=["omega_coi"]).stats
    assert stats["residual_passes"] <= 2600


def test_accept_drops_the_jacobian_once_its_extra_solves_cost_three_builds(case):
    """`_accept` adds each step's solves beyond its first; at 3 (len(groups)
    + 1) = 30 on the WSCC case it drops the Jacobian and counts a refresh,
    and a build starts the sum afresh.  Steps of no or one solve add
    nothing."""
    model, st = build_system(case, "no_cig")
    assert len(model.jacobian_structure()[1]) == 9
    integ = TrapezoidalIntegrator(model)
    z = np.concatenate([st.x, st.y])

    def run(solves):
        """The index of the step of solves at which the Jacobian was dropped."""
        for i, n in enumerate(solves):
            integ._accept(n, n)
            if integ._reduced is None:
                return i
        return None

    integ._factor(z, 0.005, model.residual(st.x, st.y)[0])
    # 29 extra solves, then a step of three: the sum reaches 31 at the last
    assert run([3] * 14 + [2, 0, 1, 1, 3]) == 18
    assert integ.stats["jacobian_refreshes"] == 1
    integ._factor(z, 0.005, model.residual(st.x, st.y)[0])
    assert run([3] * 14 + [1] * 40) is None   # 28 since the build
    assert run([2, 2]) == 1                   # 29, then 30
    assert integ.stats["jacobian_refreshes"] == 2
    assert integ.stats["jacobian_builds"] == 2
    assert integ.stats["newton_histogram"] == {0: 1, 1: 42, 2: 3, 3: 29}


def test_a_stalled_step_charges_its_new_jacobian_only_the_retry(case, monkeypatch):
    """A step whose first Newton attempt stalls, here on a tenth of the
    inverse, builds a Jacobian and converges on it.  The histogram books
    every solve of the step, and the new Jacobian is charged only the
    retry's solves beyond its first, not the 8 of the stalled attempt."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    integ = TrapezoidalIntegrator(model)
    s = integ.step(integ.resolve(st), 0.005)
    factor, calls = integ._factor, []

    def damped_first(z, h, r0):
        calls.append(h)
        inv = factor(z, h, r0)
        return 0.1 * inv if len(calls) == 1 else inv

    monkeypatch.setattr(integ, "_factor", damped_first)
    before = dict(integ.stats)
    integ.step(s, 0.005)
    assert calls == [0.005, 0.005]
    assert integ.stats["jacobian_builds"] - before["jacobian_builds"] == 1
    assert integ.stats["steps"] - before["steps"] == 1
    solves = integ.stats["newton_iterations"] - before["newton_iterations"]
    retry = solves - integ.max_iter
    assert retry >= 1 and integ.stats["newton_histogram"][solves] == 1
    assert integ._extra_solves == retry - 1


def test_build_ybus_runs_once_per_build_and_per_fault_event(case, monkeypatch):
    """`build_system` takes Y once, for the power flow and the model; a
    load change keeps it, and each fault event builds the one it changes."""
    calls = []
    build = gridfreq.network.build_ybus
    for module in (gridfreq.network, gridfreq.dae):   # wherever the name is bound
        monkeypatch.setattr(module, "build_ybus", lambda net: calls.append(1) or build(net),
                            raising=False)
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    assert len(calls) == 1
    assert not model.net.ybus().flags.writeable
    load_changes = [Event(t, LoadScale(bus=5, factor=0.9)) for t in (0.1, 0.2)]
    simulate(model, st, load_changes, t_end=0.3, h=0.01, channels=["omega_coi"])
    assert len(calls) == 1
    fault = [Event(0.1, FaultOn(bus=7, g=5.0)), Event(0.2, FaultOff(bus=7))]
    simulate(model, st, load_changes[:1] + fault, t_end=0.3, h=0.01, channels=["omega_coi"])
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Grouped finite-difference Jacobians against one pass per column
# ---------------------------------------------------------------------------

def stacked_residual(model, z):
    """[f; g] at z = [x; y]."""
    return model.residual(z[: model.n_x], z[model.n_x:])[0]


def dense_fd_jacobian(model, z0):
    """The integrator's forward difference, one residual pass per column."""
    r0 = stacked_residual(model, z0)
    jac = np.empty((r0.size, z0.size))
    for i in range(z0.size):
        eps = 1e-7 * (1.0 + abs(z0[i]))
        z = z0.copy()
        z[i] += eps
        jac[:, i] = (stacked_residual(model, z) - r0) / eps
    return jac


def dense_central_jacobian(model, z0, eps=1e-6):
    """The small-signal central difference, one pair of passes per column."""
    jac = np.empty((z0.size, z0.size))
    for i in range(z0.size):
        d = eps * (1.0 + abs(z0[i]))
        zp, zm = z0.copy(), z0.copy()
        zp[i] += d
        zm[i] -= d
        jac[:, i] = (stacked_residual(model, zp) - stacked_residual(model, zm)) / (2 * d)
    return jac


# perturbations around the limited points: small enough that every limit
# stays active
LIMITED_SCALE = 1e-4


def limited_model(model, st):
    """model with every limit active around st: each AVR output vr and each
    governor valve psv past its upper limit and driven outwards, and the
    converter's q-current cut by the current limiter while its d-current
    is not.  The machine terms the bundled case zeroes (D, ra, xq - xq')
    are made nonzero, so that their reads show too."""
    machines = []
    for i, m in enumerate(model.machines):
        vr, psv = st.x[N_STATES * i + 6], st.x[N_STATES * i + 7]
        params = dataclasses.replace(m.params, D=2.0, ra=0.003, xq=m.params.xq1 + 0.05)
        machines.append(dataclasses.replace(
            m, params=params,
            avr=dataclasses.replace(m.avr, vr_max=vr - 1e-3, v_ref=m.avr.v_ref + 0.5),
            gov=dataclasses.replace(m.gov, p_max=psv - 1e-3, p_ref=m.gov.p_ref + 0.1)))
    p = model.cig.params
    i_d = st.x[model.n_x - 2]
    cig = CIGSpec(model.cig.bus, dataclasses.replace(p, v_ref=p.v_ref + 0.6, i_max=abs(i_d) + 0.02))
    return SystemModel(model.net, machines, cig)


def limits_held(model, z):
    """Whether at z every AVR and governor row is held at its limit (0) and
    the converter's current limiter cuts i_q but not i_d."""
    n_x = model.n_x
    f = stacked_residual(model, z)[:n_x]
    held = all(f[N_STATES * i + k] == 0.0 for i in range(len(model.machines)) for k in (6, 7))
    # the converter's rows d_id, d_iq at zero currents: its current
    # references over t_i, limited and not
    p, xc = model.cig.params, z[n_x - gridfreq.cig.N_STATES: n_x - 2].tolist() + [0.0, 0.0]
    v = complex(z[n_x + model.cig_bus], z[n_x + model.n_bus + model.cig_bus])
    wcoi, kernel = model.coi_speed(z), gridfreq.cig.cig_derivatives
    i_d, i_q = kernel(xc, v, p, wcoi, model.omega_base)[0][5:]
    id_ref, iq_ref = kernel(xc, v, dataclasses.replace(p, i_max=math.inf), wcoi,
                            model.omega_base)[0][5:]
    return held and i_d == id_ref and abs(i_q) < abs(iq_ref)


@pytest.fixture(scope="module")
def jacobian_points(case, shared_bus_model):
    """label -> (model, [x; y], scale of the perturbations): each control at
    its equilibrium, with and without a 5 pu shunt at bus 7 ("+fault"); the
    shared-bus model (two machines on bus 2) at its test point; the
    converter with its frequency loop open (the small-signal layout); and
    that of each frequency-loop setting with every limit active
    (`limited_model`)."""
    points = {}
    for control in CONTROLS:
        model, st = build_system(case, control, k=1.2)
        z = np.concatenate([st.x, st.y])
        points[control] = (model, z, 1.0)
        faulted = copy.copy(model)
        faulted._set_network(apply_event(model.net, FaultOn(bus=7, g=5.0)))
        points[f"{control}+fault"] = (faulted, z, 1.0)
    shared, x, v = shared_bus_model
    points["shared_bus"] = (shared, np.concatenate([x, v.real, v.imag]), 1.0)
    for label, freq_loop in (("limited", True), ("limited_open_loop", False)):
        model, st = build_system(case, "cig_omega_tilde", k=1.2, freq_loop=freq_loop)
        if not freq_loop:
            points["open_loop"] = (model, np.concatenate([st.x, st.y]), 1.0)
        points[label] = (limited_model(model, st), np.concatenate([st.x, st.y]), LIMITED_SCALE)
    return points


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(dz=hst.lists(hst.floats(-0.1, 0.1), min_size=54, max_size=54))
def test_grouped_jacobians_equal_one_pass_per_column(jacobian_points, dz):
    """Forward and central differences over the column groups are bitwise
    the dense ones, at points around every one of `jacobian_points`; at
    the limited ones every AVR, governor and converter current limit is
    active, with the frequency loop closed and open."""
    for which, (model, z_eq, scale) in jacobian_points.items():
        z = z_eq + scale * np.array(dz[: z_eq.size])
        if scale != 1.0:
            assert limits_held(model, z), which
        assert np.array_equal(gridfreq.dae._fd_jacobian(model, z, stacked_residual(model, z)),
                              dense_fd_jacobian(model, z)), which
        n_x = model.n_x
        f_x, f_y, g_x, g_y = _central_jacobians(model, SystemState(z[:n_x], z[n_x:], 0.0))
        assert np.array_equal(np.block([[f_x, f_y], [g_x, g_y]]),
                              dense_central_jacobian(model, z)), which


@pytest.mark.parametrize("control", CONTROLS)
def test_group_of_names_the_group_of_every_column(case, control):
    """Every column lies in exactly one group, and group_of maps each
    column to the index of its group."""
    model, _ = build_system(case, control, k=1.2)
    pattern, groups, group_of = model.jacobian_structure()
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(len(pattern)))
    for g, cols in enumerate(groups):
        assert np.all(group_of[cols] == g)


def test_jacobian_structure_covers_y_after_every_event(case):
    """Load and fault events keep the structure: Y's nonzero entries after
    each event type lie inside its pattern."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    structure = model.jacobian_structure()
    network_pattern = structure[0][model.n_x:, model.n_x:]
    for action in (LoadScale(bus=5, factor=0.5), FaultOn(bus=7, g=5.0, b=-5.0), FaultOff(bus=7)):
        model._set_network(apply_event(model.net, action))
        assert model.jacobian_structure() is structure
        assert not np.any((model._y_real != 0.0) & ~network_pattern)


@pytest.mark.parametrize("control, freq_loop", [(c, True) for c in CONTROLS]
                         + [("cig_omega_tilde", False)],
                         ids=[*CONTROLS, "cig_omega_tilde_open_loop"])
def test_jacobians_take_one_residual_pass_per_group(case, call_counts, control, freq_loop):
    """The device rows of the pattern are their kernels' read tables, and
    the smallest-last colouring reaches the lower bound, the count of the
    densest row (a machine's speed row): the WSCC case needs 9 column
    groups with and without the converter and its frequency loop (11 under
    first-fit in column order, 15 with dense device blocks).  A
    forward-difference build is 10 passes (46 or 55 with one per column),
    9 beside the Newton pass it starts from; `linearize` is the
    equilibrium check plus two passes per group, 19."""
    model, st = build_system(case, control, k=1.2, freq_loop=freq_loop)
    pattern, groups, _ = model.jacobian_structure()
    assert len(groups) == pattern.sum(axis=1).max() == 9
    call_counts.update(machines=0, cig=0)
    z = np.concatenate([st.x, st.y])
    gridfreq.dae._fd_jacobian(model, z, stacked_residual(model, z))
    assert call_counts["machines"] == len(groups) + 1
    assert call_counts["cig"] == (0 if control == "no_cig" else len(groups) + 1)
    call_counts.update(machines=0, cig=0)
    linearize(model, st)
    assert call_counts["machines"] == 2 * len(groups) + 1


def test_jacobian_structure_is_built_once_across_load_steps(case, monkeypatch):
    """91 load changes, each followed by a Jacobian build: one structure,
    whose colouring is looked up once (`_colouring` is counted on every
    call, so a colouring cached by an earlier model counts too).  Events
    are 10 steps apart, and the rent-or-buy rule drops a Jacobian only
    once its steps took 30 solves beyond their first, so between events
    it adds at most a few builds: beyond the first, at most three."""
    builds = []
    colouring = gridfreq.dae._colouring
    monkeypatch.setattr(gridfreq.dae, "_colouring",
                        lambda bits, shape: builds.append(1) or colouring(bits, shape))
    model, st = build_system(case, "no_cig")
    ts = simulate(model, st, load_step_events(0), t_end=10.0, h=0.01, output_dt=0.01,
                  channels=["omega_coi"])
    assert ts.stats["resolves"] == 91
    assert 91 < ts.stats["jacobian_builds"] <= ts.stats["resolves"] + 3
    assert len(builds) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=hst.integers(1, 40), cols=hst.integers(1, 40), density=hst.floats(0.0, 0.3),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_column_groups_partition_the_columns_into_disjoint_row_sets(rows, cols, density, seed):
    """On random sparse patterns, `_column_groups` is a partition of the
    columns into nonempty groups whose columns touch disjoint rows, so it
    has at least as many groups as the densest row has entries."""
    pattern = np.random.default_rng(seed).random((rows, cols)) < density
    groups = gridfreq.dae._column_groups(pattern)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(cols))
    assert all(g.size and pattern[:, g].sum(axis=1).max() <= 1 for g in groups)
    assert len(groups) >= pattern.sum(axis=1).max()


def test_models_of_one_layout_share_one_read_only_colouring(case):
    """The colouring is computed once per pattern: another model of the
    same layout gets the very groups and group_of, read-only, so that no
    model can change another's."""
    first = build_system(case, "cig_omega_tilde", k=1.2)[0].jacobian_structure()
    second = build_system(case, "cig_omega", k=0.5)[0].jacobian_structure()
    assert second[0] is not first[0] and np.array_equal(second[0], first[0])
    assert second[1] is first[1] and second[2] is first[2]
    assert not first[2].flags.writeable
    assert not any(g.flags.writeable for g in first[1])


def test_simulate_refuses_a_method_patched_on_the_model(case, monkeypatch):
    """A wrapper stored on the model instance would be carried into the
    run's shallow copy still bound to the caller's model, whose network
    never sees the events: the 50 % load loss would leave omega_coi at
    1.0.  The run refuses it, naming it; the same wrapper on the class
    sees the load loss."""
    model, st = build_system(case, "no_cig")
    residual = model.residual
    model.residual = lambda x, y: residual(x, y)
    events = [Event(0.1, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(ValueError, match="'residual'.*patch the class"):
        simulate(model, st, events, t_end=0.6, h=0.01, channels=["omega_coi"])
    del model.residual
    passes = []
    residual = SystemModel.residual
    monkeypatch.setattr(SystemModel, "residual",
                        lambda self, x, y: passes.append(1) or residual(self, x, y))
    ts = simulate(model, st, events, t_end=0.6, h=0.01, channels=["omega_coi"])
    assert ts["omega_coi"][-1] > 1.01 and len(passes) == ts.stats["residual_passes"]


# ---------------------------------------------------------------------------
# The network balance against the complex formula it replaced
# ---------------------------------------------------------------------------

def reference_network_balance(model: SystemModel, x: np.ndarray, y: np.ndarray):
    """g as `SystemModel.residual` computed it before the float network
    balance: complex numpy arrays over every bus, loads as conj(S / v)."""
    v = y[:model.n_bus] + 1j * y[model.n_bus:]
    _, re, im, _ = model._machine_block(x.tolist(), y.tolist(), model.coi_speed(x))
    inj = np.array(re) + 1j * np.array(im)
    s_load = np.array([complex(b.p_load, b.q_load) for b in model.net.buses])
    ybus = build_ybus(model.net)
    i_bal = np.array(inj) - np.conj(s_load / v) - ybus @ v
    return np.concatenate([i_bal.real, i_bal.imag])


@pytest.fixture(scope="module")
def balance_models(case):
    """The converter system on its base network, after a load scaling and
    with a fault shunt in Y, and its equilibrium state."""
    base, st = build_system(case, "cig_omega_tilde", k=1.2)
    scaled, _ = build_system(case, "cig_omega_tilde", k=1.2)
    scaled._set_network(apply_event(scaled.net, LoadScale(bus=5, factor=0.6)))
    faulted, _ = build_system(case, "cig_omega_tilde", k=1.2)
    faulted._set_network(apply_event(faulted.net, FaultOn(bus=7, g=20.0, b=-5.0)))
    return {"base": base, "scaled": scaled, "faulted": faulted}, st


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(which=hst.sampled_from(["base", "scaled", "faulted"]),
       dx=hst.lists(hst.floats(-0.05, 0.05), min_size=34, max_size=34),
       vmag=hst.lists(hst.floats(0.5, 1.3), min_size=10, max_size=10),
       vang=hst.lists(hst.floats(-math.pi, math.pi), min_size=10, max_size=10))
def test_network_balance_matches_complex_reference(balance_models, which, dx, vmag, vang):
    models, st = balance_models
    model = models[which]
    x = st.x + np.array(dx)
    v = np.array(vmag) * np.exp(1j * np.array(vang))
    y = np.concatenate([v.real, v.imag])
    g = model.residual(x, y)[0][model.n_x:]
    assert np.max(np.abs(g - reference_network_balance(model, x, y))) <= 1e-13


def complex_list_residual(model: SystemModel, x: np.ndarray, y: np.ndarray):
    """([f; g], outputs) as `SystemModel.residual` assembled them on a list
    of complex bus voltages and complex per-bus injections: each bus adds
    its machines' currents, then the converter's, then subtracts its load's.
    The devices are read from the model's device table, in x order."""
    n = model.n_bus
    xl, yl = x.tolist(), y.tolist()
    v = list(map(complex, yl[:n], yl[n:]))
    wcoi = model.coi_speed(xl)
    f, inj = [], [0j] * n
    outputs = {}
    for _, _, states, _, _, bus, module, kernel, prm, _ in model._devices:
        d, i_dev, out = getattr(sys.modules[module], kernel)(xl[states], v[bus], prm, wcoi,
                                                             model.omega_base)
        f += d
        inj[bus] += i_dev
        if out:
            _, _, w_est, rho, sig = out
            s = v[bus] * i_dev.conjugate()
            outputs = {"omega_est": w_est, "rho_est": rho, "omega_tilde": sig,
                       "p_cig": s.real, "q_cig": s.imag}
    for i, s_conj in model._loads:
        inj[i] -= s_conj / v[i].conjugate()
    f += [c.real for c in inj]
    f += [c.imag for c in inj]
    r = np.array(f)
    r[model.n_x:] -= model._y_real @ y
    return r, outputs


@pytest.fixture(scope="module")
def pinned_models(case):
    """(model, set-up state) of each layout the residual is pinned on: the
    three controls; the converter moved onto machine bus 2 with x_t = 0;
    the same with a second unit on bus 2, so that three currents meet on
    one bus and the order they are added in shows (two commute); and the
    converter system under a bus-7 fault shunt."""
    models = {c: build_system(case, c, k=1.2) for c in CONTROLS}
    moved = load_bundled_case()
    moved.cigs[0] = CIGSpec(2, dataclasses.replace(moved.cigs[0].params, x_t=0.0))
    model, st = models["converter_on_bus2"] = build_system(moved, "cig_omega_tilde")
    m = model.machines[1]
    extra = dataclasses.replace(m, params=dataclasses.replace(m.params, H=2.5),
                                gov=dataclasses.replace(m.gov, p_ref=0.4))
    n_sm = N_STATES * len(model.machines)
    models["two_units_and_converter_on_bus2"] = (
        SystemModel(model.net, model.machines + [extra], model.cig),
        SystemState(np.concatenate([st.x[:n_sm], st.x[N_STATES: 2 * N_STATES], st.x[n_sm:]]),
                    st.y, 0.0))
    faulted, st = build_system(case, "cig_omega_tilde", k=1.2)
    faulted._set_network(apply_event(faulted.net, FaultOn(bus=7, g=5.0)))
    models["fault_on"] = (faulted, st)
    return models


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(which=hst.sampled_from([*CONTROLS, "converter_on_bus2",
                               "two_units_and_converter_on_bus2", "fault_on"]),
       dx=hst.lists(hst.floats(-0.05, 0.05), min_size=43, max_size=43),
       vmag=hst.lists(hst.floats(0.5, 1.3), min_size=10, max_size=10),
       vang=hst.lists(hst.floats(-math.pi, math.pi), min_size=10, max_size=10))
def test_residual_is_bitwise_the_complex_list_assembly(pinned_models, which, dx, vmag, vang):
    """The float-pair residual adds every bus's terms in the order the
    complex-list assembly did, so [f; g] and the converter outputs are
    bitwise equal to it, near the set-up state at any bus voltages."""
    model, st = pinned_models[which]
    x = st.x + np.array(dx[: model.n_x])
    n = model.n_bus
    v = np.array(vmag[:n]) * np.exp(1j * np.array(vang[:n]))
    y = np.concatenate([v.real, v.imag])
    r, outputs = model.residual(x, y)
    r_ref, outputs_ref = complex_list_residual(model, x, y)
    assert np.array_equal(r, r_ref)
    assert outputs == outputs_ref


# ---------------------------------------------------------------------------
# The device kernels under a rotation of the network frame
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_inputs(case):
    """kernel name -> (kernel, its states at the set-up of the converter
    system, its parameters, omega_base): machine 1 and the converter."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    _, _, states, *_, prm, _ = model._devices[0]
    return {"sm_kernel": (sm_kernel, st.x[states], prm, model.omega_base),
            "cig_derivatives": (gridfreq.cig.cig_derivatives,
                                st.x[model.n_x - gridfreq.cig.N_STATES:], model.cig.params,
                                model.omega_base)}


@pytest.mark.parametrize("name", ["sm_kernel", "cig_derivatives"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dx=hst.lists(hst.floats(-0.05, 0.05), min_size=9, max_size=9),
       angle=hst.floats(-math.pi, math.pi), phi=hst.floats(-math.pi, math.pi),
       vmag=hst.floats(0.5, 1.3), vang=hst.floats(-math.pi, math.pi),
       omega_frame=hst.floats(0.97, 1.03))
def test_kernels_are_invariant_under_a_frame_rotation(kernel_inputs, name, dx, angle, phi,
                                                      vmag, vang, omega_frame):
    """Rotating the bus voltage and the device's angle (delta, theta_pll,
    each its first state) by one angle phi leaves the derivatives and the
    outputs unchanged and rotates the injection by phi."""
    kernel, x0, prm, omega_base = kernel_inputs[name]
    x = (x0 + np.array(dx[: len(x0)])).tolist()
    v = cmath.rect(vmag, vang)
    rows, inj = [], []
    for turn in (0.0, phi):
        x[0] = angle + turn
        xdot, i, outputs = kernel(x, v * cmath.exp(1j * turn), prm, omega_frame, omega_base)
        rows.append([*xdot, *outputs])
        inj.append(i)
    assert rows[1] == pytest.approx(rows[0], rel=1e-12, abs=1e-12)
    assert inj[1] == pytest.approx(inj[0] * cmath.exp(1j * phi), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# The reused f0 never goes stale
# ---------------------------------------------------------------------------

def test_f0_reuse_follows_in_place_state_changes(case):
    model, st = build_system(case, "cig_omega_tilde")
    h = 0.01
    integ, twin = TrapezoidalIntegrator(model), TrapezoidalIntegrator(model)
    s1 = integ.step(st, h)
    s1_twin = twin.step(st, h).copy()  # same Jacobian, new arrays
    s1.x[1] += 0.01                    # in place, in the arrays the step returned
    s1_twin.x[1] += 0.01
    a, b = integ.step(s1, h), twin.step(s1_twin, h)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


# ---------------------------------------------------------------------------
# Non-finite residuals fail cleanly
# ---------------------------------------------------------------------------

def test_double_load_step_completes_or_raises_step_error(case):
    """A x2 load at bus 5 drives Newton to non-finite iterates: those count
    as Newton failures, so the run either completes or ends in a StepError
    naming t and h, with no numpy warnings on the way."""
    model, st = build_system(case, "no_cig")
    ev = [Event(1.0, LoadScale(bus=5, factor=2.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ts = simulate(model, st, ev, t_end=3.0, h=0.005, output_dt=0.005)
        except StepError as exc:
            assert "t=" in str(exc) and "h=" in str(exc)
        else:
            assert np.all(np.isfinite(ts["omega_coi"]))


def test_solve_algebraic_non_finite_residual_is_a_step_error(case):
    model, st = build_system(case, "no_cig")
    with warnings.catch_warnings(), pytest.raises(StepError, match=r"t=0\.0000s with h=0"):
        warnings.simplefilter("error")
        model.solve_algebraic(st.x, np.full_like(st.y, np.nan))


# ---------------------------------------------------------------------------
# The post-event network re-solve is the step at h = 0
# ---------------------------------------------------------------------------

def test_resolve_holds_x_and_leaves_the_accepted_point_cached(case, monkeypatch):
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    integ = TrapezoidalIntegrator(model)
    s1 = integ.step(st, 0.01)
    model._set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    s2 = integ.resolve(s1)
    assert np.array_equal(s2.x, s1.x) and s2.t == s1.t
    assert integ.stats["resolves"] == 1
    r, outputs = model.residual(s2.x, s2.y)
    f, g = r[: model.n_x], r[model.n_x:]
    assert np.max(np.abs(g)) < integ.tol
    passes = []
    residual = model.residual
    monkeypatch.setattr(model, "residual", lambda x, y: passes.append(1) or residual(x, y))
    rec = record(model, s2, ["omega_coi", "p_cig", "rho_est"], integ.evaluate)
    assert passes == []  # record at the event time reads the cached outputs
    assert rec["p_cig"] == outputs["p_cig"] and rec["rho_est"] == outputs["rho_est"]
    assert np.array_equal(integ.evaluate(s2.x, s2.y)[0], f)  # the next step's f0


@pytest.mark.parametrize("bus, factor, kept", [(5, 0.5, True), (5, 1.15, False),
                                               (8, 0.85, False)])
def test_resolve_keeps_only_a_jacobian_it_built(case, bus, factor, kept):
    """The 50 % load loss stalls the re-solve on the pre-event Jacobian, which
    then builds one on the post-event network: the first step keeps it and
    builds none.  A 15 % load step re-solves on the pre-event Jacobian, which
    is then dropped: the first step builds its own."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    integ = TrapezoidalIntegrator(model)
    s = integ.step(integ.step(st, 0.005), 0.005)
    builds = integ.stats["jacobian_builds"]
    model._set_network(apply_event(model.net, LoadScale(bus=bus, factor=factor)))
    s = integ.resolve(s)
    assert integ.stats["jacobian_builds"] - builds == kept
    integ.step(s, 0.005)
    assert integ.stats["jacobian_builds"] - builds == 1


def test_resolve_does_not_evaluate_f0(case, call_counts):
    """At h = 0, f0 would only enter as h f0: a re-solve on the unchanged
    network is one residual pass, the converged check at the start point."""
    model, st = build_system(case, "no_cig")
    integ = TrapezoidalIntegrator(model)
    s1 = integ.step(st, 0.01)
    call_counts.update(machines=0, cig=0)
    s2 = integ.resolve(s1)
    assert call_counts["machines"] == 1
    assert np.array_equal(s2.y, s1.y)


def test_events_of_one_instant_share_one_resolve(case):
    """Two load scalings at one instant are applied together and re-solved
    once: the run is bitwise that of the one scaling by their product."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    both = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5)),
                                Event(1.0, LoadScale(bus=5, factor=0.8))],
                    t_end=3.0, h=0.01, channels=["omega_coi"])
    one = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.4))],
                   t_end=3.0, h=0.01, channels=["omega_coi"])
    assert both.stats["resolves"] == 1
    assert both["omega_coi"].tobytes() == one["omega_coi"].tobytes()


@pytest.mark.parametrize("control", CONTROLS)
def test_cleared_fault_runs_through(case, control):
    """A 5 pu conductance at bus 7, cleared after 100 ms, for each control."""
    model, st = build_system(case, control, k=1.2)
    ev = [Event(0.2, FaultOn(bus=7, g=5.0)), Event(0.3, FaultOff(bus=7))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = simulate(model, st, ev, t_end=1.0, h=0.01, output_dt=0.01,
                      channels=["omega_coi", "v_bus7"])
    assert ts.stats["resolves"] == 2
    v7 = ts["v_bus7"]
    assert np.all(np.isfinite(ts["omega_coi"]))
    assert np.min(v7[21:30]) < 0.9 < v7[-1]  # the dip of the fault, then recovery


def test_stiff_fault_fails_cleanly_at_the_event(case):
    model, st = build_system(case, "no_cig")
    ev = [Event(0.2, FaultOn(bus=7, g=20.0)), Event(0.3, FaultOff(bus=7))]
    with warnings.catch_warnings(), pytest.raises(
            StepError, match=r"event at t=0\.2s failed: Newton failed at t=0\.2000s with h=0"):
        warnings.simplefilter("error")
        simulate(model, st, ev, t_end=1.0, h=0.01)


def test_a_failing_run_raises_the_exported_step_error():
    """The clean failure is reachable from the package, as README documents
    it: `gridfreq.StepError`, with the time of the last accepted state."""
    model, st = gridfreq.build_system(gridfreq.load_bundled_case(), "no_cig")
    ev = [gridfreq.Event(0.2, gridfreq.FaultOn(bus=7, g=20.0))]
    with pytest.raises(gridfreq.StepError) as failed:
        gridfreq.simulate(model, st, ev, t_end=1.0, h=0.01)
    assert failed.value.t_last == pytest.approx(0.2)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(control=hst.sampled_from(CONTROLS),
       steps=hst.lists(hst.tuples(hst.integers(1, 9), hst.sampled_from([5, 6, 8]),
                                  hst.floats(0.2, 2.5)), min_size=1, max_size=4))
def test_random_load_steps_complete_or_raise_step_error(case, control, steps):
    """Load scalings at random times, buses and factors: the run ends or
    raises StepError, never anything else, and no float warning leaks."""
    model, st = build_system(case, control, k=1.2)
    ev = [Event(0.1 * i, LoadScale(bus=b, factor=f)) for i, b, f in steps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ts = simulate(model, st, ev, t_end=1.0, h=0.01, output_dt=0.05,
                          channels=["omega_coi"])
        except StepError as exc:
            assert "t=" in str(exc)
        else:
            assert np.all(np.isfinite(ts["omega_coi"]))
            assert ts.stats["resolves"] == len({e.time for e in ev})
