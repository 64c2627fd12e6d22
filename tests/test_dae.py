"""Tests for DAE assembly, initialization, and trapezoidal integration."""

import copy
import math
import random
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as hst

import gridfreq.cig
import gridfreq.dae
from gridfreq.casefile import load_bundled_case
from gridfreq.dae import (
    CONTROLS,
    Event,
    StepError,
    SystemModel,
    SystemState,
    TrapezoidalIntegrator,
    _stacked_residual,
    build_system,
    record,
    simulate,
)
from gridfreq.network import Branch, FaultOff, FaultOn, LoadScale, apply_event, build_ybus
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


def _mutable_parts(net, machines, cigs) -> set[int]:
    """ids of every mutable object reachable from a network and device specs."""
    parts = [net, net.buses, net.branches, net.fault_shunts, *net.buses, *net.branches,
             machines, cigs]
    for m in machines:
        parts += [m, m.params, m.avr, m.gov]
    for c in cigs:
        parts += [c, c.params, c.params.pll]
    return {id(p) for p in parts}


@pytest.mark.parametrize("control", CONTROLS)
def test_build_system_leaves_the_case_alone(control):
    case = load_bundled_case()
    before = copy.deepcopy(case)
    model, _ = build_system(case, control, k=0.7, freq_loop=False)
    assert case == before
    ours = _mutable_parts(model.net, model.machines, [model.cig] if model.cig else [])
    theirs = _mutable_parts(case.network, case.machines, case.cigs)
    assert not ours & theirs


def test_build_system_moves_dispatch_to_converter(case):
    model, st = build_system(case, "cig_omega")
    _, _, out = model.residual(st.x, st.y)
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
        TrapezoidalIntegrator(model).step(st, -0.1)


def test_simulate_validates_horizon_and_events(case):
    model, st = build_system(case, "no_cig")
    with pytest.raises(ValueError):
        simulate(model, st, [], t_end=0.0)
    ev = [Event(99.0, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(ValueError):
        simulate(model, st, ev, t_end=10.0)
    with pytest.raises(ValueError, match="unknown channels"):
        simulate(model, st, [], t_end=0.1, h=0.02, channels=["omega_coi", "p_cig"])


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

    def stall(self, state):
        raise StepError("algebraic solve stalled, residual 1.0e+00")

    monkeypatch.setattr(TrapezoidalIntegrator, "resolve", stall)
    ev = [Event(0.3, LoadScale(bus=5, factor=0.5))]
    with pytest.raises(StepError, match=r"event at t=0\.3s.*stalled"):
        simulate(model, st, ev, t_end=1.0, h=0.02)
    assert model.net is net0
    r = model.g(st.x, st.y)
    assert np.max(np.abs(r)) < 1e-10  # Ybus and loads are the pre-event ones


# ---------------------------------------------------------------------------
# One residual pass per Newton iterate
# ---------------------------------------------------------------------------

@pytest.fixture
def call_counts(monkeypatch):
    """Count machine-block and converter evaluations while a test runs."""
    counts = {"machines": 0, "cig": 0}
    block = SystemModel._machine_block
    derivs = gridfreq.cig.cig_derivatives

    def counted_block(self, *args):
        counts["machines"] += 1
        return block(self, *args)

    def counted_derivs(*args, **kwargs):
        counts["cig"] += 1
        return derivs(*args, **kwargs)

    monkeypatch.setattr(SystemModel, "_machine_block", counted_block)
    monkeypatch.setattr(gridfreq.cig, "cig_derivatives", counted_derivs)
    return counts


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
    f, g, outputs = model.residual(x, y)
    assert np.array_equal(model.f(x, y), f)
    assert np.array_equal(model.g(x, y), g)
    assert sorted(outputs) == ["omega_est", "omega_tilde", "p_cig", "q_cig", "rho_est"]
    assert model.residual(x, y)[2] == outputs


def test_record_computes_only_requested_channels(case, call_counts):
    model, st = build_system(case, "cig_omega_tilde")
    evaluate = TrapezoidalIntegrator(model).evaluate
    call_counts.update(machines=0, cig=0)
    assert list(record(model, st, ["omega_coi"], evaluate)) == ["omega_coi"]
    assert call_counts["cig"] == 0
    full = record(model, st, None, evaluate)
    assert call_counts["cig"] == 1
    assert full["p_cig"] == model.residual(st.x, st.y)[2]["p_cig"]
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
                      lambda x, y: (None, model.residual(x, y)[2]))

    monkeypatch.setattr(gridfreq.dae, "record", record_recomputing)
    fresh, n_fresh = run()
    assert n_fresh > n_default
    assert list(fresh.channels) == list(ts.channels)
    for name in ts.channels:
        assert fresh[name].tobytes() == ts[name].tobytes(), name


# ---------------------------------------------------------------------------
# Solver counts
# ---------------------------------------------------------------------------

def test_stats_equal_the_counted_solver_calls(case, monkeypatch):
    """TimeSeries.stats against counted calls of the finite-difference
    Jacobian, of LU factorization, of the getrs solve and of the residual:
    the event re-solve runs through the same Newton, so every call is the
    integrator's.  The histogram holds every step, by the solves it took."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    counts = {"jacobian": 0, "lu": 0, "getrs": 0, "residual": 0, "resolve_getrs": 0}
    fd, lu_factor = gridfreq.dae._fd_jacobian, scipy.linalg.lu_factor
    dgetrs = scipy.linalg.lapack.dgetrs
    residual, resolve = model.residual, TrapezoidalIntegrator.resolve

    def counted_fd(*args):
        counts["jacobian"] += 1
        return fd(*args)

    def counted_lu(*args, **kwargs):
        counts["lu"] += 1
        return lu_factor(*args, **kwargs)

    def counted_getrs(*args, **kwargs):
        counts["getrs"] += 1
        return dgetrs(*args, **kwargs)

    monkeypatch.setattr(gridfreq.dae, "_fd_jacobian", counted_fd)
    monkeypatch.setattr(scipy.linalg, "lu_factor", counted_lu)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrs", counted_getrs)

    def counted_residual(x, y):
        counts["residual"] += 1
        return residual(x, y)

    def counted_resolve(self, state):
        before = counts["getrs"]
        out = resolve(self, state)
        counts["resolve_getrs"] += counts["getrs"] - before
        return out

    monkeypatch.setattr(model, "residual", counted_residual)
    monkeypatch.setattr(TrapezoidalIntegrator, "resolve", counted_resolve)
    h, t_end = 0.005, 2.0
    ts = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))],
                  t_end=t_end, h=h, output_dt=h, channels=["omega_coi"])
    steps = round(t_end / h)
    hist = ts.stats["newton_histogram"]
    assert ts.stats == {"steps": steps,
                        "newton_iterations": counts["getrs"],
                        "jacobian_builds": counts["jacobian"],
                        "lu_factorizations": counts["lu"],
                        "step_halvings": 0,
                        "resolves": 1,
                        "residual_passes": counts["residual"],
                        "newton_histogram": hist}
    assert sum(hist.values()) == steps and list(hist) == sorted(hist)
    assert sum(k * n for k, n in hist.items()) == counts["getrs"] - counts["resolve_getrs"]
    assert counts["getrs"] > 0 and counts["jacobian"] >= 2  # start, and after the event


def test_stats_report_step_halvings(case, monkeypatch):
    """A step whose Newton fails once is taken as two halves: one halving,
    two accepted steps in its place."""
    model, st = build_system(case, "no_cig")
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
    not h up to the rounding of the grid: one LU factorization per Jacobian
    plus the event re-solve's on the pre-event Jacobian."""
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
    assert len(sizes) == 400 and set(sizes) == {h}
    assert ts.stats["lu_factorizations"] == ts.stats["jacobian_builds"] + 1


def test_failed_newton_builds_one_jacobian(case):
    """A Newton call that fails from a cached Jacobian refreshes it once,
    between its two attempts, and builds none after the second."""
    model, st = build_system(case, "no_cig")
    integ = TrapezoidalIntegrator(model)
    s1 = integ.step(st, 0.01)
    builds, iters = integ.stats["jacobian_builds"], integ.stats["newton_iterations"]
    model.set_network(apply_event(model.net, FaultOn(bus=7, g=20.0)))
    with np.errstate(all="ignore"):
        assert integ._newton(s1, 0.0) is None
    assert integ.stats["jacobian_builds"] - builds == 1
    assert integ.stats["newton_iterations"] - iters == 2 * integ.max_iter


# ---------------------------------------------------------------------------
# Extrapolated predictor and contraction-gated Jacobian refresh
# ---------------------------------------------------------------------------

def test_first_step_after_resolve_or_invalidate_is_a_fresh_integrators(case):
    """An event re-solve and `invalidate()` end the step history and drop
    the Jacobian: the next step, whose start point is the last accepted
    one and whose h is the history's, is bitwise a fresh integrator's."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    h = 0.005
    integ = TrapezoidalIntegrator(model)
    s = st
    for _ in range(5):
        s = integ.step(s, h)
    model.set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    s = integ.resolve(s)
    a, b = integ.step(s, h), TrapezoidalIntegrator(model).step(s, h)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    for _ in range(5):
        a = integ.step(a, h)
    model.machines[0].gov.p_ref += 0.05
    model.refresh_setpoints()
    integ.invalidate()
    c, d = integ.step(a, h), TrapezoidalIntegrator(model).step(a, h)
    assert np.array_equal(c.x, d.x) and np.array_equal(c.y, d.y)


@pytest.mark.parametrize("control", CONTROLS)
def test_load_loss_takes_at_most_3_1_residual_passes_per_step(case, control):
    """The paper's 10 s load-loss run at h = 5 ms: the extrapolated start
    and the contraction-gated refresh keep Newton near two solves a step
    (4.36 / 4.09 / 4.09 passes per step from an Euler start on a Jacobian
    kept from the event on)."""
    model, st = build_system(case, control, k=1.2)
    stats = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))], t_end=10.0,
                     h=0.005, output_dt=0.005, channels=["omega_coi"]).stats
    assert stats["residual_passes"] / stats["steps"] <= 3.1


# ---------------------------------------------------------------------------
# Grouped finite-difference Jacobians against one pass per column
# ---------------------------------------------------------------------------

def dense_fd_jacobian(model, z0):
    """The integrator's forward difference, one residual pass per column."""
    r0 = _stacked_residual(model, z0)
    jac = np.empty((r0.size, z0.size))
    for i in range(z0.size):
        eps = 1e-7 * (1.0 + abs(z0[i]))
        z = z0.copy()
        z[i] += eps
        jac[:, i] = (_stacked_residual(model, z) - r0) / eps
    return jac


def dense_central_jacobian(model, z0, eps=1e-6):
    """The small-signal central difference, one pair of passes per column."""
    jac = np.empty((z0.size, z0.size))
    for i in range(z0.size):
        d = eps * (1.0 + abs(z0[i]))
        zp, zm = z0.copy(), z0.copy()
        zp[i] += d
        zm[i] -= d
        jac[:, i] = (_stacked_residual(model, zp) - _stacked_residual(model, zm)) / (2 * d)
    return jac


JACOBIAN_POINTS = [(c, fault) for c in CONTROLS for fault in (False, True)] + [("shared_bus", False)]


@pytest.fixture(scope="module")
def jacobian_points(case, shared_bus_model):
    """(label, faulted) -> (model, [x; y]): each control at its equilibrium,
    with and without a 5 pu shunt at bus 7, and the shared-bus model (two
    machines on bus 2) at its test point."""
    points = {}
    for control, fault in JACOBIAN_POINTS[:-1]:
        model, st = build_system(case, control, k=1.2)
        if fault:
            model.set_network(apply_event(model.net, FaultOn(bus=7, g=5.0)))
        points[control, fault] = (model, np.concatenate([st.x, st.y]))
    shared, x, v = shared_bus_model
    points["shared_bus", False] = (shared, np.concatenate([x, v.real, v.imag]))
    return points


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(which=hst.sampled_from(JACOBIAN_POINTS),
       dz=hst.lists(hst.floats(-0.1, 0.1), min_size=54, max_size=54))
def test_grouped_jacobians_equal_one_pass_per_column(jacobian_points, which, dz):
    """Forward and central differences over the column groups are bitwise
    the dense ones, at points around each equilibrium."""
    model, z_eq = jacobian_points[which]
    z = z_eq + np.array(dz[: z_eq.size])
    assert np.array_equal(gridfreq.dae._fd_jacobian(model, z), dense_fd_jacobian(model, z))
    n_x = model.n_x
    f_x, f_y, g_x, g_y = _central_jacobians(model, SystemState(z[:n_x], z[n_x:], 0.0), 1e-6)
    assert np.array_equal(np.block([[f_x, f_y], [g_x, g_y]]), dense_central_jacobian(model, z))


def test_jacobian_structure_follows_the_nonzero_structure_of_y(case):
    """Load and fault events keep the structure; a new branch rebuilds it,
    and the Jacobian on the new network is still the dense one."""
    model, st = build_system(case, "cig_omega_tilde", k=1.2)
    structure = model.jacobian_structure()
    for action in (LoadScale(bus=5, factor=0.5), FaultOn(bus=7, g=5.0), FaultOff(bus=7)):
        model.set_network(apply_event(model.net, action))
        assert model.jacobian_structure() is structure
    net = model.net.copy()
    net.branches.append(Branch(from_bus=5, to_bus=6, r=0.01, x=0.1))
    model.set_network(net)
    pattern, groups = model.jacobian_structure()
    i, j = model.n_x + net.bus_index(5), model.n_x + net.bus_index(6)
    assert pattern[i, j] and not structure[0][i, j]
    assert sorted(np.concatenate(groups)) == list(range(pattern.shape[1]))
    z = np.concatenate([st.x, st.y])
    assert np.array_equal(gridfreq.dae._fd_jacobian(model, z), dense_fd_jacobian(model, z))


@pytest.mark.parametrize("control", CONTROLS)
def test_jacobians_take_one_residual_pass_per_group(case, call_counts, control):
    """A forward-difference build is len(groups) + 1 passes, at most 16 on
    the WSCC case (46 or 55 with one per column); `linearize` is the
    equilibrium check plus two passes per group."""
    model, st = build_system(case, control, k=1.2)
    groups = model.jacobian_structure()[1]
    call_counts.update(machines=0, cig=0)
    gridfreq.dae._fd_jacobian(model, np.concatenate([st.x, st.y]))
    assert call_counts["machines"] == len(groups) + 1 <= 16
    assert call_counts["cig"] == (0 if control == "no_cig" else len(groups) + 1)
    call_counts.update(machines=0, cig=0)
    linearize(model, st)
    assert call_counts["machines"] == 2 * len(groups) + 1


def test_jacobian_structure_is_built_once_across_load_steps(case, monkeypatch):
    """91 load changes, each followed by a Jacobian build: one structure.
    Every event drops the Jacobian after 10 steps, fewer than a build costs
    in residual passes, so the contraction rule adds no build between
    events: beyond the first, at most a few in the 0.5 s tail."""
    builds = []
    groups = gridfreq.dae._column_groups
    monkeypatch.setattr(gridfreq.dae, "_column_groups",
                        lambda pattern: builds.append(1) or groups(pattern))
    rng = random.Random(0)
    level = {b: 1.0 for b in (5, 6, 8)}
    ev = []
    for i in range(91):
        bus, target = rng.choice((5, 6, 8)), rng.uniform(0.85, 1.15)
        ev.append(Event(round(0.5 + 0.1 * i, 9), LoadScale(bus=bus, factor=target / level[bus])))
        level[bus] = target
    model, st = build_system(case, "no_cig")
    ts = simulate(model, st, ev, t_end=10.0, h=0.01, output_dt=0.01, channels=["omega_coi"])
    assert ts.stats["resolves"] == 91
    assert 91 < ts.stats["jacobian_builds"] <= ts.stats["resolves"] + 3
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# The network balance against the complex formula it replaced
# ---------------------------------------------------------------------------

def reference_network_balance(model: SystemModel, x: np.ndarray, y: np.ndarray):
    """g as `SystemModel.residual` computed it before the float network
    balance: complex numpy arrays over every bus, loads as conj(S / v)."""
    v = model.voltages(y)
    wcoi = model.coi_speed(x)
    _, inj = model._machine_block(x.tolist(), v.tolist(), wcoi)
    if model.cig:
        vb = complex(v[model.cig_bus])
        _, inj_c, _ = gridfreq.cig.cig_derivatives(
            x[model.n_x - gridfreq.cig.N_STATES:].tolist(), vb.real, vb.imag,
            model.cig.params, model.omega_base, omega_frame=wcoi)
        inj[model.cig_bus] += inj_c
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
    scaled.set_network(apply_event(scaled.net, LoadScale(bus=5, factor=0.6)))
    faulted, _ = build_system(case, "cig_omega_tilde", k=1.2)
    faulted.set_network(apply_event(faulted.net, FaultOn(bus=7, g=20.0, b=-5.0)))
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
    y = model.pack_voltages(v)
    g = model.residual(x, y)[1]
    assert np.max(np.abs(g - reference_network_balance(model, x, y))) <= 1e-13


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


def test_f0_reuse_is_dropped_by_invalidate(case):
    model, st = build_system(case, "cig_omega_tilde")
    h = 0.01
    integ = TrapezoidalIntegrator(model)
    s1 = integ.step(st, h)
    # same (x, y), different model: network and governor set point
    model.set_network(apply_event(model.net, LoadScale(bus=5, factor=0.9)))
    model.machines[0].gov.p_ref += 0.05
    model.refresh_setpoints()
    integ.invalidate()
    a = integ.step(s1, h)
    b = TrapezoidalIntegrator(model).step(s1, h)
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
    model.set_network(apply_event(model.net, LoadScale(bus=5, factor=0.5)))
    s2 = integ.resolve(s1)
    assert np.array_equal(s2.x, s1.x) and s2.t == s1.t
    assert integ.stats["resolves"] == 1
    f, g, outputs = model.residual(s2.x, s2.y)
    assert np.max(np.abs(g)) < integ.tol
    passes = []
    residual = model.residual
    monkeypatch.setattr(model, "residual", lambda x, y: passes.append(1) or residual(x, y))
    rec = record(model, s2, ["omega_coi", "p_cig", "rho_est"], integ.evaluate)
    assert passes == []  # record at the event time reads the cached outputs
    assert rec["p_cig"] == outputs["p_cig"] and rec["rho_est"] == outputs["rho_est"]
    assert np.array_equal(integ.evaluate(s2.x, s2.y)[0], f)  # the next step's f0
    # the pre-event Jacobian is gone: the next step builds its own, as a fresh
    # integrator does from the same point
    a, b = integ.step(s2, 0.01), TrapezoidalIntegrator(model).step(s2, 0.01)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


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
            assert ts.stats["resolves"] == len(ev)
