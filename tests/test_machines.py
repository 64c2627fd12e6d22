"""Tests for the two-axis machine, AVR, governor, and initialization.

Every test goes through `sm_kernel`, the float kernel that
`SystemModel._machine_block` runs for each machine.  The vectorized numpy
block it replaced is kept below as the reference for the kernel.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gridfreq.casefile import load_bundled_case
from gridfreq.dae import SystemModel, build_system
from gridfreq.machines import (
    N_STATES,
    STATE_NAMES,
    AVRParams,
    GovParams,
    InitializationError,
    SynMachineParams,
    coi_weights,
    initialize_sm,
    sm_kernel,
    sm_kernel_params,
)

OMEGA_B = 2.0 * math.pi * 60.0

# one machine's states by name
MachineState = namedtuple("MachineState", STATE_NAMES)


def wscc_unit1() -> SynMachineParams:
    return SynMachineParams(H=4.0, D=0.0, ra=0.0, xd=0.1460, xq=0.0969,
                            xd1=0.0608, xq1=0.0969, td01=8.96, tq01=0.310)


def kernel(st: MachineState, v: complex, p: SynMachineParams, avr: AVRParams,
           gov: GovParams, omega_coi: float = 1.0):
    """(xdot, injection) of one machine, as the simulator evaluates it; the
    kernel returns no outputs."""
    xdot, inj, outputs = sm_kernel(list(st), v, sm_kernel_params(p, avr, gov),
                                   omega_coi, OMEGA_B)
    assert outputs == ()
    return xdot, inj


def to_machine_frame(inj: complex, delta: float) -> tuple[float, float]:
    back = inj * cmath.exp(-1j * (delta - math.pi / 2.0))
    return back.real, back.imag


def test_parameter_validation():
    with pytest.raises(ValueError):
        SynMachineParams(H=-1.0, D=0.0, ra=0.0, xd=0.1, xq=0.1,
                         xd1=0.05, xq1=0.05, td01=8.0, tq01=0.3)
    with pytest.raises(ValueError):
        SynMachineParams(H=4.0, D=0.0, ra=0.0, xd=0.05, xq=0.1,
                         xd1=0.06, xq1=0.05, td01=8.0, tq01=0.3)  # xd < xd'
    with pytest.raises(ValueError):
        GovParams(droop=0.0)
    with pytest.raises(ValueError):
        GovParams(p_min=1.0, p_max=0.5)


def test_stator_currents_satisfy_stator_equations():
    p = SynMachineParams(H=4.0, D=0.0, ra=0.02, xd=0.9, xq=0.86,
                         xd1=0.12, xq1=0.20, td01=6.0, tq01=0.5)
    st = MachineState(delta=0.5, omega=1.0, eq1=1.05, ed1=0.1,
                      efd=1.2, rf=0.0, vr=0.0, psv=0.0, pm=0.0)
    v = complex(1.0, 0.1)
    _, inj = kernel(st, v, p, AVRParams(), GovParams())
    i_d, i_q = to_machine_frame(inj, st.delta)
    vd, vq = to_machine_frame(v, st.delta)
    # stator equations: vd = ed' - ra id + xq' iq;  vq = eq' - ra iq - xd' id
    assert vd == pytest.approx(st.ed1 - p.ra * i_d + p.xq1 * i_q, abs=1e-12)
    assert vq == pytest.approx(st.eq1 - p.ra * i_q - p.xd1 * i_d, abs=1e-12)


def test_injection_matches_machine_frame_currents():
    """The injected current, rotated back to the machine frame, is the
    current that drives the transient-EMF derivatives."""
    p = SynMachineParams(H=4.0, D=0.0, ra=0.01, xd=0.9, xq=0.86,
                         xd1=0.12, xq1=0.20, td01=6.0, tq01=0.5)
    st = MachineState(delta=0.3, omega=1.0, eq1=1.1, ed1=0.05,
                      efd=1.2, rf=0.0, vr=0.0, psv=0.0, pm=0.0)
    xdot, inj = kernel(st, complex(1.02, 0.05), p, AVRParams(), GovParams())
    i_d, i_q = to_machine_frame(inj, st.delta)
    # d eq'/dt = (-eq' - (xd - xd') id + efd) / Td0';  d ed'/dt = (-ed' + (xq - xq') iq) / Tq0'
    assert i_d == pytest.approx((st.efd - st.eq1 - p.td01 * xdot[2]) / (p.xd - p.xd1),
                                abs=1e-12)
    assert i_q == pytest.approx((st.ed1 + p.tq01 * xdot[3]) / (p.xq - p.xq1), abs=1e-12)


def test_injection_power_consistent_with_electrical_power():
    # for ra = 0 the terminal power equals the air-gap power in the swing equation
    p = wscc_unit1()
    st = MachineState(delta=0.4, omega=1.0, eq1=1.1, ed1=0.02,
                      efd=1.2, rf=0.0, vr=0.0, psv=0.0, pm=0.7)
    v = complex(1.0, 0.2)
    xdot, inj = kernel(st, v, p, AVRParams(), GovParams())
    pe = st.pm - 2.0 * p.H * xdot[1]  # omega at the COI speed, so D drops out
    assert (v * inj.conjugate()).real == pytest.approx(pe, abs=1e-12)


def test_initialize_sm_is_an_equilibrium():
    """The returned set points make the state an equilibrium; the
    arguments are left as they were."""
    p = wscc_unit1()
    avr0 = AVRParams()
    gov0 = GovParams(droop=0.12, t_sv=0.1, t_ch=3.5)
    v = 1.04 * cmath.exp(0.1j)
    st, avr, gov = initialize_sm(v, 0.716, 0.27, p, avr0, gov0)
    assert (p, avr0, gov0) == (wscc_unit1(), AVRParams(),
                               GovParams(droop=0.12, t_sv=0.1, t_ch=3.5))
    assert avr == replace(avr0, v_ref=avr.v_ref)
    assert gov == replace(gov0, p_ref=gov.p_ref) and gov.p_ref == pytest.approx(0.716)
    xdot, _ = kernel(st, v, p, avr, gov)
    assert np.max(np.abs(xdot)) < 1e-12


def test_initialize_sm_reproduces_dispatch():
    p = wscc_unit1()
    v = complex(1.025, 0.04)
    st, avr, gov = initialize_sm(v, 1.63, 0.07, p, AVRParams(),
                                 GovParams(droop=0.12, t_ch=3.5))
    _, inj = kernel(st, v, p, avr, gov)
    s = v * inj.conjugate()
    assert s.real == pytest.approx(1.63, abs=1e-10)
    assert s.imag == pytest.approx(0.07, abs=1e-10)


def test_initialize_sm_rejects_infeasible_dispatch():
    p = wscc_unit1()
    with pytest.raises(InitializationError):
        initialize_sm(1.0 + 0j, 1.0, 0.0, p, AVRParams(),
                      GovParams(p_min=0.0, p_max=0.5))
    with pytest.raises(InitializationError):
        initialize_sm(1.0 + 0j, 1.0, 0.9, p,
                      AVRParams(vr_min=-0.5, vr_max=0.5), GovParams())


def test_governor_droop_steady_state():
    """At a sustained speed error dw the settled valve moves by -dw/R."""
    gov = GovParams(droop=0.05, t_sv=0.1, t_ch=0.5, p_ref=1.0)
    p = wscc_unit1()
    avr = AVRParams(v_ref=1.0)
    dw = 0.01
    st = MachineState(delta=0.0, omega=1.0 + dw, eq1=1.0, ed1=0.0,
                      efd=1.0, rf=0.0, vr=0.0,
                      psv=gov.p_ref - dw / gov.droop, pm=0.0)
    xdot, _ = kernel(st, 1.0 + 0j, p, avr, gov, omega_coi=1.0 + dw)
    assert xdot[7] == pytest.approx(0.0, abs=1e-12)  # psv settled at droop value


def test_governor_antiwindup_clamps_at_limits():
    gov = GovParams(droop=0.05, p_min=0.0, p_max=1.0, p_ref=1.0)
    p = wscc_unit1()
    st = MachineState(delta=0.0, omega=0.98, eq1=1.0, ed1=0.0,
                      efd=1.0, rf=0.0, vr=0.0, psv=1.0, pm=1.0)
    xdot, _ = kernel(st, 1.0 + 0j, p, AVRParams(v_ref=1.0), gov)
    assert xdot[7] == 0.0  # would open further but is on p_max


def test_avr_antiwindup_clamps_regulator():
    avr = AVRParams(vr_min=-1.0, vr_max=1.0, v_ref=1.2)
    p = wscc_unit1()
    st = MachineState(delta=0.0, omega=1.0, eq1=1.0, ed1=0.0,
                      efd=1.0, rf=avr.kf / avr.tf, vr=1.0, psv=0.5, pm=0.5)
    xdot, _ = kernel(st, 1.0 + 0j, p, avr, GovParams(p_ref=0.5))
    assert xdot[6] == 0.0  # vr pinned at vr_max under a raise request


def test_swing_equation_accelerates_on_power_surplus():
    p = wscc_unit1()  # ra = 0: the terminal power is the air-gap power
    st = MachineState(delta=0.03, omega=1.0, eq1=1.0, ed1=0.0,
                      efd=1.0, rf=0.0, vr=0.0, psv=0.8, pm=0.8)
    v = 1.0 + 0j
    xdot, inj = kernel(st, v, p, AVRParams(v_ref=1.0), GovParams(p_ref=0.8))
    pe = (v * inj.conjugate()).real
    assert pe < st.pm
    assert xdot[1] == pytest.approx((st.pm - pe) / (2 * p.H))
    assert xdot[1] > 0.0


def test_coi_frequency_weighting():
    params = [SynMachineParams(H=4.0, D=0, ra=0, xd=0.1, xq=0.1, xd1=0.05,
                               xq1=0.05, td01=8, tq01=0.3, s_rated=100.0),
              SynMachineParams(H=2.0, D=0, ra=0, xd=0.1, xq=0.1, xd1=0.05,
                               xq1=0.05, td01=8, tq01=0.3, s_rated=100.0)]
    assert coi_weights(params) == pytest.approx([4 / 6, 2 / 6])
    with pytest.raises(ValueError):
        coi_weights([])
    # the model's COI speed uses the same weights: (4*1.03 + 2*1.00)/6
    model, st = build_system(load_bundled_case(), "no_cig")
    w = coi_weights([m.params for m in model.machines])
    x = st.x.copy()
    x[model.speed_indices] = [1.03, 1.0, 0.99]
    assert model.coi_speed(x) == pytest.approx(float(w @ [1.03, 1.0, 0.99]), abs=1e-15)
    assert model.coi_speed(x.tolist()) == model.coi_speed(x)


def test_coi_weights_are_those_of_the_case_the_model_was_built_from():
    """An H edit of the case reaches the COI weights of a model built from it."""
    case = load_bundled_case()
    m = case.machines[0]
    case.machines[0] = replace(m, params=replace(m.params, H=2.0 * m.params.H))
    model, _ = build_system(case, "no_cig")
    assert model.coi_weights == coi_weights([m.params for m in case.machines]).tolist()
    assert model.coi_weights == pytest.approx([8 / 15, 4 / 15, 3 / 15])


# ---------------------------------------------------------------------------
# The kernel against the vectorized block it replaced
# ---------------------------------------------------------------------------

def reference_machine_block(model: SystemModel, x: np.ndarray, v: np.ndarray,
                            omega_coi: float):
    """The vectorized machine block the simulator ran before the float kernel:
    (machine-major derivatives, per-bus injections summed with np.add.at)."""
    p = [m.params for m in model.machines]
    avr = [m.avr for m in model.machines]
    gov = [m.gov for m in model.machines]
    H, D, ra = (np.array([getattr(q, a) for q in p]) for a in ("H", "D", "ra"))
    xd, xq, xd1, xq1 = (np.array([getattr(q, a) for q in p]) for a in ("xd", "xq", "xd1", "xq1"))
    td01, tq01 = (np.array([getattr(q, a) for q in p]) for a in ("td01", "tq01"))
    ka, ta, ke, te, kf, tf, vr_min, vr_max, v_ref = (
        np.array([getattr(q, a) for q in avr])
        for a in ("ka", "ta", "ke", "te", "kf", "tf", "vr_min", "vr_max", "v_ref"))
    droop, tsv, tch, p_min, p_max, p_ref = (
        np.array([getattr(q, a) for q in gov])
        for a in ("droop", "t_sv", "t_ch", "p_min", "p_max", "p_ref"))

    nm = len(model.machines)
    xm = x[: N_STATES * nm].reshape(nm, N_STATES)
    delta, omega, eq1, ed1, efd, rf, vr, psv, pm = xm.T

    vb = v[model.mach_bus]
    vmag = np.abs(vb)
    th = np.angle(vb)
    vd = vmag * np.sin(delta - th)
    vq = vmag * np.cos(delta - th)
    det = ra ** 2 + xd1 * xq1
    ed = ed1 - vd
    eq = eq1 - vq
    i_d = (ra * ed + xq1 * eq) / det
    i_q = (-xd1 * ed + ra * eq) / det
    pe = ed1 * i_d + eq1 * i_q + (xq1 - xd1) * i_d * i_q

    d = np.empty_like(xm)
    d[:, 0] = model.omega_base * (omega - omega_coi)
    d[:, 1] = (pm - pe - D * (omega - omega_coi)) / (2.0 * H)
    d[:, 2] = (-eq1 - (xd - xd1) * i_d + efd) / td01
    d[:, 3] = (-ed1 + (xq - xq1) * i_q) / tq01
    d[:, 4] = (vr - ke * efd) / te
    d[:, 5] = (-rf + (kf / tf) * efd) / tf
    dvr = (-vr + ka * rf - (ka * kf / tf) * efd + ka * (v_ref - vmag)) / ta
    dvr = np.where((vr >= vr_max) & (dvr > 0), 0.0, dvr)
    dvr = np.where((vr <= vr_min) & (dvr < 0), 0.0, dvr)
    d[:, 6] = dvr
    dpsv = (-psv + p_ref + (1.0 - omega) / droop) / tsv
    dpsv = np.where((psv >= p_max) & (dpsv > 0), 0.0, dpsv)
    dpsv = np.where((psv <= p_min) & (dpsv < 0), 0.0, dpsv)
    d[:, 7] = dpsv
    d[:, 8] = (psv - pm) / tch

    inj_m = (i_d + 1j * i_q) * np.exp(1j * (delta - np.pi / 2.0))
    inj = np.zeros(model.n_bus, dtype=complex)
    np.add.at(inj, model.mach_bus, inj_m)
    return d.ravel(), inj


def assert_matches_reference(model, x, v, omega_coi):
    f, re, im, outputs = model._machine_block(
        x.tolist(), np.concatenate([v.real, v.imag]).tolist(), omega_coi)
    assert outputs == {}
    f_ref, inj_ref = reference_machine_block(model, x, v, omega_coi)
    assert np.max(np.abs(np.array(f) - f_ref)) <= 1e-13
    assert np.max(np.abs(np.array(re) + 1j * np.array(im) - inj_ref)) <= 1e-13
    return np.array(f)


LIMITS = ("free", "max", "min")
MACHINE_STATE = hst.tuples(
    hst.floats(-math.pi, math.pi),    # delta
    hst.floats(0.7, 1.3),             # omega: valve pushed both ways at p_min/p_max
    hst.floats(0.5, 1.5),             # eq1
    hst.floats(-0.5, 0.5),            # ed1
    hst.floats(0.5, 3.0),             # efd
    hst.floats(-1.0, 1.0),            # rf: regulator pushed both ways at its limits
    hst.floats(-4.9, 4.9),            # vr (free)
    hst.floats(0.1, 2.4),             # psv (free)
    hst.floats(0.0, 2.5),             # pm
    hst.sampled_from(LIMITS),         # where vr sits
    hst.sampled_from(LIMITS),         # where psv sits
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(states=hst.lists(MACHINE_STATE, min_size=4, max_size=4),
       vmag=hst.lists(hst.floats(0.5, 1.3), min_size=9, max_size=9),
       vang=hst.lists(hst.floats(-math.pi, math.pi), min_size=9, max_size=9),
       omega_coi=hst.floats(0.95, 1.05))
def test_kernel_matches_vectorized_reference(shared_bus_model, states, vmag, vang,
                                             omega_coi):
    model, _, _ = shared_bus_model
    rows = []
    for m, (*s, vr_at, psv_at) in zip(model.machines, states):
        if vr_at != "free":
            s[6] = m.avr.vr_max if vr_at == "max" else m.avr.vr_min
        if psv_at != "free":
            s[7] = m.gov.p_max if psv_at == "max" else m.gov.p_min
        rows.append(s)
    x = np.array(rows).ravel()
    v = np.array(vmag) * np.exp(1j * np.array(vang))
    assert_matches_reference(model, x, v, omega_coi)


@pytest.mark.parametrize("state, limit", [(6, "max"), (6, "min"), (7, "max"), (7, "min")])
@pytest.mark.parametrize("push", [1.0, -1.0])
def test_kernel_antiwindup_matches_reference_both_ways(shared_bus_model, state, limit, push):
    """vr or psv on a limit, its derivative pushing outwards (held at 0) or
    inwards (free), in the kernel and in the reference."""
    model, x0, v = shared_bus_model
    x = x0.copy()
    i = 2  # third machine
    m = model.machines[i]
    base = N_STATES * i
    vmag = abs(v[model.mach_bus[i]])
    if state == 6:
        x[base + 6] = m.avr.vr_max if limit == "max" else m.avr.vr_min
        ka, kf, tf = m.avr.ka, m.avr.kf, m.avr.tf
        # choose rf so that the unclamped d vr/dt equals push / ta
        x[base + 5] = (x[base + 6] + (ka * kf / tf) * x[base + 4]
                       - ka * (m.avr.v_ref - vmag) + push) / ka
    else:
        x[base + 7] = m.gov.p_max if limit == "max" else m.gov.p_min
        # choose omega so that the unclamped d psv/dt equals push / t_sv
        x[base + 1] = 1.0 - m.gov.droop * (x[base + 7] - m.gov.p_ref + push)
    f = assert_matches_reference(model, x, v, 1.0)
    outwards = (limit == "max") == (push > 0)
    if outwards:
        assert f[base + state] == 0.0
    else:
        assert abs(f[base + state]) > 0.1

