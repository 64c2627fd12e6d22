"""Tests for the grid-following converter: PLL, estimators, outer/inner
loops, current limiting, and initialization.

Every test calls the float component functions that `cig_derivatives`
composes, as the simulator runs them.  The dataclass composition they
replaced is kept below as the reference for `cig_derivatives`.
"""

import cmath
import math

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import solve_ivp

from gridfreq.cig import (
    CIGControlParams,
    CIGState,
    PLLParams,
    cig_derivatives,
    estimate_rho,
    initialize_cig,
    inner_loop_and_injection,
    limit_currents,
    modified_signal,
    outer_loops,
    pll_derivatives,
    pll_error,
)
from gridfreq.machines import InitializationError

OMEGA_B = 2.0 * math.pi * 60.0


def default_params(**kw) -> CIGControlParams:
    base = dict(K=1.2, r_droop=0.05, k_w=10.0, t_w=1.0, kp_v=0.5, ki_v=20.0,
                t_i=0.02, i_max=1.5, p_ref=1.0, q_ref=0.0, t_f=0.02,
                pll=PLLParams(kp=0.15, ki=4.2))
    base.update(kw)
    return CIGControlParams(**base)


# ---------------------------------------------------------------------------
# PLL
# ---------------------------------------------------------------------------

def test_pll_error_zero_when_locked():
    assert pll_error(0.4, math.cos(0.4), math.sin(0.4), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_pll_locked_state_is_stationary():
    vd, vq = 1.02 * math.cos(0.25), 1.02 * math.sin(0.25)
    (d_theta, d_xi), omega_est = pll_derivatives(0.25, 0.0, vd, vq, 1.02,
                                                 PLLParams(), OMEGA_B)
    assert d_theta == pytest.approx(0.0, abs=1e-12)
    assert d_xi == pytest.approx(0.0, abs=1e-12)
    assert omega_est == pytest.approx(1.0)


def test_pll_tracks_offset_frequency():
    """Integrated against a phasor rotating 0.3 Hz above nominal, the PLL
    frequency estimate settles on the true value within 2 %."""
    p = PLLParams(kp=0.15, ki=4.2)
    dw = 0.3 * 2 * math.pi / OMEGA_B  # pu offset

    def rhs(t, s):
        th_v = dw * OMEGA_B * t
        (d_th, d_xi), _ = pll_derivatives(*s, math.cos(th_v), math.sin(th_v), 1.0,
                                          p, OMEGA_B)
        return [d_th, d_xi]

    sol = solve_ivp(rhs, (0.0, 3.0), [0.0, 0.0], max_step=1e-3,
                    dense_output=True)
    th, xi = sol.y[:, -1]
    th_v = dw * OMEGA_B * 3.0
    _, omega_est = pll_derivatives(th, xi, math.cos(th_v), math.sin(th_v), 1.0, p, OMEGA_B)
    assert omega_est == pytest.approx(1.0 + dw, rel=0.02 * dw / (1 + dw) + 1e-4,
                                      abs=0.02 * dw)


def test_pll_rejects_zero_voltage():
    with pytest.raises(ValueError):
        pll_error(0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# rho estimator and signal compensation
# ---------------------------------------------------------------------------

def test_rho_estimator_zero_at_settled_magnitude():
    dz, rho = estimate_rho(math.log(1.03), 0.02, 1.03)
    assert dz == pytest.approx(0.0, abs=1e-15)
    assert rho == pytest.approx(0.0, abs=1e-15)


def test_rho_estimator_tracks_exponential_ramp():
    """For v(t) = e^{s t} the washout output converges to s with the
    first-order lag (1 + s T_f)."""
    s, t_f = 0.4, 0.02

    def rhs(t, z):
        dz, _ = estimate_rho(z[0], t_f, math.exp(s * t))
        return [dz]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0], max_step=1e-4)
    _, rho = estimate_rho(sol.y[0, -1], t_f, math.exp(s * 1.0))
    assert rho == pytest.approx(s, rel=1e-3)


def test_rho_estimator_phase_lag_matches_time_constant():
    """Driven by ln v = a sin(w t), the settled estimator output lags the
    exact rho = a w cos(w t) by atan(w T_f)."""
    a, w, t_f = 0.01, 2.0 * math.pi * 1.0, 0.02

    def rhs(t, z):
        dz, _ = estimate_rho(z[0], t_f, math.exp(a * math.sin(w * t)))
        return [dz]

    tt = np.linspace(4.0, 5.0, 2001)
    sol = solve_ivp(rhs, (0.0, 5.0), [0.0], t_eval=tt, max_step=2e-4)
    rho = np.array([estimate_rho(z, t_f, math.exp(a * math.sin(w * t)))[1]
                    for t, z in zip(tt, sol.y[0])])
    # fit phase of the settled sinusoid against cos(w t)
    c = 2 * np.trapezoid(rho * np.cos(w * tt), tt)
    s = 2 * np.trapezoid(rho * np.sin(w * tt), tt)
    # rho ~ A cos(w t - lag) = A cos(lag) cos(w t) + A sin(lag) sin(w t)
    lag = math.atan2(s, c)
    gain = math.hypot(c, s) / (a * w)
    expected = math.atan(w * t_f)
    assert lag == pytest.approx(expected, abs=0.02)
    assert gain == pytest.approx(1.0 / math.hypot(1.0, w * t_f), rel=0.02)


def test_modified_signal_arithmetic():
    assert modified_signal(1.01, 0.002, 1.2) == pytest.approx(1.01 - 1.2 * 0.002)
    assert modified_signal(1.01, 0.002, 0.0) == 1.01


# ---------------------------------------------------------------------------
# outer loops and current limiting
# ---------------------------------------------------------------------------

def test_limit_currents_passthrough_inside_circle():
    assert limit_currents(0.5, 0.3, 1.0) == (0.5, 0.3)


def test_limit_currents_active_priority():
    i_d, i_q = limit_currents(1.2, 0.9, 1.5)  # demand 1.5x the limit
    assert i_d == pytest.approx(1.2)  # active current untouched
    assert math.hypot(i_d, i_q) == pytest.approx(1.5)
    i_d, i_q = limit_currents(2.0, 0.5, 1.5)
    assert i_d == pytest.approx(1.5)
    assert i_q == pytest.approx(0.0)


def test_outer_loops_scheduled_point():
    p = default_params(v_ref=1.0)
    id_ref, iq_ref = outer_loops(w_wash=1.0, x_v=p.q_ref, vmag=1.0, params=p, signal=1.0)
    assert id_ref == pytest.approx(p.p_ref)
    assert iq_ref == pytest.approx(-p.q_ref)


def test_outer_loops_droop_arithmetic():
    # signal 0.01 pu above nominal with R = 0.05 trims 0.2 pu of power
    p = default_params(k_w=0.0, v_ref=1.0)
    id_ref, _ = outer_loops(w_wash=1.01, x_v=0.0, vmag=1.0, params=p, signal=1.01)
    assert id_ref == pytest.approx(p.p_ref - 0.2)


def test_outer_loops_disconnected_frequency_loop():
    p = default_params(freq_loop=False, v_ref=1.0)
    id_ref, _ = outer_loops(w_wash=1.0, x_v=0.0, vmag=1.0, params=p, signal=1.05)
    assert id_ref == pytest.approx(p.p_ref)  # signal ignored


def test_inner_loop_first_order_tracking():
    p = default_params()
    (d_id, d_iq), inj = inner_loop_and_injection(0.2, 0.0, 0.3, (1.0, -0.1), p)
    assert d_id == pytest.approx((1.0 - 0.2) / p.t_i)
    assert d_iq == pytest.approx(-0.1 / p.t_i)
    assert inj == pytest.approx(complex(0.2, 0.0) * cmath.exp(0.3j))
    # reference equal to state -> fixed point
    (d_id, d_iq), _ = inner_loop_and_injection(0.2, 0.0, 0.3, (0.2, 0.0), p)
    assert d_id == 0.0 and d_iq == 0.0


# ---------------------------------------------------------------------------
# assembled device
# ---------------------------------------------------------------------------

def test_initialize_cig_is_an_equilibrium():
    p0 = default_params()
    v = 1.02 * cmath.exp(0.2j)
    st, p = initialize_cig(v, p0)
    assert p0 == default_params()  # the argument is left as it was
    assert p == replace(p0, v_ref=abs(v))
    xdot, inj, (omega_est, rho_est, _) = cig_derivatives(
        st.as_array().tolist(), v.real, v.imag, p, OMEGA_B)
    assert np.max(np.abs(xdot)) < 1e-12
    s = v * inj.conjugate()
    assert s.real == pytest.approx(p.p_ref, abs=1e-10)
    assert s.imag == pytest.approx(p.q_ref, abs=1e-10)
    assert omega_est == pytest.approx(1.0)
    assert rho_est == pytest.approx(0.0, abs=1e-15)


def test_initialize_cig_rejects_overcurrent_dispatch():
    p = default_params(p_ref=2.0, i_max=1.5)
    with pytest.raises(InitializationError):
        initialize_cig(1.0 + 0j, p)


def test_parameter_validation():
    with pytest.raises(ValueError):
        default_params(i_max=0.0)
    with pytest.raises(ValueError):
        default_params(t_f=-0.1)


# ---------------------------------------------------------------------------
# The float path against the dataclass composition it replaced
# ---------------------------------------------------------------------------

@dataclass
class RefPLLState:
    theta: float
    xi: float


def reference_cig_derivatives(st: CIGState, v: complex, params: CIGControlParams,
                              omega_base: float, omega_frame: float = 1.0):
    """`cig_derivatives` as it was composed from state dataclasses and the
    complex bus voltage v, with each component inlined: (xdot, injection,
    signals)."""
    pll_st = RefPLLState(theta=st.theta_pll, xi=st.xi_pll)
    err = (-v.real * math.sin(pll_st.theta) + v.imag * math.cos(pll_st.theta)) / abs(v)
    omega_est = 1.0 + params.pll.kp * err + pll_st.xi
    d_theta = omega_base * (omega_est - omega_frame)
    d_xi = params.pll.ki * err
    d_z = (math.log(abs(v)) - st.z_rho) / params.t_f
    rho_pu = d_z / omega_base
    signal = omega_est - params.K * rho_pu

    d_w = (signal - st.w_wash) / params.t_w
    d_xv = params.ki_v * (params.v_ref - abs(v))

    p_cmd = params.p_ref
    if params.freq_loop:
        p_cmd -= (signal - 1.0) / params.r_droop
        p_cmd -= params.k_w * (signal - st.w_wash) / params.t_w
    q_cmd = params.kp_v * (params.v_ref - abs(v)) + st.x_v
    id_ref, iq_ref = p_cmd / abs(v), -q_cmd / abs(v)
    if math.hypot(id_ref, iq_ref) > params.i_max:
        id_ref = max(-params.i_max, min(params.i_max, id_ref))
        room = math.sqrt(max(params.i_max ** 2 - id_ref ** 2, 0.0))
        iq_ref = max(-room, min(room, iq_ref))

    d_id = (id_ref - st.i_d) / params.t_i
    d_iq = (iq_ref - st.i_q) / params.t_i
    inj = complex(st.i_d, st.i_q) * cmath.exp(1j * st.theta_pll)
    xdot = np.array([d_theta, d_xi, d_z, d_w, d_xv, d_id, d_iq])
    return xdot, inj, (omega_est, rho_pu, signal)


def assert_float_path_matches_reference(st: CIGState, v: complex, p: CIGControlParams,
                                        omega_frame: float):
    xdot, inj, sig = cig_derivatives(st.as_array().tolist(), v.real, v.imag, p,
                                     OMEGA_B, omega_frame)
    ref_xdot, ref_inj, ref_sig = reference_cig_derivatives(
        st, v, p, OMEGA_B, omega_frame)
    scale = max(1.0, np.max(np.abs(ref_xdot)))
    assert np.max(np.abs(np.array(xdot) - ref_xdot)) <= 1e-13 * scale
    assert abs(inj - ref_inj) <= 1e-13
    assert np.max(np.abs(np.array(sig) - ref_sig)) <= 1e-13


CIG_STATE = hst.builds(
    CIGState,
    theta_pll=hst.floats(-math.pi, math.pi), xi_pll=hst.floats(-0.05, 0.05),
    z_rho=hst.floats(-0.5, 0.3), w_wash=hst.floats(0.95, 1.05),
    x_v=hst.floats(-1.0, 1.0), i_d=hst.floats(-1.5, 1.5), i_q=hst.floats(-1.5, 1.5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st=CIG_STATE, vmag=hst.floats(0.3, 1.3), vang=hst.floats(-math.pi, math.pi),
       omega_frame=hst.floats(0.97, 1.03), freq_loop=hst.booleans(),
       i_max=hst.floats(0.5, 2.0))
def test_float_path_matches_dataclass_reference(st, vmag, vang, omega_frame, freq_loop,
                                                i_max):
    p = default_params(freq_loop=freq_loop, i_max=i_max, v_ref=1.02)
    assert_float_path_matches_reference(st, cmath.rect(vmag, vang), p, omega_frame)


@pytest.mark.parametrize("vmag, active", [(1.0, False), (0.5, True)])
def test_float_path_matches_reference_with_limiter(vmag, active):
    """The current limiter inactive at nominal voltage and active in a dip,
    where the same power needs twice the current."""
    p = default_params(p_ref=1.0, i_max=1.5)
    v = cmath.rect(vmag, 0.2)
    st, p = initialize_cig(cmath.rect(1.0, 0.2), p)
    xdot, _, (_, _, signal) = cig_derivatives(st.as_array().tolist(), v.real, v.imag,
                                              p, OMEGA_B)
    id_ref, iq_ref = outer_loops(st.w_wash, st.x_v, vmag, p, signal)
    assert (math.hypot(id_ref, iq_ref) == pytest.approx(p.i_max)) == active
    assert_float_path_matches_reference(st, v, p, 1.0)
