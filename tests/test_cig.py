"""Tests for the grid-following converter: PLL, estimators, outer/inner
loops, current limiting, and initialization.

Every test reads the rows and outputs of the one float kernel,
`cig_derivatives`, as the simulator runs it.  The dataclass composition
it replaced is kept below as its reference.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import solve_ivp

from gridfreq.cig import (
    STATE_NAMES,
    CIGControlParams,
    cig_derivatives,
    initialize_cig,
    modified_signal,
)
from gridfreq.machines import InitializationError

OMEGA_B = 2.0 * math.pi * 60.0

# the converter's states by name, at rest unless given
State = namedtuple("State", STATE_NAMES, defaults=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))


def default_params(**kw) -> CIGControlParams:
    base = dict(K=1.2, r_droop=0.05, k_w=10.0, t_w=1.0, kp_v=0.5, ki_v=20.0,
                t_i=0.02, i_max=1.5, p_ref=1.0, q_ref=0.0, t_f=0.02,
                kp_pll=0.15, ki_pll=4.2)
    base.update(kw)
    return CIGControlParams(**base)


def kernel(st: State, v: complex, p: CIGControlParams):
    """(xdot, injection, outputs) of the converter in a frame at nominal speed."""
    return cig_derivatives(list(st), v, p, 1.0, OMEGA_B)


def current_refs(p: CIGControlParams, st: State, v: complex = 1.0 + 0j) -> tuple[float, float]:
    """The current references of the outer loops and the limiter at st,
    read as t_i times the rows d_id and d_iq at i_d = i_q = 0."""
    xdot = kernel(st._replace(i_d=0.0, i_q=0.0), v, p)[0]
    return xdot[5] * p.t_i, xdot[6] * p.t_i


# ---------------------------------------------------------------------------
# PLL: rows theta_pll and xi_pll
# ---------------------------------------------------------------------------

def test_pll_error_zero_when_locked():
    p = default_params()
    d_xi = kernel(State(theta_pll=0.4), complex(math.cos(0.4), math.sin(0.4)), p)[0][1]
    assert d_xi / p.ki_pll == pytest.approx(0.0, abs=1e-15)


def test_pll_locked_state_is_stationary():
    v = complex(1.02 * math.cos(0.25), 1.02 * math.sin(0.25))
    (d_theta, d_xi, *_), _, (_, _, omega_est, _, _) = kernel(
        State(theta_pll=0.25), v, CIGControlParams())
    assert d_theta == pytest.approx(0.0, abs=1e-12)
    assert d_xi == pytest.approx(0.0, abs=1e-12)
    assert omega_est == pytest.approx(1.0)


def test_pll_tracks_offset_frequency():
    """Integrated against a phasor rotating 0.3 Hz above nominal, the PLL
    frequency estimate settles on the true value within 2 %."""
    p = default_params()
    dw = 0.3 * 2 * math.pi / OMEGA_B  # pu offset

    def rhs(t, s):
        th_v = dw * OMEGA_B * t
        return kernel(State(*s), complex(math.cos(th_v), math.sin(th_v)), p)[0][:2]

    sol = solve_ivp(rhs, (0.0, 3.0), [0.0, 0.0], max_step=1e-3,
                    dense_output=True)
    th, xi = sol.y[:, -1]
    th_v = dw * OMEGA_B * 3.0
    omega_est = kernel(State(th, xi), complex(math.cos(th_v), math.sin(th_v)), p)[2][2]
    assert omega_est == pytest.approx(1.0 + dw, rel=0.02 * dw / (1 + dw) + 1e-4,
                                      abs=0.02 * dw)


def test_pll_rejects_zero_voltage():
    with pytest.raises(ValueError):
        kernel(State(), 0j, default_params())


# ---------------------------------------------------------------------------
# rho estimator (row z_rho, in 1/s) and signal compensation
# ---------------------------------------------------------------------------

def rho_row(z: float, p: CIGControlParams, v_mag: float) -> float:
    """The kernel's row z_rho: the estimate of rho in 1/s."""
    return cig_derivatives([0.0, 0.0, z, 1.0, 0.0, 0.0, 0.0], complex(v_mag, 0.0), p, 1.0,
                           OMEGA_B)[0][2]


def test_rho_estimator_zero_at_settled_magnitude():
    xdot, _, (_, _, _, rho, _) = kernel(State(z_rho=math.log(1.03)), 1.03 + 0j,
                                        default_params(t_f=0.02))
    assert xdot[2] == pytest.approx(0.0, abs=1e-15)
    assert rho == pytest.approx(0.0, abs=1e-15)


def test_rho_estimator_tracks_exponential_ramp():
    """For v(t) = e^{s t} the washout output converges to s with the
    first-order lag (1 + s T_f)."""
    s, p = 0.4, default_params(t_f=0.02)

    def rhs(t, z):
        return [rho_row(z[0], p, math.exp(s * t))]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0], max_step=1e-4)
    rho = rho_row(sol.y[0, -1], p, math.exp(s * 1.0))
    assert rho == pytest.approx(s, rel=1e-3)


def test_rho_estimator_phase_lag_matches_time_constant():
    """Driven by ln v = a sin(w t), the settled estimator output lags the
    exact rho = a w cos(w t) by atan(w T_f)."""
    a, w, t_f = 0.01, 2.0 * math.pi * 1.0, 0.02
    p = default_params(t_f=t_f)

    def rhs(t, z):
        return [rho_row(z[0], p, math.exp(a * math.sin(w * t)))]

    tt = np.linspace(4.0, 5.0, 2001)
    sol = solve_ivp(rhs, (0.0, 5.0), [0.0], t_eval=tt, max_step=2e-4)
    rho = np.array([rho_row(z, p, math.exp(a * math.sin(w * t)))
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
# outer loops and current limiting, through rows d_id and d_iq; at v = 1
# with the PLL locked and z_rho = ln|v|, the frequency signal is 1 + xi_pll
# and the current references are (p_cmd, -q_cmd)
# ---------------------------------------------------------------------------

def test_limit_currents_passthrough_inside_circle():
    p = default_params(p_ref=0.5, i_max=1.0, freq_loop=False, v_ref=1.0)
    assert current_refs(p, State(x_v=-0.3)) == pytest.approx((0.5, 0.3))


def test_limit_currents_active_priority():
    # demand 1.5x the limit
    i_d, i_q = current_refs(default_params(p_ref=1.2, freq_loop=False, v_ref=1.0), State(x_v=-0.9))
    assert i_d == pytest.approx(1.2)  # active current untouched
    assert math.hypot(i_d, i_q) == pytest.approx(1.5)
    i_d, i_q = current_refs(default_params(p_ref=2.0, freq_loop=False, v_ref=1.0), State(x_v=-0.5))
    assert i_d == pytest.approx(1.5)
    assert i_q == pytest.approx(0.0)


def test_outer_loops_scheduled_point():
    p = default_params(v_ref=1.0)
    id_ref, iq_ref = current_refs(p, State(w_wash=1.0, x_v=p.q_ref))
    assert id_ref == pytest.approx(p.p_ref)
    assert iq_ref == pytest.approx(-p.q_ref)


def test_outer_loops_droop_arithmetic():
    # signal 0.01 pu above nominal with R = 0.05 trims 0.2 pu of power
    p = default_params(k_w=0.0, v_ref=1.0)
    id_ref, _ = current_refs(p, State(xi_pll=0.01, w_wash=1.01))
    assert id_ref == pytest.approx(p.p_ref - 0.2)


def test_outer_loops_disconnected_frequency_loop():
    p = default_params(freq_loop=False, v_ref=1.0)
    id_ref, _ = current_refs(p, State(xi_pll=0.05))
    assert id_ref == pytest.approx(p.p_ref)  # signal ignored


def test_inner_loop_first_order_tracking():
    # references (1.0, -0.1), then equal to the currents (0.2, 0.0)
    p = default_params(freq_loop=False, v_ref=1.0)
    (*_, d_id, d_iq), inj, _ = kernel(State(theta_pll=0.3, x_v=0.1, i_d=0.2), 1.0 + 0j, p)
    assert d_id == pytest.approx((1.0 - 0.2) / p.t_i)
    assert d_iq == pytest.approx(-0.1 / p.t_i)
    assert inj == pytest.approx(complex(0.2, 0.0) * cmath.exp(0.3j))
    # reference equal to state -> fixed point
    (*_, d_id, d_iq), _, _ = kernel(State(theta_pll=0.3, i_d=0.2), 1.0 + 0j,
                                    replace(p, p_ref=0.2))
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
    xdot, inj, (p_cig, q_cig, omega_est, rho_est, _) = kernel(State(*st), v, p)
    assert np.max(np.abs(xdot)) < 1e-12
    assert p_cig == pytest.approx(p.p_ref, abs=1e-10)
    assert q_cig == pytest.approx(p.q_ref, abs=1e-10)
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


def reference_cig_derivatives(st: State, v: complex, params: CIGControlParams,
                              omega_base: float, omega_frame: float):
    """`cig_derivatives` as it was composed from state dataclasses and the
    complex bus voltage v, with each component inlined: (xdot, injection,
    signals)."""
    pll_st = RefPLLState(theta=st.theta_pll, xi=st.xi_pll)
    err = (-v.real * math.sin(pll_st.theta) + v.imag * math.cos(pll_st.theta)) / abs(v)
    omega_est = 1.0 + params.kp_pll * err + pll_st.xi
    d_theta = omega_base * (omega_est - omega_frame)
    d_xi = params.ki_pll * err
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


def assert_float_path_matches_reference(st: State, v: complex, p: CIGControlParams,
                                        omega_frame: float):
    """The kernel against the reference; its p_cig and q_cig against the
    power v conj(i) of the reference's own injection."""
    xdot, inj, out = cig_derivatives(list(st), v, p, omega_frame, OMEGA_B)
    ref_xdot, ref_inj, ref_sig = reference_cig_derivatives(
        st, v, p, OMEGA_B, omega_frame)
    s = v * ref_inj.conjugate()
    scale = max(1.0, np.max(np.abs(ref_xdot)))
    assert np.max(np.abs(np.array(xdot) - ref_xdot)) <= 1e-13 * scale
    assert abs(inj - ref_inj) <= 1e-13
    assert np.max(np.abs(np.array(out) - [s.real, s.imag, *ref_sig])) <= 1e-13


CIG_STATE = hst.builds(
    State,
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
    id_ref, iq_ref = current_refs(p, State(*st), v)
    assert (math.hypot(id_ref, iq_ref) == pytest.approx(p.i_max)) == active
    assert_float_path_matches_reference(State(*st), v, p, 1.0)
