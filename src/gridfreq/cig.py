"""Grid-following converter-interfaced generator (CIG).

One float kernel, `cig_derivatives`, runs the whole control chain (all
per-unit, speeds on the system frequency base):

* SRF-PLL tracks the bus-voltage phase; its output is the estimated
  bus frequency omega_est.
* A washout filter over ln|v| estimates the radial frequency rho
  (rate of change of the voltage magnitude) without an explicit
  differentiator.
* The frequency-loop input signal is either omega_est or the
  compensated signal omega_est - K * rho_est (`modified_signal`).
* Outer loops: active power droop + washout channel on the frequency
  signal; reactive power PI on the voltage error.
* Inner loop: first-order dq current tracking with a circular
  current limiter (active-current priority); the current is injected
  into the network rotated by the PLL angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .machines import InitializationError


@dataclass(frozen=True)
class CIGControlParams:
    K: float = 0.0          # compensation gain on rho
    r_droop: float = 0.05   # frequency droop, pu speed / pu power
    k_w: float = 0.0        # washout channel gain
    t_w: float = 1.0        # washout channel time constant, s
    kp_v: float = 0.5       # voltage PI
    ki_v: float = 20.0
    t_i: float = 0.02       # inner current-loop time constant, s
    i_max: float = 1.5      # current limit, pu
    p_ref: float = 0.0
    q_ref: float = 0.0
    t_f: float = 0.02       # rho-estimator washout time constant, s
    x_t: float = 0.0        # step-up transformer reactance to the grid, pu
    kp_pll: float = 20.0    # SRF-PLL PI
    ki_pll: float = 150.0
    freq_loop: bool = True  # False: droop/washout channels disconnected
    v_ref: float = 1.0      # filled in by initialize_cig

    def __post_init__(self) -> None:
        if self.i_max <= 0.0 or self.t_w <= 0.0 or self.t_f <= 0.0:
            raise ValueError("i_max, T_w, T_f must be positive")


STATE_NAMES = ("theta_pll", "xi_pll", "z_rho", "w_wash", "x_v", "i_d", "i_q")
N_STATES = len(STATE_NAMES)
# the converter's outputs, as `cig_derivatives` returns them and
# `SystemModel.residual` records them
OUTPUT_NAMES = ("p_cig", "q_cig", "omega_est", "rho_est", "omega_tilde")


def modified_signal(omega_est: float, rho_est: float, K: float) -> float:
    """Compensated frequency signal omega_est - K * rho_est (consistent units)."""
    return omega_est - K * rho_est


def cig_derivatives(x, v: complex, params: CIGControlParams, omega_frame: float,
                    omega_base: float) -> tuple[list[float], complex, tuple]:
    """Time derivatives of the converter's 7 states, its current and its outputs.

    x holds the states as floats in STATE_NAMES order: the PLL angle
    theta_pll (rad, network frame) and PI integrator xi_pll, the low-passed
    ln|v| z_rho, the washout-channel state w_wash, the voltage-PI
    integrator x_v and the currents i_d, i_q in the PLL frame.  v is the
    bus voltage in the network frame, which rotates at omega_frame (pu).
    Returns (xdot in STATE_NAMES order, network-frame current injection,
    the OUTPUT_NAMES values): rho_est in pu and omega_tilde the
    frequency-loop input.  Raises ValueError at zero voltage.
    """
    theta, xi, z, w_wash, x_v, i_d, i_q = x
    vmag = math.hypot(v.real, v.imag)
    if vmag == 0.0:
        raise ValueError("converter bus voltage is zero")

    # PLL on the normalized q-axis voltage in its frame (zero when locked);
    # the tracked angle advances at omega_est relative to the frame
    err = (-v.real * math.sin(theta) + v.imag * math.cos(theta)) / vmag
    omega_est = 1.0 + params.kp_pll * err + xi
    # washout s/(1 + s T_f) on ln|v|: its output is rho in 1/s
    d_z = (math.log(vmag) - z) / params.t_f
    rho = d_z / omega_base
    signal = modified_signal(omega_est, rho, params.K)

    # outer loops; with the frequency loop disconnected the active
    # reference is just the power set point
    p_cmd = params.p_ref
    if params.freq_loop:
        p_cmd -= (signal - 1.0) / params.r_droop
        p_cmd -= params.k_w * (signal - w_wash) / params.t_w
    q_cmd = params.kp_v * (params.v_ref - vmag) + x_v
    id_ref = p_cmd / vmag
    iq_ref = -q_cmd / vmag
    # circular current limit with active (d) current priority
    i_max = params.i_max
    if math.hypot(id_ref, iq_ref) > i_max:
        id_ref = max(-i_max, min(i_max, id_ref))
        room = math.sqrt(max(i_max * i_max - id_ref * id_ref, 0.0))
        iq_ref = max(-room, min(room, iq_ref))

    inj = complex(i_d, i_q) * cmath.exp(1j * theta)
    s = v * inj.conjugate()
    xdot = [omega_base * (omega_est - omega_frame),
            params.ki_pll * err,
            d_z,
            (signal - w_wash) / params.t_w,
            params.ki_v * (params.v_ref - vmag),
            (id_ref - i_d) / params.t_i,
            (iq_ref - i_q) / params.t_i]
    return xdot, inj, (s.real, s.imag, omega_est, rho, signal)


def kernel_reads(params: CIGControlParams) -> dict[str, tuple[str, ...]]:
    """What each row of `cig_derivatives` reads under params: every
    derivative (by state name) and the injection ("current") against the
    states by name, the bus voltage "v" and "omega_frame".

    `SystemModel.jacobian_structure` builds the Jacobian's pattern from it,
    so it is structural: no entry is dropped for a gain that is zero.  The
    frequency-loop reads follow `freq_loop` as the kernel's outer loops do,
    and the current limiter reads both references in both current rows.
    """
    signal = ("theta_pll", "xi_pll", "z_rho", "v")   # omega_est - K rho_est
    refs = ("x_v", "v") + ((*signal, "w_wash") if params.freq_loop else ())
    return {
        "theta_pll": ("theta_pll", "xi_pll", "v", "omega_frame"),
        "xi_pll": ("theta_pll", "v"),
        "z_rho": ("z_rho", "v"),
        "w_wash": (*signal, "w_wash"),
        "x_v": ("v",),
        "i_d": ("i_d", *refs),
        "i_q": ("i_q", *refs),
        "current": ("theta_pll", "i_d", "i_q"),
    }


def initialize_cig(v_terminal: complex,
                   params: CIGControlParams) -> tuple[np.ndarray, CIGControlParams]:
    """Equilibrium CIG state for the scheduled (p_ref, q_ref) dispatch.

    Returns (state, params): the state as a float array in STATE_NAMES
    order, and a copy of params with the voltage reference filled in as
    a Python float, so that the voltage PI is balanced.  Raises
    InitializationError if the dispatch exceeds the current limit.
    """
    vmag = abs(v_terminal)
    if vmag <= 0.0:
        raise InitializationError("zero terminal voltage")
    i_d = params.p_ref / vmag
    i_q = -params.q_ref / vmag
    if math.hypot(i_d, i_q) > params.i_max:
        raise InitializationError(
            f"dispatch needs {math.hypot(i_d, i_q):.3f} pu current, limit {params.i_max}")
    state = np.array([cmath.phase(v_terminal), 0.0, math.log(vmag), 1.0, params.q_ref,
                      i_d, i_q])
    return state, replace(params, v_ref=float(vmag))
