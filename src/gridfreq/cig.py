"""Grid-following converter-interfaced generator (CIG).

Control chain (all per-unit, speeds on the system frequency base):

* SRF-PLL tracks the bus-voltage phase; its output is the estimated
  bus frequency omega_est.
* A washout filter over ln|v| estimates the radial frequency rho
  (rate of change of the voltage magnitude) without an explicit
  differentiator.
* The frequency-loop input signal is either omega_est or the
  compensated signal omega_est - K * rho_est.
* Outer loops: active power droop + washout channel on the frequency
  signal; reactive power PI on the voltage error.
* Inner loop: first-order dq current tracking with a circular
  current limiter (active-current priority); the current is injected
  into the network rotated by the PLL angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .machines import InitializationError


@dataclass(frozen=True)
class PLLParams:
    kp: float = 20.0
    ki: float = 150.0


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
    pll: PLLParams = field(default_factory=PLLParams)
    freq_loop: bool = True  # False: droop/washout channels disconnected
    v_ref: float = 1.0      # filled in by initialize_cig

    def __post_init__(self) -> None:
        if self.i_max <= 0.0 or self.t_w <= 0.0 or self.t_f <= 0.0:
            raise ValueError("i_max, T_w, T_f must be positive")


STATE_NAMES = ("theta_pll", "xi_pll", "z_rho", "w_wash", "x_v", "i_d", "i_q")
N_STATES = len(STATE_NAMES)
# the converter's outputs in `SystemModel.residual`, in the order they are recorded
OUTPUT_NAMES = ("p_cig", "q_cig", "omega_est", "rho_est", "omega_tilde")


@dataclass
class CIGState:
    theta_pll: float
    xi_pll: float
    z_rho: float   # rho-estimator filter state (over ln v)
    w_wash: float  # washout channel state (over the frequency signal)
    x_v: float     # voltage PI integrator
    i_d: float     # converter currents in the PLL frame
    i_q: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in STATE_NAMES])


# ---------------------------------------------------------------------------
# Component operations, on floats: states and the bus voltage components
# (vd, vq) with its magnitude vmag, in the frame the network uses
# ---------------------------------------------------------------------------

def pll_error(theta: float, vd: float, vq: float, vmag: float) -> float:
    """Normalized q-axis voltage in the PLL frame (zero when locked)."""
    if vmag == 0.0:
        raise ValueError("PLL input voltage is zero")
    return (-vd * math.sin(theta) + vq * math.cos(theta)) / vmag


def pll_derivatives(theta: float, xi: float, vd: float, vq: float, vmag: float,
                    p: PLLParams, omega_base: float, omega_frame: float = 1.0):
    """PLL state derivatives and outputs.

    theta is the tracked phase (rad, network frame) and xi the PI
    integrator (pu speed deviation).  omega_frame is the rotation speed
    (pu) of the frame in which the voltage is expressed; the tracked
    angle advances at omega_est relative to it.
    Returns ((d_theta, d_xi), omega_est).
    """
    err = pll_error(theta, vd, vq, vmag)
    omega_est = 1.0 + p.kp * err + xi
    d_theta = omega_base * (omega_est - omega_frame)
    d_xi = p.ki * err
    return (d_theta, d_xi), omega_est


def estimate_rho(z: float, t_f: float, v_mag: float):
    """Washout s/(1+sT_f) applied to ln(v), with z the low-passed ln(v);
    returns (dz, rho_est in 1/s)."""
    if v_mag <= 0.0:
        raise ValueError("rho estimator needs a positive voltage magnitude")
    dz = (math.log(v_mag) - z) / t_f
    return dz, dz


def modified_signal(omega_est: float, rho_est: float, K: float) -> float:
    """Compensated frequency signal omega_est - K * rho_est (consistent units)."""
    return omega_est - K * rho_est


def limit_currents(id_ref: float, iq_ref: float, i_max: float) -> tuple[float, float]:
    """Circular current limit with active(d)-current priority."""
    if math.hypot(id_ref, iq_ref) <= i_max:
        return id_ref, iq_ref
    i_d = max(-i_max, min(i_max, id_ref))
    room = math.sqrt(max(i_max * i_max - i_d * i_d, 0.0))
    i_q = max(-room, min(room, iq_ref))
    return i_d, i_q


def outer_loops(w_wash: float, x_v: float, vmag: float, params: CIGControlParams,
                signal: float) -> tuple[float, float]:
    """Current references from the frequency and voltage outer loops.

    w_wash and x_v are the washout and voltage-PI states.  signal is the
    frequency-loop input in pu (omega_est or the compensated
    omega-tilde).  With the frequency loop disconnected the active
    reference is just the power set point.
    """
    p_cmd = params.p_ref
    if params.freq_loop:
        p_cmd -= (signal - 1.0) / params.r_droop
        p_cmd -= params.k_w * (signal - w_wash) / params.t_w
    q_cmd = params.kp_v * (params.v_ref - vmag) + x_v
    id_ref = p_cmd / vmag
    iq_ref = -q_cmd / vmag
    return limit_currents(id_ref, iq_ref, params.i_max)


def inner_loop_and_injection(i_d: float, i_q: float, theta: float,
                             refs: tuple[float, float], params: CIGControlParams):
    """First-order current tracking; returns ((d_id, d_iq), injection).

    The injection is the converter current (i_d, i_q) rotated into the
    network frame by the PLL angle theta.
    """
    id_ref, iq_ref = refs
    d_id = (id_ref - i_d) / params.t_i
    d_iq = (iq_ref - i_q) / params.t_i
    inj = complex(i_d, i_q) * cmath.exp(1j * theta)
    return (d_id, d_iq), inj


# ---------------------------------------------------------------------------
# Assembled device
# ---------------------------------------------------------------------------

def cig_derivatives(x, vd: float, vq: float, params: CIGControlParams,
                    omega_base: float, omega_frame: float = 1.0):
    """Derivatives of the 7 states, injection, and measured signals.

    x holds the states as floats in STATE_NAMES order; vd + j vq is the
    bus voltage in the frame rotating at omega_frame.  Returns (xdot,
    injection, (omega_est, rho_est, signal)): xdot a list in STATE_NAMES
    order, rho_est in pu and signal the frequency-loop input.
    """
    theta, xi, z, w_wash, x_v, i_d, i_q = x
    vmag = math.hypot(vd, vq)
    (d_theta, d_xi), omega_est = pll_derivatives(theta, xi, vd, vq, vmag, params.pll,
                                                 omega_base, omega_frame)
    d_z, rho_per_s = estimate_rho(z, params.t_f, vmag)
    rho_pu = rho_per_s / omega_base
    signal = modified_signal(omega_est, rho_pu, params.K)

    d_w = (signal - w_wash) / params.t_w
    d_xv = params.ki_v * (params.v_ref - vmag)

    refs = outer_loops(w_wash, x_v, vmag, params, signal)
    (d_id, d_iq), inj = inner_loop_and_injection(i_d, i_q, theta, refs, params)

    xdot = [d_theta, d_xi, d_z, d_w, d_xv, d_id, d_iq]
    return xdot, inj, (omega_est, rho_pu, signal)


def kernel_reads(params: CIGControlParams) -> dict[str, tuple[str, ...]]:
    """What each row of `cig_derivatives` reads under params: every
    derivative (by state name) and the injection ("current") against the
    states by name, the bus voltage "v" and "omega_frame".

    `SystemModel.jacobian_structure` builds the Jacobian's pattern from it,
    so it is structural: no entry is dropped for a gain that is zero.  The
    frequency-loop reads follow `freq_loop` as `outer_loops` does, and the
    current limiter reads both references in both current rows.
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
                   params: CIGControlParams) -> tuple[CIGState, CIGControlParams]:
    """Equilibrium CIG state for the scheduled (p_ref, q_ref) dispatch.

    Returns (state, params): a copy of params with the voltage reference
    filled in, so that the voltage PI is balanced.  Raises
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
    state = CIGState(theta_pll=cmath.phase(v_terminal), xi_pll=0.0,
                     z_rho=math.log(vmag), w_wash=1.0, x_v=params.q_ref,
                     i_d=i_d, i_q=i_q)
    return state, replace(params, v_ref=vmag)
