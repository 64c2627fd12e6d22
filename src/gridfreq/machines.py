"""Two-axis synchronous machine with IEEE Type-I AVR and droop governor.

Machine dq convention (generator sign): a machine-frame phasor f_d + j f_q
maps to the network frame through e^{j(delta - pi/2)}.  Speeds in per-unit
on the system frequency base; time constants in seconds; the swing and
damping terms are referenced to the centre-of-inertia speed, so the COI
mode itself is not damped by D.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np


class InitializationError(RuntimeError):
    """Dispatch infeasible for the machine limits at initialization."""


@dataclass(frozen=True)
class SynMachineParams:
    H: float            # inertia constant, s
    D: float            # damping, pu torque / pu speed
    ra: float           # armature resistance, pu
    xd: float
    xq: float
    xd1: float          # transient reactances, pu
    xq1: float
    td01: float         # open-circuit transient time constants, s
    tq01: float
    s_rated: float = 100.0  # MVA, COI weight only; params already on system base

    def __post_init__(self) -> None:
        if self.H <= 0.0 or self.td01 <= 0.0 or self.tq01 <= 0.0:
            raise ValueError("H, Td0', Tq0' must be positive")
        if not (self.xd >= self.xd1 > 0.0 and self.xq >= self.xq1 > 0.0):
            raise ValueError("need xd >= xd' > 0 and xq >= xq' > 0")


@dataclass(frozen=True)
class AVRParams:
    ka: float = 20.0
    ta: float = 0.2
    ke: float = 1.0
    te: float = 0.314
    kf: float = 0.063
    tf: float = 0.35
    vr_min: float = -5.0
    vr_max: float = 5.0
    v_ref: float = 1.0  # filled in by initialize_sm


@dataclass(frozen=True)
class GovParams:
    droop: float = 0.05  # pu speed / pu power
    t_sv: float = 0.1    # servo time constant, s
    t_ch: float = 0.5    # turbine (reheat) time constant, s
    p_min: float = 0.0
    p_max: float = 2.5
    p_ref: float = 0.0   # filled in by initialize_sm

    def __post_init__(self) -> None:
        if self.droop <= 0.0:
            raise ValueError("droop must be positive")
        if self.p_min >= self.p_max:
            raise ValueError("p_min must be below p_max")


# rotor angle (rad, network frame), speed (pu), transient EMFs eq' and ed'
# (pu), field voltage, AVR rate feedback and regulator output, governor
# valve position and mechanical power (pu)
STATE_NAMES = ("delta", "omega", "eq1", "ed1", "efd", "rf", "vr", "psv", "pm")
N_STATES = len(STATE_NAMES)
OUTPUT_NAMES = ()   # `sm_kernel` returns no outputs

# What each row of `sm_kernel` reads: every derivative (by state name) and
# the stator current ("current") against the states by name, the bus
# voltage "v" and the frame speed "omega_frame" (omega_coi).  `SystemModel`
# builds the Jacobian's pattern from it, so it is structural: no entry is
# dropped for a parameter that is zero, and a row held at its limit reads a subset.
KERNEL_READS = {
    "delta": ("omega", "omega_frame"),
    "omega": ("delta", "omega", "eq1", "ed1", "pm", "v", "omega_frame"),
    "eq1": ("delta", "eq1", "ed1", "efd", "v"),
    "ed1": ("delta", "eq1", "ed1", "v"),
    "efd": ("efd", "vr"),
    "rf": ("efd", "rf"),
    "vr": ("efd", "rf", "vr", "v"),
    "psv": ("omega", "psv"),
    "pm": ("psv", "pm"),
    "current": ("delta", "eq1", "ed1", "v"),
}


def sm_kernel_params(p: SynMachineParams, avr: AVRParams, gov: GovParams) -> tuple:
    """The constants `sm_kernel` reads, set points included, as one flat
    tuple of Python floats.

    `SystemModel` computes it once, when it is built, from the `avr` and
    `gov` that `initialize_sm` returned.  It is the one place where the
    machine's constants are formed, so records that hold numpy scalars
    are converted here: numpy-scalar arithmetic in every kernel call is
    slower than float arithmetic, with the same results.
    """
    return tuple(map(float, (
        2.0 * p.H, p.D, p.ra, p.xd1, p.xq1, p.ra * p.ra + p.xd1 * p.xq1,
        p.xd - p.xd1, p.xq - p.xq1, p.td01, p.tq01,
        avr.ka, avr.ta, avr.ke, avr.te, avr.kf / avr.tf, avr.ka * avr.kf / avr.tf,
        avr.tf, avr.vr_min, avr.vr_max, avr.v_ref,
        gov.droop, gov.t_sv, gov.t_ch, gov.p_min, gov.p_max, gov.p_ref)))


def sm_kernel(x, v: complex, prm: tuple, omega_coi: float,
              omega_base: float) -> tuple[list[float], complex, tuple]:
    """Time derivatives of one machine's 9 states and its stator current.

    x holds the states as floats in STATE_NAMES order, v is the bus
    voltage in the network frame and prm is `sm_kernel_params(...)`.
    Returns (xdot in STATE_NAMES order, network-frame current injection,
    outputs): the return shape of `cig.cig_derivatives`, with no outputs.
    The regulator output vr and the valve position psv are held at their
    limits (anti-windup) while the derivative points outwards.
    """
    delta, omega, eq1, ed1, efd, rf, vr, psv, pm = x
    (h2, d, ra, xd1, xq1, det, xd_xd1, xq_xq1, td01, tq01,
     ka, ta, ke, te, kf_tf, ka_kf_tf, tf, vr_min, vr_max, v_ref,
     droop, t_sv, t_ch, p_min, p_max, p_ref) = prm

    # stator algebraic equations on the machine dq axes: the network frame
    # maps to them through e^{-j(delta - pi/2)} = sin(delta) + j cos(delta),
    # and the current maps back through its conjugate
    s, c = math.sin(delta), math.cos(delta)
    vd = v.real * s - v.imag * c
    vq = v.real * c + v.imag * s
    ed = ed1 - vd
    eq = eq1 - vq
    i_d = (ra * ed + xq1 * eq) / det
    i_q = (-xd1 * ed + ra * eq) / det
    pe = ed1 * i_d + eq1 * i_q + (xq1 - xd1) * i_d * i_q
    slip = omega - omega_coi

    d_vr = (-vr + ka * rf - ka_kf_tf * efd + ka * (v_ref - abs(v))) / ta
    if (vr >= vr_max and d_vr > 0.0) or (vr <= vr_min and d_vr < 0.0):
        d_vr = 0.0
    d_psv = (-psv + p_ref + (1.0 - omega) / droop) / t_sv
    if (psv >= p_max and d_psv > 0.0) or (psv <= p_min and d_psv < 0.0):
        d_psv = 0.0

    xdot = [omega_base * slip,
            (pm - pe - d * slip) / h2,
            (-eq1 - xd_xd1 * i_d + efd) / td01,
            (-ed1 + xq_xq1 * i_q) / tq01,
            (vr - ke * efd) / te,
            (-rf + kf_tf * efd) / tf,
            d_vr,
            d_psv,
            (psv - pm) / t_ch]
    return xdot, complex(i_d * s + i_q * c, i_q * s - i_d * c), ()


def coi_weights(params: list[SynMachineParams]) -> np.ndarray:
    """Centre-of-inertia weights H_i S_i / sum(H_j S_j)."""
    if not params:
        raise ValueError("COI of an empty machine set")
    w = np.array([p.H * p.s_rated for p in params])
    return w / w.sum()


def initialize_sm(v_terminal: complex, p_gen: float, q_gen: float,
                  p: SynMachineParams, avr: AVRParams,
                  gov: GovParams) -> tuple[np.ndarray, AVRParams, GovParams]:
    """Equilibrium machine state for a solved dispatch at terminal voltage.

    Returns (state, avr, gov): the state as a float array in STATE_NAMES
    order, and copies of the given avr and gov with the AVR voltage
    reference and the governor power reference filled in as Python floats,
    so that every derivative of the state is zero under them.
    """
    i_net = (complex(p_gen, q_gen) / v_terminal).conjugate()
    delta = cmath.phase(v_terminal + complex(p.ra, p.xq) * i_net)
    rot = cmath.exp(-1j * (delta - math.pi / 2.0))
    vm = v_terminal * rot
    im = i_net * rot
    vd, vq = vm.real, vm.imag
    i_d, i_q = im.real, im.imag

    eq1 = vq + p.ra * i_q + p.xd1 * i_d
    ed1 = vd + p.ra * i_d - p.xq1 * i_q
    efd = eq1 + (p.xd - p.xd1) * i_d
    vr = avr.ke * efd
    if not (avr.vr_min < vr < avr.vr_max):
        raise InitializationError(f"AVR output {vr:.3f} outside limits at initialization")
    rf = (avr.kf / avr.tf) * efd

    pe = ed1 * i_d + eq1 * i_q + (p.xq1 - p.xd1) * i_d * i_q  # air-gap power
    if not (gov.p_min <= pe <= gov.p_max):
        raise InitializationError(f"mechanical power {pe:.3f} outside governor limits")
    state = np.array([delta, 1.0, eq1, ed1, efd, rf, vr, pe, pe])
    # the set points as Python floats: v_terminal and the dispatch may be numpy scalars
    return (state, replace(avr, v_ref=float(abs(v_terminal) + vr / avr.ka)),
            replace(gov, p_ref=float(pe)))
