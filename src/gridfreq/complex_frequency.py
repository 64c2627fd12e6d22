"""Complex frequency eta = vdot / v = rho + j*omega of a voltage phasor.

A phasor is a `complex` v = v_d + j v_q in a frame rotating at omega_ref.
omega, the rotation rate of v, is its instantaneous frequency, and rho =
d/dt ln|v| (zero in steady state) its radial frequency; both are frame
invariant.  Speeds are in rad/s or per unit, as the caller chooses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass


class ZeroMagnitudeError(ValueError):
    """rho/omega are undefined for a zero-magnitude phasor."""


def eta_of(v: complex, vdot, omega_ref: float = 0.0):
    """rho + j*omega of the phasor v with derivative vdot, omega including
    the frame speed omega_ref.  vdot may be a numpy complex array (one entry
    per state, as `smallsignal.linearize` passes it); each entry equals the
    scalar call bitwise."""
    d, q = v.real, v.imag
    v2 = d * d + q * q
    if v2 == 0.0:
        raise ZeroMagnitudeError("rho/omega undefined at |v| = 0")
    # in floats: numpy's fused complex product rounds an entry unlike the scalar call
    rho = (d * vdot.real + q * vdot.imag) / v2
    omega = (d * vdot.imag - q * vdot.real) / v2 + omega_ref
    return rho + 1j * omega


@dataclass(frozen=True)
class AnalyticExampleParams:
    """Parameters of the damped-oscillation voltage transient

        v_d = V - k exp(-alpha t) cos(beta t)
        v_q =     k exp(-alpha t) sin(beta t)

    which mimics a typical post-disturbance frequency swing when k << V.
    Every field is finite, alpha >= 0 and V - |k| > 0, so for t >= 0 the
    magnitude |v| >= V - |k| never vanishes.
    """

    V: float
    k: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError(f"every parameter must be finite, got {self}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.V - abs(self.k) <= 0.0:
            raise ValueError("need V - |k| > 0 so the magnitude never vanishes")


def analytic_example(p: AnalyticExampleParams,
                     t: float) -> tuple[complex, complex, complex, complex]:
    """The damped-oscillation transient at time t: (v, vdot, exact, approx).

    With s = alpha + j beta and e = k exp(-s t), the signal is v = V - e
    (the v_d, v_q of `AnalyticExampleParams`) and its closed-form
    derivative vdot = s e.  exact = eta_of(v, vdot) is the complex
    frequency with omega_ref = 0, so its imaginary part holds the local
    deviation omega - omega_COI from the COI frame speed.  approx =
    vdot / V is its first-order small-(k/V) approximation

        omega - omega_COI ~ (k e^{-alpha t}/V) [beta cos(beta t) - alpha sin(beta t)]
        rho               ~ (k e^{-alpha t}/V) [beta sin(beta t) + alpha cos(beta t)]
    """
    s = complex(p.alpha, p.beta)
    e = p.k * cmath.exp(-s * t)
    v = p.V - e
    vdot = s * e
    return v, vdot, eta_of(v, vdot), vdot / p.V
