"""Complex-frequency pair (rho, omega) of a dq voltage signal.

The bus voltage Park vector ``v = v_d + j v_q`` (components in a frame
rotating at ``omega_ref``) defines two frame-invariant quantities:

* ``omega`` -- instantaneous frequency, the rotation rate of the phasor,
* ``rho``   -- radial frequency, the rate of change of ln|v| (zero in
  steady state, an "instantaneous bandwidth" of the signal).

Together they form the complex frequency ``eta = rho + j*omega`` which
satisfies ``dv/dt = eta * v`` in the measuring frame.

All functions here are pure and unit-agnostic: angles in radians, speeds
in rad/s (or per-unit, as long as caller is consistent).

In ``rho_of``, ``omega_of`` and ``eta_of``, ``v`` is one vector, but the
components of ``vdot`` may be equal-shape arrays (one entry per state, as
`smallsignal.linearize` passes them); each entry equals the scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ZeroMagnitudeError(ValueError):
    """rho/omega are undefined for a zero-magnitude Park vector."""


@dataclass(frozen=True)
class ParkVector:
    """dq components of a voltage phasor in some rotating frame."""

    d: float
    q: float

    @property
    def mag(self) -> float:
        return math.hypot(self.d, self.q)

    @property
    def angle(self) -> float:
        return math.atan2(self.q, self.d)

    def as_complex(self) -> complex:
        return complex(self.d, self.q)


@dataclass(frozen=True)
class ComplexFrequencySample:
    """One (rho, omega) measurement; omega includes the frame speed."""

    rho: float
    omega: float


@dataclass(frozen=True)
class AnalyticExampleParams:
    """Parameters of the damped-oscillation voltage transient

        v_d = V - k exp(-alpha t) cos(beta t)
        v_q =     k exp(-alpha t) sin(beta t)

    which mimics a typical post-disturbance frequency swing when k << V.
    """

    V: float
    k: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.V <= 0.0:
            raise ValueError(f"V must be positive, got {self.V}")
        if self.V - abs(self.k) <= 0.0:
            raise ValueError("need V - |k| > 0 so the magnitude never vanishes")


def _check_mag(v: ParkVector) -> float:
    v2 = v.d * v.d + v.q * v.q
    if v2 == 0.0:
        raise ZeroMagnitudeError("rho/omega undefined at |v| = 0")
    return v2


def omega_of(v: ParkVector, vdot: ParkVector, omega_ref: float) -> float:
    """Instantaneous frequency (v_d*vq' - v_q*vd')/|v|^2 + omega_ref."""
    v2 = _check_mag(v)
    return (v.d * vdot.q - v.q * vdot.d) / v2 + omega_ref


def rho_of(v: ParkVector, vdot: ParkVector) -> float:
    """Radial frequency (v_d*vd' + v_q*vq')/|v|^2, i.e. d/dt ln|v|."""
    v2 = _check_mag(v)
    return (v.d * vdot.d + v.q * vdot.q) / v2


def eta_of(v: ParkVector, vdot: ParkVector, omega_ref: float) -> ComplexFrequencySample:
    """Complex frequency sample; reconstructs vdot = (rho + j(omega-omega_ref))*v."""
    return ComplexFrequencySample(rho=rho_of(v, vdot), omega=omega_of(v, vdot, omega_ref))


def rotate_frame(v: ParkVector, delta_theta: float) -> ParkVector:
    """Re-express v in a frame advanced by delta_theta (multiply by e^{-j dtheta})."""
    c = math.cos(delta_theta)
    s = math.sin(delta_theta)
    return ParkVector(d=c * v.d + s * v.q, q=-s * v.d + c * v.q)


@dataclass(frozen=True)
class AnalyticExampleSample:
    v: ParkVector
    vdot: ParkVector
    exact: ComplexFrequencySample
    approx: ComplexFrequencySample


def analytic_example(p: AnalyticExampleParams, t: float) -> AnalyticExampleSample:
    """Evaluate the damped-oscillation transient at time t.

    Returns the signal, its closed-form derivative, the exact (rho,
    omega - omega_COI) pair, and the first-order small-(k/V)
    approximation

        omega - omega_COI ~ (k e^{-alpha t}/V) [beta cos(beta t) - alpha sin(beta t)]
        rho               ~ (k e^{-alpha t}/V) [beta sin(beta t) + alpha cos(beta t)]

    The exact pair uses omega_ref = 0 so the omega slot holds the local
    deviation from the COI frame speed.
    """
    V, k, a, b = p.V, p.k, p.alpha, p.beta
    e = k * math.exp(-a * t)
    cb = math.cos(b * t)
    sb = math.sin(b * t)
    v = ParkVector(d=V - e * cb, q=e * sb)
    if v.mag == 0.0:
        raise ZeroMagnitudeError("degenerate magnitude in analytic example")
    vdot = ParkVector(d=e * (a * cb + b * sb), q=e * (b * cb - a * sb))
    exact = ComplexFrequencySample(rho=rho_of(v, vdot), omega=omega_of(v, vdot, 0.0))
    approx = ComplexFrequencySample(
        rho=(e / V) * (b * sb + a * cb),
        omega=(e / V) * (b * cb - a * sb),
    )
    return AnalyticExampleSample(v=v, vdot=vdot, exact=exact, approx=approx)
