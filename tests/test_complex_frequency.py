"""Tests for the complex-frequency pair (rho, omega) of dq signals."""

import math

import numpy as np
import pytest

from gridfreq.complex_frequency import (
    AnalyticExampleParams,
    ParkVector,
    ZeroMagnitudeError,
    analytic_example,
    eta_of,
    omega_of,
    rho_of,
    rotate_frame,
)


def test_park_vector_polar_form():
    v = ParkVector(3.0, 4.0)
    assert v.mag == pytest.approx(5.0)
    assert v.angle == pytest.approx(math.atan2(4.0, 3.0))
    assert v.as_complex() == 3.0 + 4.0j


def test_constant_phasor_has_zero_complex_frequency():
    v = ParkVector(1.0, 0.2)
    vdot = ParkVector(0.0, 0.0)
    assert rho_of(v, vdot) == 0.0
    assert omega_of(v, vdot, omega_ref=1.0) == 1.0


def test_pure_rotation_gives_omega_only():
    # v(t) = e^{j w t}: vdot = j w v, so rho = 0 and omega = w + frame speed
    w = 2.5
    v = ParkVector(math.cos(0.3), math.sin(0.3))
    vdot = ParkVector(-w * v.q, w * v.d)
    assert rho_of(v, vdot) == pytest.approx(0.0, abs=1e-15)
    assert omega_of(v, vdot, omega_ref=1.0) == pytest.approx(1.0 + w)


def test_pure_magnitude_change_gives_rho_only():
    # v(t) = e^{s t} v0: vdot = s v, so rho = s and omega = frame speed
    s = -0.7
    v = ParkVector(0.8, -0.1)
    vdot = ParkVector(s * v.d, s * v.q)
    assert rho_of(v, vdot) == pytest.approx(s)
    assert omega_of(v, vdot, omega_ref=1.0) == pytest.approx(1.0)


def test_eta_reconstructs_derivative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, q, dd, dq = rng.normal(size=4)
        v = ParkVector(d, q)
        if v.mag < 1e-3:
            continue
        vdot = ParkVector(dd, dq)
        s = eta_of(v, vdot, omega_ref=0.0)
        rec = complex(s.rho, s.omega) * v.as_complex()
        assert rec.real == pytest.approx(vdot.d, abs=1e-12)
        assert rec.imag == pytest.approx(vdot.q, abs=1e-12)


def test_array_vdot_equals_scalar_calls_bitwise():
    """v is one vector; vdot's components may be equal-shape arrays, one
    entry per direction, as `smallsignal.linearize` passes them."""
    rng = np.random.default_rng(11)
    v = ParkVector(*rng.normal(size=2))
    dd, dq = rng.normal(size=(2, 40)) * np.logspace(-8, 3, 40)
    dd[:2] = [0.0, -0.0]
    vdot = ParkVector(dd, dq)
    rho, omega, eta = rho_of(v, vdot), omega_of(v, vdot, 1.0), eta_of(v, vdot, 1.0)
    for j in range(dd.size):
        one = ParkVector(float(dd[j]), float(dq[j]))
        assert rho[j].tobytes() == np.float64(rho_of(v, one)).tobytes()
        assert omega[j].tobytes() == np.float64(omega_of(v, one, 1.0)).tobytes()
        s = eta_of(v, one, 1.0)
        assert eta.rho[j].tobytes() == np.float64(s.rho).tobytes()
        assert eta.omega[j].tobytes() == np.float64(s.omega).tobytes()


def test_zero_magnitude_raises():
    z = ParkVector(0.0, 0.0)
    with pytest.raises(ZeroMagnitudeError):
        rho_of(z, ParkVector(1.0, 0.0))
    with pytest.raises(ZeroMagnitudeError):
        omega_of(z, ParkVector(1.0, 0.0), 0.0)


def test_rotate_frame_preserves_magnitude_and_shifts_angle():
    v = ParkVector(0.9, -0.4)
    w = rotate_frame(v, 0.6)
    assert w.mag == pytest.approx(v.mag)
    assert (v.angle - w.angle) % (2 * math.pi) == pytest.approx(0.6)


def test_frame_invariance_randomized():
    """omega and rho agree when computed in a frame rotating at extra
    speed dw: the rotated signal has vdot' = (vdot - j dw v) e^{-j th}."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d, q, dd, dq = rng.normal(size=4)
        v = ParkVector(d, q)
        if v.mag < 1e-6:
            continue
        vdot = ParkVector(dd, dq)
        w_ref = rng.uniform(-5.0, 5.0)
        dw = rng.uniform(-5.0, 5.0)
        th = rng.uniform(-math.pi, math.pi)

        vr = rotate_frame(v, th)
        shift = (vdot.as_complex() - 1j * dw * v.as_complex()) * np.exp(-1j * th)
        vdot_r = ParkVector(shift.real, shift.imag)

        assert rho_of(vr, vdot_r) == pytest.approx(rho_of(v, vdot), abs=1e-10)
        assert omega_of(vr, vdot_r, w_ref + dw) == pytest.approx(
            omega_of(v, vdot, w_ref), abs=1e-10)


# ---------------------------------------------------------------------------
# Analytic damped-oscillation example
# ---------------------------------------------------------------------------

def test_analytic_example_derivative_is_consistent():
    p = AnalyticExampleParams(V=1.0, k=0.1, alpha=0.2, beta=2.0)
    h = 1e-7
    for t in (0.0, 0.4, 1.7, 9.3):
        s = analytic_example(p, t)
        sp = analytic_example(p, t + h)
        sm = analytic_example(p, t - h)
        fd_d = (sp.v.d - sm.v.d) / (2 * h)
        fd_q = (sp.v.q - sm.v.q) / (2 * h)
        assert s.vdot.d == pytest.approx(fd_d, abs=1e-6)
        assert s.vdot.q == pytest.approx(fd_q, abs=1e-6)


def test_analytic_example_approximation_error_is_quadratic():
    """The first-order approximation error scales like (k/V)^2, so halving
    k should shrink the worst error roughly fourfold."""
    t = np.linspace(0.0, 20.0, 2001)

    def worst(k):
        p = AnalyticExampleParams(V=1.0, k=k, alpha=0.2, beta=2.0)
        errs = []
        for ti in t:
            s = analytic_example(p, ti)
            errs.append(max(abs(s.exact.rho - s.approx.rho),
                            abs(s.exact.omega - s.approx.omega)))
        return max(errs)

    ratio = worst(0.1) / worst(0.05)
    assert 3.5 <= ratio <= 4.5


def test_analytic_example_rejects_vanishing_magnitude():
    with pytest.raises(ValueError):
        AnalyticExampleParams(V=1.0, k=1.0, alpha=0.1, beta=1.0)
    with pytest.raises(ValueError):
        AnalyticExampleParams(V=-1.0, k=0.1, alpha=0.1, beta=1.0)
