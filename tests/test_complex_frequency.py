"""Tests for the complex frequency eta = rho + j*omega of dq phasors."""

import cmath
import math

import numpy as np
import pytest

from gridfreq.complex_frequency import (
    AnalyticExampleParams,
    ZeroMagnitudeError,
    analytic_example,
    eta_of,
)


def test_constant_phasor_has_zero_complex_frequency():
    # in a frame at speed 1.0, a constant phasor turns at the frame speed
    eta = eta_of(1.0 + 0.2j, 0j)
    assert eta.real == 0.0
    assert eta.imag + 1.0 == 1.0


def test_pure_rotation_gives_omega_only():
    # v(t) = e^{j w t}: vdot = j w v, so rho = 0 and omega = w + frame speed
    w = 2.5
    v = cmath.exp(0.3j)
    eta = eta_of(v, 1j * w * v)
    assert eta.real == pytest.approx(0.0, abs=1e-15)
    assert eta.imag + 1.0 == pytest.approx(1.0 + w)


def test_pure_magnitude_change_gives_rho_only():
    # v(t) = e^{s t} v0: vdot = s v, so rho = s and omega = frame speed
    s = -0.7
    v = 0.8 - 0.1j
    eta = eta_of(v, s * v)
    assert eta.real == pytest.approx(s)
    assert eta.imag + 1.0 == pytest.approx(1.0)


def test_eta_reconstructs_derivative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, q, dd, dq = rng.normal(size=4)
        v = complex(d, q)
        if abs(v) < 1e-3:
            continue
        vdot = complex(dd, dq)
        rec = eta_of(v, vdot) * v
        assert rec.real == pytest.approx(vdot.real, abs=1e-12)
        assert rec.imag == pytest.approx(vdot.imag, abs=1e-12)


def test_array_vdot_equals_scalar_calls_bitwise():
    """v is one phasor; vdot may be a complex array, one entry per
    direction, as `smallsignal.linearize` passes it.  Each entry equals
    the call on a Python complex, whose product is never fused."""
    rng = np.random.default_rng(11)
    v = complex(*rng.normal(size=2))
    dd, dq = rng.normal(size=(2, 40)) * np.logspace(-8, 3, 40)
    dd[:2] = [0.0, -0.0]
    eta = eta_of(v, dd + 1j * dq)
    for j in range(dd.size):
        one = eta_of(v, complex(float(dd[j]), float(dq[j])))
        assert eta[j].tobytes() == np.complex128(one).tobytes()


def test_zero_magnitude_raises():
    with pytest.raises(ZeroMagnitudeError):
        eta_of(0j, 1.0 + 0j)


def test_frame_invariance_randomized():
    """rho and omega, the frame speed added, agree when computed in a frame
    rotating at extra speed dw and advanced by th: the rotated signal is
    v e^{-j th}, with vdot' = (vdot - j dw v) e^{-j th}."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d, q, dd, dq = rng.normal(size=4)
        v = complex(d, q)
        if abs(v) < 1e-6:
            continue
        vdot = complex(dd, dq)
        w_ref = rng.uniform(-5.0, 5.0)
        dw = rng.uniform(-5.0, 5.0)
        th = rng.uniform(-math.pi, math.pi)

        rot = cmath.exp(-1j * th)
        eta_r = eta_of(v * rot, (vdot - 1j * dw * v) * rot) + 1j * (w_ref + dw)
        eta = eta_of(v, vdot) + 1j * w_ref
        assert eta_r.real == pytest.approx(eta.real, abs=1e-10)
        assert eta_r.imag == pytest.approx(eta.imag, abs=1e-10)


# ---------------------------------------------------------------------------
# Analytic damped-oscillation example
# ---------------------------------------------------------------------------

def test_analytic_example_matches_its_dq_formulas():
    """The complex transient is the v_d, v_q of the docstring, and its
    approximation the first-order rho, omega written there."""
    V, k, a, b = 1.0, 0.1, 0.2, 2.0
    p = AnalyticExampleParams(V=V, k=k, alpha=a, beta=b)
    for t in (0.0, 0.4, 1.7, 9.3):
        v, _, _, approx = analytic_example(p, t)
        e = k * math.exp(-a * t)
        assert v.real == pytest.approx(V - e * math.cos(b * t), abs=1e-15)
        assert v.imag == pytest.approx(e * math.sin(b * t), abs=1e-15)
        assert approx.real == pytest.approx(
            (e / V) * (b * math.sin(b * t) + a * math.cos(b * t)), abs=1e-15)
        assert approx.imag == pytest.approx(
            (e / V) * (b * math.cos(b * t) - a * math.sin(b * t)), abs=1e-15)


def test_analytic_example_derivative_is_consistent():
    p = AnalyticExampleParams(V=1.0, k=0.1, alpha=0.2, beta=2.0)
    h = 1e-7
    for t in (0.0, 0.4, 1.7, 9.3):
        _, vdot, _, _ = analytic_example(p, t)
        fd = (analytic_example(p, t + h)[0] - analytic_example(p, t - h)[0]) / (2 * h)
        assert vdot.real == pytest.approx(fd.real, abs=1e-6)
        assert vdot.imag == pytest.approx(fd.imag, abs=1e-6)


def test_analytic_example_approximation_error_is_quadratic():
    """The first-order approximation error scales like (k/V)^2, so halving
    k should shrink the worst error roughly fourfold."""
    t = np.linspace(0.0, 20.0, 2001)

    def worst(k):
        p = AnalyticExampleParams(V=1.0, k=k, alpha=0.2, beta=2.0)
        errs = []
        for ti in t:
            _, _, exact, approx = analytic_example(p, ti)
            errs.append(max(abs(exact.real - approx.real),
                            abs(exact.imag - approx.imag)))
        return max(errs)

    ratio = worst(0.1) / worst(0.05)
    assert 3.5 <= ratio <= 4.5


def test_analytic_example_rejects_vanishing_magnitude():
    with pytest.raises(ValueError):
        AnalyticExampleParams(V=1.0, k=1.0, alpha=0.1, beta=1.0)
    with pytest.raises(ValueError):
        AnalyticExampleParams(V=-1.0, k=0.1, alpha=0.1, beta=1.0)
    # a growing exponential reaches |v| = 0 at t = ln 2
    with pytest.raises(ValueError):
        AnalyticExampleParams(V=1.0, k=0.5, alpha=-1.0, beta=0.0)
    with pytest.raises(ValueError):
        AnalyticExampleParams(V=math.nan, k=0.1, alpha=0.1, beta=1.0)
