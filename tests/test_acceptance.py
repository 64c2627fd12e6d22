"""Acceptance suite: one test per top-level criterion.

Each test emits a single "criterion N: PASS/FAIL" line (replayed in the
terminal summary by conftest) before asserting, so a red criterion still
reports its measured values.  Tolerances are pinned in-line; loose
quantitative targets come with the measured quantity in the message.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.signal import savgol_filter

from gridfreq.casefile import load_bundled_case
from gridfreq.cig import CIGControlParams, cig_derivatives
from gridfreq.complex_frequency import AnalyticExampleParams, analytic_example, eta_of
from gridfreq.dae import Event, TrapezoidalIntegrator, build_system, simulate
from gridfreq.network import LoadScale
from gridfreq.smallsignal import (
    eigensolve,
    identify_frequency_mode,
    k_sweep,
    linearize,
)

from conftest import fd_output_rows, record_criterion

OMEGA_B = 2.0 * math.pi * 60.0


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    record_criterion(line)


@pytest.fixture(scope="module")
def case():
    return load_bundled_case()


@pytest.fixture(scope="module")
def obs_system(case):
    """Equilibrium with the converter connected but its frequency loop
    open, as used for the observability analysis."""
    return build_system(case, "cig_omega_tilde", freq_loop=False)


@pytest.fixture(scope="module")
def freq_mode(obs_system):
    model, st = obs_system
    return identify_frequency_mode(eigensolve(linearize(model, st)))


def test_criterion_1_frame_invariance():
    """rho/omega identical in any frame rotating at constant speed."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    while n < 1000:
        d, q, dd, dq = rng.normal(size=4)
        v = complex(d, q)
        if abs(v) < 1e-6:
            continue
        n += 1
        vdot = complex(dd, dq)
        w_ref = rng.uniform(-5.0, 5.0)
        dw = rng.uniform(-5.0, 5.0)
        th = rng.uniform(-math.pi, math.pi)
        rot = cmath.exp(-1j * th)
        eta_r = eta_of(v * rot, (vdot - 1j * dw * v) * rot, w_ref + dw)
        eta = eta_of(v, vdot, w_ref)
        worst = max(worst, abs(eta_r.real - eta.real), abs(eta_r.imag - eta.imag))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    report(1, ok, f"max deviation {worst:.2e} over 1000 signals in {dt:.2f} s")
    assert worst < 1e-10
    assert dt < 1.0


def test_criterion_2_analytic_example_oracle():
    """First-order (rho, omega) approximation error shrinks quadratically
    in k/V: halving k from 0.1 to 0.05 shrinks the worst error 3.5-4.5x."""
    t0 = time.perf_counter()
    tt = np.linspace(0.0, 20.0, 2001)

    def worst(k):
        p = AnalyticExampleParams(V=1.0, k=k, alpha=0.2, beta=2.0)
        e = 0.0
        for t in tt:
            _, _, exact, approx = analytic_example(p, t)
            e = max(e, abs(exact.real - approx.real), abs(exact.imag - approx.imag))
        return e

    ratio = worst(0.1) / worst(0.05)
    dt = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and dt < 1.0
    report(2, ok, f"error ratio {ratio:.3f} (target [3.5, 4.5]) in {dt:.2f} s")
    assert 3.5 <= ratio <= 4.5
    assert dt < 1.0


def test_criterion_3_flat_run(case):
    """10 s event-free simulation of the initialized system drifts less
    than 1e-6 pu in every differential and algebraic state."""
    model, st0 = build_system(case, "cig_omega_tilde")
    t0 = time.perf_counter()
    integ = TrapezoidalIntegrator(model)
    st = st0.copy()
    drift = 0.0
    while st.t < 10.0 - 1e-9:
        st = integ.step(st, 0.02)
        drift = max(drift,
                    np.max(np.abs(st.x - st0.x)),
                    np.max(np.abs(st.y - st0.y)))
    dt = time.perf_counter() - t0
    ok = drift < 1e-6 and dt < 5.0
    report(3, ok, f"max state drift {drift:.2e} over 10 s in {dt:.2f} s wall")
    assert drift < 1e-6
    assert dt < 5.0


def test_criterion_4_frequency_control_mode(freq_mode):
    """Exactly one qualifying mode exists (identify_frequency_mode raises
    otherwise); its natural frequency is within +/-50 % of 0.09 Hz with a
    negative real part."""
    m = freq_mode
    f_n = m.natural_frequency_hz
    ok = 0.045 <= f_n <= 0.135 and m.eigenvalue.real < 0.0
    report(4, ok, f"mode {m.eigenvalue:.4f} 1/s, f_n = {f_n:.4f} Hz "
                  f"(target 0.09 Hz +/- 50 %)")
    assert 0.045 <= f_n <= 0.135
    assert m.eigenvalue.real < 0.0


def test_criterion_5_observability_table(obs_system, freq_mode):
    """Ordering go(omega_tilde at K=1) > go(omega) > go(rho); the
    max-normalized triple within +/-0.15 of (1.00, 0.87, 0.34); the
    sweep ratio at K = 0 exactly 1.0."""
    model, st = obs_system
    grid = np.arange(-0.5, 3.0 + 1e-9, 0.05)
    rep = k_sweep(model, st, freq_mode, grid)
    go_r = rep.go["rho"]
    go_w = rep.go["omega"]
    go_t = rep.go["omega_tilde_k1"]
    mx = max(go_r, go_w, go_t)
    norm = (go_t / mx, go_w / mx, go_r / mx)
    i0 = int(np.argmin(np.abs(rep.k_grid)))
    ordering = go_t > go_w > go_r
    in_band = (abs(norm[0] - 1.00) <= 0.15 and abs(norm[1] - 0.87) <= 0.15
               and abs(norm[2] - 0.34) <= 0.15)
    ok = ordering and in_band and rep.ratio[i0] == 1.0
    report(5, ok, f"normalized (omega_tilde, omega, rho) = "
                  f"({norm[0]:.3f}, {norm[1]:.3f}, {norm[2]:.3f}), "
                  f"targets (1.00, 0.87, 0.34) +/- 0.15; "
                  f"ratio(K=0) = {rep.ratio[i0]}")
    assert ordering
    assert rep.ratio[i0] == 1.0
    assert abs(norm[0] - 1.00) <= 0.15
    assert abs(norm[1] - 0.87) <= 0.15
    assert abs(norm[2] - 0.34) <= 0.15


def test_criterion_6_transient_improvement(case):
    """Load loss at bus 5 (t = 1 s): frequency peak ordering across the
    three controls; smaller converter power oscillation with the
    compensated signal; no voltage-control degradation."""
    t0 = time.perf_counter()
    ev = [Event(1.0, LoadScale(bus=5, factor=0.5))]
    runs = {}
    for ctl in ("no_cig", "cig_omega", "cig_omega_tilde"):
        model, st = build_system(case, ctl, k=1.2)
        runs[ctl] = simulate(model, st, ev, t_end=10.0, h=0.005,
                             output_dt=0.005)

    def peak(ctl):
        return float(np.max(np.abs(runs[ctl]["omega_coi"] - 1.0)))

    def p_osc(ctl):
        ts = runs[ctl]
        m = (ts.times >= 1.0) & (ts.times <= 6.0)
        p = ts["p_cig"][m]
        # the slow droop ramp is not oscillation; compare the residual
        # around a smooth (1 s window) trend
        osc = p - savgol_filter(p, 201, 3)
        return float(osc.max() - osc.min())

    peaks = {c: peak(c) for c in runs}
    osc_w, osc_t = p_osc("cig_omega"), p_osc("cig_omega_tilde")
    v_w = runs["cig_omega"]["v_bus7"][-1]
    v_t = runs["cig_omega_tilde"]["v_bus7"][-1]
    dt = time.perf_counter() - t0

    ok = (peaks["no_cig"] > peaks["cig_omega"] > peaks["cig_omega_tilde"]
          and osc_t < osc_w and abs(v_w - v_t) < 0.01 and dt < 30.0)
    report(6, ok, f"peaks no_cig/omega/omega_tilde = "
                  f"{peaks['no_cig']:.5f}/{peaks['cig_omega']:.5f}/"
                  f"{peaks['cig_omega_tilde']:.5f}; p_cig oscillation "
                  f"{osc_w:.4f} -> {osc_t:.4f}; |dv7| = {abs(v_w-v_t):.1e}; "
                  f"{dt:.1f} s wall")
    assert peaks["no_cig"] > peaks["cig_omega"] > peaks["cig_omega_tilde"]
    assert osc_t < osc_w
    assert abs(v_w - v_t) < 0.01
    assert dt < 30.0


def test_criterion_7_equilibrium_invariance(case):
    """rho = 0 at steady state, so the closed-loop equilibrium is the
    same for K in {0, 1.2, -0.03} within 1e-9."""
    zs = []
    for k in (0.0, 1.2, -0.03):
        _, st = build_system(case, "cig_omega_tilde", k=k)
        zs.append(np.concatenate([st.x, st.y]))
    worst = max(np.max(np.abs(zs[0] - z)) for z in zs[1:])
    ok = worst < 1e-9
    report(7, ok, f"max equilibrium difference across K = {worst:.2e}")
    assert worst < 1e-9


def test_criterion_8_numerical_cross_checks(case, freq_mode):
    """(a) trapezoidal order >= 1.8 by step halving; (b) frequency-mode
    eigenvalue matches a ringdown fit within 5 %; (c) output-row
    superposition within 1e-6."""
    # (a) measured convergence order on a perturbed trajectory
    model, st0 = build_system(case, "cig_omega_tilde")
    st0.x[1] += 1e-3
    st0 = TrapezoidalIntegrator(model).resolve(st0)

    def advance(h, n):
        integ = TrapezoidalIntegrator(model)
        s = st0.copy()
        for _ in range(n):
            s = integ.step(s, h)
        return s.x

    ref = advance(0.0025, 80)
    e1 = np.max(np.abs(advance(0.02, 10) - ref))
    e2 = np.max(np.abs(advance(0.01, 20) - ref))
    order = float(np.log2(e1 / e2))

    # (b) nonlinear ringdown of the observability system vs. eigenvalue, on a
    # model built as `obs_system` is (a run applies its event to a copy of
    # the model and leaves its linearizations valid, so either would do)
    model2, st2 = build_system(case, "cig_omega_tilde", freq_loop=False)
    lam = freq_mode.eigenvalue
    ev = [Event(1.0, LoadScale(bus=5, factor=0.995))]
    ts = simulate(model2, st2, ev, t_end=60.0, h=0.02, output_dt=0.02)
    m = (ts.times >= 6.0) & (ts.times <= 55.0)
    tt = ts.times[m] - 6.0
    sig = ts["omega_coi"][m]

    def damped(t, c0, a, sr, wd, ph, b, br):
        return c0 + a * np.exp(sr * t) * np.cos(wd * t + ph) + b * np.exp(-br * t)

    p, _ = curve_fit(damped, tt, sig,
                     p0=[sig[-1], 1e-4, -0.12, 0.55, 0.0, 1e-4, 0.3],
                     maxfev=20000)
    lam_fit = complex(p[2], abs(p[3]))
    eig_err = abs(lam_fit - lam) / abs(lam)

    # (c) superposition: the row of omega - K rho is c_omega - K c_rho, the
    # closed-form rows against nested central differences of that signal
    c_r, c_w = freq_mode.linear_model.rows
    gains = (1.0, 1.2, -0.03)
    ref = fd_output_rows(model2, st2, lambda rho, omega: [omega - k * rho for k in gains])
    sup_err = max(np.max(np.abs(c_w - k * c_r - ref[:, j])) for j, k in enumerate(gains))

    ok = order >= 1.8 and eig_err < 0.05 and sup_err < 1e-6
    report(8, ok, f"step order {order:.2f} (>= 1.8); ringdown-fit eigenvalue "
                  f"error {100*eig_err:.2f} % (< 5 %); superposition "
                  f"residual {sup_err:.1e} (< 1e-6)")
    assert order >= 1.8
    assert eig_err < 0.05
    assert sup_err < 1e-6


def test_criterion_9_estimator_fidelity():
    """(a) the PLL estimate settles within 2 % of a synthetic offset
    frequency; (b) the rho estimator's sinusoidal phase lag matches
    atan(w T_f) of its washout."""
    # the converter kernel's rows theta_pll, xi_pll and z_rho, with the
    # other states at rest
    # (a) PLL on a phasor rotating 0.3 Hz off nominal, forward-Euler at 50 us
    a, w, t_f = 0.01, 2 * math.pi, 0.02
    p = CIGControlParams(kp_pll=0.15, ki_pll=4.2, t_f=t_f)
    dw = 0.3 * 2 * math.pi / OMEGA_B
    th, xi = 0.0, 0.0
    h = 5e-5
    omega_est = 1.0
    for i in range(int(3.0 / h)):
        t = i * h
        v = complex(math.cos(dw * OMEGA_B * t), math.sin(dw * OMEGA_B * t))
        (d_th, d_xi, *_), _, (_, _, omega_est, _, _) = cig_derivatives(
            [th, xi, 0.0, 1.0, 0.0, 0.0, 0.0], v, p, 1.0, OMEGA_B)
        th += h * d_th
        xi += h * d_xi
    pll_err = abs(omega_est - (1.0 + dw)) / dw

    # (b) rho estimator (row z_rho, in 1/s) driven by ln v = a sin(w t)
    z = 0.0
    h = 1e-4
    tt, rho = [], []
    for i in range(int(5.0 / h)):
        t = i * h
        xdot, _, _ = cig_derivatives([0.0, 0.0, z, 1.0, 0.0, 0.0, 0.0],
                                     complex(math.exp(a * math.sin(w * t)), 0.0), p, 1.0, OMEGA_B)
        dz = r = xdot[2]
        z += h * dz
        if t >= 4.0:
            tt.append(t)
            rho.append(r)
    tt, rho = np.array(tt), np.array(rho)
    c = 2 * np.trapezoid(rho * np.cos(w * tt), tt)
    s = 2 * np.trapezoid(rho * np.sin(w * tt), tt)
    lag = math.atan2(s, c)
    lag_err = abs(lag - math.atan(w * t_f))

    ok = pll_err < 0.02 and lag_err < 0.02
    report(9, ok, f"PLL settled error {100*pll_err:.2f} % of the offset "
                  f"(< 2 %); rho-estimator lag {lag:.4f} rad vs "
                  f"atan(w T_f) = {math.atan(w*t_f):.4f} rad")
    assert pll_err < 0.02
    assert lag_err < 0.02
