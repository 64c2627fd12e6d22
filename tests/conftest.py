"""Shared pytest hooks, fixtures and reference helpers.

The acceptance tests register one "criterion N: PASS/FAIL" line each via
``record_criterion``; they are replayed in the terminal summary so they
stay visible even when output capture hides prints from passing tests.
``fd_output_rows`` is the nested finite-difference reference of the
closed-form observability rows, shared by the unit and acceptance tests.
"""

from dataclasses import replace

import numpy as np
import pytest

import gridfreq.cig
from gridfreq.casefile import load_bundled_case
from gridfreq.dae import SystemModel, SystemState, TrapezoidalIntegrator, build_system
from gridfreq.machines import N_STATES

_CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="module")
def shared_bus_model():
    """The WSCC machines plus a second unit on bus 2, sharing its bus:
    (model, x, bus voltages)."""
    model, st = build_system(load_bundled_case(), "no_cig")
    m = model.machines[1]
    extra = replace(m, params=replace(m.params, H=2.5),
                    avr=replace(m.avr, v_ref=m.avr.v_ref + 0.01),
                    gov=replace(m.gov, p_ref=0.4))
    shared = SystemModel(model.net, model.machines + [extra])
    x = np.concatenate([st.x, st.x[N_STATES: 2 * N_STATES]])
    n = model.n_bus
    return shared, x, st.y[:n] + 1j * st.y[n:]


@pytest.fixture
def call_counts(monkeypatch):
    """Count machine-block and converter evaluations while a test runs."""
    counts = {"machines": 0, "cig": 0}
    block = SystemModel._machine_block
    derivs = gridfreq.cig.cig_derivatives

    def counted_block(self, *args):
        counts["machines"] += 1
        return block(self, *args)

    def counted_derivs(*args, **kwargs):
        counts["cig"] += 1
        return derivs(*args, **kwargs)

    monkeypatch.setattr(SystemModel, "_machine_block", counted_block)
    monkeypatch.setattr(gridfreq.cig, "cig_derivatives", counted_derivs)
    return counts


# ---------------------------------------------------------------------------
# Output rows by nested finite differences
# ---------------------------------------------------------------------------

def _dense_fd(fun, z0):
    """d fun/dz at z0 by forward differences, one pass per column, with the
    integrator's step 1e-7 (1 + |z_i|)."""
    f0 = fun(z0)
    jac = np.empty((f0.size, z0.size))
    for i in range(z0.size):
        eps = 1e-7 * (1.0 + abs(z0[i]))
        z = z0.copy()
        z[i] += eps
        jac[:, i] = (fun(z) - f0) / eps
    return jac


def _fd_measured_signals(model, x, y_guess):
    """(rho, omega) at the converter bus for state x: the network is
    re-solved and ydot = -g_y^{-1} g_x f recovered with FD Jacobians."""
    y = TrapezoidalIntegrator(model).resolve(SystemState(x, y_guess, 0.0)).y
    n_x = model.n_x
    g_x = _dense_fd(lambda xx: model.residual(xx, y)[0][n_x:], x)
    g_y = _dense_fd(lambda yy: model.residual(x, yy)[0][n_x:], y)
    ydot = -np.linalg.solve(g_y, g_x @ model.residual(x, y)[0][:n_x])
    i, n = model.cig_bus, model.n_bus
    eta = (ydot[i] + 1j * ydot[i + n]) / (y[i] + 1j * y[i + n])
    return eta.real / model.omega_base, model.coi_speed(x) + eta.imag / model.omega_base


def fd_output_rows(model, eq, signals, eps=1e-6):
    """d signals(rho, omega)/dx at eq, one column per value that
    `signals` returns, by central differences of the measured signals."""
    rows = []
    for i in range(model.n_x):
        d = eps * (1.0 + abs(eq.x[i]))
        xp, xm = eq.x.copy(), eq.x.copy()
        xp[i] += d
        xm[i] -= d
        sp = np.array(signals(*_fd_measured_signals(model, xp, eq.y)))
        sm = np.array(signals(*_fd_measured_signals(model, xm, eq.y)))
        rows.append((sp - sm) / (2 * d))
    return np.array(rows)
