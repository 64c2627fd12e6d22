"""Semi-explicit DAE assembly and implicit trapezoidal integration.

The differential states x stack every dynamic device (machines first,
machine-major, then the optional converter); the algebraic vector y
holds the bus voltages (real parts, then imaginary parts).  The network
frame rotates at the centre-of-inertia speed, so a post-disturbance
steady state is a true equilibrium of the DAE.

Integration is simultaneous (monolithic) Newton on the coupled
trapezoidal/algebraic equations with a finite-difference Jacobian that
is cached and refactorized only when Newton struggles or the network
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cig as cigmod
from . import machines as smmod
from .casefile import Case, CIGSpec, MachineSpec
from .complex_frequency import ParkVector
from .network import (Branch, Bus, EventAction, Network, apply_event,
                      build_ybus, solve_power_flow)


class AssemblyError(ValueError):
    pass


class StepError(RuntimeError):
    """Newton failed to converge even after step halving."""


@dataclass
class SystemState:
    x: np.ndarray
    y: np.ndarray
    t: float

    def copy(self) -> "SystemState":
        return SystemState(self.x.copy(), self.y.copy(), self.t)


@dataclass(frozen=True)
class Event:
    time: float
    action: EventAction


@dataclass
class TimeSeries:
    times: np.ndarray
    channels: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def to_csv(self) -> str:
        names = list(self.channels)
        lines = [",".join(["t"] + names)]
        for i, t in enumerate(self.times):
            row = [f"{t:.12g}"] + [f"{self.channels[n][i]:.12g}" for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


_SM_N = smmod.N_STATES
_CIG_N = cigmod.N_STATES


class SystemModel:
    """Residual functions f (differential) and g (algebraic) of the grid."""

    def __init__(self, net: Network, machines: list[MachineSpec],
                 cig: CIGSpec | None = None):
        if not machines:
            raise AssemblyError("no dynamic devices: at least one machine required")
        self.net = net
        self.machines = machines
        self.cig = cig
        self.n_bus = net.n_bus
        self.n_y = 2 * self.n_bus
        self.n_x = _SM_N * len(machines) + (_CIG_N if cig else 0)
        self.omega_base = net.omega_base

        self.mach_bus = np.array([net.bus_index(m.bus) for m in machines])
        self.cig_bus = net.bus_index(cig.bus) if cig else None

        p = machines
        self._H = np.array([m.params.H for m in p])
        self._D = np.array([m.params.D for m in p])
        self._ra = np.array([m.params.ra for m in p])
        self._xd = np.array([m.params.xd for m in p])
        self._xq = np.array([m.params.xq for m in p])
        self._xd1 = np.array([m.params.xd1 for m in p])
        self._xq1 = np.array([m.params.xq1 for m in p])
        self._td01 = np.array([m.params.td01 for m in p])
        self._tq01 = np.array([m.params.tq01 for m in p])
        self._coi_w = np.array([m.params.H * m.params.s_rated for m in p])
        self._coi_w = self._coi_w / self._coi_w.sum()
        self._ka = np.array([m.avr.ka for m in p])
        self._ta = np.array([m.avr.ta for m in p])
        self._ke = np.array([m.avr.ke for m in p])
        self._te = np.array([m.avr.te for m in p])
        self._kf = np.array([m.avr.kf for m in p])
        self._tf = np.array([m.avr.tf for m in p])
        self._vr_min = np.array([m.avr.vr_min for m in p])
        self._vr_max = np.array([m.avr.vr_max for m in p])
        self._droop = np.array([m.gov.droop for m in p])
        self._tsv = np.array([m.gov.t_sv for m in p])
        self._tch = np.array([m.gov.t_ch for m in p])
        self._p_min = np.array([m.gov.p_min for m in p])
        self._p_max = np.array([m.gov.p_max for m in p])
        self.refresh_setpoints()
        self._refresh_network_arrays()

        # labels for linearization / reporting
        self.state_labels: list[str] = []
        for i, m in enumerate(machines, start=1):
            self.state_labels += [f"sm{i}_{n}" for n in smmod.STATE_NAMES]
        if cig:
            self.state_labels += [f"cig_{n}" for n in cigmod.STATE_NAMES]
        self.speed_indices = [i * _SM_N + 1 for i in range(len(machines))]

    # -- network / setpoint refresh -------------------------------------

    def refresh_setpoints(self) -> None:
        self._v_ref = np.array([m.avr.v_ref for m in self.machines])
        self._p_ref = np.array([m.gov.p_ref for m in self.machines])

    def _refresh_network_arrays(self) -> None:
        self.ybus = build_ybus(self.net)
        self.s_load = np.array([complex(b.p_load, b.q_load) for b in self.net.buses])

    def set_network(self, net: Network) -> None:
        self.net = net
        self._refresh_network_arrays()

    # -- state packing ----------------------------------------------------

    def pack(self, sm_states: list[smmod.SynMachineState],
             cig_state: cigmod.CIGState | None = None) -> np.ndarray:
        parts = [s.as_array() for s in sm_states]
        if self.cig:
            parts.append(cig_state.as_array())
        return np.concatenate(parts)

    def voltages(self, y: np.ndarray) -> np.ndarray:
        n = self.n_bus
        return y[:n] + 1j * y[n:]

    def pack_voltages(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([v.real, v.imag])

    def coi_speed(self, x: np.ndarray) -> float:
        return float(self._coi_w @ x[self.speed_indices])

    # -- residuals ---------------------------------------------------------

    def _machine_block(self, x: np.ndarray, v: np.ndarray, omega_coi: float):
        nm = len(self.machines)
        xm = x[: _SM_N * nm].reshape(nm, _SM_N)
        delta, omega, eq1, ed1, efd, rf, vr, psv, pm = xm.T

        vb = v[self.mach_bus]
        vmag = np.abs(vb)
        th = np.angle(vb)
        vd = vmag * np.sin(delta - th)
        vq = vmag * np.cos(delta - th)
        det = self._ra ** 2 + self._xd1 * self._xq1
        ed = ed1 - vd
        eq = eq1 - vq
        i_d = (self._ra * ed + self._xq1 * eq) / det
        i_q = (-self._xd1 * ed + self._ra * eq) / det
        pe = ed1 * i_d + eq1 * i_q + (self._xq1 - self._xd1) * i_d * i_q

        d = np.empty_like(xm)
        d[:, 0] = self.omega_base * (omega - omega_coi)
        d[:, 1] = (pm - pe - self._D * (omega - omega_coi)) / (2.0 * self._H)
        d[:, 2] = (-eq1 - (self._xd - self._xd1) * i_d + efd) / self._td01
        d[:, 3] = (-ed1 + (self._xq - self._xq1) * i_q) / self._tq01
        d[:, 4] = (vr - self._ke * efd) / self._te
        d[:, 5] = (-rf + (self._kf / self._tf) * efd) / self._tf
        dvr = (-vr + self._ka * rf - (self._ka * self._kf / self._tf) * efd
               + self._ka * (self._v_ref - vmag)) / self._ta
        dvr = np.where((vr >= self._vr_max) & (dvr > 0), 0.0, dvr)
        dvr = np.where((vr <= self._vr_min) & (dvr < 0), 0.0, dvr)
        d[:, 6] = dvr
        dpsv = (-psv + self._p_ref + (1.0 - omega) / self._droop) / self._tsv
        dpsv = np.where((psv >= self._p_max) & (dpsv > 0), 0.0, dpsv)
        dpsv = np.where((psv <= self._p_min) & (dpsv < 0), 0.0, dpsv)
        d[:, 7] = dpsv
        d[:, 8] = (psv - pm) / self._tch

        inj = (i_d + 1j * i_q) * np.exp(1j * (delta - np.pi / 2.0))
        return d.ravel(), inj

    def _cig_state(self, x: np.ndarray) -> cigmod.CIGState:
        return cigmod.CIGState.from_array(x[_SM_N * len(self.machines):])

    def f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        v = self.voltages(y)
        wcoi = self.coi_speed(x)
        d_m, _ = self._machine_block(x, v, wcoi)
        if not self.cig:
            return d_m
        st = self._cig_state(x)
        vb = v[self.cig_bus]
        d_c, _, _ = cigmod.cig_derivatives(st, ParkVector(vb.real, vb.imag),
                                           self.cig.params, self.omega_base,
                                           omega_frame=wcoi)
        return np.concatenate([d_m, d_c])

    def injections(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        wcoi = self.coi_speed(x)
        _, inj_m = self._machine_block(x, v, wcoi)
        inj = np.zeros(self.n_bus, dtype=complex)
        np.add.at(inj, self.mach_bus, inj_m)
        if self.cig:
            st = self._cig_state(x)
            vb = v[self.cig_bus]
            _, inj_c, _ = cigmod.cig_derivatives(st, ParkVector(vb.real, vb.imag),
                                                 self.cig.params, self.omega_base,
                                                 omega_frame=wcoi)
            inj[self.cig_bus] += inj_c
        return inj

    def g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Nodal current balance I_inj(x, y) - I_load(y) - Ybus V = 0."""
        v = self.voltages(y)
        i_bal = self.injections(x, v) - np.conj(self.s_load / v) - self.ybus @ v
        return np.concatenate([i_bal.real, i_bal.imag])

    def cig_outputs(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        if not self.cig:
            return {}
        v = self.voltages(y)
        st = self._cig_state(x)
        vb = v[self.cig_bus]
        wcoi = self.coi_speed(x)
        _, inj, out = cigmod.cig_derivatives(st, ParkVector(vb.real, vb.imag),
                                             self.cig.params, self.omega_base,
                                             omega_frame=wcoi)
        s = vb * np.conj(inj)
        out = dict(out)
        out["p_cig"] = s.real
        out["q_cig"] = s.imag
        return out

    # -- algebraic solve ---------------------------------------------------

    def solve_algebraic(self, x: np.ndarray, y0: np.ndarray,
                        tol: float = 1e-10, max_iter: int = 30) -> np.ndarray:
        """Newton on g(x, y) = 0 for fixed x, starting from y0."""
        y = y0.copy()
        for _ in range(max_iter):
            r = self.g(x, y)
            if np.max(np.abs(r)) < tol:
                return y
            jac = _fd_jacobian(lambda yy: self.g(x, yy), y)
            y = y - np.linalg.solve(jac, r)
        r = self.g(x, y)
        if np.max(np.abs(r)) < 1e-6:
            return y
        raise StepError(f"algebraic solve stalled, residual {np.max(np.abs(r)):.3e}")


def _fd_jacobian(fun, z0: np.ndarray, eps_rel: float = 1e-7) -> np.ndarray:
    f0 = fun(z0)
    jac = np.empty((f0.size, z0.size))
    for i in range(z0.size):
        eps = eps_rel * (1.0 + abs(z0[i]))
        z = z0.copy()
        z[i] += eps
        jac[:, i] = (fun(z) - f0) / eps
    return jac


# ---------------------------------------------------------------------------
# Assembly from a parsed case
# ---------------------------------------------------------------------------

def assemble(net: Network, machines: list[MachineSpec],
             cig: CIGSpec | None = None) -> SystemModel:
    """Build the coupled DAE model; devices must be initialized separately."""
    return SystemModel(net, machines, cig)


def build_system(case: Case, control: str = "no_cig",
                 k: float | None = None, freq_loop: bool = True,
                 pf_tol: float = 1e-8) -> tuple[SystemModel, SystemState]:
    """Power flow, device initialization, and model assembly in one go.

    control selects the converter setup:
      * "no_cig"          -- machines only, original dispatch;
      * "cig_omega"       -- converter on, conventional frequency signal
                             (compensation gain forced to zero);
      * "cig_omega_tilde" -- converter on, compensated signal with gain k
                             (case-file K if k is None).

    When the converter is enabled its scheduled power is taken from the
    highest-dispatch PV unit, mirroring how the bundled case accommodates
    the converter injection.  A converter with a nonzero step-up
    transformer reactance x_t is placed on a synthesized terminal bus
    behind that reactance; its point of connection stays the bus named in
    the case.  freq_loop=False leaves the converter connected but opens
    its frequency-control loop (measurements stay live), as used by the
    small-signal observability analysis.
    """
    import copy

    if control not in ("no_cig", "cig_omega", "cig_omega_tilde"):
        raise ValueError(f"unknown control mode {control!r}")
    case = copy.deepcopy(case)
    net = case.network
    cig_spec = None
    if control != "no_cig":
        if not case.cigs:
            raise AssemblyError("case has no CIG record")
        cig_spec = case.cigs[0]
        cp = cig_spec.params
        cp.freq_loop = freq_loop
        if control == "cig_omega":
            cp.K = 0.0
        elif k is not None:
            cp.K = k
        if cp.x_t > 0.0:
            term_id = max(b.id for b in net.buses) + 1
            net = Network(
                buses=net.buses + [Bus(id=term_id, kind="pq")],
                branches=net.branches + [Branch(from_bus=cig_spec.bus,
                                                to_bus=term_id,
                                                r=0.0, x=cp.x_t)],
                s_base=net.s_base, f_base=net.f_base)
            case.network = net
            cig_spec.bus = term_id
        cbus = net.bus(cig_spec.bus)
        cbus.p_gen += cp.p_ref
        cbus.q_gen += cp.q_ref
        donor = max((b for b in net.buses if b.kind == "pv"), key=lambda b: b.p_gen)
        donor.p_gen -= cp.p_ref

    pf = solve_power_flow(net, tol=pf_tol)
    vsol = pf.v_complex()

    sm_states = []
    for m in case.machines:
        i = net.bus_index(m.bus)
        p_disp = pf.p_inj[i] + net.buses[i].p_load
        q_disp = pf.q_inj[i] + net.buses[i].q_load
        if cig_spec and m.bus == cig_spec.bus:
            p_disp -= cig_spec.params.p_ref
            q_disp -= cig_spec.params.q_ref
        sm_states.append(smmod.initialize_sm(vsol[i], p_disp, q_disp,
                                             m.params, m.avr, m.gov))

    cig_state = None
    if cig_spec:
        cig_state = cigmod.initialize_cig(vsol[net.bus_index(cig_spec.bus)],
                                          cig_spec.params)

    model = SystemModel(net, case.machines, cig_spec)
    model.refresh_setpoints()
    x0 = model.pack(sm_states, cig_state)
    y0 = model.pack_voltages(vsol)
    return model, SystemState(x=x0, y=y0, t=0.0)


# ---------------------------------------------------------------------------
# Trapezoidal integration
# ---------------------------------------------------------------------------

class TrapezoidalIntegrator:
    """Implicit trapezoidal stepper with a cached finite-difference Jacobian."""

    def __init__(self, model: SystemModel, tol: float = 1e-8, max_iter: int = 8):
        self.model = model
        self.tol = tol
        self.max_iter = max_iter
        self._jfull = None     # d[f; g]/d[x; y] at the last factorization point
        self._lu = {}          # h -> LU factors of the step Jacobian

    def invalidate(self) -> None:
        self._jfull = None
        self._lu.clear()

    def _factor(self, z: np.ndarray, h: float):
        m = self.model
        if self._jfull is None:
            def fg(zz):
                return np.concatenate([m.f(zz[:m.n_x], zz[m.n_x:]),
                                       m.g(zz[:m.n_x], zz[m.n_x:])])
            self._jfull = _fd_jacobian(fg, z)
            self._lu.clear()
        if h not in self._lu:
            jac = np.vstack([-0.5 * h * self._jfull[: m.n_x], self._jfull[m.n_x:]])
            jac[: m.n_x, : m.n_x] += np.eye(m.n_x)
            self._lu[h] = scipy.linalg.lu_factor(jac)
        return self._lu[h]

    def step(self, state: SystemState, h: float, _depth: int = 0) -> SystemState:
        if h <= 0.0:
            raise ValueError("step size must be positive")
        m = self.model
        x0, y0 = state.x, state.y
        f0 = m.f(x0, y0)
        base = x0 + 0.5 * h * f0
        z = np.concatenate([x0 + h * f0, y0])

        def residual(z):
            x, y = z[: m.n_x], z[m.n_x:]
            return np.concatenate([x - base - 0.5 * h * m.f(x, y), m.g(x, y)])

        for attempt in range(2):
            lu = self._factor(z, h)
            for _ in range(self.max_iter):
                r = residual(z)
                if np.max(np.abs(r)) < self.tol:
                    return SystemState(x=z[: m.n_x], y=z[m.n_x:], t=state.t + h)
                z = z - scipy.linalg.lu_solve(lu, r)
            if np.max(np.abs(residual(z))) < self.tol:
                return SystemState(x=z[: m.n_x], y=z[m.n_x:], t=state.t + h)
            # refresh the Jacobian at the current iterate and retry once
            self.invalidate()
            self._factor(z, h)

        if _depth >= 4:
            raise StepError(f"Newton failed at t={state.t:.4f}s with h={h:.4g}s "
                            "after 4 halvings")
        half = self.step(state, 0.5 * h, _depth + 1)
        return self.step(half, 0.5 * h, _depth + 1)


def step_trapezoidal(model: SystemModel, state: SystemState, h: float) -> SystemState:
    """One trapezoidal step with a freshly built Jacobian (convenience form)."""
    return TrapezoidalIntegrator(model).step(state, h)


# ---------------------------------------------------------------------------
# Scenario simulation
# ---------------------------------------------------------------------------

def _default_channels(model: SystemModel) -> list[str]:
    ch = ["omega_coi"]
    ch += [f"omega_sm{i+1}" for i in range(len(model.machines))]
    ch += [f"v_bus{b.id}" for b in model.net.buses]
    if model.cig:
        ch += ["p_cig", "q_cig", "omega_est", "rho_est", "omega_tilde"]
    return ch


def record(model: SystemModel, state: SystemState) -> dict[str, float]:
    """All recordable channel values at one state."""
    out: dict[str, float] = {"omega_coi": model.coi_speed(state.x)}
    for i, idx in enumerate(model.speed_indices):
        out[f"omega_sm{i+1}"] = float(state.x[idx])
    v = model.voltages(state.y)
    for b, vb in zip(model.net.buses, v):
        out[f"v_bus{b.id}"] = float(abs(vb))
    if model.cig:
        c = model.cig_outputs(state.x, state.y)
        out["p_cig"] = c["p_cig"]
        out["q_cig"] = c["q_cig"]
        out["omega_est"] = c["omega_est"]
        out["rho_est"] = c["rho_est"]
        out["omega_tilde"] = c["signal"]
    return out


def simulate(model: SystemModel, state0: SystemState, events: list[Event],
             t_end: float, h: float = 0.01, output_dt: float = 0.01,
             channels: list[str] | None = None) -> TimeSeries:
    """Integrate over [t0, t_end], applying timed events.

    Events are applied exactly at their times: the network is replaced by
    the post-event copy, the algebraic variables are re-solved with the
    differential states frozen, and integration resumes.  The caller's
    model gets its pre-event network back when the run ends, however it
    ends.  Channels default to every recordable trace.
    """
    if t_end <= state0.t:
        raise ValueError("empty simulation horizon")
    if channels is None:
        channels = _default_channels(model)

    events = sorted(events, key=lambda e: e.time)
    for ev in events:
        if not (state0.t <= ev.time <= t_end):
            raise ValueError(f"event at t={ev.time} outside the horizon")

    integ = TrapezoidalIntegrator(model)
    state = state0.copy()
    t0 = state.t
    times = [state.t]
    rows = [record(model, state)]
    n_out = 1
    pending = list(events)
    eps = 1e-9

    net0 = model.net
    try:
        while state.t < t_end - eps:
            t_stop = min(t0 + n_out * output_dt, t_end)
            if pending:
                t_stop = min(t_stop, pending[0].time)
            while state.t < t_stop - eps:
                rem = t_stop - state.t
                dt = rem if rem <= h * (1.0 + 1e-6) else h
                state = integ.step(state, dt)
            state.t = t_stop
            while pending and abs(state.t - pending[0].time) <= eps:
                ev = pending.pop(0)
                model.set_network(apply_event(model.net, ev.action))
                integ.invalidate()
                try:
                    state.y = model.solve_algebraic(state.x, state.y)
                except StepError as exc:
                    raise StepError(f"network re-solve after the event at "
                                    f"t={ev.time:g}s failed: {exc}") from exc
            if abs(state.t - (t0 + n_out * output_dt)) <= eps or state.t >= t_end - eps:
                times.append(state.t)
                rows.append(record(model, state))
                n_out += 1
    finally:
        if model.net is not net0:
            model.set_network(net0)

    data = {name: np.array([r[name] for r in rows]) for name in channels}
    return TimeSeries(times=np.array(times), channels=data)
