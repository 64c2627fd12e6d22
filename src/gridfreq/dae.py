"""Semi-explicit DAE assembly and implicit trapezoidal integration.

The differential states x stack every dynamic device (machines first,
machine-major, then the optional converter); the algebraic vector y
holds the bus voltages (real parts, then imaginary parts).  The network
frame rotates at the centre-of-inertia speed, so a post-disturbance
steady state is a true equilibrium of the DAE.

Integration is simultaneous (monolithic) Newton on the coupled
trapezoidal/algebraic equations with a finite-difference Jacobian that
is cached and refactorized only when Newton struggles or the network
changes.  The same Newton re-solves the network after an event, as the
step at h = 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import cig as cigmod
from . import machines as smmod
from .casefile import Case, CIGSpec, MachineSpec
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
    # solver counts of the run: `TrapezoidalIntegrator.stats`
    stats: dict[str, int] = field(default_factory=dict)

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

# converter control modes accepted by `build_system`
CONTROLS = ("no_cig", "cig_omega", "cig_omega_tilde")


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
        self._mach_bus = self.mach_bus.tolist()
        self.cig_bus = net.bus_index(cig.bus) if cig else None

        self._coi_w = smmod.coi_weights([m.params for m in machines]).tolist()
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
        """Re-read the machine parameters and set points into the kernel tuples."""
        self._sm_prm = [smmod.sm_kernel_params(m.params, m.avr, m.gov)
                        for m in self.machines]

    def _refresh_network_arrays(self) -> None:
        """Y as the real matrix [[G, -B], [B, G]], which maps y = [Re v; Im v]
        to [Re Yv; Im Yv], and conj(S) of every bus that carries a load."""
        ybus = build_ybus(self.net)
        n = self.n_bus
        y_real = np.empty((2 * n, 2 * n))
        y_real[:n, :n] = y_real[n:, n:] = ybus.real
        y_real[:n, n:] = -ybus.imag
        y_real[n:, :n] = ybus.imag
        self._y_real = y_real
        self._loads = [(i, complex(b.p_load, -b.q_load))
                       for i, b in enumerate(self.net.buses) if b.p_load or b.q_load]

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

    def coi_speed(self, x) -> float:
        """Centre-of-inertia speed sum(w_i omega_i) of the states x, a list or an array."""
        w_coi = 0.0
        for w, i in zip(self._coi_w, self.speed_indices):
            w_coi += w * x[i]
        return float(w_coi)

    # -- residuals ---------------------------------------------------------

    def _machine_block(self, xl: list[float], vl: list[complex], omega_coi: float):
        """Machine derivatives (a list, machine-major) and the per-bus
        injections (a list of n_bus complex, machines on one bus summed),
        from the states xl and the bus voltages vl as Python lists."""
        f: list[float] = []
        inj = [0j] * self.n_bus
        for i, (bus, prm) in enumerate(zip(self._mach_bus, self._sm_prm)):
            d, i_m = smmod.sm_kernel(xl[_SM_N * i: _SM_N * (i + 1)], vl[bus], prm,
                                     omega_coi, self.omega_base)
            f += d
            inj[bus] += i_m
        return f, inj

    def residual(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                              dict[str, float]]:
        """Every device and the network evaluated once at (x, y).

        Returns (f, g, outputs): the state derivatives f; the nodal current
        balance g = I_inj(x, y) - I_load(y) - Ybus V; and the converter's
        measured signals omega_est, rho_est and omega_tilde (the
        frequency-loop input) with its power output p_cig, q_cig, empty
        without a converter.  Everything but Ybus V is computed on Python
        floats and complex numbers.
        """
        n = self.n_bus
        xl, yl = x.tolist(), y.tolist()
        v = list(map(complex, yl[:n], yl[n:]))
        wcoi = self.coi_speed(xl)
        f, inj = self._machine_block(xl, v, wcoi)
        outputs: dict[str, float] = {}
        if self.cig:
            vb = v[self.cig_bus]
            d_c, inj_c, (w_est, rho, sig) = cigmod.cig_derivatives(
                xl[_SM_N * len(self.machines):], vb.real, vb.imag,
                self.cig.params, self.omega_base, omega_frame=wcoi)
            f += d_c
            inj[self.cig_bus] += inj_c
            s = vb * inj_c.conjugate()
            outputs = {"omega_est": w_est, "rho_est": rho, "omega_tilde": sig,
                       "p_cig": s.real, "q_cig": s.imag}
        for i, s_conj in self._loads:
            inj[i] -= s_conj / v[i].conjugate()
        g = [c.real for c in inj] + [c.imag for c in inj]
        return np.array(f), np.array(g) - self._y_real @ y, outputs

    def f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Differential residual: the f part of `residual`."""
        return self.residual(x, y)[0]

    def g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Algebraic residual (nodal current balance): the g part of `residual`."""
        return self.residual(x, y)[1]

    # -- algebraic solve ---------------------------------------------------

    def solve_algebraic(self, x: np.ndarray, y0: np.ndarray) -> np.ndarray:
        """y with g(x, y) = 0 for fixed x, from y0: a fresh integrator's
        `TrapezoidalIntegrator.resolve`.  Raises StepError when Newton fails."""
        return TrapezoidalIntegrator(self).resolve(SystemState(x, y0, 0.0)).y


def _stacked_residual(model: SystemModel, z: np.ndarray) -> np.ndarray:
    """[f; g] at z = [x; y]."""
    f, g, _ = model.residual(z[: model.n_x], z[model.n_x:])
    return np.concatenate([f, g])


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
    if control not in CONTROLS:
        raise ValueError(f"unknown control mode {control!r}")
    # the model owns copies of everything it or the build may mutate
    net = case.network.copy()
    machines = [MachineSpec(m.bus, copy.copy(m.params), copy.copy(m.avr), copy.copy(m.gov))
                for m in case.machines]
    cig_spec = None
    if control != "no_cig":
        if not case.cigs:
            raise AssemblyError("case has no CIG record")
        c = case.cigs[0]
        cp = replace(c.params, pll=copy.copy(c.params.pll))
        cig_spec = CIGSpec(c.bus, cp)
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
            cig_spec.bus = term_id
        cbus = net.bus(cig_spec.bus)
        cbus.p_gen += cp.p_ref
        cbus.q_gen += cp.q_ref
        donor = max((b for b in net.buses if b.kind == "pv"), key=lambda b: b.p_gen)
        donor.p_gen -= cp.p_ref

    pf = solve_power_flow(net, tol=pf_tol)
    vsol = pf.v_complex()

    sm_states = []
    for m in machines:
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

    model = SystemModel(net, machines, cig_spec)
    x0 = model.pack(sm_states, cig_state)
    y0 = model.pack_voltages(vsol)
    return model, SystemState(x=x0, y=y0, t=0.0)


# ---------------------------------------------------------------------------
# Trapezoidal integration
# ---------------------------------------------------------------------------

class TrapezoidalIntegrator:
    """Implicit trapezoidal stepper with a cached finite-difference Jacobian.

    Each Newton iterate costs one `SystemModel.residual` pass and one
    LAPACK `getrs` solve on the cached LU factors.  The f and the
    converter outputs of the last accepted point are kept: the next step
    reuses f as its f0, and `simulate` records the outputs, when they ask
    for the same values of (x, y).  Call `invalidate()` whenever anything
    other than (x, y) changes what the model returns (network, set points,
    device parameters): it drops both caches.  After a network event,
    `resolve` re-solves the algebraic variables instead.

    `stats` counts what the integrator did: accepted steps (halves of a
    halved step each count), Newton iterations (linear solves), Jacobian
    builds, LU factorizations, step halvings and network re-solves.
    """

    def __init__(self, model: SystemModel, tol: float = 1e-8, max_iter: int = 8):
        self.model = model
        self.tol = tol
        self.max_iter = max_iter
        self._jfull = None     # d[f; g]/d[x; y] at the last factorization point
        self._lu = {}          # h -> LU factors of the step Jacobian
        self._f_last = None    # (bytes of [x; y], f, outputs there): last evaluated point
        self.stats = {"steps": 0, "newton_iterations": 0, "jacobian_builds": 0,
                      "lu_factorizations": 0, "step_halvings": 0, "resolves": 0}

    def invalidate(self) -> None:
        self._jfull = None
        self._lu.clear()
        self._f_last = None

    def _factor(self, z: np.ndarray, h: float):
        """LU factors of the step Jacobian, or None if d[f; g]/d[x; y] is not finite."""
        m = self.model
        if self._jfull is None:
            self.stats["jacobian_builds"] += 1
            jfull = _fd_jacobian(lambda zz: _stacked_residual(m, zz), z)
            if not np.isfinite(jfull).all():
                return None
            self._jfull = jfull
            self._lu.clear()
        if h not in self._lu:
            jac = np.vstack([-0.5 * h * self._jfull[: m.n_x], self._jfull[m.n_x:]])
            jac[: m.n_x, : m.n_x] += np.eye(m.n_x)
            self.stats["lu_factorizations"] += 1
            # finite, since jfull is: the check above
            self._lu[h] = scipy.linalg.lu_factor(jac, check_finite=False)
        return self._lu[h]

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        """(f, outputs) of `SystemModel.residual` at (x, y), from the cache
        when (x, y) has the values of the last evaluated point."""
        key = x.tobytes() + y.tobytes()
        if self._f_last is None or self._f_last[0] != key:
            f, _, outputs = self.model.residual(x, y)
            self._f_last = (key, f, outputs)
        return self._f_last[1], self._f_last[2]

    def _newton(self, state: SystemState, h: float) -> np.ndarray | None:
        """[x; y] at t + h, or None when Newton fails.

        A non-finite iterate, residual or Jacobian is a failure, as is a
        nonzero `getrs` info or a residual still above tol after one
        Jacobian refresh.
        """
        m = self.model
        n_x = m.n_x
        x0, y0 = state.x, state.y
        f0 = self.evaluate(x0, y0)[0]
        hh = 0.5 * h
        base = x0 + hh * f0
        z = np.concatenate([x0 + h * f0, y0])
        for _ in range(2):
            factors = self._factor(z, h)
            if factors is None:
                return None
            lu, piv = factors
            for it in range(self.max_iter + 1):
                if not np.isfinite(z).all():
                    return None
                x, y = z[:n_x], z[n_x:]
                f, g, outputs = m.residual(x, y)
                r = np.concatenate([x - base - hh * f, g])
                worst = np.abs(r).max()
                if worst < self.tol:
                    self._f_last = (z.tobytes(), f, outputs)
                    return z
                if not np.isfinite(worst):
                    return None
                if it < self.max_iter:
                    self.stats["newton_iterations"] += 1
                    # r is finite: the check just above
                    dz, info = lapack.dgetrs(lu, piv, r)
                    if info:
                        return None
                    z = z - dz
            # refresh the Jacobian at the current iterate and retry once
            self._jfull = None
            if self._factor(z, h) is None:
                return None
        return None

    def step(self, state: SystemState, h: float, _depth: int = 0) -> SystemState:
        """state advanced by h; Newton failures halve the step, up to 4 times."""
        if h <= 0.0:
            raise ValueError("step size must be positive")
        with np.errstate(all="ignore"):
            z = self._newton(state, h)
        if z is not None:
            self.stats["steps"] += 1
            n_x = self.model.n_x
            return SystemState(x=z[:n_x], y=z[n_x:], t=state.t + h)
        if _depth >= 4:
            raise StepError(f"Newton failed at t={state.t:.4f}s with h={h:.4g}s "
                            "after 4 halvings")
        self.stats["step_halvings"] += 1
        half = self.step(state, 0.5 * h, _depth + 1)
        return self.step(half, 0.5 * h, _depth + 1)

    def resolve(self, state: SystemState) -> SystemState:
        """state with y re-solved for g(x, y) = 0 after the model changed.

        This is the step at h = 0: its residual is [x - x0; g] and its
        Jacobian [[I, 0], [g_x, g_y]], so x moves only by the rounding of the
        pivoted solve (below 1e-16); the returned state carries a copy of the
        given x, so x is held bitwise.  Newton starts on the Jacobian of
        the last step (chord Newton converges on the true residual) and
        refreshes it if that stalls.  The cached f0 is dropped first; the
        Jacobian and its factors afterwards, so the next step builds one at
        its own point.  The accepted point stays cached.  Raises StepError
        when Newton fails.
        """
        self._f_last = None
        with np.errstate(all="ignore"):
            z = self._newton(state, 0.0)
        self._jfull = None
        self._lu.clear()
        if z is None:
            raise StepError(f"Newton failed at t={state.t:.4f}s with h=0")
        self.stats["resolves"] += 1
        return SystemState(x=state.x.copy(), y=z[self.model.n_x:], t=state.t)


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


def record(model: SystemModel, state: SystemState, channels: list[str] | None,
           evaluate) -> dict[str, float]:
    """Values of the named channels (None: every recordable one) at one state.

    Only the requested channels are computed.  The converter channels come
    from `evaluate(x, y) -> (f, outputs)`; `simulate` passes its
    integrator's `TrapezoidalIntegrator.evaluate`, which returns the
    outputs of the accepted Newton residual without a new pass.  A run
    that records none of them never calls `evaluate`.
    """
    if channels is None:
        channels = _default_channels(model)
    out: dict[str, float] = {}
    v = outputs = None
    for name in channels:
        if name == "omega_coi":
            out[name] = model.coi_speed(state.x)
        elif name.startswith("omega_sm"):
            out[name] = float(state.x[model.speed_indices[int(name[8:]) - 1]])
        elif name.startswith("v_bus"):
            if v is None:
                v = model.voltages(state.y)
            out[name] = float(abs(v[model.net.bus_index(int(name[5:]))]))
        else:
            if outputs is None:
                outputs = evaluate(state.x, state.y)[1]
            out[name] = outputs[name]
    return out


def simulate(model: SystemModel, state0: SystemState, events: list[Event],
             t_end: float, h: float = 0.01, output_dt: float = 0.01,
             channels: list[str] | None = None) -> TimeSeries:
    """Integrate over [t0, t_end], applying timed events.

    Events are applied exactly at their times: the network is replaced by
    the post-event copy, the algebraic variables are re-solved with the
    differential states frozen, and integration resumes.  The caller's
    model gets its pre-event network back when the run ends, however it
    ends.  Channels default to every recordable trace; only the requested
    ones are computed.
    """
    if t_end <= state0.t:
        raise ValueError("empty simulation horizon")
    known = _default_channels(model)
    if channels is None:
        channels = known
    unknown = [c for c in channels if c not in known]
    if unknown:
        raise ValueError(f"unknown channels {unknown}; recordable: {known}")

    events = sorted(events, key=lambda e: e.time)
    for ev in events:
        if not (state0.t <= ev.time <= t_end):
            raise ValueError(f"event at t={ev.time} outside the horizon")

    integ = TrapezoidalIntegrator(model)
    state = state0.copy()
    t0 = state.t
    times = [state.t]
    rows = [record(model, state, channels, integ.evaluate)]
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
                try:
                    state = integ.resolve(state)
                except StepError as exc:
                    raise StepError(f"network re-solve after the event at "
                                    f"t={ev.time:g}s failed: {exc}") from exc
            if abs(state.t - (t0 + n_out * output_dt)) <= eps or state.t >= t_end - eps:
                times.append(state.t)
                rows.append(record(model, state, channels, integ.evaluate))
                n_out += 1
    finally:
        if model.net is not net0:
            model.set_network(net0)

    data = {name: np.array([r[name] for r in rows]) for name in channels}
    return TimeSeries(times=np.array(times), channels=data, stats=integ.stats)
