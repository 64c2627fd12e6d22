"""Semi-explicit DAE assembly and implicit trapezoidal integration.

The differential states x stack every dynamic device (machines first,
machine-major, then the optional converter); the algebraic vector y
holds the bus voltages (real parts, then imaginary parts).  The network
frame rotates at the centre-of-inertia speed, so a post-disturbance
steady state is a true equilibrium of the DAE.

Integration is simultaneous (monolithic) Newton on the coupled
trapezoidal/algebraic equations.  Newton starts from a polynomial
extrapolation of the last accepted points (DASSL's predictor: Brenan,
Campbell & Petzold, ch. 5) and iterates on a cached finite-difference
Jacobian, which is rebuilt after a network change, when the measured
contraction of a step predicts more than two solves and the Jacobian has
paid for its build, or when Newton stalls.  The same Newton re-solves the
network after an event, as the step at h = 0.

The Jacobian is differenced from the residual the simulator runs, in
column groups: `SystemModel.jacobian_structure` knows which rows each
column of [x; y] can touch (a device's rows read its own states, its bus
voltage and the COI speed; a bus's rows read its Y-neighbours), and
columns with disjoint rows are perturbed in one residual pass.  Every
row is then computed exactly as with one pass per column, so the result
is bitwise the same; the WSCC case needs 15 groups, 16 passes per build
in place of 46 (55 with the converter).
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
    """Newton failed to converge even after step halving.

    Raised out of `simulate`, it carries the time of the last accepted
    state (`t_last`) and the integrator's `stats` up to the failure."""

    t_last: float | None = None
    stats: dict | None = None


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
    stats: dict[str, int | dict[int, int]] = field(default_factory=dict)

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
        self._jac_structure = None   # (pattern, groups), built on first use
        self._y_nonzero = None       # nonzero structure of _y_real it was built for
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
        nonzero = y_real != 0.0
        if not np.array_equal(nonzero, self._y_nonzero):
            self._y_nonzero = nonzero
            self._jac_structure = None
        self._loads = [(i, complex(b.p_load, -b.q_load))
                       for i, b in enumerate(self.net.buses) if b.p_load or b.q_load]

    def set_network(self, net: Network) -> None:
        self.net = net
        self._refresh_network_arrays()

    # -- Jacobian structure ---------------------------------------------

    def jacobian_structure(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(pattern, groups) of d[f; g]/d[x; y], built on the first call and
        kept until the nonzero structure of Y changes.

        pattern is the bool matrix of the entries that can be nonzero:
        every value a residual row reads.  groups partitions the columns
        so that two columns of one group touch disjoint rows; perturbing
        a whole group in one residual pass then gives each of its
        columns exactly the residual rows a pass of its own would
        (Curtis, Powell & Reid, IMA J. Appl. Math. 1974).
        """
        if self._jac_structure is not None:
            return self._jac_structure
        n_x, n = self.n_x, self.n_bus
        pattern = np.zeros((n_x + 2 * n, n_x + 2 * n), dtype=bool)
        # the network: Y y, plus the Re/Im pair of each bus that its
        # loads and device injections read
        pattern[n_x:, n_x:] = self._y_nonzero | np.tile(np.eye(n, dtype=bool), (2, 2))
        # each device: its states, and its bus voltage, against its state
        # rows and the current balance of its bus
        devices = [(range(_SM_N * i, _SM_N * (i + 1)), b)
                   for i, b in enumerate(self._mach_bus)]
        if self.cig:
            devices.append((range(n_x - _CIG_N, n_x), self.cig_bus))
        for states, b in devices:
            rows = [*states, n_x + b, n_x + n + b]
            pattern[np.ix_(rows, rows)] = True
        # every machine speed enters every f row through omega_coi
        pattern[:n_x, self.speed_indices] = True
        self._jac_structure = (pattern, _column_groups(pattern))
        return self._jac_structure

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


def _column_groups(pattern: np.ndarray) -> list[np.ndarray]:
    """Greedy first-fit partition of the columns of pattern into groups
    whose columns touch disjoint rows; row sets are Python-int bitmasks."""
    packed = np.packbits(pattern.T, axis=1, bitorder="little")
    rows_of: list[int] = []
    members: list[list[int]] = []
    for col, bits in enumerate(packed):
        mask = int.from_bytes(bits.tobytes(), "little")
        for k, taken in enumerate(rows_of):
            if not taken & mask:
                rows_of[k] = taken | mask
                members[k].append(col)
                break
        else:
            rows_of.append(mask)
            members.append([col])
    return [np.array(m) for m in members]


# relative forward-difference step of the integrator's Jacobian
_FD_EPS_REL = 1e-7


def _fd_jacobian(model: SystemModel, z0: np.ndarray) -> np.ndarray:
    """d[f; g]/d[x; y] at z0 by forward differences, one residual pass per
    column group of `SystemModel.jacobian_structure`: equal bitwise to one
    pass per column."""
    pattern, groups = model.jacobian_structure()
    r0 = _stacked_residual(model, z0)
    eps = _FD_EPS_REL * (1.0 + np.abs(z0))
    jac = np.empty((r0.size, z0.size))
    for cols in groups:
        z = z0.copy()
        z[cols] += eps[cols]
        d = _stacked_residual(model, z) - r0
        jac[:, cols] = np.where(pattern[:, cols], d[:, None], 0.0) / eps[cols]
    return jac


# ---------------------------------------------------------------------------
# Assembly from a parsed case
# ---------------------------------------------------------------------------

def build_system(case: Case, control: str = "no_cig",
                 k: float | None = None,
                 freq_loop: bool = True) -> tuple[SystemModel, SystemState]:
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

    pf = solve_power_flow(net)
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
    LAPACK `getrs` solve on the cached LU factors.  Newton starts from an
    extrapolation of the last accepted points: quadratic through three,
    linear through two, when they are steps of the same h taken one after
    the other since the last `resolve` or `invalidate()`; otherwise from the
    explicit Euler point with y held.  The f and the converter outputs of
    the last accepted point are kept: the next step reuses f as its f0,
    and `simulate` records the outputs, when they ask for the same values
    of (x, y); the same match tells that a step continues the extrapolated
    history.  Call `invalidate()` whenever anything other than (x, y)
    changes what the model returns (network, set points, device
    parameters): it drops the caches and the history.  After a network
    event, `resolve` re-solves the algebraic variables instead.

    The Jacobian is kept across steps (chord Newton).  From the ratio of
    the last two updates of a step, theta = |dz_k| / |dz_k-1|, the residual
    r1 left by its first solve predicts the residual after the second,
    r1 theta; when that is not below tol, the step predicts more than two
    solves, and the Jacobian is dropped so that the next step builds one at
    its start, but only once it has served as many steps as a build costs
    residual passes (`len(groups) + 1`): a rebuild then costs at most one
    pass per step.  A stalled Newton refreshes it at once (Hairer & Wanner,
    Solving ODEs II, sec. IV.8).

    `stats` counts what the integrator did: accepted steps (halves of a
    halved step each count), Newton iterations (linear solves), Jacobian
    builds, LU factorizations, step halvings, network re-solves, residual
    passes (Jacobian builds and cache misses of `evaluate` included), and
    `newton_histogram`, the accepted steps counted by the solves each took.
    One LU factorization is cached, for the step size of the last step: a
    run on an exact step grid factors once per Jacobian and step size in use.
    """

    tol = 1e-8       # Newton convergence: max |residual| of the step
    max_iter = 8     # Newton iterations per attempt; a stalled attempt
                     # refreshes the Jacobian and tries once more

    def __init__(self, model: SystemModel):
        self.model = model
        self._jfull = None     # d[f; g]/d[x; y] at the last factorization point
        self._lu = None        # (h, LU factors of the step Jacobian for h)
        self._jac_steps = 0    # steps accepted on _jfull
        self._f_last = None    # (bytes of [x; y], f, outputs there): last evaluated point
        self._past = None      # (h, _f_last entry of the last step, copies of its
                               # last <= 3 points: callers may edit states in place)
        self.stats = {"steps": 0, "newton_iterations": 0, "jacobian_builds": 0,
                      "lu_factorizations": 0, "step_halvings": 0, "resolves": 0,
                      "residual_passes": 0, "newton_histogram": {}}

    def invalidate(self) -> None:
        self._jfull = None
        self._lu = None
        self._f_last = None
        self._past = None

    def _factor(self, z: np.ndarray, h: float):
        """LU factors of the step Jacobian, or None if d[f; g]/d[x; y] is not finite."""
        m = self.model
        if self._jfull is None:
            self.stats["jacobian_builds"] += 1
            self.stats["residual_passes"] += len(m.jacobian_structure()[1]) + 1
            jfull = _fd_jacobian(m, z)
            if not np.isfinite(jfull).all():
                return None
            self._jfull = jfull
            self._jac_steps = 0
            self._lu = None
        if self._lu is None or self._lu[0] != h:
            jac = np.vstack([-0.5 * h * self._jfull[: m.n_x], self._jfull[m.n_x:]])
            jac[: m.n_x, : m.n_x] += np.eye(m.n_x)
            self.stats["lu_factorizations"] += 1
            # finite, since jfull is: the check above
            self._lu = (h, scipy.linalg.lu_factor(jac, check_finite=False))
        return self._lu[1]

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        """(f, outputs) of `SystemModel.residual` at (x, y), from the cache
        when (x, y) has the values of the last evaluated point."""
        key = x.tobytes() + y.tobytes()
        if self._f_last is None or self._f_last[0] != key:
            self.stats["residual_passes"] += 1
            f, _, outputs = self.model.residual(x, y)
            self._f_last = (key, f, outputs)
        return self._f_last[1], self._f_last[2]

    def _newton(self, state: SystemState, h: float) -> np.ndarray | None:
        """[x; y] at t + h, or None when Newton fails.

        A non-finite iterate, residual or Jacobian is a failure, as is a
        nonzero `getrs` info or a residual still above tol after one
        Jacobian refresh.  f0 only enters as h f0, so at h = 0 (`resolve`)
        it is not evaluated, and the step history is neither read nor
        extended.
        """
        m = self.model
        n_x = m.n_x
        x0, y0 = state.x, state.y
        f0 = self.evaluate(x0, y0)[0] if h else 0.0
        hh = 0.5 * h
        base = x0 + hh * f0
        # the history continues only from the very point it ended on:
        # `evaluate` kept its cache entry when (x0, y0) has those values
        past = self._past
        points = past[2] if past and past[0] == h and past[1] is self._f_last else ()
        if len(points) == 3:
            z = 3.0 * (points[2] - points[1]) + points[0]
        elif len(points) == 2:
            z = 2.0 * points[1] - points[0]
        else:
            z = np.concatenate([x0 + h * f0, y0])
        stats = self.stats
        solves0 = stats["newton_iterations"]
        r1 = theta2 = 0.0
        for attempt in range(2):
            if attempt:
                # refresh the Jacobian at the current iterate and retry once
                self._jfull = None
            factors = self._factor(z, h)
            if factors is None:
                return None
            lu, piv = factors
            last = 0.0   # |dz|^2 of the previous update of this attempt
            for it in range(self.max_iter + 1):
                if not np.isfinite(z).all():
                    return None
                x, y = z[:n_x], z[n_x:]
                stats["residual_passes"] += 1
                f, g, outputs = m.residual(x, y)
                r = np.concatenate([x - base - hh * f, g])
                worst = np.abs(r).max()
                if worst < self.tol:
                    self._f_last = (z.tobytes(), f, outputs)
                    if h:
                        self._accept(z, h, points, stats["newton_iterations"] - solves0,
                                     r1 * theta2 ** 0.5)
                    return z
                if not np.isfinite(worst):
                    return None
                if it == 1 and not attempt:
                    r1 = worst
                if it < self.max_iter:
                    stats["newton_iterations"] += 1
                    # r is finite: the check just above
                    dz, info = lapack.dgetrs(lu, piv, r)
                    if info:
                        return None
                    size = dz @ dz
                    if last:
                        theta2 = size / last
                    last = size
                    z = z - dz
        return None

    def _accept(self, z: np.ndarray, h: float, points: tuple, solves: int,
                predicted: float) -> None:
        """Book an accepted step to z from the history `points`: its solve
        count, the extended history, and the refresh of a Jacobian that has
        paid for its build when `predicted` (r1 theta, the residual two
        solves would leave) is not below tol."""
        hist = self.stats["newton_histogram"]
        if solves in hist:
            hist[solves] += 1
        else:   # keep the keys in order
            self.stats["newton_histogram"] = dict(sorted({**hist, solves: 1}.items()))
        self._past = (h, self._f_last, points[-2:] + (z.copy(),))
        self._jac_steps += 1
        if (predicted >= self.tol
                and self._jac_steps > len(self.model.jacobian_structure()[1])):
            self._jfull = None
            self._lu = None

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
        self._past = None
        with np.errstate(all="ignore"):
            z = self._newton(state, 0.0)
        self._jfull = None
        self._lu = None
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
    ends.  Steps are exactly h: only a step that ends at an output time,
    an event or t_end is shorter, and a remainder within 1e-6 h of h is
    taken as h.  Channels default to every recordable trace; only the
    requested ones are computed.
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
                if abs(rem - h) <= 1e-6 * h:
                    # the rounding of the time grid: step exactly h, so
                    # every full step shares one LU factorization
                    state = integ.step(state, h)
                    break
                state = integ.step(state, min(rem, h))
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
    except StepError as exc:
        exc.t_last, exc.stats = state.t, integ.stats
        raise
    finally:
        if model.net is not net0:
            model.set_network(net0)

    data = {name: np.array([r[name] for r in rows]) for name in channels}
    return TimeSeries(times=np.array(times), channels=data, stats=integ.stats)
