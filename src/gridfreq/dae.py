"""Semi-explicit DAE assembly and implicit trapezoidal integration.

The differential states x stack the devices of one table, which the
residual evaluates in one loop (machines, then the optional converter);
the algebraic vector y holds the bus voltages (real parts, then imaginary
parts).  The network frame rotates at the centre-of-inertia speed, so a
post-disturbance steady state is a true equilibrium of the DAE.

Integration is simultaneous (monolithic) Newton on the coupled
trapezoidal/algebraic equations.  Newton starts from the polynomial
through the last accepted points of one step size, up to five of them
(a quartic; DASSL's predictor: Brenan, Campbell & Petzold, ch. 5), takes
its first update there with no residual pass, from the [f; g] the
last-point record keeps of those points, extrapolated the same way, and
iterates on a cached finite-difference Jacobian, which is rebuilt after a
network change, once the solves its steps took beyond their first have
cost three of its builds, or when Newton stalls.  Each build is reduced
once, the algebraic variables eliminated through g_y^-1, and the inverse
of the step Jacobian is assembled from that reduction: a step inverts the
n_x block I - h/2 A, and the network re-solve after an event, the same
Newton as the step at h = 0, inverts nothing.

A run that starts at rest takes no step before its first event: the
solution of a DAE from a consistent equilibrium is that equilibrium
(Brenan, Campbell & Petzold, ch. 5).  When max |[f; g]| at the initial
state is below the Newton tolerance, read from the pass the first step
would make there, and the step Jacobian factors there, `simulate` holds
the initial state until the first event (or t_end) and integrates from
that event on.

The Jacobian is differenced from the residual the simulator runs, in
column groups: `SystemModel.jacobian_structure` knows which rows each
column of [x; y] can touch (a device's rows read what its kernel's read
table lists, `machines.KERNEL_READS` or `cig.kernel_reads`; a bus's rows
read its Y-neighbours), and columns with disjoint rows are perturbed in
one residual pass (`group_residuals`, which `linearize` differences too):
every row is exactly that of one pass per column.  The colouring, first-fit
in smallest-last order, is computed once per distinct pattern in a
process.  The WSCC case needs 9 groups, the entries of its densest row; a
build is 10 passes in place of 46 (55 with the converter), the first of
them the residual pass of the Newton iterate it is taken at.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import cig as cigmod
from . import machines as smmod
from .casefile import Case, CIGSpec, MachineSpec
from .network import Branch, Bus, EventAction, Network, apply_event, solve_power_flow


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
    stats: dict[str, int | float | dict[int, int]] = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]


_SM_N = smmod.N_STATES

# converter control modes accepted by `build_system`
CONTROLS = ("no_cig", "cig_omega", "cig_omega_tilde")


class SystemModel:
    """Residual functions f (differential) and g (algebraic) of the grid.

    The device records in `machines` and `cig` are frozen: build a new
    model to change a parameter.  Only `simulate` changes the network,
    on its own copy of the model.

    The layout lives in two tables.  `_devices` has a row per device in
    x order: label, state names, states (a slice of x), kernel read table,
    frame input, bus index, kernel (its module's name and its own), the
    kernel's constants and the names of its outputs; `residual` evaluates
    every row in one loop, `_machine_block`.  `channels` maps each
    recordable name, in default order, to where `record` reads it:
    ("coi", None), ("x", index), ("v", bus index) or ("output", name of
    `cig.OUTPUT_NAMES`).
    """

    def __init__(self, net: Network, machines: list[MachineSpec],
                 cig: CIGSpec | None = None):
        if not machines:
            raise AssemblyError("no dynamic devices: at least one machine required")
        self.machines = machines
        self.cig = cig
        self.n_bus = net.n_bus
        self.omega_base = net.omega_base

        self.mach_bus = [net.bus_index(m.bus) for m in machines]
        self.cig_bus = net.bus_index(cig.bus) if cig else None
        self.coi_weights = smmod.coi_weights([m.params for m in machines]).tolist()
        self.speed_indices = [i * _SM_N + 1 for i in range(len(machines))]
        self._jac_structure = None   # (pattern, groups, group_of), built on first use
        self._set_network(net)

        n_sm = _SM_N * len(machines)
        self._devices = [(f"sm{k}", smmod.STATE_NAMES, slice(_SM_N * (k - 1), _SM_N * k),
                          smmod.KERNEL_READS, "omega_coi", b, smmod.__name__, "sm_kernel",
                          smmod.sm_kernel_params(m.params, m.avr, m.gov), ())
                         for k, (m, b) in enumerate(zip(machines, self.mach_bus), 1)]
        if cig:
            self._devices.append(("cig", cigmod.STATE_NAMES, slice(n_sm, n_sm + cigmod.N_STATES),
                                  cigmod.kernel_reads(cig.params), "omega_frame", self.cig_bus,
                                  cigmod.__name__, "cig_derivatives", cig.params, cigmod.OUTPUT_NAMES))
        self._output_names = tuple(name for *_, names in self._devices for name in names)
        self.channels = {"omega_coi": ("coi", None),
                         **{f"omega_sm{k}": ("x", i) for k, i in enumerate(self.speed_indices, 1)},
                         **{f"v_bus{b.id}": ("v", i) for i, b in enumerate(net.buses)},
                         **{name: ("output", name) for name in self._output_names}}
        self.n_x = self._devices[-1][2].stop
        self.state_labels = [f"{label}_{s}" for label, names, *_ in self._devices for s in names]

    def _set_network(self, net: Network) -> None:
        """Take net, Y as the real matrix [[G, -B], [B, G]], which maps
        y = [Re v; Im v] to [Re Yv; Im Yv], and conj(S) of every bus that
        carries a load.  Called by `__init__`, and by `simulate` on its own
        copy after events, which change only the loads and Y's diagonal:
        both lie inside `jacobian_structure`."""
        self.net = net
        ybus = net.ybus()
        n = self.n_bus
        y_real = np.empty((2 * n, 2 * n))
        y_real[:n, :n] = y_real[n:, n:] = ybus.real
        y_real[:n, n:] = -ybus.imag
        y_real[n:, :n] = ybus.imag
        self._y_real = y_real
        self._loads = [(i, complex(b.p_load, -b.q_load))
                       for i, b in enumerate(net.buses) if b.p_load or b.q_load]

    # -- Jacobian structure ---------------------------------------------

    def jacobian_structure(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """(pattern, groups, group_of) of d[f; g]/d[x; y], built on the
        first call and kept for the life of the model.

        pattern is the bool matrix of the entries that can be nonzero:
        every value a residual row reads.  A device's rows are those of its
        kernel's read table (`machines.KERNEL_READS`, `cig.kernel_reads`),
        its current in the balance of its bus; a bus's rows read its
        Y-neighbours and its own voltage.  groups partitions the columns
        so that two columns of one group touch disjoint rows; perturbing
        a whole group in one residual pass then gives each of its
        columns exactly the residual rows a pass of its own would
        (Curtis, Powell & Reid, IMA J. Appl. Math. 1974).  group_of is
        the same partition by column: group_of[j] is the index in groups
        of the group that holds column j.  Both are `_colouring`'s, shared
        read-only by every model of the same pattern.
        """
        if self._jac_structure is not None:
            return self._jac_structure
        n_x, n = self.n_x, self.n_bus
        pattern = np.zeros((n_x + 2 * n, n_x + 2 * n), dtype=bool)
        # the network: Y y, plus the Re/Im pair of each bus that its
        # loads and device injections read
        pattern[n_x:, n_x:] = (self._y_real != 0.0) | np.tile(np.eye(n, dtype=bool), (2, 2))
        # each device: the (row, column) pairs of its read table, on its
        # states, the Re/Im pair of its bus and the machine speeds
        speeds = self.speed_indices
        for _, names, states, reads, frame, b, *_ in self._devices:
            rows, cols = _read_pairs(names, tuple(reads.items()), frame, len(speeds))
            at = np.array([*range(n_x)[states], n_x + b, n_x + n + b, *speeds])
            pattern[at[rows], at[cols]] = True
        self._jac_structure = (pattern, *_colouring(pattern.tobytes(), pattern.shape))
        return self._jac_structure

    # -- state packing ----------------------------------------------------

    def coi_speed(self, x) -> float:
        """Centre-of-inertia speed sum(w_i omega_i) of the states x, a list or an array."""
        w_coi = 0.0
        for w, i in zip(self.coi_weights, self.speed_indices):
            w_coi += w * x[i]
        return float(w_coi)

    # -- residuals ---------------------------------------------------------

    def _machine_block(self, xl: list[float], yl: list[float], omega_coi: float):
        """(f, re, im, outputs): every device's derivatives in x order, the Re
        and Im parts of the per-bus injections, lists, and the devices' outputs
        by name, from the lists xl and yl = [Re v; Im v].  Each kernel is read
        from its module on every pass, so a patch made after the build runs."""
        n = self.n_bus
        f: list[float] = []
        re, im = [0.0] * n, [0.0] * n
        out: list[float] = []
        omega_base, modules = self.omega_base, sys.modules
        for _, _, states, _, _, b, module, kernel, prm, _ in self._devices:
            d, i, o = getattr(modules[module], kernel)(xl[states], complex(yl[b], yl[n + b]),
                                                       prm, omega_coi, omega_base)
            f += d
            re[b] += i.real
            im[b] += i.imag
            out += o
        return f, re, im, dict(zip(self._output_names, out))

    def residual(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        """Every device and the network evaluated once at (x, y).

        Returns ([f; g], outputs): one vector of the state derivatives f
        (its first n_x entries) and the nodal current balance
        g = I_inj(x, y) - I_load(y) - Ybus V; and the devices' outputs by
        name (the converter's `cig.OUTPUT_NAMES`), empty without a converter.
        Everything but Ybus V is computed on Python floats, a bus's balance as
        a (Re, Im) pair: its devices in x order, then its load.
        """
        n = self.n_bus
        xl, yl = x.tolist(), y.tolist()
        f, re, im, outputs = self._machine_block(xl, yl, self.coi_speed(xl))
        for b, s_conj in self._loads:
            i = s_conj / complex(yl[b], -yl[n + b])
            re[b] -= i.real
            im[b] -= i.imag
        f += re
        f += im
        r = np.array(f)
        r[self.n_x:] -= self._y_real @ y
        return r, outputs

    def f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Differential residual: the f part of `residual`."""
        return self.residual(x, y)[0][: self.n_x]

    def g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Algebraic residual (nodal current balance): the g part of `residual`."""
        return self.residual(x, y)[0][self.n_x:]

    # -- algebraic solve ---------------------------------------------------

    def solve_algebraic(self, x: np.ndarray, y0: np.ndarray) -> np.ndarray:
        """y with g(x, y) = 0 for fixed x, from y0: a fresh integrator's
        `TrapezoidalIntegrator.resolve`.  Raises StepError when Newton fails."""
        return TrapezoidalIntegrator(self).resolve(SystemState(x, y0, 0.0)).y


@functools.lru_cache(maxsize=8)
def _read_pairs(names: tuple[str, ...], reads: tuple[tuple[str, tuple[str, ...]], ...],
                frame: str, n_speeds: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) index arrays of a device kernel's read table, given as
    its (row, inputs) items.  They index the device's states, then its bus
    (Re, Im), then the n_speeds machine speeds: "current" is the bus's pair
    of rows, "v" its pair of columns and `frame` the speeds.  Cached, since
    every model builds its structure once from the same few tables."""
    n = len(names)
    at = {name: [k] for k, name in enumerate(names)}
    at.update({"current": [n, n + 1], "v": [n, n + 1], frame: range(n + 2, n + 2 + n_speeds)})
    rows, cols = [], []
    for row, inputs in reads:
        read = [c for name in inputs for c in at[name]]
        for r in at[row]:
            rows += [r] * len(read)
            cols += read
    return np.array(rows), np.array(cols)


def _column_groups(pattern: np.ndarray) -> list[np.ndarray]:
    """Greedy first-fit partition of the columns of pattern into groups
    whose columns touch disjoint rows, the columns taken in smallest-last
    order of their intersection graph (two columns are adjacent when they
    share a row): the column of least degree among those left is removed
    last-coloured-first, so a column meets few coloured neighbours (Matula
    & Beck, J. ACM 1983; Coleman & More, SIAM J. Numer. Anal. 1983).  Row
    sets are Python-int bitmasks; each group is sorted."""
    n = pattern.shape[1]
    adjacent = pattern.T.astype(np.intp) @ pattern > 0
    np.fill_diagonal(adjacent, False)
    degree = adjacent.sum(axis=1)
    order = []
    for _ in range(n):
        col = int(np.argmin(degree))
        order.append(col)
        degree -= adjacent[col]
        degree[col] = 2 * n   # removed: above any degree left
    packed = np.packbits(pattern.T, axis=1, bitorder="little")
    taken: list[int] = []
    members: list[list[int]] = []
    for col in reversed(order):
        mask = int.from_bytes(packed[col].tobytes(), "little")
        for k, rows in enumerate(taken):
            if not rows & mask:
                taken[k] = rows | mask
                members[k].append(col)
                break
        else:
            taken.append(mask)
            members.append([col])
    return [np.array(sorted(m)) for m in members]


@functools.lru_cache(maxsize=8)
def _colouring(bits: bytes, shape: tuple[int, int]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(groups, group_of) of `_column_groups` on the bool pattern of the
    given bytes and shape, read-only.  Cached, since the models of one
    layout share their pattern: each distinct one is coloured once."""
    groups = tuple(_column_groups(np.frombuffer(bits, dtype=bool).reshape(shape)))
    group_of = np.empty(shape[1], dtype=np.intp)
    for g, cols in enumerate(groups):
        group_of[cols] = g
        cols.flags.writeable = False
    group_of.flags.writeable = False
    return groups, group_of


# relative forward-difference step of the integrator's Jacobian
_FD_EPS_REL = 1e-7


def group_residuals(model: SystemModel, z0: np.ndarray, step: np.ndarray) -> np.ndarray:
    """[f; g] at z0 + step on each column group of `jacobian_structure`, one
    pass per group: entry (i, j) is row i of the pass that moved column j
    where the pattern has (i, j), else 0.  A difference of two over a step
    is the Jacobian, bitwise that of one pass per column.

    Row g of one (groups, n) array is the point of group g, z0 with its
    columns moved; the passes are stacked the same way and scattered into
    the columns in one `np.where` through group_of, which only selects."""
    pattern, groups, group_of = model.jacobian_structure()
    n_x = model.n_x
    z = np.tile(z0, (len(groups), 1))
    z[group_of, np.arange(z0.size)] += step
    passes = np.array([model.residual(zg[:n_x], zg[n_x:])[0] for zg in z])
    return np.where(pattern, passes[group_of].T, 0.0)


def _fd_jacobian(model: SystemModel, z0: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """d[f; g]/d[x; y] at z0, the forward difference of `group_residuals`
    from r0, [f; g] at z0: len(groups) residual passes."""
    eps = _FD_EPS_REL * (1.0 + np.abs(z0))
    r0_cols = np.where(model.jacobian_structure()[0], r0[:, None], 0.0)
    return (group_residuals(model, z0, eps) - r0_cols) / eps


def reduce_algebraic(f_x: np.ndarray, f_y: np.ndarray, g_x: np.ndarray,
                     g_y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(G, M, A) = (g_y^-1, G g_x, f_x - f_y M) of the blocks of
    d[f; g]/d[x; y], or None when g_y is singular: the algebraic variables
    eliminated, so that dx/dt = A dx on the linearized DAE.  The trapezoidal
    step and `smallsignal.linearize` both reduce through it; the DAE is
    index 1 only where g_y is regular (Brenan, Campbell & Petzold, ch. 5)."""
    try:
        g = np.linalg.inv(g_y)
    except np.linalg.LinAlgError:
        return None
    m = g @ g_x
    return g, m, f_x - f_y @ m


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

    A converter control needs exactly one CIG record in the case
    (AssemblyError otherwise).  When the converter is enabled its
    scheduled power is taken from the highest-dispatch PV unit, mirroring
    how the bundled case accommodates the converter injection (a case
    without a PV bus is an AssemblyError).  A
    converter with a nonzero step-up transformer reactance x_t is placed
    on a synthesized terminal bus behind that reactance; its point of
    connection stays the bus named in the case.  freq_loop=False leaves the converter connected but opens
    its frequency-control loop (measurements stay live), as used by the
    small-signal observability analysis.  The case is left as it was: the
    model takes the set points `initialize_sm` and `initialize_cig` return.
    k other than None or a finite real number is a ValueError.
    """
    if control not in CONTROLS:
        raise ValueError(f"unknown control mode {control!r}")
    if k is not None and not (isinstance(k, numbers.Real) and math.isfinite(k)):
        raise ValueError(f"k must be None or a finite real number, got {k!r}")
    # the build extends and re-dispatches the network: it works on a copy
    net = case.network.copy()
    cig_bus = cp = None
    if control != "no_cig":
        if len(case.cigs) != 1:
            raise AssemblyError(f"a converter control needs one CIG record, "
                                f"the case has {len(case.cigs)}")
        c, = case.cigs
        if control == "cig_omega":
            k = 0.0
        # K a Python float, as every device-kernel constant is: see README
        cp = replace(c.params, K=float(c.params.K if k is None else k),
                     freq_loop=bool(freq_loop))
        cig_bus = c.bus
        if cp.x_t > 0.0:
            cig_bus = max(b.id for b in net.buses) + 1
            net = Network(
                buses=net.buses + [Bus(id=cig_bus, kind="pq")],
                branches=net.branches + [Branch(from_bus=c.bus, to_bus=cig_bus,
                                                r=0.0, x=cp.x_t)],
                s_base=net.s_base, f_base=net.f_base)
        cbus = net.bus(cig_bus)
        cbus.p_gen += cp.p_ref
        cbus.q_gen += cp.q_ref
        pv = [b for b in net.buses if b.kind == "pv"]
        if not pv:
            raise AssemblyError("no PV unit can supply the converter's p_ref: "
                                "the case has no PV bus")
        donor = max(pv, key=lambda b: b.p_gen)
        donor.p_gen -= cp.p_ref

    pf = solve_power_flow(net)
    vsol = pf.v_complex()

    machines, states = [], []   # states in device order: machines, then the converter
    for m in case.machines:
        i = net.bus_index(m.bus)
        p_disp = pf.p_inj[i] + net.buses[i].p_load
        q_disp = pf.q_inj[i] + net.buses[i].q_load
        if m.bus == cig_bus:
            p_disp -= cp.p_ref
            q_disp -= cp.q_ref
        state, avr, gov = smmod.initialize_sm(vsol[i], p_disp, q_disp, m.params, m.avr, m.gov)
        states.append(state)
        machines.append(replace(m, avr=avr, gov=gov))

    cig_spec = None
    if cp is not None:
        cig_state, cp = cigmod.initialize_cig(vsol[net.bus_index(cig_bus)], cp)
        cig_spec = CIGSpec(cig_bus, cp)
        states.append(cig_state)

    model = SystemModel(net, machines, cig_spec)
    x0 = np.concatenate(states)
    y0 = np.concatenate([vsol.real, vsol.imag])
    return model, SystemState(x=x0, y=y0, t=0.0)


# ---------------------------------------------------------------------------
# Trapezoidal integration
# ---------------------------------------------------------------------------

# accepted points of one h that the Newton predictor extrapolates through:
# the quartic through five took fewer residual passes on the paper's load
# loss than the cubic through four or the quintic through six
_HISTORY = 5

# weights of the extrapolation through k equally spaced points, oldest
# first: the polynomial of degree k - 1 through them, one spacing on, is
# the point whose k-th backward difference is zero
_PREDICTOR_WEIGHTS = {k: np.array([(-1) ** (k - 1 - i) * math.comb(k, i) for i in range(k)],
                                   dtype=float)
                      for k in range(2, _HISTORY + 1)}


# the solves beyond the first that the steps on one Jacobian may take, in
# builds of it (len(groups) + 1 passes each), before the next step builds
# another: see `TrapezoidalIntegrator`
_REFRESH_BUILDS = 3


class TrapezoidalIntegrator:
    """Implicit trapezoidal stepper with a cached finite-difference Jacobian.

    Each Newton iterate costs one `SystemModel.residual` pass and one
    product with the cached inverse of the step Jacobian.  Newton starts
    from an extrapolation of the last k <= 5 accepted points (`_HISTORY`) when
    k >= 2 and they are steps of the same h taken one after the other
    since the last `resolve`: the polynomial of degree k - 1 through them,
    one formula for every k (`_PREDICTOR_WEIGHTS`), so a quartic once five
    steps of one h are behind it.  Otherwise it starts from the explicit
    Euler point with y held.  From the polynomial start, while a reduced
    Jacobian is held, the first update takes no pass: the points' [f; g]
    are extrapolated with the same weights, and the step residual
    r~ = [x_p - x0 - h/2 (f0 + f~); g~] formed from them gives
    z_p - J^-1 r~, counted in `stats["extrapolated_starts"]`.  The Newton
    noise of the points, which sets the true residual at z_p, enters r~
    through the same weights: on the 10 s load loss r~ is within a median
    4.7e-9 (`no_cig`) and 9.0e-10 (`cig_omega_tilde`) of it.  Every
    accepted point still passes the residual test of the loop.  Two
    records are kept, each with one reset.  The last point (bytes of
    [x; y], [f; g], outputs, h, history): an accepted iterate writes it
    with its history extended, a cache miss of `evaluate` with none; a
    step from (x, y) of those values reuses its f as f0 and, at that h,
    its history; `rests` reads its [f; g]; `simulate` records its
    outputs; `resolve` clears it.  The history is one stacked (k, 2n)
    array, each row a point [x; y] and its [f; g], oldest first, so the
    predictor and its [f; g] are one matmul on it.  The inverse of the
    step Jacobian, for the h of the last step: cleared only where a
    Jacobian is built, assembled again for another h.

    A Jacobian build is reduced once (`reduce_algebraic`: G = g_y^-1,
    M = G g_x, A = f_x - f_y M), and the inverse of the step Jacobian
    [[I - h/2 f_x, -h/2 f_y], [g_x, g_y]] is assembled from it by blocks:
    with P = (I - h/2 A)^-1 and T = h/2 P f_y G it is
    [[P, T], [-M P, G - M T]], and at h = 0 (`resolve`) [[I, 0], [-M, G]],
    whose x-rows are exact.  So no call inverts a matrix larger than g_y
    or the n_x block.

    The Jacobian is kept across steps (chord Newton; Hairer & Wanner,
    Solving ODEs II, sec. IV.8) and refreshed by rent or buy (Karlin,
    Manasse, Rudolph & Sleator, Algorithmica 1988).  Each accepted step
    adds the solves its Newton loop took beyond its first, each a residual
    pass that a fresher Jacobian might have saved (the update of an
    extrapolated start is the step's first solve, but it is not charged:
    it takes no pass); once they sum to `_REFRESH_BUILDS`
    = 3 builds (`len(groups) + 1` passes each, one of them the pass of the
    iterate a build is taken at: 30 on the WSCC case), the Jacobian is
    dropped and the next step builds one at its start.  A build resets the
    sum.  Three, not one: a fresh Jacobian does not remove every extra
    solve, since the steps just after a load change take a second one on
    any Jacobian.  At one build's worth, a storm of load steps 0.1 s apart
    rebuilds after almost every event although the next event's re-solve
    builds one anyway (4 448 passes on the benchmark's seed 0 against
    4 163 at three, and 4 170 at two), while the 10 s load loss takes
    11 562-11 669 passes over its three controls at any multiple from two
    to six (both runs integrated from t0, not held at rest).  A stalled
    Newton refreshes the Jacobian at once, and the step charges it only the
    solves of the attempt that ran on it.

    `stats` counts what the integrator did: accepted steps (halves of a
    halved step each count), Newton iterations (linear solves, the update
    of an extrapolated start included), `extrapolated_starts`, the steps
    whose first update came from the extrapolated [f; g], Jacobian
    builds, the Jacobians the rent-or-buy rule dropped
    (`jacobian_refreshes`), the `np.linalg.inv` calls (`lu_factorizations`:
    g_y once per build, and I - h/2 A once per build and nonzero h; an
    h = 0 re-solve on a reduced Jacobian inverts nothing), step halvings,
    network re-solves, residual passes (Jacobian builds and cache misses of
    `evaluate` included), `newton_histogram`, the accepted steps counted by
    the solves each took, `max_residual`, the largest final max |residual| of an accepted
    step or re-solve, and `held_s`, the simulated time `simulate` held the
    initial state at rest (0.0 when it did not).
    """

    tol = 1e-8       # Newton convergence: max |residual| of the step; also the
                     # bound on max |[f; g]| of a state at rest (`rests`,
                     # `smallsignal.linearize`)
    max_iter = 8     # Newton iterations per attempt; a stalled attempt
                     # refreshes the Jacobian and tries once more

    def __init__(self, model: SystemModel):
        self.model = model
        self._reduced = None   # (G, M, A, f_y G) of d[f; g]/d[x; y] at the last build point
        self._inv = None       # (h, inverse of the step Jacobian for h)
        self._n_groups = len(model.jacobian_structure()[1])   # passes a build adds
        self._extra_solves = 0   # solves beyond the first of the steps accepted on _reduced
        self._last = None      # (bytes of [x; y], [f; g], outputs there, h of the step
                               # that accepted it, a (k, 2n) copy of that step's last
                               # k <= _HISTORY points and their [f; g]: callers may
                               # edit states in place)
        self.stats = {"steps": 0, "newton_iterations": 0, "extrapolated_starts": 0,
                      "jacobian_builds": 0, "jacobian_refreshes": 0,
                      "lu_factorizations": 0, "step_halvings": 0,
                      "resolves": 0, "residual_passes": 0, "newton_histogram": {},
                      "max_residual": 0.0, "held_s": 0.0}

    def _factor(self, z: np.ndarray, h: float, r0: np.ndarray):
        """Inverse of the step Jacobian for h, assembled from the reduction
        of d[f; g]/d[x; y] (see the class docstring), or None if that
        Jacobian is not finite or g_y or I - h/2 A is singular.  A Jacobian
        built here is differenced from r0, [f; g] at z: the pass of Newton's
        first iterate, so a build adds len(groups)."""
        n_x = self.model.n_x
        if self._reduced is None:
            self.stats["jacobian_builds"] += 1
            self.stats["residual_passes"] += self._n_groups
            jfull = _fd_jacobian(self.model, z, r0)
            if not np.isfinite(jfull).all():
                return None
            self.stats["lu_factorizations"] += 1
            f_y = jfull[:n_x, n_x:]
            reduced = reduce_algebraic(jfull[:n_x, :n_x], f_y, jfull[n_x:, :n_x],
                                       jfull[n_x:, n_x:])
            if reduced is None:
                return None
            g, m, a = reduced
            self._reduced = (g, m, a, f_y @ g)
            self._extra_solves = 0
            self._inv = None
        if self._inv is None or self._inv[0] != h:
            g, m, a, fy_g = self._reduced
            if h:
                self.stats["lu_factorizations"] += 1
                try:
                    p = np.linalg.inv(np.eye(n_x) - 0.5 * h * a)
                except np.linalg.LinAlgError:
                    return None
                t = 0.5 * h * (p @ fy_g)
                blocks = p, t, -(m @ p), g - m @ t
            else:   # P = I and T = 0: nothing to invert or multiply
                blocks = np.eye(n_x), 0.0, -m, g
            inv = np.empty((z.size, z.size))   # filled by slices: np.block costs more
            inv[:n_x, :n_x], inv[:n_x, n_x:], inv[n_x:, :n_x], inv[n_x:, n_x:] = blocks
            self._inv = (h, inv)
        return self._inv[1]

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        """(f, outputs) of `SystemModel.residual` at (x, y), from the cache
        when (x, y) has the values of the last evaluated point."""
        key = x.tobytes() + y.tobytes()
        if self._last is None or self._last[0] != key:
            self.stats["residual_passes"] += 1
            r, outputs = self.model.residual(x, y)
            self._last = (key, r, outputs, None, ())
        return self._last[1][: self.model.n_x], self._last[2]

    def rests(self, state: SystemState, h: float) -> bool:
        """Whether state is at rest, so that a run may hold it: max |[f; g]|
        there, from `evaluate` (the pass a first step from it makes), lies
        below tol, and the inverse of the step Jacobian for h, built there
        from that pass, exists.  A state that rests has taken the pass and
        the build of a first step; one that does not, only the pass.  A run
        steps from a state whose Jacobian does not factor, as from one off
        rest, and its first step fails on that Jacobian."""
        self.evaluate(state.x, state.y)
        r = self._last[1]
        if not float(np.maximum.reduce(np.abs(r))) < self.tol:
            return False
        with np.errstate(all="ignore"):
            return self._factor(np.concatenate([state.x, state.y]), h, r) is not None

    def _newton(self, state: SystemState, h: float) -> np.ndarray | None:
        """[x; y] at t + h, or None when Newton fails.

        A non-finite iterate, residual or Jacobian is a failure, as is a
        singular g_y or I - h/2 A or a residual still above tol after one
        Jacobian refresh.  An extrapolated start (see the class docstring)
        takes the inverse of the step Jacobian (`_factor`) at the
        predictor, from the held reduction, before its first pass.  Any
        other attempt takes it after the residual pass of its first
        iterate, which is the base of a Jacobian built there.  f0 only enters as
        h f0, so at h = 0 (`resolve`) it is not evaluated, and the step
        history is neither read nor extended.  The start point of each
        attempt is checked to be finite, and then every update: an iterate
        is finite when both are.
        """
        m = self.model
        n_x = m.n_x
        x0, y0 = state.x, state.y
        f0, history = 0.0, ()
        if h:
            rec = self._last
            if rec is None or rec[0] != x0.tobytes() + y0.tobytes():
                self.evaluate(x0, y0)   # a miss: one pass records (x0, y0)
                rec = self._last
            # a step of the h that accepted (x0, y0) extends its history
            f0, history = rec[1][:n_x], rec[4] if rec[3] == h else ()
        hh = 0.5 * h
        base = x0 + hh * f0
        stats = self.stats
        solves0 = stats["newton_iterations"]
        inv = None
        if len(history) >= 2:
            # rows [x; y; f; g]: the predictor and its extrapolated [f; g],
            # sliced (np.split takes about 10 us, most of what the start saves)
            zr = _PREDICTOR_WEIGHTS[len(history)] @ history
            z, r = zr[:zr.size // 2], zr[zr.size // 2:]
            if self._reduced is not None:
                # the first update from the extrapolated step residual, which
                # carries the Newton noise of the points as z does: no pass
                r[:n_x] = z[:n_x] - base - hh * r[:n_x]
                inv = self._factor(z, h, r)
                if inv is None:
                    return None
                stats["newton_iterations"] += 1
                stats["extrapolated_starts"] += 1
                z -= inv @ r
        else:
            z = np.concatenate([x0 + h * f0, y0])
        for attempt in range(2):
            if attempt:
                # refresh the Jacobian at the current iterate and retry once
                self._reduced = inv = None
            attempt0 = stats["newton_iterations"]
            if not np.logical_and.reduce(np.isfinite(z)):
                return None
            for it in range(self.max_iter + 1):
                x = z[:n_x]
                stats["residual_passes"] += 1
                r, outputs = m.residual(x, z[n_x:])
                if inv is None:
                    # inverted before the convergence test, so that a start
                    # accepted at once still builds the Jacobian it lacks
                    inv = self._factor(z, h, r)
                    if inv is None:
                        return None
                fg = r.copy()   # for the cache: r becomes [x - base - hh f; g]
                rx = np.subtract(x, base, out=r[:n_x])
                rx -= hh * fg[:n_x]
                worst = float(np.maximum.reduce(np.abs(r)))
                if worst < self.tol:
                    stats["max_residual"] = max(stats["max_residual"], worst)
                    if h:
                        point = np.concatenate((z, fg))[None]
                        history = (np.concatenate((history[1 - _HISTORY:], point))
                                   if len(history) else point)
                        solves = stats["newton_iterations"]
                        self._accept(solves - solves0, solves - attempt0)
                    self._last = (z.tobytes(), fg, outputs, h, history)
                    return z
                if not math.isfinite(worst):
                    return None
                if it < self.max_iter:
                    stats["newton_iterations"] += 1
                    dz = inv @ r
                    if not dz @ dz < math.inf:
                        return None
                    z -= dz
        return None

    def _accept(self, solves: int, on_jacobian: int) -> None:
        """Book an accepted step: the solves it took in the histogram, and
        those beyond the first of the on_jacobian it took on the present
        Jacobian (all of them, unless a stall built that one) against it;
        it is dropped once they reach `_REFRESH_BUILDS` builds' worth of
        passes."""
        hist = self.stats["newton_histogram"]
        if solves in hist:
            hist[solves] += 1
        else:   # keep the keys in order
            self.stats["newton_histogram"] = dict(sorted({**hist, solves: 1}.items()))
        self._extra_solves += max(on_jacobian - 1, 0)
        if self._extra_solves >= _REFRESH_BUILDS * (self._n_groups + 1):
            self._reduced = None
            self.stats["jacobian_refreshes"] += 1

    def step(self, state: SystemState, h: float, _depth: int = 0) -> SystemState:
        """state advanced by h; Newton failures halve the step, up to 4 times."""
        if not 0.0 < h < math.inf:
            raise ValueError(f"step size must be finite and positive, got {h:g}")
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
        Jacobian [[I, 0], [g_x, g_y]], whose inverse [[I, 0], [-M, G]] is
        assembled from the Jacobian's reduction with no inversion, and whose
        x-rows leave x as it was; the returned state carries a copy of the
        given x.  Newton starts on the Jacobian of the last step (chord
        Newton converges on the true residual) and
        refreshes it if that stalls.  It clears the last-point record, which
        the accepted point starts afresh, and drops the Jacobian unless the
        re-solve built it (then it is the post-event network's, taken near
        the accepted point).  Raises StepError when Newton fails.
        """
        self._last = None
        builds = self.stats["jacobian_builds"]
        with np.errstate(all="ignore"):
            z = self._newton(state, 0.0)
        if self.stats["jacobian_builds"] == builds:
            self._reduced = None
        if z is None:
            raise StepError(f"Newton failed at t={state.t:.4f}s with h=0")
        self.stats["resolves"] += 1
        return SystemState(x=state.x.copy(), y=z[self.model.n_x:], t=state.t)


# ---------------------------------------------------------------------------
# Scenario simulation
# ---------------------------------------------------------------------------

def record(model: SystemModel, state: SystemState, channels: list[str] | None,
           evaluate) -> dict[str, float]:
    """Values of the named channels (None: all of `SystemModel.channels`, in
    its order) at one state.

    Only the requested channels are computed, each where the channel table
    says.  The converter channels come from `evaluate(x, y) -> (f, outputs)`;
    `simulate` passes its integrator's `TrapezoidalIntegrator.evaluate`,
    which returns the outputs of the accepted Newton residual without a new
    pass.  A run that records none of them never calls `evaluate`.
    """
    table, n = model.channels, model.n_bus
    x = state.x.tolist()
    out: dict[str, float] = {}
    y = outputs = None
    for name in table if channels is None else channels:
        source, at = table[name]
        if source == "v":
            if y is None:
                y = state.y.tolist()
            out[name] = abs(complex(y[at], y[n + at]))
        elif source == "x":
            out[name] = x[at]
        elif source == "coi":
            out[name] = model.coi_speed(x)
        else:
            if outputs is None:
                outputs = evaluate(state.x, state.y)[1]
            out[name] = outputs[at]
    return out


def simulate(model: SystemModel, state0: SystemState, events: list[Event],
             t_end: float, h: float = 0.01, output_dt: float = 0.01,
             channels: list[str] | None = None) -> TimeSeries:
    """Integrate over [t0, t_end], applying timed events.

    Events are applied exactly at their times, to a copy of the model:
    every event of one instant is applied to its network, the algebraic
    variables are re-solved once with the differential states frozen, and
    integration resumes.  The caller's model is left as it was, however
    the run ends.  The copy is shallow, so an instance attribute that
    shadows a `SystemModel` method would be carried into it still bound to
    the caller's model: such a model raises ValueError, and a run is
    instrumented by patching the class.
    Steps are exactly h: only a step that ends at an output time, an event
    or t_end is shorter, and a remainder within 1e-6 h of h is taken as h.
    A run whose initial state is at rest (`TrapezoidalIntegrator.rests`:
    max |[f; g]| below the Newton tolerance, and a step Jacobian for h that
    factors there) holds it until the first event after t0 is applied, or
    to t_end without one: it takes no step, every row of that span records
    the initial state, and `stats["held_s"]` is the time held.  From that
    event on, and from t0 in a run not at rest, it integrates.
    Channels default to every name of `SystemModel.channels`; only the
    requested ones are computed.  Raises ValueError, before any step, when
    h, output_dt or the horizon t_end - t0 is not finite and positive, or a
    channel is not such a name.
    """
    for name, value in (("h", h), ("output_dt", output_dt), ("t_end - t0", t_end - state0.t)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value:g}")
    for name in vars(model):
        if callable(getattr(type(model), name, None)):
            raise ValueError(f"the model's instance attribute {name!r} shadows the method "
                             f"of its class, which the run's copy would call on this "
                             f"model: patch the class instead")
    known = list(model.channels)
    if channels is None:
        channels = known
    unknown = [c for c in channels if not isinstance(c, str) or c not in model.channels]
    if unknown:
        raise ValueError(f"unknown channels {unknown}; recordable: {known}")

    events = sorted(events, key=lambda e: e.time)
    for ev in events:
        if not (state0.t <= ev.time <= t_end):
            raise ValueError(f"event at t={ev.time} outside the horizon")

    # a shallow copy suffices: `_set_network` rebinds every array it derives
    model = copy.copy(model)
    integ = TrapezoidalIntegrator(model)
    state = state0.copy()
    t0 = state.t
    times = [state.t]
    rows = [record(model, state, channels, integ.evaluate)]
    n_out = 1
    pending = list(events)
    eps = 1e-9
    # held until an event changes the model: no step is taken before it
    t_hold = pending[0].time if pending else t_end
    holding = t_hold - t0 > eps and integ.rests(state, h)
    if holding:
        integ.stats["held_s"] = t_hold - t0

    try:
        while state.t < t_end - eps:
            t_stop = min(t0 + n_out * output_dt, t_end)
            if pending:
                t_stop = min(t_stop, pending[0].time)
            while not holding and state.t < t_stop - eps:
                rem = t_stop - state.t
                if abs(rem - h) <= 1e-6 * h:
                    # the rounding of the time grid: step exactly h, so
                    # every full step shares one inverse
                    state = integ.step(state, h)
                    break
                state = integ.step(state, min(rem, h))
            state.t = t_stop
            net = model.net
            while pending and abs(state.t - pending[0].time) <= eps:
                ev = pending.pop(0)
                net = apply_event(net, ev.action)
            if net is not model.net:
                holding = False
                model._set_network(net)
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

    data = {name: np.array([r[name] for r in rows]) for name in channels}
    return TimeSeries(times=np.array(times), channels=data, stats=integ.stats)
