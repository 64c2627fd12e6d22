"""Static network model, Ybus construction, Newton power flow, events.

All quantities per-unit on the system base unless stated otherwise.
Networks are treated as immutable: event application returns a modified
copy, so a solved base case can be shared across scenario runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NetworkError(ValueError):
    """Inconsistent network data (duplicate ids, missing slack, ...)."""


class PowerFlowError(RuntimeError):
    """Newton power flow failed to converge."""


@dataclass
class Bus:
    id: int
    kind: str  # "slack" | "pv" | "pq"
    v_set: float = 1.0
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("slack", "pv", "pq"):
            raise NetworkError(f"bus {self.id}: unknown kind {self.kind!r}")


@dataclass
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_half: float = 0.0
    tap: float = 1.0
    status: int = 1

    def __post_init__(self) -> None:
        if self.x == 0.0:
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: x must be nonzero")
        if self.from_bus == self.to_bus:
            raise NetworkError(f"branch at bus {self.from_bus}: from == to")


@dataclass
class Network:
    buses: list[Bus]
    branches: list[Branch]
    s_base: float = 100.0
    f_base: float = 60.0
    # transient fault shunts keyed by bus id (added by FaultOn, removed by FaultOff)
    fault_shunts: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise NetworkError(f"expected exactly one slack bus, found {len(slacks)}")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise NetworkError(f"branch {br.from_bus}-{br.to_bus} references unknown bus")
        self._index = {bid: i for i, bid in enumerate(ids)}
        self._ybus = None   # `ybus()`, built on the first call

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise NetworkError(f"unknown bus id {bus_id}") from None

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index(bus_id)]

    @property
    def omega_base(self) -> float:
        return 2.0 * np.pi * self.f_base

    def ybus(self) -> np.ndarray:
        """`build_ybus` of this network, built on the first call and kept,
        read-only.  Networks are treated as immutable, so change a copy's
        branches, shunts or fault shunts (`apply_event`), not those of a
        network whose Y has been taken; a copy takes Y afresh, except that
        `apply_event` hands a load change the Y it leaves as it was."""
        if self._ybus is None:
            self._ybus = build_ybus(self)
            self._ybus.flags.writeable = False
        return self._ybus

    def copy(self) -> "Network":
        """A copy sharing no mutable part with self.

        Buses and branches hold only scalars, so a new instance over a copy
        of each one's attribute dict, with a new fault-shunt dict, is
        enough.  `copy.copy` would do the same through its generic reduce
        protocol at about four times the cost per instance, and every
        `build_system` and every event (`apply_event`) copies a network.
        """
        return Network(buses=[_clone(b) for b in self.buses],
                       branches=[_clone(br) for br in self.branches],
                       s_base=self.s_base, f_base=self.f_base,
                       fault_shunts=dict(self.fault_shunts))


def _clone(obj):
    """A new instance of obj's class over a copy of its attribute dict."""
    new = object.__new__(type(obj))
    new.__dict__ = obj.__dict__.copy()
    return new


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadScale:
    bus: int
    factor: float


@dataclass(frozen=True)
class FaultOn:
    bus: int
    g: float = 1e4
    b: float = 0.0


@dataclass(frozen=True)
class FaultOff:
    bus: int


EventAction = LoadScale | FaultOn | FaultOff


def apply_event(net: Network, event: EventAction) -> Network:
    """Return a copy of net (`Network.copy`) with the event applied.  A load
    change keeps net's Y (`Network.ybus`), if taken: loads are not in it."""
    out = net.copy()
    i = out.bus_index(event.bus)
    if isinstance(event, LoadScale):
        out.buses[i].p_load *= event.factor
        out.buses[i].q_load *= event.factor
        out._ybus = net._ybus
    elif isinstance(event, FaultOn):
        out.fault_shunts[event.bus] = complex(event.g, event.b)
    elif isinstance(event, FaultOff):
        out.fault_shunts.pop(event.bus, None)
    else:
        raise TypeError(f"unknown event {event!r}")
    return out


# ---------------------------------------------------------------------------
# Admittance matrix
# ---------------------------------------------------------------------------

def build_ybus(net: Network) -> np.ndarray:
    """Dense complex bus admittance matrix including shunts and fault shunts."""
    n = net.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        if not br.status:
            continue
        i = net.bus_index(br.from_bus)
        k = net.bus_index(br.to_bus)
        ys = 1.0 / complex(br.r, br.x)
        ysh = complex(0.0, br.b_half)
        t = br.tap
        # tap on the from side: standard pi-model scaling
        y[i, i] += (ys + ysh) / (t * t)
        y[k, k] += ys + ysh
        y[i, k] -= ys / t
        y[k, i] -= ys / t
    for j, bus in enumerate(net.buses):
        y[j, j] += complex(bus.shunt_g, bus.shunt_b)
    for bid, ysh in net.fault_shunts.items():
        j = net.bus_index(bid)
        y[j, j] += ysh
    return y


# ---------------------------------------------------------------------------
# Newton-Raphson power flow
# ---------------------------------------------------------------------------

@dataclass
class PFSolution:
    v_mag: np.ndarray
    v_ang: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    iterations: int
    max_mismatch: float

    def v_complex(self) -> np.ndarray:
        return self.v_mag * np.exp(1j * self.v_ang)


# Newton iterations before the power flow gives up
_PF_MAX_ITER = 30


def solve_power_flow(net: Network, tol: float = 1e-8) -> PFSolution:
    """Full-Newton power flow in polar coordinates from a flat start.

    Scheduled injections are p_gen - p_load (and q for PQ buses); the
    slack absorbs the balance and PV buses hold v_set.  Raises ValueError
    when tol, the mismatch tolerance, is not finite and positive.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"power-flow tolerance tol must be finite and positive, got {tol:g}")
    n = net.n_bus
    ybus = net.ybus()

    kind = [bus.kind for bus in net.buses]
    sl = kind.index("slack")
    # [theta; |V|] of every bus from a flat start, the slack and PV buses at v_set
    x = np.array([0.0] * n + [1.0 if k == "pq" else bus.v_set
                              for k, bus in zip(kind, net.buses)])
    va, vm = x[:n], x[n:]
    # the unknowns [theta non-slack; |V| pq]: so also the rows [P non-slack;
    # Q pq] of [P; Q], and the rows and columns of the full 2n x 2n Jacobian
    unknowns = np.array([i for i in range(n) if i != sl]
                        + [n + i for i in range(n) if kind[i] == "pq"], dtype=np.intp)
    sel = np.ix_(unknowns, unknowns)
    sched = np.array([bus.p_gen - bus.p_load for bus in net.buses]
                     + [bus.q_gen - bus.q_load for bus in net.buses])[unknowns]

    it = 0
    while True:
        v = vm * np.exp(1j * va)
        ivec = ybus @ v
        s = v * np.conj(ivec)
        mis = sched - np.concatenate([s.real, s.imag])[unknowns]
        max_mis = float(np.maximum.reduce(np.abs(mis), initial=0.0))
        if max_mis <= tol:
            break
        if not math.isfinite(max_mis):
            raise PowerFlowError(f"non-finite power-flow mismatch {max_mis} at iteration {it}")
        if it >= _PF_MAX_ITER:
            raise PowerFlowError(f"no convergence after {_PF_MAX_ITER} iterations, "
                                 f"mismatch {max_mis:.3e}")
        jac = _pf_jacobian(ybus, v, ivec, vm, sel)
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            raise PowerFlowError(f"singular power-flow Jacobian at iteration {it}") from None
        x[unknowns] += dx
        it += 1

    # the last mismatch pass was at the solution
    return PFSolution(v_mag=vm.copy(), v_ang=va.copy(), p_inj=s.real, q_inj=s.imag,
                      iterations=it, max_mismatch=max_mis)


def _pf_jacobian(ybus, v, ivec, vm, sel):
    """Polar power-flow Jacobian at the voltages v = vm e^(j theta), whose
    currents are ivec = ybus v: the rows and columns sel (an `np.ix_` pair)
    of the full [[dP/d theta, dP/d |V|], [dQ/d theta, dQ/d |V|]].

    dS/d theta and dS/d |V| are the standard complex products (MATPOWER's
    dSbus_dV); the real part of the stacked [dS/d theta, dS/d |V|] is the
    first n rows of the full matrix, its imaginary part the last n, so one
    selection takes every block.
    """
    diag_v = np.diag(v)
    diag_i = np.diag(ivec)
    diag_vnorm = np.diag(v / vm)
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    ds = np.concatenate([ds_dva, ds_dvm], axis=1)
    return np.concatenate([ds.real, ds.imag])[sel]
