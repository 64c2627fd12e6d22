"""Static network model, Ybus construction, Newton power flow, events.

All quantities per-unit on the system base unless stated otherwise.
Networks are treated as immutable: event application returns a modified
copy, so a solved base case can be shared across scenario runs.
"""

from __future__ import annotations

import copy
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

    def copy(self) -> "Network":
        """A copy sharing no mutable part with self.

        Buses and branches hold only scalars, so a shallow copy of each,
        with a new fault-shunt dict, is enough.
        """
        return Network(buses=[copy.copy(b) for b in self.buses],
                       branches=[copy.copy(br) for br in self.branches],
                       s_base=self.s_base, f_base=self.f_base,
                       fault_shunts=dict(self.fault_shunts))


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
    """Return a copy of net (`Network.copy`) with the event applied."""
    out = net.copy()
    i = out.bus_index(event.bus)
    if isinstance(event, LoadScale):
        out.buses[i].p_load *= event.factor
        out.buses[i].q_load *= event.factor
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


def solve_power_flow(net: Network, tol: float = 1e-8, max_iter: int = 30) -> PFSolution:
    """Full-Newton power flow in polar coordinates from a flat start.

    Scheduled injections are p_gen - p_load (and q for PQ buses); the
    slack absorbs the balance and PV buses hold v_set.
    """
    n = net.n_bus
    ybus = build_ybus(net)
    g, b = ybus.real, ybus.imag

    kind = [bus.kind for bus in net.buses]
    pv = [i for i in range(n) if kind[i] == "pv"]
    pq = [i for i in range(n) if kind[i] == "pq"]
    sl = next(i for i in range(n) if kind[i] == "slack")
    non_slack = [i for i in range(n) if i != sl]

    p_sched = np.array([bus.p_gen - bus.p_load for bus in net.buses])
    q_sched = np.array([bus.q_gen - bus.q_load for bus in net.buses])

    vm = np.ones(n)
    va = np.zeros(n)
    for i in pv + [sl]:
        vm[i] = net.buses[i].v_set

    def injections(vm: np.ndarray, va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = vm * np.exp(1j * va)
        s = v * np.conj(ybus @ v)
        return s.real, s.imag

    it = 0
    while True:
        p_calc, q_calc = injections(vm, va)
        dp = p_sched[non_slack] - p_calc[non_slack]
        dq = q_sched[pq] - q_calc[pq]
        mis = np.concatenate([dp, dq])
        max_mis = float(np.max(np.abs(mis))) if mis.size else 0.0
        if max_mis <= tol:
            break
        if it >= max_iter:
            raise PowerFlowError(f"no convergence after {max_iter} iterations, mismatch {max_mis:.3e}")
        jac = _pf_jacobian(ybus, vm, va, non_slack, pq)
        dx = np.linalg.solve(jac, mis)
        va[non_slack] += dx[: len(non_slack)]
        vm[pq] += dx[len(non_slack):]
        it += 1

    p_calc, q_calc = injections(vm, va)
    return PFSolution(v_mag=vm.copy(), v_ang=va.copy(), p_inj=p_calc, q_inj=q_calc,
                      iterations=it, max_mismatch=max_mis)


def _pf_jacobian(ybus, vm, va, ang_idx, mag_idx):
    """Polar power-flow Jacobian rows [dP; dQ], columns [d theta; d |V|]."""
    n = len(vm)
    v = vm * np.exp(1j * va)
    ivec = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ivec)
    diag_vnorm = np.diag(v / vm)
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm

    j11 = ds_dva.real[np.ix_(ang_idx, ang_idx)]
    j12 = ds_dvm.real[np.ix_(ang_idx, mag_idx)]
    j21 = ds_dva.imag[np.ix_(mag_idx, ang_idx)]
    j22 = ds_dvm.imag[np.ix_(mag_idx, mag_idx)]
    return np.block([[j11, j12], [j21, j22]])
