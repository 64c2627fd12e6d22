"""Tests for the static network model, Ybus, power flow, and events."""

import numpy as np
import pytest

from gridfreq.casefile import load_bundled_case
from gridfreq.network import (
    Branch,
    Bus,
    FaultOff,
    FaultOn,
    LoadScale,
    Network,
    NetworkError,
    PowerFlowError,
    _pf_jacobian,
    apply_event,
    build_ybus,
    solve_power_flow,
)


def two_bus() -> Network:
    return Network(
        buses=[Bus(id=1, kind="slack", v_set=1.0),
               Bus(id=2, kind="pq", p_load=0.5, q_load=0.1)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.01, x=0.1)])


# ---------------------------------------------------------------------------
# Data validation
# ---------------------------------------------------------------------------

def test_duplicate_bus_ids_rejected():
    with pytest.raises(NetworkError):
        Network(buses=[Bus(id=1, kind="slack"), Bus(id=1, kind="pq")],
                branches=[])


def test_exactly_one_slack_required():
    with pytest.raises(NetworkError):
        Network(buses=[Bus(id=1, kind="pq")], branches=[])
    with pytest.raises(NetworkError):
        Network(buses=[Bus(id=1, kind="slack"), Bus(id=2, kind="slack")],
                branches=[])


def test_branch_validation():
    with pytest.raises(NetworkError):
        Branch(from_bus=1, to_bus=2, r=0.0, x=0.0)
    with pytest.raises(NetworkError):
        Branch(from_bus=3, to_bus=3, r=0.0, x=0.1)


def test_unknown_bus_reference_in_branch():
    with pytest.raises(NetworkError):
        Network(buses=[Bus(id=1, kind="slack")],
                branches=[Branch(from_bus=1, to_bus=9, r=0.0, x=0.1)])


# ---------------------------------------------------------------------------
# Ybus
# ---------------------------------------------------------------------------

def test_ybus_two_bus_by_hand():
    net = two_bus()
    y = 1.0 / complex(0.01, 0.1)
    yb = build_ybus(net)
    assert yb.shape == (2, 2)
    assert yb[0, 0] == pytest.approx(y)
    assert yb[0, 1] == pytest.approx(-y)
    assert yb[1, 0] == pytest.approx(-y)
    assert yb[1, 1] == pytest.approx(y)


def test_ybus_line_charging_and_shunt():
    net = two_bus()
    net.branches[0].b_half = 0.05
    net.buses[1].shunt_g = 0.02
    net.buses[1].shunt_b = 0.3
    y = 1.0 / complex(0.01, 0.1)
    yb = build_ybus(net)
    assert yb[0, 0] == pytest.approx(y + 0.05j)
    assert yb[1, 1] == pytest.approx(y + 0.05j + complex(0.02, 0.3))


def test_ybus_tap_on_from_side():
    net = two_bus()
    net.branches[0].tap = 0.98
    y = 1.0 / complex(0.01, 0.1)
    t = 0.98
    yb = build_ybus(net)
    assert yb[0, 0] == pytest.approx(y / t**2)
    assert yb[0, 1] == pytest.approx(-y / t)
    assert yb[1, 1] == pytest.approx(y)


def test_ybus_out_of_service_branch_ignored():
    net = two_bus()
    net.branches[0].status = 0
    yb = build_ybus(net)
    assert np.all(yb == 0)


def test_ybus_row_sums_without_shunts():
    # a pure series network has zero row sums (current conservation)
    net = load_bundled_case().network
    for br in net.branches:
        br.b_half = 0.0
    yb = build_ybus(net)
    assert np.max(np.abs(yb.sum(axis=1))) < 1e-12


# ---------------------------------------------------------------------------
# Power flow
# ---------------------------------------------------------------------------

def test_power_flow_two_bus_against_hand_solution():
    net = two_bus()
    pf = solve_power_flow(net)
    # verify the mismatch directly: S2 = V2 conj(Y V)_2 must equal -load
    yb = build_ybus(net)
    v = pf.v_complex()
    s2 = v[1] * np.conj(yb @ v)[1]
    assert s2.real == pytest.approx(-0.5, abs=1e-10)
    assert s2.imag == pytest.approx(-0.1, abs=1e-10)


def test_power_flow_wscc_matches_published_solution():
    """Bus voltages of the solved base case against the standard
    published values (magnitudes to 1e-3, angles to 0.05 deg)."""
    net = load_bundled_case().network
    pf = solve_power_flow(net)
    published = {
        1: (1.0400, 0.00), 2: (1.0250, 9.28), 3: (1.0250, 4.66),
        4: (1.0258, -2.22), 5: (0.9956, -3.99), 6: (1.0127, -3.69),
        7: (1.0258, 3.72), 8: (1.0159, 0.73), 9: (1.0324, 1.97),
    }
    for bid, (vm, va_deg) in published.items():
        i = net.bus_index(bid)
        assert pf.v_mag[i] == pytest.approx(vm, abs=1e-3)
        assert np.degrees(pf.v_ang[i]) == pytest.approx(va_deg, abs=0.05)
    # slack dispatch (published: P = 0.716, Q = 0.27)
    assert pf.p_inj[0] == pytest.approx(0.716, abs=2e-3)
    assert pf.q_inj[0] == pytest.approx(0.270, abs=2e-3)


def test_power_flow_converges_quadratically():
    net = load_bundled_case().network
    pf = solve_power_flow(net, tol=1e-12)
    assert pf.iterations <= 6
    assert pf.max_mismatch < 1e-12


def test_power_flow_respects_setpoints():
    net = load_bundled_case().network
    pf = solve_power_flow(net)
    for i, b in enumerate(net.buses):
        if b.kind in ("slack", "pv"):
            assert pf.v_mag[i] == pytest.approx(b.v_set, abs=1e-10)
        if b.kind == "pv":
            assert pf.p_inj[i] == pytest.approx(b.p_gen - b.p_load, abs=1e-8)


def test_power_flow_divergence_reported():
    net = two_bus()
    net.buses[1].p_load = 50.0  # far beyond the line's transfer capability
    with pytest.raises(PowerFlowError):
        solve_power_flow(net)


def test_power_flow_singular_jacobian_reported():
    """An isolated PQ bus leaves its Jacobian rows zero: a PowerFlowError
    naming the iteration, not numpy's LinAlgError."""
    net = Network(
        buses=[Bus(id=1, kind="slack"), Bus(id=2, kind="pq", p_load=0.5),
               Bus(id=3, kind="pq", p_load=0.2)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.01, x=0.1)])
    with pytest.raises(PowerFlowError, match="^singular power-flow Jacobian at iteration 0$"):
        solve_power_flow(net)


@pytest.mark.parametrize("load", [float("nan"), float("inf")])
def test_power_flow_non_finite_mismatch_fails_at_once(load):
    """A non-finite load fails before the first Newton update, with no
    warning (the suite turns warnings into errors)."""
    net = two_bus()
    net.buses[1].p_load = load
    with pytest.raises(PowerFlowError,
                       match=f"^non-finite power-flow mismatch {load} at iteration 0$"):
        solve_power_flow(net)


def _calc_injections(net, vm, va):
    """[P non-slack; Q pq] computed at (vm, va)."""
    v = vm * np.exp(1j * va)
    s = v * np.conj(build_ybus(net) @ v)
    kind = [b.kind for b in net.buses]
    non_slack = [i for i, k in enumerate(kind) if k != "slack"]
    pq = [i for i, k in enumerate(kind) if k == "pq"]
    return np.concatenate([s.real[non_slack], s.imag[pq]]), non_slack, pq


@pytest.mark.parametrize("point", ["flat", "solved"])
def test_pf_jacobian_equals_central_differences(point):
    """`_pf_jacobian` against central differences of [P; Q] over
    [theta non-slack; |V| pq] on the WSCC case, relative step 1e-6."""
    net = load_bundled_case().network
    n = net.n_bus
    if point == "flat":
        vm, va = np.ones(n), np.zeros(n)
    else:
        pf = solve_power_flow(net)
        vm, va = pf.v_mag, pf.v_ang
    _, non_slack, pq = _calc_injections(net, vm, va)
    unknowns = non_slack + [n + i for i in pq]
    ybus = build_ybus(net)
    v = vm * np.exp(1j * va)   # as the mismatch pass of `solve_power_flow`
    jac = _pf_jacobian(ybus, v, ybus @ v, vm, np.ix_(unknowns, unknowns))
    x = np.concatenate([va, vm])
    fd = np.empty_like(jac)
    for col, j in enumerate(unknowns):
        step = 1e-6 * max(abs(x[j]), 1.0)
        sides = []
        for sign in (1.0, -1.0):
            xs = x.copy()
            xs[j] += sign * step
            sides.append(_calc_injections(net, xs[n:], xs[:n])[0])
        fd[:, col] = (sides[0] - sides[1]) / (2.0 * step)
    assert jac.shape == (len(unknowns), len(unknowns))
    np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def test_load_scale_event_copies():
    net = two_bus()
    out = apply_event(net, LoadScale(bus=2, factor=0.5))
    assert out.bus(2).p_load == pytest.approx(0.25)
    assert out.bus(2).q_load == pytest.approx(0.05)
    assert net.bus(2).p_load == pytest.approx(0.5)  # original untouched


def test_event_copy_shares_no_mutable_part_with_the_source():
    net = two_bus()
    net.fault_shunts[1] = complex(2.0, 0.5)
    out = apply_event(net, FaultOn(bus=2, g=20.0))
    out.buses[0].shunt_b = 9.0
    out.buses[1].p_load = 7.0
    out.branches[0].x = 0.3
    out.fault_shunts[1] = 0j
    assert net.buses[0].shunt_b == 0.0 and net.buses[1].p_load == 0.5
    assert net.branches[0].x == 0.1
    assert net.fault_shunts == {1: complex(2.0, 0.5)}
    assert out.bus_index(2) == net.bus_index(2)
    assert (out.s_base, out.f_base) == (net.s_base, net.f_base)


def test_fault_on_off_roundtrip():
    net = two_bus()
    faulted = apply_event(net, FaultOn(bus=2, g=1e4))
    assert faulted.fault_shunts[2] == complex(1e4, 0.0)
    yb = build_ybus(faulted)
    assert yb[1, 1].real > 1e3
    cleared = apply_event(faulted, FaultOff(bus=2))
    assert 2 not in cleared.fault_shunts
    assert np.allclose(build_ybus(cleared), build_ybus(net))
