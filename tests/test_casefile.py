"""Tests for the line-oriented case file parser and the bundled case."""

import numpy as np
import pytest

from gridfreq import casefile
from gridfreq.casefile import CaseParseError, load_bundled_case, parse_case
from gridfreq.network import build_ybus

MINIMAL = """
SYSTEM 100.0 60.0
BUS 1 slack 1.04 0 0 0 0 0 0
BUS 2 pq    1.00 0.5 0.1 0 0 0 0
BRANCH 1 2 0.01 0.1 0.0 1.0 1
"""

MACHINE_LINE = ("MACHINE 1 4.0 0.0 0.0 0.146 0.0969 0.0608 0.0969 8.96 0.31 "
                "100.0 20.0 0.2 1.0 0.314 0.063 0.35 -5.0 5.0 "
                "0.12 0.1 3.5 0.0 2.5")
CIG_LINE = "CIG 2 1.0 0.0 1.2 0.05 10.0 1.0 0.5 20.0 0.02 1.5 0.02 0.15 4.2 0.0625"


def test_parse_minimal_network():
    case = parse_case(MINIMAL)
    assert case.network.n_bus == 2
    assert len(case.network.branches) == 1
    assert case.network.s_base == 100.0
    assert case.network.f_base == 60.0
    assert case.machines == [] and case.cigs == []


def test_parse_devices():
    case = parse_case(MINIMAL + MACHINE_LINE + "\n" + CIG_LINE + "\n")
    assert len(case.machines) == 1
    m = case.machines[0]
    assert m.bus == 1
    assert m.params.H == 4.0
    assert m.avr.ka == 20.0
    assert m.gov.droop == 0.12
    c = case.cigs[0]
    assert c.bus == 2
    assert c.params.p_ref == 1.0
    assert c.params.K == 1.2
    assert c.params.ki_pll == 4.2
    assert c.params.x_t == 0.0625


def test_comments_and_blank_lines_ignored():
    case = parse_case("# header\n\n" + MINIMAL + "BUS 3 pq 1.0 0 0 0 0 0 0 # trail\n")
    assert case.network.n_bus == 3


def test_error_reports_line_number():
    bad = MINIMAL.replace("BRANCH 1 2 0.01 0.1 0.0 1.0 1",
                          "BRANCH 1 2 0.01 oops 0.0 1.0 1")
    with pytest.raises(CaseParseError, match="line 5"):
        parse_case(bad)


def test_unknown_record_type_rejected():
    with pytest.raises(CaseParseError, match="GADGET"):
        parse_case(MINIMAL + "GADGET 1 2 3\n")


def test_wrong_field_count_rejected():
    with pytest.raises(CaseParseError, match="expected 24"):
        parse_case(MINIMAL + "MACHINE 1 4.0 0.0\n")
    with pytest.raises(CaseParseError, match="expected 15"):
        parse_case(MINIMAL + "CIG 2 1.0\n")


@pytest.mark.parametrize("line, error", [
    ("SYSTEM 100.0 60.0 50.0", "expected 2 fields, got 3"),
    ("BUS 5 pq 1.000 1.25 0.50 0.00 0.0 0 0 7.5", "expected 9 fields, got 10"),
    ("BUS 5 pq 1.000 1.25 0.50 0.00 0.0 0", "expected 9 fields, got 8"),
    ("BRANCH 1 2 0.01 0.1 0.0 1.0 1 1", "expected 7 fields, got 8"),
    (CIG_LINE.replace("CIG 2", "CIG inf"), "cannot convert float infinity to integer"),
])
def test_malformed_record_rejected(line, error):
    """Every record holds exactly its fields, an extra one included, which
    would otherwise be ignored; a bus id that is infinite is an error too."""
    with pytest.raises(CaseParseError, match=f"line 6: {error}"):
        parse_case(MINIMAL + line + "\n")


def test_device_on_unknown_bus_rejected():
    with pytest.raises(CaseParseError, match="unknown bus 9"):
        parse_case(MINIMAL + CIG_LINE.replace("CIG 2", "CIG 9") + "\n")


def test_network_invariants_checked():
    with pytest.raises(CaseParseError):
        parse_case(MINIMAL.replace("BUS 2 pq", "BUS 1 pq"))  # duplicate id


def test_bundled_wscc_case():
    case = load_bundled_case("wscc9")
    net = case.network
    assert net.n_bus == 9
    assert len(net.branches) == 9
    assert len(case.machines) == 3
    assert [m.params.H for m in case.machines] == [4.0, 4.0, 3.0]
    assert len(case.cigs) == 1
    cig = case.cigs[0]
    assert cig.bus == 7
    assert cig.params.p_ref == 1.0  # 100 MW on the 100 MVA base
    assert cig.params.K == 1.2
    assert cig.params.x_t > 0.0  # connected through a step-up transformer
    # total scheduled load of the standard case: 3.15 + j1.15
    assert sum(b.p_load for b in net.buses) == pytest.approx(3.15)
    assert sum(b.q_load for b in net.buses) == pytest.approx(1.15)


def test_bundled_case_calls_are_independent(monkeypatch):
    """The bundled case is parsed once per process, but each call returns a
    new Case over a copy of it: edits of one (a load, a branch, a fault
    shunt, its device lists) leave the next at its base values, and the
    next builds its own Y."""
    casefile._bundled_case.cache_clear()
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_case(text)

    monkeypatch.setattr(casefile, "parse_case", counted)
    first = load_bundled_case()
    second = load_bundled_case()
    assert second.network.buses == first.network.buses
    assert second.network.branches == first.network.branches
    assert second.machines == first.machines and second.cigs == first.cigs
    x_base = first.network.branches[0].x
    first.network.bus(5).p_load *= 2.0
    first.network.bus(5).q_load = 0.0
    first.network.branches[0].x *= 2.0
    first.network.fault_shunts[7] = complex(5.0, 0.0)
    first.machines.append(first.machines[0])
    first.cigs.append(first.cigs[0])
    y_first = first.network.ybus()
    second = load_bundled_case()
    assert len(parsed) == 1
    assert second.network.bus(5).p_load == 1.25
    assert second.network.bus(5).q_load == 0.50
    assert second.network is not first.network
    assert second.network.branches[0].x == x_base
    assert second.network.fault_shunts == {}
    assert len(second.machines) == 3 and len(second.cigs) == 1
    assert second.network.ybus() is not y_first
    np.testing.assert_array_equal(second.network.ybus(), build_ybus(second.network))
    assert not np.array_equal(second.network.ybus(), y_first)
