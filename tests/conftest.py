"""Shared pytest hooks and fixtures.

The acceptance tests register one "criterion N: PASS/FAIL" line each via
``record_criterion``; they are replayed in the terminal summary so they
stay visible even when output capture hides prints from passing tests.
"""

import copy

import numpy as np
import pytest

import gridfreq.cig
from gridfreq.casefile import load_bundled_case
from gridfreq.dae import SystemModel, build_system
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
    extra = copy.deepcopy(model.machines[1])
    extra.params.H = 2.5
    extra.avr.v_ref += 0.01
    extra.gov.p_ref = 0.4
    shared = SystemModel(model.net, model.machines + [extra])
    x = np.concatenate([st.x, st.x[N_STATES: 2 * N_STATES]])
    return shared, x, model.voltages(st.y)


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
