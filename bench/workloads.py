"""The benchmark workloads: seeded inputs, one repetition, and its check.

A workload is a list of operations.  An operation is one `simulate` call
or one small-signal operating point; each has a set-up part (case load
plus `build_system`) and a run part.  The seed shapes only the generated
inputs: the program receives plain cases and `Event`s through the public
API, so refactors behind that API need no change here.

Why these three workloads (the bench stresses different layers on each):

* loadloss   -- the paper's transient experiment.  Residual-bound: f and g
                dominate and the Jacobian is built only a few times.
* load_steps -- an event storm.  Jacobian-bound: every event invalidates
                the Jacobian and re-solves the network; the converter is off.
* smallsig   -- the paper's observability study at several operating
                points.  No integration at all: the finite-difference output
                rows inside `k_sweep` dominate.

Not workloads yet: `fault_on` scenarios, because every default fault
still fails at inception with a StepError, so a fault workload would only
time a failure; and the wall time of the test suite, which measures tests
rather than a user's run and would dominate every benchmark run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gridfreq as gf

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

LOADLOSS_CONTROLS = ("no_cig", "cig_omega", "cig_omega_tilde")
LOADLOSS_K = 1.2
LOADLOSS_H = 0.005
LOADLOSS_T_END = 10.0

STEPS_BUSES = (5, 6, 8)
STEPS_H = 0.01
STEPS_T_END = 10.0
STEPS_FIRST = 0.5          # first event time [s]
STEPS_EVERY = 0.1          # event spacing [s]; 91 events up to t = 9.5 s
STEPS_N_EVENTS = 91
STEPS_LEVELS = (0.85, 1.15)

SMALLSIG_BUSES = (5, 6, 8)
SMALLSIG_SCALES = (0.8, 1.2)
SMALLSIG_SEEDED_POINTS = 3
SMALLSIG_F_HZ = (0.045, 0.135)
# K from -0.5 to 3 in steps of 0.05, as exact multiples so that K = 0 and
# K = 1 are on the grid.
K_GRID = np.arange(-10, 61) / 20.0


@dataclass
class Op:
    """One operation: `setup()` builds (model, state); `run` consumes it."""

    label: str
    setup: Callable[[], tuple]
    run: Callable[[object, object], dict]


@dataclass
class Check:
    ok: bool = True
    dev: float | None = None       # largest |output - reference| compared
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)

    def compare(self, what: str, got, ref, tol: float) -> None:
        got = np.asarray(got)
        ref = np.asarray(ref)
        if got.shape != ref.shape:
            self.fail(f"{what}: shape {got.shape} != reference {ref.shape}")
            return
        dev = float(np.max(np.abs(got - ref))) if got.size else 0.0
        if not np.isfinite(dev):
            self.fail(f"{what}: non-finite values")
            return
        self.dev = dev if self.dev is None else max(self.dev, dev)
        if dev > tol:
            self.fail(f"{what}: deviation {dev:.3e} > tolerance {tol:g}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# loadloss
# ---------------------------------------------------------------------------

class LoadLoss:
    """50 % load loss at bus 5 at t = 1 s, once per converter control."""

    name = "loadloss"
    points = 0

    def __init__(self, seed: int, t_end: float = LOADLOSS_T_END):
        del seed  # the scenario is fixed by the paper
        self.t_end = t_end

    def ops(self) -> list[Op]:
        return [Op(ctl, self._setup(ctl), self._run) for ctl in LOADLOSS_CONTROLS]

    @staticmethod
    def _setup(control: str):
        return lambda: gf.build_system(gf.load_bundled_case(), control, k=LOADLOSS_K)

    def _run(self, model, state) -> dict:
        ts = gf.simulate(model, state, [gf.Event(1.0, gf.LoadScale(bus=5, factor=0.5))],
                         t_end=self.t_end, h=LOADLOSS_H, output_dt=LOADLOSS_H,
                         channels=["omega_coi"])
        return {"omega_coi": ts["omega_coi"]}

    def check(self, outputs: dict[str, dict], ref: dict) -> dict[str, Check]:
        ref = ref[self.name]
        n = int(round(self.t_end / LOADLOSS_H)) + 1
        checks = {}
        for ctl, out in outputs.items():
            c = checks[ctl] = Check()
            c.compare(f"{ctl} omega_coi", out["omega_coi"],
                      ref["omega_coi"][ctl][:n], ref["tol"])
        if len(outputs) < len(LOADLOSS_CONTROLS):
            return checks  # a failed control is already counted
        peaks = [float(np.max(np.abs(outputs[c]["omega_coi"] - 1.0)))
                 for c in LOADLOSS_CONTROLS]
        if not peaks[0] > peaks[1] > peaks[2]:
            for c in checks.values():
                c.fail("peak |omega_coi - 1| not ordered no_cig > cig_omega > "
                       f"cig_omega_tilde: {peaks}")
        return checks


# ---------------------------------------------------------------------------
# load_steps
# ---------------------------------------------------------------------------

def load_step_events(seed: int, t_end: float = STEPS_T_END) -> list:
    """A load change every 0.1 s at a random bus of {5, 6, 8}.

    Each event sets the bus load to a level drawn from STEPS_LEVELS times
    its base value; the factor is target / current, so levels stay bounded.
    """
    rng = random.Random(seed)
    level = {b: 1.0 for b in STEPS_BUSES}
    events = []
    for i in range(STEPS_N_EVENTS):
        t = round(STEPS_FIRST + i * STEPS_EVERY, 9)
        bus = rng.choice(STEPS_BUSES)
        target = rng.uniform(*STEPS_LEVELS)
        factor, level[bus] = target / level[bus], target
        if t <= t_end:
            events.append(gf.Event(t, gf.LoadScale(bus=bus, factor=factor)))
    return events


class LoadSteps:
    """No converter; 91 seeded load changes over 10 s at h = 10 ms."""

    name = "load_steps"
    points = 0

    def __init__(self, seed: int, t_end: float = STEPS_T_END):
        self.seed = seed
        self.t_end = t_end
        self.events = load_step_events(seed, t_end)

    def ops(self) -> list[Op]:
        return [Op("no_cig", lambda: gf.build_system(gf.load_bundled_case(), "no_cig"),
                   self._run)]

    def _run(self, model, state) -> dict:
        ts = gf.simulate(model, state, self.events, t_end=self.t_end, h=STEPS_H,
                         output_dt=STEPS_H, channels=["omega_coi"])
        return {"omega_coi": ts["omega_coi"]}

    def check(self, outputs: dict[str, dict], ref: dict) -> dict[str, Check]:
        ref = ref[self.name]
        n = int(round(self.t_end / STEPS_H)) + 1
        if "no_cig" not in outputs:
            return {}  # the failed simulation is already counted
        w = outputs["no_cig"]["omega_coi"]
        c = Check()
        if w.shape != (n,) or not np.all(np.isfinite(w)):
            c.fail(f"omega_coi: {w.shape[0]} samples (expected {n}) or non-finite")
        elif self.seed == ref["seed"]:
            c.compare("omega_coi", w, ref["omega_coi"][:n], ref["tol"])
        return {"no_cig": c}


# ---------------------------------------------------------------------------
# smallsig
# ---------------------------------------------------------------------------

def operating_points(seed: int, n_seeded: int = SMALLSIG_SEEDED_POINTS) -> list[dict]:
    """The nominal point, then seeded load scalings of buses 5, 6 and 8."""
    rng = random.Random(seed)
    points = [{}]
    for _ in range(n_seeded):
        points.append({b: rng.uniform(*SMALLSIG_SCALES) for b in SMALLSIG_BUSES})
    return points


class SmallSig:
    """Linearize, eigensolve, identify and K-sweep at each operating point."""

    name = "smallsig"

    def __init__(self, seed: int, n_seeded: int = SMALLSIG_SEEDED_POINTS):
        self.scalings = operating_points(seed, n_seeded)
        self.points = len(self.scalings)

    def ops(self) -> list[Op]:
        labels = ["nominal"] + [f"point{i}" for i in range(1, self.points)]
        return [Op(lb, self._setup(sc), self._run) for lb, sc in zip(labels, self.scalings)]

    @staticmethod
    def _setup(scaling: dict):
        def setup():
            case = gf.load_bundled_case()
            for bus_id, s in scaling.items():
                bus = case.network.bus(bus_id)
                bus.p_load *= s
                bus.q_load *= s
            return gf.build_system(case, "cig_omega_tilde", freq_loop=False)
        return setup

    @staticmethod
    def _run(model, state) -> dict:
        mode = gf.identify_frequency_mode(gf.eigensolve(gf.linearize(model, state)))
        rep = gf.k_sweep(model, state, mode, K_GRID)
        return {"eigenvalue": mode.eigenvalue, "f_n": mode.natural_frequency_hz,
                "go_omega": rep.go["omega"], "go_omega_tilde_k1": rep.go["omega_tilde_k1"],
                "ratio": rep.ratio}

    def check(self, outputs: dict[str, dict], ref: dict) -> dict[str, Check]:
        ref = ref[self.name]
        k0 = int(np.flatnonzero(K_GRID == 0.0)[0])
        checks = {}
        for label, out in outputs.items():
            c = checks[label] = Check()
            lo, hi = SMALLSIG_F_HZ
            if not lo <= out["f_n"] <= hi:
                c.fail(f"f_n = {out['f_n']:.4f} Hz outside [{lo}, {hi}]")
            if not out["eigenvalue"].real < 0.0:
                c.fail(f"mode not damped: lambda = {out['eigenvalue']:.4f}")
            if abs(out["ratio"][k0] - 1.0) > 1e-12:
                c.fail(f"ratio(K=0) = {out['ratio'][k0]!r}, expected 1.0")
            if label == "nominal":
                lam = out["eigenvalue"]
                c.compare("lambda", [lam.real, lam.imag], ref["eigenvalue"], ref["tol"])
                c.compare("go(omega)", out["go_omega"], ref["go_omega"], ref["tol"])
                c.compare("go(omega_tilde, K=1)", out["go_omega_tilde_k1"],
                          ref["go_omega_tilde_k1"], ref["tol"])
                c.compare("ratio", out["ratio"], ref["ratio"], ref["tol"])
        return checks


WORKLOADS = {"loadloss": LoadLoss, "load_steps": LoadSteps, "smallsig": SmallSig}

# Short versions for the harness self-test: same code paths, a fraction of
# the work, still compared against (a prefix of) the reference.
SHORT = {"loadloss": {"t_end": 2.0}, "load_steps": {"t_end": 1.0},
         "smallsig": {"n_seeded": 0}}


def make(name: str, seed: int, short: bool = False):
    return WORKLOADS[name](seed, **(SHORT[name] if short else {}))
