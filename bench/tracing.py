"""Span tracing of gridfreq's layers, wrapped from outside the package.

`Tracer.install()` replaces each layer entry point named in LAYERS by a
wrapper that records a span (name, start, end, parent span) and restores
the originals on `uninstall()`.  A target that does not exist at the
traced commit is left alone and reported as absent: its metrics read
null, never zero, so a refactor that renames or fuses a function shows up
as a missing layer instead of a crash or a fake speed-up.

Spans stay in memory during the run; `save()` writes them out at the end.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> (module, attribute path) of the wrapped entry point
LAYERS = {
    "casefile.load": ("gridfreq.casefile", "load_bundled_case"),
    "network.apply_event": ("gridfreq.network", "apply_event"),
    "network.build_ybus": ("gridfreq.network", "build_ybus"),
    "network.power_flow": ("gridfreq.network", "solve_power_flow"),
    "machines.block": ("gridfreq.dae", "SystemModel._machine_block"),
    "cig.derivatives": ("gridfreq.cig", "cig_derivatives"),
    "dae.step": ("gridfreq.dae", "TrapezoidalIntegrator.step"),
    "dae.f": ("gridfreq.dae", "SystemModel.f"),
    "dae.g": ("gridfreq.dae", "SystemModel.g"),
    "dae.jacobian": ("gridfreq.dae", "_fd_jacobian"),
    "dae.lu_factor": ("scipy.linalg", "lu_factor"),
    "dae.lu_solve": ("scipy.linalg", "lu_solve"),
    "dae.solve_algebraic": ("gridfreq.dae", "SystemModel.solve_algebraic"),
    "dae.record": ("gridfreq.dae", "record"),
    "smallsignal.linearize": ("gridfreq.smallsignal", "linearize"),
    "smallsignal.eigensolve": ("gridfreq.smallsignal", "eigensolve"),
    "smallsignal.identify": ("gridfreq.smallsignal", "identify_frequency_mode"),
    "smallsignal.k_sweep": ("gridfreq.smallsignal", "k_sweep"),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None if the target is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.pf_iterations = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, parent, start, end, stack = (self.names, self.parent, self.start,
                                            self.end, self._stack)
        track_pf = name == "network.power_flow"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if track_pf:
                self.pf_iterations += getattr(result, "iterations", 0)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer target that exists, wherever it is bound."""
        self.absent = []
        for name, (module, path) in LAYERS.items():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            self._patch(owner, attr, fn, wrapper)
            if isinstance(owner, type):
                continue
            # module-level functions are also bound by name in importers
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.split(".")[0] == "gridfreq" and mod is not owner
                        and getattr(mod, attr, None) is fn):
                    self._patch(mod, attr, fn, wrapper)

    def _patch(self, owner, attr: str, old, new) -> None:
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez_compressed(path, names=np.array(table),
                            name=np.array([index[n] for n in self.names], dtype=np.int16),
                            parent=np.array(self.parent, dtype=np.int64),
                            start=np.array(self.start), end=np.array(self.end))

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, points: int) -> dict[str, float | None]:
        """Per-layer counts and times of everything traced so far.

        `points` is the number of small-signal operating points, the base
        of smallsignal.g_per_point.  A ratio whose base is 0 reads 0, as do
        the step percentiles on a workload that takes no integration steps.
        """
        names = np.array(self.names, dtype=object)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered

        def span(name):
            return names == name

        def n(name):
            return None if name in self.absent else int(span(name).sum())

        def total(name):
            return None if name in self.absent else float(dur[span(name)].sum())

        def self_s(name):
            return None if name in self.absent else float(self_time[span(name)].sum())

        def per(num, base):
            if num is None or base is None:
                return None
            return num / base if base else 0.0

        steps = None
        halvings = p50 = p99 = None
        if "dae.step" not in self.absent:
            is_step = span("dae.step")
            parent_is_step = np.zeros(len(dur), dtype=bool)
            parent_is_step[nested] = is_step[parent[nested]]
            top = is_step & ~parent_is_step
            steps = int(top.sum())
            halvings = int(np.unique(parent[is_step & parent_is_step]).size)
            step_ms = dur[top] * 1e3
            p50 = float(np.percentile(step_ms, 50)) if steps else 0.0
            p99 = float(np.percentile(step_ms, 99)) if steps else 0.0

        f_n, g_n = n("dae.f"), n("dae.g")
        fg = None if f_n is None or g_n is None else f_n + g_n
        pf_iters = None if "network.power_flow" in self.absent else self.pf_iterations
        return {
            "dae.step.n": steps,
            "dae.step.halvings": halvings,
            "dae.step.p50_ms": p50,
            "dae.step.p99_ms": p99,
            "dae.f.n": f_n,
            "dae.f.self_s": self_s("dae.f"),
            "dae.g.n": g_n,
            "dae.g.self_s": self_s("dae.g"),
            "dae.residual_per_step": per(fg, steps),
            "dae.lu_solve.n": n("dae.lu_solve"),
            "dae.lu_solve.s": total("dae.lu_solve"),
            "dae.newton_per_step": per(n("dae.lu_solve"), steps),
            "dae.jacobian.n": n("dae.jacobian"),
            "dae.jacobian.s": total("dae.jacobian"),
            "dae.lu_factor.n": n("dae.lu_factor"),
            "dae.solve_algebraic.n": n("dae.solve_algebraic"),
            "dae.solve_algebraic.s": total("dae.solve_algebraic"),
            "dae.record.n": n("dae.record"),
            "dae.record.s": total("dae.record"),
            "cig.derivatives.n": n("cig.derivatives"),
            "cig.derivatives.self_s": self_s("cig.derivatives"),
            "cig.per_step": per(n("cig.derivatives"), steps),
            "machines.block.n": n("machines.block"),
            "machines.block.self_s": self_s("machines.block"),
            "network.apply_event.n": n("network.apply_event"),
            "network.apply_event.s": total("network.apply_event"),
            "network.build_ybus.n": n("network.build_ybus"),
            "network.power_flow.s": total("network.power_flow"),
            "network.power_flow.iters": pf_iters,
            "casefile.load.s": total("casefile.load"),
            "smallsignal.linearize.s": total("smallsignal.linearize"),
            "smallsignal.eigensolve.s": total("smallsignal.eigensolve"),
            "smallsignal.identify.s": total("smallsignal.identify"),
            "smallsignal.k_sweep.s": total("smallsignal.k_sweep"),
            "smallsignal.g_per_point": per(g_n, points),
        }
