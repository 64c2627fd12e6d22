"""Command-line front end: power flow, time-domain runs, eigenanalysis,
and the compensation-gain sweep.

Scenario files are JSON with the schema::

    {
      "case": "wscc9" | "<path to .case file>",
      "control": "no_cig" | "cig_omega" | "cig_omega_tilde",
      "k": 1.2,
      "events": [{"t": 1.0, "type": "load_scale", "bus": 5, "factor": 0.5},
                 {"t": 1.0, "type": "fault_on", "bus": 7, "g": 5.0, "b": 0.0},
                 {"t": 1.1, "type": "fault_off", "bus": 7}],
      "t_end": 10.0, "h": 0.02, "output_dt": 0.02,
      "channels": ["omega_coi", "v_bus7", "p_cig", "q_cig"],
      "out_dir": "results"
    }

Every field has a default; command-line flags override scenario values.
The output directory resolves, in order of precedence: ``--out`` flag,
``GRIDFREQ_OUT_DIR`` environment variable, scenario ``out_dir``, then the
current directory.  Each command writes a ``manifest.json`` recording the
resolved scenario (defaults, file and flags merged, events included: a
scenario file that reruns it), its SHA-256 digest, so two runs share a
digest exactly when they ran the same scenario, however it was given, and
the versions of gridfreq, numpy and Python; ``run``, ``eig`` and ``ksweep``
also record ``phase_s``, ``{"setup": s}``: the seconds taken to load the
case and build the model.  Bad input (a scenario
or an event that is not an object or has a field of the wrong type or an
unknown one; a number that is not an int or a float, or is a bool, NaN
or infinite, ``k``, ``t_end``, ``h``, ``output_dt`` and the ``t``,
``factor``, ``g`` and ``b`` of an event included; an event ``bus`` that
is not an int or is a bool; a ``k`` under a control other than
``cig_omega_tilde``, which would not run it; a case file that does not
parse; a case whose power flow fails (``PowerFlowError``: no
convergence, a singular Jacobian or a non-finite mismatch); a case whose
dispatch cannot be initialized (``InitializationError``); a case without
exactly one CIG record, or without a PV bus, under a converter control
(``AssemblyError``); a ``run`` whose ``h``, ``output_dt`` or horizon is
not positive; and a K grid of ``ksweep`` with a non-positive step,
k_max < k_min or more than ``K_GRID_MAX`` gains included) and a run
whose solver fails (``StepError``) print ``error: ...`` and exit with
status 2.  Bad input writes no manifest; a failed ``run`` still writes
one, with the error, the time of the last accepted state (``t_last``)
and the solver stats up to the failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .casefile import Case, CaseParseError, load_bundled_case, parse_case
from .dae import CONTROLS, Event, StepError, build_system, simulate
from .machines import InitializationError
from .network import FaultOff, FaultOn, LoadScale, PowerFlowError, solve_power_flow
from .smallsignal import (
    ModeIdentificationError,
    eigensolve,
    identify_frequency_mode,
    k_sweep,
    linearize,
)

OUT_DIR_ENV = "GRIDFREQ_OUT_DIR"
# most gains a `ksweep` grid may hold
K_GRID_MAX = 10_001
# event type of a scenario file -> its action class
EVENT_TYPES = {"load_scale": LoadScale, "fault_on": FaultOn, "fault_off": FaultOff}

class ScenarioError(ValueError):
    """Malformed or inconsistent scenario description."""


@dataclass
class Scenario:
    """Resolved experiment description (case + control + events + horizon)."""

    case: str = "wscc9"
    control: str = "cig_omega_tilde"
    k: float | None = None
    events: list[Event] = field(default_factory=list)
    t_end: float = 10.0
    h: float = 0.02
    output_dt: float = 0.02
    channels: list[str] | None = None
    out_dir: str = "."

    @property
    def document(self) -> dict:
        """Everything that shapes the results, as JSON-ready values: the
        output directory is left out; the case enters by name or path.  It
        is a scenario file that reruns the same scenario."""
        doc = asdict(self)
        del doc["out_dir"]
        type_of = {cls: name for name, cls in EVENT_TYPES.items()}
        doc["events"] = [{"t": ev.time, "type": type_of[type(ev.action)],
                          **asdict(ev.action)} for ev in self.events]
        return doc

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical JSON of `document`."""
        canon = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def load_case(self) -> Case:
        p = Path(self.case)
        if p.suffix == ".case" or p.exists():
            return parse_case(p.read_text())
        return load_bundled_case(self.case)


_DEFAULTS = {f.name: f.default_factory() if f.default is MISSING else f.default
             for f in fields(Scenario)}


def _number(doc: dict, name: str) -> float:
    """doc[name], an int or a float but not a bool, as a finite float
    (KeyError when it is missing)."""
    value = doc[name]
    if type(value) not in (int, float):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinite or an int beyond floats
        raise ScenarioError(f"{name} must be finite, got {value}")
    return float(value)


def _parse_event(d: dict) -> Event:
    if not isinstance(d, dict):
        raise ScenarioError(f"event {d!r} is not an object")
    kind = d.get("type")
    try:
        cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ScenarioError(f"unknown event type {kind!r}")
        unknown = set(d) - {"t", "type", *(f.name for f in fields(cls))}
        if unknown:
            raise ScenarioError(f"unknown fields {sorted(unknown)}")
        # a field with a default may be left out; `bus` is an id, the rest numbers
        if type(d["bus"]) is not int:
            raise ScenarioError(f"bus must be an integer id, got {d['bus']!r}")
        act = cls(**{f.name: d[f.name] if f.name == "bus" else _number(d, f.name)
                     for f in fields(cls) if f.name in d or f.default is MISSING})
        return Event(time=_number(d, "t"), action=act)
    except KeyError as exc:
        raise ScenarioError(f"event missing field {exc}") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"event {d!r}: {exc}") from exc


def load_scenario(path: str | None, overrides: dict) -> Scenario:
    """Merge defaults, scenario file, and CLI overrides (highest wins)."""
    merged = dict(_DEFAULTS)
    if path is not None:
        try:
            data = json.loads(Path(path).read_bytes())
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError(f"{path}: a scenario is a JSON object, got {data!r}")
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ScenarioError(f"{path}: unknown fields {sorted(unknown)}")
        merged.update(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if not isinstance(merged["case"], str):
        raise ScenarioError(f"case must be a string, got {merged['case']!r}")
    if not isinstance(merged["events"], list):
        raise ScenarioError(f"events must be a list, got {merged['events']!r}")
    if not (merged["channels"] is None or isinstance(merged["channels"], list)
            and all(isinstance(c, str) for c in merged["channels"])):
        raise ScenarioError(f"channels must be a list of names, got {merged['channels']!r}")
    if not isinstance(merged["out_dir"], str):
        raise ScenarioError(f"out_dir must be a string, got {merged['out_dir']!r}")
    sc = Scenario(
        case=merged["case"], control=merged["control"],
        k=None if merged["k"] is None else _number(merged, "k"),
        events=[_parse_event(e) for e in merged["events"]],
        t_end=_number(merged, "t_end"), h=_number(merged, "h"),
        output_dt=_number(merged, "output_dt"), channels=merged["channels"],
        out_dir=merged["out_dir"])
    if sc.control not in CONTROLS:
        raise ScenarioError(f"unknown control mode {sc.control!r}")
    if sc.k is not None and sc.control != "cig_omega_tilde":
        raise ScenarioError(f"k is the gain of cig_omega_tilde; {sc.control!r} "
                            f"would not run k = {sc.k:g}")
    return sc


def _resolve_out_dir(flag: str | None, sc: Scenario) -> Path:
    out = flag or os.environ.get(OUT_DIR_ENV) or sc.out_dir
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(out: Path, command: str, sc: Scenario, extra: dict) -> None:
    doc = {
        "command": command,
        "scenario_sha256": sc.digest,
        "scenario": sc.document,
        "versions": {"gridfreq": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    doc.update(extra)
    (out / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _set_up(sc: Scenario, freq_loop: bool = True):
    """(model, state, phase_s): `build_system` of the scenario's case and
    control, and the seconds its set-up took (`load_case` plus
    `build_system`), as the manifest's {"setup": ...}."""
    t0 = perf_counter()
    model, st = build_system(sc.load_case(), sc.control, k=sc.k, freq_loop=freq_loop)
    return model, st, {"setup": perf_counter() - t0}


# ---------------------------------------------------------------------------
# CSV tables and SVG line plots
# ---------------------------------------------------------------------------

def write_csv(path: Path, header: list[str], columns: list) -> None:
    """Comma-separated table of equal-length columns, each value in %.12g,
    under a plain header line of the column names."""
    np.savetxt(path, np.column_stack(columns), fmt="%.12g", delimiter=",",
               header=",".join(header), comments="")


def render_svg(t: np.ndarray, series: dict[str, np.ndarray], title: str = "") -> str:
    """Minimal static SVG line chart of one or more series against t."""
    width, height = 640, 400
    ml, mr, mt, mb = 60, 15, 30, 40
    pw, ph = width - ml - mr, height - mt - mb
    ys = np.concatenate(list(series.values()))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    t0, t1 = float(t[0]), float(t[-1])
    if t1 - t0 <= 0:
        t1 = t0 + 1.0

    def xp(v: float) -> float:
        return ml + pw * (v - t0) / (t1 - t0)

    def yp(v: float) -> float:
        return mt + ph * (1.0 - (v - y0) / (y1 - y0))

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y0 + frac * (y1 - y0)
        tv = t0 + frac * (t1 - t0)
        parts.append(f'<line x1="{ml}" y1="{yp(yv):.1f}" x2="{ml+pw}" '
                     f'y2="{yp(yv):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{ml-6}" y="{yp(yv)+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{yv:.4g}</text>')
        parts.append(f'<text x="{xp(tv):.1f}" y="{height-mb+14}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tv:.4g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444"/>')
    for i, (name, y) in enumerate(series.items()):
        pts = " ".join(f"{xp(tv):.2f},{yp(yv):.2f}" for tv, yv in zip(t, y))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        parts.append(f'<text x="{ml+8}" y="{mt+16+14*i}" fill="{color}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_pf(sc: Scenario, out: Path, tol: float) -> int:
    case = sc.load_case()
    pf = solve_power_flow(case.network, tol=tol)
    write_csv(out / "powerflow.csv", ["bus", "v_mag", "v_ang", "p_inj", "q_inj"],
              [[b.id for b in case.network.buses], pf.v_mag, pf.v_ang, pf.p_inj, pf.q_inj])
    _write_manifest(out, "pf", sc, {"tol": tol, "iterations": pf.iterations,
                                    "max_mismatch": pf.max_mismatch})
    print(f"converged in {pf.iterations} iterations, "
          f"max mismatch {pf.max_mismatch:.3e}")
    return 0


def cmd_run(sc: Scenario, out: Path) -> int:
    model, st, phase_s = _set_up(sc)
    try:
        ts = simulate(model, st, sc.events, t_end=sc.t_end, h=sc.h,
                      output_dt=sc.output_dt, channels=sc.channels)
    except StepError as exc:
        _write_manifest(out, "run", sc, {"error": str(exc), "t_last": exc.t_last,
                                         "stats": exc.stats, "phase_s": phase_s})
        raise
    write_csv(out / "timeseries.csv", ["t", *ts.channels], [ts.times, *ts.channels.values()])
    for name, y in ts.channels.items():
        svg = render_svg(ts.times, {name: y}, title=name)
        (out / f"{name}.svg").write_text(svg)
    _write_manifest(out, "run", sc, {"channels": list(ts.channels),
                                     "n_steps": len(ts.times), "stats": ts.stats,
                                     "phase_s": phase_s})
    print(f"wrote {len(ts.times)} output steps, "
          f"{len(ts.channels)} channels to {out}")
    return 0


def cmd_eig(sc: Scenario, out: Path, mode_shapes: bool,
            freq_loop: bool = False) -> int:
    model, st, phase_s = _set_up(sc, freq_loop)
    modes = eigensolve(linearize(model, st))
    try:
        fmode = identify_frequency_mode(modes)
    except ModeIdentificationError:
        fmode = None
    lam = np.array([m.eigenvalue for m in modes])
    unstable = lam.real > 1e-9
    any_unstable = bool(unstable.any())
    write_csv(out / "eigenvalues.csv",
              ["real", "imag", "f_natural_hz", "damping_ratio", "frequency_mode", "unstable"],
              [lam.real, lam.imag, [m.natural_frequency_hz for m in modes],
               [m.damping_ratio for m in modes], [m is fmode for m in modes], unstable])
    if mode_shapes and fmode is not None:
        shape = fmode.speed_shape
        write_csv(out / "mode_shapes.csv", ["machine", "magnitude", "angle_deg"],
                  [np.arange(1, len(shape) + 1), np.abs(shape), np.degrees(np.angle(shape))])
    _write_manifest(out, "eig", sc, {
        "freq_loop": freq_loop,
        "frequency_mode": None if fmode is None else
        [fmode.eigenvalue.real, fmode.eigenvalue.imag],
        "any_unstable": any_unstable, "phase_s": phase_s})
    if fmode is not None:
        print(f"frequency-control mode: {fmode.eigenvalue:.4f} "
              f"({fmode.natural_frequency_hz:.4f} Hz)")
    else:
        print("no frequency-control mode identified")
    if any_unstable:
        print("warning: eigenvalues with positive real part present")
    return 0


def cmd_ksweep(sc: Scenario, out: Path, k_min: float, k_max: float,
               k_step: float) -> int:
    if not all(map(math.isfinite, (k_min, k_max, k_step))):
        raise ScenarioError("--k-min, --k-max and --k-step must be finite")
    if k_step <= 0.0:
        raise ScenarioError(f"--k-step must be positive, got {k_step:g}")
    if k_max < k_min:
        raise ScenarioError(f"--k-max {k_max:g} is below --k-min {k_min:g}")
    span = (k_max - k_min) / k_step
    # steps up to k_max; within 1e-9 of a whole step is one; an infinite span included
    n = math.floor(min(span, K_GRID_MAX) + 1e-9) + 1
    if n > K_GRID_MAX:
        raise ScenarioError(f"the K grid holds {span + 1:.3g} gains, more than {K_GRID_MAX}")
    model, st, phase_s = _set_up(sc, freq_loop=False)
    mode = identify_frequency_mode(eigensolve(linearize(model, st)))
    grid = k_min + k_step * np.arange(n)
    rep = k_sweep(model, st, mode, grid)
    write_csv(out / "ksweep.csv", ["k", "ratio"], [rep.k_grid, rep.ratio])
    svg = render_svg(rep.k_grid, {"go(omega_tilde)/go(omega)": rep.ratio},
                     title="observability ratio vs K")
    (out / "ksweep.svg").write_text(svg)
    _write_manifest(out, "ksweep", sc, {
        "k_min": k_min, "k_max": k_max, "k_step": k_step,
        "go": rep.go,
        "frequency_mode": [mode.eigenvalue.real, mode.eigenvalue.imag],
        "phase_s": phase_s})
    lam, top = mode.eigenvalue, max(rep.go.values())
    print(f"frequency mode: lambda = {lam.real:.4f} {lam.imag:+.4f}j "
          f"(f_n = {mode.natural_frequency_hz:.4f} Hz, zeta = {mode.damping_ratio:.3f})")
    print("geometric observability, normalized to the best signal: " + ", ".join(
        f"{name} {rep.go[name] / top:.3f}" for name in ("omega_tilde_k1", "omega", "rho")))
    best = int(np.argmax(rep.ratio))
    print(f"{len(grid)} points; best ratio {rep.ratio[best]:.4f} "
          f"at K = {rep.k_grid[best]:.3g}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridfreq",
        description="Power-system dynamics and compensated-frequency-signal "
                    "analysis toolkit.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--case", help="case name or .case file path")
        p.add_argument("--scenario", help="JSON scenario file")
        p.add_argument("--k", type=float, help="compensation gain K (cig_omega_tilde)")
        p.add_argument("--out", help="output directory "
                       f"(or ${OUT_DIR_ENV})")

    p = sub.add_parser("pf", help="solve the power flow")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="mismatch tolerance (pu)")

    p = sub.add_parser("run", help="time-domain simulation")
    common(p)
    p.add_argument("--t-end", type=float, help="simulation horizon (s)")
    p.add_argument("--h", type=float, help="integration step (s)")

    p = sub.add_parser("eig", help="eigenanalysis report")
    common(p)
    p.add_argument("--mode-shapes", action="store_true",
                   help="also write per-machine shape CSV")
    p.add_argument("--freq-loop", action="store_true",
                   help="keep the converter frequency loop closed")

    p = sub.add_parser("ksweep", help="observability-ratio sweep over K")
    common(p)
    p.add_argument("--k-min", type=float, default=-0.5)
    p.add_argument("--k-max", type=float, default=3.0)
    p.add_argument("--k-step", type=float, default=0.05)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"case": args.case, "k": args.k}
    if args.command == "run":
        overrides["t_end"] = args.t_end
        overrides["h"] = args.h
    try:
        sc = load_scenario(args.scenario, overrides)
        out = _resolve_out_dir(args.out, sc)
        if args.command == "pf":
            return cmd_pf(sc, out, args.tol)
        if args.command == "run":
            return cmd_run(sc, out)
        if args.command == "eig":
            return cmd_eig(sc, out, args.mode_shapes, args.freq_loop)
        if args.command == "ksweep":
            return cmd_ksweep(sc, out, args.k_min, args.k_max, args.k_step)
        raise AssertionError(args.command)
    except (ScenarioError, CaseParseError, PowerFlowError, InitializationError,
            ModeIdentificationError, StepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
