"""Frequency response to a 50% load loss under three converter controls.

Simulates the 9-bus system with the 100 MW converter after half the load
at bus 5 drops at t = 1 s, once with the frequency loop disabled, once
with conventional frequency-droop control on omega, and once with the
compensated signal omega_tilde = omega - K rho (K = 1.2).  Writes
load_loss.csv and an SVG of the center-of-inertia frequency.

Run from the repository root:  python3 demos/load_loss_comparison.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from gridfreq.casefile import load_bundled_case
from gridfreq.cli import render_svg, write_csv
from gridfreq.dae import Event, build_system, simulate
from gridfreq.network import LoadScale

CONTROLS = [
    ("no freq loop", "cig_omega_tilde", False),
    ("omega droop", "cig_omega", True),
    ("omega_tilde droop", "cig_omega_tilde", True),
]


def main(outdir: str = ".") -> None:
    traces = {}
    p_traces = {}
    times = None
    for label, control, freq_loop in CONTROLS:
        case = load_bundled_case()
        model, st = build_system(case, control, freq_loop=freq_loop)
        ts = simulate(model, st, [Event(1.0, LoadScale(bus=5, factor=0.5))],
                      t_end=15.0, h=0.01, output_dt=0.02)
        times = ts.times
        traces[label] = ts["omega_coi"]
        p_traces[label] = ts["p_cig"]
        print(f"{label:18s} peak omega_coi = {np.max(ts['omega_coi']):.6f} pu")

    out = Path(outdir)
    write_csv(out / "load_loss.csv", ["t", *(lb.replace(" ", "_") for lb in traces)],
              [times, *traces.values()])
    (out / "load_loss_omega_coi.svg").write_text(
        render_svg(times, traces, title="omega_coi after 50% load loss at bus 5"))
    (out / "load_loss_p_cig.svg").write_text(
        render_svg(times, p_traces, title="converter active power"))
    print(f"wrote {out / 'load_loss.csv'} and two SVG plots")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
