"""Small-signal observability of the common frequency mode.

Linearizes the 9-bus system around its equilibrium, identifies the
in-phase frequency mode, reports the geometric observability of the
three candidate feedback signals (omega, rho, omega_tilde with K = 1),
and sweeps the compensation gain K, writing ksweep.csv and ksweep.svg.

Run from the repository root:  python3 demos/observability_sweep.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from gridfreq.casefile import load_bundled_case
from gridfreq.cli import render_svg, write_csv
from gridfreq.dae import build_system
from gridfreq.smallsignal import (
    eigensolve,
    identify_frequency_mode,
    k_sweep,
    linearize,
)


def main(outdir: str = ".") -> None:
    case = load_bundled_case()
    model, st = build_system(case, "cig_omega_tilde", freq_loop=False)
    mode = identify_frequency_mode(eigensolve(linearize(model, st)))
    lam = mode.eigenvalue
    print(f"frequency mode: lambda = {lam.real:.4f} {lam.imag:+.4f}j  "
          f"(f_n = {mode.natural_frequency_hz:.4f} Hz, "
          f"zeta = {mode.damping_ratio:.3f})")

    grid = np.arange(-0.5, 3.0 + 1e-9, 0.05)
    rep = k_sweep(model, st, mode, grid)
    top = max(rep.go.values())
    print("geometric observability (normalized to the best signal):")
    for name in ("omega_tilde_k1", "omega", "rho"):
        print(f"  {name:15s} {rep.go[name] / top:.3f}")
    print(f"ratio go(omega_tilde)/go(omega) at K = 1: "
          f"{rep.ratio[np.argmin(np.abs(grid - 1.0))]:.3f}; "
          f"peak {np.max(rep.ratio):.3f} at K = {grid[np.argmax(rep.ratio)]:.2f}")

    out = Path(outdir)
    write_csv(out / "ksweep.csv", ["k", "ratio"], [grid, rep.ratio])
    (out / "ksweep.svg").write_text(
        render_svg(grid, {"ratio": rep.ratio},
                   title="go(omega_tilde(K)) / go(omega)"))
    print(f"wrote {out / 'ksweep.csv'} and {out / 'ksweep.svg'}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
