"""Write bench/reference.json from the program in this checkout.

    python3 bench/capture_reference.py

The reference holds the outputs the benchmark compares every repetition
against, each with the absolute tolerance it is checked to:

* loadloss   -- the omega_coi traces of all three controls;
* load_steps -- the omega_coi trace at seed 0, the only seed compared
                (any other seed is checked for completion and finite output);
* smallsig   -- lambda, go(omega), go(omega_tilde, K=1) and the ratio curve
                at the nominal operating point.

Capture again only when a change is meant to alter these results.
"""

from __future__ import annotations

import json

import run

SEED = 0
# omega_coi in pu; a 1e-6 pu band is 60 uHz, far below the 1e-2 pu
# excursions the workloads produce but wide enough for refactors that
# reorder floating-point sums or change Newton iterates.
TRACE_TOL = 1e-6
# eigenvalue [1/s], geometric observability and the ratio curve [-]
SMALLSIG_TOL = 1e-6


def _dump(obj, pad: str = "") -> str:
    """JSON with one line per key and each number list on a single line."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    inner = pad + "  "
    items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def capture() -> dict:
    import workloads as w

    def outputs(workload):
        return {op.label: op.run(*op.setup()) for op in workload.ops()}

    loss = outputs(w.LoadLoss(SEED))
    steps = outputs(w.LoadSteps(SEED))["no_cig"]
    nominal = outputs(w.SmallSig(SEED, n_seeded=0))["nominal"]
    lam = nominal["eigenvalue"]
    return {
        "commit": run.git_commit(),
        "loadloss": {"tol": TRACE_TOL,
                     "omega_coi": {c: loss[c]["omega_coi"].tolist()
                                   for c in w.LOADLOSS_CONTROLS}},
        "load_steps": {"seed": SEED, "tol": TRACE_TOL,
                       "omega_coi": steps["omega_coi"].tolist()},
        "smallsig": {"tol": SMALLSIG_TOL, "eigenvalue": [lam.real, lam.imag],
                     "go_omega": nominal["go_omega"],
                     "go_omega_tilde_k1": nominal["go_omega_tilde_k1"],
                     "k_grid": w.K_GRID.tolist(), "ratio": nominal["ratio"].tolist()},
    }


if __name__ == "__main__":
    run.import_gridfreq()
    from workloads import REFERENCE_PATH
    REFERENCE_PATH.write_text(_dump(capture()) + "\n")
    print(f"wrote {REFERENCE_PATH}")
