"""Linearization, eigenanalysis, and geometric observability.

The assembled DAE is linearized at an equilibrium by central finite
differences of the residual [f; g], (G(+s) - G(-s)) / 2s with G the
integrator's `dae.group_residuals`: one pair of residual passes per
column group of `SystemModel.jacobian_structure` (equal bitwise to a pair
per column).  The algebraic variables are eliminated through the network
Jacobian (`dae.reduce_algebraic`, which the integrator's step reduces
through too), giving the reduced state matrix

    A = f_x - f_y g_y^{-1} g_x.

The primary-frequency-control mode is identified among the eigenvalues
by three criteria: it is global (all machine speeds participate), the
machine-speed mode-shape components are mutually in phase, and its
natural frequency lies in 0.02-0.1 Hz.  Geometric observability of a
measured signal is the cosine alignment between the signal's output row
and the mode's right eigenvector (Hamdan & Elabdalla, EPSR 1988).

The output rows of rho and omega at the converter terminal bus are built
in closed form from the same Jacobians.  The bus voltages move as
ydot = -g_y^{-1} g_x f; at an equilibrium f = 0, so

    d(ydot)/dx = -g_y^{-1} g_x A,    d(eta)/dx = d(vdot)/dx / v,

with eta = vdot / v the complex frequency of the bus voltage v.  The
rows c_rho + j c_omega are `complex_frequency.eta_of(v, d(vdot)/dx)`
over omega_b, plus the centre-of-inertia weights on the machine speeds
in c_omega (the network frame rotates at the COI speed); the converter's
own `cig.modified_signal` gives the row of omega - K rho.

`linearize` is the one source of the rows: it computes them with A when
the model has a converter, and records the point it was taken at (model,
bytes of [x; y]); `eigensolve` links each mode to that `LinearModel`.
`k_sweep` takes the rows of its mode's linearization and accepts only a
mode linearized from the same model at bitwise the same [x; y]: a built
model never changes (`simulate` restores its network however the run
ends), so those
rows are the model's, and `linearize` checked that point an equilibrium.
So the sweep takes no residual pass.
The sweep evaluates go for every gain of the grid, and for rho, in one
call of `geometric_observability` on the columns of one array; go(omega)
is its K = 0 column, so the ratio at K = 0 is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cig import modified_signal
from .complex_frequency import eta_of
from .dae import (
    SystemModel,
    SystemState,
    TrapezoidalIntegrator,
    group_residuals,
    reduce_algebraic,
)


class ModeIdentificationError(RuntimeError):
    pass


# central-difference step of the Jacobians, relative to 1 + |z_i|
_FD_EPS = 1e-6
# max ||A phi - lambda phi|| / ||phi||, relative to ||A||_F (at least 1)
_EIG_RESIDUAL_TOL = 1e-8

# criteria of `identify_frequency_mode`
FREQ_MODE_BAND_HZ = (0.02, 0.1)   # natural frequency
FREQ_MODE_PHASE_TOL_DEG = 30.0    # pairwise phase of the speed shape
FREQ_MODE_SPREAD_MIN = 0.2        # min/max magnitude of the speed shape


@dataclass
class LinearModel:
    a_sys: np.ndarray
    state_labels: list[str]
    speed_indices: list[int]
    # (c_rho, c_omega) at the converter bus; None without a converter
    rows: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    # (model, bytes of [x; y]) that `linearize` took;
    # None when hand-built
    point: tuple | None = field(default=None, repr=False)


@dataclass
class Mode:
    eigenvalue: complex
    right: np.ndarray
    speed_shape: np.ndarray  # machine-speed components, normalized to max |.| = 1
    # the linearization the mode was computed from; None when hand-built
    linear_model: LinearModel | None = field(default=None, repr=False, compare=False)

    @property
    def natural_frequency_hz(self) -> float:
        return abs(self.eigenvalue) / (2.0 * np.pi)

    @property
    def damping_ratio(self) -> float:
        m = abs(self.eigenvalue)
        return -self.eigenvalue.real / m if m > 0 else 1.0


@dataclass
class ObservabilityReport:
    k_grid: np.ndarray
    ratio: np.ndarray                      # go(omega_tilde(K)) / go(omega)
    go: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------

def _central_jacobians(model: SystemModel, eq: SystemState):
    """(f_x, f_y, g_x, g_y) by central differences of `group_residuals`."""
    z0 = np.concatenate([eq.x, eq.y])
    step = _FD_EPS * (1.0 + np.abs(z0))
    jac = (group_residuals(model, z0, step) - group_residuals(model, z0, -step)) / (2 * step)
    n_x = model.n_x
    return jac[:n_x, :n_x], jac[:n_x, n_x:], jac[n_x:, :n_x], jac[n_x:, n_x:]


def _point(model: SystemModel, eq: SystemState) -> tuple:
    """The key of a linearization: (model, bytes of [x; y])."""
    return model, np.concatenate([eq.x, eq.y]).tobytes()


def linearize(model: SystemModel, eq: SystemState) -> LinearModel:
    """Reduced state matrix at an equilibrium (algebraic variables
    eliminated) from the central difference of `group_residuals`, with the
    output rows when the model has a converter.  Raises ValueError when
    max |[f; g]| at eq exceeds 1e-8, the integrator's Newton tolerance
    (`TrapezoidalIntegrator.tol`), below which a run holds a state at rest,
    or is NaN."""
    tol = TrapezoidalIntegrator.tol
    worst = np.max(np.abs(model.residual(eq.x, eq.y)[0]))
    if not worst <= tol:   # a NaN residual included
        raise ValueError(f"not an equilibrium: residual {worst:.3e} > {tol:g}")
    reduced = reduce_algebraic(*_central_jacobians(model, eq))
    if reduced is None:
        raise RuntimeError("singular algebraic Jacobian g_y")
    _, gy_inv_gx, a = reduced
    rows = None if model.cig_bus is None else _output_rows(model, eq, a, gy_inv_gx)
    return LinearModel(a_sys=a, state_labels=list(model.state_labels),
                       speed_indices=list(model.speed_indices), rows=rows,
                       point=_point(model, eq))


def eigensolve(lm: LinearModel) -> list[Mode]:
    """Full spectrum with right eigenvectors, residual-checked."""
    a = lm.a_sys
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in the state matrix")
    w, vr = np.linalg.eig(a)
    # a real spectrum comes back as float: each Mode holds a complex eigenvalue
    w = w.astype(complex, copy=False)
    scale = max(np.linalg.norm(a, ord="fro"), 1.0)
    res = np.linalg.norm(a @ vr - vr * w, axis=0) / np.linalg.norm(vr, axis=0)
    bad = np.flatnonzero(res > _EIG_RESIDUAL_TOL * scale)
    if bad.size:
        raise RuntimeError(
            f"eigenpair residual {res[bad[0]]:.2e} exceeds {_EIG_RESIDUAL_TOL:g}*||A||; "
            f"cond(A) = {np.linalg.cond(a):.2e}")
    # speed shapes: rotate each so its largest component is real-positive,
    # then scale it to 1 (an all-zero shape stays as it is)
    shapes = vr[lm.speed_indices]
    mags = np.abs(shapes)
    cols = np.arange(len(w))
    lead = np.argmax(mags, axis=0)
    peak = mags[lead, cols]
    nonzero = peak > 0
    rotate = np.where(nonzero, np.exp(-1j * np.angle(shapes[lead, cols])), 1.0)
    shapes = shapes * rotate / np.where(nonzero, peak, 1.0)
    # by real part, then |imaginary part|; stable, so a conjugate pair
    # keeps the order eig gave it
    order = np.lexsort((np.abs(w.imag), w.real)).tolist()
    values, right, shapes = w.tolist(), vr.T, shapes.T
    return [Mode(eigenvalue=values[i], right=right[i], speed_shape=shapes[i],
                 linear_model=lm) for i in order]


def identify_frequency_mode(modes: list[Mode]) -> Mode:
    """Select the primary-frequency-control mode.

    Criteria: oscillatory (positive imaginary part of the pair),
    natural frequency in FREQ_MODE_BAND_HZ (0.02-0.1 Hz), machine-speed
    shape components pairwise in phase within FREQ_MODE_PHASE_TOL_DEG
    (30 degrees), and global participation (min/max speed-shape magnitude
    at least FREQ_MODE_SPREAD_MIN, 0.2).  Exactly one mode must qualify.
    """
    f_lo, f_hi = FREQ_MODE_BAND_HZ
    cands = []
    for m in modes:
        if m.eigenvalue.imag <= 0:
            continue  # keep one of each conjugate pair
        if not (f_lo <= m.natural_frequency_hz <= f_hi):
            continue
        mags = np.abs(m.speed_shape)
        if np.min(mags) / np.max(mags) < FREQ_MODE_SPREAD_MIN:
            continue
        ang = np.angle(m.speed_shape)
        rel = np.angle(np.exp(1j * (ang[:, None] - ang[None, :])))
        if np.max(np.abs(rel)) > np.deg2rad(FREQ_MODE_PHASE_TOL_DEG):
            continue
        cands.append(m)
    if not cands:
        raise ModeIdentificationError(
            f"no mode satisfies the frequency-control criteria in [{f_lo}, {f_hi}] Hz")
    if len(cands) > 1:
        raise ModeIdentificationError(
            f"{len(cands)} candidate modes: " +
            ", ".join(f"{m.eigenvalue:.3f}" for m in cands))
    return cands[0]


# ---------------------------------------------------------------------------
# Output rows and geometric observability
# ---------------------------------------------------------------------------

def _output_rows(model: SystemModel, eq: SystemState, a: np.ndarray,
                 gy_inv_gx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_rho, c_omega) at the converter terminal bus, in closed form from
    the reduction (A, g_y^{-1} g_x) at eq."""
    i, n = model.cig_bus, model.n_bus
    vdot_d, vdot_q = -gy_inv_gx[[i, i + n]] @ a
    eta = eta_of(complex(eq.y[i], eq.y[i + n]), vdot_d + 1j * vdot_q)
    c_rho = eta.real / model.omega_base
    c_omega = eta.imag / model.omega_base
    c_omega[model.speed_indices] += model.coi_weights
    return c_rho, c_omega


def geometric_observability(c: np.ndarray, mode: Mode) -> float | np.ndarray:
    """Cosine alignment |c . phi| / (||c|| ||phi||) in [0, 1] of a real
    output row c; for a 2-D c, one value per column.  Each column is
    reduced along axis 0 in the same order, so equal columns give equal
    values bitwise."""
    cols = np.asarray(c, dtype=float).reshape(len(c), -1)
    phi = mode.right[:, None]
    dot = np.sum(cols * phi.real, axis=0) + 1j * np.sum(cols * phi.imag, axis=0)
    cn = np.sqrt(np.sum(cols * cols, axis=0))
    pn = np.linalg.norm(mode.right)
    if pn == 0.0 or not np.all(cn > 0.0):
        raise ValueError("zero vector in observability computation")
    go = np.abs(dot) / (cn * pn)
    return float(go[0]) if np.ndim(c) == 1 else go


def k_sweep(model: SystemModel, eq: SystemState, mode: Mode,
            k_grid: np.ndarray) -> ObservabilityReport:
    """Observability ratio go(omega_tilde(K)) / go(omega) over a gain grid.

    The rows are those of the mode's own linearization, so the mode must
    come from `eigensolve(linearize(model, eq))`, which rejects an eq that
    is not an equilibrium; any other mode raises ValueError.  The output
    row of the compensated signal is `modified_signal(c_omega, c_rho, K)`.  The rows of rho and of every
    gain, led by K = 0 and K = 1, are the columns of one array that one
    `geometric_observability` call reduces, so go(omega) is the K = 0
    column and ratio(K = 0) is exactly 1.
    """
    if model.cig_bus is None:
        raise ValueError("output rows require a converter (measurement point) in the model")
    lm = mode.linear_model
    if lm is None or lm.point != _point(model, eq):
        raise ValueError("the mode was not linearized from this model at eq: "
                         "take it from eigensolve(linearize(model, eq))")
    c_rho, c_omega = lm.rows
    k_grid = np.asarray(k_grid, dtype=float)
    gains = np.concatenate([[0.0, 1.0], k_grid])
    rows = np.column_stack([c_rho, modified_signal(c_omega[:, None], c_rho[:, None], gains)])
    go = geometric_observability(rows, mode)
    return ObservabilityReport(
        k_grid=k_grid, ratio=go[3:] / go[1],
        go={"omega": float(go[1]), "rho": float(go[0]), "omega_tilde_k1": float(go[2])})
