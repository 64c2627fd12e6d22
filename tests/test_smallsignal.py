"""Tests for linearization, eigenanalysis, mode identification, and
geometric observability."""

import numpy as np
import pytest

from gridfreq.casefile import load_bundled_case
from gridfreq.dae import SystemState, build_system
from gridfreq.smallsignal import (
    LinearModel,
    Mode,
    ModeIdentificationError,
    eigensolve,
    geometric_observability,
    identify_frequency_mode,
    k_sweep,
    linearize,
    output_row,
)


class LinearToy:
    """Analytically linear DAE  x' = A x + B y,  0 = C x + D y."""

    def __init__(self):
        self.A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        self.B = np.array([[1.0], [0.5]])
        self.C = np.array([[0.2, -0.1]])
        self.D = np.array([[-2.0]])
        self.n_x, self.n_y = 2, 1
        self.state_labels = ["x1", "x2"]
        self.speed_indices = [0]

    def residual(self, x, y):
        return self.A @ x + self.B @ y, self.C @ x + self.D @ y, {}

    def jacobian_structure(self):
        """A full pattern, one column per group."""
        n = self.n_x + self.n_y
        return np.ones((n, n), dtype=bool), [np.array([i]) for i in range(n)]

    def reduced(self):
        return self.A - self.B @ np.linalg.solve(self.D, self.C)


@pytest.fixture(scope="module")
def wscc():
    case = load_bundled_case()
    model, st = build_system(case, "cig_omega_tilde", freq_loop=False)
    return model, st


@pytest.fixture(scope="module")
def wscc_mode(wscc):
    model, st = wscc
    return identify_frequency_mode(eigensolve(linearize(model, st)))


# ---------------------------------------------------------------------------
# linearize
# ---------------------------------------------------------------------------

def test_linearize_matches_hand_written_matrix():
    toy = LinearToy()
    eq = SystemState(x=np.zeros(2), y=np.zeros(1), t=0.0)
    lm = linearize(toy, eq)
    assert np.max(np.abs(lm.a_sys - toy.reduced())) < 1e-8


def test_linearize_rejects_non_equilibrium():
    toy = LinearToy()
    eq = SystemState(x=np.array([1.0, 0.0]), y=np.zeros(1), t=0.0)
    with pytest.raises(ValueError, match="not an equilibrium"):
        linearize(toy, eq)


def test_linearize_perturbation_robustness(wscc):
    """Eigenvalues from eps = 1e-5 and 1e-6 agree to 4 significant digits."""
    model, st = wscc
    w1 = np.sort_complex(np.linalg.eigvals(linearize(model, st, eps=1e-5).a_sys))
    w2 = np.sort_complex(np.linalg.eigvals(linearize(model, st, eps=1e-6).a_sys))
    scale = np.maximum(np.abs(w2), 1e-3)
    assert np.max(np.abs(w1 - w2) / scale) < 1e-4


def test_wscc_equilibrium_is_stable(wscc):
    """All eigenvalues have nonpositive real part; the only non-negative
    one is the structural zero of the angle-reference symmetry."""
    model, st = wscc
    w = np.linalg.eigvals(linearize(model, st).a_sys)
    w = w[np.abs(w) > 1e-6]  # drop the structural zero mode
    assert np.max(w.real) < 0.0


# ---------------------------------------------------------------------------
# eigensolve and mode identification
# ---------------------------------------------------------------------------

def _lm(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return LinearModel(a_sys=a,
                       state_labels=[f"s{i}" for i in range(n)],
                       speed_indices=list(range(n)))


def test_eigensolve_diagonal():
    modes = eigensolve(_lm(np.diag([-1.0, -2.0])))
    assert sorted(m.eigenvalue.real for m in modes) == [-2.0, -1.0]
    for m in modes:
        assert np.max(np.abs(m.speed_shape)) == pytest.approx(1.0)


def test_eigensolve_rotation_pair():
    modes = eigensolve(_lm([[0.0, 1.0], [-1.0, 0.0]]))
    vals = sorted(m.eigenvalue.imag for m in modes)
    assert vals == pytest.approx([-1.0, 1.0])
    assert all(abs(m.eigenvalue.real) < 1e-12 for m in modes)


def test_eigensolve_rejects_nonfinite():
    with pytest.raises(ValueError):
        eigensolve(_lm(np.array([[np.nan, 0.0], [0.0, -1.0]])))


def test_modes_come_in_conjugate_pairs(wscc):
    model, st = wscc
    w = np.array([m.eigenvalue for m in eigensolve(linearize(model, st))])
    osc = w[np.abs(w.imag) > 1e-9]
    for lam in osc:
        assert np.min(np.abs(osc - np.conj(lam))) < 1e-8


def test_identify_frequency_mode_wscc(wscc_mode):
    m = wscc_mode
    assert 0.02 <= m.natural_frequency_hz <= 0.1
    assert m.eigenvalue.real < 0.0
    mags = np.abs(m.speed_shape)
    assert np.min(mags) / np.max(mags) >= 0.2  # global participation
    ang = np.angle(m.speed_shape)
    rel = np.angle(np.exp(1j * (ang[:, None] - ang[None, :])))
    assert np.max(np.abs(rel)) < np.deg2rad(30.0)  # in phase


def test_identify_rejects_when_no_candidate():
    # a single fast, well-damped pair: nothing in the 0.02-0.1 Hz window
    modes = eigensolve(_lm([[-1.0, 10.0], [-10.0, -1.0]]))
    with pytest.raises(ModeIdentificationError):
        identify_frequency_mode(modes)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def _mode_with_shape(phi):
    phi = np.asarray(phi, dtype=complex)
    return Mode(eigenvalue=-0.1 + 0.5j, right=phi, left=phi.conj(),
                speed_shape=phi / np.max(np.abs(phi)))


def test_observability_alignment_extremes():
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    assert geometric_observability(np.array([2.0, 2.0]),
                                   _mode_with_shape(phi)) == pytest.approx(1.0)
    assert geometric_observability(np.array([1.0, -1.0]),
                                   _mode_with_shape(phi)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        geometric_observability(np.zeros(2), _mode_with_shape(phi))


def test_observability_scale_invariance(wscc, wscc_mode):
    model, st = wscc
    c = output_row(model, st, "omega")
    rng = np.random.default_rng(3)
    base = geometric_observability(c, wscc_mode)
    for _ in range(5):
        a = rng.uniform(0.1, 10.0)
        assert geometric_observability(a * c, wscc_mode) == pytest.approx(
            base, abs=1e-12)


def test_observability_same_for_conjugate_mode(wscc, wscc_mode):
    model, st = wscc
    c = output_row(model, st, "omega")
    conj = Mode(eigenvalue=np.conj(wscc_mode.eigenvalue),
                right=np.conj(wscc_mode.right), left=np.conj(wscc_mode.left),
                speed_shape=np.conj(wscc_mode.speed_shape))
    assert geometric_observability(c, conj) == pytest.approx(
        geometric_observability(c, wscc_mode), abs=1e-12)


def test_output_row_superposition(wscc):
    model, st = wscc
    c_omega = output_row(model, st, "omega")
    c_rho = output_row(model, st, "rho")
    for k in (0.0, 1.0, 1.2, -0.03):
        c_t = output_row(model, st, "omega_tilde", k=k)
        assert np.max(np.abs(c_t - (c_omega - k * c_rho))) < 1e-6


def test_output_row_unknown_signal(wscc):
    model, st = wscc
    with pytest.raises(ValueError):
        output_row(model, st, "bogus")


def test_k_sweep_properties(wscc, wscc_mode):
    model, st = wscc
    grid = np.arange(-0.5, 3.0 + 1e-9, 0.05)
    rep = k_sweep(model, st, wscc_mode, grid)
    i0 = int(np.argmin(np.abs(rep.k_grid)))
    assert rep.ratio[i0] == 1.0  # exactly, by construction
    assert np.max(np.abs(np.diff(rep.ratio))) < 0.05  # smooth in K
    assert rep.go["omega"] > 0.0
    assert rep.go["omega_tilde_k1"] > rep.go["omega"]


# ---------------------------------------------------------------------------
# closed-form output rows against a nested finite-difference reference
# ---------------------------------------------------------------------------

def _dense_fd(fun, z0):
    """d fun/dz at z0 by forward differences, one pass per column, with the
    integrator's step 1e-7 (1 + |z_i|)."""
    f0 = fun(z0)
    jac = np.empty((f0.size, z0.size))
    for i in range(z0.size):
        eps = 1e-7 * (1.0 + abs(z0[i]))
        z = z0.copy()
        z[i] += eps
        jac[:, i] = (fun(z) - f0) / eps
    return jac


def _fd_measured_signals(model, x, y_guess):
    """(rho, omega) at the converter bus for state x: the network is
    re-solved and ydot = -g_y^{-1} g_x f recovered with FD Jacobians."""
    y = model.solve_algebraic(x, y_guess)
    g_x = _dense_fd(lambda xx: model.g(xx, y), x)
    g_y = _dense_fd(lambda yy: model.g(x, yy), y)
    ydot = -np.linalg.solve(g_y, g_x @ model.f(x, y))
    i, n = model.cig_bus, model.n_bus
    eta = (ydot[i] + 1j * ydot[i + n]) / (y[i] + 1j * y[i + n])
    return eta.real / model.omega_base, model.coi_speed(x) + eta.imag / model.omega_base


def _fd_rows(model, eq, eps=1e-6):
    """(c_rho, c_omega) by central differences of the measured signals."""
    c_rho = np.empty(model.n_x)
    c_omega = np.empty(model.n_x)
    for i in range(model.n_x):
        d = eps * (1.0 + abs(eq.x[i]))
        xp, xm = eq.x.copy(), eq.x.copy()
        xp[i] += d
        xm[i] -= d
        rp, wp = _fd_measured_signals(model, xp, eq.y)
        rm, wm = _fd_measured_signals(model, xm, eq.y)
        c_rho[i] = (rp - rm) / (2 * d)
        c_omega[i] = (wp - wm) / (2 * d)
    return c_rho, c_omega


@pytest.mark.parametrize("bus5_scale", [1.0, 1.15])
def test_output_rows_match_finite_difference_reference(bus5_scale):
    case = load_bundled_case()
    bus = case.network.bus(5)
    bus.p_load *= bus5_scale
    bus.q_load *= bus5_scale
    model, st = build_system(case, "cig_omega_tilde", freq_loop=False)
    ref_rho, ref_omega = _fd_rows(model, st)
    assert np.max(np.abs(output_row(model, st, "rho") - ref_rho)) < 1e-6
    assert np.max(np.abs(output_row(model, st, "omega") - ref_omega)) < 1e-6


def test_output_rows_reject_non_equilibrium(wscc, wscc_mode):
    model, st = wscc
    off = SystemState(x=st.x.copy(), y=st.y.copy(), t=0.0)
    off.x[1] += 1e-3
    with pytest.raises(ValueError, match="not an equilibrium"):
        output_row(model, off, "omega")
    with pytest.raises(ValueError, match="not an equilibrium"):
        k_sweep(model, off, wscc_mode, np.array([0.0, 1.0]))


def test_output_rows_require_a_converter(wscc_mode):
    model, st = build_system(load_bundled_case(), "no_cig")
    with pytest.raises(ValueError, match="require a converter"):
        output_row(model, st, "rho")
    with pytest.raises(ValueError, match="require a converter"):
        k_sweep(model, st, wscc_mode, np.array([0.0, 1.0]))
