"""Tests for linearization, eigenanalysis, mode identification, and
geometric observability."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import gridfreq.smallsignal
from gridfreq.casefile import load_bundled_case
from gridfreq.dae import Event, StepError, SystemState, build_system, simulate
from gridfreq.network import FaultOn, LoadScale
from gridfreq.smallsignal import (
    LinearModel,
    Mode,
    ModeIdentificationError,
    eigensolve,
    geometric_observability,
    identify_frequency_mode,
    k_sweep,
    linearize,
)

from conftest import fd_output_rows


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
        self.cig_bus = None  # no converter: no output rows

    def residual(self, x, y):
        return np.concatenate([self.A @ x + self.B @ y, self.C @ x + self.D @ y]), {}

    def jacobian_structure(self):
        """A full pattern, one column per group."""
        n = self.n_x + self.n_y
        return np.ones((n, n), dtype=bool), [np.array([i]) for i in range(n)], np.arange(n)

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


def test_linearize_rejects_a_nan_residual():
    """A NaN residual is not below the bound of an equilibrium either."""
    toy = LinearToy()
    eq = SystemState(x=np.array([np.nan, 0.0]), y=np.zeros(1), t=0.0)
    with pytest.raises(ValueError, match="not an equilibrium: residual nan"):
        linearize(toy, eq)


def test_linearize_perturbation_robustness(wscc, monkeypatch):
    """Eigenvalues from steps 1e-5 and 1e-6 agree to 4 significant digits."""
    model, st = wscc
    w2 = np.sort_complex(np.linalg.eigvals(linearize(model, st).a_sys))
    monkeypatch.setattr(gridfreq.smallsignal, "_FD_EPS", 1e-5)
    w1 = np.sort_complex(np.linalg.eigvals(linearize(model, st).a_sys))
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


def test_eigensolve_rejects_a_wrong_eigenpair(monkeypatch):
    """A right eigenvector that LAPACK got wrong fails the residual check of
    every pair at once, with the residual of the first bad pair."""
    eig = np.linalg.eig

    def corrupted(a):
        w, vr = eig(a)
        vr = vr.copy()
        vr[:, 1] = vr[:, 0]   # the eigenvector of another eigenvalue
        return w, vr

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    with pytest.raises(RuntimeError, match=r"eigenpair residual 1\.00e\+00 exceeds 1e-08"):
        eigensolve(_lm(np.diag([-1.0, -2.0, -3.0])))


def tied_spectra():
    """State matrices whose keys (real part, |imaginary part|) tie: repeated
    real eigenvalues, conjugate pairs, pairs of one real part; and a
    random one."""
    rot = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    yield np.diag([-1.0, -2.0, -1.0, 0.0, -2.0])
    yield scipy.linalg.block_diag(rot, -1.0, 1.5 * rot + 0.5 * np.eye(2), rot, [[-1.0]])
    yield np.random.default_rng(3).normal(size=(12, 12))


@pytest.mark.parametrize("a", tied_spectra())
def test_eigensolve_orders_the_modes_as_the_keyed_sort(a):
    """The modes come in the order of a stable sort of eig's pairs on the
    key (real part, |imaginary part|), tied pairs in eig's order, with the
    eigenvalue a Python complex and the right vector eig's column, bitwise."""
    w, vr = scipy.linalg.eig(a, left=False, right=True)
    order = sorted(range(len(w)), key=lambda i: (complex(w[i]).real, abs(complex(w[i]).imag)))
    modes = eigensolve(_lm(a))
    assert len(modes) == len(order)
    for m, i in zip(modes, order):
        assert type(m.eigenvalue) is complex
        assert np.array([m.eigenvalue]).tobytes() == w[i:i + 1].tobytes()
        assert m.right.tobytes() == vr[:, i].tobytes()


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
    return Mode(eigenvalue=-0.1 + 0.5j, right=phi, speed_shape=phi / np.max(np.abs(phi)))


def test_observability_alignment_extremes():
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    assert geometric_observability(np.array([2.0, 2.0]),
                                   _mode_with_shape(phi)) == pytest.approx(1.0)
    assert geometric_observability(np.array([1.0, -1.0]),
                                   _mode_with_shape(phi)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        geometric_observability(np.zeros(2), _mode_with_shape(phi))


def test_observability_scale_invariance(wscc_mode):
    c = wscc_mode.linear_model.rows[1]
    rng = np.random.default_rng(3)
    base = geometric_observability(c, wscc_mode)
    for _ in range(5):
        a = rng.uniform(0.1, 10.0)
        assert geometric_observability(a * c, wscc_mode) == pytest.approx(
            base, abs=1e-12)


def test_observability_same_for_conjugate_mode(wscc_mode):
    c = wscc_mode.linear_model.rows[1]
    conj = Mode(eigenvalue=np.conj(wscc_mode.eigenvalue),
                right=np.conj(wscc_mode.right),
                speed_shape=np.conj(wscc_mode.speed_shape))
    assert geometric_observability(c, conj) == pytest.approx(
        geometric_observability(c, wscc_mode), abs=1e-12)


def test_k_sweep_properties(wscc, wscc_mode):
    model, st = wscc
    grid = np.arange(-0.5, 3.0 + 1e-9, 0.05)
    rep = k_sweep(model, st, wscc_mode, grid)
    i0 = int(np.argmin(np.abs(rep.k_grid)))
    assert rep.ratio[i0] == 1.0  # exactly, by construction
    assert np.max(np.abs(np.diff(rep.ratio))) < 0.05  # smooth in K
    assert rep.go["omega"] > 0.0
    assert rep.go["omega_tilde_k1"] > rep.go["omega"]


@pytest.mark.parametrize("bus5_scale", [1.0, 1.2])
def test_k_sweep_ratio_is_exactly_one_at_k_zero(bus5_scale):
    """go(omega) and the K = 0 row come out of the same arithmetic, also
    on a grid where K = 0 is not the first gain."""
    case = load_bundled_case()
    bus = case.network.bus(5)
    bus.p_load *= bus5_scale
    bus.q_load *= bus5_scale
    model, st = build_system(case, "cig_omega_tilde", freq_loop=False)
    mode = identify_frequency_mode(eigensolve(linearize(model, st)))
    grid = np.arange(-10, 61) / 20.0
    rep = k_sweep(model, st, mode, grid)
    assert rep.ratio[grid == 0.0].tolist() == [1.0]
    assert k_sweep(model, st, mode, np.array([0.0])).ratio.tolist() == [1.0]


def test_vectorized_sweep_and_shapes_match_the_loop_references(wscc, wscc_mode):
    """The sweep against go(row) / go(omega) gain by gain (summed in another
    order: within 1e-14), and the speed shapes against the normalization of
    one mode at a time (the same arithmetic: bitwise)."""
    model, st = wscc
    c_rho, c_omega = wscc_mode.linear_model.rows
    grid = np.arange(-10, 61) / 20.0
    go_omega = geometric_observability(c_omega, wscc_mode)
    ref = [geometric_observability(c_omega - k * c_rho, wscc_mode) / go_omega for k in grid]
    assert np.max(np.abs(k_sweep(model, st, wscc_mode, grid).ratio - ref)) < 1e-14
    for m in eigensolve(linearize(model, st)):
        shape = m.right[model.speed_indices]
        peak = np.max(np.abs(shape))
        if peak > 0:
            k = int(np.argmax(np.abs(shape)))
            shape = shape * np.exp(-1j * np.angle(shape[k])) / peak
        assert m.speed_shape.tobytes() == shape.tobytes()


# ---------------------------------------------------------------------------
# one linearization per operating point
# ---------------------------------------------------------------------------

def test_linearize_and_k_sweep_share_one_reduction(wscc, call_counts):
    """`linearize` is the equilibrium check plus two passes per column group;
    `k_sweep` on the mode it gave adds no pass: it reuses the rows, and
    that linearization checked the point."""
    model, st = wscc
    groups = model.jacobian_structure()[1]
    call_counts.update(machines=0, cig=0)
    mode = identify_frequency_mode(eigensolve(linearize(model, st)))
    k_sweep(model, st, mode, np.arange(-10, 61) / 20.0)
    assert call_counts["machines"] == 2 * len(groups) + 1
    assert call_counts["cig"] == 2 * len(groups) + 1


def test_k_sweep_reuses_the_rows_of_a_fresh_linearization(wscc, wscc_mode):
    """The rows a mode carries are bitwise those of a second linearization
    at the same point, and the sweeps on the two modes are bitwise equal."""
    model, st = wscc
    again = identify_frequency_mode(eigensolve(linearize(model, st)))
    assert again.linear_model is not wscc_mode.linear_model
    for row, row_again in zip(wscc_mode.linear_model.rows, again.linear_model.rows):
        assert row.tobytes() == row_again.tobytes()
    grid = np.arange(-10, 61) / 20.0
    rep, rep_again = k_sweep(model, st, wscc_mode, grid), k_sweep(model, st, again, grid)
    assert rep.ratio.tobytes() == rep_again.ratio.tobytes()
    assert rep.go == rep_again.go


def _linked_mode(model, st):
    return identify_frequency_mode(eigensolve(linearize(model, st)))


def _case_with_new_parameters(source):
    """The bundled case with machine 1's T'd0 doubled, or with the
    converter's voltage, PLL and current-loop gains changed."""
    case = load_bundled_case()
    if source == "new time constant":
        m = case.machines[0]
        case.machines[0] = dataclasses.replace(
            m, params=dataclasses.replace(m.params, td01=2.0 * m.params.td01))
    else:
        c = case.cigs[0]
        p = c.params
        case.cigs[0] = dataclasses.replace(c, params=dataclasses.replace(
            p, kp_v=4.0 * p.kp_v, t_i=5.0 * p.t_i, kp_pll=4.0 * p.kp_pll))
    return case


@pytest.mark.parametrize("source", ["nudged point", "other model", "new time constant",
                                    "converter edit", "hand-built mode", "same point"])
def test_k_sweep_recomputes_rows_linearized_elsewhere(wscc, wscc_mode, call_counts,
                                                      source):
    """`k_sweep` recomputes no rows: it sweeps those of its mode's
    linearization, taken from the same model at bitwise the same [x; y],
    and rejects any other mode with ValueError, taking no residual pass
    (that linearization checked the point).  The nudged
    point is still an equilibrium within tolerance, and the other model has
    bitwise the same [x; y].  A built model never changes: an in-place edit
    of a machine's T'd0 or of the converter's gains raises, and a model
    built with the new value has bitwise the same [x; y] but another A, so
    its mode is rejected too."""
    model, st = wscc
    eq = st
    if source == "nudged point":
        eq = SystemState(x=st.x.copy(), y=st.y.copy(), t=0.0)
        eq.x[1] += 1e-12
        mode = _linked_mode(model, st)
    elif source == "other model":
        mode = _linked_mode(*build_system(load_bundled_case(), "cig_omega_tilde",
                                          freq_loop=False))
        assert mode.linear_model.point[1] == np.concatenate([st.x, st.y]).tobytes()
    elif source in ("new time constant", "converter edit"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            if source == "new time constant":
                model.machines[0].params.td01 *= 2.0
            else:
                model.cig.params.kp_v *= 4.0
        mode = _linked_mode(*build_system(_case_with_new_parameters(source),
                                          "cig_omega_tilde", freq_loop=False))
        assert mode.linear_model.point[1] == np.concatenate([st.x, st.y]).tobytes()
        assert mode.linear_model.a_sys.tobytes() != wscc_mode.linear_model.a_sys.tobytes()
    else:
        mode = _linked_mode(model, st)
        if source == "hand-built mode":
            mode = Mode(mode.eigenvalue, mode.right, mode.speed_shape)
    grid = np.array([0.0, 1.0])
    call_counts.update(machines=0, cig=0)
    if source == "same point":
        assert k_sweep(model, eq, mode, grid).ratio[0] == 1.0
    else:
        with pytest.raises(ValueError, match=r"take it from eigensolve\(linearize\(model, eq\)\)"):
            k_sweep(model, eq, mode, grid)
    assert call_counts["machines"] == 0


def test_a_run_leaves_the_model_and_its_linearizations_alone():
    """`simulate` applies its events to a copy of the model: a mode
    linearized before a run with an event is still accepted by `k_sweep`
    after it, with the same result, and the caller's network is that of
    before, also after a run whose event re-solve fails."""
    model, st = build_system(load_bundled_case(), "cig_omega_tilde", freq_loop=False)
    mode = _linked_mode(model, st)
    net = model.net
    grid = np.array([0.0, 0.6, 1.2])
    swept = k_sweep(model, st, mode, grid).ratio
    simulate(model, st, [Event(0.1, LoadScale(bus=5, factor=0.5))], t_end=0.2, h=0.02,
             channels=["omega_coi"])
    assert model.net is net
    assert k_sweep(model, st, mode, grid).ratio.tobytes() == swept.tobytes()
    with pytest.raises(StepError, match=r"event at t=0\.1s failed"):
        simulate(model, st, [Event(0.1, FaultOn(bus=7, g=20.0))], t_end=0.2, h=0.02,
                 channels=["omega_coi"])
    assert model.net is net
    assert k_sweep(model, st, mode, grid).ratio.tobytes() == swept.tobytes()


def test_observability_of_columns_is_that_of_each_row(wscc_mode):
    """A 2-D c gives one go per column: the column-wise sums of a 1-D row
    and of a column agree within 1e-15, and equal columns give equal go."""
    c_rho, c_omega = wscc_mode.linear_model.rows
    go = geometric_observability(np.column_stack([c_omega, c_rho, c_omega]), wscc_mode)
    assert go.shape == (3,) and go[0] == go[2]
    assert abs(go[0] - geometric_observability(c_omega, wscc_mode)) < 1e-15
    assert abs(go[1] - geometric_observability(c_rho, wscc_mode)) < 1e-15
    with pytest.raises(ValueError, match="zero vector"):
        geometric_observability(np.column_stack([c_omega, 0.0 * c_rho]), wscc_mode)


# ---------------------------------------------------------------------------
# closed-form output rows against a nested finite-difference reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bus5_scale", [1.0, 1.15])
def test_output_rows_match_finite_difference_reference(bus5_scale):
    case = load_bundled_case()
    bus = case.network.bus(5)
    bus.p_load *= bus5_scale
    bus.q_load *= bus5_scale
    model, st = build_system(case, "cig_omega_tilde", freq_loop=False)
    ref = fd_output_rows(model, st, lambda rho, omega: [rho, omega])
    c_rho, c_omega = linearize(model, st).rows
    assert np.max(np.abs(c_rho - ref[:, 0])) < 1e-6
    assert np.max(np.abs(c_omega - ref[:, 1])) < 1e-6


def test_output_rows_reject_non_equilibrium(wscc, wscc_mode):
    model, st = wscc
    off = SystemState(x=st.x.copy(), y=st.y.copy(), t=0.0)
    off.x[1] += 1e-3
    with pytest.raises(ValueError, match="not an equilibrium"):
        linearize(model, off)
    # no mode can have been linearized there: the point check rejects it
    with pytest.raises(ValueError, match="not linearized from this model at eq"):
        k_sweep(model, off, wscc_mode, np.array([0.0, 1.0]))


def test_output_rows_require_a_converter(wscc_mode):
    model, st = build_system(load_bundled_case(), "no_cig")
    assert linearize(model, st).rows is None
    with pytest.raises(ValueError, match="require a converter"):
        k_sweep(model, st, wscc_mode, np.array([0.0, 1.0]))
