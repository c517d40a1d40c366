import numpy as np
import pytest

from nsdfm.model import ModelSpec, Panel
from nsdfm.pre_estimate import (
    _filled_differences,
    _filled_levels,
    detrend_ols,
    floor_gamma_u,
    gamma_e_init,
    lagged_loadings,
    p00_init,
    pc_first_differences,
    pre_estimate,
    var_prefit,
)
from oracles import lyapunov_fixed_point, ols_line_fit, power_iteration_leading_eig


def test_detrend_exact_line():
    t = np.arange(1, 21, dtype=float)
    a, b, resid = detrend_ols(2 + 3 * t, np.ones(20, dtype=bool))
    assert a == pytest.approx(2.0, abs=1e-10)
    assert b == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)


def test_detrend_matches_normal_equations(rng):
    t = np.arange(1, 201, dtype=float)
    y = 1.0 + 0.5 * t + rng.standard_normal(200)
    a, b, _ = detrend_ols(y, np.ones(200, dtype=bool))
    a0, b0 = ols_line_fit(y)
    assert a == pytest.approx(a0, abs=1e-10)
    assert b == pytest.approx(b0, abs=1e-10)


def test_pc_recovers_exact_factor_structure(rng):
    n, q, T = 20, 2, 400
    B = np.linalg.qr(rng.standard_normal((n, q)))[0] * 3.0
    f = rng.standard_normal((q, T))
    dx = B @ f
    B0, M = pc_first_differences(dx, q)
    # principal angles between span(B0) and span(B)
    Qa = np.linalg.qr(B0)[0]
    Qb = np.linalg.qr(B)[0]
    sv = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    assert np.all(sv > 1 - 1e-8)


def test_pc_orthogonality_identity(rng):
    dx = rng.standard_normal((12, 300))
    B0, M = pc_first_differences(dx, 3)
    V = B0 / np.sqrt(M)
    np.testing.assert_allclose(B0.T @ B0, np.diag(M), atol=1e-10)
    assert np.all(V[0] > 0)


def test_pc_leading_pair_matches_power_iteration(rng):
    dx = rng.standard_normal((20, 200))
    B0, M = pc_first_differences(dx, 2)
    V = B0 / np.sqrt(M)
    centered = dx - dx.mean(axis=1, keepdims=True)
    G = centered @ centered.T / dx.shape[1]
    lam, vec = power_iteration_leading_eig(G)
    assert M[0] == pytest.approx(lam, rel=1e-8)
    align = abs(vec @ V[:, 0])
    assert align == pytest.approx(1.0, abs=1e-8)


def test_sign_convention_flip_invariance(rng):
    # flipping one series' sign leaves every other series' loading row intact
    n, q, T = 10, 2, 500
    f = np.cumsum(rng.standard_normal((q, T)), axis=1)
    B = rng.normal(1, 1, size=(n, q))
    x = B @ f + 0.1 * rng.standard_normal((n, T))
    dx = np.diff(x, axis=1)
    B0a, _ = pc_first_differences(dx, q)
    x2 = x.copy()
    x2[3] = -x2[3]
    B0b, _ = pc_first_differences(np.diff(x2, axis=1), q)
    keep = [i for i in range(n) if i != 3]
    np.testing.assert_allclose(B0a[keep], B0b[keep], atol=1e-8)
    np.testing.assert_allclose(B0a[3], -B0b[3], atol=1e-8)


def test_lagged_loadings_skipped_for_s0(rng):
    dx = rng.standard_normal((5, 50))
    B0, M = pc_first_differences(dx, 1)
    assert lagged_loadings(dx, B0, np.zeros((1, 51)), 0) == []


def test_lagged_loadings_noiseless_recovery(rng):
    # lagged loadings inside the contemporaneous column space: the two-lag
    # projection reproduces the noiseless differenced panel essentially exactly
    n, q, T = 30, 2, 2000
    f = np.cumsum(rng.standard_normal((q, T)), axis=1)
    B0 = rng.normal(1.0, 1.0, size=(n, q))
    C = np.array([[0.4, -0.2], [0.1, 0.5]])
    B1 = B0 @ C
    x = B0 @ f
    x[:, 1:] += B1 @ f[:, :-1]
    x[:, 0] += B1 @ f[:, 0]
    spec = ModelSpec(n=n, T=T, q=q, s=1, p=2)
    pre = pre_estimate(spec, Panel.from_data(x))
    dxf = np.diff(pre.f_tilde, axis=1)
    dx = np.diff(x, axis=1)
    fit_dchi = pre.params.loadings[0] @ dxf
    fit_dchi[:, 1:] += pre.params.loadings[1] @ dxf[:, :-1]
    resid = fit_dchi[:, 1:] - dx[:, 1:]
    r2 = 1 - resid.var() / dx[:, 1:].var()
    assert r2 > 0.999


def test_lagged_loading_residual_orthogonality(rng):
    n, q, T = 8, 2, 300
    dx = rng.standard_normal((n, T - 1))
    f_tilde = rng.standard_normal((q, T))
    B0 = rng.standard_normal((n, q))
    lag = lagged_loadings(dx, B0, f_tilde, 1)[0]
    df = np.diff(f_tilde, axis=1)
    cols = np.arange(1, df.shape[1])
    resid = dx[:, cols] - B0 @ df[:, cols] - lag @ df[:, cols - 1]
    gram_product = resid @ df[:, cols - 1].T
    assert np.max(np.abs(gram_product)) < 1e-9


def test_var_prefit_long_path(rng):
    q, T = 2, 5000
    A1 = np.array([[0.5, 0.1], [0.0, 0.4]])
    A2 = np.array([[0.2, 0.0], [0.1, 0.1]])
    f = np.zeros((q, T))
    for t in range(2, T):
        f[:, t] = A1 @ f[:, t - 1] + A2 @ f[:, t - 2] + rng.standard_normal(q)
    A, gu = var_prefit(f, 2)
    assert np.linalg.norm(np.hstack(A) - np.hstack([A1, A2]), 2) < 0.05


def test_var_prefit_white_noise(rng):
    f = rng.standard_normal((2, 3000))
    A, gu = var_prefit(f, 2)
    assert np.linalg.norm(np.hstack(A), 2) < 3 / np.sqrt(3000) * 10


def test_var_prefit_random_walk_superconsistency(rng):
    T = 4000
    f = np.cumsum(rng.standard_normal((1, T)), axis=1)
    A, gu = var_prefit(f, 1)
    assert abs(A[0][0, 0] - 1.0) < 20.0 / T


def test_gamma_e_halving(rng):
    # stationary series: Var(diff e) = 2 Var(e), so the 1/(2T) sum recovers Var(e)
    n, T = 2, 4000
    e = rng.normal(0, 2.0, size=(n, T))
    dx = np.diff(e, axis=1)
    loadings = [np.zeros((n, 1))]
    f_tilde = np.zeros((1, T))
    ge = gamma_e_init(dx, loadings, f_tilde, frozenset())
    np.testing.assert_allclose(ge, 4.0, rtol=0.1)
    # unit-root series: diffs are the innovations themselves, 1/T normalization
    ge1 = gamma_e_init(dx, loadings, f_tilde, frozenset({0, 1}))
    np.testing.assert_allclose(ge1, 2 * 4.0, rtol=0.1)


def test_gamma_e_zero_residuals():
    dx = np.zeros((2, 50))
    ge = gamma_e_init(dx, [np.zeros((2, 1))], np.zeros((1, 51)), frozenset())
    np.testing.assert_array_equal(ge, 0.0)


def test_floor_gamma_u(rng):
    # one floor for pre_estimate and the M-step: a negative smallest eigenvalue
    # is lifted to about the floor, one in (0, floor] gets the floor added
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))

    def with_smallest(low):
        g = (V * np.array([low, 0.5, 2.0])) @ V.T
        return 0.5 * (g + g.T)

    negative = with_smallest(-1e-6)
    assert np.linalg.eigvalsh(negative)[0] < 0
    lifted = floor_gamma_u(negative)
    assert np.linalg.eigvalsh(lifted)[0] > 0
    np.linalg.cholesky(lifted)
    tiny = with_smallest(5e-13)
    assert 0 < np.linalg.eigvalsh(tiny)[0] <= 1e-12
    np.testing.assert_array_equal(floor_gamma_u(tiny), tiny + 1e-12 * np.eye(3), strict=True)
    fine = with_smallest(1e-3)
    assert floor_gamma_u(fine) is fine


def test_p00_scalar_geometric_sum():
    P = p00_init(np.array([[1.0]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(1 / (1 - 0.99 ** 2), rel=1e-12)


def test_p00_solves_lyapunov(rng):
    q = 2
    A = rng.standard_normal((2 * q, 2 * q))
    gu = np.eye(q)
    P = p00_init(A, gu)
    Ah = 0.99 * A / np.max(np.abs(np.linalg.eigvals(A)))
    Q = np.zeros((2 * q, 2 * q))
    Q[:q, :q] = gu
    resid = P - Ah @ P @ Ah.T - Q
    assert np.max(np.abs(resid)) < 1e-8 * max(1.0, np.max(np.abs(P)))


def test_p00_matches_fixed_point_iteration(rng):
    q = 2
    A = rng.standard_normal((q, q)) * 0.4
    gu = np.array([[1.0, 0.2], [0.2, 0.8]])
    P = p00_init(A, gu)
    Ah = 0.99 * A / np.max(np.abs(np.linalg.eigvals(A)))
    Q = np.zeros((q, q))
    Q[:q, :q] = gu
    P_iter = lyapunov_fixed_point(Ah, Q)
    np.testing.assert_allclose(P, P_iter, rtol=1e-8, atol=1e-8)


def test_pre_estimate_runs_with_missing_cells(rng):
    n, T = 15, 120
    f = np.cumsum(rng.standard_normal((2, T)), axis=1)
    B = rng.normal(1, 1, size=(n, 2))
    x = B @ f + rng.standard_normal((n, T))
    mask = rng.random((n, T)) > 0.08
    panel = Panel(np.where(mask, x, np.nan), mask)
    spec = ModelSpec(n=n, T=T, q=2, s=0, p=2)
    pre = pre_estimate(spec, panel)
    assert np.all(np.isfinite(pre.f_tilde))
    assert np.all(pre.params.gamma_e_diag > 0)
    assert pre.init_state_cov.shape == (spec.layout.K, spec.layout.K)


def test_fixed_initialization_constants(rng):
    n, T = 10, 80
    x = np.cumsum(rng.standard_normal((n, T)), axis=1)
    spec = ModelSpec(
        n=n, T=T, q=1, s=0, p=2,
        idio_i1=frozenset({0}), local_level=frozenset({1}), local_trend=frozenset({2}),
    )
    pre = pre_estimate(spec, Panel.from_data(x))
    assert pre.params.sigma2_omega[1] == 1e-2
    assert pre.params.sigma2_eta[2] == 1e-2
    np.testing.assert_allclose(pre.params.sigma2_nu[[0, 1, 2]], 1e-5)
    assert np.all(pre.params.sigma2_nu[3:] == 0)


def test_init_state_mean_follows_layout(rng):
    # q = 2 with max(s+1, p) = 3 lags, then 2 xi, 2 local-level and 2 local-trend states
    n, T = 12, 80
    t = np.arange(1, T + 1)
    x = np.cumsum(rng.standard_normal((n, T)), axis=1) + 0.3 * t + 2.0
    spec = ModelSpec(
        n=n, T=T, q=2, s=1, p=3,
        idio_i1=frozenset({6, 1}), local_level=frozenset({9, 3}), local_trend=frozenset({4, 8}),
    )
    pre = pre_estimate(spec, Panel.from_data(x))
    ols = np.array([detrend_ols(x[i], np.ones(T, dtype=bool))[:2] for i in range(n)])   # (intercept, slope)
    assert np.all(ols[[3, 4, 8, 9]] != 0)
    m = pre.init_state_mean
    assert m.shape == (12,)
    np.testing.assert_array_equal(m[:6], np.concatenate([pre.f_tilde[:, 0]] * 3))
    np.testing.assert_array_equal(m[6:8], 0.0)
    # the local level states start at their series' OLS intercepts, the local trend states at their slopes
    np.testing.assert_array_equal(m[8:10], ols[[3, 9], 0])
    np.testing.assert_array_equal(m[10:12], ols[[4, 8], 1])
    # the detrend set is {3, 4, 8, 9}: alpha0 and beta0 are OLS where no state carries them, +0.0 elsewhere
    for value, col, free in ((pre.params.alpha0, 0, [4, 8]), (pre.params.beta0, 1, [3, 9])):
        expected = np.zeros(n)
        expected[free] = ols[free, col]
        np.testing.assert_array_equal(value, expected)
        assert not np.signbit(value[expected == 0]).any()



def test_filled_levels_hand_values():
    nan = np.nan
    x = np.array([
        [nan, nan, 3.0, 4.0, 6.0],   # leading gap: walked back from t=2
        [1.0, nan, nan, 5.0, 6.0],   # interior gap: walked forward from t=0
        [2.0, 3.0, nan, nan, nan],   # trailing gap: walked forward from t=1
        [nan, nan, nan, nan, nan],   # never observed: zeros
    ])
    dx = np.array([
        [1.0, 2.0, 1.0, 2.0],
        [0.5, 1.0, 2.0, 1.0],
        [1.0, 0.25, 0.5, 4.0],
        [1.0, 1.0, 1.0, 1.0],
    ])
    out = _filled_levels(x, np.isfinite(x), dx)
    np.testing.assert_array_equal(out, [
        [0.0, 1.0, 3.0, 4.0, 6.0],
        [1.0, 1.5, 2.5, 5.0, 6.0],
        [2.0, 3.0, 3.25, 3.75, 7.75],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    # a complete mask returns the levels bit for bit
    full = np.array([[-0.0, 1e-300, 2.5], [np.pi, -7.0, 1e300]])
    assert _filled_levels(full, np.ones(full.shape, dtype=bool), np.ones((2, 2))).tobytes() == full.tobytes()


def test_filled_differences_hand_values():
    nan = np.nan
    x = np.array([
        [0.0, 1.0, 3.0, 6.0, 10.0],   # complete: its differences untouched
        [0.0, 1.0, nan, 4.0, 6.0],    # observed pairs give 1 and 2: gaps take 1.5
        [nan, 1.0, nan, 2.0, nan],    # no observed pair: zeros
    ])
    out = _filled_differences(x, np.isfinite(x))
    np.testing.assert_array_equal(out, [
        [1.0, 2.0, 3.0, 4.0],
        [1.0, 1.5, 1.5, 2.0],
        [0.0, 0.0, 0.0, 0.0],
    ])


def _walk_every_cell(x, mask, dx_fill):
    """Reference fill: visit every cell forward, then every cell backward."""
    n, T = x.shape
    out = np.where(mask, x, np.nan)
    for i in range(n):
        if not mask[i].any():
            out[i] = 0.0
            continue
        for t in range(1, T):
            if np.isnan(out[i, t]):
                out[i, t] = out[i, t - 1] + dx_fill[i, t - 1]
        for t in range(T - 2, -1, -1):
            if np.isnan(out[i, t]):
                out[i, t] = out[i, t + 1] - dx_fill[i, t]
    return out


def test_filled_levels_matches_full_walk(rng):
    n, T = 12, 40
    x = rng.standard_normal((n, T)).cumsum(axis=1)
    mask = rng.random((n, T)) > 0.2
    mask[0, :7] = False          # long leading gap
    mask[1, -9:] = False         # ragged edge
    mask[2] = False              # never observed
    mask[3, 1:-1] = False        # observed only at both ends
    dx = rng.standard_normal((n, T - 1))
    assert np.array_equal(_filled_levels(x, mask, dx), _walk_every_cell(x, mask, dx))
