import dataclasses

import numpy as np
import pytest

from nsdfm.em import (EMOptions, SufficientStats, _m_step, _series_scale, _solve_measurement, e_step, fit,
                      m_step_var)
from nsdfm.kalman import kf_filter
from nsdfm.model import ModelSpec, Panel, Params, build_state_space
from nsdfm.pre_estimate import pre_estimate
from nsdfm.simulate import MCConfig, simulate_panel
from conftest import random_instance, random_panel, settled_panel
from oracles import (expected_complete_loglik, joint_gaussian_moments, lag_one_covs, per_slot_reduce_moments,
                     per_slot_smooth, simulate_from_params)


def stats_from_states(F: np.ndarray, x: np.ndarray, spec):
    """Degenerate sufficient statistics: states observed, covariances zero."""
    T = F.shape[0] - 1
    n = x.shape[0]
    r0 = (spec.s + 1) * spec.q
    SA = F[1:].T @ F[1:]
    SB = np.einsum("ti,tj->ij", F[1:], F[:-1])
    SC = F[:-1].T @ F[:-1]
    tlab = np.arange(1, T + 1, dtype=float)
    Z = np.concatenate([F[1:, :r0], np.ones((T, 1)), tlab[:, None]], axis=1)
    gram_aug = np.broadcast_to(Z.T @ Z, (n, r0 + 2, r0 + 2)).copy()
    cross_aug = x @ Z
    return SufficientStats(
        SA=SA, SB=SB, SC=SC, gram_aug=gram_aug, cross_aug=cross_aug,
        sum_zw=np.zeros((n, r0 + 2)), sum_xx=(x ** 2).sum(axis=1),
        sum_xw=np.zeros(n), sum_ww=np.zeros(n),
        n_obs=np.full(n, T), loglik=0.0,
    )


def test_loadings_hand_solve():
    # Gram [[2,0],[0,1]], cross (4,3) -> lambda = (2,3)
    gram_aug = np.zeros((1, 4, 4))
    gram_aug[0, :2, :2] = [[2.0, 0.0], [0.0, 1.0]]
    gram_aug[0, 2:, 2:] = np.eye(2)
    cross_aug = np.zeros((1, 4))
    cross_aug[0, :2] = [4.0, 3.0]
    stats = SufficientStats(
        SA=np.eye(2), SB=np.zeros((2, 2)), SC=np.eye(2),
        gram_aug=gram_aug, cross_aug=cross_aug,
        sum_zw=np.zeros((1, 4)), sum_xx=np.zeros(1), sum_xw=np.zeros(1),
        sum_ww=np.zeros(1),
        n_obs=np.array([5]), loglik=0.0,
    )
    no = np.zeros(1, dtype=bool)
    coef = _solve_measurement(stats, no, no, np.zeros((1, 4)))
    np.testing.assert_allclose(coef[0], [2.0, 3.0, 0.0, 0.0])


def test_m_step_var_reduces_to_ols_with_zero_covariances(rng):
    spec, params = random_instance(rng, n=4, T=60, q=2, s=1, p=2, with_states=False)
    ss = build_state_space(spec, params)
    K = ss.K
    F = np.zeros((spec.T + 1, K))
    F[0, : spec.q] = rng.standard_normal(spec.q)
    for t in range(1, spec.T + 1):
        F[t] = ss.transition_map @ F[t - 1]
        F[t, : spec.q] += rng.standard_normal(spec.q)
    x = rng.standard_normal((spec.n, spec.T))
    stats = stats_from_states(F, x, spec)
    A, gamma_u = m_step_var(stats, spec)

    # direct OLS of f_t on (f_{t-1}, f_{t-2}) using the same state-implied lags
    f = F[:, : spec.q]
    Y = f[1:]
    X = np.hstack([F[:-1, 0:spec.q], F[:-1, spec.q:2 * spec.q]])
    coef = np.linalg.solve(X.T @ X, X.T @ Y).T
    np.testing.assert_allclose(np.hstack(A), coef, atol=1e-8)
    resid = Y - X @ coef.T
    np.testing.assert_allclose(gamma_u, resid.T @ resid / spec.T, atol=1e-8)
    # symmetric PSD
    np.testing.assert_allclose(gamma_u, gamma_u.T)
    assert np.all(np.linalg.eigvalsh(gamma_u) > -1e-12)


def test_var_update_matches_numeric_maximizer(rng):
    # scalar subproblem: maximize the expected transition log-likelihood over (a, g)
    spec, params = random_instance(rng, n=3, T=5, q=1, s=0, p=1, with_states=False)
    ss = build_state_space(spec, params)
    panel = Panel.from_data(rng.standard_normal((3, 5)))
    stats, _ = e_step(spec, params, panel, np.zeros(ss.K), np.eye(ss.K) * 5)
    A, gamma_u = m_step_var(stats, spec)

    Saa = stats.SA[0, 0]
    Sab = stats.SB[0, 0]
    Sbb = stats.SC[0, 0]
    T = spec.T

    def neg_q(a, g):
        return 0.5 * T * np.log(g) + (Saa - 2 * a * Sab + a * a * Sbb) / (2 * g)

    # nested grid refinement around the analytic optimum
    a_grid = np.linspace(-2, 2, 41)
    g_grid = np.linspace(0.01, 5, 41)
    for _ in range(12):
        vals = neg_q(a_grid[:, None], g_grid[None, :])
        ia, ig = np.unravel_index(np.argmin(vals), vals.shape)
        a_lo, a_hi = a_grid[max(ia - 1, 0)], a_grid[min(ia + 1, len(a_grid) - 1)]
        g_lo, g_hi = g_grid[max(ig - 1, 0)], g_grid[min(ig + 1, len(g_grid) - 1)]
        a_grid = np.linspace(a_lo, a_hi, 41)
        g_grid = np.linspace(g_lo, g_hi, 41)
    assert A[0][0, 0] == pytest.approx(a_grid[20], abs=1e-6)
    assert gamma_u[0, 0] == pytest.approx(g_grid[20], abs=1e-6)


# series carrying a level state and a slope state at once: a local level with a local trend is the
# paper's local linear trend, and an I(1) idiosyncratic part with a local trend is its other such pair
LEVEL_AND_SLOPE = {
    "local_linear_trend": dict(local_level={0, 2}, local_trend={0, 1}),
    "i1_with_slope": dict(idio_i1={0}, local_level={1}, local_trend={0, 2}),
}


def with_extra_states(spec, params, rng, sets):
    """``spec`` with the extra-state index sets ``sets``, and ``params`` with their variances drawn."""
    spec = dataclasses.replace(spec, **{name: frozenset(idx) for name, idx in sets.items()})
    variances = {}
    for name, idx, (lo, hi) in (("sigma2_omega", spec.local_level, (0.05, 0.3)),
                                ("sigma2_eta", spec.local_trend, (0.05, 0.3)),
                                ("sigma2_nu", spec.idio_im, (0.01, 0.1))):
        variances[name] = np.zeros(spec.n)
        variances[name][sorted(idx)] = rng.uniform(lo, hi, size=len(idx))
    params = dataclasses.replace(params, **variances)
    params.validate(spec)
    return spec, params


@pytest.mark.parametrize("case", [*range(4), *LEVEL_AND_SLOPE])
def test_e_step_moments_match_oracle(case):
    if case in LEVEL_AND_SLOPE:
        rng = np.random.default_rng(104)
        spec, params = random_instance(rng, n=3, T=4, q=1, s=0, p=1, with_states=False)
        spec, params = with_extra_states(spec, params, rng, LEVEL_AND_SLOPE[case])
    else:
        rng = np.random.default_rng(case + 100)
        while True:
            spec, params = random_instance(rng)
            if spec.layout.K * spec.T <= 30:
                break
    ss = build_state_space(spec, params)
    data = rng.standard_normal((spec.n, spec.T))
    panel = Panel.from_data(data)
    init_mean = np.zeros(ss.K)
    init_cov = np.eye(ss.K) * 10
    stats, _ = e_step(spec, params, panel, init_mean, init_cov)
    oracle = joint_gaussian_moments(ss, panel, init_mean, init_cov)

    K = ss.K
    SA = np.zeros((K, K))
    SB = np.zeros((K, K))
    SC = np.zeros((K, K))
    for t in range(1, spec.T + 1):
        mt = oracle["state_mean"](t)
        mp = oracle["state_mean"](t - 1)
        SA += np.outer(mt, mt) + oracle["state_cov"](t)
        SB += np.outer(mt, mp) + oracle["lag_one"](t)
        SC += np.outer(mp, mp) + oracle["state_cov"](t - 1)
    np.testing.assert_allclose(stats.SA, SA, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(stats.SB, SB, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(stats.SC, SC, rtol=1e-8, atol=1e-8)
    assert stats.loglik == pytest.approx(oracle["loglik"], rel=1e-8)

    # w moments: zero off I_m, exact conditional moments on it
    out = np.array([i for i in range(spec.n) if i not in spec.idio_im])
    if out.size:
        assert np.all(stats.sum_ww[out] == 0)
        assert np.all(stats.sum_zw[out] == 0)
    lay = ss.layout
    r0 = (spec.s + 1) * spec.q
    for i in sorted(spec.idio_im):
        exp_ww = 0.0
        exp_Fw = np.zeros(r0)
        for t in range(1, spec.T + 1):
            sel = np.zeros(K)
            for sl, series in ((lay.xi_slice, lay.xi_series), (lay.alpha_slice, lay.alpha_series)):
                if i in series:
                    sel[sl.start + series.index(i)] = 1.0
            if i in lay.beta_series:
                sel[lay.beta_slice.start + lay.beta_series.index(i)] = float(t)
            mt = oracle["state_mean"](t)
            Pt = oracle["state_cov"](t)
            w_mean = sel @ mt
            exp_ww += w_mean ** 2 + sel @ Pt @ sel
            exp_Fw += mt[:r0] * w_mean + Pt[:r0] @ sel
        assert stats.sum_ww[i] == pytest.approx(exp_ww, rel=1e-8, abs=1e-8)
        np.testing.assert_allclose(stats.sum_zw[i, :r0], exp_Fw, rtol=1e-8, atol=1e-8)


def ragged_local_trend_panel(rng):
    """A system with a local-trend series (time-varying Z) on a panel with
    random gaps and two series that end early."""
    while True:
        spec, params = random_instance(rng, n=5, T=50, q=2, s=1, p=1)
        if spec.local_trend:
            break
    panel = random_panel(spec, rng, missing_frac=0.1)
    mask = panel.missing_mask.copy()
    mask[0, -3:] = mask[1, -5:] = False
    return spec, params, Panel(np.where(mask, panel.data, np.nan), mask)


@pytest.mark.parametrize("case", ["settled", "ragged_local_trend"])
def test_banked_e_step_equals_per_slot_oracle(case):
    # the covariance banks change where each covariance is stored, not one bit of what is computed
    rng = np.random.default_rng(1)
    if case == "settled":
        spec, params, panel = settled_panel(rng, T_full=60, with_states=True)
    else:
        spec, params, panel = ragged_local_trend_panel(rng)
    ss = build_state_space(spec, params)
    init_mean, init_cov = np.zeros(ss.K), np.eye(ss.K) * 10.0
    stats, smooth = e_step(spec, params, panel, init_mean, init_cov)

    filt = kf_filter(ss, panel, init_mean, init_cov)
    S, P, L1 = per_slot_smooth(filt, ss)
    np.testing.assert_array_equal(smooth.smoothed_means, S)
    np.testing.assert_array_equal(smooth.smoothed_covs, P)
    np.testing.assert_array_equal(lag_one_covs(smooth), L1)
    oracle = per_slot_reduce_moments(spec, panel, S, P, L1, filt.loglik)
    for field in dataclasses.fields(SufficientStats):
        np.testing.assert_array_equal(getattr(stats, field.name), getattr(oracle, field.name), err_msg=field.name)

    if case == "settled":
        # the banks hold fewer matrices than slots, so the reduction ran over bank entries
        assert len(smooth.cov_bank) < panel.T and len(smooth.lag_bank) < panel.T
    else:
        assert len(filt.cov_bank) == len(smooth.cov_bank) == len(smooth.lag_bank) == panel.T + 1


def _m_step_instance(case: str, rng):
    """(spec, params, panel) for the M-step check: extra states or none, gaps, detrended series."""
    if case in LEVEL_AND_SLOPE:
        spec, params = with_extra_states(*random_instance(rng, n=5, T=40, with_states=False), rng,
                                         LEVEL_AND_SLOPE[case])
    else:
        while True:
            spec, params = random_instance(rng, n=5, T=40, with_states=case != "plain")
            if case == "plain" or (case == "states" and spec.idio_im) or spec.local_trend:
                break
    detrend = frozenset() if case == "plain" else frozenset(rng.choice(spec.n, size=2, replace=False).tolist())
    spec = dataclasses.replace(spec, detrend=detrend | spec.local_level | spec.local_trend)
    return spec, params, random_panel(spec, rng, missing_frac=0.0 if case == "plain" else 0.1)


def _block_perturbations(spec, new, rng, h=1e-4):
    """Small feasible moves of each M-step block of ``new``, both ways along random directions."""
    q = spec.q
    alpha_free, beta_free = (np.isin(np.arange(spec.n), list(idx)) for idx in (spec.free_intercepts, spec.free_slopes))
    moves = []
    for sign in (1.0, -1.0):
        step = sign * h
        for i in range(spec.n):
            # series i's loadings, with its intercept and slope (scaled by 1/T, as it multiplies t)
            # where they are parameters
            loadings = [B.copy() for B in new.loadings]
            for B in loadings:
                B[i] += step * rng.standard_normal(q)
            alpha0, beta0 = new.alpha0.copy(), new.beta0.copy()
            alpha0[i] += step * rng.standard_normal() * alpha_free[i]
            beta0[i] += step * rng.standard_normal() * beta_free[i] / spec.T
            moves.append((f"coef[{i}]", dataclasses.replace(new, loadings=loadings, alpha0=alpha0, beta0=beta0)))
        moves.append(("var_coeffs", dataclasses.replace(
            new, var_coeffs=[A + step * rng.standard_normal(A.shape) for A in new.var_coeffs])))
        W = rng.standard_normal((q, q))
        moves.append(("gamma_u", dataclasses.replace(new, gamma_u=new.gamma_u + step * (W + W.T))))
        for name in ("gamma_e_diag", "sigma2_omega", "sigma2_eta", "sigma2_nu"):
            v = getattr(new, name)
            moves.append((name, dataclasses.replace(new, **{name: v * np.exp(step * rng.standard_normal(v.shape))})))
    return moves


@pytest.mark.parametrize("case, seed", [("plain", 0), ("plain", 1), ("states", 2), ("states", 3),
                                        ("local_trend", 4), ("local_trend", 5),
                                        ("local_linear_trend", 6), ("i1_with_slope", 7)])
def test_m_step_maximizes_the_expected_complete_loglik(case, seed):
    # EM's M-step must return the maximizer of Q over every block; Q is written from the model over
    # the smoother's per-slot moments, so a fault in reduce_moments moves the M-step off its maximum
    rng = np.random.default_rng(seed + 300)
    spec, params, panel = _m_step_instance(case, rng)
    K = spec.layout.K
    stats, smooth = e_step(spec, params, panel, np.zeros(K), np.eye(K) * 2.0)
    new = _m_step(stats, spec, params, EMOptions())

    def Q(p):
        return expected_complete_loglik(spec, p, panel, smooth.smoothed_means, smooth.smoothed_covs,
                                        lag_one_covs(smooth))

    best = Q(new)
    assert best > Q(params)
    for block, moved in _block_perturbations(spec, new, rng):
        assert Q(moved) <= best + 1e-12 * abs(best), block


def test_loadings_fixed_point_with_exact_factors(rng):
    # measurement-noise-free data: smoothed factors are exact, loadings unchanged
    n, q, T = 8, 2, 60
    spec = ModelSpec(n=n, T=T, q=q, s=0, p=1)
    A = [np.array([[0.5, 0.1], [0.0, 0.4]])]
    B = rng.standard_normal((n, q))
    params = Params(
        loadings=[B],
        var_coeffs=A,
        gamma_u=np.eye(q),
        gamma_e_diag=np.full(n, 1e-10),
        sigma2_omega=np.zeros(n),
        sigma2_eta=np.zeros(n),
        sigma2_nu=np.zeros(n),
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    panel, states, chi = simulate_from_params(spec, params, rng, measurement_noise=False)
    ss = build_state_space(spec, params)
    stats, _ = e_step(spec, params, panel, np.zeros(ss.K), np.eye(ss.K) * 10)
    no = np.zeros(n, dtype=bool)
    coef = _solve_measurement(stats, no, no, np.zeros((n, q + 2)))
    np.testing.assert_allclose(coef[:, :q], B, atol=1e-8)


def test_fit_monotone_loglik_and_chi_recovery():
    cfg = MCConfig(n=30, T=60, q=2, s=0, n1=5, nb=0, tau=0.0, seed=42, replications=1)
    sim = simulate_panel(cfg, 0)
    res = fit(sim.spec, sim.panel, EMOptions(max_iter=40))
    ll = np.array(res.loglik_path)
    assert np.all(np.diff(ll) >= -1e-8 * np.maximum(1.0, np.abs(ll[:-1])))
    from nsdfm.metrics import mse_common
    denom = np.var(sim.chi)
    assert mse_common(res.chi, sim.chi) / denom < 0.5


def test_fit_rejects_a_panel_of_another_shape():
    panel = Panel.from_data(np.random.default_rng(0).standard_normal((5, 30)))
    with pytest.raises(ValueError, match="panel is 5x30, spec says 6x30"):
        fit(ModelSpec(n=6, T=30, q=1), panel)


@pytest.mark.parametrize("sets", [
    {"local_level": {0, 1}},
    {"local_trend": {2, 3}},
    {"local_level": {0, 1}, "local_trend": {0, 1}},
    {"idio_i1": {0, 1}, "local_trend": {0, 1}},
    {"local_level": {0, 1}, "local_trend": {2, 3}, "detrend": {0, 1, 2, 3, 4, 5}},
    {"detrend": {4, 5}},
], ids=["local_level", "local_trend", "level_and_trend", "i1_and_trend", "detrend_beyond", "detrend"])
def test_pre_estimate_returns_the_point_em_starts_from(sets):
    # fit runs its first E-step at pre.params, bit for bit; in-band data is fitted at its own scale
    sim = simulate_panel(MCConfig(n=20, T=40, q=2, n1=3, nb=3, seed=11), 0)
    spec = ModelSpec(n=20, T=40, q=2, **sets)
    assert np.all(_series_scale(sim.panel, False) == 1.0)
    pre = pre_estimate(spec, sim.panel)
    stats, _ = e_step(spec, pre.params, sim.panel, pre.init_state_mean, pre.init_state_cov)
    assert stats.loglik == fit(spec, sim.panel, EMOptions(max_iter=1)).loglik_path[0]


def test_gamma_e_diag_of_a_local_series_outside_idio_i1_is_never_read():
    # no state and no measurement variance of series 0 (local level) or 1 (local trend) reads it
    sim = simulate_panel(MCConfig(n=20, T=40, q=1, tau=0.0, seed=3), 0)
    spec = ModelSpec(n=20, T=40, q=1, local_level={0}, local_trend={1})
    assert np.all(_series_scale(sim.panel, False) == 1.0)
    pre = pre_estimate(spec, sim.panel)
    res = fit(spec, sim.panel)
    assert res.iterations > 2
    np.testing.assert_array_equal(res.params.gamma_e_diag[:2], pre.params.gamma_e_diag[:2])
    assert np.all(res.params.gamma_e_diag[2:] != pre.params.gamma_e_diag[2:])
    factor = np.where(np.arange(20) < 2, 7.0, 1.0)
    rescaled = dataclasses.replace(res.params, gamma_e_diag=res.params.gamma_e_diag * factor)
    filt = [kf_filter(build_state_space(spec, p), sim.panel, pre.init_state_mean, pre.init_state_cov)
            for p in (res.params, rescaled)]
    np.testing.assert_array_equal(filt[0].loglik, filt[1].loglik)


def test_fit_noiseless_panel_plateaus(rng):
    n, q, T = 12, 2, 50
    spec = ModelSpec(n=n, T=T, q=q, s=0, p=1)
    A = [np.array([[0.6, 0.0], [0.1, 0.3]])]
    B = rng.standard_normal((n, q)) + 1.0
    f = np.zeros((q, T + 1))
    for t in range(1, T + 1):
        f[:, t] = A[0] @ f[:, t - 1] + rng.standard_normal(q)
    x = B @ f[:, 1:]
    res = fit(spec, Panel.from_data(x), EMOptions(max_iter=60))
    ll = np.array(res.loglik_path)
    assert np.all(np.diff(ll) >= -1e-8 * np.maximum(1.0, np.abs(ll[:-1])))
    assert np.mean((res.chi - x) ** 2) < 1e-4


def test_fit_with_trend_series_detrends():
    cfg = MCConfig(n=25, T=80, q=2, s=0, n1=0, nb=5, tau=0.0, seed=7, replications=1)
    sim = simulate_panel(cfg, 0)
    res = fit(dataclasses.replace(sim.spec, detrend=sim.trend_set), sim.panel, EMOptions(max_iter=40))
    # OLS slopes are noisy under stochastic trends but live on the right set
    off = [i for i in range(cfg.n) if i not in sim.trend_set]
    np.testing.assert_array_equal(res.params.beta0[off], 0.0)
    for i in sim.trend_set:
        assert res.params.beta0[i] == pytest.approx(sim.params.beta0[i], abs=0.4)
    from nsdfm.metrics import mse_common
    assert mse_common(res.chi, sim.chi) / np.var(sim.chi) < 0.5


def test_fixed_phi_policy_not_updated():
    cfg = MCConfig(n=20, T=40, q=1, s=0, n1=4, tau=0.0, seed=3, replications=1)
    sim = simulate_panel(cfg, 0)
    res = fit(sim.spec, sim.panel, EMOptions(max_iter=5, phi_policy=1e-5))
    im = sorted(sim.spec.idio_im)
    assert np.all(res.params.sigma2_nu[im] == 1e-5)
    # the estimated policy re-maximizes phi each step; steps are O(phi) small
    res2 = fit(sim.spec, sim.panel, EMOptions(max_iter=5))
    assert np.all(res2.params.sigma2_nu[im] != 1e-5)
    assert np.all(res2.params.sigma2_nu[im] > 0)


def test_fixed_tiny_phi_loglik_never_falls():
    # EM is monotone in the exact log-likelihood; with phi fixed at 1e-8 any
    # fall beyond criterion 2's slack is an evaluation error in the filter
    cfg = MCConfig(n=40, T=60, n1=5, seed=3, replications=1)
    sim = simulate_panel(cfg, 0)
    res = fit(sim.spec, sim.panel, EMOptions(max_iter=50, tolerance=1e-12, phi_policy=1e-8))
    ll = np.array(res.loglik_path)
    assert np.all(np.diff(ll) + 1e-8 * np.maximum(1.0, np.abs(ll[:-1])) >= 0.0)


def _robustness_panel(case):
    """The (40, 60, 5) seed-3 probe panel, degraded one way; series 1, 8 and 22 carry I(1) states."""
    if case == "n1000":
        sim = simulate_panel(MCConfig(n=1000, T=40, q=1, n1=5, seed=3, replications=1), 0)
        return sim.spec, sim.panel
    sim = simulate_panel(MCConfig(n=40, T=60, n1=5, seed=3, replications=1), 0)
    x = sim.panel.data.copy()
    rng = np.random.default_rng(3)
    if case == "constant":
        x[1] = 1.0
    elif case == "duplicate":
        x[8] = x[9]
    elif case == "all_missing":
        x[22] = np.nan
    elif case == "random_50pct":
        x[rng.random(x.shape) < 0.5] = np.nan
    elif case == "ragged_60pct":
        # 24 of the 40 series end 1 to 12 periods early
        for i, k in zip(rng.choice(40, size=24, replace=False), rng.integers(1, 13, size=24)):
            x[i, -k:] = np.nan
    return sim.spec, Panel.from_data(x)


@pytest.mark.parametrize("case", ["constant", "duplicate", "all_missing", "random_50pct", "ragged_60pct",
                                  "n1000"])
def test_fit_survives_degenerate_and_sparse_panels(case):
    spec, panel = _robustness_panel(case)
    res = fit(spec, panel)
    assert np.all(np.isfinite(res.chi))
    assert res.converged
    ll = np.array(res.loglik_path)
    assert np.all(np.diff(ll) + 1e-8 * np.maximum(1.0, np.abs(ll[:-1])) >= 0.0)


def test_sigma2_omega_recovery_at_truth(rng):
    # pure random-walk intercept with innovation variance 0.25: one E-step at
    # the truth recovers it from the smoothed second moments
    n, T = 6, 2000
    spec = ModelSpec(n=n, T=T, q=1, s=0, p=1, local_level=frozenset({0}))
    s2w = np.zeros(n)
    s2w[0] = 0.25
    s2nu = np.zeros(n)
    s2nu[0] = 1e-4
    params = Params(
        loadings=[rng.standard_normal((n, 1))],
        var_coeffs=[np.array([[0.5]])],
        gamma_u=np.array([[1.0]]),
        gamma_e_diag=np.ones(n),
        sigma2_omega=s2w,
        sigma2_eta=np.zeros(n),
        sigma2_nu=s2nu,
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    panel, states, chi = simulate_from_params(spec, params, rng)
    ss = build_state_space(spec, params)
    stats, _ = e_step(spec, params, panel, np.zeros(ss.K), np.eye(ss.K) * 100)
    from nsdfm.em import m_step_variances
    lam = np.hstack([np.asarray(B) for B in params.loadings])
    coef = np.concatenate([lam, np.zeros((n, 2))], axis=1)
    ge, s2w_hat, s2e_hat, s2nu_hat = m_step_variances(stats, spec, coef, params, EMOptions())
    assert s2w_hat[0] == pytest.approx(0.25, rel=0.10)
    np.testing.assert_array_equal(s2w_hat[1:], 0.0)
    np.testing.assert_array_equal(s2e_hat, 0.0)


def test_standardize_fit_returns_original_scale(rng):
    cfg = MCConfig(n=25, T=60, q=1, s=0, tau=0.0, seed=21, replications=1)
    sim = simulate_panel(cfg, 0)
    raw = fit(sim.spec, sim.panel, EMOptions(max_iter=30))
    std = fit(sim.spec, sim.panel, EMOptions(max_iter=30, standardize=True))
    # chi comes back in the raw units and close to the unstandardized fit
    from nsdfm.metrics import mse_common
    m_raw = mse_common(raw.chi, sim.chi)
    m_std = mse_common(std.chi, sim.chi)
    assert m_std < 5 * m_raw + 0.5
    # loadings rescaled back: the common component implied by params matches chi scale
    assert np.median(np.abs(std.params.loadings[0])) == pytest.approx(
        np.median(np.abs(raw.params.loadings[0])), rel=0.5
    )
    # smoothed xi paths come back in the raw units too: on an I(1) series the
    # measurement error is phi-tiny, so x - chi - xi is near zero on the data's scale
    sim = simulate_panel(MCConfig(n=25, T=60, q=1, s=0, n1=5, tau=0.0, seed=21, replications=1), 0)
    std = fit(sim.spec, sim.panel, EMOptions(max_iter=30, standardize=True))
    layout = sim.spec.layout
    for j, i in enumerate(layout.xi_series):
        xi = std.smoothed_means[1:, layout.xi_slice.start + j]
        resid = sim.panel.data[i] - std.chi[i] - xi
        assert np.sqrt(np.mean(resid ** 2)) < 1e-2 * np.std(sim.panel.data[i]), i


def test_result_accessors(rng):
    cfg = MCConfig(n=20, T=40, q=1, s=0, n1=3, nb=3, tau=0.0, seed=13, replications=1)
    sim = simulate_panel(cfg, 0)
    res = fit(dataclasses.replace(sim.spec, detrend=sim.trend_set), sim.panel, EMOptions(max_iter=20))
    assert res.params.alpha0.shape == res.params.beta0.shape == (20,)
    off = [i for i in range(20) if i not in sim.trend_set]
    np.testing.assert_array_equal(res.params.alpha0[off], 0.0)
    np.testing.assert_array_equal(res.params.beta0[off], 0.0)


def test_options_reject_non_finite_values_and_a_non_integer_max_iter():
    # a NaN passes every bound check written with <=, so each bound is written 0 < x < inf
    for kwargs in ({"tolerance": np.nan}, {"tolerance": np.inf}, {"phi_policy": np.nan}, {"phi_policy": np.inf},
                   {"max_iter": 2.5}, {"max_iter": np.nan}, {"max_iter": 0}):
        with pytest.raises(ValueError):
            EMOptions(**kwargs)
    assert EMOptions(max_iter=np.int64(3), phi_policy=1e-5).max_iter == 3


def test_fit_is_permutation_equivariant():
    # relabelling the series relabels chi: this guards the index-set plumbing from
    # ModelSpec through the pre-estimate, the layout and the M-step
    cfg = MCConfig(n=40, T=60, n1=5, nb=5, seed=3)
    sim = simulate_panel(cfg, 0)
    rng = np.random.default_rng(3)
    mask = rng.random((cfg.n, cfg.T)) >= 0.05
    local = sorted(set(range(cfg.n)) - sim.i1_set - sim.trend_set)[:6]
    sets = {"idio_i1": sim.i1_set, "local_level": set(local[:3]), "local_trend": set(local[3:]),
            "detrend": sim.trend_set | set(local)}
    assert all(sets.values())

    def fitted(perm):
        new = np.argsort(perm)  # series i of the original panel is series new[i] of the permuted one
        spec = ModelSpec(cfg.n, cfg.T, cfg.q, p=cfg.p, **{k: {int(new[i]) for i in v} for k, v in sets.items()})
        return fit(spec, Panel(np.where(mask, sim.x, 0.0)[perm], mask[perm]))

    base = fitted(np.arange(cfg.n))
    assert base.iterations > 2
    # the deterministic intercept and slope are parameters exactly where no state carries them
    spec = ModelSpec(cfg.n, cfg.T, cfg.q, p=cfg.p, **sets)
    np.testing.assert_array_equal(np.flatnonzero(base.params.alpha0), sorted(spec.free_intercepts))
    np.testing.assert_array_equal(np.flatnonzero(base.params.beta0), sorted(spec.free_slopes))
    for _ in range(4):
        perm = rng.permutation(cfg.n)
        res = fitted(perm)
        assert res.iterations == base.iterations
        assert np.max(np.abs(res.chi - base.chi[perm])) <= 1e-10 * np.max(np.abs(base.chi))


def _slack_adjusted_fall(loglik_path) -> float:
    """Largest fall of a log-likelihood path beyond criterion 2's slack (0 when none)."""
    ll = np.array(loglik_path)
    return float(max(0.0, -np.min(np.diff(ll) + 1e-8 * np.maximum(1.0, np.abs(ll[:-1])))))


@pytest.mark.parametrize("c", [1.0e3, 1.0e6])
def test_fit_at_large_data_scale_converges_without_a_fall(c):
    # ROADMAP item 2's probe: unscaled, x1000 fell by 3.5 nats and x1e6 raised LinAlgError at t = 1
    sim = simulate_panel(MCConfig(n=40, T=60, n1=5, seed=3), 0)
    res = fit(sim.spec, Panel(sim.panel.data * c, sim.panel.missing_mask), EMOptions(max_iter=50))
    assert res.converged and res.iterations <= 10
    assert _slack_adjusted_fall(res.loglik_path) == 0.0


def test_fit_outside_the_scale_band_is_power_of_two_equivariant():
    # outside [2^-4, 2^4) fit divides the panel by 2^k; so x and 2^j x, both outside, fit the same
    # panel, and every output maps back exactly, loglik_path by the Jacobian -N_obs j ln 2
    sim = simulate_panel(MCConfig(n=40, T=60, n1=5, seed=3), 0)
    mask = sim.panel.missing_mask.copy()
    mask[np.random.default_rng(4).random(mask.shape) < 0.05] = False
    x = np.where(mask, sim.x * 1000.0, np.nan)
    base = fit(sim.spec, Panel(x, mask), EMOptions(max_iter=50))
    factors = slice(0, sim.spec.layout.n_factor_states)
    for j in (-30, 12):
        res = fit(sim.spec, Panel(x * 2.0 ** j, mask), EMOptions(max_iter=50))
        assert res.iterations == base.iterations
        np.testing.assert_array_equal(res.chi, base.chi * 2.0 ** j)
        np.testing.assert_array_equal(res.params.loadings[0], base.params.loadings[0] * 2.0 ** j)
        np.testing.assert_array_equal(res.params.gamma_e_diag, base.params.gamma_e_diag * 4.0 ** j)
        np.testing.assert_array_equal(res.smoothed_means[:, factors], base.smoothed_means[:, factors])
        np.testing.assert_array_equal(res.smoothed_means[:, factors.stop:],
                                      base.smoothed_means[:, factors.stop:] * 2.0 ** j)
        shifted = np.array(base.loglik_path) - mask.sum() * j * np.log(2.0)
        np.testing.assert_allclose(res.loglik_path, shifted, rtol=1e-12, atol=0.0)


def test_scale_exponent_band():
    # without standardize every series gets 2^k: k = 0 while the median differenced sd lies in
    # [2^-4, 2^4); outside, the panel divided by 2^k has that median in [1, 2).  Missing cells
    # hold inf, which the median must not read.
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.standard_normal((30, 80)), axis=1)
    walk /= np.median(np.std(np.diff(walk, axis=1), axis=1))
    full = np.ones(walk.shape, dtype=bool)
    for c, k in ((0.0626, 0), (0.0624, -5), (15.9, 0), (16.1, 4), (1.0e-30, -100), (0.0, 0)):
        np.testing.assert_array_equal(_series_scale(Panel(walk * c, full), False), 2.0 ** k, str(c))
    mask = rng.random(walk.shape) >= 0.1
    for c, k in ((1.0, 0), (1.4e-3, -10), (7.0e5, 19)):
        np.testing.assert_array_equal(_series_scale(Panel(np.where(mask, walk * c, np.inf), mask), False),
                                      2.0 ** k, str(c))


def test_standardize_is_per_series_power_of_two_equivariant():
    # each series' differenced sd scales exactly with a power of two, so fit(D x) divides down to
    # the panel fit(x) divides down to, and every output maps back through D; loglik_path is the
    # data's log-likelihood, shifted by the Jacobian -sum_i N_obs,i k_i ln 2
    sim = simulate_panel(MCConfig(n=40, T=60, n1=5, seed=3), 0)
    mask = sim.panel.missing_mask.copy()
    mask[np.random.default_rng(4).random(mask.shape) < 0.05] = False
    k = np.random.default_rng(6).integers(-20, 21, size=sim.spec.n)
    d = 2.0 ** k
    options = EMOptions(max_iter=50, standardize=True)
    x = np.where(mask, sim.x, np.nan)
    base = fit(sim.spec, Panel(x, mask), options)
    res = fit(sim.spec, Panel(x * d[:, None], mask), options)
    assert res.iterations == base.iterations
    np.testing.assert_array_equal(res.chi, base.chi * d[:, None])
    layout = sim.spec.layout
    extra = slice(layout.n_factor_states, None)
    np.testing.assert_array_equal(res.smoothed_means[:, extra],
                                  base.smoothed_means[:, extra] * d[list(layout.extra_series)])
    shifted = np.array(base.loglik_path) - mask.sum(axis=1) @ k * np.log(2.0)
    np.testing.assert_allclose(res.loglik_path, shifted, rtol=1e-12, atol=0.0)
