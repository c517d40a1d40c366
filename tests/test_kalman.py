import dataclasses
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import nsdfm.em
import nsdfm.kalman
from nsdfm.em import _slot_sum, fit
from nsdfm.model import ModelSpec, Panel, Params, build_state_space
from nsdfm.kalman import (
    _BANK_START,
    _filter_step,
    _measurement_block,
    kf_filter,
    ks_smooth,
    steady_state_diagnostics,
    steady_state_onset,
)
from nsdfm.pre_estimate import KAPPA, initial_state_cov, pre_estimate
from nsdfm.simulate import MCConfig, simulate_panel
from conftest import random_instance, random_panel, settled_panel
from oracles import (joint_gaussian_moments, lag_one_covs, measurement_map, per_slot_smooth, prediction_error_loglik,
                     prediction_error_terms)


def local_level_system(sigma_u=1.0, sigma_nu=1.0):
    spec = ModelSpec(n=2, T=1, q=1, s=0, p=1)
    params = Params(
        loadings=[np.array([[1.0], [0.0]])],
        var_coeffs=[np.array([[1.0]])],
        gamma_u=np.array([[sigma_u]]),
        gamma_e_diag=np.array([sigma_nu, 1.0]),
        sigma2_omega=np.zeros(2),
        sigma2_eta=np.zeros(2),
        sigma2_nu=np.zeros(2),
        alpha0=np.zeros(2),
        beta0=np.zeros(2),
    )
    # the random walk is the "factor" itself, not an idio_i1 state
    return spec, params


def test_scalar_local_level_riccati_steady_state():
    # x_t = s_t + nu, s_t = s_{t-1} + u, unit variances: P_pred -> (1+sqrt(5))/2
    spec, params = local_level_system()
    ss = build_state_space(spec, params)
    T = 400
    rng = np.random.default_rng(0)
    s = np.cumsum(rng.standard_normal(T))
    x = np.vstack([s + rng.standard_normal(T), np.full(T, np.nan)])
    panel = Panel.from_data(x)
    out = kf_filter(ss, panel, np.zeros(1), np.array([[1e7]]))
    golden = (1 + np.sqrt(5.0)) / 2
    assert out.predicted_covs[-1][0, 0] == pytest.approx(golden, abs=1e-9)


def test_fully_missing_time_is_prediction_only():
    rng = np.random.default_rng(5)
    spec, params = random_instance(rng, n=3, T=6)
    ss = build_state_space(spec, params)
    data = rng.standard_normal((3, 6))
    data[:, 2] = np.nan
    panel = Panel.from_data(data)
    out = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 10)
    t = 3  # 1-based slot of the missing column
    np.testing.assert_array_equal(out.filtered_means[t], out.predicted_means[t])
    np.testing.assert_array_equal(out.filtered_covs[t], out.predicted_covs[t])
    assert out.loglik_terms[t] == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_filter_and_smoother_match_joint_gaussian_oracle(seed):
    rng = np.random.default_rng(seed)
    while True:
        spec, params = random_instance(rng)
        if spec.layout.K * spec.T <= 30:
            break
    ss = build_state_space(spec, params)
    panel = random_panel(spec, rng, missing_frac=0.2 if seed % 2 else 0.0)
    init_mean = rng.standard_normal(ss.K) * 0.3
    init_cov = np.eye(ss.K) * rng.uniform(3.0, 30.0)

    oracle = joint_gaussian_moments(ss, panel, init_mean, init_cov)
    filt = kf_filter(ss, panel, init_mean, init_cov)
    smooth = ks_smooth(filt, ss)

    assert filt.loglik == pytest.approx(oracle["loglik"], rel=1e-10, abs=1e-10)
    for t in range(spec.T + 1):
        np.testing.assert_allclose(smooth.smoothed_means[t], oracle["state_mean"](t), rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(smooth.smoothed_covs[t], oracle["state_cov"](t), rtol=1e-8, atol=1e-8)
        if t >= 1:
            np.testing.assert_allclose(lag_one_covs(smooth)[t], oracle["lag_one"](t), rtol=1e-8, atol=1e-8)


def test_loglik_matches_direct_density_n3_T4():
    rng = np.random.default_rng(42)
    spec, params = random_instance(rng, n=3, T=4, q=1, s=0, p=1, with_states=False)
    ss = build_state_space(spec, params)
    panel = random_panel(spec, rng)
    init_mean = np.zeros(ss.K)
    init_cov = np.eye(ss.K) * 5.0
    oracle = joint_gaussian_moments(ss, panel, init_mean, init_cov)
    filt = kf_filter(ss, panel, init_mean, init_cov)
    assert filt.loglik == pytest.approx(oracle["loglik"], rel=1e-8)


def test_smoother_T1_equals_filter():
    rng = np.random.default_rng(9)
    spec, params = random_instance(rng, n=3, T=1)
    ss = build_state_space(spec, params)
    panel = random_panel(spec, rng)
    filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 4)
    smooth = ks_smooth(filt, ss)
    np.testing.assert_allclose(smooth.smoothed_means[1], filt.filtered_means[1])
    np.testing.assert_allclose(smooth.smoothed_covs[1], filt.filtered_covs[1])


def test_monotone_information():
    rng = np.random.default_rng(17)
    for _ in range(5):
        spec, params = random_instance(rng, T=8)
        ss = build_state_space(spec, params)
        panel = random_panel(spec, rng, missing_frac=0.1)
        filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 50)
        smooth = ks_smooth(filt, ss)
        for t in range(1, spec.T + 1):
            tr_pred = np.trace(filt.predicted_covs[t])
            tr_filt = np.trace(filt.filtered_covs[t])
            tr_smooth = np.trace(smooth.smoothed_covs[t])
            assert tr_smooth <= tr_filt + 1e-9
            assert tr_filt <= tr_pred + 1e-9


def test_mask_equals_deletion():
    # filtering with a masked cell must match an explicitly reduced system
    rng = np.random.default_rng(23)
    spec, params = random_instance(rng, n=4, T=5, q=1, s=0, p=1, with_states=False)
    ss = build_state_space(spec, params)
    data = rng.standard_normal((4, 5))
    mask = np.ones((4, 5), dtype=bool)
    mask[2, 3] = False
    panel_masked = Panel(np.where(mask, data, np.nan), mask)
    out_masked = kf_filter(ss, panel_masked, np.zeros(ss.K), np.eye(ss.K) * 3)

    # reduced system: drop series 2 entirely at all times where it is masked
    # by handing the filter a panel whose cell is missing via NaN alone
    panel_nan = Panel.from_data(np.where(mask, data, np.nan))
    out_nan = kf_filter(ss, panel_nan, np.zeros(ss.K), np.eye(ss.K) * 3)
    np.testing.assert_allclose(out_masked.filtered_means, out_nan.filtered_means, atol=1e-15)
    assert out_masked.loglik == pytest.approx(out_nan.loglik, abs=1e-12)


def test_update_branches_agree():
    # a step with one observed row (n_obs <= K) goes through the single
    # information-form update and must match the joint-Gaussian oracle
    rng = np.random.default_rng(31)
    spec, params = random_instance(rng, n=4, T=6, q=1, s=0, p=1, with_states=False)
    ss = build_state_space(spec, params)
    data = rng.standard_normal((4, 6))
    mask = np.ones((4, 6), dtype=bool)
    mask[1:, 0] = False  # first step: one observed row
    panel = Panel(np.where(mask, data, np.nan), mask)
    filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 8)
    oracle = joint_gaussian_moments(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 8)
    assert filt.loglik == pytest.approx(oracle["loglik"], rel=1e-9)


def test_steady_state_diagnostics_shape_and_flag():
    rng = np.random.default_rng(3)
    for n in (5, 10):
        spec, params = random_instance(rng, n=n, T=4, q=1, s=0, p=1, with_states=False)
        ss = build_state_space(spec, params)
        res = steady_state_diagnostics(ss, np.eye(ss.K) * 100.0, horizon=12)
        assert res["tr_pred_over_q"].shape == (12,)
        assert steady_state_onset(res["tr_pred_over_q"], 1.0e-6) is not None  # q = 1
        # one-step-ahead trace decreasing toward its steady state
        d = np.diff(res["tr_pred_over_q"])
        assert np.all(d <= 1e-8)


def test_one_step_trace_band_at_scale():
    # the one-step-ahead factor MSE per factor settles near one on the
    # benchmark design at n=100 (fresh draws land within [0.8, 1.2])
    from nsdfm.benchmark import run_diagnostics
    from nsdfm.simulate import MCConfig
    cfg = MCConfig(n=100, T=100, q=2, s=1, n1=0, nb=0, tau=0.5, seed=5, replications=20)
    d = run_diagnostics(cfg, n_grid=(100,), horizon=10)[100]
    assert 0.8 <= d["tr_pred_over_q"][-1] <= 1.2
    assert 0.015 <= d["tr_filt_over_q"][-1] <= 0.06


def test_reused_steps_equal_fresh_steps_and_oracle():
    # settled: slots reuse steps; ragged local trend: the filter updates the
    # slope entries of one Z_t in place, here with a slope loading of 2.5, and
    # every step must equal a fresh one on measurement_map's Z_t; gapped then
    # settled: the filter's bank doubles twice, so entries written before it
    # grew are read after it, and the smoother forms more entries than there
    # are distinct gains
    rng = np.random.default_rng(101)
    spec, params, panel = settled_panel(rng)
    _check_fresh_steps_and_oracle(build_state_space(spec, params), panel, reused=True)
    spec, params, panel = ragged_local_trend_panel(rng)
    ss = build_state_space(spec, params)
    Z = ss.measurement_base.copy()
    Z[spec.layout.beta_series[0], spec.layout.beta_slice.start] = 2.5
    _check_fresh_steps_and_oracle(dataclasses.replace(ss, measurement_base=Z), panel, reused=False)
    spec, params, panel = gapped_then_settled_panel(rng)
    filt, smooth = _check_fresh_steps_and_oracle(build_state_space(spec, params), panel, reused=True)
    # the filter bank starts at _BANK_START entries; each smoother bank holds more entries than
    # one per distinct gain plus one
    assert 2 * _BANK_START < len(filt.cov_bank) < panel.T + 1
    first = len(np.unique(filt.step_index[:-1])) + 1
    assert len(smooth.cov_bank) > first and len(smooth.lag_bank) > first


def _check_fresh_steps_and_oracle(ss, panel, reused):
    init_mean, init_cov = np.zeros(ss.K), np.eye(ss.K) * 10.0
    filt = kf_filter(ss, panel, init_mean, init_cov)
    assert np.any(filt.step_index != np.arange(panel.T + 1)) == reused
    for t in range(1, panel.T + 1):
        obs = np.nonzero(panel.missing_mask[:, t - 1])[0]
        block = _measurement_block(ss, obs, measurement_map(ss, t - 1))
        P_pred, P_filt, *_ = _filter_step(ss, filt.filtered_covs[t - 1], block, t, np.empty((2, ss.K, ss.K)))
        np.testing.assert_array_equal(filt.predicted_covs[t], P_pred)
        np.testing.assert_array_equal(filt.filtered_covs[t], P_filt)

    oracle = joint_gaussian_moments(ss, panel, init_mean, init_cov)
    smooth = ks_smooth(filt, ss)
    if not reused:
        # a bank with one entry per slot is in slot order
        np.testing.assert_array_equal(smooth.cov_index, np.arange(panel.T + 1))
        np.testing.assert_array_equal(smooth.lag_index, np.arange(panel.T + 1))
    assert not smooth.lag_bank[smooth.lag_index[0]].any()
    assert filt.loglik == pytest.approx(oracle["loglik"], rel=1e-10, abs=1e-10)
    for t in range(panel.T + 1):
        np.testing.assert_allclose(smooth.smoothed_means[t], oracle["state_mean"](t), rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(smooth.smoothed_covs[t], oracle["state_cov"](t), rtol=1e-8, atol=1e-8)
    # the E-step's sums over slots, taken from the banks, are bitwise those of the per-slot arrays
    for bank, index, per_slot in ((smooth.cov_bank, smooth.cov_index, smooth.smoothed_covs),
                                  (smooth.lag_bank, smooth.lag_index, lag_one_covs(smooth))):
        for slots in (slice(1, None), slice(None, -1)):
            assert _slot_sum(bank, index, slots).tobytes() == per_slot[slots].sum(axis=0).tobytes()
    return filt, smooth


def gapped_then_settled_panel(rng, n=6, T=120, gapped=24):
    """Time-invariant system with I(1) idiosyncratic or local-level states and
    a panel with random gaps in its first ``gapped`` columns, each its own
    step, then fully observed columns long enough for the covariances to
    settle.  Returns (spec, params, panel)."""
    while True:
        spec, params = random_instance(rng, n=n, T=T, q=2, s=0, p=1)
        if spec.idio_im and not spec.local_trend:
            break
    mask = np.ones((n, T), dtype=bool)
    mask[:, :gapped] = rng.random((n, gapped)) >= 0.3
    return spec, params, Panel(np.where(mask, rng.standard_normal((n, T)), np.nan), mask)


def test_settled_passes_allocate_for_the_steps_computed():
    # on a settled panel with T = 1000 and K = 30 the filter computes a few dozen
    # steps and the smoother forms a few dozen entries; the traced peak of the
    # two passes must stay below one (T+1) x K x K stack, of which a filter bank
    # with an entry per slot would alone take two
    sim = simulate_panel(MCConfig(n=40, T=1000, q=2, s=0, n1=26, nb=0, tau=0.5, seed=1), 0)
    pre = pre_estimate(sim.spec, sim.panel)
    ss = build_state_space(sim.spec, pre.params)
    assert ss.K == 30 and not ss.time_varying
    tracemalloc.start()
    try:
        filt = kf_filter(ss, sim.panel, pre.init_state_mean, pre.init_state_cov)
        smooth = ks_smooth(filt, ss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(filt.cov_bank) < 100 and len(smooth.cov_bank) < 100
    assert peak < (sim.spec.T + 1) * ss.K ** 2 * 8


def test_step_index_shows_reuse_on_settled_panel():
    rng = np.random.default_rng(7)
    T_full = 60
    spec, params, panel = settled_panel(rng, T_full)
    ss = build_state_space(spec, params)
    filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 10.0)
    # bank entries are numbered as computed: a slot reuses a step when the running maximum stays put
    reused = np.r_[False, np.diff(np.maximum.accumulate(filt.step_index)) == 0]
    assert reused.sum() > panel.T // 2
    # the partly and the fully missing column break the fixed point: both are computed afresh
    assert not reused[T_full + 1] and not reused[T_full + 2]
    # the smoother's reuse is exact: same output as a per-slot smoother solving at every slot
    smooth = ks_smooth(filt, ss)
    every_slot = dataclasses.replace(filt, step_index=np.arange(panel.T + 1),
                                     cov_bank=np.stack([filt.predicted_covs, filt.filtered_covs], axis=1))
    means, covs, lag_one = per_slot_smooth(every_slot, ss)
    np.testing.assert_array_equal(smooth.smoothed_means, means)
    np.testing.assert_array_equal(smooth.smoothed_covs, covs)
    np.testing.assert_array_equal(lag_one_covs(smooth), lag_one)


def test_cycles_longer_than_two_are_reused(monkeypatch):
    # on this fit the filter's covariances settle into cycles longer than two
    # from its 8th filter call on; every step of a cycle is computed once
    calls = []
    kf = nsdfm.em.kf_filter

    def spy(ss, panel, init_mean, init_cov):
        calls.append((ss, panel, kf(ss, panel, init_mean, init_cov)))
        return calls[-1][2]

    monkeypatch.setattr(nsdfm.em, "kf_filter", spy)
    sim = simulate_panel(MCConfig(n=30, T=40, q=2, s=0, n1=6, nb=6, tau=0.5, seed=20241), 1)
    fit(sim.spec, sim.panel)
    assert len(calls) >= 8
    for ss, panel, filt in calls:
        assert not ss.time_varying
        index = filt.step_index
        computed = set()
        for t in range(1, panel.T + 1):
            obs = np.nonzero(panel.missing_mask[:, t - 1])[0]
            if index[t] > index[:t].max():  # a new bank entry: the step was computed at t
                key = (obs.tobytes(), filt.cov_bank[index[t - 1], 1].tobytes())
                assert key not in computed, f"step at t={t} was computed before"
                computed.add(key)
            block = _measurement_block(ss, obs, measurement_map(ss, t - 1))
            P_pred, P_filt, *_ = _filter_step(ss, filt.filtered_covs[t - 1], block, t, np.empty((2, ss.K, ss.K)))
            np.testing.assert_array_equal(filt.predicted_covs[t], P_pred)
            np.testing.assert_array_equal(filt.filtered_covs[t], P_filt)
        smooth = ks_smooth(filt, ss)
        assert len({P.tobytes() for P in smooth.cov_bank}) == len(smooth.cov_bank)
        every_slot = dataclasses.replace(filt, step_index=np.arange(panel.T + 1),
                                         cov_bank=np.stack([filt.predicted_covs, filt.filtered_covs], axis=1))
        means, covs, lag_one = per_slot_smooth(every_slot, ss)
        np.testing.assert_array_equal(smooth.smoothed_means, means)
        np.testing.assert_array_equal(smooth.smoothed_covs, covs)
        np.testing.assert_array_equal(lag_one_covs(smooth), lag_one)


def test_step_index_shows_no_reuse_with_local_trend():
    rng = np.random.default_rng(11)
    while True:
        spec, params = random_instance(rng, n=4, T=60, q=1, s=0, p=1)
        if spec.local_trend:
            break
    ss = build_state_space(spec, params)
    assert ss.time_varying
    panel = random_panel(spec, rng)
    filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 10.0)
    np.testing.assert_array_equal(filt.step_index, np.arange(spec.T + 1))


@pytest.mark.parametrize("phi, rel", [(1e-5, 1e-12), (1e-8, 1e-9)])
def test_loglik_matches_prediction_errors_at_tiny_phi(phi, rel):
    # a tiny measurement variance phi on the series with extra states makes
    # v'R^{-1}v and its Woodbury correction both O(1/phi); their difference
    # must not lose the log-likelihood to cancellation
    sim = simulate_panel(MCConfig(n=40, T=60, n1=5, seed=3, replications=1), 0)
    pre = pre_estimate(sim.spec, sim.panel)
    s2nu = pre.params.sigma2_nu.copy()
    s2nu[sorted(sim.spec.idio_im)] = phi
    ss = build_state_space(sim.spec, dataclasses.replace(pre.params, sigma2_nu=s2nu))
    filt = kf_filter(ss, sim.panel, pre.init_state_mean, pre.init_state_cov)
    assert filt.loglik == pytest.approx(prediction_error_loglik(ss, sim.panel, filt), rel=rel)


def ragged_local_trend_panel(rng, n=10, T=40):
    """Time-varying system (a local-trend series) and a panel with random gaps,
    a ragged edge, one fully missing column and 1e6 in every masked cell."""
    while True:
        spec, params = random_instance(rng, n=n, T=T, q=3, s=1, p=2)
        if spec.local_trend:
            break
    mask = rng.random((n, T)) >= 0.25
    mask[: n // 2, T - 3:] = False
    mask[:, T // 2] = False
    data = np.where(mask, rng.standard_normal((n, T)), 1.0e6)
    return spec, params, Panel(data, mask)


@pytest.mark.parametrize("case", ["ragged_local_trend", "settled"])
def test_loglik_terms_match_per_slot_cholesky_oracle(case):
    # the terms evaluated after the pass, one slot at a time, against a
    # plain Cholesky of S_t from the filter's own predicted moments
    rng = np.random.default_rng(211)
    if case == "settled":
        spec, params, panel = settled_panel(rng, T_full=40, with_states=True)
    else:
        spec, params, panel = ragged_local_trend_panel(rng)
    ss = build_state_space(spec, params)
    filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 10.0)
    # on the settled panel slots reuse steps, and with them a bank entry's log det
    assert ss.time_varying == (case == "ragged_local_trend")
    assert (len(filt.cov_bank) < panel.T + 1) == (case == "settled")
    oracle = prediction_error_terms(ss, panel, filt)
    empty = ~panel.missing_mask.any(axis=0)
    assert empty.any() and np.all(oracle[1:][empty] == 0.0)
    np.testing.assert_allclose(filt.loglik_terms, oracle, rtol=1e-12, atol=0.0)


def test_stacked_smoother_equals_per_slot_smoother_on_time_varying_panel():
    # time-varying Z: every slot has its own step, so every gain comes from
    # the stacked solve and every lag-one covariance from the stacked product
    rng = np.random.default_rng(212)
    spec, params, panel = ragged_local_trend_panel(rng)
    ss = build_state_space(spec, params)
    filt = kf_filter(ss, panel, np.zeros(ss.K), np.eye(ss.K) * 10.0)
    np.testing.assert_array_equal(filt.step_index, np.arange(panel.T + 1))
    smooth = ks_smooth(filt, ss)
    means, covs, lag_one = per_slot_smooth(filt, ss)
    np.testing.assert_array_equal(smooth.smoothed_means, means)
    np.testing.assert_array_equal(smooth.smoothed_covs, covs)
    np.testing.assert_array_equal(lag_one_covs(smooth), lag_one)


@pytest.mark.parametrize("case, t_fail", [("state innovation", 2), ("measurement", 3)])
def test_filter_raises_naming_t_when_a_factorization_fails(case, t_fail):
    # a negative state-innovation variance makes P_{2|1} negative; a negative
    # measurement variance makes P^-1 + Z'R^-1 Z negative at the first
    # observed step, here t=3; either must raise, not return NaN with a warning
    spec, params = local_level_system()
    ss = build_state_space(spec, params)
    x = np.vstack([np.linspace(0.0, 1.0, 6), np.full(6, np.nan)])
    if case == "state innovation":
        ss = dataclasses.replace(ss, state_innovation_cov=np.array([[-3.0]]))
    else:
        ss = dataclasses.replace(ss, measurement_cov_diag=np.array([-0.01, 1.0]))
        x[0, :2] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError, match=rf"not positive definite at t={t_fail};"):
            kf_filter(ss, Panel.from_data(x), np.zeros(1), np.array([[10.0]]))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n1", [20, 50])
@pytest.mark.parametrize("kappa", [1.0e7, 1.0])
def test_step_factors_equal_numpy_linalg_bitwise(monkeypatch, n1, kappa):
    # the step calls the gufuncs behind np.linalg.cholesky and np.linalg.inv
    # directly; cP, cPi, cM and cMi must be the bytes those functions return,
    # at K = 24 and K = 54, with and without a diffuse block (the extra
    # states' initial variance KAPPA, or 1 written over it)
    sim = simulate_panel(MCConfig(n=60, T=12, q=2, s=0, n1=n1, seed=5, replications=1), 0)
    pre = pre_estimate(sim.spec, sim.panel)
    ss = build_state_space(sim.spec, pre.params)
    assert ss.K == n1 + 4
    init_cov = initial_state_cov(sim.spec, pre.params.var_coeffs, pre.params.gamma_u)
    extra = np.arange(ss.layout.n_factor_states, ss.K)
    assert np.all(init_cov[extra, extra] == KAPPA)
    init_cov[extra, extra] = kappa
    mask = np.random.default_rng(n1).random(sim.x.shape) >= 0.2
    calls = []  # (name, input, output) of every factorization the filter makes

    def recording(name):
        def call(a, **kwargs):
            out = getattr(np.linalg._umath_linalg, name)(a, **kwargs)
            calls.append((name, a.copy(), out.copy()))
            return out
        return call

    monkeypatch.setattr(nsdfm.kalman, "_umath_linalg",
                        types.SimpleNamespace(cholesky_lo=recording("cholesky_lo"), inv=recording("inv")))
    filt = kf_filter(ss, Panel(np.where(mask, sim.x, np.nan), mask), pre.init_state_mean, init_cov)
    observed_steps = len(set(filt.step_index[1:][mask.any(axis=0)].tolist()))
    assert [name for name, _, _ in calls] == ["cholesky_lo", "inv", "cholesky_lo", "inv"] * observed_steps
    reference = {"cholesky_lo": np.linalg.cholesky, "inv": np.linalg.inv}
    for name, a, out in calls:
        np.testing.assert_array_equal(out, reference[name](a), strict=True)
