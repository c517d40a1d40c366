import numpy as np
import pytest

from nsdfm.competitors import pc_diff_corrected, pc_diff_cumulate, pc_levels
from nsdfm.metrics import mse_common
from nsdfm.model import Panel


def exact_factor_panel(rng, n=15, r=2, T=120):
    B = rng.normal(1, 1, size=(n, r))
    f = np.cumsum(rng.standard_normal((r, T)), axis=1)
    return B @ f


def test_pc_levels_exact_on_rank_r_panel(rng):
    x = exact_factor_panel(rng)
    chi = pc_levels(Panel.from_data(x), 2)
    np.testing.assert_allclose(chi, x, atol=1e-8)


def test_pc_levels_projection_idempotent(rng):
    x = exact_factor_panel(rng) + rng.standard_normal((15, 120))
    chi1 = pc_levels(Panel.from_data(x), 2)
    chi2 = pc_levels(Panel.from_data(chi1), 2)
    np.testing.assert_allclose(chi1, chi2, atol=1e-8)


def test_pc_diff_cumulate_zero_on_pure_trend():
    t = np.arange(1.0, 101.0)
    x = np.vstack([2 + 0.4 * t, 1 + 0.3 * t, 0.5 * t])
    chi = pc_diff_cumulate(Panel.from_data(x), 1)
    np.testing.assert_allclose(chi, 0.0, atol=1e-10)


def test_pc_diff_cumulate_location_shift_only(rng):
    # noiseless factor panel: recovery is exact up to the location/slope shift
    # that the difference-demeaning and cumulation introduce (the estimator
    # converges to a bridge), so the error is exactly affine in t
    x = exact_factor_panel(rng, n=20, r=2, T=150)
    chi = pc_diff_cumulate(Panel.from_data(x), 2)
    err = (chi - x).T                     # T x n
    t = np.arange(1.0, 151.0)
    X = np.column_stack([np.ones(150), t])
    resid = err - X @ np.linalg.lstsq(X, err, rcond=None)[0]
    assert np.max(np.abs(resid)) < 1e-8


def test_cumulate_difference_inverse_pair(rng):
    x = exact_factor_panel(rng) + 0.3 * rng.standard_normal((15, 120))
    chi = pc_diff_cumulate(Panel.from_data(x), 2)
    dchi = np.diff(chi, axis=1)
    dx = np.diff(x, axis=1)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    G = dxc @ dxc.T / dxc.shape[1]
    vals, vecs = np.linalg.eigh(G)
    V = vecs[:, ::-1][:, :2]
    np.testing.assert_allclose(dchi, V @ (V.T @ dxc), atol=1e-10)


def test_pc_diff_corrected_recovers_pure_trend():
    t = np.arange(1.0, 101.0)
    x = np.vstack([2 + 0.4 * t, 1 + 0.3 * t, -1 + 0.5 * t])
    panel = Panel.from_data(x)
    chi = pc_diff_corrected(panel, pc_diff_cumulate(panel, 1))
    np.testing.assert_allclose(chi, x, atol=1e-8)


def test_row_permutation_equivariance(rng):
    x = exact_factor_panel(rng, n=12) + 0.2 * rng.standard_normal((12, 120))
    perm = np.random.default_rng(0).permutation(12)

    def corrected(panel, r):
        return pc_diff_corrected(panel, pc_diff_cumulate(panel, r))

    for method in (pc_levels, pc_diff_cumulate, corrected):
        a = method(Panel.from_data(x), 2)
        b = method(Panel.from_data(x[perm]), 2)
        np.testing.assert_allclose(a[perm], b, atol=1e-8)


def test_gaps_filled_with_observed_series_means(rng):
    x = exact_factor_panel(rng) + 0.3 * rng.standard_normal((15, 120))
    x[rng.random(x.shape) < 0.2] = np.nan
    x[4] = np.nan                             # never observed: filled with zeros
    by_hand = x.copy()
    for i, row in enumerate(x):
        obs = np.isfinite(row)
        by_hand[i, ~obs] = row[obs].mean() if obs.any() else 0.0
    assert np.array_equal(pc_levels(Panel.from_data(x), 2), pc_levels(Panel.from_data(by_hand), 2))


def test_cumulated_differences_need_three_periods():
    with pytest.raises(ValueError, match="need T >= 3"):
        pc_diff_cumulate(Panel.from_data(np.ones((4, 2))), 1)


def test_metrics_values():
    assert mse_common(np.zeros((2, 5)), np.zeros((2, 5))) == 0.0
    chi = np.arange(10.0).reshape(2, 5)
    assert mse_common(chi + 1.0, chi) == pytest.approx(1.0)
    # periods 1 and 2 are the filter warm-up, outside the window
    a = np.array([[9.0, 9.0, 0.0, 1.0], [9.0, 9.0, 2.0, 2.0]])
    b = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
    assert mse_common(a, b) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        mse_common(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="ends before period 3"):
        mse_common(np.zeros((2, 2)), np.zeros((2, 2)))
