"""Principal-components reference estimators of the common component.

Three variants frame the benchmark: PCs of the data in levels, PCs of
first differences cumulated back to levels (Bai & Ng 2004), and the
corrected variant that re-anchors a cumulated estimate by re-attaching
each series' level and deterministic linear trend.  All three are blind
to which series carry unit roots or trends; that is the point of the
comparison.  Each fills a missing cell with its series' mean and returns
its n x T estimate of the common component.
"""

from __future__ import annotations

import numpy as np

from .model import Panel
from .pre_estimate import mean_filled

__all__ = ["pc_levels", "pc_diff_cumulate", "pc_diff_corrected"]


def _leading_eigvecs(G: np.ndarray, r: int, strict: bool = False) -> np.ndarray:
    vals, vecs = np.linalg.eigh(G)
    if strict and np.sum(vals > max(vals.max(), 0.0) * 1e-10) < r:
        raise ValueError(f"matrix has rank below r={r}")
    return vecs[:, ::-1][:, :r]


def pc_levels(panel: Panel, r: int) -> np.ndarray:
    """Project the demeaned levels onto the span of the r leading eigenvectors.

    The eigenvectors come from the covariance of the per-series demeaned
    levels, and the means are added back to the projection.
    """
    x = mean_filled(panel.data, panel.missing_mask)
    xbar = x.mean(axis=1, keepdims=True)
    xc = x - xbar
    V = _leading_eigvecs(xc @ xc.T / x.shape[1], r, strict=True)
    return xbar + V @ (V.T @ xc)


def pc_diff_cumulate(panel: Panel, r: int) -> np.ndarray:
    """PCs of demeaned first differences, cumulated back from zero.

    The per-series mean of the differences estimates the trend slope and
    is removed before the PCA; the cumulated estimate is therefore only
    identified up to a location shift per series.
    """
    x = mean_filled(panel.data, panel.missing_mask)
    if x.shape[1] < 3:
        raise ValueError("need T >= 3")
    dx = np.diff(x, axis=1)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    G = dxc @ dxc.T / dxc.shape[1]
    V = _leading_eigvecs(G, r)
    dchi = V @ (V.T @ dxc)
    return np.concatenate([np.zeros((x.shape[0], 1)), np.cumsum(dchi, axis=1)], axis=1)


def pc_diff_corrected(panel: Panel, cumulated: np.ndarray) -> np.ndarray:
    """Re-anchor the :func:`pc_diff_cumulate` estimate ``cumulated`` of ``panel``.

    The per-series OLS fit of (x - cumulated) on a constant and trend is
    added back, restoring the level and any deterministic linear
    component the differencing removed.
    """
    x = mean_filled(panel.data, panel.missing_mask)
    T = x.shape[1]
    X = np.column_stack([np.ones(T), np.arange(1, T + 1, dtype=float)])
    coef, *_ = np.linalg.lstsq(X, (x - cumulated).T, rcond=None)
    return cumulated + (X @ coef).T
