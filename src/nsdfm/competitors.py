"""Principal-components reference estimators of the common component.

Three variants frame the benchmark: PCs of the data in levels, PCs of
first differences cumulated back to levels (Bai & Ng 2004), and the
corrected variant that re-anchors a cumulated estimate by re-attaching
each series' level and deterministic linear trend.  All three are blind
to which series carry unit roots or trends; that is the point of the
comparison.  Each fills a missing cell with its series' mean and returns
its n x T estimate of the common component.  The first two share one PC
projection: the centered rows (demeaned levels, or demeaned first
differences) projected onto the r leading eigenvectors of their covariance.
"""

from __future__ import annotations

import numpy as np

from .model import Panel
from .pre_estimate import mean_filled

__all__ = ["pc_levels", "pc_diff_cumulate", "pc_diff_corrected"]


def _pc_projection(xc: np.ndarray, r: int, strict: bool) -> np.ndarray:
    """The centered rows ``xc`` projected on the r leading eigenvectors of their covariance (rank >= r if strict)."""
    vals, vecs = np.linalg.eigh(xc @ xc.T / xc.shape[1])
    if strict and np.sum(vals > max(vals.max(), 0.0) * 1e-10) < r:
        raise ValueError(f"matrix has rank below r={r}")
    V = vecs[:, ::-1][:, :r]
    return V @ (V.T @ xc)


def pc_levels(panel: Panel, r: int) -> np.ndarray:
    """Project the demeaned levels onto the span of the r leading eigenvectors.

    The eigenvectors come from the covariance of the per-series demeaned
    levels, and the means are added back to the projection.
    """
    x = mean_filled(panel.data, panel.missing_mask)
    xbar = x.mean(axis=1, keepdims=True)
    return xbar + _pc_projection(x - xbar, r, strict=True)


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
    dchi = _pc_projection(dx - dx.mean(axis=1, keepdims=True), r, strict=False)
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
