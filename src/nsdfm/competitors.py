"""Principal-components reference estimators of the common component.

Three variants frame the benchmark: PCs of the data in levels, PCs of
first differences cumulated back to levels, and the corrected
difference-cumulation variant that re-anchors the cumulated path and
re-attaches the deterministic trend.  All three are blind to which series
carry unit roots or trends; that is the point of the comparison.  The
corrected variant implements re-anchoring as described here (per-series
level and trend re-attachment after cumulation); other codebases may
refine it further, so benchmark tolerances treat it as an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Panel

__all__ = ["CompetitorEstimate", "pc_levels", "pc_diff_cumulate", "pc_diff_corrected"]


@dataclass(frozen=True)
class CompetitorEstimate:
    """Common-component estimate plus the method tag and rank used."""

    chi: np.ndarray
    method: str
    r: int


def _leading_eigvecs(G: np.ndarray, r: int, strict: bool = False) -> np.ndarray:
    vals, vecs = np.linalg.eigh(G)
    if strict and np.sum(vals > max(vals.max(), 0.0) * 1e-10) < r:
        raise ValueError(f"matrix has rank below r={r}")
    return vecs[:, ::-1][:, :r]


def _dense(panel: Panel) -> np.ndarray:
    """Competitors need complete data; fill missing cells with series means."""
    x = np.array(panel.data)
    if not panel.missing_mask.all():
        for i in range(x.shape[0]):
            obs = panel.missing_mask[i]
            fill = x[i, obs].mean() if obs.any() else 0.0
            x[i, ~obs] = fill
    return x


def pc_levels(panel: Panel, r: int) -> CompetitorEstimate:
    """Project the demeaned levels onto the span of the r leading eigenvectors.

    The eigenvectors come from the covariance of the per-series demeaned
    levels, and the means are added back to the projection.
    """
    x = _dense(panel)
    xbar = x.mean(axis=1, keepdims=True)
    xc = x - xbar
    V = _leading_eigvecs(xc @ xc.T / x.shape[1], r, strict=True)
    chi = xbar + V @ (V.T @ xc)
    return CompetitorEstimate(chi=chi, method="pc_levels", r=r)


def pc_diff_cumulate(panel: Panel, r: int) -> CompetitorEstimate:
    """PCs of demeaned first differences, cumulated back from zero.

    The per-series mean of the differences estimates the trend slope and
    is removed before the PCA; the cumulated estimate is therefore only
    identified up to a location shift per series.
    """
    x = _dense(panel)
    if x.shape[1] < 3:
        raise ValueError("need T >= 3")
    dx = np.diff(x, axis=1)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    G = dxc @ dxc.T / dxc.shape[1]
    V = _leading_eigvecs(G, r)
    dchi = V @ (V.T @ dxc)
    chi = np.concatenate([np.zeros((x.shape[0], 1)), np.cumsum(dchi, axis=1)], axis=1)
    return CompetitorEstimate(chi=chi, method="pc_diff_cumulate", r=r)


def pc_diff_corrected(panel: Panel, r: int) -> CompetitorEstimate:
    """Difference-cumulation PCs with level re-anchoring.

    After cumulation, the per-series OLS fit of (x - cumulated estimate)
    on a constant and trend is added back, restoring the level and any
    deterministic linear component the differencing removed.
    """
    base = pc_diff_cumulate(panel, r)
    x = _dense(panel)
    n, T = x.shape
    t = np.arange(1, T + 1, dtype=float)
    X = np.column_stack([np.ones(T), t])
    resid = (x - base.chi).T                      # T x n
    coef, *_ = np.linalg.lstsq(X, resid, rcond=None)
    chi = base.chi + (X @ coef).T
    return CompetitorEstimate(chi=chi, method="pc_diff_corrected", r=r)
