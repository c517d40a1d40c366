"""Common-component accuracy metrics used by the benchmark tables."""

from __future__ import annotations

import numpy as np

__all__ = ["mse_common", "DEFAULT_T_MIN"]

# First evaluated period (one-based); the filter warm-up is excluded.
DEFAULT_T_MIN = 3


def mse_common(chi_hat: np.ndarray, chi: np.ndarray, t_min: int = DEFAULT_T_MIN) -> float:
    """Mean squared error over all series and periods t >= t_min (one-based)."""
    chi_hat = np.asarray(chi_hat, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if chi_hat.shape != chi.shape:
        raise ValueError(f"shape mismatch: {chi_hat.shape} vs {chi.shape}")
    if not 1 <= t_min <= chi.shape[1]:
        raise ValueError("t_min outside the sample")
    d = chi_hat[:, t_min - 1:] - chi[:, t_min - 1:]
    return float(np.mean(d ** 2))

