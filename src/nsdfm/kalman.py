"""Kalman filter and fixed-interval smoother for the compact state space.

Handles missing observations by row selection, accumulates the Gaussian
log-likelihood over observed rows only, and returns the lag-one smoothed
covariances needed by the EM sufficient statistics.

The measurement update is in information form: the gain comes from the
Cholesky factor of P_{t|t-1}^{-1} + Z'R^{-1}Z, which costs O(n K^2) per
step with the diagonal measurement covariance.  The innovation's
quadratic form is a sum of two squares, e'R^{-1}e + m'P_{t|t-1}^{-1}m with
m the gain times the innovation and e = v - Z m, so no term cancels
however small a measurement variance is.  The filtered covariance is
formed in Joseph form and re-symmetrized, which keeps the recursion
stable under the near-diffuse initialization used for unit-root states.

The covariance step does not depend on the data.  With a fixed measurement
map the filter reuses either of its last two steps when P_{t-1|t-1} and the
observed rows repeat bitwise, and the smoother solves its gain once per
distinct step, so every result is bit-identical to the full recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Panel, StateSpace

__all__ = [
    "FilterOutput",
    "SmootherOutput",
    "kf_filter",
    "ks_smooth",
    "steady_state_diagnostics",
    "steady_state_onset",
    "DEFAULT_KAPPA",
]

# Default variance for diffuse state blocks ("very large value" initialization).
DEFAULT_KAPPA = 1.0e7

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FilterOutput:
    """Filter pass results; arrays are indexed 0..T with slot 0 = initial state.

    ``predicted_means[t]`` is a_{t|t-1} and ``filtered_means[t]`` a_{t|t}
    for t >= 1; slot 0 of both holds the initial mean/covariance.
    ``loglik_terms[t]`` is the prediction-error log-density of the rows
    observed at t (zero at fully missing time points).  ``step_index[t]`` is the
    slot whose covariance step gave slot t its covariances (t unless reused).
    """

    predicted_means: np.ndarray      # (T+1, K)
    predicted_covs: np.ndarray       # (T+1, K, K)
    filtered_means: np.ndarray       # (T+1, K)
    filtered_covs: np.ndarray        # (T+1, K, K)
    loglik_terms: np.ndarray         # (T+1,)
    step_index: np.ndarray           # (T+1,) int

    @property
    def T(self) -> int:
        return self.predicted_means.shape[0] - 1

    @property
    def loglik(self) -> float:
        return float(self.loglik_terms[1:].sum())


@dataclass
class SmootherOutput:
    """Fixed-interval smoother results, indexed like :class:`FilterOutput`.

    ``lag_one_covs[t]`` holds Cov(s_t, s_{t-1} | all data) for t >= 1.
    """

    smoothed_means: np.ndarray       # (T+1, K)
    smoothed_covs: np.ndarray        # (T+1, K, K)
    lag_one_covs: np.ndarray         # (T+1, K, K); slot 0 unused (zeros)

    @property
    def T(self) -> int:
        return self.smoothed_means.shape[0] - 1


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def _chol_lower_inv(c: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular Cholesky factor."""
    return np.linalg.solve(c, np.eye(c.shape[0]))


def _filter_step(ss: StateSpace, P_prev: np.ndarray, obs: np.ndarray, t: int) -> tuple:
    """The data-free part of filter step t (1-based slot), from P_{t-1|t-1} and the observed rows.

    Returns (P_{t|t-1}, P_{t|t}, Z, r_diag, gain, logdet_S, cPi) with Z and
    r_diag on the observed rows and cPi the inverse Cholesky factor of
    P_{t|t-1}, which the innovation's quadratic form needs.
    """
    P = _symmetrize(ss.transition_map @ P_prev @ ss.transition_map.T + ss.state_innovation_cov)
    if obs.size == 0:
        return P, P, None, None, None, 0.0, None
    Z = ss.measurement_map(t - 1)[obs]
    r_diag = ss.measurement_cov_diag[obs]
    try:
        Zr = Z.T / r_diag                        # K x n_obs
        cP = np.linalg.cholesky(P)
        cPi = _chol_lower_inv(cP)
        M_inv = _symmetrize(cPi.T @ cPi + Zr @ Z)  # P^{-1} + Z' R^{-1} Z
        cM = np.linalg.cholesky(M_inv)
        cMi = _chol_lower_inv(cM)
        gain = (cMi.T @ cMi) @ Zr
        logdet_S = (
            np.log(r_diag).sum()
            + 2.0 * np.log(np.diag(cP)).sum()
            + 2.0 * np.log(np.diag(cM)).sum()
        )
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"P_{{t|t-1}} or P_{{t|t-1}}^-1 + Z'R^-1 Z not positive definite at t={t}; check the variances"
        ) from exc
    IKZ = -(gain @ Z)
    IKZ.flat[::P.shape[0] + 1] += 1.0            # I - gain Z without a K x K identity per step
    P_filt = _symmetrize(IKZ @ P @ IKZ.T + (gain * r_diag) @ gain.T)
    return P, P_filt, Z, r_diag, gain, logdet_S, cPi


def kf_filter(
    ss: StateSpace,
    panel: Panel,
    init_mean: np.ndarray,
    init_cov: np.ndarray,
) -> FilterOutput:
    """Run the Kalman filter over a panel with missing-data row selection.

    At a fully missing time index the update is skipped and the
    log-likelihood contribution is zero.  Raises on non-finite inputs and
    when the predicted covariance P_{t|t-1} at an observed time index is
    not numerically positive definite (which usually signals a degenerate
    state or measurement variance); every update factorizes it.
    """
    x, mask = panel.data, panel.missing_mask
    n, T = x.shape
    K = ss.K
    if ss.measurement_base.shape[0] != n:
        raise ValueError(f"panel has {n} series but the system measures {ss.measurement_base.shape[0]}")
    init_mean = np.asarray(init_mean, dtype=float)
    init_cov = np.asarray(init_cov, dtype=float)
    if init_mean.shape != (K,) or init_cov.shape != (K, K):
        raise ValueError("initial moments have wrong shape")
    if not (np.all(np.isfinite(init_mean)) and np.all(np.isfinite(init_cov))):
        raise ValueError("initial moments must be finite")

    Theta = ss.transition_map

    a_pred = np.zeros((T + 1, K))
    P_pred = np.zeros((T + 1, K, K))
    a_filt = np.zeros((T + 1, K))
    P_filt = np.zeros((T + 1, K, K))
    ll = np.zeros(T + 1)
    step_index = np.zeros(T + 1, dtype=np.intp)

    a_pred[0] = a_filt[0] = init_mean
    P_pred[0] = P_filt[0] = _symmetrize(init_cov)

    recent: list[tuple] = []  # (P_{t-1|t-1}, observed rows, slot, step) of the last two steps computed
    for t in range(1, T + 1):
        obs = np.nonzero(mask[:, t - 1])[0]
        hits = [e for e in recent if np.array_equal(e[1], obs) and np.array_equal(e[0], P_filt[t - 1])]
        if hits:
            _, _, step_index[t], step = hits[0]
        else:
            step_index[t], step = t, _filter_step(ss, P_filt[t - 1], obs, t)
            if not ss.time_varying:  # a step can repeat only while Z does not change with t
                recent = recent[-1:] + [(P_filt[t - 1], obs, t, step)]
        P, Pf, Z, r_diag, gain, logdet_S, cPi = step

        a = Theta @ a_filt[t - 1]
        a_pred[t], P_pred[t], P_filt[t] = a, P, Pf
        if obs.size == 0:
            a_filt[t] = a
            continue

        v = x[obs, t - 1] - Z @ a
        m = gain @ v
        a_filt[t] = a + m
        # v'S^{-1}v = e'R^{-1}e + m'P^{-1}m: m minimizes (v - Zm)'R^{-1}(v - Zm) + m'P^{-1}m
        e = v - Z @ m
        w = cPi @ m
        quad = e @ (e / r_diag) + w @ w
        ll[t] = -0.5 * (obs.size * _LOG_2PI + logdet_S + quad)

    if not np.all(np.isfinite(ll)):
        raise FloatingPointError("non-finite log-likelihood term; filter diverged")
    return FilterOutput(a_pred, P_pred, a_filt, P_filt, ll, step_index)


def ks_smooth(filt: FilterOutput, ss: StateSpace) -> SmootherOutput:
    """Fixed-interval (RTS) smoother with lag-one covariances.

    The smoothed cross-covariance uses Cov(s_t, s_{t-1} | data) =
    P_{t|T} J_{t-1}', with J the usual smoother gain; slot 0 of the output
    arrays carries the smoothed initial state, which re-seeds the filter
    across EM iterations.  J_t depends on P_{t|t} alone, so it is solved
    once per distinct ``filt.step_index``.
    """
    Theta = ss.transition_map
    T = filt.T
    K = Theta.shape[0]
    s_mean = np.zeros((T + 1, K))
    s_cov = np.zeros((T + 1, K, K))
    lag1 = np.zeros((T + 1, K, K))

    steps = filt.step_index[:T].tolist()
    repeated = (np.bincount(steps) > 1).tolist()
    gains: dict[int, np.ndarray] = {}
    s_mean[T] = filt.filtered_means[T]
    s_cov[T] = filt.filtered_covs[T]
    for t in range(T - 1, -1, -1):
        Pf = filt.filtered_covs[t]
        Pp = filt.predicted_covs[t + 1]
        J = gains.get(steps[t])
        if J is None:
            # J_t = P_{t|t} Theta' P_{t+1|t}^{-1}, via a solve on the symmetric Pp
            J = np.linalg.solve(Pp, Theta @ Pf).T
            if repeated[steps[t]]:
                gains[steps[t]] = J
        s_mean[t] = filt.filtered_means[t] + J @ (s_mean[t + 1] - filt.predicted_means[t + 1])
        s_cov[t] = _symmetrize(Pf + J @ (s_cov[t + 1] - Pp) @ J.T)
        lag1[t + 1] = s_cov[t + 1] @ J.T
    return SmootherOutput(s_mean, s_cov, lag1)


def steady_state_onset(trace: np.ndarray, tol: float) -> int | None:
    """First t (1-based) after which ``trace`` changes by less than ``tol``; None if never."""
    settled = np.nonzero(np.abs(np.diff(trace)) < tol)[0]
    return int(settled[0] + 1) if settled.size else None


def steady_state_diagnostics(
    ss: StateSpace,
    P0: np.ndarray,
    horizon: int = 10,
    tol: float = 1.0e-6,
    T_total: int | None = None,
) -> dict:
    """Per-t traces of the filter/smoother MSE matrices of one system.

    ``P0`` is the initial state covariance.  The covariances do not depend
    on the data, so the filter and smoother run on an all-observed panel of
    zeros.  The result holds tr(P_{t|t-1})/q, tr(P_{t|t})/q and
    tr(P_{t|T})/q over the factor companion block for t = 1..horizon,
    n-scaled variants at t = horizon computed on the current-factor block
    (whose MSE decays at rate n), and ``steady_state_t``: the first t after
    which the one-step-ahead trace changes by less than ``tol``.  The
    smoother runs back from ``T_total`` (default: the horizon) so the
    smoothed traces condition on the full sample length.
    """
    T_full = max(T_total or horizon, horizon)
    n = ss.measurement_base.shape[0]
    q = ss.layout.q
    fb = slice(0, ss.layout.n_factor_states)
    filt = kf_filter(ss, Panel(np.zeros((n, T_full)), None), np.zeros(ss.K), P0)
    P_pred, P_filt = filt.predicted_covs, filt.filtered_covs
    P_smooth = ks_smooth(filt, ss).smoothed_covs

    cur = slice(0, q)
    tr_pred = np.array([np.trace(P_pred[t][fb, fb]) for t in range(1, horizon + 1)])
    tr_filt = np.array([np.trace(P_filt[t][fb, fb]) for t in range(1, horizon + 1)])
    tr_smooth = np.array([np.trace(P_smooth[t][fb, fb]) for t in range(1, horizon + 1)])
    return {
        "tr_pred_over_q": tr_pred / q,
        "tr_filt_over_q": tr_filt / q,
        "tr_smooth_over_q": tr_smooth / q,
        "tr_init_over_q": float(np.trace(P_filt[0][fb, fb])) / q,
        "tr_filt_scaled": float(np.trace(P_filt[horizon][cur, cur])) * n / q,
        "tr_smooth_scaled": float(np.trace(P_smooth[horizon][cur, cur])) * n / q,
        "steady_state_t": steady_state_onset(tr_pred, tol),
    }
