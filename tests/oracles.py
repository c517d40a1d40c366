"""Independent brute-force oracles used to validate the recursive code.

The joint-Gaussian oracle stacks every state and every observed cell of a
small instance into one multivariate normal and computes conditional
moments and the log-density directly, with no Kalman recursion involved.
``simulate_from_params`` draws model-consistent panels for these checks.
``per_slot_smooth`` and ``per_slot_reduce_moments`` are the smoother and
the moment reduction as plain per-slot recursions over (T+1, K, K) arrays,
the references for the banked versions.  ``measurement_map`` and
``lag_one_covs`` form Z_t and the per-slot lag-one covariances directly.
``expected_complete_loglik`` is the objective the M-step maximizes,
written from the model over per-slot smoothed moments.
"""

from __future__ import annotations

import numpy as np

from nsdfm.em import SufficientStats
from nsdfm.model import ModelSpec, Panel, Params, StateSpace, build_state_space, common_component_path


def measurement_map(ss: StateSpace, t: int) -> np.ndarray:
    """Measurement matrix Z_t at zero-based time index t (label t+1): each slope column times t+1."""
    Z = ss.measurement_base.copy()
    Z[:, ss.layout.beta_slice] *= float(t + 1)
    return Z


def lag_one_covs(smooth) -> np.ndarray:
    """Per-slot (T+1, K, K) lag-one smoothed covariances, built from the smoother's bank."""
    return smooth.lag_bank[smooth.lag_index]


def joint_gaussian_moments(ss: StateSpace, panel: Panel, init_mean, init_cov):
    """Exact conditional moments of all states given the observed cells.

    Returns a dict with the stacked prior/posterior moments of states
    s_0..s_T, the observation log-likelihood, and per-t views of the
    posterior mean, covariance and lag-one covariance.  Only feasible for
    tiny instances (dimension grows with (T+1) * K + #observed).
    """
    x, mask = panel.data, panel.missing_mask
    n, T = x.shape
    K = ss.K
    Theta = ss.transition_map
    Q = ss.state_innovation_cov
    R = ss.measurement_cov_diag

    dim_s = (T + 1) * K
    mean_s = np.zeros(dim_s)
    cov_s = np.zeros((dim_s, dim_s))
    mean_s[0:K] = init_mean
    cov_s[0:K, 0:K] = init_cov
    for t in range(1, T + 1):
        mean_s[t * K:(t + 1) * K] = Theta @ mean_s[(t - 1) * K:t * K]
    # diagonal blocks by the state recursion, off-diagonals by propagation
    for t in range(1, T + 1):
        prev = cov_s[(t - 1) * K:t * K, (t - 1) * K:t * K]
        cov_s[t * K:(t + 1) * K, t * K:(t + 1) * K] = Theta @ prev @ Theta.T + Q
    for t in range(T + 1):
        block_t = cov_s[t * K:(t + 1) * K, t * K:(t + 1) * K]
        acc = block_t
        for u in range(t + 1, T + 1):
            acc = acc @ Theta.T
            cov_s[t * K:(t + 1) * K, u * K:(u + 1) * K] = acc
            cov_s[u * K:(u + 1) * K, t * K:(t + 1) * K] = acc.T

    # stack observed cells: row selection of the measurement equation
    rows = []
    y = []
    H = []          # dim_obs x dim_s selection of Z_t into the state stack
    r_list = []
    for t in range(1, T + 1):
        obs = np.nonzero(mask[:, t - 1])[0]
        if obs.size == 0:
            continue
        Zt = measurement_map(ss, t - 1)[obs]
        for j, i in enumerate(obs):
            row = np.zeros(dim_s)
            row[t * K:(t + 1) * K] = Zt[j]
            H.append(row)
            y.append(x[i, t - 1])
            r_list.append(R[i])
            rows.append((i, t))
    H = np.array(H) if H else np.zeros((0, dim_s))
    y = np.array(y)
    r_arr = np.array(r_list)

    mean_y = H @ mean_s
    cov_sy = cov_s @ H.T
    cov_y = H @ cov_sy + np.diag(r_arr)

    if y.size:
        sol = np.linalg.solve(cov_y, np.column_stack([y - mean_y, cov_sy.T]))
        post_mean = mean_s + cov_sy @ sol[:, 0]
        post_cov = cov_s - cov_sy @ sol[:, 1:]
        sign, logdet = np.linalg.slogdet(cov_y)
        assert sign > 0
        quad = (y - mean_y) @ sol[:, 0]
        loglik = -0.5 * (y.size * np.log(2 * np.pi) + logdet + quad)
    else:
        post_mean, post_cov, loglik = mean_s, cov_s, 0.0

    def state_mean(t):
        return post_mean[t * K:(t + 1) * K]

    def state_cov(t):
        return post_cov[t * K:(t + 1) * K, t * K:(t + 1) * K]

    def lag_one(t):
        return post_cov[t * K:(t + 1) * K, (t - 1) * K:t * K]

    return {
        "loglik": float(loglik),
        "state_mean": state_mean,
        "state_cov": state_cov,
        "lag_one": lag_one,
        "prior_mean": mean_s,
        "prior_cov": cov_s,
        "cells": rows,
    }


def prediction_error_terms(ss: StateSpace, panel: Panel, filt) -> np.ndarray:
    """Per-slot prediction-error log-densities from a filter's own predicted moments.

    Slot t holds the Gaussian log-density of the rows observed at t given
    a_{t|t-1} and S_t = Z P_{t|t-1} Z' + R, with S_t factorized by a plain
    Cholesky: no Woodbury identity and no information-form algebra.  Slot
    0 and fully missing slots hold zero.  Checks how the filter evaluates
    its log-likelihood, whatever its covariances are.
    """
    terms = np.zeros(filt.T + 1)
    for t in range(1, filt.T + 1):
        obs = np.nonzero(panel.missing_mask[:, t - 1])[0]
        if obs.size == 0:
            continue
        Z = measurement_map(ss, t - 1)[obs]
        S = Z @ filt.predicted_covs[t] @ Z.T + np.diag(ss.measurement_cov_diag[obs])
        c = np.linalg.cholesky(S)
        z = np.linalg.solve(c, panel.data[obs, t - 1] - Z @ filt.predicted_means[t])
        terms[t] = -0.5 * (obs.size * np.log(2 * np.pi) + 2.0 * np.log(np.diag(c)).sum() + z @ z)
    return terms


def prediction_error_loglik(ss: StateSpace, panel: Panel, filt) -> float:
    """Prediction-error log-likelihood: the sum of :func:`prediction_error_terms`."""
    return float(prediction_error_terms(ss, panel, filt).sum())


def per_slot_smooth(filt, ss: StateSpace):
    """RTS smoother forming P_{t|T} and the lag-one covariance at every slot.

    Returns per-slot (smoothed_means, smoothed_covs, lag_one_covs), slot 0
    of the lag-one array zero.  Like the package's smoother it solves the
    gain J_t once per distinct ``filt.step_index``, so forcing a distinct
    step per slot makes it solve at every slot.
    """
    Theta = ss.transition_map
    T = filt.T
    K = Theta.shape[0]
    P_pred, P_filt = filt.predicted_covs, filt.filtered_covs
    s_mean = np.zeros((T + 1, K))
    s_cov = np.zeros((T + 1, K, K))
    lag1 = np.zeros((T + 1, K, K))

    steps = filt.step_index[:T].tolist()
    repeated = (np.bincount(steps) > 1).tolist()
    gains: dict[int, np.ndarray] = {}
    s_mean[T] = filt.filtered_means[T]
    s_cov[T] = P_filt[T]
    for t in range(T - 1, -1, -1):
        Pf = P_filt[t]
        Pp = P_pred[t + 1]
        J = gains.get(steps[t])
        if J is None:
            J = np.linalg.solve(Pp, Theta @ Pf).T
            if repeated[steps[t]]:
                gains[steps[t]] = J
        s_mean[t] = filt.filtered_means[t] + J @ (s_mean[t + 1] - filt.predicted_means[t + 1])
        X = Pf + J @ (s_cov[t + 1] - Pp) @ J.T
        s_cov[t] = 0.5 * (X + X.T)
        lag1[t + 1] = s_cov[t + 1] @ J.T
    return s_mean, s_cov, lag1


def per_slot_reduce_moments(spec: ModelSpec, panel: Panel, S, P, L1) -> SufficientStats:
    """M-step sufficient statistics from per-slot smoothed means, covariances and lag-one covariances."""
    x, mask = panel.data, panel.missing_mask
    n, T = x.shape
    layout = spec.layout
    K = layout.K
    r0 = (spec.s + 1) * spec.q

    SA = S[1:].T @ S[1:] + P[1:].sum(axis=0)
    SB = np.einsum("ti,tj->ij", S[1:], S[:-1]) + L1[1:].sum(axis=0)
    SC = S[:-1].T @ S[:-1] + P[:-1].sum(axis=0)

    tlab = np.arange(1, T + 1, dtype=float)
    F = S[1:, :r0]
    Z = np.concatenate([F, np.ones((T, 1)), tlab[:, None]], axis=1)
    EZZ = Z[:, :, None] * Z[:, None, :]
    EZZ[:, :r0, :r0] += P[1:, :r0, :r0]
    m = mask.astype(float)
    gram_aug = np.einsum("it,tjk->ijk", m, EZZ)
    xz = np.where(mask, x, 0.0)
    cross_aug = xz @ Z
    sum_xx = (xz ** 2).sum(axis=1)
    n_obs = mask.sum(axis=1)

    im = sorted(spec.idio_im)
    sum_ww = np.zeros(n)
    sum_xw = np.zeros(n)
    sum_zw = np.zeros((n, r0 + 2))
    if im:
        blocks = ((layout.xi_slice, layout.xi_series), (layout.alpha_slice, layout.alpha_series),
                  (layout.beta_slice, layout.beta_series))
        cols = [dict(zip(series, range(sl.start, sl.stop))) for sl, series in blocks]
        mxi, mal, mbe = (np.array([col.get(i, K) for i in im]) for col in cols)

        tcol = tlab[:, None]
        Spad = np.concatenate([S[1:], np.zeros((T, 1))], axis=1)
        Ppad = np.pad(P[1:], ((0, 0), (0, 1), (0, 1)))
        tt = np.arange(T)[:, None]
        wbar = Spad[:, mxi] + Spad[:, mal] + tcol * Spad[:, mbe]
        var_w = (
            Ppad[tt, mxi, mxi] + Ppad[tt, mal, mal] + tcol ** 2 * Ppad[tt, mbe, mbe]
            + 2.0 * Ppad[tt, mxi, mal] + 2.0 * tcol * Ppad[tt, mxi, mbe]
            + 2.0 * tcol * Ppad[tt, mal, mbe]
        )
        cov_Fw = Ppad[:, :r0, mxi] + Ppad[:, :r0, mal] + tcol[:, None] * Ppad[:, :r0, mbe]
        mask_m = m[im].T
        xz_m = xz[im].T
        sum_ww[im] = (mask_m * (wbar ** 2 + var_w)).sum(axis=0)
        sum_xw[im] = (mask_m * xz_m * wbar).sum(axis=0)
        sum_zw_m = np.einsum("tn,tr->nr", mask_m * wbar, Z)
        sum_zw_m[:, :r0] += np.einsum("tn,trn->nr", mask_m, cov_Fw)
        sum_zw[im] = sum_zw_m

    cross_aug -= sum_zw
    return SufficientStats(
        SA=SA, SB=SB, SC=SC,
        gram_aug=gram_aug, cross_aug=cross_aug, sum_zw=sum_zw,
        sum_xx=sum_xx, sum_xw=sum_xw, sum_ww=sum_ww,
        n_obs=n_obs,
    )


def expected_complete_loglik(spec: ModelSpec, params: Params, panel: Panel, means, covs, lag_covs) -> float:
    """Expected complete-data log-likelihood Q(params) over t = 1..T, given s_0.

    ``means`` (T+1, K), ``covs`` (T+1, K, K) and ``lag_covs`` (T+1, K, K),
    whose slot t holds Cov(s_t, s_{t-1}), are per-slot smoothed moments in
    ``spec.layout`` order.  Q sums three kinds of Gaussian log-density, each
    in expectation under those moments, E[(a'v)^2] = (a'E v)^2 + a' Cov(v) a:
    the factor VAR innovation f_t - sum_k A_k f_{t-k}; the random-walk
    innovation of each extra state (xi of ``idio_i1`` with variance
    ``gamma_e_diag``, alpha of ``local_level`` with ``sigma2_omega``, beta of
    ``local_trend`` with ``sigma2_eta``, each block in sorted series order);
    and each observed cell x_it - alpha0_i - beta0_i t - sum_k b_ik' f_{t-k}
    - xi_it - alpha_it - t beta_it, with variance ``sigma2_nu`` on series
    with an extra state and ``gamma_e_diag`` elsewhere.  It reads neither
    :class:`SufficientStats` nor :func:`build_state_space`.
    """
    x, mask = panel.data, panel.missing_mask
    q, K = spec.q, means.shape[1]
    r = q * max(spec.s + 1, spec.p)
    # (series, innovation variance, whether the state is a slope, which loads t) of each extra state
    extra = ([(i, params.gamma_e_diag[i], False) for i in sorted(spec.idio_i1)]
             + [(i, params.sigma2_omega[i], False) for i in sorted(spec.local_level)]
             + [(i, params.sigma2_eta[i], True) for i in sorted(spec.local_trend)])
    gamma_inv = np.linalg.inv(params.gamma_u)
    log_det = np.linalg.slogdet(params.gamma_u)[1]
    log2pi = np.log(2.0 * np.pi)
    # u_t = G (s_t, s_{t-1}): f_t is block 0 of s_t, and f_{t-k} block k-1 of s_{t-1}
    G = np.zeros((q, 2 * K))
    G[:, :q] = np.eye(q)
    for k, A in enumerate(params.var_coeffs):
        G[:, K + k * q:K + (k + 1) * q] = -A
    Q = 0.0
    for t in range(1, spec.T + 1):
        m = np.concatenate([means[t], means[t - 1]])
        E = np.outer(m, m) + np.block([[covs[t], lag_covs[t]], [lag_covs[t].T, covs[t - 1]]])
        Q -= 0.5 * (q * log2pi + log_det + np.trace(gamma_inv @ G @ E @ G.T))
        for j, (_, var, _) in enumerate(extra):
            dv = E[r + j, r + j] + E[K + r + j, K + r + j] - 2.0 * E[r + j, K + r + j]
            Q -= 0.5 * (log2pi + np.log(var) + dv / var)
        for i in np.nonzero(mask[:, t - 1])[0]:
            h = np.zeros(K)
            for k, B in enumerate(params.loadings):
                h[k * q:(k + 1) * q] = B[i]
            for j, (series, _, slope) in enumerate(extra):
                if series == i:
                    h[r + j] = float(t) if slope else 1.0
            resid = x[i, t - 1] - params.alpha0[i] - params.beta0[i] * t - h @ means[t]
            var = params.sigma2_nu[i] if i in spec.idio_im else params.gamma_e_diag[i]
            Q -= 0.5 * (log2pi + np.log(var) + (resid ** 2 + h @ covs[t] @ h) / var)
    return float(Q)


def ols_line_fit(y: np.ndarray):
    """Closed-form OLS of y on (1, t) with t = 1..T, via normal equations."""
    T = y.shape[0]
    t = np.arange(1, T + 1, dtype=float)
    X = np.column_stack([np.ones(T), t])
    coef = np.linalg.solve(X.T @ X, X.T @ y)
    return float(coef[0]), float(coef[1])


def power_iteration_leading_eig(S: np.ndarray, iters: int = 5000, seed: int = 0):
    """Leading eigenpair of a symmetric PSD matrix by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(S.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = S @ v
        lam_new = float(np.linalg.norm(w))
        v_new = w / lam_new
        if np.linalg.norm(v_new - v) < 1e-14 or np.linalg.norm(v_new + v) < 1e-14:
            v, lam = v_new, lam_new
            break
        v, lam = v_new, lam_new
    return lam, v


def lyapunov_fixed_point(A: np.ndarray, Q: np.ndarray, iters: int = 20000, tol: float = 1e-14):
    """Solve P = A P A' + Q by iterating the map from P = Q."""
    P = Q.copy()
    for _ in range(iters):
        P_next = A @ P @ A.T + Q
        if np.max(np.abs(P_next - P)) < tol:
            return P_next
        P = P_next
    return P


def var2_polynomial_roots(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Roots of det(I - A1 z - A2 z^2) via the companion eigenvalues.

    The determinantal roots are the reciprocals of the nonzero eigenvalues
    of the companion matrix [[A1, A2], [I, 0]]; zero eigenvalues map to
    roots at infinity and are dropped.
    """
    q = A1.shape[0]
    comp = np.zeros((2 * q, 2 * q))
    comp[:q, :q] = A1
    comp[:q, q:] = A2
    comp[q:, :q] = np.eye(q)
    eig = np.linalg.eigvals(comp)
    nz = eig[np.abs(eig) > 1e-12]
    return 1.0 / nz


def simulate_from_params(
    spec: ModelSpec,
    params: Params,
    rng: np.random.Generator,
    init_state: np.ndarray | None = None,
    measurement_noise: bool = True,
):
    """Draw a panel exactly from the compact state-space model.

    Useful for fixed-point and oracle-style tests where the data must be
    model-consistent.  Returns (Panel, states (T+1) x K, chi).
    """
    ss = build_state_space(spec, params)
    K = ss.K
    T = spec.T
    states = np.zeros((T + 1, K))
    states[0] = np.zeros(K) if init_state is None else np.asarray(init_state, dtype=float)
    cQ = np.zeros((K, K))
    pos = np.diag(ss.state_innovation_cov) > 0
    sub = ss.state_innovation_cov[np.ix_(pos, pos)]
    cQ[np.ix_(pos, pos)] = np.linalg.cholesky(sub)
    x = np.zeros((spec.n, T))
    for t in range(1, T + 1):
        states[t] = ss.transition_map @ states[t - 1] + cQ @ rng.standard_normal(K)
        x[:, t - 1] = measurement_map(ss, t - 1) @ states[t]
    if measurement_noise:
        x += np.sqrt(ss.measurement_cov_diag)[:, None] * rng.standard_normal((spec.n, T))
    chi = common_component_path(params.loadings, states[1:], ss.layout)
    return Panel.from_data(x), states, chi
