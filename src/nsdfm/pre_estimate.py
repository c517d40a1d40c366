"""Pre-estimation: the parameter values that seed the first EM iteration.

Everything here runs on first differences of (optionally detrended) data:
principal components of the differenced panel give the contemporaneous
loadings, a regression of the residual differences on lagged factor
differences gives the lagged loadings, and an unrestricted VAR fitted on
the implied factor path gives the transition parameters.  Levels never
enter any regression in this module, which keeps the initialization free
of spurious effects from idiosyncratic unit roots or linear trends.

Missing cells are tolerated: gaps in the differenced panel are filled
with per-series means before the PCA (pre-estimators need not be
consistent; the EM iterations handle missingness exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, Panel, Params, companion

__all__ = [
    "PreEstimate",
    "detrend_ols",
    "pc_first_differences",
    "lagged_loadings",
    "var_prefit",
    "gamma_e_init",
    "floor_gamma_u",
    "p00_init",
    "initial_state_cov",
    "pre_estimate",
]

# Fixed initial values for the innovation variances of the extra states
SIGMA2_OMEGA_INIT = 1.0e-2
SIGMA2_ETA_INIT = 1.0e-2
SIGMA2_NU_INIT = 1.0e-5

# Diffuse initial variance of the extra states (Durbin & Koopman 2012, sec. 5.6)
KAPPA = 1.0e7

VARIANCE_FLOOR = 1.0e-12


@dataclass
class PreEstimate:
    """Iteration-0 estimates plus the Kalman filter initialization.

    ``params`` is the point :func:`nsdfm.em.fit` starts EM from; its
    ``alpha0`` and ``beta0`` are the OLS intercepts and slopes on
    ``spec.free_intercepts`` and ``spec.free_slopes`` and 0 elsewhere.
    ``init_state_mean`` and ``init_state_cov`` follow ``spec.layout``; the
    mean starts each local level and local trend state at its series' OLS
    intercept or slope.
    """

    params: Params
    f_tilde: np.ndarray              # q x T pre-factor path
    init_state_mean: np.ndarray
    init_state_cov: np.ndarray


def detrend_ols(series: np.ndarray, mask: np.ndarray):
    """OLS of a series on (1, t) with t = 1..T over the cells ``mask`` marks observed.

    Returns (alpha, beta, residual series).  The residual is formed at every
    cell, so a NaN-marked missing cell stays NaN.  Fewer than two observed
    cells give (0, 0, a copy of the series).
    """
    y = np.asarray(series, dtype=float)
    T = y.shape[0]
    if T < 3:
        raise ValueError("detrending needs T >= 3")
    t = np.arange(1, T + 1, dtype=float)
    obs = np.asarray(mask, dtype=bool)
    if obs.sum() < 2:
        return 0.0, 0.0, y.copy()
    X = np.column_stack([np.ones(obs.sum()), t[obs]])
    coef, *_ = np.linalg.lstsq(X, y[obs], rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    return alpha, beta, y - alpha - beta * t


def mean_filled(values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``values`` (n x T) with each series' cells where ``ok`` is False set to the mean of its ``ok`` cells.

    A series with no ``ok`` cell is all zeros.  Only the series with a gap
    are visited.
    """
    fill = np.zeros(values.shape[0])
    for i in np.flatnonzero(ok.any(axis=1) & ~ok.all(axis=1)):
        fill[i] = values[i, ok[i]].mean()
    return np.where(ok, values, fill[:, None])


def _filled_differences(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """n x (T-1) differenced panel, a difference observed when both its levels are, gaps :func:`mean_filled`."""
    return mean_filled(x[:, 1:] - x[:, :-1], mask[:, 1:] & mask[:, :-1])


def _filled_levels(x: np.ndarray, mask: np.ndarray, dx_fill: np.ndarray) -> np.ndarray:
    """Complete levels: observed cells kept, gaps walked with filled steps.

    A gap after a series' first observation steps forward from the level
    before it, a leading gap steps backward from the first observation, and
    a series with no observation is all zeros.  Only the gaps are visited.
    """
    out = np.where(mask, x, 0.0)
    first = mask.argmax(axis=1).tolist()
    rows, cols = np.nonzero(~mask & mask.any(axis=1)[:, None])
    for i, t in zip(rows.tolist(), cols.tolist()):
        if t > first[i]:
            out[i, t] = out[i, t - 1] + dx_fill[i, t - 1]
    for i, f in enumerate(first):
        for t in range(f - 1, -1, -1):
            out[i, t] = out[i, t + 1] - dx_fill[i, t]
    return out


def _ordered_eigh(G: np.ndarray):
    """Eigenpairs in descending eigenvalue order with a lexicographic tie-break."""
    vals, vecs = np.linalg.eigh(G)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    order = np.arange(len(vals))
    if not np.all(vals[:-1] > vals[1:]):  # strictly decreasing needs no sort; ties go by the eigenvectors
        order = sorted(order, key=lambda j: (-vals[j], tuple(-vecs[:, j])))
    return vals[order], vecs[:, order]


def pc_first_differences(dx: np.ndarray, q: int):
    """Loadings from the q leading eigenpairs of the differenced covariance.

    Returns (B0, M) with M the q leading eigenvalues and B0 = V M^{1/2} for
    their eigenvectors V, columns ordered by descending eigenvalue and
    signed so the first nonzero entry of each column of V is positive.
    """
    T_d = dx.shape[1]
    centered = dx - dx.mean(axis=1, keepdims=True)
    G = centered @ centered.T / T_d
    vals, vecs = _ordered_eigh(G)
    if np.sum(vals > 0) < q:
        raise ValueError(f"differenced covariance has fewer than q={q} positive eigenvalues")
    M = vals[:q]
    V = vecs[:, :q]
    for j in range(q):
        col = V[:, j]
        # a unit-norm eigenvector has a nonzero entry
        if col[np.flatnonzero(col)[0]] < 0:
            V[:, j] = -col
    return V * np.sqrt(M), M


def _regress(Y: np.ndarray, X: np.ndarray, message: str) -> np.ndarray:
    """Y X' (X X')^{-1}, the least-squares coefficients of Y on the rows of X; ``message`` names a singular X X'."""
    try:
        return Y @ X.T @ np.linalg.inv(X @ X.T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(message) from exc


def lagged_loadings(dx: np.ndarray, B0: np.ndarray, f_tilde: np.ndarray, s: int) -> list[np.ndarray]:
    """Project residual differences on lagged factor differences.

    Returns [B_1, ..., B_s]; empty for s = 0.  The s = 1 case is the
    single-lag projection of the residual (dx - B0 df_t) on df_{t-1}.
    """
    if s == 0:
        return []
    df = np.diff(f_tilde, axis=1)             # q x (T-1)
    resid = dx - B0 @ df                      # n x (T-1)
    q = B0.shape[1]
    cols = np.arange(s, df.shape[1])
    if cols.size < s * q + 1:
        raise ValueError("too few periods to fit lagged loadings")
    Rg = np.vstack([df[:, cols - k] for k in range(1, s + 1)])   # (s q) x len(cols)
    Bs = _regress(resid[:, cols], Rg, "singular Gram matrix of lagged factor differences")
    return [Bs[:, (k - 1) * q:k * q] for k in range(1, s + 1)]


def var_prefit(f_tilde: np.ndarray, p: int):
    """Unrestricted VAR(p) in levels on the pre-factor path.

    Returns (coefficient list, innovation covariance); the innovation
    covariance is normalized by T as in the rest of the initialization.
    No cointegration-rank restriction is imposed.
    """
    q, T = f_tilde.shape
    if T < p * q + p + 1:
        raise ValueError(f"T={T} too small for a VAR({p}) on {q} factors")
    ts = np.arange(p, T)
    Y = f_tilde[:, ts]
    X = np.vstack([f_tilde[:, ts - k] for k in range(1, p + 1)])  # (p q) x (T-p)
    A_stack = _regress(Y, X, "singular regressor moment matrix in the factor VAR")
    A = [A_stack[:, (k - 1) * q:k * q] for k in range(1, p + 1)]
    resid = Y - A_stack @ X
    gamma_u = resid @ resid.T / T
    return A, gamma_u


def gamma_e_init(
    dx: np.ndarray,
    loadings: list[np.ndarray],
    f_tilde: np.ndarray,
    idio_i1: frozenset[int],
) -> np.ndarray:
    """Per-series idiosyncratic variances from differenced residuals.

    The residual variance is normalized by 1/T for random-walk series and
    by 1/(2T) otherwise, since a differenced stationary component is an
    MA(1) with twice the level variance.
    """
    T_d = dx.shape[1]
    T = T_d + 1
    s = len(loadings) - 1
    df = np.diff(f_tilde, axis=1)
    cols = np.arange(s, T_d)
    resid = dx[:, cols].copy()
    for k, B in enumerate(loadings):
        resid -= B @ df[:, cols - k]
    ssq = (resid ** 2).sum(axis=1)
    out = ssq / (2 * T)
    i1 = sorted(idio_i1)
    out[i1] = ssq[i1] / T
    return out


def floor_gamma_u(gamma_u: np.ndarray) -> np.ndarray:
    """``gamma_u`` + (VARIANCE_FLOOR + max(0, -smallest eigenvalue)) * I if that eigenvalue is <= VARIANCE_FLOOR."""
    low = np.linalg.eigvalsh(gamma_u)[0]
    if low <= VARIANCE_FLOOR:
        gamma_u = gamma_u + (VARIANCE_FLOOR + abs(min(0.0, low))) * np.eye(len(gamma_u))
    return gamma_u


def p00_init(companion: np.ndarray, gamma_u: np.ndarray) -> np.ndarray:
    """Initial factor-block covariance from a shrunk discrete Lyapunov equation.

    The companion is scaled so its largest-modulus eigenvalue is 0.99 (a
    cointegrated factor VAR has a unit eigenvalue, so this turns the unit
    roots into near-unit roots and the stationary covariance is large but
    finite), then P = A P A' + Q is solved by inverting the vectorized
    system; Q places gamma_u in the contemporaneous block.
    """
    m = companion.shape[0]
    q = gamma_u.shape[0]
    radius = np.max(np.abs(np.linalg.eigvals(companion)))
    A = companion if radius == 0 else 0.99 * companion / radius
    Q = np.zeros((m, m))
    Q[:q, :q] = gamma_u
    lhs = np.eye(m * m) - np.kron(A, A)
    P = np.linalg.solve(lhs, Q.reshape(-1)).reshape(m, m)
    return 0.5 * (P + P.T)


def initial_state_cov(spec: ModelSpec, var_coeffs: list[np.ndarray], gamma_u: np.ndarray) -> np.ndarray:
    """KAPPA * I over the state, with the :func:`p00_init` block for the factor companion."""
    layout = spec.layout
    r = layout.n_factor_states
    P0 = np.eye(layout.K) * KAPPA
    P0[:r, :r] = p00_init(companion(var_coeffs, layout.n_lags), gamma_u)
    return P0


def pre_estimate(spec: ModelSpec, panel: Panel) -> PreEstimate:
    """Full iteration-0 estimation for (spec, panel).

    The series of ``spec.detrend_set`` are OLS-detrended first, and
    ``params`` keeps each OLS intercept and slope that is a parameter.  The
    returned initial state covariance uses the Lyapunov block for the
    factors and KAPPA * I for the extra states.
    """
    n, T, q = spec.n, spec.T, spec.q
    if (panel.n, panel.T) != (n, T):
        raise ValueError(f"panel is {panel.n}x{panel.T}, spec says {n}x{T}")
    if T < q + 2:
        raise ValueError("T too small for the differenced PCA")

    x, mask = panel.data, panel.missing_mask
    alpha_check = np.zeros(n)
    beta_check = np.zeros(n)
    x_det = np.array(x)
    for i in sorted(spec.detrend_set):
        alpha_check[i], beta_check[i], x_det[i] = detrend_ols(x[i], mask[i])

    dx = _filled_differences(x_det, mask)
    x_fill = _filled_levels(x_det, mask, dx)

    B0, M = pc_first_differences(dx, q)
    f_tilde = (B0.T @ x_fill) / M[:, None]      # M^{-1} B0' x
    lag = lagged_loadings(dx, B0, f_tilde, spec.s)
    loadings = [B0] + lag
    A, gamma_u = var_prefit(f_tilde, spec.p)
    gamma_u = floor_gamma_u(0.5 * (gamma_u + gamma_u.T))
    ge = np.maximum(gamma_e_init(dx, loadings, f_tilde, spec.idio_i1), VARIANCE_FLOOR)

    s2w = np.zeros(n)
    s2w[list(spec.local_level)] = SIGMA2_OMEGA_INIT
    s2e = np.zeros(n)
    s2e[list(spec.local_trend)] = SIGMA2_ETA_INIT
    s2nu = np.zeros(n)
    s2nu[list(spec.idio_im)] = SIGMA2_NU_INIT

    params = Params(
        loadings=loadings,
        var_coeffs=A,
        gamma_u=gamma_u,
        gamma_e_diag=ge,
        sigma2_omega=s2w,
        sigma2_eta=s2e,
        sigma2_nu=s2nu,
        alpha0=np.where(np.isin(np.arange(n), list(spec.free_intercepts)), alpha_check, 0.0),
        beta0=np.where(np.isin(np.arange(n), list(spec.free_slopes)), beta_check, 0.0),
    )

    layout = spec.layout
    init_mean = np.zeros(layout.K)  # xi states start at zero
    init_mean[:layout.n_factor_states] = np.tile(f_tilde[:, 0], layout.n_lags)
    init_mean[layout.alpha_slice] = alpha_check[list(layout.alpha_series)]
    init_mean[layout.beta_slice] = beta_check[list(layout.beta_series)]

    return PreEstimate(
        params=params,
        f_tilde=f_tilde,
        init_state_mean=init_mean,
        init_state_cov=initial_state_cov(spec, A, gamma_u),
    )
