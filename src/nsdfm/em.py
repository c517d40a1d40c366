"""EM estimation: smoother-based E-step and closed-form M-step updates.

The E-step runs the Kalman filter and smoother and reduces the smoothed
moments to sufficient statistics; the M-step solves per-series weighted
least squares for the loadings, a companion-form regression for the
factor VAR, and per-state variance updates.  All second moments are
exact conditional expectations (cross-covariances between factor and
idiosyncratic states included), which keeps the observed log-likelihood
non-decreasing across iterations up to floating point.

Series flagged for detrending keep a per-series constant and linear
trend in the measurement equation.  Both coefficients are bona fide
model parameters, re-estimated in every M-step jointly with the
loadings: a one-shot OLS detrend is badly contaminated by stochastic
trends, and freezing it would leave a residual deterministic component
that nothing in the state can absorb.

Across iterations the filter is re-seeded with the previous smoothed
time-0 mean and covariance, which is itself the maximizer of the initial
state term of the expected complete-data log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kalman import FilterOutput, SmootherOutput, kf_filter, ks_smooth
from .model import ModelSpec, Panel, Params, build_state_space, common_component_path, indicator
from .pre_estimate import VARIANCE_FLOOR, floor_gamma_u, pre_estimate

__all__ = [
    "EMOptions",
    "EMResult",
    "SufficientStats",
    "e_step",
    "m_step_var",
    "m_step_variances",
    "fit",
]

# The smallest fixed phi EMOptions accepts.  Below it the filter is too ill-conditioned for EM to stay
# monotone: on 20 x 40 simulated panels at p = 2, 38 of 150 fits at phi = 1e-10 saw the log-likelihood fall.
PHI_MIN = 1.0e-9


@dataclass(frozen=True)
class EMOptions:
    """Knobs of the EM loop.

    ``max_iter`` caps the number of E/M iterations.  The loop stops as
    converged once the relative change of the log-likelihood between two
    iterations, |l_k - l_{k-1}| / ((|l_k| + |l_{k-1}|) / 2), falls below
    ``tolerance``.  Initial values (the diffuse ``KAPPA`` included) and
    variance floors are constants of :mod:`nsdfm.pre_estimate`, not options.

    ``standardize`` makes ``fit`` divide each series by the standard
    deviation of its observed first differences, in place of the one power
    of two it divides the whole panel by otherwise (see :func:`fit`).  It
    moves the numbers even on data of unit scale: a standard deviation near
    1 still rescales every value, and the fixed initial variances and
    floors, being absolute, weigh differently against the rescaled series.

    ``phi_policy`` is either "estimated" (the small measurement variances
    of series with extra states are updated every iteration) or a float of
    at least ``PHI_MIN``, which fixes them at that value.  The value is in
    units of the panel ``fit`` divides by its series scale, so one bound
    holds at every data scale.
    """

    max_iter: int = 500
    tolerance: float = 1.0e-4
    phi_policy: str | float = "estimated"
    standardize: bool = False

    def __post_init__(self):
        # written as 0 < x < inf, the bound checks fail for NaN too
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if isinstance(self.phi_policy, str) and self.phi_policy != "estimated":
            raise ValueError("phi_policy must be 'estimated' or a fixed value")
        if not isinstance(self.phi_policy, str) and not PHI_MIN <= self.phi_policy < np.inf:
            raise ValueError(f"a fixed phi_policy must be finite and at least {PHI_MIN:g}, got {self.phi_policy!r}")


@dataclass
class SufficientStats:
    """Expected sufficient statistics of one E-step.

    State moments are summed over the transition range t = 1..T:
    ``SA`` = sum E[s_t s_t'], ``SB`` = sum E[s_t s_{t-1}'], ``SC`` =
    sum E[s_{t-1} s_{t-1}'].  Measurement moments are per series, summed
    over each series' observed time points, for the augmented regressor
    z_t = (F_t, 1, t): ``gram_aug`` = sum E[z z'], ``cross_aug`` =
    sum E[z (x - w)], ``sum_zw`` = sum E[z w], where w = level + t * slope
    is the sum of the series' extra states (zero off those series).  These
    are all the M-step reads; the E-step's log-likelihood is returned beside
    them by :func:`e_step`.
    """

    SA: np.ndarray
    SB: np.ndarray
    SC: np.ndarray
    gram_aug: np.ndarray             # (n, r0+2, r0+2)
    cross_aug: np.ndarray            # (n, r0+2)
    sum_zw: np.ndarray               # (n, r0+2)
    sum_xx: np.ndarray               # (n,)
    sum_xw: np.ndarray               # (n,)
    sum_ww: np.ndarray               # (n,)
    n_obs: np.ndarray                # (n,)

    @property
    def r0(self) -> int:
        return self.gram_aug.shape[1] - 2


@dataclass
class EMResult:
    """Fit output: final parameters, smoothed states and diagnostics.

    The smoothed factors are ``smoothed_means[1:, :spec.q]`` (T x q).  The
    estimated deterministic intercepts and slopes are ``params.alpha0`` and
    ``params.beta0``, zero off ``spec.free_intercepts`` and
    ``spec.free_slopes``.  On a ``local_level`` or ``local_trend`` series
    outside ``idio_i1``, ``params.gamma_e_diag`` is never read by the model,
    so EM leaves it at its pre-estimated value.
    """

    params: Params
    chi: np.ndarray                  # n x T estimated common component
    smoothed_means: np.ndarray       # (T+1, K) smoothed states in spec.layout order, slot 0 = initial
    loglik_path: list[float]
    iterations: int
    converged: bool


def e_step(
    spec: ModelSpec,
    params: Params,
    panel: Panel,
    init_mean: np.ndarray,
    init_cov: np.ndarray,
) -> tuple[SufficientStats, SmootherOutput, float]:
    """Smoother pass plus reduction to expected sufficient statistics.

    Returns the statistics, the smoother output and the filter's
    log-likelihood of the panel at ``params``.  The deterministic part
    ``alpha0 + beta0 * t`` of ``params`` is subtracted from the data before
    filtering; the measurement moments are still reported against the
    original data so the M-step can re-estimate the per-series intercept
    and slope.
    """
    filt, smooth = _filter_and_smooth(spec, params, panel, init_mean, init_cov)
    return reduce_moments(spec, panel, smooth), smooth, filt.loglik


def _filter_and_smooth(
    spec: ModelSpec,
    params: Params,
    panel: Panel,
    init_mean: np.ndarray,
    init_cov: np.ndarray,
) -> tuple[FilterOutput, SmootherOutput]:
    """The filter and smoother passes of the system of ``params`` over the detrended panel."""
    ss = build_state_space(spec, params)
    deterministic = params.alpha0[:, None] + params.beta0[:, None] * np.arange(1, panel.T + 1, dtype=float)
    # the filter reads only the observed cells
    detrended = Panel(panel.data - deterministic, panel.missing_mask)
    filt = kf_filter(ss, detrended, init_mean, init_cov)
    return filt, ks_smooth(filt, ss)


def reduce_moments(
    spec: ModelSpec,
    panel: Panel,
    smooth: SmootherOutput,
) -> SufficientStats:
    """Turn smoothed means/covariances, in ``spec.layout`` order, into the M-step sufficient statistics."""
    x, mask = panel.data, panel.missing_mask
    n, T = x.shape
    layout = spec.layout
    K = layout.K
    r0 = (spec.s + 1) * spec.q
    S = smooth.smoothed_means          # (T+1, K)
    P, slot = smooth.cov_bank, smooth.cov_index[1:]

    SA = S[1:].T @ S[1:] + _slot_sum(P, smooth.cov_index, slice(1, None))
    SB = np.einsum("ti,tj->ij", S[1:], S[:-1]) + _slot_sum(smooth.lag_bank, smooth.lag_index, slice(1, None))
    SC = S[:-1].T @ S[:-1] + _slot_sum(P, smooth.cov_index, slice(None, -1))

    tlab = np.arange(1, T + 1, dtype=float)
    F = S[1:, :r0]
    Z = np.concatenate([F, np.ones((T, 1)), tlab[:, None]], axis=1)      # (T, r0+2)
    EZZ = Z[:, :, None] * Z[:, None, :]
    EZZ[:, :r0, :r0] += P[:, :r0, :r0][slot]
    m = mask.astype(float)
    gram_aug = np.einsum("it,tjk->ijk", m, EZZ)
    cross_aug = x @ Z                                                    # sum E[z x]
    sum_xx = (x ** 2).sum(axis=1)
    n_obs = mask.sum(axis=1)

    # w_it = level + t * slope on series with extra latent states: the level is the series' xi or
    # alpha state (a spec allows at most one), the slope its beta state, and K indexes the zero pad
    im = np.array(sorted(spec.idio_im), dtype=int)
    level = dict(zip(layout.xi_series + layout.alpha_series, range(layout.xi_slice.start, layout.alpha_slice.stop)))
    slope = dict(zip(layout.beta_series, range(layout.beta_slice.start, layout.beta_slice.stop)))
    mlv, mbe = (np.array([col.get(i, K) for i in im], dtype=int) for col in (level, slope))

    tcol = tlab[:, None]
    Spad = np.concatenate([S[1:], np.zeros((T, 1))], axis=1)
    Ppad = np.pad(P, ((0, 0), (0, 1), (0, 1)))
    tt = slot[:, None]
    wbar = Spad[:, mlv] + tcol * Spad[:, mbe]                             # (T, n_m)
    var_w = Ppad[tt, mlv, mlv] + tcol ** 2 * Ppad[tt, mbe, mbe] + 2.0 * tcol * Ppad[tt, mlv, mbe]
    cov_Fw = Ppad[:, :r0, mlv][slot] + tcol[:, None] * Ppad[:, :r0, mbe][slot]   # (T, r0, n_m)
    mask_m = m[im].T                                                      # (T, n_m)
    sum_ww = np.zeros(n)
    sum_xw = np.zeros(n)
    sum_zw = np.zeros((n, r0 + 2))
    sum_ww[im] = (mask_m * (wbar ** 2 + var_w)).sum(axis=0)
    sum_xw[im] = (mask_m * x[im].T * wbar).sum(axis=0)
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


def _slot_sum(bank: np.ndarray, index: np.ndarray, slots: slice) -> np.ndarray:
    """Sum of ``bank[index[t]]`` over the given slots, added in slot order.

    That is bitwise the per-slot array's ``sum(axis=0)``, which is what runs
    when the bank has one entry per slot.
    """
    if len(bank) == len(index):
        return bank[slots].sum(axis=0)
    entries = index[slots].tolist()
    acc = bank[entries[0]].copy()
    for j in entries[1:]:
        acc += bank[j]
    return acc


def _solve_measurement(
    stats: SufficientStats,
    alpha_free: np.ndarray,
    beta_free: np.ndarray,
    prev_coef: np.ndarray,
) -> np.ndarray:
    """Per-series (loadings, intercept, slope) solve.

    The intercept/slope columns enter only for series whose deterministic
    component is a parameter (not covered by a latent state); series with
    no observations keep their previous coefficients.
    """
    r0 = stats.r0
    coef = prev_coef.copy()
    obs = stats.n_obs > 0
    try:
        for beta_on in (False, True):
            for alpha_on in (False, True):
                idx = np.nonzero(obs & (alpha_free == alpha_on) & (beta_free == beta_on))[0]
                if not idx.size:
                    continue
                cols = list(range(r0)) + [r0] * alpha_on + [r0 + 1] * beta_on
                G = stats.gram_aug[np.ix_(idx, cols, cols)]
                rhs = stats.cross_aug[np.ix_(idx, cols)]
                sol = np.linalg.solve(G, rhs[:, :, None])[:, :, 0]
                coef[np.ix_(idx, [c for c in range(r0 + 2) if c not in cols])] = 0.0
                coef[np.ix_(idx, cols)] = sol
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("singular expected factor Gram; smoothed factors are collinear") from exc
    return coef


def m_step_var(stats: SufficientStats, spec: ModelSpec):
    """VAR coefficient and innovation covariance updates.

    The coefficient blocks solve the expected companion regression; the
    innovation covariance is the full quadratic form sum over lags of the
    expected residual outer product, normalized by T.
    """
    q, p = spec.q, spec.p
    r = spec.layout.n_factor_states
    last = slice(r - q, r)
    # sum_t E[g g'] for g = (f_t, ..., f_{t-n_lags}): SA covers lags 0..n_lags-1, SB and SC the oldest
    M = np.block([[stats.SA[:r, :r], stats.SB[:r, last]], [stats.SB[:r, last].T, stats.SC[last, last]]])
    gram_lag, cross = M[q:(p + 1) * q, q:(p + 1) * q], M[:q, q:(p + 1) * q]
    try:
        A_stack = np.linalg.solve(gram_lag.T, cross.T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("singular lagged factor Gram in the VAR update") from exc
    A = [A_stack[:, k * q:(k + 1) * q] for k in range(p)]
    tilde = [np.eye(q)] + [-Ak for Ak in A]
    gamma_u = np.zeros((q, q))
    for j in range(p + 1):
        for l in range(p + 1):
            gamma_u += tilde[j] @ M[q * j:q * (j + 1), q * l:q * (l + 1)] @ tilde[l].T
    gamma_u = 0.5 * (gamma_u + gamma_u.T) / spec.T
    return A, gamma_u


def m_step_variances(
    stats: SufficientStats,
    spec: ModelSpec,
    coef: np.ndarray,
    params_prev: Params,
    options: EMOptions,
):
    """Random-walk innovation variances and measurement variances.

    The measurement variance of each series is the expected squared
    measurement residual with the new coefficients; series with extra
    states include the w terms and update the phi device unless a fixed
    policy is set.  Everything is floored to keep the filter defined.
    """
    lay = spec.layout
    n = spec.n
    # sum_t E[(s_t - s_{t-1})^2] / T of each state; the random-walk states read theirs
    rw = np.maximum((np.diag(stats.SA) + np.diag(stats.SC) - 2.0 * np.diag(stats.SB)) / spec.T, VARIANCE_FLOOR)

    ge = np.array(params_prev.gamma_e_diag)
    ge[list(lay.xi_series)] = rw[lay.xi_slice]

    sum_zx = stats.cross_aug + stats.sum_zw
    quad = np.einsum("nr,nrs,ns->n", coef, stats.gram_aug, coef)
    resid = (
        stats.sum_xx + quad + stats.sum_ww
        - 2.0 * np.einsum("nr,nr->n", coef, sum_zx)
        - 2.0 * stats.sum_xw
        + 2.0 * np.einsum("nr,nr->n", coef, stats.sum_zw)
    )
    denom = np.maximum(stats.n_obs, 1)
    sig2 = np.maximum(resid / denom, VARIANCE_FLOOR)

    im = indicator(n, spec.idio_im)
    ge[~im] = sig2[~im]

    s2nu = np.where(im, sig2 if isinstance(options.phi_policy, str) else float(options.phi_policy), 0.0)

    s2w = np.zeros(n)
    s2w[list(lay.alpha_series)] = rw[lay.alpha_slice]
    s2e = np.zeros(n)
    s2e[list(lay.beta_series)] = rw[lay.beta_slice]
    return ge, s2w, s2e, s2nu


def _m_step(stats: SufficientStats, spec: ModelSpec, params_prev: Params, options: EMOptions) -> Params:
    q, s, r0 = spec.q, spec.s, stats.r0
    alpha_free, beta_free = (indicator(spec.n, idx) for idx in (spec.free_intercepts, spec.free_slopes))
    prev_coef = np.column_stack([*params_prev.loadings, params_prev.alpha0, params_prev.beta0])
    coef = _solve_measurement(stats, alpha_free, beta_free, prev_coef)
    A, gamma_u = m_step_var(stats, spec)
    ge, s2w, s2e, s2nu = m_step_variances(stats, spec, coef, params_prev, options)
    return Params(
        loadings=[coef[:, k * q:(k + 1) * q] for k in range(s + 1)],
        var_coeffs=A,
        gamma_u=floor_gamma_u(gamma_u),
        gamma_e_diag=ge,
        sigma2_omega=s2w,
        sigma2_eta=s2e,
        sigma2_nu=s2nu,
        alpha0=coef[:, r0],
        beta0=coef[:, r0 + 1],
    )


def _relative_change(curr: float, prev: float) -> float:
    denom = 0.5 * (abs(curr) + abs(prev))
    return abs(curr - prev) / denom if denom > 0 else 0.0


def fit(spec: ModelSpec, panel: Panel, options: EMOptions = EMOptions()) -> EMResult:
    """Estimate the model by EM and return the common component.

    Runs the pre-estimation, alternates E- and M-steps until the relative
    log-likelihood change drops below the tolerance, then refreshes the
    smoothed states with the final parameters.  Non-convergence returns
    the last iterate, not the best one seen, with ``converged=False``.

    The initial variances, floors and diffuse ``KAPPA`` are absolute, so
    they suit data of one scale.  ``fit`` divides each series i by a
    divisor c_i read from the standard deviations of the series' observed
    first differences, fits that panel (its missing cells hold 0.0, as every
    ``Panel``'s do), and maps chi, the parameters and
    the xi, alpha and beta paths of ``smoothed_means`` back (the factor
    paths need no map: the loadings carry the scale); ``loglik_path`` is
    shifted by the Jacobian -sum_i N_obs,i log c_i, so it is the data's
    log-likelihood.  Under ``options.standardize`` c_i is series i's own
    standard deviation.  Otherwise every c_i is 2^k: k = 0 while the median
    standard deviation lies in [2^-4, 2^4), and k = floor(log2 median)
    outside, so the divided median lies in [1, 2).  Every fit takes this one
    path; inside the band every c_i is 1, and x 1, / 1 and log 1 = 0 are
    exact.  Division by a power of two is exact too, so panels x and 2^j x
    both outside the band give fits equal up to that factor, bit for bit.
    The target is [1, 2) because the stopping rule is relative to the size
    of the log-likelihood, which moves with the scale: on the simulated
    panel ``MCConfig(n=40, T=60, n1=5, seed=3)`` scaled by 1e-3 to 1e6 it
    stops EM in 5-6 iterations, as at the panel's own scale, where [1/2, 1)
    took up to 27.

    With the tiny phi device on series that carry extra states, the
    smoothed extra states are almost exactly x - lambda'f, so the M-step's
    regression returns nearly the old loadings: EM leaves the loadings of
    those series near their pre-estimated start.
    """
    scale = _series_scale(panel, options.standardize)
    panel = Panel(panel.data / scale[:, None], panel.missing_mask)

    pre = pre_estimate(spec, panel)
    params = pre.params
    init_mean = pre.init_state_mean
    init_cov = pre.init_state_cov
    logliks: list[float] = []
    converged = False

    for iterations in range(1, options.max_iter + 1):
        stats, smooth, loglik = e_step(spec, params, panel, init_mean, init_cov)
        logliks.append(loglik)
        params = _m_step(stats, spec, params, options)
        init_mean = smooth.smoothed_means[0]
        init_cov = smooth.cov_bank[smooth.cov_index[0]]
        if iterations >= 2 and _relative_change(logliks[-1], logliks[-2]) < options.tolerance:
            converged = True
            break

    # the final pass refreshes the states; no M-step follows, so no moments are reduced
    filt, smooth = _filter_and_smooth(spec, params, panel, init_mean, init_cov)
    logliks.append(filt.loglik)

    lay = spec.layout
    chi = common_component_path(params.loadings, smooth.smoothed_means[1:], lay) * scale[:, None]
    smooth.smoothed_means[:, lay.n_factor_states:] *= scale[list(lay.extra_series)]
    # the density of x_i = c_i y_i is 1/c_i per observed cell times that of y_i
    shift = float(panel.missing_mask.sum(axis=1) @ np.log(scale))
    return EMResult(
        params=_rescale_params(params, scale),
        chi=chi,
        smoothed_means=smooth.smoothed_means,
        loglik_path=[ll - shift for ll in logliks],
        iterations=iterations,
        converged=converged,
    )


def _series_scale(panel: Panel, standardize: bool) -> np.ndarray:
    """The per-series divisor ``fit`` applies to the panel before it fits.

    Both choices read each series' standard deviation of its first
    differences between observed neighbours.  Under ``standardize`` the
    divisor is that value, or 1 where it is 0 (a constant series, or no
    such pair).  Otherwise every series gets one power of two, 2^k: k = 0
    when the median of those values over the series that have a pair lies
    in [2^-4, 2^4) or is 0, and else floor(log2 median), read exactly from
    its ``frexp`` exponent, so that the divided panel has that median in [1, 2).
    """
    mask = panel.missing_mask
    ok = mask[:, 1:] & mask[:, :-1]
    pairs = ok.sum(axis=1)
    dx = np.where(ok, np.diff(panel.data, axis=1), 0.0)
    mean = dx.sum(axis=1) / np.maximum(pairs, 1)
    sd = np.sqrt((np.where(ok, dx - mean[:, None], 0.0) ** 2).sum(axis=1) / np.maximum(pairs, 1))
    if standardize:
        return np.where(sd > 0, sd, 1.0)
    median = float(np.median(sd[pairs > 0])) if pairs.any() else 0.0
    k = 0 if 2.0 ** -4 <= median < 2.0 ** 4 or median == 0.0 else int(np.frexp(median)[1]) - 1
    return np.full(panel.n, np.ldexp(1.0, k))


def _rescale_params(params: Params, scale: np.ndarray) -> Params:
    """Map parameters of the divided panel back to the raw scale."""
    return replace(
        params,
        loadings=[B * scale[:, None] for B in params.loadings],
        gamma_e_diag=params.gamma_e_diag * scale ** 2,
        sigma2_omega=params.sigma2_omega * scale ** 2,
        sigma2_eta=params.sigma2_eta * scale ** 2,
        sigma2_nu=params.sigma2_nu * scale ** 2,
        alpha0=params.alpha0 * scale,
        beta0=params.beta0 * scale,
    )
