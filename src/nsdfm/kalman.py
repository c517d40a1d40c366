"""Kalman filter and fixed-interval smoother for the compact state space.

Handles missing observations by row selection, accumulates the Gaussian
log-likelihood over observed rows only, and returns the lag-one smoothed
covariances needed by the EM sufficient statistics.

The measurement update is in information form: the gain comes from the
Cholesky factor of P_{t|t-1}^{-1} + Z'R^{-1}Z, which costs O(n K^2) per
step with the diagonal measurement covariance.  The innovation's
quadratic form is a sum of two squares, e'R^{-1}e + m'P_{t|t-1}^{-1}m with
m the gain times the innovation and e = x - Z a_{t|t}, so no term cancels
however small a measurement variance is.  With Z fixed, the filtered
covariance is (P_{t|t-1}^{-1} + Z'R^{-1}Z)^{-1} = cMi'cMi, the matrix the
gain is formed from, re-symmetrized: positive semidefinite by construction,
like the Joseph form, and free of its four products per step.  A local-trend
slope makes Z change with t, and there the filtered covariance stays in
Joseph form, so that those fits keep their numbers: on such systems EM
carries a one-ulp change of P_{t|t} into chi by more than 1e-12.

The per-slot loops carry the recursion and little else.  The filter's
loop updates the mean and keeps w_t = cPi m_t, with cPi the inverse
Cholesky factor of P_{t|t-1}, so that m'P^{-1}m = w'w; that is one
matrix-vector product, where keeping every cPi for after the pass would
cost a (T+1) x K x K buffer.  The other log-likelihood terms, which the
recursion never reads, are evaluated for all slots at once after the
pass: e_t in one product over the observed cells, and log det S_t from
the Cholesky diagonals kept once per distinct step.  The smoother solves every distinct gain J_t in one stacked solve
before its backward pass and forms the lag-one covariances in one stacked
product after it.

The covariance step does not depend on the data.  With a fixed measurement
map the filter builds one measurement block per pattern of observed rows
and reuses any earlier step with the same pattern and bitwise the same
P_{t-1|t-1}, so a recursion that settles into a fixed point or a cycle of
any period computes each step of it once.  The smoother solves its gain
once per distinct step, forms P_{t|T} and the lag-one covariance once per
distinct (step, P_{t+1|T}) pair, and lets a P_{t|T} bitwise equal to any
earlier one share its entry, so every result is bit-identical to the full
recursion.  Each pass therefore keeps its covariances in a bank of
distinct matrices with a per-slot index into it; the per-slot
(T+1, K, K) arrays are built from the bank only when read.  The banks
are sized to the entries computed, not to T + 1, so a settled recursion
at T = 200, K = 54 keeps a few dozen entries, not 201.  The filter's bank
starts small, doubles when full and is trimmed to its entries at the end;
where no step can repeat it holds exactly T + 1 entries from the start and
is never copied.  The smoother keeps its P_{t|T} in a list, in the order it
forms them, and stacks the list reversed once at the end; its lag bank is
allocated once, after the pass, at its exact size.

A local-trend slope loads the time label, so Z_t changes every period and
no step repeats.  The filter then keeps one copy of the measurement base
per call and, at each step, overwrites only its nonzero slope entries with
base entry times t; each step's measurement block takes the observed rows
of that Z_t.  Every step writes its covariances straight into its bank
entry, and the bank, like the smoother's two banks that follow it, has one
entry per slot.

A computed step factorizes twice and inverts twice.  It calls the gufuncs
that ``np.linalg.cholesky`` and ``np.linalg.inv`` run,
``numpy.linalg._umath_linalg.cholesky_lo`` and ``inv`` on doubles,
directly: the same LAPACK calls and so the same bits, without the wrapper's
argument checks, which cost 3-5 us a call against a 3 us factorization at
K = 24.  The module is private to numpy but has kept these names since
numpy 1.24; a numpy without it fails at import.  The error state is the
one numpy's wrappers set: a failed factorization flags "invalid", whose
handler raises ``LinAlgError``, which the step re-raises naming t, so no
step returns NaN with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .model import Panel, StateSpace

__all__ = [
    "FilterOutput",
    "SmootherOutput",
    "kf_filter",
    "ks_smooth",
    "steady_state_diagnostics",
    "steady_state_onset",
]

# Entries a filter bank starts with when steps can repeat; it doubles when full.
_BANK_START = 16

_LOG_2PI = float(np.log(2.0 * np.pi))


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


# the error state np.linalg.cholesky sets around the same gufunc
_FACTOR_ERRSTATE = dict(call=_not_positive_definite, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


@dataclass
class FilterOutput:
    """Filter pass results; per-slot arrays are indexed 0..T with slot 0 = initial state.

    ``predicted_means[t]`` is a_{t|t-1} and ``filtered_means[t]`` a_{t|t}
    for t >= 1; slot 0 of both holds the initial mean.  ``loglik_terms[t]``
    is the prediction-error log-density of the rows observed at t (zero at
    slot 0 and at fully missing time points).  The filter evaluates these
    terms for all slots after its pass, so their sums are ordered unlike a
    per-step evaluation's; nothing the recursion produces depends on them.

    The covariances are banked: ``cov_bank[j]`` is the pair
    (P_{t|t-1}, P_{t|t}) of the j-th covariance step computed, entry 0
    holding the initial covariance twice, and ``step_index[t]`` is the entry
    of slot t.  A slot reuses an earlier step, any earlier one with the same
    observed rows and bitwise the same P_{t-1|t-1}, exactly when its entry is
    not new; with no reuse the bank has one entry per slot and
    ``step_index`` is 0..T.  ``predicted_covs`` and ``filtered_covs`` build
    the per-slot (T+1, K, K) arrays from the bank when read.
    """

    predicted_means: np.ndarray      # (T+1, K)
    filtered_means: np.ndarray       # (T+1, K)
    loglik_terms: np.ndarray         # (T+1,)
    step_index: np.ndarray           # (T+1,) int, entry of cov_bank per slot
    cov_bank: np.ndarray             # (steps, 2, K, K)

    @property
    def T(self) -> int:
        return self.predicted_means.shape[0] - 1

    @property
    def loglik(self) -> float:
        return float(self.loglik_terms[1:].sum())

    @property
    def predicted_covs(self) -> np.ndarray:
        return self.cov_bank[self.step_index, 0]

    @property
    def filtered_covs(self) -> np.ndarray:
        return self.cov_bank[self.step_index, 1]


@dataclass
class SmootherOutput:
    """Fixed-interval smoother results, indexed like :class:`FilterOutput`.

    ``cov_bank`` holds the distinct smoothed covariances, ``cov_index[t]``
    the entry of P_{t|T}; ``lag_bank`` and ``lag_index`` do the same for
    Cov(s_t, s_{t-1} | all data), t >= 1, whose slot 0 is the zero matrix
    in entry 0.  A bank with one entry per slot is in slot order, its index
    0..T.
    ``smoothed_covs`` builds the per-slot (T+1, K, K) array from the bank
    when read.
    """

    smoothed_means: np.ndarray       # (T+1, K)
    cov_bank: np.ndarray             # (distinct, K, K)
    cov_index: np.ndarray            # (T+1,) int
    lag_bank: np.ndarray             # (distinct, K, K)
    lag_index: np.ndarray            # (T+1,) int

    @property
    def smoothed_covs(self) -> np.ndarray:
        return self.cov_bank[self.cov_index]


def _symmetrize(P: np.ndarray) -> np.ndarray:
    """(P + P')/2, formed in place.

    P' is copied first: adding the overlapping view in place makes numpy
    buffer it, which costs more than the copy and gives the same bytes.
    """
    P += P.T.copy()
    P *= 0.5
    return P


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]``, as a view when idx is a run of consecutive entries, as it is when no step repeats."""
    if idx.size and np.all(np.diff(idx) == 1):
        return a[idx[0]:idx[0] + idx.size]
    return a[idx]


def _measurement_block(ss: StateSpace, obs: np.ndarray, Z_t: np.ndarray) -> tuple | None:
    """What a filter step needs of the measurement equation on the rows ``obs`` of the n x K map Z_t.

    Returns (Z, r_diag, Z'R^{-1}, Z'R^{-1}Z) on the rows ``obs``, or None
    when no row is observed.  The rows of Z_t are gathered with ``take``,
    which copies the same bytes as fancy indexing at about half its cost.
    """
    if obs.size == 0:
        return None
    Z = Z_t.take(obs, axis=0)
    r_diag = ss.measurement_cov_diag[obs]
    Zr = Z.T / r_diag                            # K x n_obs
    return Z, r_diag, Zr, Zr @ Z


def _filter_step(ss: StateSpace, P_prev: np.ndarray, block: tuple | None, t: int, out: np.ndarray) -> tuple:
    """The data-free part of filter step t (1-based slot), from P_{t-1|t-1} and the measurement block.

    ``block`` is :func:`_measurement_block` of the rows observed at t, and
    ``out`` the (2, K, K) bank entry of the step: P_{t|t-1} is formed in
    ``out[0]`` and P_{t|t} in ``out[1]``, with the bytes of the out-of-place
    products.  Returns what the caller does not already hold in ``out``:
    (gain, cPi, diag cP, diag cM).  cPi is the inverse of the Cholesky
    factor cP of P_{t|t-1}, which the innovation's quadratic form needs, and
    cM the Cholesky factor of P_{t|t-1}^{-1} + Z'R^{-1}Z; the two diagonals
    give log det S.  The gain is cMi'cMi Z'R^{-1} with cMi the inverse of cM.
    P_{t|t} is sym(cMi'cMi) when Z does not change with t, and the Joseph
    form of P_{t|t-1} and the gain when it does.  With no row observed,
    P_{t|t} = P_{t|t-1}, the gain and cPi are None and the diagonals ones.
    """
    P, P_filt = out
    np.matmul(ss.transition_map @ P_prev, ss.transition_map.T, out=P)
    P += ss.state_innovation_cov
    _symmetrize(P)
    if block is None:
        P_filt[...] = P
        return None, None, 1.0, 1.0
    Z, r_diag, Zr, ZrZ = block
    try:
        with np.errstate(**_FACTOR_ERRSTATE):
            cP = _umath_linalg.cholesky_lo(P, signature="d->d")
            cPi = _umath_linalg.inv(cP, signature="d->d")
            M = cPi.T @ cPi                      # P^{-1}, then P^{-1} + Z' R^{-1} Z
            M += ZrZ
            cM = _umath_linalg.cholesky_lo(_symmetrize(M), signature="d->d")
            cMi = _umath_linalg.inv(cM, signature="d->d")
        # (P^{-1} + Z' R^{-1} Z)^{-1}, which is P_{t|t}; the Joseph form overwrites it where Z varies
        gain = np.matmul(cMi.T, cMi, out=P_filt) @ Zr
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"P_{{t|t-1}} or P_{{t|t-1}}^-1 + Z'R^-1 Z not positive definite at t={t}; check the variances"
        ) from exc
    if ss.time_varying:
        IKZ = gain @ Z
        np.negative(IKZ, out=IKZ)
        IKZ.ravel()[::P.shape[0] + 1] += 1.0     # I - gain Z without a K x K identity per step
        np.matmul(IKZ @ P, IKZ.T, out=P_filt)
        P_filt += (gain * r_diag) @ gain.T
    _symmetrize(P_filt)
    return gain, cPi, cP.diagonal(), cM.diagonal()


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
    x_rows = np.ascontiguousarray(x.T)           # slot t reads row t-1

    a_pred = np.zeros((T + 1, K))
    a_filt = np.zeros((T + 1, K))
    w = np.zeros((T + 1, K))                     # w_t = cPi m_t, m_t = gain v_t; zero where nothing is observed
    step_index = [0] * (T + 1)

    # a step can repeat only while Z does not change with t
    reuse = not ss.time_varying
    mask_rows = np.ascontiguousarray(mask.T)     # slot t's observed rows are row t-1

    a_pred[0] = a_filt[0] = init_mean
    # an entry per step computed: T + 1 of them when no step can repeat, else a few that double
    # when full; trimmed to the steps computed at the end
    bank = np.empty((min(T + 1, _BANK_START) if reuse else T + 1, 2, K, K))
    bank[0] = _symmetrize(init_cov.copy())
    size = 1
    # per bank entry, for the log-likelihood only: the diagonals of cP and cM (ones for a step
    # that observes nothing, so its slots add nothing); it grows with the bank
    chol_diag = np.ones((len(bank), 2, K))
    if reuse:
        # the bytes of a mask column -> its observed rows and their measurement block, built the
        # first time the pattern appears
        patterns: dict[bytes, tuple] = {}
        # a step's input is its pattern and the class of P_{t-1|t-1}: the
        # first bank entry whose P_{t|t} has the same bytes
        classes = {bank[0, 1].tobytes(): 0}
        entry_class = [0]
        computed: dict[tuple[bytes, int], tuple] = {}  # (pattern, class) -> (entry, gain, cPi)
    else:
        # Z_t is measurement_base with each nonzero slope entry times the time label t:
        # one copy per call, whose slope entries each step overwrites
        Z_t = ss.measurement_base.copy()
        beta = ss.layout.beta_slice
        slope_rows, slope_cols = np.nonzero(Z_t[:, beta])
        slope_at = slope_rows * K + beta.start + slope_cols   # flat positions in Z_t
        slope_base = Z_t.ravel()[slope_at]

    k = 0  # bank entry of slot t-1
    for t in range(1, T + 1):
        if reuse:
            col = mask_rows[t - 1].tobytes()
            seen = patterns.get(col)
            if seen is None:
                obs = mask_rows[t - 1].nonzero()[0]
                seen = patterns[col] = obs, _measurement_block(ss, obs, ss.measurement_base)
            obs, block = seen
            key = (col, entry_class[k])
            hit = computed.get(key)
        else:
            Z_t.ravel()[slope_at] = slope_base * float(t)
            obs = mask_rows[t - 1].nonzero()[0]
            block = _measurement_block(ss, obs, Z_t)
            hit = None
        if hit is not None:
            k, gain, cPi = hit
        else:
            if size == len(bank):
                bank, chol_diag = _grown(bank, T + 1), _grown(chol_diag, T + 1)
            gain, cPi, chol_diag[size, 0], chol_diag[size, 1] = _filter_step(ss, bank[k, 1], block, t, bank[size])
            k, size = size, size + 1
            if reuse:
                computed[key] = (k, gain, cPi)
                entry_class.append(classes.setdefault(bank[k, 1].tobytes(), k))
        step_index[t] = k

        a = np.matmul(Theta, a_filt[t - 1], out=a_pred[t])
        if obs.size == 0:
            a_filt[t] = a
            continue
        m = gain @ (x_rows[t - 1][obs] - block[0] @ a)
        np.add(a, m, out=a_filt[t])
        np.matmul(cPi, m, out=w[t])

    step_index = np.array(step_index, dtype=np.intp)
    ll = np.zeros(T + 1)
    ll[1:] = _loglik_terms(ss, x, mask, a_filt[1:], w[1:], step_index[1:], chol_diag[:size])
    if not np.all(np.isfinite(ll)):
        raise FloatingPointError("non-finite log-likelihood term; filter diverged")
    return FilterOutput(a_pred, a_filt, ll, step_index, _trim(bank, size))


def _loglik_terms(ss: StateSpace, x: np.ndarray, mask: np.ndarray, a_filt: np.ndarray, w: np.ndarray,
                  index: np.ndarray, chol_diag: np.ndarray) -> np.ndarray:
    """Prediction-error log-densities of slots 1..T, from a filter pass's per-slot a_{t|t} and w_t.

    -2 log p(x_t) = n_t log 2 pi + log det S_t + e'R^{-1}e + w_t'w_t with
    e = x_t - Z_t a_{t|t} on the rows observed at t, w_t = cPi m_t and
    log det S_t = log det R + 2 log det cP + 2 log det cM.  ``index`` is
    each slot's bank entry, and ``chol_diag`` holds the diagonals of cP and
    cM per entry.
    """
    T, K = a_filt.shape
    A = a_filt.T.copy()
    A[ss.layout.beta_slice] *= np.arange(1.0, T + 1)   # Z_t scales the slope columns by the time label
    e = np.where(mask, x - ss.measurement_base @ A, 0.0)
    seen = mask.any(axis=1)                           # a never observed series adds nothing, whatever its R
    r = ss.measurement_cov_diag
    r_inv = np.divide(1.0, r, out=np.zeros_like(r), where=seen)
    log_r = np.log(r, out=np.zeros_like(r), where=seen)
    logdet_PM = 2.0 * np.log(chol_diag).sum(axis=(1, 2))
    quad = r_inv @ (e * e) + np.einsum("ti,ti->t", w, w)
    return -0.5 * (mask.sum(axis=0) * _LOG_2PI + log_r @ mask + logdet_PM[index] + quad)


def _grown(buffer: np.ndarray, limit: int) -> np.ndarray:
    """A bank buffer with twice the entries of ``buffer``, at most ``limit``, holding its entries first."""
    grown = np.empty((min(2 * len(buffer), limit), *buffer.shape[1:]))
    grown[:len(buffer)] = buffer
    return grown


def _trim(buffer: np.ndarray, stop: int) -> np.ndarray:
    """The first ``stop`` entries of a bank buffer; a copy, so the buffer is freed, unless that is all of it."""
    return buffer if stop == len(buffer) else buffer[:stop].copy()


def ks_smooth(filt: FilterOutput, ss: StateSpace) -> SmootherOutput:
    """Fixed-interval (RTS) smoother with lag-one covariances.

    The smoothed cross-covariance uses Cov(s_t, s_{t-1} | data) =
    P_{t|T} J_{t-1}', with J the usual smoother gain; slot 0 of the output
    carries the smoothed initial state, which re-seeds the filter across EM
    iterations.  J_t depends on P_{t|t} alone, so the gain of every distinct
    step is solved once, all of them in one stacked solve before the
    backward pass.  The pass forms P_{t|T} once per (step, P_{t+1|T} entry)
    and the lag-one covariances of the pairs it formed follow in one
    stacked product after it.  Once the filter has repeated a step, a
    P_{t|T} bitwise equal to any earlier entry shares it, so a smoother that
    has settled, to a fixed point or a cycle of any period like the
    filter's, stops forming anything.  Stacked and per-matrix solves and
    products give the same bits, so the result is bit-identical to a
    per-slot recursion.  The P_{t|T} are kept in a list in the order formed,
    P_{T|T} first, and stacked in reverse when the pass ends, so a bank with
    one entry per slot comes out in slot order; the lag bank is allocated
    then, at its exact size.
    """
    Theta = ss.transition_map
    T = filt.T
    K = Theta.shape[0]
    bank = filt.cov_bank
    s_mean = np.zeros((T + 1, K))

    # J_t' = P_{t+1|t}^{-1} Theta P_{t|t}, a solve on the symmetric P_{t+1|t}, once per distinct step;
    # gain_row[t] is slot t's row of J_T
    steps = filt.step_index
    distinct, first, gain_row = np.unique(steps[:T], return_index=True, return_inverse=True)
    J_T = np.linalg.solve(_rows(bank[:, 0], steps[first + 1]), Theta @ _rows(bank[:, 1], distinct))
    steps, gain_row = steps.tolist(), gain_row.tolist()

    # both banks number their entries in the order formed, P_{T|T} first, and are reversed at the
    # end, so a bank with one entry per slot comes out in slot order
    covs = [bank[steps[T], 1]]
    formed: dict[tuple[int, int], tuple[int, int]] = {}  # (gain row, entry of P_{t+1|T}) -> entries of slot t
    pairs: list[tuple[int, int]] = []  # (gain row, entry of P_{t+1|T}) of each lag-one covariance formed
    # once a step repeats, smoothed covariances can repeat too: bytes of a banked P_{t|T} -> its entry
    seen = {covs[0].tobytes(): 0} if len(bank) <= T else None
    cov_index = [0] * (T + 1)
    lag_index = [0] * (T + 1)
    a_filt, a_pred = filt.filtered_means, filt.predicted_means
    s_mean[T] = a_filt[T]
    for t in range(T - 1, -1, -1):
        g = gain_row[t]
        J = J_T[g].T
        np.add(a_filt[t], J @ (s_mean[t + 1] - a_pred[t + 1]), out=s_mean[t])
        key = (g, cov_index[t + 1])
        entries = formed.get(key)
        if entries is None:
            P = J @ (covs[key[1]] - bank[steps[t + 1], 0]) @ J.T
            P += bank[steps[t], 1]
            _symmetrize(P)
            pairs.append(key)
            # a new entry unless an earlier one has its bytes
            entry = len(covs) if seen is None else seen.setdefault(P.tobytes(), len(covs))
            if entry == len(covs):
                covs.append(P)
            entries = formed[key] = (entry, len(pairs) - 1)
        cov_index[t], lag_index[t + 1] = entries
    n_covs = len(covs)
    covs = np.array(covs[::-1])                 # frees the list before the lag bank is allocated
    # lag entry 0 is slot 0's zero, numbered after every pair, and pair i is P_{t+1|T} J_t' in entry
    # len(pairs) - i
    lag_index[0] = len(pairs)
    lags = np.empty((len(pairs) + 1, K, K))
    lags[0] = 0.0
    if pairs:
        g_rows, c_rows = np.array(pairs[::-1]).T
        np.matmul(_rows(covs, n_covs - 1 - c_rows), _rows(J_T, g_rows), out=lags[1:])
    return SmootherOutput(s_mean, covs, n_covs - 1 - np.array(cov_index), lags, len(pairs) - np.array(lag_index))


def steady_state_onset(trace: np.ndarray, tol: float) -> int | None:
    """First t (1-based) after which ``trace`` changes by less than ``tol``; None if never."""
    settled = np.nonzero(np.abs(np.diff(trace)) < tol)[0]
    return int(settled[0] + 1) if settled.size else None


def steady_state_diagnostics(
    ss: StateSpace,
    P0: np.ndarray,
    horizon: int,
    T_total: int,
) -> dict:
    """Per-t traces of the filter/smoother MSE matrices of one system.

    ``P0`` is the initial state covariance.  The covariances do not depend
    on the data, so the filter and smoother run on an all-observed panel of
    zeros.  The result holds tr(P_{t|t-1})/q, tr(P_{t|t})/q and
    tr(P_{t|T})/q over the factor companion block for t = 1..horizon,
    tr(P_{0|0})/q, and n-scaled variants at t = horizon computed on the
    current-factor block (whose MSE decays at rate n).  The filter runs
    over max(``T_total``, ``horizon``) periods and the smoother back from
    the last, so the smoothed traces condition on the full sample length.
    """
    T_full = max(T_total, horizon)
    n = ss.measurement_base.shape[0]
    q = ss.layout.q
    fb = slice(0, ss.layout.n_factor_states)
    filt = kf_filter(ss, Panel.from_data(np.zeros((n, T_full))), np.zeros(ss.K), P0)
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
    }
