"""Domain types and state-space assembly for the non-stationary DFM.

The observation model for series i at time t is

    x[i,t] = alpha[i,t] + beta[i,t] * t + sum_k b_ik' f[t-k] + xi[i,t]

with a VAR(p) factor process, random-walk idiosyncratic components for a
subset of series, and local level / local linear trend states for further
subsets.  ``build_state_space`` packs the model into a compact linear
state-space form whose state vector, laid out by ``ModelSpec.layout``
alone, is

    [ factor companion block | xi_i, i in idio_i1 | alpha_i, i in local_level
      | beta_i, i in local_trend ]

Series whose idiosyncratic dynamics live in the state carry a small
artificial measurement-error variance (``sigma2_nu``) so the filter stays
well defined; all other series keep their idiosyncratic variance in the
measurement equation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ModelSpec",
    "Params",
    "Panel",
    "StateSpace",
    "StateLayout",
    "build_state_space",
    "companion",
    "common_component_path",
    "indicator",
]


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    """Return a locked C-ordered copy so instances are safe to share across workers."""
    out = np.array(a, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def indicator(n: int, idx) -> np.ndarray:
    """Boolean array of length n, True exactly at the positions in ``idx``."""
    out = np.zeros(n, dtype=bool)
    out[list(idx)] = True
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and index sets of a model instance.

    Index sets use zero-based series positions.  ``idio_i1`` marks series
    with a random-walk idiosyncratic component, ``local_level`` series with
    a time-varying intercept, ``local_trend`` series with a time-varying
    trend slope, and ``detrend`` series with a deterministic intercept and
    linear trend in the measurement equation; None stands for
    ``local_level | local_trend`` (see :attr:`detrend_set`), whose states
    then absorb only the stochastic part.  Of a detrended series' intercept
    and slope, the one its local level or local trend state carries is not
    a parameter: :attr:`free_intercepts` and :attr:`free_slopes` are the
    series whose intercept and slope EM estimates.  A series may not be both
    ``idio_i1`` and ``local_level``: two random walks on one series are not
    identified.
    """

    n: int
    T: int
    q: int
    s: int = 0
    p: int = 1
    idio_i1: frozenset[int] = frozenset()
    local_level: frozenset[int] = frozenset()
    local_trend: frozenset[int] = frozenset()
    detrend: frozenset[int] | None = None

    def __post_init__(self):
        if self.n <= 0 or self.T <= 0:
            raise ValueError("n and T must be positive")
        if not 0 < self.q < self.n:
            raise ValueError(f"q must satisfy 0 < q < n, got q={self.q}, n={self.n}")
        if self.s < 0:
            raise ValueError("loading lag order s must be >= 0")
        if self.p < 1:
            raise ValueError("VAR order p must be >= 1")
        for name in ("idio_i1", "local_level", "local_trend", "detrend"):  # detrend alone may be None
            if getattr(self, name) is not None:
                idx = frozenset(getattr(self, name))
                object.__setattr__(self, name, idx)
                if any(i < 0 or i >= self.n for i in idx):
                    raise ValueError(f"{name} contains indices outside 0..{self.n - 1}")
        if self.idio_i1 & self.local_level:
            raise ValueError(f"series {sorted(self.idio_i1 & self.local_level)} are in both idio_i1 and local_level")

    @property
    def detrend_set(self) -> frozenset[int]:
        """The series with a deterministic intercept and slope: ``detrend``, or local_level | local_trend if None."""
        return self.local_level | self.local_trend if self.detrend is None else self.detrend

    @property
    def free_intercepts(self) -> frozenset[int]:
        """The series whose deterministic intercept is a parameter: the detrend set less the local levels."""
        return self.detrend_set - self.local_level

    @property
    def free_slopes(self) -> frozenset[int]:
        """The series whose deterministic slope is a parameter: the detrend set less the local trends."""
        return self.detrend_set - self.local_trend

    @property
    def idio_im(self) -> frozenset[int]:
        """Series with any extra latent state (measurement error is phi-tiny)."""
        return self.idio_i1 | self.local_level | self.local_trend

    @property
    def layout(self) -> StateLayout:
        """The state vector's layout; the factor companion has max(s+1, p) lags."""
        return StateLayout(
            q=self.q,
            n_lags=max(self.s + 1, self.p),
            xi_series=tuple(sorted(self.idio_i1)),
            alpha_series=tuple(sorted(self.local_level)),
            beta_series=tuple(sorted(self.local_trend)),
        )


# the Params fields that hold a list of matrices; every other field is one array
_MATRIX_LISTS = ("loadings", "var_coeffs")


@dataclass
class Params:
    """Full parameter set for a :class:`ModelSpec`.

    ``loadings`` holds s+1 arrays of shape (n, q); ``var_coeffs`` holds p
    arrays of shape (q, q).  Per-series variance vectors follow the spec's
    structural zeros: ``sigma2_omega`` is zero off ``local_level``,
    ``sigma2_eta`` zero off ``local_trend`` and ``sigma2_nu`` zero off the
    union of the three index sets.  The unit root of an ``idio_i1``
    component is known, not a parameter: ``build_state_space`` makes it a
    random-walk state.  ``gamma_e_diag`` is the innovation variance of an
    ``idio_i1`` series' xi state and the measurement variance of a series
    with no extra state; on a ``local_level`` or ``local_trend`` series
    outside ``idio_i1`` the model never reads it.
    """

    loadings: list[np.ndarray]
    var_coeffs: list[np.ndarray]
    gamma_u: np.ndarray
    gamma_e_diag: np.ndarray
    sigma2_omega: np.ndarray
    sigma2_eta: np.ndarray
    sigma2_nu: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(self, f.name, [_frozen(a) for a in value] if f.name in _MATRIX_LISTS else _frozen(value))

    def validate(self, spec: ModelSpec) -> None:
        n, q = spec.n, spec.q
        if len(self.loadings) != spec.s + 1:
            raise ValueError(f"expected {spec.s + 1} loading matrices, got {len(self.loadings)}")
        for k, B in enumerate(self.loadings):
            if B.shape != (n, q):
                raise ValueError(f"loadings[{k}] has shape {B.shape}, expected {(n, q)}")
        if len(self.var_coeffs) != spec.p:
            raise ValueError(f"expected {spec.p} VAR coefficient matrices, got {len(self.var_coeffs)}")
        for k, A in enumerate(self.var_coeffs):
            if A.shape != (q, q):
                raise ValueError(f"var_coeffs[{k}] has shape {A.shape}, expected {(q, q)}")
        if self.gamma_u.shape != (q, q):
            raise ValueError("gamma_u has wrong shape")
        if not np.allclose(self.gamma_u, self.gamma_u.T):
            raise ValueError("gamma_u must be symmetric")
        if np.linalg.eigvalsh(self.gamma_u)[0] <= 0:
            raise ValueError("gamma_u must be positive definite")
        for name in ("gamma_e_diag", "sigma2_omega", "sigma2_eta", "sigma2_nu", "alpha0", "beta0"):
            v = getattr(self, name)
            if v.shape != (n,):
                raise ValueError(f"{name} has shape {v.shape}, expected {(n,)}")
        if np.any(self.gamma_e_diag <= 0):
            raise ValueError("gamma_e_diag entries must be positive")
        for name, idx in (("sigma2_omega", spec.local_level), ("sigma2_eta", spec.local_trend),
                          ("sigma2_nu", spec.idio_im)):
            v = getattr(self, name)
            members = indicator(n, idx)
            if np.any(v[~members] != 0) or np.any(v[members] <= 0):
                raise ValueError(f"{name} must be positive exactly on its index set")


@dataclass(frozen=True)
class Panel:
    """n x T observation matrix plus a boolean mask (True = observed).

    The panel stores its data read-only and C-ordered, with 0.0 in every
    cell the mask marks missing, whatever the caller's array held there
    (NaN, ±inf or any number); :meth:`from_data` builds the mask from an
    array where NaN marks them.  Fully missing time columns are allowed;
    the filter treats them as prediction-only steps.
    """

    data: np.ndarray
    missing_mask: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        mask = np.asarray(self.missing_mask, dtype=bool)
        if mask.shape != data.shape:
            raise ValueError("missing_mask shape must match data")
        if not np.all(np.isfinite(data[mask])):
            raise ValueError("observed cells must be finite")
        object.__setattr__(self, "data", _frozen(np.where(mask, data, 0.0)))
        object.__setattr__(self, "missing_mask", _frozen(mask, dtype=bool))

    @classmethod
    def from_data(cls, data: np.ndarray) -> "Panel":
        """Build a panel from an array where NaN marks the missing cells, which it stores as 0.0.

        ±inf is rejected as an observed cell.
        """
        data = np.asarray(data, dtype=float)
        return cls(data, ~np.isnan(data))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def T(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class StateLayout:
    """Maps state-vector positions to model components."""

    q: int
    n_lags: int            # factor lags held in the companion block
    xi_series: tuple[int, ...]
    alpha_series: tuple[int, ...]
    beta_series: tuple[int, ...]

    @property
    def n_factor_states(self) -> int:
        return self.q * self.n_lags

    @property
    def K(self) -> int:
        return self.n_factor_states + len(self.extra_series)

    def factor_block(self, lag: int) -> slice:
        """Slice of the state holding f_{t-lag}."""
        if not 0 <= lag < self.n_lags:
            raise ValueError(f"lag {lag} outside companion range 0..{self.n_lags - 1}")
        return slice(self.q * lag, self.q * (lag + 1))

    @property
    def extra_series(self) -> tuple[int, ...]:
        """Series of the states after the factor block: state n_factor_states + j belongs to series j of this tuple."""
        return self.xi_series + self.alpha_series + self.beta_series

    @property
    def xi_slice(self) -> slice:
        return slice(self.n_factor_states, self.n_factor_states + len(self.xi_series))

    @property
    def alpha_slice(self) -> slice:
        a0 = self.n_factor_states + len(self.xi_series)
        return slice(a0, a0 + len(self.alpha_series))

    @property
    def beta_slice(self) -> slice:
        b0 = self.n_factor_states + len(self.xi_series) + len(self.alpha_series)
        return slice(b0, b0 + len(self.beta_series))


@dataclass(frozen=True)
class StateSpace:
    """Assembled state-space system.

    ``measurement_base`` holds the time-invariant part of the measurement
    matrix; the loading on a trend-slope state is its base entry times the
    (one-based) time index.  The Kalman filter forms those products
    itself, overwriting the slope entries of one copy of the base per step.
    ``K`` and ``time_varying`` (the measurement matrix changes with t, which
    it does when a trend-slope state exists) are read off the layout.
    """

    layout: StateLayout
    transition_map: np.ndarray        # K x K
    state_innovation_cov: np.ndarray  # K x K
    measurement_base: np.ndarray      # n x K
    measurement_cov_diag: np.ndarray  # n

    @property
    def K(self) -> int:
        return self.layout.K

    @property
    def time_varying(self) -> bool:
        return bool(self.layout.beta_series)


def companion(var_coeffs: list[np.ndarray], n_lags: int) -> np.ndarray:
    """Companion matrix of a VAR over n_lags factor blocks (n_lags >= len(var_coeffs)).

    The first block row holds the coefficients, lags beyond them load zero,
    and the identity below the first block row shifts each lag down by one.
    """
    q = var_coeffs[0].shape[0]
    r = q * n_lags
    comp = np.zeros((r, r))
    for k, A in enumerate(var_coeffs):
        comp[:q, k * q:(k + 1) * q] = A
    comp[q:, :r - q] = np.eye(r - q)
    return comp


def build_state_space(spec: ModelSpec, params: Params) -> StateSpace:
    """Assemble the compact state-space system for (spec, params).

    The state follows ``spec.layout``, whose factor companion block holds
    enough lags for both the measurement and the VAR; slots beyond the
    available coefficients load zeros.  Deterministic given its inputs.
    """
    params.validate(spec)
    q = spec.q
    layout = spec.layout
    K = layout.K
    r = layout.n_factor_states

    Theta = np.eye(K)  # the extra states are random walks
    Theta[:r, :r] = companion(params.var_coeffs, layout.n_lags)

    Q = np.zeros((K, K))
    Q[0:q, 0:q] = params.gamma_u
    Q[r:, r:] = np.diag(np.concatenate([params.gamma_e_diag[list(layout.xi_series)],
                                        params.sigma2_omega[list(layout.alpha_series)],
                                        params.sigma2_eta[list(layout.beta_series)]]))

    Z = np.zeros((spec.n, K))
    for k, B in enumerate(params.loadings):
        Z[:, layout.factor_block(k)] = B
    # Z_t multiplies the trend-slope entries by the time label (see StateSpace)
    Z[list(layout.extra_series), np.arange(r, K)] = 1.0

    R = np.where(indicator(spec.n, spec.idio_im), params.sigma2_nu, params.gamma_e_diag)

    return StateSpace(
        layout=layout,
        transition_map=_frozen(Theta),
        state_innovation_cov=_frozen(Q),
        measurement_base=_frozen(Z),
        measurement_cov_diag=_frozen(R),
    )


def common_component_path(loadings: list[np.ndarray], factor_states: np.ndarray, layout: StateLayout) -> np.ndarray:
    """n x T common component from smoothed companion states (T x K_f).

    Uses the in-state lagged factors, so every t (including t < s) is
    covered by the smoother's pre-sample estimates.
    """
    n = loadings[0].shape[0]
    T = factor_states.shape[0]
    chi = np.zeros((n, T))
    for k, B in enumerate(loadings):
        chi += B @ factor_states[:, layout.factor_block(k)].T
    return chi
