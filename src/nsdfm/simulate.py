"""Benchmark data-generating process.

Panels are built as x = chi + trend + xi with

* a cointegrated factor VAR(2) planted with exactly q - d unit roots via
  the polynomial factorization (I - A1 L - A2 L^2) =
  (I - U1 L) diag((1-L) I_{q-d}, I_d),
* N(1,1) loadings, with half of each lagged-loading column zeroed,
* AR(2) idiosyncratic components whose first root is 1 for a random
  subset of series and whose second root is uniform on [0.2, 0.6],
  optionally cross-correlated with a Toeplitz tau^|i-j| innovation
  covariance,
* constant-slope linear trends on a random subset of series, and
* a rescaling of each idiosyncratic path so the common component
  explains the share theta/(1+theta) of every series' differenced
  variance.

Replications draw from counter-based substreams of the master seed, so a
(config, seed, replication) triple pins the panel bit-exactly no matter
how replications are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, Panel, Params, indicator
from .pre_estimate import SIGMA2_NU_INIT

__all__ = [
    "MCConfig",
    "SimulatedPanel",
    "gen_factor_var",
    "gen_loadings",
    "gen_idiosyncratic",
    "gen_innovations",
    "apply_trends_and_rescale",
    "simulate_panel",
    "replication_rng",
]

BURN_IN = 200


@dataclass(frozen=True)
class MCConfig:
    """One Monte Carlo cell."""

    n: int = 100
    T: int = 100
    q: int = 2
    s: int = 0
    d: int = 1
    p: int = 2
    n1: int = 0
    nb: int = 0
    tau: float = 0.5
    theta: float = 0.5
    mu: float = 0.5
    dist: str = "gaussian"
    replications: int = 100
    seed: int = 0

    def __post_init__(self):
        # each series needs two first differences for the generator's variance rescaling
        if self.T < 3:
            raise ValueError(f"T must be >= 3, got T={self.T}")
        if not 0 < self.q < self.n:
            raise ValueError(f"q must satisfy 0 < q < n, got q={self.q} with n={self.n}")
        if not 0 < self.d <= self.q:
            raise ValueError("cointegration rank d must satisfy 0 < d <= q")
        if self.p < 1:
            raise ValueError(f"VAR order p must be >= 1, got p={self.p}")
        for name in ("n1", "nb"):
            if not 0 <= getattr(self, name) < self.n:
                raise ValueError(f"{name} must be in [0, n), got {name}={getattr(self, name)} with n={self.n}")
        if self.s not in (0, 1):
            raise ValueError("the benchmark design uses s in {0, 1}")
        # each bound fails NaN too; mu is the stationary factor roots' modulus, tau^|i-j| a correlation if |tau| < 1
        if not 0 < self.theta < np.inf:
            raise ValueError("theta must be positive and finite")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must be finite in (0, 1), got mu={self.mu}")
        if not 0 <= self.tau < 1:
            raise ValueError(f"tau must be finite in [0, 1), got tau={self.tau}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got seed={self.seed}")
        if self.dist not in ("gaussian", "student_t4"):
            raise ValueError(f"dist must be gaussian or student_t4, got dist={self.dist!r}")


@dataclass
class SimulatedPanel:
    """A generated panel plus every piece of ground truth: x = chi + params.beta0 * t + xi, t = 1..T."""

    x: np.ndarray
    chi: np.ndarray
    factors: np.ndarray              # q x T
    xi: np.ndarray
    i1_set: frozenset[int]
    trend_set: frozenset[int]
    rho2: np.ndarray                 # second AR roots of the idiosyncratic components
    spec: ModelSpec
    params: Params
    config: MCConfig
    replication: int

    @property
    def panel(self) -> Panel:
        return Panel.from_data(self.x)


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent substream for one replication of a master seed."""
    if replication < 0:
        raise ValueError(f"replication must be >= 0, got replication={replication}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replication,)))


def gen_factor_var(q: int, d: int, mu: float, rng: np.random.Generator):
    """VAR(2) coefficients with exactly q - d unit roots.

    U1 has uniform [0.5, 0.8] diagonal and [0, 0.3] off-diagonal entries,
    scaled so its largest-modulus eigenvalue equals mu; the factorization
    then gives A1 = U1 + J and A2 = -U1 J with J = diag(I_{q-d}, 0_d).
    """
    if not 0 < d <= q:
        raise ValueError("need 0 < d <= q")
    U = rng.uniform(0.0, 0.3, size=(q, q))
    U[np.diag_indices(q)] = rng.uniform(0.5, 0.8, size=q)
    radius = np.max(np.abs(np.linalg.eigvals(U)))
    U1 = mu * U / radius
    J = np.diag(np.concatenate([np.ones(q - d), np.zeros(d)]))
    A1 = U1 + J
    A2 = -U1 @ J
    return A1, A2


def gen_loadings(n: int, q: int, s: int, rng: np.random.Generator) -> list[np.ndarray]:
    """N(1,1) loadings; each lagged column gets ceil(n/2) entries zeroed."""
    out = [rng.normal(1.0, 1.0, size=(n, q))]
    n_zero = int(np.ceil(n / 2))
    for _ in range(s):
        B = rng.normal(1.0, 1.0, size=(n, q))
        for j in range(q):
            B[rng.choice(n, size=n_zero, replace=False), j] = 0.0
        out.append(B)
    return out


def gen_innovations(dim: int, dist: str, cov: np.ndarray, rng: np.random.Generator, T: int) -> np.ndarray:
    """dim x T innovation draws with the given covariance.

    Student draws are multivariate t with 4 degrees of freedom divided by
    sqrt(2), so each component has unit variance times the covariance
    scale and the theta-rescaling stays comparable across distributions.
    """
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("innovation covariance is not positive definite") from exc
    z = L @ rng.standard_normal((dim, T))
    if dist == "gaussian":
        return z
    if dist == "student_t4":
        g = rng.chisquare(4, size=T)
        return z * np.sqrt(4.0 / g) / np.sqrt(2.0)
    raise ValueError(f"unknown innovation distribution {dist!r}")


def gen_idiosyncratic(
    n: int,
    T: int,
    n1: int,
    tau: float,
    dist: str,
    rng: np.random.Generator,
):
    """AR(2) idiosyncratic paths with n1 randomly placed unit roots.

    Returns (xi, i1_set, rho2, innovation covariance); xi is n x T after
    discarding ``BURN_IN`` periods, started from zeros.
    """
    if n1 >= n:
        raise ValueError("n1 must be smaller than n")
    i1 = frozenset(int(i) for i in rng.choice(n, size=n1, replace=False)) if n1 else frozenset()
    rho1 = indicator(n, i1).astype(float)
    rho2 = rng.uniform(0.2, 0.6, size=n)
    phi1 = rho1 + rho2
    phi2 = -rho1 * rho2
    if tau > 0:
        idx = np.arange(n)
        cov = tau ** np.abs(idx[:, None] - idx[None, :])
    else:
        cov = np.diag(rng.uniform(0.5, 1.5, size=n))
    e = gen_innovations(n, dist, cov, rng, BURN_IN + T)
    xi = np.zeros((n, BURN_IN + T))
    xi[:, 0] = e[:, 0]
    xi[:, 1] = phi1 * xi[:, 0] + e[:, 1]
    for t in range(2, BURN_IN + T):
        xi[:, t] = phi1 * xi[:, t - 1] + phi2 * xi[:, t - 2] + e[:, t]
    return xi[:, BURN_IN:], i1, rho2, cov


def apply_trends_and_rescale(
    chi: np.ndarray,
    xi: np.ndarray,
    nb: int,
    theta: float,
    rng: np.random.Generator,
):
    """Rescale xi to the theta variance share and add linear trends.

    Each xi row is scaled so the sample variance of its differences is
    theta * Var(d chi_i): the idiosyncratic share of every series'
    differenced variance is exactly theta/(1+theta) in sample, so the
    common component dominates at theta = 0.5.  nb randomly chosen series
    get a beta0 * t trend with beta0 ~ U[0.3, 0.5].  Returns (x, xi scaled,
    beta0, the trend set, the scale of each xi row).
    """
    n, T = chi.shape
    var_dchi = np.var(np.diff(chi, axis=1), axis=1)
    var_dxi = np.var(np.diff(xi, axis=1), axis=1)
    # NaN variances, as at T = 1, fail the test too
    if not (np.all(var_dchi > 0) and np.all(var_dxi > 0)):
        raise ValueError("zero-variance differenced component; cannot rescale")
    scale = np.sqrt(theta * var_dchi / var_dxi)
    xi_scaled = xi * scale[:, None]

    beta0 = np.zeros(n)
    trend_set = frozenset(int(i) for i in rng.choice(n, size=nb, replace=False)) if nb else frozenset()
    if trend_set:
        beta0[list(trend_set)] = rng.uniform(0.3, 0.5, size=len(trend_set))
    x = chi + beta0[:, None] * np.arange(1, T + 1) + xi_scaled
    return x, xi_scaled, beta0, trend_set, scale


def simulate_panel(config: MCConfig, replication: int = 0) -> SimulatedPanel:
    """Generate one replication of the configured cell.

    The returned Params are the ground truth expressed in the estimation
    model's parameterization: stationary idiosyncratic components enter
    as white measurement noise with their full stationary variance, and
    random-walk ones as state innovations with the variance of their
    (serially correlated) increments.  The returned spec is the truth's,
    a VAR(2) whatever ``config.p`` (the estimator's order) says.
    """
    rng = replication_rng(config.seed, replication)
    n, T, q, s = config.n, config.T, config.q, config.s

    A1, A2 = gen_factor_var(q, config.d, config.mu, rng)
    loadings = gen_loadings(n, q, s, rng)
    u = gen_innovations(q, config.dist, np.eye(q), rng, BURN_IN + T)
    f = np.zeros((q, BURN_IN + T))
    f[:, 0] = u[:, 0]
    f[:, 1] = A1 @ f[:, 0] + u[:, 1]
    for t in range(2, BURN_IN + T):
        f[:, t] = A1 @ f[:, t - 1] + A2 @ f[:, t - 2] + u[:, t]
    chi = np.zeros((n, T))
    for k, B in enumerate(loadings):
        chi += B @ f[:, BURN_IN - k:BURN_IN + T - k]

    xi, i1, rho2, cov_e = gen_idiosyncratic(n, T, config.n1, config.tau, config.dist, rng)
    x, xi_scaled, beta0, trend_set, scale = apply_trends_and_rescale(chi, xi, config.nb, config.theta, rng)

    # innovation variances after rescaling; increments/levels of an AR
    # component with the unit root removed have variance s2/(1-rho2^2)
    s2_inn = np.diag(cov_e) * scale ** 2
    ge = s2_inn / (1.0 - rho2 ** 2)
    params = Params(
        loadings=loadings,
        var_coeffs=[A1, A2],
        gamma_u=np.eye(q),
        gamma_e_diag=ge,
        sigma2_omega=np.zeros(n),
        sigma2_eta=np.zeros(n),
        sigma2_nu=np.where(indicator(n, i1), SIGMA2_NU_INIT, 0.0),
        alpha0=np.zeros(n),
        beta0=beta0,
    )
    return SimulatedPanel(
        x=x,
        chi=chi,
        factors=f[:, BURN_IN:],
        xi=xi_scaled,
        i1_set=i1,
        trend_set=trend_set,
        rho2=rho2,
        spec=ModelSpec(n=n, T=T, q=q, s=s, p=len(params.var_coeffs), idio_i1=i1),
        params=params,
        config=config,
        replication=replication,
    )

