"""Filtering a local level: steady state and missing data.

A single random-walk state observed through one noisy series is the
smallest non-stationary model the filter handles.  The one-step-ahead
variance of this model has a closed-form steady state, the golden ratio
when both innovation variances are one, which makes it a nice sanity
check before moving to full factor models.
"""

import numpy as np

from nsdfm import ModelSpec, Panel, Params, build_state_space, kf_filter, ks_smooth

rng = np.random.default_rng(0)
T = 200

# one observed series driven by a random walk plus noise; a second series
# is entirely missing to show prediction-only updates
spec = ModelSpec(n=2, T=T, q=1, s=0, p=1)
params = Params(
    loadings=[np.array([[1.0], [0.0]])],
    var_coeffs=[np.array([[1.0]])],     # unit root in the "factor"
    gamma_u=np.array([[1.0]]),
    gamma_e_diag=np.array([1.0, 1.0]),
    sigma2_omega=np.zeros(2),
    sigma2_eta=np.zeros(2),
    sigma2_nu=np.zeros(2),
    alpha0=np.zeros(2),
    beta0=np.zeros(2),
)
ss = build_state_space(spec, params)

level = np.cumsum(rng.standard_normal(T))
x = np.vstack([level + rng.standard_normal(T), np.full(T, np.nan)])
x[0, 60:70] = np.nan                     # a gap in the observed series
panel = Panel.from_data(x)

filt = kf_filter(ss, panel, init_mean=np.zeros(1), init_cov=np.array([[1e7]]))
smooth = ks_smooth(filt, ss)

golden = (1 + np.sqrt(5)) / 2
print(f"steady-state one-step variance: {filt.predicted_covs[-1][0, 0]:.6f}"
      f"  (golden ratio {golden:.6f})")
print(f"log-likelihood: {filt.loglik:.2f}")

# during the gap the filter variance grows linearly, then snaps back
gap_var = filt.filtered_covs[59:75, 0, 0]
print("filtered variance around the gap:")
print(np.array2string(np.array(gap_var), precision=3))

rmse_f = np.sqrt(np.mean((filt.filtered_means[1:, 0] - level) ** 2))
rmse_s = np.sqrt(np.mean((smooth.smoothed_means[1:, 0] - level) ** 2))
print(f"RMSE filtered {rmse_f:.3f} vs smoothed {rmse_s:.3f} (smoothing always helps)")
