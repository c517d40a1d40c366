"""Simulate a cointegrated factor panel and re-estimate it by EM.

Generates one replication of the benchmark design (two factors sharing a
single stochastic trend, cross-correlated idiosyncratic noise), fits the
model, and compares the estimated common component against the truth and
against the three principal-components competitors.
"""

import numpy as np

from nsdfm import EMOptions, MCConfig, fit, mse_common, simulate_panel
from nsdfm.competitors import pc_diff_corrected, pc_diff_cumulate, pc_levels

cfg = MCConfig(n=100, T=100, q=2, s=0, d=1, n1=0, nb=0, tau=0.5, seed=7, replications=1)
sim = simulate_panel(cfg, replication=0)
print(f"panel: n={cfg.n}, T={cfg.T}, q={cfg.q} factors, cointegration rank d={cfg.d}")

res = fit(sim.spec, sim.panel, EMOptions(max_iter=100))
ll = np.array(res.loglik_path)
print(f"EM converged={res.converged} after {res.iterations} iterations")
print(f"log-likelihood path (first 5): {np.array2string(ll[:5], precision=1)}")
assert np.all(np.diff(ll) >= -1e-8 * np.maximum(1.0, np.abs(ll[:-1]))), "EM must be monotone"

m_em = mse_common(res.chi, sim.chi)
print(f"\ncommon-component MSE (t >= 3): EM = {m_em:.4f}")
r = cfg.q * (cfg.s + 1)
cumulated = pc_diff_cumulate(sim.panel, r)
for name, chi in [
    ("PC on levels", pc_levels(sim.panel, r)),
    ("PC on differences, cumulated", cumulated),
    ("PC on differences, corrected", pc_diff_corrected(sim.panel, cumulated)),
]:
    m = mse_common(chi, sim.chi)
    print(f"  {name:30s} MSE = {m:10.4f}   relative = {m_em / m:.4f}")

# the estimated factor space spans the truth up to rotation
coef, resid, *_ = np.linalg.lstsq(
    np.column_stack([res.smoothed_means[1:, :cfg.q], np.ones(cfg.T)]), sim.factors.T, rcond=None
)[:2]
r2 = 1 - resid / (np.var(sim.factors, axis=1) * cfg.T)
print(f"\ntrue-factor R^2 on estimated factors: {np.array2string(r2, precision=4)}")
