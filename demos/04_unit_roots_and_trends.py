"""Idiosyncratic unit roots and deterministic trends in one panel.

A quarter of the series carry random-walk idiosyncratic components
(modelled as extra latent states behind a tiny artificial measurement
variance) and a quarter carry constant-slope linear trends (modelled as
per-series intercept/slope parameters re-estimated inside the EM).  PC
on levels breaks down here; the state-space estimator does not.
"""

from dataclasses import replace

import numpy as np

from nsdfm import EMOptions, MCConfig, fit, mse_common, simulate_panel
from nsdfm.competitors import pc_levels

cfg = MCConfig(n=100, T=100, q=2, s=0, n1=25, nb=25, tau=0.5, seed=11, replications=1)
sim = simulate_panel(cfg, replication=0)
print(f"{cfg.n1} series have I(1) idiosyncratic components: {sorted(sim.i1_set)[:8]}...")
print(f"{cfg.nb} series have linear trends, slopes in [0.3, 0.5]")

# the estimator is told which series are which (sets are inputs, not estimated)
res = fit(replace(sim.spec, detrend=sim.trend_set), sim.panel, EMOptions(max_iter=100))

m_em = mse_common(res.chi, sim.chi)
m_b = mse_common(pc_levels(sim.panel, 2), sim.chi)
print(f"\ncommon-component MSE: EM = {m_em:.3f}, PC on levels = {m_b:.1f} "
      f"(relative {m_em / m_b:.4f}; levels PCs fail under idiosyncratic unit roots)")

# estimated slopes track the drawn ones
drawn = np.array([sim.params.beta0[i] for i in sorted(sim.trend_set)])
fitted = np.array([res.params.beta0[i] for i in sorted(sim.trend_set)])
print(f"\ntrend slopes, drawn vs fitted (first 5):")
for b0, bh in list(zip(drawn, fitted))[:5]:
    print(f"  {b0:.3f}  ->  {bh:.3f}")
print(f"slope RMSE: {np.sqrt(np.mean((drawn - fitted) ** 2)):.4f}")

# the smoothed xi paths follow the true integrated components
layout = sim.spec.layout
i = layout.xi_series[0]
xi = res.smoothed_means[1:, layout.xi_slice.start]
corr = np.corrcoef(xi, sim.xi[i])[0, 1]
print(f"\nsmoothed vs true idiosyncratic path for series {i}: correlation {corr:.3f}")
