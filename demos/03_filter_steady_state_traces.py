"""How fast the filter forgets its diffuse start as the panel widens.

Reproduces the filter/smoother MSE trace table at true parameters: the
one-step-ahead factor MSE settles within a few periods, the filtered MSE
decays like 1/n, and smoothing roughly halves it again.  No data are
involved; the covariance recursion is deterministic given parameters.
"""

import numpy as np

from nsdfm import MCConfig
from nsdfm.benchmark import run_diagnostics

cfg = MCConfig(n=100, T=100, q=2, s=1, n1=0, nb=0, tau=0.5, seed=42, replications=25)
n_grid = (5, 25, 100)
diag = run_diagnostics(cfg, n_grid=n_grid, horizon=10, tol=1e-5)

print("one-step-ahead trace tr(P_t|t-1)/q, averaged over 25 parameter draws")
print("t    " + "".join(f"n={n:<10d}" for n in n_grid))
for t in range(10):
    row = "".join(f"{diag[n]['tr_pred_over_q'][t]:<12.6f}" for n in n_grid)
    print(f"{t + 1:<5d}{row}")

print("\nfiltered and smoothed traces at t = 10:")
for n in n_grid:
    d = diag[n]
    print(f"  n={n:3d}: tr(P00)/q={d['tr_init_over_q']:8.1f}  filt={d['tr_filt_over_q'][-1]:.6f} "
          f"smooth={d['tr_smooth_over_q'][-1]:.6f}  n-scaled filt={d['tr_filt_scaled']:.3f}  "
          f"steady state by t={d['steady_state_t']}")

scaled = np.array([diag[n]["tr_filt_scaled"] for n in n_grid])
print(f"\nn-scaled filtered MSEs stay within a narrow band ({scaled.min():.2f}..{scaled.max():.2f}):")
print("the filtered factor MSE decays at rate n.")
