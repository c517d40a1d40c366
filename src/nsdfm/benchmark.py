"""Monte Carlo benchmark runner and filter diagnostics.

One replication generates a panel from its seed substream, fits the EM
estimator (with the drawn trend series supplied as deterministic-trend
candidates, mirroring the design where the estimator knows which series
carry trends), fits the three principal-components competitors, and
records common-component MSEs.  A cell aggregates mean and median
relative MSEs over replications; failed replications are recorded and
excluded, and a cell is marked invalid when more than a small share of
its replications fail.

Aggregation is a deterministic reduction over replication indices, so
results do not depend on the degree of parallelism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .competitors import pc_diff_corrected, pc_diff_cumulate, pc_levels
from .em import EMOptions, fit
from .kalman import steady_state_diagnostics, steady_state_onset
from .metrics import DEFAULT_T_MIN, mse_common
from .model import build_state_space
from .pre_estimate import initial_state_cov
from .simulate import MCConfig, simulate_panel

__all__ = ["ReplicationResult", "CellReport", "run_replication", "run_cell", "run_diagnostics", "METHODS",
           "MC_EM_OPTIONS"]

METHODS = ("pc_levels", "pc_diff_cumulate", "pc_diff_corrected")

# Share of failed replications beyond which a cell is marked invalid
MAX_FAILURE_SHARE = 0.05

# EM options of a Monte Carlo fit when none are given; ``nsdfm benchmark``
# lays its [em] keys over these
MC_EM_OPTIONS = EMOptions(max_iter=100)


@dataclass
class ReplicationResult:
    replication: int
    mse_em: float = np.nan
    mse_competitors: dict = field(default_factory=dict)
    converged: bool = False
    iterations: int = 0
    error: str | None = None

    @property
    def ratios(self) -> dict:
        return {m: self.mse_em / v for m, v in self.mse_competitors.items()}


@dataclass
class CellReport:
    config: MCConfig
    replications: list[ReplicationResult]
    elapsed_seconds: float = 0.0

    @property
    def valid(self) -> list[ReplicationResult]:
        return [r for r in self.replications if r.error is None]

    @property
    def n_failed(self) -> int:
        return len(self.replications) - len(self.valid)

    @property
    def is_valid(self) -> bool:
        return self.n_failed <= MAX_FAILURE_SHARE * len(self.replications)

    def aggregate(self) -> dict:
        """Mean and median relative MSEs plus absolute MSE summaries."""
        ok = self.valid
        out = {
            "replications": len(self.replications),
            "failed": self.n_failed,
            "valid_cell": self.is_valid,
            "elapsed_seconds": self.elapsed_seconds,
            "mean_mse_em": float(np.mean([r.mse_em for r in ok])) if ok else np.nan,
            "median_mse_em": float(np.median([r.mse_em for r in ok])) if ok else np.nan,
        }
        for m in METHODS:
            ratios = np.array([r.ratios[m] for r in ok])
            out[f"mean_rel_mse_{m}"] = float(ratios.mean()) if ok else np.nan
            out[f"median_rel_mse_{m}"] = float(np.median(ratios)) if ok else np.nan
        return out


def run_replication(
    config: MCConfig,
    replication: int,
    em_options: EMOptions | None = None,
    t_min: int = DEFAULT_T_MIN,
) -> ReplicationResult:
    """Simulate, estimate and score one replication."""
    rec = ReplicationResult(replication=replication)
    try:
        sim = simulate_panel(config, replication)
        base = em_options or MC_EM_OPTIONS
        opts = replace(base, detrend=frozenset(sim.trend_set | sim.spec.local_level | sim.spec.local_trend))
        res = fit(sim.spec, sim.panel, opts)
        rec.mse_em = mse_common(res.chi, sim.chi, t_min)
        rec.converged = res.converged
        rec.iterations = res.iterations
        r = config.q * (config.s + 1)
        panel = sim.panel
        cumulated = pc_diff_cumulate(panel, r)
        rec.mse_competitors = {
            "pc_levels": mse_common(pc_levels(panel, r), sim.chi, t_min),
            "pc_diff_cumulate": mse_common(cumulated, sim.chi, t_min),
            "pc_diff_corrected": mse_common(pc_diff_corrected(panel, cumulated), sim.chi, t_min),
        }
    except Exception as exc:  # recorded, never silently dropped
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run_cell(
    config: MCConfig,
    em_options: EMOptions | None = None,
    jobs: int = 1,
    t_min: int = DEFAULT_T_MIN,
) -> CellReport:
    """Run all replications of one Monte Carlo cell, optionally in parallel."""
    start = time.perf_counter()
    reps = range(config.replications)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_replication, [config] * config.replications, reps,
                                    [em_options] * config.replications, [t_min] * config.replications))
    else:
        results = [run_replication(config, rep, em_options, t_min) for rep in reps]
    elapsed = time.perf_counter() - start
    return CellReport(config=config, replications=results, elapsed_seconds=elapsed)


def run_diagnostics(
    config: MCConfig,
    n_grid: tuple[int, ...] = (25, 100),
    horizon: int = 10,
    tol: float = 1.0e-6,
) -> dict:
    """Filter/smoother trace table over an n-grid, averaged over ``config.replications``.

    Uses the true simulated parameters (no estimation); the covariance
    recursion is data-free, so each replication contributes one
    deterministic trace path per n, from :func:`initial_state_cov` at the
    true VAR(2) whatever ``config.p`` says.  Each n maps to the averaged
    :func:`steady_state_diagnostics` keys plus ``steady_state_t``: the
    first t after which the averaged one-step-ahead trace changes by less
    than ``tol`` (None if never).
    """
    per_n: dict[int, dict] = {}
    for n in n_grid:
        cfg = replace(config, n=n)
        runs = []
        for rep in range(config.replications):
            sim = simulate_panel(cfg, rep)
            spec = replace(sim.spec, p=len(sim.params.var_coeffs))
            ss = build_state_space(spec, sim.params)
            P00 = initial_state_cov(spec, sim.params.var_coeffs, sim.params.gamma_u)
            runs.append(steady_state_diagnostics(ss, P00, horizon=horizon, T_total=config.T))
        avg = {key: np.mean([run[key] for run in runs], axis=0) for key in runs[0]}
        avg["steady_state_t"] = steady_state_onset(avg["tr_pred_over_q"] * config.q, tol)
        per_n[n] = avg
    return per_n
