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
from .metrics import mse_common
from .model import build_state_space
from .pre_estimate import initial_state_cov
from .simulate import MCConfig, simulate_panel

__all__ = ["ReplicationResult", "CellReport", "check_fittable", "run_replication", "run_cell", "run_diagnostics",
           "METHODS", "MC_EM_OPTIONS"]

METHODS = ("pc_levels", "pc_diff_cumulate", "pc_diff_corrected")

# Share of failed replications beyond which a cell is marked invalid
MAX_FAILURE_SHARE = 0.05

# The EM options ``nsdfm benchmark`` lays its [em] keys over
MC_EM_OPTIONS = EMOptions(max_iter=100)

# Periods of the trace table of run_diagnostics and of ``nsdfm diagnose``
DIAGNOSTIC_HORIZON = 10


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
    replications: list[ReplicationResult]
    elapsed_seconds: float = 0.0

    def aggregate(self) -> dict:
        """Mean and median relative MSEs over the replications that did not fail, plus absolute MSE summaries.

        ``failed`` counts the failed replications, and ``valid_cell`` is
        False when they are more than ``MAX_FAILURE_SHARE`` of the cell.
        """
        ok = [r for r in self.replications if r.error is None]
        failed = len(self.replications) - len(ok)
        out = {
            "replications": len(self.replications),
            "failed": failed,
            "valid_cell": failed <= MAX_FAILURE_SHARE * len(self.replications),
            "elapsed_seconds": self.elapsed_seconds,
            "mean_mse_em": float(np.mean([r.mse_em for r in ok])) if ok else np.nan,
            "median_mse_em": float(np.median([r.mse_em for r in ok])) if ok else np.nan,
        }
        for m in METHODS:
            ratios = np.array([r.ratios[m] for r in ok])
            out[f"mean_rel_mse_{m}"] = float(ratios.mean()) if ok else np.nan
            out[f"median_rel_mse_{m}"] = float(np.median(ratios)) if ok else np.nan
        return out


def check_fittable(config: MCConfig) -> None:
    """Raise ``ValueError`` naming the [mc] keys when no replication of ``config`` can be fitted.

    The bounds are those of the pipeline :func:`run_replication` runs:
    ``var_prefit`` needs T >= p*q + p + 1 (which implies ``pre_estimate``'s
    T >= q + 2), ``lagged_loadings`` needs T >= s*q + s + 2 when s >= 1, and
    ``pc_levels`` needs r = q(s + 1) leading directions of the per-series
    demeaned levels, whose rank is at most min(n, T - 1).  A cell inside them
    may still fail a replication on its draws, which ``run_cell`` records.
    """
    n, T, q, s, p = config.n, config.T, config.q, config.s, config.p
    if T < p * q + p + 1:
        raise ValueError(f"T must be >= p*q + p + 1 = {p * q + p + 1} to fit a VAR(p) on q factors, "
                         f"got T={T} with p={p}, q={q}")
    if s and T < s * q + s + 2:
        raise ValueError(f"T must be >= s*q + s + 2 = {s * q + s + 2} to fit lagged loadings, "
                         f"got T={T} with s={s}, q={q}")
    if q * (s + 1) > min(n, T - 1):
        raise ValueError(f"q*(s+1) must be <= min(n, T-1) for the levels PCA, got q={q}, s={s}, n={n}, T={T}")


def run_replication(config: MCConfig, replication: int, em_options: EMOptions) -> ReplicationResult:
    """Simulate, fit with ``em_options`` and score one replication; the fit's VAR order is ``config.p``."""
    rec = ReplicationResult(replication=replication)
    try:
        sim = simulate_panel(config, replication)
        panel = sim.panel
        res = fit(replace(sim.spec, p=config.p, detrend=sim.trend_set), panel, em_options)
        rec.mse_em = mse_common(res.chi, sim.chi)
        rec.converged = res.converged
        rec.iterations = res.iterations
        r = config.q * (config.s + 1)
        cumulated = pc_diff_cumulate(panel, r)
        rec.mse_competitors = {
            "pc_levels": mse_common(pc_levels(panel, r), sim.chi),
            "pc_diff_cumulate": mse_common(cumulated, sim.chi),
            "pc_diff_corrected": mse_common(pc_diff_corrected(panel, cumulated), sim.chi),
        }
    except Exception as exc:  # recorded, never silently dropped
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run_cell(config: MCConfig, em_options: EMOptions, jobs: int = 1) -> CellReport:
    """Run all replications of one Monte Carlo cell, optionally in parallel."""
    start = time.perf_counter()
    reps = range(config.replications)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_replication, [config] * config.replications, reps,
                                    [em_options] * config.replications))
    else:
        results = [run_replication(config, rep, em_options) for rep in reps]
    elapsed = time.perf_counter() - start
    return CellReport(replications=results, elapsed_seconds=elapsed)


def run_diagnostics(
    config: MCConfig,
    n_grid: tuple[int, ...],
    horizon: int = DIAGNOSTIC_HORIZON,
    tol: float = 1.0e-6,
) -> dict:
    """Filter/smoother trace table at each panel size of ``n_grid``, averaged over ``config.replications``.

    ``nsdfm diagnose`` passes its ``--n-grid`` and this default ``horizon``.
    Uses the true simulated parameters (no estimation); the covariance
    recursion is data-free, so each replication contributes one
    deterministic trace path per n, from :func:`initial_state_cov` at the
    true VAR(2) (``sim.spec``'s, whatever ``config.p`` says).  Each n maps to the averaged
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
            ss = build_state_space(sim.spec, sim.params)
            P00 = initial_state_cov(sim.spec, sim.params.var_coeffs, sim.params.gamma_u)
            runs.append(steady_state_diagnostics(ss, P00, horizon=horizon, T_total=config.T))
        avg = {key: np.mean([run[key] for run in runs], axis=0) for key in runs[0]}
        avg["steady_state_t"] = steady_state_onset(avg["tr_pred_over_q"] * config.q, tol)
        per_n[n] = avg
    return per_n
