"""The two benchmark workloads: their inputs, one unit of work, and what it returns.

Every workload draws its units from a fixed pool of inputs: the first
``pool_size`` replication indices of a fixed cell.  The pool
is fixed so that every unit has a result recorded in ``reference.json`` to
check against, and so that every run does the same mix of cheap and
expensive units: an EM fit of the integrated cell takes 6 to 37 iterations
and one of the ragged panel 6 to 86, so the few replications a 50-second
run affords, drawn afresh from each seed, would move the median between
seeds by more than a code change does.  The seed sets the order in which a
run goes through the pool.  A pass over a pool takes 3 to 4 s on the
reference host (2 cores, OpenBLAS on one thread) when it is quiet, so a
50-second run makes at least four passes and usually a dozen.

The package is driven only through its public functions, looked up on their
modules at call time so that the tracer's wrappers (see ``tracer.py``) see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import nsdfm.benchmark
import nsdfm.cli
from gate import Outcome
from nsdfm.em import EMOptions
from nsdfm.metrics import mse_common
from nsdfm.model import Panel
from nsdfm.panel_io import write_panel
from nsdfm.simulate import MCConfig, simulate_panel

# Master seed of every pool (the ROADMAP baseline seed).
POOL_SEED = 20241


@dataclass(frozen=True)
class Workload:
    """A pool of ``pool_size`` items; ``setup`` makes the inputs, ``run_unit``
    is the timed call for one item and ``collect`` reads back its outcome."""

    name: str
    pool_size: int
    setup: Callable[["Workload", Path], object]
    run_unit: Callable[[object, int], None]
    collect: Callable[[object, int], Outcome]


def chi_fingerprint(chi: np.ndarray) -> list[float]:
    """Norm of chi and its projections on three fixed unit-norm directions.

    A change of chi by at most ``tol * norm`` moves every entry of the
    fingerprint by at most that much (Cauchy-Schwarz), so the fingerprint can
    be compared at the tolerance meant for chi itself.
    """
    chi = np.asarray(chi, dtype=float)
    out = [float(np.linalg.norm(chi))]
    for k in range(3):
        w = np.random.default_rng(k).standard_normal(chi.shape)
        out.append(float(np.vdot(chi, w) / np.linalg.norm(w)))
    return out


# Monte Carlo cells -------------------------------------------------------------

EM_OPTIONS = EMOptions(max_iter=100)


class _FitCapture:
    """Keeps the last EMResult that ``run_replication`` produced.

    ``run_replication`` reports MSEs but not chi or the log-likelihood path,
    so its ``fit`` is wrapped where it looks it up.  Installed once per
    process; the tracer wraps over it.
    """

    def __init__(self):
        self.last = None
        fit = nsdfm.benchmark.fit

        def capture(*args, **kwargs):
            self.last = fit(*args, **kwargs)
            return self.last

        nsdfm.benchmark.fit = capture


@dataclass
class _MCContext:
    config: MCConfig
    capture: _FitCapture
    record: object = None


def _mc_setup(config: MCConfig):
    capture = None

    def setup(workload: Workload, workdir: Path) -> _MCContext:
        nonlocal capture
        capture = capture or _FitCapture()
        return _MCContext(config, capture)

    return setup


def _mc_run(ctx: _MCContext, item: int) -> None:
    ctx.capture.last = None
    ctx.record = nsdfm.benchmark.run_replication(ctx.config, item, EM_OPTIONS)


def _mc_collect(ctx: _MCContext, item: int) -> Outcome:
    rec, res = ctx.record, ctx.capture.last
    if rec.error is not None or res is None:
        return Outcome(observed={}, error=rec.error or "fit was not called")
    observed = {
        "iterations": rec.iterations,
        "converged": rec.converged,
        "mse_em": rec.mse_em,
        "mse_pc_levels": rec.mse_competitors["pc_levels"],
        "chi_fp": chi_fingerprint(res.chi),
    }
    quality = {
        "iterations": rec.iterations,
        "converged": rec.converged,
        "mse_em": rec.mse_em,
        "rel_mse_pc_levels": rec.ratios["pc_levels"],
    }
    return Outcome(observed=observed, chi=res.chi, loglik=list(res.loglik_path), quality=quality)


def _mc_workload(name: str, pool_size: int, config: MCConfig) -> Workload:
    return Workload(name, pool_size, _mc_setup(config), _mc_run, _mc_collect)


# Ragged CSV panel through the CLI ------------------------------------------------

RAGGED_MISSING = 0.05        # cells missing at random
RAGGED_SHORT = 0.4           # series that end early ...
RAGGED_MAX_EARLY = 12        # ... by 1 to this many periods
RAGGED_LOCAL = 5             # series declared local-level, and as many local-trend


@dataclass
class _RaggedContext:
    workdir: Path
    argv: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)
    missing: dict = field(default_factory=dict)
    code: int | None = None


def ragged_panel(config: MCConfig, item: int):
    """Simulated panel with random and ragged-edge gaps, plus its index sets."""
    sim = simulate_panel(config, item)
    n, T = sim.x.shape
    rng = np.random.default_rng([POOL_SEED, item])
    mask = rng.random((n, T)) >= RAGGED_MISSING
    short = np.nonzero(rng.random(n) < RAGGED_SHORT)[0]
    for i, k in zip(short, rng.integers(1, RAGGED_MAX_EARLY + 1, size=short.size)):
        mask[i, T - k:] = False
    x = np.where(mask, sim.x, 0.0)
    others = sorted(set(range(n)) - sim.trend_set - sim.i1_set)
    local = (sorted(sim.trend_set - sim.i1_set) + others)[:2 * RAGGED_LOCAL]
    sets = {
        "idio_i1": sorted(sim.i1_set),
        "local_level": local[:RAGGED_LOCAL],
        "local_trend": local[RAGGED_LOCAL:],
        "detrend": sorted(sim.trend_set | set(local)),
    }
    return sim, x, mask, sets


def _ragged_setup(config: MCConfig):
    def setup(workload: Workload, workdir: Path) -> _RaggedContext:
        ctx = _RaggedContext(workdir)
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for item in range(workload.pool_size):
            sim, x, mask, sets = ragged_panel(config, item)
            path = inputs / f"panel_{item}.csv"
            write_panel(path, Panel(x, mask))
            argv = ["estimate", "--input", str(path), "--out-dir", str(workdir / "estimate"),
                    "--q", str(config.q), "--s", str(config.s), "--p", str(config.p)]
            for key, idx in sets.items():
                argv += [f"--{key.replace('_', '-')}", ",".join(map(str, idx))]
            ctx.argv[item] = argv
            ctx.truth[item] = sim.chi
            ctx.missing[item] = 1.0 - mask.mean()
        return ctx

    return setup


def _ragged_run(ctx: _RaggedContext, item: int) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        ctx.code = nsdfm.cli.main(ctx.argv[item])


def _read_table(path: Path) -> np.ndarray:
    """Rows of a CSV table written by ``write_table``, without metadata and header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def _ragged_collect(ctx: _RaggedContext, item: int) -> Outcome:
    if ctx.code != 0:
        return Outcome(observed={}, error=f"nsdfm estimate exited with code {ctx.code}")
    out = ctx.workdir / "estimate"
    chi = _read_table(out / "chi.csv").T
    loglik = _read_table(out / "loglik.csv")[:, 1].tolist()
    summary = json.loads((out / "estimate.json").read_text(encoding="utf-8"))
    mse = mse_common(chi, ctx.truth[item])
    observed = {
        "iterations": summary["iterations"],
        "converged": summary["converged"],
        "mse_em": mse,
        "chi_fp": chi_fingerprint(chi),
    }
    quality = {"iterations": summary["iterations"], "converged": summary["converged"], "mse_em": mse}
    return Outcome(observed=observed, chi=chi, loglik=loglik,
                   missing_share=ctx.missing[item], quality=quality)


# The catalogue --------------------------------------------------------------------

# Why each workload was chosen; BENCHMARK.json carries the same text.
WHY = {
    "mc_integrated": "Paper's integrated-idiosyncratic cell (K=54, full columns, fixed Z); Kalman-bound, "
                     "where a steady-state or pattern-cache change to kalman shows; runs every Monte Carlo layer",
    "estimate_ragged": "Real-data CLI path on a ragged CSV panel: no full columns, changing patterns and "
                       "time-varying Z, so a steady-state gain must not show; covers panel_io and cli",
}


def _mc(n, T, n1, nb):
    return MCConfig(n=n, T=T, q=2, s=0, n1=n1, nb=nb, tau=0.5, seed=POOL_SEED)


def catalogue(toy: bool = False) -> dict[str, Workload]:
    """The workloads at full size, or at toy size for the self-test."""
    if toy:
        return {
            "mc_integrated": _mc_workload("mc_integrated", 4, _mc(30, 40, 6, 6)),
            "estimate_ragged": Workload("estimate_ragged", 2, _ragged_setup(_mc(60, 60, 4, 4)),
                                        _ragged_run, _ragged_collect),
        }
    return {
        "mc_integrated": _mc_workload("mc_integrated", 2, _mc(200, 200, 50, 50)),
        "estimate_ragged": Workload("estimate_ragged", 4, _ragged_setup(_mc(100, 150, 10, 10)),
                                    _ragged_run, _ragged_collect),
    }
