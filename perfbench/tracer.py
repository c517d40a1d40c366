"""Spans and counts around the package's layers, recorded from outside ``src/``.

Each traced function is wrapped where its caller looks it up: ``em.py`` does
``from .kalman import kf_filter``, so the wrapper replaces ``nsdfm.em.kf_filter``,
not ``nsdfm.kalman.kf_filter``.  A span is (name, start, end, parent, unit);
spans live in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import nsdfm.benchmark
import nsdfm.cli
import nsdfm.competitors
import nsdfm.em

# Layer name -> the (module, attribute) sites its callers look it up through.
SITES = {
    "simulate.simulate_panel": [(nsdfm.benchmark, "simulate_panel")],
    "pre_estimate.pre_estimate": [(nsdfm.em, "pre_estimate")],
    "model.build_state_space": [(nsdfm.em, "build_state_space"), (nsdfm.benchmark, "build_state_space")],
    "kalman.kf_filter": [(nsdfm.em, "kf_filter")],
    "kalman.ks_smooth": [(nsdfm.em, "ks_smooth")],
    "em.fit": [(nsdfm.benchmark, "fit"), (nsdfm.cli, "fit")],
    "em.e_step": [(nsdfm.em, "e_step")],
    "em.reduce_moments": [(nsdfm.em, "reduce_moments")],
    "em.m_step_var": [(nsdfm.em, "m_step_var")],
    "em.m_step_variances": [(nsdfm.em, "m_step_variances")],
    "competitors.pc_levels": [(nsdfm.benchmark, "pc_levels")],
    "competitors.pc_diff_cumulate": [(nsdfm.benchmark, "pc_diff_cumulate"),
                                     (nsdfm.competitors, "pc_diff_cumulate")],
    "competitors.pc_diff_corrected": [(nsdfm.benchmark, "pc_diff_corrected")],
    "metrics.mse_common": [(nsdfm.benchmark, "mse_common"), (nsdfm.cli, "mse_common")],
    "benchmark.run_replication": [(nsdfm.benchmark, "run_replication")],
    "panel_io.read_panel": [(nsdfm.cli, "read_panel")],
    "panel_io.write_table": [(nsdfm.cli, "write_table")],
    "cli.main": [(nsdfm.cli, "main")],
}

def filter_flops(n_obs: np.ndarray, K: int) -> float:
    """Flops of one kf_filter call, from the per-step formulas of its branches.

    Computed, not measured: leading terms of the dense products, Cholesky
    factorizations and triangular inverses each branch performs.
    """
    m = n_obs.astype(float)
    predict = 4.0 * K ** 3
    direct = 4 * m * K ** 2 + 2 * m ** 2 * K + (m ** 3) / 3 + 8 * m ** 3 / 3 + 2 * m ** 3 \
        + 2 * K * m ** 2 + 4 * K ** 3 + 2 * K ** 2 * m
    woodbury = 2 * m * K ** 2 + K ** 3 / 3 + 8 * K ** 3 / 3 + 2 * K ** 3 + K ** 3 / 3 \
        + 8 * K ** 3 / 3 + 2 * K ** 3 + 4 * K ** 2 * m + 4 * K ** 3 + 2 * K ** 2 * m
    update = np.where(m == 0, 0.0, np.where(m <= K, direct, woodbury))
    return float(np.sum(predict + update))


def smoother_flops(T: int, K: int) -> float:
    """Flops of one ks_smooth call (T steps of products and one solve each), computed."""
    return float(T * (2 * K ** 3 + (2.0 / 3.0 + 2.0) * K ** 3 + 4 * K ** 3 + 2 * K ** 3))


class Tracer:
    """Patches every site in SITES on :meth:`install` and undoes it on :meth:`remove`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = None
        self.counts: dict = defaultdict(float)
        self._mask_cache: dict = {}
        self._undo: list = []

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.unit]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_filter(self, ss, panel, *args, **kwargs):
        """Step counts by update branch and observed pattern, from the mask and K only."""
        mask = panel.missing_mask
        key = (mask.shape, mask.tobytes(), ss.K)
        if key not in self._mask_cache:
            n_obs = mask.sum(axis=0)
            n = mask.shape[0]
            self._mask_cache[key] = {
                "steps": float(n_obs.size),
                "direct_steps": float(np.sum((n_obs >= 1) & (n_obs <= ss.K))),
                "woodbury_steps": float(np.sum(n_obs > ss.K)),
                "empty_steps": float(np.sum(n_obs == 0)),
                "full_steps": float(np.sum(n_obs == n)),
                "distinct_patterns": float(len({col.tobytes() for col in np.packbits(mask, axis=0).T})),
                "filter_flops": filter_flops(n_obs, ss.K),
            }
        for k, v in self._mask_cache[key].items():
            self.counts[k] += v
        self.counts["filter_calls"] += 1
        self.counts["time_varying_calls"] += float(ss.time_varying)

    def _count_smooth(self, filt, ss, *args, **kwargs):
        self.counts["smoother_flops"] += smoother_flops(filt.T, ss.K)

    def _count_fit(self, result):
        self.counts["fits"] += 1
        self.counts["iterations"] += result.iterations
        self.counts["converged"] += float(result.converged)

    def install(self) -> None:
        hooks = {
            "kalman.kf_filter": {"before": self._count_filter},
            "kalman.ks_smooth": {"before": self._count_smooth},
            "em.fit": {"after": self._count_fit},
        }
        for name, sites in SITES.items():
            for module, attr in sites:
                orig = getattr(module, attr)
                self._undo.append((module, attr, orig))
                setattr(module, attr, self._wrap(name, orig, **hooks.get(name, {})))

    def remove(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def reset_counts(self) -> None:
        self.counts.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index, unit."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "unit": unit}) + "\n")

    def layer_stats(self, units: set, unit_wall: float) -> dict[str, dict]:
        """Per-layer calls, self time and median inclusive duration over the given units."""
        child = defaultdict(float)
        for name, start, end, parent, unit in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for idx, (name, start, end, parent, unit) in enumerate(self.spans):
            if unit not in units:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
            durations[name].append(end - start)
        return {
            name: {
                "calls": calls[name],
                "self_s": self_s[name],
                "share": self_s[name] / unit_wall if unit_wall > 0 else 0.0,
                "p50_ms": 1e3 * statistics.median(durations[name]) if durations[name] else 0.0,
            }
            for name in SITES
        }
