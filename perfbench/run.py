"""Benchmark of the nsdfm package: one workload per run, from a seed.

Run from the repository root:

    python3 perfbench/run.py --workload mc_integrated --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``mc_integrated`` and ``estimate_ragged``.
A run

1. pins BLAS and OpenMP to one thread in this process's environment, then
   imports numpy and the package from ``src/``;
2. sets up ``SETUP_REPS`` times (input generation plus one warm-up unit on
   the pool's cheapest item, checked like any unit) and reports import time
   plus the median set-up as ``setup_s``;
3. runs rounds until another round would end after ``--seconds``, and at
   least ``MIN_ROUNDS``; a round runs every item of the workload's fixed pool
   once, in an order drawn from ``--seed``, and the host-speed probe
   (``calibrate.py``) runs ``PROBES`` times between any two units;
4. checks every unit with the correctness gate (``gate.py``);
5. prints every metric by name with its unit, and as the last line one JSON
   object: end-to-end metrics with ``--trace 0``, per-layer metrics with
   ``--trace 1``.  The traced run also writes its spans and reports the
   tracing overhead as the traced warm-up unit's wall time over the median
   untraced one.

The timing metrics are in seconds at the reference host's quiet speed.  The
reference host shares its 2 cores with other machines, and their load changes
the speed of every operation, CPU time as much as wall time, by up to 1.8x
within minutes: over five consecutive runs the median wall time of a unit
spread by 25-40 % (IQR over median), whether a pool item's fastest or median
round was taken.  So each unit's wall time (and each set-up's) is divided by
the mean time of the probes just before and just after it, then multiplied by
the probe's time on the quiet host, ``calibrate.REFERENCE_S``.  Over the same
runs the rescaled times spread by 3-10 %.  The timing metrics then take each
pool item's median rescaled round.  The untraced run prints the plain wall
times next to them.

Load comes from this one process, and the Monte Carlo cells run at
``jobs`` = 1.  Each run writes a record (host, versions, thread variables,
git SHA, per-unit results) under ``perfbench/out``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
from calibrate import REFERENCE_S, Probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_integrated", "estimate_ragged")
SETUP_REPS = 3
PROBES = 3
MIN_ROUNDS = 4
TAIL_BEYOND = 10
TAIL_MIN_PCT = 50.0

# name -> (unit, better, bound); the bound is the share of the parent's
# median by which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s_p50": ("s", "lower", 0.24),
    "wall_s_tail": ("s", "lower", 0.24),
    "units_per_s": ("1/s", "higher", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

LAYERS = (
    "simulate.simulate_panel", "pre_estimate.pre_estimate", "model.build_state_space",
    "kalman.kf_filter", "kalman.ks_smooth",
    "em.fit", "em.e_step", "em.reduce_moments", "em.m_step_var", "em.m_step_variances",
    "competitors.pc_levels", "competitors.pc_diff_cumulate", "competitors.pc_diff_corrected",
    "metrics.mse_common", "benchmark.run_replication",
    "panel_io.read_panel", "panel_io.write_table", "cli.main",
)

# name -> (unit, better).  Per unit unless the name says otherwise; counts of
# kf_filter steps and patterns are per kf_filter call.
PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")),
                          ("share", ("ratio", "lower")), ("p50_ms", ("ms", "lower")))},
    "em.fit.iterations": ("count", "lower"),
    "em.fit.converged_share": ("ratio", "higher"),
    "kalman.kf_filter.steps": ("count", "lower"),
    "kalman.kf_filter.direct_steps": ("count", "lower"),
    "kalman.kf_filter.woodbury_steps": ("count", "lower"),
    "kalman.kf_filter.empty_steps": ("count", "lower"),
    "kalman.kf_filter.distinct_patterns": ("count", "lower"),
    "kalman.kf_filter.full_col_share": ("ratio", "higher"),
    "kalman.kf_filter.time_varying_calls": ("count", "lower"),
    "kalman.kf_filter.gflop_computed": ("GFLOP", "lower"),
    "kalman.ks_smooth.gflop_computed": ("GFLOP", "lower"),
    "panel.missing_share": ("ratio", "lower"),
    "mse_em_mean": ("mse", "lower"),
    "rel_mse_pc_levels": ("ratio", "lower"),
    "failed_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "host.probe_ms": ("ms", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size workloads (self-test)")
    return p.parse_args(argv)


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def run_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
    }


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Wall time at the highest percentile with TAIL_BEYOND samples beyond it.

    Below TAIL_MIN_PCT (fewer than 20 samples) such a percentile is no tail,
    and the maximum is reported instead.  Returns (value, percentile,
    samples beyond), by nearest rank.
    """
    xs = sorted(walls)
    pct = 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)
    if pct < TAIL_MIN_PCT:
        return xs[-1], 100.0, 0
    rank = len(xs) - TAIL_BEYOND
    return xs[rank - 1], pct, TAIL_BEYOND


class Runner:
    """Sets up, runs, times and gates the units of one workload."""

    def __init__(self, workload, reference: dict, workdir: Path):
        self.workload = workload
        self.reference = reference
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[dict] = []
        self.probe = Probe()
        # the warm-up item is the pool's cheapest by recorded iterations, for every seed
        self.warm_item = min(range(workload.pool_size),
                             key=lambda i: ((reference.get(str(i)) or {}).get("iterations", 0), i))

    def unit(self, ctx, item: int, label):
        """Run one unit, time it and gate it; returns (wall seconds, outcome)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.workload.run_unit(ctx, item)
            wall = time.perf_counter() - t0
            outcome = self.workload.collect(ctx, item)
        except Exception as exc:  # a failing unit is counted, never fatal
            wall = time.perf_counter() - t0
            outcome = gate.Outcome(observed={}, error=f"{type(exc).__name__}: {exc}")
        problems = gate.check(outcome, self.reference.get(str(item)))
        if problems:
            self.failures.append({"unit": label, "item": item, "problems": problems})
        return wall, outcome

    def probes(self) -> list[float]:
        """Seconds of PROBES runs of the host-speed probe."""
        return [self.probe.time() for _ in range(PROBES)]

    def set_up(self):
        """Set up SETUP_REPS times.

        Returns the context, the set-up seconds, the probe seconds around each
        set-up and the warm-up unit seconds.
        """
        setup_times, setup_probes, warm_walls = [], [], []
        ctx = None
        before = self.probes()
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            ctx = self.workload.setup(self.workload, self.workdir / f"setup{rep}")
            wall, _ = self.unit(ctx, self.warm_item, f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)
            warm_walls.append(wall)
            after = self.probes()
            setup_probes.append(before + after)
            before = after
        return ctx, setup_times, setup_probes, warm_walls

    def measure(self, ctx, rng, seconds: float, tracer=None) -> list[dict]:
        """Rounds over the pool until the next would end after ``seconds`` (at least MIN_ROUNDS).

        Each row holds the unit's wall time, the probe times just before and
        just after it, and the wall time rescaled to the quiet host's speed.
        """
        rows: list[dict] = []
        before = self.probes()
        start = time.perf_counter()
        elapsed = last_round = 0.0
        rounds = 0
        while rounds < MIN_ROUNDS or elapsed + last_round <= seconds:
            round_start = time.perf_counter()
            for item in rng.permutation(self.workload.pool_size).tolist():
                seq = len(rows)
                if tracer:
                    tracer.unit = seq
                wall, outcome = self.unit(ctx, item, seq)
                after = self.probes()
                rows.append({"unit": seq, "round": rounds, "item": item, "wall_s": wall,
                             "probe_s": before + after, "scaled_s": rescale(wall, before + after),
                             "missing_share": outcome.missing_share, **outcome.quality})
                before = after
            elapsed = time.perf_counter() - start
            last_round = time.perf_counter() - round_start
            rounds += 1
        return rows


def rescale(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the quiet host's speed, given the probe times measured around them."""
    return seconds * REFERENCE_S / statistics.mean(probes)


def item_medians(rows: list[dict], key: str) -> list[float]:
    """Each pool item's median ``key`` time over the rounds it ran in."""
    walls: dict[int, list[float]] = {}
    for r in rows:
        walls.setdefault(r["item"], []).append(r[key])
    return [statistics.median(w) for w in walls.values()]


def per_layer(tracer, rows: list[dict], quality: dict, overhead: float) -> dict:
    n_units = len(rows)
    walls = sum(r["wall_s"] for r in rows)
    c = tracer.counts
    per_call = max(c["filter_calls"], 1.0)
    metrics = {}
    for layer, s in tracer.layer_stats(set(range(n_units)), walls).items():
        metrics[f"{layer}.calls"] = s["calls"] / n_units
        metrics[f"{layer}.self_s"] = s["self_s"] / n_units
        metrics[f"{layer}.share"] = s["share"]
        metrics[f"{layer}.p50_ms"] = s["p50_ms"]
    metrics.update({
        "em.fit.iterations": c["iterations"] / c["fits"] if c["fits"] else 0.0,
        "em.fit.converged_share": c["converged"] / c["fits"] if c["fits"] else 0.0,
        "kalman.kf_filter.steps": c["steps"] / per_call,
        "kalman.kf_filter.direct_steps": c["direct_steps"] / per_call,
        "kalman.kf_filter.woodbury_steps": c["woodbury_steps"] / per_call,
        "kalman.kf_filter.empty_steps": c["empty_steps"] / per_call,
        "kalman.kf_filter.distinct_patterns": c["distinct_patterns"] / per_call,
        "kalman.kf_filter.full_col_share": c["full_steps"] / c["steps"] if c["steps"] else 0.0,
        "kalman.kf_filter.time_varying_calls": c["time_varying_calls"] / n_units,
        "kalman.kf_filter.gflop_computed": c["filter_flops"] / n_units / 1e9,
        "kalman.ks_smooth.gflop_computed": c["smoother_flops"] / n_units / 1e9,
        "panel.missing_share": statistics.mean(r["missing_share"] for r in rows),
        "mse_em_mean": quality["mse_em_mean"] or 0.0,
        "rel_mse_pc_levels": quality["rel_mse_pc_levels"] or 0.0,
        "failed_share": quality["failed_share"],
        "trace.overhead_ratio": overhead,
        "host.probe_ms": 1e3 * statistics.median(p for r in rows for p in r["probe_s"]),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nsdfm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'nsdfm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import nsdfm

    if Path(nsdfm.__file__).resolve().parent != ROOT / "src" / "nsdfm":
        print(f"error: imported nsdfm from {nsdfm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - T_START
    workload = workloads.catalogue(args.toy)[args.workload]
    ref_key = ("toy:" if args.toy else "") + args.workload
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8")).get(ref_key, {})
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}"
    workdir = out / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)

    runner = Runner(workload, reference, workdir)
    ctx, setup_times, setup_probes, warm_walls = runner.set_up()
    tracer = overhead = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.unit = "warm-up"
        wall, _ = runner.unit(ctx, runner.warm_item, "traced warm-up")
        overhead = wall / statistics.median(warm_walls)
        tracer.reset_counts()
    try:
        rows = runner.measure(ctx, np.random.default_rng(args.seed), args.seconds, tracer)
    finally:
        if tracer:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    medians = item_medians(rows, "scaled_s")
    fits = [r for r in rows if "iterations" in r]
    quality = {
        "em_iterations_mean": statistics.mean(r["iterations"] for r in fits) if fits else None,
        "mse_em_mean": statistics.mean(r["mse_em"] for r in fits) if fits else None,
        "rel_mse_pc_levels": statistics.mean(r["rel_mse_pc_levels"] for r in fits)
        if fits and "rel_mse_pc_levels" in fits[0] else None,
        "failed_share": len(runner.failures) / runner.attempted,
    }
    record = run_record(np)
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"rounds={rows[-1]['round'] + 1} units={len(rows)} pool={workload.pool_size}")
    print("record: " + json.dumps(record, sort_keys=True))
    for f in runner.failures:
        print(f"FAILED unit {f['unit']} (pool item {f['item']}): {'; '.join(f['problems'])}")

    if args.trace:
        metrics = per_layer(tracer, rows, quality, overhead)
        units = PER_LAYER
        tracer.write(out / f"spans-{tag}.jsonl")
    else:
        tail_value, tail_pct, beyond = tail(medians)
        metrics = {
            "setup_s": statistics.median(rescale(import_s + t, p) for t, p in zip(setup_times, setup_probes)),
            "wall_s_p50": statistics.median(medians),
            "wall_s_tail": tail_value,
            "units_per_s": len(medians) / sum(medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        for name, value in quality.items():
            print(f"{name} = {'n/a' if value is None else f'{value:.6g}'}")
        plain = item_medians(rows, "wall_s")
        probe_ms = 1e3 * statistics.median(p for r in rows for p in r["probe_s"])
        print(f"timing: median round of each of {len(medians)} pool items at the quiet host's speed "
              f"(probe {1e3 * REFERENCE_S:g} ms there, median {probe_ms:.2f} ms in this run); "
              f"wall_s_tail at p{tail_pct:.1f}, {beyond} beyond")
        print(f"plain wall: wall_s_p50 {statistics.median(plain):.4f} s, wall_s_tail {tail(plain)[0]:.4f} s, "
              f"units_per_s {len(plain) / sum(plain):.4f} 1/s; set-up = import {import_s:.4f} s + "
              f"median of {', '.join(f'{t:.4f}' for t in setup_times)} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name][0]}")

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": float(v), "unit": units[k][0]} for k, v in metrics.items()},
    }
    (out / f"record-{tag}.json").write_text(json.dumps({
        "args": vars(args), "record": record, "setup_times": setup_times, "setup_probes": setup_probes, "import_s": import_s,
        "units": rows, "failures": runner.failures, "quality": quality, **result,
    }, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
