"""Record the per-unit reference that the correctness gate checks against.

Run from the repository root on the commit whose numbers are the reference:

    python3 perfbench/record_reference.py [--toy] [workload ...]

For every pool item of each named workload (all of them by default) it runs one
unit and stores what the gate compares (iterations, convergence, MSEs and the
chi fingerprint) in ``perfbench/reference.json``, under
the workload's name (``toy:<name>`` with ``--toy``).  Entries of other
workloads in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
from gate import CHI_TOL, MSE_RTOL

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("workloads", nargs="*", help=f"any of {', '.join(run.WORKLOADS)} (default: all)")
    p.add_argument("--toy", action="store_true")
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(run.WORKLOADS)
    if unknown:
        p.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    catalogue = workloads.catalogue(args.toy)
    for name in args.workloads or run.WORKLOADS:
        wl = catalogue[name]
        items = {}
        worst_ratio = 0.0
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            ctx = wl.setup(wl, Path(tmp))
            for item in range(wl.pool_size):
                wl.run_unit(ctx, item)
                outcome = wl.collect(ctx, item)
                if outcome.error is not None:
                    raise RuntimeError(f"{name} pool item {item}: {outcome.error}")
                items[str(item)] = outcome.observed
                if "mse_em" in outcome.observed:
                    n_cells = outcome.chi[:, 2:].size
                    ratio = outcome.observed["chi_fp"][0] / math.sqrt(n_cells * outcome.observed["mse_em"])
                    worst_ratio = max(worst_ratio, ratio)
        if 2.0 * CHI_TOL * worst_ratio > MSE_RTOL:
            raise RuntimeError(f"{name}: |chi_hat|/|chi_hat - chi| = {worst_ratio:.3g} makes gate.MSE_RTOL "
                               "tighter than the chi tolerance")
        key = ("toy:" if args.toy else "") + name
        reference[key] = items
        iters = sorted(v["iterations"] for v in items.values() if "iterations" in v)
        print(f"{key}: {len(items)} items in {time.perf_counter() - t0:.1f} s; iterations {iters}; "
              f"largest |chi_hat|/|chi_hat - chi| {worst_ratio:.3g}", flush=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
