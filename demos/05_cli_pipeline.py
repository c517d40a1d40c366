"""The full command-line pipeline in one script.

simulate -> estimate -> benchmark -> diagnose, exercising the CSV panel
format, the truth sidecar, config-echoing metadata and exit codes.  The
same flows work from a shell with the installed ``nsdfm`` command.
"""

import json
import tempfile
from pathlib import Path

from nsdfm.cli import main

with tempfile.TemporaryDirectory(prefix="nsdfm_demo_") as tmp:
    work = Path(tmp)
    print(f"working in {work}, removed when the demo ends")

    # 1. simulate a small benchmark panel and its ground-truth sidecar
    rc = main(["simulate", "--n", "40", "--T", "80", "--q", "2", "--tau", "0.5",
               "--seed", "123", "--out-dir", str(work / "sim")])
    assert rc == 0
    print("\npanel.csv starts with its reproducibility metadata:")
    for line in (work / "sim" / "panel.csv").read_text().splitlines()[:6]:
        print("   ", line[:100])

    # 2. estimate it back, reporting the MSE against the sidecar
    rc = main(["estimate", "--input", str(work / "sim" / "panel.csv"),
               "--truth", str(work / "sim" / "truth.json"),
               "--q", "2", "--s", "0", "--p", "2",
               "--out-dir", str(work / "est")])
    print(f"estimate exit code: {rc} (0 = converged, 4 = hit max-iter)")
    summary = json.loads((work / "est" / "estimate.json").read_text())
    print(f"MSE of the estimated common component: {summary['mse_common']:.4f}")

    # 3. a one-replication benchmark smoke cell
    rc = main(["benchmark", "--n", "40", "--T", "60", "--q", "2", "--tau", "0.5",
               "--replications", "2", "--seed", "5", "--jobs", "2",
               "--out-dir", str(work / "bench")])
    assert rc == 0

    # 4. the filter-trace diagnostic table
    rc = main(["diagnose", "--T", "60", "--q", "2", "--s", "1", "--tau", "0.5",
               "--replications", "5", "--seed", "5", "--n-grid", "10,40",
               "--out-dir", str(work / "diag")])
    assert rc == 0
    print("\nfiles written:", ", ".join(sorted(str(p.relative_to(work)) for p in work.rglob("*.*"))))
