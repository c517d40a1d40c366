"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

Every workload runs at toy size in a fresh process, traced and untraced, and
must print every metric that BENCHMARK.json names, with its unit.  The
correctness gate must reject a perturbed chi and a falling log-likelihood.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_at_toy_size_and_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name][0]
        assert isinstance(metric["value"], float)
        assert any(ln.startswith(f"{name} = ") and f" {metric['unit']}" in ln for ln in lines), name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert max(b for _, _, b in run.END_TO_END.values()) == run.END_TO_END["setup_s"][2]


def test_tracer_sites_cover_every_layer():
    import tracer

    assert tuple(tracer.SITES) == run.LAYERS


def test_gate_rejects_perturbed_chi():
    import workloads

    wl = workloads.catalogue(toy=True)["mc_integrated"]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["toy:mc_integrated"]["0"]
    ctx = wl.setup(wl, HERE / "out")
    wl.run_unit(ctx, 0)
    outcome = wl.collect(ctx, 0)
    assert gate.check(outcome, reference) == []

    for rel, rejected in ((1e-14, False), (1e-9, True)):
        chi = outcome.chi * (1.0 + rel * np.sign(np.random.default_rng(0).standard_normal(outcome.chi.shape)))
        perturbed = gate.Outcome(observed={**outcome.observed, "chi_fp": workloads.chi_fingerprint(chi)},
                                 chi=chi, loglik=outcome.loglik)
        problems = gate.check(perturbed, reference)
        assert bool(problems) == rejected, problems
        if rejected:
            assert problems[0].startswith("chi_fp")


def _outcome(loglik, error=None):
    return gate.Outcome(observed={}, chi=np.zeros((2, 2)), loglik=loglik, error=error)


def test_gate_rejects_falling_loglik_and_errors():
    ok = gate.check(_outcome([-10.0, -5.0, -5.0 - 1e-9]), {})
    assert ok == []
    assert "log-likelihood fell" in gate.check(_outcome([-10.0, -5.0, -5.1]), {})[0]
    assert gate.check(_outcome([-1.0], error="LinAlgError: boom"), {}) == ["LinAlgError: boom"]
    assert gate.check(_outcome([-1.0]), None) == ["no recorded reference for this pool item"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("mc_integrated", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
