"""Seeded fuzz cases through ``nsdfm.cli.main``.

Each case draws one command and its flags from numpy's RNG: ``simulate`` and
``diagnose`` with [mc] values at and around the bounds ``MCConfig`` checks,
``estimate`` on a small gapped panel with overlapping index sets,
``--standardize`` or a fixed ``--phi-policy``, and a tiny ``benchmark`` cell.
A case must end in one of two ways:

- exit 0, or 4 (not converged), with no error line and every number it
  writes finite;
- exit 2, 3 or 5 (usage, data or numeric error) with exactly one ``error:``
  or ``numeric failure:`` line.

It must never raise, so never end in a traceback, and never warn: the suite
turns warnings into errors.  Tier-1 runs the seeds ``range(CASES)``; a longer
range runs outside it with ``PYTHONPATH=src python tests/test_fuzz.py FIRST
STOP``, which prints every case that breaks the contract and the count of
cases by exit code, and exits 1 if any case broke it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nsdfm.cli import main
from nsdfm.model import Panel
from nsdfm.panel_io import write_panel, write_truth
from nsdfm.simulate import MCConfig, simulate_panel

CASES = 96
COMMANDS = ("simulate", "diagnose", "estimate", "benchmark")


def _pick(rng, inside, outside=(), p_outside=0.06):
    """A value from ``inside``, or with probability ``p_outside`` from ``outside`` (a bound broken)."""
    pool = outside if outside and rng.random() < p_outside else inside
    return pool[int(rng.integers(len(pool)))]


def _flags(values: dict) -> list[str]:
    return [tok for key, value in values.items() for tok in (f"--{key.replace('_', '-')}", str(value))]


def _mc_values(rng, n_max: int, T_max: int) -> dict:
    """[mc] keys at, inside and just outside their bounds; n and T are always set and kept small."""
    q = _pick(rng, [1, 2], [0, 3])
    n = _pick(rng, [q + 1, q + 3, n_max], [q - 1, q])
    values = {
        "n": n,
        "T": _pick(rng, [3, 4, 12, T_max], [1, 2]),
        "q": q,
        "s": _pick(rng, [0, 1], [-1, 2]),
        "d": _pick(rng, [1, q], [0, q + 1]),
        "p": _pick(rng, [1, 2, 3], [0]),
        "n1": _pick(rng, [0, 1, n - 1], [-1, n]),
        "nb": _pick(rng, [0, 1, n - 1], [-1, n]),
        "tau": _pick(rng, ["0", "0.5", "0.999"], ["-0.1", "1", "nan"]),
        "theta": _pick(rng, ["1e-9", "0.5", "100"], ["0", "-1", "inf"]),
        "mu": _pick(rng, ["1e-6", "0.5", "0.999"], ["0", "1", "1.5"]),
        "dist": _pick(rng, ["gaussian", "student_t4"], ["cauchy"]),
        "seed": _pick(rng, [int(rng.integers(10_000))], [-1]),
    }
    # leave about half of the optional keys at their defaults
    return {k: v for k, v in values.items() if k in ("n", "T") or rng.random() < 0.5}


def _index_set(rng, n: int) -> str:
    """One to three series, overlapping other sets by chance, now and then one out of range."""
    idx = rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
    if rng.random() < 0.1:
        idx.append(n)
    return ",".join(map(str, idx))


def _estimate_argv(rng, work: Path) -> list[str]:
    n, T = int(rng.integers(6, 12)), int(rng.integers(12, 30))
    sim = simulate_panel(MCConfig(n=n, T=T, q=1, n1=int(rng.integers(0, 3)), nb=int(rng.integers(0, 3)),
                                  tau=0.0, seed=int(rng.integers(10_000))), 0)
    mask = rng.random((n, T)) >= 0.05
    write_panel(work / "panel.csv", Panel(np.where(mask, sim.x, np.nan), mask))
    write_truth(work / "truth.json", sim)
    values = {"q": _pick(rng, [1, 2], [0, n]), "s": _pick(rng, [0, 1]), "p": _pick(rng, [1, 2]),
              "max_iter": _pick(rng, [1, 5, 40], [0])}
    for key in ("idio_i1", "local_level", "local_trend", "detrend"):
        if rng.random() < 0.5:
            values[key] = _index_set(rng, n)
    if rng.random() < 0.4:
        values["phi_policy"] = _pick(rng, ["estimated", "1e-8", "1e-3", "1"], ["0", "-1", "nan"], p_outside=0.3)
    argv = ["estimate", "--input", str(work / "panel.csv"), *_flags(values)]
    if rng.random() < 0.4:
        argv.append("--standardize")
    if rng.random() < 0.3:
        argv += ["--truth", str(work / "truth.json")]
    return argv


def draw_argv(seed: int, work: Path) -> list[str]:
    """The command line of case ``seed``; the command cycles with the seed, the rest is drawn."""
    rng = np.random.default_rng([20251, seed])
    command = COMMANDS[seed % len(COMMANDS)]
    if command == "estimate":
        argv = _estimate_argv(rng, work)
    elif command == "simulate":
        argv = ["simulate", *_flags(_mc_values(rng, 12, 40)), "--replication", str(_pick(rng, [0, 3], [-1]))]
    elif command == "diagnose":
        mc = {**_mc_values(rng, 8, 25), "replications": _pick(rng, [1, 2], [0])}
        argv = ["diagnose", *_flags(mc), "--n-grid", _pick(rng, ["6", "5,9", "3"], ["0", "x", ""])]
    else:
        mc = {**_mc_values(rng, 12, 25), "replications": _pick(rng, [1, 2], [0]), "max_iter": _pick(rng, [2, 5])}
        argv = ["benchmark", *_flags(mc)]
        if rng.random() < 0.3:
            argv += ["--cells", _pick(rng, ["T=20", "n=9,T=15;n=10"], ["n=1", "tau=2"])]
    return argv + ["--out-dir", str(work / "out")]


def _non_finite(path: Path) -> list[str]:
    """The numbers in an output file that are not finite: CSV cells below the header, JSON values."""
    if path.suffix == ".json":
        def walk(v):
            if isinstance(v, dict):
                return [x for u in v.values() for x in walk(u)]
            if isinstance(v, list):
                return [x for u in v for x in walk(u)]
            return [repr(v)] if isinstance(v, float) and not math.isfinite(v) else []
        return walk(json.loads(path.read_text(encoding="utf-8")))
    bad = []
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    for line in lines[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # a text cell or a gap
                continue
            if not math.isfinite(value):
                bad.append(cell)
    return bad


def run_case(seed: int, work: Path) -> tuple[list[str], int, list[str]]:
    """Runs case ``seed`` in ``work``; returns its argv, exit code and the ways it broke the contract."""
    argv = draw_argv(seed, work)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err_lines = [ln for ln in err.getvalue().splitlines() if "error:" in ln or ln.startswith("numeric failure:")]
    problems = []
    if code in (0, 4):
        problems += [f"error line on exit {code}: {ln}" for ln in err_lines]
        out = work / "out"
        files = sorted(out.iterdir()) if out.exists() else []
        if not files:
            problems.append(f"exit {code} wrote nothing")
        problems += [f"{f.name}: non-finite {v}" for f in files for v in _non_finite(f)]
    elif code in (2, 3, 5):
        if len(err_lines) != 1:
            problems.append(f"{len(err_lines)} error lines on exit {code}: {err.getvalue()!r}")
    else:
        problems.append(f"exit code {code}")
    return argv, code, problems


@pytest.mark.parametrize("seed", range(CASES))
def test_cli_fuzz_case(tmp_path, seed):
    argv, code, problems = run_case(seed, tmp_path)
    assert not problems, (argv, code, problems)


if __name__ == "__main__":
    import warnings

    for category in (RuntimeWarning, DeprecationWarning, FutureWarning):  # as the suite's filters do
        warnings.simplefilter("error", category)
    first, stop = (int(a) for a in sys.argv[1:3])
    codes: Counter = Counter()
    broken = 0
    for seed in range(first, stop):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                argv, code, problems = run_case(seed, Path(tmp))
            except Exception as exc:  # noqa: BLE001 -- a raise is a finding, recorded with its case
                argv, code, problems = draw_argv(seed, Path(tmp)), "raised", [f"{type(exc).__name__}: {exc}"]
        codes[code] += 1
        if problems:
            broken += 1
            print(f"seed {seed}: exit {code}: {problems}\n  argv {argv}")
    print(f"{stop - first} cases, by exit code: {dict(sorted(codes.items(), key=str))}; {broken} broke the contract")
    sys.exit(1 if broken else 0)
