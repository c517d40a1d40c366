"""Correctness gate applied to every unit, traced or not.

A unit passes when it raised nothing, its log-likelihood path never falls by
more than acceptance criterion 2 allows, its chi is finite, and every value
recorded for its pool item in ``reference.json`` (written from the seed
commit by ``record_reference.py``) is matched.  A failed check counts the
unit as failed; no check is ever skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ROADMAP aim 2: a refactor leaves chi bit-identical, or within 1e-12 when
# reductions are reordered.  Applied to the chi fingerprint relative to the
# norm of chi.
CHI_TOL = 1.0e-12

# A change of chi by CHI_TOL * |chi_hat| moves an MSE by at most
# 2 * CHI_TOL * |chi_hat| / |chi_hat - chi| of itself.  That ratio of norms
# stays below 500 on every recorded unit (record_reference.py prints it).
MSE_RTOL = 1.0e-9

# Acceptance criterion 2: the log-likelihood may fall by at most this share
# of its magnitude (or this much absolutely, below magnitude 1).
LOGLIK_SLACK = 1.0e-8


@dataclass
class Outcome:
    """What one unit produced, reduced to what the gate checks.

    ``observed`` holds the values compared with the recorded reference;
    ``chi`` and ``loglik`` feed the structural checks (finite, monotone).
    ``missing_share`` and ``quality`` are reported, not checked.
    """

    observed: dict
    chi: np.ndarray | None = None
    loglik: list[float] | None = None
    error: str | None = None
    missing_share: float = 0.0
    quality: dict = field(default_factory=dict)


def loglik_drop(loglik) -> float:
    """Largest slack-adjusted fall of a log-likelihood path (0 when none)."""
    ll = np.asarray(loglik, dtype=float)
    if ll.size < 2:
        return 0.0
    steps = np.diff(ll) + LOGLIK_SLACK * np.maximum(1.0, np.abs(ll[:-1]))
    return float(max(0.0, -steps.min()))


def _matches(key: str, got, ref) -> bool:
    if got is None:
        return False
    if key == "chi_fp":
        return len(got) == len(ref) and max(abs(g - r) for g, r in zip(got, ref)) <= CHI_TOL * ref[0]
    if key.startswith("mse"):
        return abs(got - ref) <= MSE_RTOL * abs(ref)
    return got == ref


def check(outcome: Outcome, reference: dict | None) -> list[str]:
    """Problems found with one unit's outcome; an empty list means it passed."""
    if outcome.error is not None:
        return [outcome.error]
    if reference is None:
        return ["no recorded reference for this pool item"]
    problems = []
    if outcome.chi is not None and not np.all(np.isfinite(outcome.chi)):
        problems.append("chi has non-finite entries")
    if outcome.loglik is not None and loglik_drop(outcome.loglik) > 0.0:
        problems.append(f"log-likelihood fell by {loglik_drop(outcome.loglik):.3e} beyond the slack")
    for key, ref in reference.items():
        got = outcome.observed.get(key)
        if not _matches(key, got, ref):
            problems.append(f"{key}: got {got!r}, reference {ref!r}")
    return problems
