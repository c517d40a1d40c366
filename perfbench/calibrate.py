"""A fixed probe of the host's speed, independent of the package.

The reference host shares its cores with other machines, and their load
changes the speed of every operation, CPU time as much as wall time, by up to
1.8x within minutes.  A wall time alone then says as much about the
neighbours as about the code.  The probe is the covariance recursion of an
information-form Kalman filter, written here with numpy alone.  It is the
same mix of small dense products, Cholesky factors, solves and interpreter
overhead as the package's hot path, at the state dimension of
``mc_integrated``.  It never changes with the package, so its time tracks
only the host: over a 5-minute run its time and a replication's wall time
correlated at 0.7.

``run.py`` runs the probe a few times between any two units, and rescales
each unit's wall time by ``REFERENCE_S`` over the mean probe time around it.
The result reads as seconds on the reference host in a quiet spell.
"""

from __future__ import annotations

import time

import numpy as np

K = 54          # state dimension, as in mc_integrated
N = 200         # observed series
STEPS = 40      # filter steps per probe
# Probe seconds on the reference host (2-core Xeon VM, OpenBLAS on one thread) in a
# quiet spell; under load it took 25-31 ms.
REFERENCE_S = 0.018


class Probe:
    """Fixed matrices for the recursion, drawn once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal((K, K))
        self.theta = 0.9 * theta / np.max(np.abs(np.linalg.eigvals(theta)))
        self.q = np.eye(K)
        self.z = rng.standard_normal((N, K)) / np.sqrt(K)
        self.r_inv = 1.0 / (0.5 + rng.random(N))
        self.zr = self.z.T * self.r_inv          # Z' R^{-1}
        self.c = self.zr @ self.z                 # Z' R^{-1} Z

    def run(self) -> float:
        """One probe: STEPS information-form covariance updates; returns the trace of P."""
        p = np.eye(K)
        eye = np.eye(K)
        for _ in range(STEPS):
            p = self.theta @ p @ self.theta.T + self.q
            p = 0.5 * (p + p.T)
            cp = np.linalg.cholesky(p)
            cpi = np.linalg.solve(cp, eye)
            m_inv = cpi.T @ cpi + self.c
            cm = np.linalg.cholesky(0.5 * (m_inv + m_inv.T))
            cmi = np.linalg.solve(cm, eye)
            m = cmi.T @ cmi
            gain = m @ self.zr
            ikz = eye - gain @ self.z
            p = ikz @ p @ ikz.T + (gain * (1.0 / self.r_inv)) @ gain.T
        return float(np.trace(p))

    def time(self) -> float:
        """Wall seconds of one probe."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
