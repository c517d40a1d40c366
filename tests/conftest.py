import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread per process unless the caller chose otherwise: the
# Monte Carlo tests run worker processes, and threads on top of them
# oversubscribe the cores.  numpy reads these when it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nsdfm.model import ModelSpec, Params, Panel


def random_stable_var(q: int, p: int, rng, radius: float = 0.6) -> list[np.ndarray]:
    """Random VAR coefficients whose companion spectral radius is < radius."""
    while True:
        A = [rng.standard_normal((q, q)) * 0.4 / (k + 1) for k in range(p)]
        comp = np.zeros((q * p, q * p))
        for k in range(p):
            comp[:q, k * q:(k + 1) * q] = A[k]
        if p > 1:
            comp[q:, :q * (p - 1)] = np.eye(q * (p - 1))
        rho = np.max(np.abs(np.linalg.eigvals(comp)))
        if rho < radius:
            return A
        A = [a * radius / (rho + 1e-9) for a in A]


def random_spd(q: int, rng) -> np.ndarray:
    W = rng.standard_normal((q, q + 2))
    return W @ W.T / (q + 2) + 0.1 * np.eye(q)


def random_instance(rng, n=None, T=None, q=None, s=None, p=None, with_states=True):
    """Random small model instance (spec, params) exercising every state type."""
    n = n if n is not None else int(rng.integers(2, 5))
    q = q if q is not None else int(rng.integers(1, min(3, n)))
    s = s if s is not None else int(rng.integers(0, 2))
    p = p if p is not None else int(rng.integers(1, 3))
    T = T if T is not None else int(rng.integers(2, 6))
    if with_states and n >= 2:
        pool = list(range(n))
        rng.shuffle(pool)
        i1 = frozenset(pool[:1]) if rng.random() < 0.6 else frozenset()
        ia = frozenset(pool[1:2]) if n > 1 and rng.random() < 0.4 else frozenset()
        ib = frozenset(pool[2:3]) if n > 2 and rng.random() < 0.4 else frozenset()
    else:
        i1 = ia = ib = frozenset()
    spec = ModelSpec(n=n, T=T, q=q, s=s, p=p, idio_i1=i1, local_level=ia, local_trend=ib)
    im = spec.idio_im

    s2w = np.zeros(n)
    s2w[list(ia)] = rng.uniform(0.05, 0.3, size=len(ia))
    s2e = np.zeros(n)
    s2e[list(ib)] = rng.uniform(0.05, 0.3, size=len(ib))
    s2nu = np.zeros(n)
    s2nu[list(im)] = rng.uniform(0.01, 0.1, size=len(im))
    params = Params(
        loadings=[rng.standard_normal((n, q)) for _ in range(s + 1)],
        var_coeffs=random_stable_var(q, p, rng),
        gamma_u=random_spd(q, rng),
        gamma_e_diag=rng.uniform(0.3, 1.5, size=n),
        sigma2_omega=s2w,
        sigma2_eta=s2e,
        sigma2_nu=s2nu,
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    return spec, params


def random_panel(spec: ModelSpec, rng, missing_frac: float = 0.0) -> Panel:
    data = rng.standard_normal((spec.n, spec.T))
    mask = rng.random((spec.n, spec.T)) >= missing_frac
    data = np.where(mask, data, np.nan)
    return Panel(data, mask)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def settled_panel(rng, T_full=30, with_states=False):
    """Time-invariant system and panel: fully observed columns long enough
    for the covariances to settle, then one partly and one fully missing
    column, then two observed columns.  With ``with_states`` the system
    carries I(1) idiosyncratic or local-level states, never a local trend.
    Returns (spec, params, panel)."""
    while True:
        spec, params = random_instance(rng, n=4, T=T_full + 4, q=2, s=0, p=1, with_states=with_states)
        if not spec.local_trend and (spec.idio_im or not with_states):
            break
    data = rng.standard_normal((spec.n, spec.T))
    data[1:, T_full] = np.nan
    data[:, T_full + 1] = np.nan
    return spec, params, Panel.from_data(data)
