import numpy as np
import pytest

from nsdfm.simulate import (
    MCConfig,
    apply_trends_and_rescale,
    gen_factor_var,
    gen_idiosyncratic,
    gen_innovations,
    gen_loadings,
    replication_rng,
    simulate_panel,
)
from oracles import var2_polynomial_roots


def test_factor_var_unit_root_count(rng):
    for q, d in [(2, 1), (3, 2), (4, 1)]:
        A1, A2 = gen_factor_var(q, d, 0.5, rng)
        roots = var2_polynomial_roots(A1, A2)
        at_one = np.sum(np.abs(roots - 1.0) < 1e-8)
        assert at_one == q - d
        outside = roots[np.abs(roots - 1.0) >= 1e-8]
        assert np.all(np.abs(outside) > 1.0 + 1e-8)
        # rank of I - A1 - A2 equals d
        assert np.linalg.matrix_rank(np.eye(q) - A1 - A2, tol=1e-10) == d


def test_factor_var_full_rank_collapses_to_var1(rng):
    A1, A2 = gen_factor_var(3, 3, 0.5, rng)
    np.testing.assert_allclose(A2, 0.0, atol=1e-15)
    assert np.max(np.abs(np.linalg.eigvals(A1))) == pytest.approx(0.5, rel=1e-10)


def test_loadings_shapes_and_zero_pattern(rng):
    out = gen_loadings(50, 3, 0, rng)
    assert len(out) == 1
    out = gen_loadings(51, 3, 1, rng)
    assert len(out) == 2
    for j in range(3):
        assert np.sum(out[1][:, j] == 0.0) == 26  # ceil(51/2)
    mean = gen_loadings(400, 2, 0, rng)[0].mean()
    assert abs(mean - 1.0) < 3 / np.sqrt(400 * 2)


def test_idiosyncratic_cross_correlation(rng):
    n, T = 20, 4000
    xi, i1, rho2, cov = gen_idiosyncratic(n, T, 0, 0.5, "gaussian", rng)
    # reconstruct innovations from the AR recursion and check the Toeplitz corr
    phi1 = rho2
    e = xi[:, 2:] - phi1[:, None] * xi[:, 1:-1]
    c = np.corrcoef(e)
    adj = np.diagonal(c, offset=1)
    assert np.all(np.abs(adj - 0.5) < 4 / np.sqrt(T) * 3)

    xi0, _, rho2b, cov0 = gen_idiosyncratic(n, T, 0, 0.0, "gaussian", rng)
    e0 = xi0[:, 2:] - rho2b[:, None] * xi0[:, 1:-1]
    c0 = np.corrcoef(e0)
    off = c0[~np.eye(n, dtype=bool)]
    assert np.max(np.abs(off)) < 4 / np.sqrt(T) * 3


def test_unit_root_variance_growth(rng):
    # I(1) series show linearly growing variance across replications
    T, reps = 150, 200
    paths = np.empty((reps, T))
    for b in range(reps):
        xi, i1, _, _ = gen_idiosyncratic(2, T, 1, 0.0, "gaussian", rng)
        paths[b] = xi[sorted(i1)[0]]
    v = paths.var(axis=0)
    t = np.arange(T, dtype=float)
    slope = np.polyfit(t, v, 1)[0]
    resid = v - np.polyval(np.polyfit(t, v, 1), t)
    se = np.sqrt(np.sum(resid ** 2) / (T - 2) / np.sum((t - t.mean()) ** 2))
    assert slope / se > 5.0


def test_innovations_gaussian_covariance(rng):
    T = 20000
    x = gen_innovations(3, "gaussian", np.eye(3), rng, T)
    S = x @ x.T / T
    assert np.linalg.norm(S - np.eye(3), 2) < 5 / np.sqrt(T) * 3


def test_innovations_t4_standardized(rng):
    T = 200000
    x = gen_innovations(2, "student_t4", np.eye(2), rng, T)
    v = x.var(axis=1)
    np.testing.assert_allclose(v, 1.0, rtol=0.1)
    z = x[0]
    kurt = np.mean(z ** 4) / np.mean(z ** 2) ** 2
    assert kurt > 4.0


def test_innovations_seeded_determinism():
    a = gen_innovations(2, "student_t4", np.eye(2), replication_rng(5, 1), 100)
    b = gen_innovations(2, "student_t4", np.eye(2), replication_rng(5, 1), 100)
    assert np.array_equal(a, b)


def test_rescaling_share_exact(rng):
    # idiosyncratic share of differenced variance = theta/(1+theta) exactly
    chi = np.cumsum(rng.standard_normal((6, 300)), axis=1)
    xi = np.cumsum(rng.standard_normal((6, 300)), axis=1) * 3.0
    x, xi_s, beta0, tset, scale = apply_trends_and_rescale(chi, xi, 0, 0.5, rng)
    share_idio = np.var(np.diff(xi_s, axis=1), axis=1) / (
        np.var(np.diff(chi, axis=1), axis=1) + np.var(np.diff(xi_s, axis=1), axis=1)
    )
    np.testing.assert_allclose(share_idio, 1.0 / 3.0, rtol=1e-12)
    assert tset == frozenset()
    np.testing.assert_array_equal(beta0, 0.0)
    np.testing.assert_array_equal(x, chi + xi_s)


def test_trend_slopes_within_band(rng):
    chi = np.cumsum(rng.standard_normal((10, 100)), axis=1)
    xi = rng.standard_normal((10, 100))
    x, xi_s, beta0, tset, scale = apply_trends_and_rescale(chi, xi, 4, 0.5, rng)
    assert len(tset) == 4
    drawn = beta0[sorted(tset)]
    assert np.all((drawn >= 0.3) & (drawn <= 0.5))
    np.testing.assert_array_equal(beta0[[i for i in range(10) if i not in tset]], 0.0)
    np.testing.assert_array_equal(x, chi + beta0[:, None] * np.arange(1, 101) + xi_s)


def test_panel_decomposition_and_reproducibility():
    cfg = MCConfig(n=20, T=50, q=2, s=1, n1=5, nb=5, tau=0.5, seed=11, replications=2)
    sim1 = simulate_panel(cfg, 1)
    sim2 = simulate_panel(cfg, 1)
    assert np.array_equal(sim1.x, sim2.x)
    assert sim1.i1_set == sim2.i1_set and sim1.trend_set == sim2.trend_set
    assert len(sim1.trend_set) == 5 and np.count_nonzero(sim1.params.beta0) == 5
    np.testing.assert_array_equal(sim1.x, sim1.chi + sim1.params.beta0[:, None] * np.arange(1, 51) + sim1.xi)
    other = simulate_panel(cfg, 0)
    assert not np.array_equal(other.x, sim1.x)


def test_stationary_vs_integrated_counts():
    cfg = MCConfig(n=30, T=400, q=2, s=0, n1=10, nb=0, tau=0.0, seed=2, replications=1)
    sim = simulate_panel(cfg, 0)
    assert len(sim.i1_set) == 10
    # integrated paths wander: compare first/second half variances
    for i in range(30):
        a = sim.xi[i, :200].var()
        b = sim.xi[i, 200:].var()
        if i not in sim.i1_set:
            assert 0.05 < b / a < 20.0


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(n=10, T=10, q=2, d=3)
    with pytest.raises(ValueError):
        MCConfig(n=10, T=10, n1=10)
    with pytest.raises(ValueError, match="dist must be gaussian or student_t4, got dist='cauchy'"):
        MCConfig(n=10, T=10, dist="cauchy")
    for field in ("theta", "tau", "mu"):  # a NaN passes every bound check written with <=
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                MCConfig(n=10, T=10, **{field: value})
    # mu is the modulus of the stationary factor roots, and tau^|i-j| is a correlation
    # matrix only for |tau| < 1; a negative tau used to run as tau = 0
    for field, values in (("mu", (0.0, -0.5, 1.0, 1.5)), ("tau", (-2.0, -0.5, 1.0, 1.5))):
        for value in values:
            with pytest.raises(ValueError, match=f"{field} must be finite in"):
                MCConfig(n=10, T=10, **{field: value})
    with pytest.raises(ValueError, match="replications must be >= 1"):
        MCConfig(n=10, T=10, replications=0)
    assert MCConfig(n=10, T=10, tau=0.0, mu=0.99, replications=1).tau == 0.0


def test_innovations_reject_a_covariance_that_is_not_positive_definite(rng):
    with pytest.raises(ValueError, match="innovation covariance is not positive definite"):
        gen_innovations(2, "gaussian", np.array([[1.0, 2.0], [2.0, 1.0]]), rng, 5)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_simulated_spec_is_the_truths(p):
    # the truth is a VAR(2) whatever the estimator's order config.p says
    sim = simulate_panel(MCConfig(n=10, T=20, p=p, seed=1, replications=1), 0)
    sim.params.validate(sim.spec)
    assert sim.spec.p == 2


def test_single_period_panel_rejected():
    # T = 1 leaves no first difference and T = 2 one per series, too few for the
    # generator's variance rescaling: the config names T before any work (and
    # before numpy could warn on an empty variance)
    for T in (1, 2):
        with pytest.raises(ValueError, match="T must be >= 3"):
            simulate_panel(MCConfig(n=10, T=T, tau=0.0, seed=1, replications=1), 0)
    assert simulate_panel(MCConfig(n=10, T=3, tau=0.0, seed=1, replications=1), 0).x.shape == (10, 3)


def test_eigenvalue_growth_invariant():
    # the q leading eigenvalues of cov(dx) grow linearly in n; the next stays bounded
    q, T = 2, 1500
    slopes, top, next_ev = [], {}, {}
    grid = (25, 50, 100, 200)
    for n in grid:
        cfg = MCConfig(n=n, T=T, q=q, s=0, n1=0, nb=0, tau=0.0, seed=77, replications=1)
        sim = simulate_panel(cfg, 0)
        dx = np.diff(sim.x, axis=1)
        dx = dx - dx.mean(axis=1, keepdims=True)
        vals = np.linalg.eigvalsh(dx @ dx.T / dx.shape[1])[::-1]
        top[n] = vals[:q]
        next_ev[n] = vals[q]
    ns = np.array(grid, dtype=float)
    for j in range(q):
        mu = np.array([top[n][j] for n in grid])
        slope, intercept = np.polyfit(ns, mu, 1)
        r2 = 1 - np.var(mu - (slope * ns + intercept)) / np.var(mu)
        assert slope > 0 and r2 > 0.95
    assert next_ev[200] / next_ev[25] < 3.0
