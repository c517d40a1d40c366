from dataclasses import replace

import numpy as np
import pytest

from nsdfm.model import ModelSpec, Panel, Params, build_state_space
from conftest import random_instance
from oracles import measurement_map


def minimal_params(n=2, q=1):
    return Params(
        loadings=[np.arange(1, n + 1, dtype=float).reshape(n, q)],
        var_coeffs=[np.array([[0.5]])],
        gamma_u=np.array([[1.0]]),
        gamma_e_diag=np.ones(n),
        sigma2_omega=np.zeros(n),
        sigma2_eta=np.zeros(n),
        sigma2_nu=np.zeros(n),
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )


def test_minimal_system():
    # q=1, s=0, p=1, no extra states, n=2 -> K=1
    spec = ModelSpec(n=2, T=10, q=1, s=0, p=1)
    ss = build_state_space(spec, minimal_params())
    assert ss.K == 1
    np.testing.assert_allclose(ss.transition_map, [[0.5]])
    np.testing.assert_allclose(measurement_map(ss, 0), [[1.0], [2.0]])
    np.testing.assert_allclose(ss.measurement_cov_diag, np.ones(2))


def test_companion_with_unit_root_idio():
    # q=2, s=1, p=2, I1={0}, n=5 -> K=5, hand-checked block layout
    rng = np.random.default_rng(3)
    n, q = 5, 2
    A1, A2 = rng.standard_normal((q, q)) * 0.3, rng.standard_normal((q, q)) * 0.2
    B0, B1 = rng.standard_normal((n, q)), rng.standard_normal((n, q))
    s2nu = np.zeros(n)
    s2nu[0] = 1e-5
    params = Params(
        loadings=[B0, B1],
        var_coeffs=[A1, A2],
        gamma_u=np.eye(q),
        gamma_e_diag=np.full(n, 2.0),
        sigma2_omega=np.zeros(n),
        sigma2_eta=np.zeros(n),
        sigma2_nu=s2nu,
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    spec = ModelSpec(n=n, T=8, q=q, s=1, p=2, idio_i1=frozenset({0}))
    ss = build_state_space(spec, params)
    assert ss.K == 5

    expected_top = np.zeros((5, 5))
    expected_top[0:2, 0:2] = A1
    expected_top[0:2, 2:4] = A2
    expected_top[2:4, 0:2] = np.eye(2)
    expected_top[4, 4] = 1.0
    np.testing.assert_allclose(ss.transition_map, expected_top)

    Z = measurement_map(ss, 0)
    np.testing.assert_allclose(Z[:, 0:2], B0)
    np.testing.assert_allclose(Z[:, 2:4], B1)
    np.testing.assert_allclose(Z[:, 4], [1, 0, 0, 0, 0])
    # the unit-root series swaps Gamma^e for the tiny measurement variance
    assert ss.measurement_cov_diag[0] == pytest.approx(1e-5)
    np.testing.assert_allclose(ss.measurement_cov_diag[1:], 2.0)
    # its idiosyncratic variance moves to the state innovation
    assert ss.state_innovation_cov[4, 4] == pytest.approx(2.0)


def test_constraint_table_local_level():
    # i in I_a requires a unit alpha loading, sigma2_omega > 0 and sigma2_nu > 0
    n = 3
    spec = ModelSpec(n=n, T=6, q=1, s=0, p=1, local_level=frozenset({1}))
    s2w = np.zeros(n)
    s2w[1] = 0.04
    s2nu = np.zeros(n)
    s2nu[1] = 1e-5
    params = Params(
        loadings=[np.ones((n, 1))],
        var_coeffs=[np.array([[0.2]])],
        gamma_u=np.array([[1.0]]),
        gamma_e_diag=np.ones(n),
        sigma2_omega=s2w,
        sigma2_eta=np.zeros(n),
        sigma2_nu=s2nu,
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    ss = build_state_space(spec, params)
    K = ss.K
    assert K == 2  # factor + one alpha state
    Z = measurement_map(ss, 3)
    assert Z[1, 1] == 1.0
    assert ss.state_innovation_cov[1, 1] == pytest.approx(0.04)
    assert ss.measurement_cov_diag[1] == pytest.approx(1e-5)

    bad = Params(
        loadings=[np.ones((n, 1))],
        var_coeffs=[np.array([[0.2]])],
        gamma_u=np.array([[1.0]]),
        gamma_e_diag=np.ones(n),
        sigma2_omega=np.zeros(n),  # violates sigma2_omega > 0 on I_a
        sigma2_eta=np.zeros(n),
        sigma2_nu=s2nu,
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    with pytest.raises(ValueError):
        build_state_space(spec, bad)


@pytest.mark.parametrize("name, off, on", [("sigma2_omega", 1, 0), ("sigma2_eta", 0, 1), ("sigma2_nu", 2, 1)])
@pytest.mark.parametrize("nonzero_off", [True, False], ids=["nonzero_off_its_set", "zero_on_its_set"])
def test_structural_variances_are_positive_exactly_on_their_sets(name, off, on, nonzero_off):
    # series 0 has a local level, series 1 a local trend, so both carry the phi device and series 2 nothing
    spec = ModelSpec(n=3, T=6, q=1, s=0, p=1, local_level=[0], local_trend=[1])
    valid = replace(minimal_params(n=3), sigma2_omega=np.array([0.04, 0.0, 0.0]),
                    sigma2_eta=np.array([0.0, 0.01, 0.0]), sigma2_nu=np.array([1e-5, 1e-5, 0.0]))
    valid.validate(spec)
    v = np.array(getattr(valid, name))
    if nonzero_off:
        v[off] = 0.5
    else:
        v[on] = 0.0
    with pytest.raises(ValueError, match=f"{name} must be positive exactly on its index set"):
        replace(valid, **{name: v}).validate(spec)


def test_trend_loading_is_time_index():
    n = 2
    spec = ModelSpec(n=n, T=6, q=1, s=0, p=1, local_trend=frozenset({0}))
    s2e = np.zeros(n)
    s2e[0] = 0.01
    s2nu = np.zeros(n)
    s2nu[0] = 1e-5
    params = Params(
        loadings=[np.ones((n, 1))],
        var_coeffs=[np.array([[0.3]])],
        gamma_u=np.array([[1.0]]),
        gamma_e_diag=np.ones(n),
        sigma2_omega=np.zeros(n),
        sigma2_eta=s2e,
        sigma2_nu=s2nu,
        alpha0=np.zeros(n),
        beta0=np.zeros(n),
    )
    ss = build_state_space(spec, params)
    for t0 in (0, 3, 5):
        assert measurement_map(ss, t0)[0, 1] == pytest.approx(t0 + 1)


def test_non_spd_gamma_u_rejected():
    spec = ModelSpec(n=3, T=5, q=2, s=0, p=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Params(
            loadings=[rng.standard_normal((3, 2))],
            var_coeffs=[np.zeros((2, 2))],
            gamma_u=np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            gamma_e_diag=np.ones(3),
            sigma2_omega=np.zeros(3),
            sigma2_eta=np.zeros(3),
            sigma2_nu=np.zeros(3),
            alpha0=np.zeros(3),
            beta0=np.zeros(3),
        ).validate(spec)


def test_spec_index_sets():
    spec = ModelSpec(n=6, T=10, q=1, idio_i1=[0], local_level=[1], local_trend=[1, 2])
    assert spec.detrend is None and spec.detrend_set == {1, 2}
    # None is resolved on each read, so a replaced local set carries over
    assert replace(spec, local_trend={3}).detrend_set == {1, 3}
    assert replace(spec, detrend=[4]).detrend_set == frozenset({4})
    # a local level carries its series' intercept, a local trend its slope; the rest of the detrend set is free
    assert spec.free_intercepts == {2} and spec.free_slopes == frozenset()
    wide = replace(spec, detrend=[0, 1, 2, 4])
    assert wide.free_intercepts == {0, 2, 4} and wide.free_slopes == {0, 4}
    with pytest.raises(ValueError, match="detrend contains indices outside 0..5"):
        ModelSpec(n=6, T=10, q=1, detrend={6})
    # two random walks on one series are not identified; a local level and a local trend
    # make a local linear trend, and stay allowed
    with pytest.raises(ValueError, match=r"series \[2\] are in both idio_i1 and local_level"):
        ModelSpec(n=6, T=10, q=1, idio_i1={0, 2}, local_level={2})
    assert ModelSpec(n=6, T=10, q=1, idio_i1={0}, local_trend={0}).idio_im == {0}


def test_state_dim_formula():
    rng = np.random.default_rng(11)
    for _ in range(30):
        spec, params = random_instance(rng)
        ss = build_state_space(spec, params)
        expected = (spec.q * max(spec.s + 1, spec.p) + len(spec.idio_i1) + len(spec.local_level)
                    + len(spec.local_trend))
        assert ss.K == expected == spec.layout.K
        assert spec.layout == ss.layout


def test_builder_deterministic():
    rng = np.random.default_rng(7)
    spec, params = random_instance(rng)
    ss1 = build_state_space(spec, params)
    ss2 = build_state_space(spec, params)
    assert np.array_equal(ss1.transition_map, ss2.transition_map)
    assert np.array_equal(ss1.state_innovation_cov, ss2.state_innovation_cov)
    assert np.array_equal(measurement_map(ss1, 4), measurement_map(ss2, 4))


def test_from_data_marks_nan_missing_and_rejects_infinities():
    p = Panel.from_data([[1.0, np.nan], [2.0, 3.0]])
    assert p.missing_mask.tolist() == [[True, False], [True, True]]
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Panel.from_data([[1.0, bad, np.nan], [2.0, 3.0, 4.0]])


def test_panel_accepts_fully_missing_columns():
    data = np.array([[1.0, np.nan], [2.0, np.nan]])
    p = Panel.from_data(data)
    assert p.missing_mask[:, 1].sum() == 0
    assert p.n == 2 and p.T == 2
